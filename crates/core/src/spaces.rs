//! Assembly of the joint AutoML search space.
//!
//! A [`SpaceDef`] is the *logical* variable list — algorithm selector,
//! per-algorithm hyper-parameters (conditioned on the selector), and FE
//! parameters — from which execution plans carve out per-block
//! [`volcanoml_bo::ConfigSpace`]s. Variable naming convention:
//!
//! - `algorithm` — categorical over the tier's algorithm list;
//! - `alg:<name>:<param>` — hyper-parameter of one algorithm, active iff
//!   `algorithm` selects it;
//! - `fe:<param>` — feature-engineering parameter (conditions between FE
//!   parameters use the same prefix).

use crate::{CoreError, Result};
use std::collections::HashMap;
use volcanoml_bo::{Condition, ConfigSpace, Domain};
use volcanoml_data::Task;
use volcanoml_fe::pipeline::FeSpaceOptions;
use volcanoml_fe::space::{fe_param_defs, fe_param_defs_minimal, FeExpansion, FeParam};
use volcanoml_models::{AlgorithmKind, ParamKind};

/// Which logical part of the space a variable belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarGroup {
    /// The algorithm selector.
    Algorithm,
    /// Hyper-parameter of algorithm `index` in the tier's list.
    Hp(usize),
    /// Feature-engineering parameter.
    Fe,
}

/// One logical search-space variable.
#[derive(Debug, Clone)]
pub struct VarDef {
    /// Fully-qualified name (see module docs).
    pub name: String,
    /// Value domain.
    pub domain: Domain,
    /// Default value.
    pub default: f64,
    /// `Some((parent_name, activating_values))`.
    pub condition: Option<(String, Vec<usize>)>,
    /// Group tag used by plan split rules.
    pub group: VarGroup,
}

/// The paper's three search-space tiers (§5.1: 20 / 29 / 100
/// hyper-parameters; our actual counts are reported by [`SpaceDef::len`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceTier {
    /// Few algorithms, minimal FE.
    Small,
    /// Half the zoo, full FE.
    Medium,
    /// The entire zoo, full FE.
    Large,
}

impl SpaceTier {
    const ALL: [SpaceTier; 3] = [SpaceTier::Small, SpaceTier::Medium, SpaceTier::Large];

    /// Lower-case tier name, as the front ends spell it.
    pub fn name(self) -> &'static str {
        match self {
            SpaceTier::Small => "small",
            SpaceTier::Medium => "medium",
            SpaceTier::Large => "large",
        }
    }

    /// Inverse of [`SpaceTier::name`].
    pub fn from_name(s: &str) -> std::result::Result<SpaceTier, String> {
        SpaceTier::ALL
            .into_iter()
            .find(|t| t.name() == s)
            .ok_or_else(|| format!("unknown tier '{s}'"))
    }
}

/// The logical AutoML search space.
#[derive(Debug, Clone)]
pub struct SpaceDef {
    /// Task the space targets.
    pub task: Task,
    /// Algorithms selectable via the `algorithm` variable (index = choice).
    pub algorithms: Vec<AlgorithmKind>,
    /// All variables, parents before children.
    pub vars: Vec<VarDef>,
    /// FE enrichment options (needed to rebuild pipelines from values).
    pub fe_options: FeSpaceOptions,
}

fn param_kind_to_domain(kind: &ParamKind) -> (Domain, f64) {
    match kind {
        ParamKind::Float { lo, hi, default, log } => (
            Domain::Float {
                lo: *lo,
                hi: *hi,
                log: *log,
            },
            *default,
        ),
        ParamKind::Int { lo, hi, default, log } => (
            Domain::Int {
                lo: *lo,
                hi: *hi,
                log: *log,
            },
            *default as f64,
        ),
        ParamKind::Cat { choices, default } => (Domain::Cat { n: choices.len() }, *default as f64),
    }
}

impl SpaceDef {
    /// Builds a space over the given algorithms and FE parameters.
    pub fn build(
        task: Task,
        algorithms: Vec<AlgorithmKind>,
        fe_params: Vec<FeParam>,
        fe_options: FeSpaceOptions,
    ) -> Result<SpaceDef> {
        if algorithms.is_empty() {
            return Err(CoreError::Invalid("no algorithms in space".into()));
        }
        for a in &algorithms {
            if a.task() != task {
                return Err(CoreError::Invalid(format!(
                    "algorithm {} does not solve {:?}",
                    a.name(),
                    task
                )));
            }
        }
        let mut vars = Vec::new();
        vars.push(VarDef {
            name: "algorithm".to_string(),
            domain: Domain::Cat {
                n: algorithms.len(),
            },
            default: 0.0,
            condition: None,
            group: VarGroup::Algorithm,
        });
        for (idx, alg) in algorithms.iter().enumerate() {
            for def in alg.param_defs() {
                let (domain, default) = param_kind_to_domain(&def.kind);
                vars.push(VarDef {
                    name: format!("alg:{}:{}", alg.name(), def.name),
                    domain,
                    default,
                    condition: Some(("algorithm".to_string(), vec![idx])),
                    group: VarGroup::Hp(idx),
                });
            }
        }
        for fe in fe_params {
            let (domain, default) = param_kind_to_domain(&fe.def.kind);
            vars.push(VarDef {
                name: format!("fe:{}", fe.def.name),
                domain,
                default,
                condition: fe
                    .condition
                    .map(|(parent, values)| (format!("fe:{parent}"), values)),
                group: VarGroup::Fe,
            });
        }
        Ok(SpaceDef {
            task,
            algorithms,
            vars,
            fe_options,
        })
    }

    /// The tiered spaces used in the scalability study.
    pub fn tiered(task: Task, tier: SpaceTier) -> SpaceDef {
        use AlgorithmKind::*;
        let algorithms = match (task, tier) {
            (Task::Classification, SpaceTier::Small) => {
                vec![Logistic, RandomForest, Knn]
            }
            (Task::Classification, SpaceTier::Medium) => vec![
                Logistic,
                LinearSvm,
                RandomForest,
                GradientBoosting,
                Knn,
                GaussianNb,
            ],
            (Task::Classification, SpaceTier::Large) => AlgorithmKind::for_task(task),
            (Task::Regression, SpaceTier::Small) => vec![Ridge, RandomForestReg, KnnReg],
            (Task::Regression, SpaceTier::Medium) => vec![
                Ridge,
                Lasso,
                RandomForestReg,
                GradientBoostingReg,
                KnnReg,
                SgdRegressor,
            ],
            (Task::Regression, SpaceTier::Large) => AlgorithmKind::for_task(task),
        };
        let fe_options = FeSpaceOptions::default();
        let fe = match tier {
            SpaceTier::Small => fe_param_defs_minimal(task),
            _ => fe_param_defs(task, &fe_options),
        };
        SpaceDef::build(task, algorithms, fe, fe_options)
            .expect("tiered spaces are internally consistent")
    }

    /// The auto-sklearn-equivalent space (§5.2): the large tier.
    pub fn auto_sklearn_equivalent(task: Task) -> SpaceDef {
        SpaceDef::tiered(task, SpaceTier::Large)
    }

    /// A space with enriched FE (SMOTE and/or embedding stage, §5.3).
    pub fn enriched(task: Task, fe_options: FeSpaceOptions) -> SpaceDef {
        let fe = fe_param_defs(task, &fe_options);
        SpaceDef::build(task, AlgorithmKind::for_task(task), fe, fe_options)
            .expect("enriched spaces are internally consistent")
    }

    /// Number of variables (the paper's "hyper-parameter count").
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when no variables exist (never for built spaces).
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Variable lookup by name.
    pub fn var(&self, name: &str) -> Option<&VarDef> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Compiles a subset of the variables into a `ConfigSpace`.
    ///
    /// `fixed` maps variable names to pinned values (these are excluded from
    /// the space). Conditions whose parent is pinned are resolved: child
    /// variables inactive under the pinned parent value are dropped, active
    /// ones become unconditional. Conditions whose parent is also in the
    /// subset are preserved.
    pub fn compile_subspace(
        &self,
        include: &[String],
        fixed: &HashMap<String, f64>,
    ) -> Result<ConfigSpace> {
        let mut space = ConfigSpace::new();
        let mut index_of: HashMap<String, usize> = HashMap::new();
        for var in &self.vars {
            if !include.contains(&var.name) || fixed.contains_key(&var.name) {
                continue;
            }
            let condition = match &var.condition {
                None => None,
                Some((parent, values)) => {
                    if let Some(pinned) = fixed.get(parent) {
                        let pv = pinned.round().max(0.0) as usize;
                        if values.contains(&pv) {
                            None // unconditionally active
                        } else {
                            continue; // inactive under the pinned parent
                        }
                    } else if let Some(&pidx) = index_of.get(parent) {
                        Some(Condition {
                            parent: pidx,
                            values: values.clone(),
                        })
                    } else {
                        // Parent excluded but not pinned: treat the child as
                        // unconditional (its activity is governed elsewhere).
                        None
                    }
                }
            };
            let idx = space
                .add_conditional(var.name.clone(), var.domain.clone(), var.default, condition)
                .map_err(CoreError::from)?;
            index_of.insert(var.name.clone(), idx);
        }
        Ok(space)
    }

    /// Applies one FE expansion in place: first widens existing categorical
    /// FE variables with extra trailing choices (existing choice indices are
    /// untouched, so observed values stay valid), then appends the
    /// expansion's new variables at the end of `vars` (preserving the
    /// parents-before-children invariant — earlier variables never move).
    pub fn apply_fe_expansion(&mut self, exp: &FeExpansion) -> Result<()> {
        for (name, extra) in &exp.widen {
            let full = format!("fe:{name}");
            let var = self
                .vars
                .iter_mut()
                .find(|v| v.name == full)
                .ok_or_else(|| {
                    CoreError::Invalid(format!(
                        "expansion {} widens unknown variable {full}",
                        exp.name
                    ))
                })?;
            match &mut var.domain {
                Domain::Cat { n } => *n += extra.len(),
                _ => {
                    return Err(CoreError::Invalid(format!(
                        "expansion {} widens non-categorical {full}",
                        exp.name
                    )))
                }
            }
        }
        for fe in &exp.params {
            let (domain, default) = param_kind_to_domain(&fe.def.kind);
            let name = format!("fe:{}", fe.def.name);
            if self.var(&name).is_some() {
                return Err(CoreError::Invalid(format!(
                    "expansion {} re-adds variable {name}",
                    exp.name
                )));
            }
            let condition = fe
                .condition
                .clone()
                .map(|(parent, values)| (format!("fe:{parent}"), values));
            if let Some((parent, values)) = &condition {
                match self.var(parent).map(|p| &p.domain) {
                    Some(Domain::Cat { n }) => {
                        if values.iter().any(|v| v >= n) {
                            return Err(CoreError::Invalid(format!(
                                "expansion {}: {name} condition value out of range for {parent}",
                                exp.name
                            )));
                        }
                    }
                    Some(_) => {
                        return Err(CoreError::Invalid(format!(
                            "expansion {}: {name} parent {parent} is not categorical",
                            exp.name
                        )))
                    }
                    None => {
                        return Err(CoreError::Invalid(format!(
                            "expansion {}: {name} parent {parent} does not exist",
                            exp.name
                        )))
                    }
                }
            }
            self.vars.push(VarDef {
                name,
                domain,
                default,
                condition,
                group: VarGroup::Fe,
            });
        }
        Ok(())
    }

    /// Names of all variables, in order.
    pub fn var_names(&self) -> Vec<String> {
        self.vars.iter().map(|v| v.name.clone()).collect()
    }

    /// Default assignment over all variables (used to seed `set_var` before
    /// any evaluation).
    pub fn defaults(&self) -> HashMap<String, f64> {
        self.vars
            .iter()
            .map(|v| (v.name.clone(), v.default))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip() {
        for tier in SpaceTier::ALL {
            assert_eq!(SpaceTier::from_name(tier.name()), Ok(tier));
        }
        assert_eq!(
            SpaceTier::from_name("huge").unwrap_err(),
            "unknown tier 'huge'"
        );
    }

    #[test]
    fn tier_sizes_are_increasing() {
        for task in [Task::Classification, Task::Regression] {
            let s = SpaceDef::tiered(task, SpaceTier::Small).len();
            let m = SpaceDef::tiered(task, SpaceTier::Medium).len();
            let l = SpaceDef::tiered(task, SpaceTier::Large).len();
            assert!(s < m && m < l, "{task:?}: {s} {m} {l}");
        }
    }

    #[test]
    fn large_space_has_many_vars() {
        let l = SpaceDef::tiered(Task::Classification, SpaceTier::Large);
        assert!(l.len() >= 50, "{}", l.len());
        assert_eq!(l.algorithms.len(), 13);
    }

    #[test]
    fn var_naming_convention() {
        let s = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        assert!(s.var("algorithm").is_some());
        assert!(s.var("alg:logistic:alpha").is_some());
        assert!(s.var("fe:rescaler").is_some());
        // HP variables are conditioned on the algorithm selector.
        let hp = s.var("alg:logistic:alpha").unwrap();
        assert_eq!(hp.condition.as_ref().unwrap().0, "algorithm");
    }

    #[test]
    fn compile_full_space_preserves_conditions() {
        let def = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let space = def
            .compile_subspace(&def.var_names(), &HashMap::new())
            .unwrap();
        assert_eq!(space.len(), def.len());
        // Sampling produces valid configurations with exactly one active
        // algorithm's HPs.
        let mut rng = volcanoml_data::rand_util::rng_from_seed(0);
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            space.validate(&c).unwrap();
            let map = space.to_map(&c);
            let alg_idx = map["algorithm"] as usize;
            let alg = def.algorithms[alg_idx].name();
            for key in map.keys() {
                if let Some(rest) = key.strip_prefix("alg:") {
                    assert!(
                        rest.starts_with(alg),
                        "inactive algorithm param {key} for algorithm {alg}"
                    );
                }
            }
        }
    }

    #[test]
    fn compile_with_pinned_algorithm_drops_other_hps() {
        let def = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let mut fixed = HashMap::new();
        fixed.insert("algorithm".to_string(), 1.0); // random_forest
        let space = def
            .compile_subspace(&def.var_names(), &fixed)
            .unwrap();
        let names: Vec<&str> = space.params().iter().map(|p| p.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("alg:random_forest:")));
        assert!(!names.iter().any(|n| n.starts_with("alg:logistic:")));
        assert!(!names.contains(&"algorithm"));
    }

    #[test]
    fn compile_fe_only_subspace() {
        let def = SpaceDef::tiered(Task::Classification, SpaceTier::Medium);
        let fe_vars: Vec<String> = def
            .vars
            .iter()
            .filter(|v| v.group == VarGroup::Fe)
            .map(|v| v.name.clone())
            .collect();
        let space = def.compile_subspace(&fe_vars, &HashMap::new()).unwrap();
        assert_eq!(space.len(), fe_vars.len());
        // FE-internal conditions survive.
        let quantiles = space.index_of("fe:rescaler_quantiles").unwrap();
        assert!(space.params()[quantiles].condition.is_some());
    }

    #[test]
    fn enriched_space_contains_smote() {
        let fe_options = FeSpaceOptions {
            include_smote: true,
            embedding: None,
        };
        let def = SpaceDef::enriched(Task::Classification, fe_options);
        assert!(def.var("fe:smote_k").is_some());
        let base = SpaceDef::auto_sklearn_equivalent(Task::Classification);
        assert_eq!(def.len(), base.len() + 1);
    }

    #[test]
    fn fe_expansion_appends_vars_and_widens_in_place() {
        use volcanoml_fe::space::fe_expansions;
        let mut def = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let before_names = def.var_names();
        let expansions = fe_expansions(Task::Classification, &def.fe_options);
        // Stage 1: the dormant transform stage appears, everything existing
        // keeps its position.
        def.apply_fe_expansion(&expansions[0]).unwrap();
        assert_eq!(&def.var_names()[..before_names.len()], &before_names[..]);
        let transform = def.var("fe:transform").unwrap();
        assert_eq!(transform.domain, Domain::Cat { n: 7 });
        // Stage 2: operator families widen `fe:transform` to 8 choices and
        // append the encoder family.
        let before_second = def.len();
        def.apply_fe_expansion(&expansions[1]).unwrap();
        let added: Vec<&str> = def.vars[before_second..].iter().map(|v| v.name.as_str()).collect();
        assert!(added.contains(&"fe:cat_encoder"));
        assert!(added.contains(&"fe:binning_bins"));
        assert_eq!(def.var("fe:transform").unwrap().domain, Domain::Cat { n: 8 });
        // The grown space still compiles with valid conditions, and the new
        // children condition on their new parents.
        let space = def.compile_subspace(&def.var_names(), &HashMap::new()).unwrap();
        assert_eq!(space.len(), def.len());
        let bins = space.index_of("fe:binning_bins").unwrap();
        let cond = space.params()[bins].condition.as_ref().unwrap();
        assert_eq!(space.params()[cond.parent].name, "fe:transform");
        assert_eq!(cond.values, vec![7]);
        let mut rng = volcanoml_data::rand_util::rng_from_seed(1);
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            space.validate(&c).unwrap();
        }
    }

    #[test]
    fn fully_grown_space_is_superset_of_fixed_space() {
        use volcanoml_fe::space::fe_expansions;
        let fixed = SpaceDef::tiered(Task::Classification, SpaceTier::Medium);
        let mut grown = SpaceDef::build(
            fixed.task,
            fixed.algorithms.clone(),
            volcanoml_fe::space::fe_param_defs_minimal(fixed.task),
            fixed.fe_options.clone(),
        )
        .unwrap();
        assert!(grown.len() < fixed.len(), "stage 0 must run fewer variables");
        for exp in fe_expansions(fixed.task, &fixed.fe_options) {
            grown.apply_fe_expansion(&exp).unwrap();
        }
        // Every fixed-space variable exists in the grown space with the same
        // default and condition; Cat domains may only be wider.
        for v in &fixed.vars {
            let g = grown.var(&v.name).unwrap_or_else(|| panic!("{} missing", v.name));
            assert_eq!(g.default.to_bits(), v.default.to_bits(), "{}", v.name);
            assert_eq!(g.condition, v.condition, "{}", v.name);
            match (&g.domain, &v.domain) {
                (Domain::Cat { n: gn }, Domain::Cat { n: fnn }) => assert!(gn >= fnn, "{}", v.name),
                (gd, fd) => assert_eq!(gd, fd, "{}", v.name),
            }
        }
        assert!(grown.len() > fixed.len(), "operator families extend the template");
    }

    #[test]
    fn fe_expansion_rejects_bad_shapes() {
        use volcanoml_fe::space::fe_expansions;
        let mut def = SpaceDef::tiered(Task::Classification, SpaceTier::Small);
        let expansions = fe_expansions(Task::Classification, &def.fe_options);
        // Applying the second expansion without the first fails: `transform`
        // (the widening target and `binning_bins` parent) does not exist yet.
        assert!(def.apply_fe_expansion(&expansions[1]).is_err());
        // Applying the same expansion twice fails on the duplicate name.
        def.apply_fe_expansion(&expansions[0]).unwrap();
        assert!(def.apply_fe_expansion(&expansions[0]).is_err());
    }

    #[test]
    fn build_rejects_task_mismatch() {
        let r = SpaceDef::build(
            Task::Regression,
            vec![AlgorithmKind::Logistic],
            vec![],
            FeSpaceOptions::default(),
        );
        assert!(r.is_err());
    }
}
