//! Conditional configuration spaces.
//!
//! A [`ConfigSpace`] is an ordered list of hyper-parameters; each may carry a
//! [`Condition`] that activates it only when a categorical *parent* parameter
//! (declared earlier in the list) takes one of the listed values. A
//! [`Configuration`] stores one `Option<f64>` per parameter — `None` when the
//! parameter is inactive — and can be encoded to a fixed-width vector for the
//! surrogate (`-1` marks inactive slots, active values are scaled into
//! `[0, 1]`).

use crate::{BoError, Result};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;

/// Value domain of a hyper-parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// Continuous in `[lo, hi]` (log-uniform sampling when `log`).
    Float {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Log-scale flag.
        log: bool,
    },
    /// Integer in `[lo, hi]` inclusive.
    Int {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
        /// Log-scale flag.
        log: bool,
    },
    /// Categorical with `n` choices, values are indices `0..n`.
    Cat {
        /// Number of choices.
        n: usize,
    },
}

impl Domain {
    /// Number of distinct values (∞ ⇒ `None`) — used by grid-style baselines.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            Domain::Float { .. } => None,
            Domain::Int { lo, hi, .. } => Some((hi - lo + 1).max(0) as usize),
            Domain::Cat { n } => Some(*n),
        }
    }

    fn clamp(&self, v: f64) -> f64 {
        match self {
            Domain::Float { lo, hi, .. } => v.clamp(*lo, *hi),
            Domain::Int { lo, hi, .. } => v.round().clamp(*lo as f64, *hi as f64),
            Domain::Cat { n } => v.round().clamp(0.0, (*n as f64 - 1.0).max(0.0)),
        }
    }

    /// Scales a domain value into `[0, 1]` for the surrogate encoding.
    pub fn to_unit(&self, v: f64) -> f64 {
        match self {
            Domain::Float { lo, hi, log } => {
                if *log {
                    ((v.max(1e-300).ln() - lo.max(1e-300).ln())
                        / (hi.max(1e-300).ln() - lo.max(1e-300).ln()).max(1e-12))
                    .clamp(0.0, 1.0)
                } else {
                    ((v - lo) / (hi - lo).max(1e-12)).clamp(0.0, 1.0)
                }
            }
            Domain::Int { lo, hi, log } => {
                let (lo, hi, v) = (*lo as f64, *hi as f64, v);
                if *log {
                    ((v.max(1.0).ln() - lo.max(1.0).ln()) / (hi.max(1.0).ln() - lo.max(1.0).ln()).max(1e-12))
                        .clamp(0.0, 1.0)
                } else {
                    ((v - lo) / (hi - lo).max(1e-12)).clamp(0.0, 1.0)
                }
            }
            Domain::Cat { n } => {
                if *n <= 1 {
                    0.0
                } else {
                    (v / (*n as f64 - 1.0)).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Maps a unit value back into the domain (inverse of [`Domain::to_unit`]).
    pub fn from_unit(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            Domain::Float { lo, hi, log } => {
                if *log {
                    (lo.max(1e-300).ln() + u * (hi.max(1e-300).ln() - lo.max(1e-300).ln())).exp()
                } else {
                    lo + u * (hi - lo)
                }
            }
            Domain::Int { lo, hi, log } => {
                let (lof, hif) = (*lo as f64, *hi as f64);
                let raw = if *log {
                    (lof.max(1.0).ln() + u * (hif.max(1.0).ln() - lof.max(1.0).ln())).exp()
                } else {
                    lof + u * (hif - lof)
                };
                raw.round().clamp(lof, hif)
            }
            Domain::Cat { n } => (u * (*n as f64 - 1.0)).round().clamp(0.0, (*n - 1) as f64),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> f64 {
        self.from_unit(rng.random::<f64>())
    }
}

/// Activation condition: active iff the parent categorical takes one of the
/// listed choice indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Index of the parent parameter in the space.
    pub parent: usize,
    /// Parent values that activate this parameter.
    pub values: Vec<usize>,
}

/// A named hyper-parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperparameter {
    /// Unique name within the space.
    pub name: String,
    /// Value domain.
    pub domain: Domain,
    /// Default value (must lie in the domain).
    pub default: f64,
    /// Optional activation condition.
    pub condition: Option<Condition>,
}

/// An ordered, conditional configuration space.
#[derive(Debug, Clone, Default)]
pub struct ConfigSpace {
    params: Vec<Hyperparameter>,
    by_name: HashMap<String, usize>,
}

impl ConfigSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        ConfigSpace::default()
    }

    /// Appends an unconditional parameter. Returns its index.
    pub fn add(&mut self, name: impl Into<String>, domain: Domain, default: f64) -> Result<usize> {
        self.add_conditional(name, domain, default, None)
    }

    /// Appends a parameter with an optional condition. The parent must have
    /// been added earlier and must be categorical.
    pub fn add_conditional(
        &mut self,
        name: impl Into<String>,
        domain: Domain,
        default: f64,
        condition: Option<Condition>,
    ) -> Result<usize> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(BoError::InvalidSpace(format!("duplicate parameter {name}")));
        }
        if let Some(cond) = &condition {
            if cond.parent >= self.params.len() {
                return Err(BoError::InvalidSpace(format!(
                    "{name}: parent index {} not yet defined",
                    cond.parent
                )));
            }
            match self.params[cond.parent].domain {
                Domain::Cat { n } => {
                    if cond.values.iter().any(|&v| v >= n) {
                        return Err(BoError::InvalidSpace(format!(
                            "{name}: condition value out of range for parent"
                        )));
                    }
                }
                _ => {
                    return Err(BoError::InvalidSpace(format!(
                        "{name}: parent must be categorical"
                    )))
                }
            }
        }
        let clamped_default = domain.clamp(default);
        let idx = self.params.len();
        self.by_name.insert(name.clone(), idx);
        self.params.push(Hyperparameter {
            name,
            domain,
            default: clamped_default,
            condition,
        });
        Ok(idx)
    }

    /// Number of parameters (active or not).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Parameter list in order.
    pub fn params(&self) -> &[Hyperparameter] {
        &self.params
    }

    /// Index of a parameter by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Whether parameter `idx` is active under the given raw values.
    fn is_active(&self, idx: usize, values: &[Option<f64>]) -> bool {
        match &self.params[idx].condition {
            None => true,
            Some(cond) => match values[cond.parent] {
                Some(v) => {
                    // Parent must itself be active.
                    self.is_active(cond.parent, values)
                        && cond.values.contains(&(v.round().max(0.0) as usize))
                }
                None => false,
            },
        }
    }

    /// The all-defaults configuration.
    pub fn default_configuration(&self) -> Configuration {
        let mut values: Vec<Option<f64>> = self.params.iter().map(|p| Some(p.default)).collect();
        self.deactivate_inactive(&mut values);
        Configuration { values }
    }

    /// Samples a configuration uniformly (respecting conditions).
    pub fn sample(&self, rng: &mut StdRng) -> Configuration {
        let mut values: Vec<Option<f64>> = Vec::with_capacity(self.params.len());
        for i in 0..self.params.len() {
            // Parents precede children, so activity is decidable on the fly.
            let active = match &self.params[i].condition {
                None => true,
                Some(cond) => match values[cond.parent] {
                    Some(v) => cond.values.contains(&(v.round().max(0.0) as usize)),
                    None => false,
                },
            };
            values.push(if active {
                Some(self.params[i].domain.sample(rng))
            } else {
                None
            });
        }
        Configuration { values }
    }

    /// Clears values of parameters whose conditions do not hold.
    fn deactivate_inactive(&self, values: &mut [Option<f64>]) {
        for i in 0..self.params.len() {
            if !self.is_active(i, values) {
                values[i] = None;
            }
        }
    }

    /// Produces a neighbor of `config` by perturbing one active parameter
    /// (local-search move for acquisition optimization).
    pub fn neighbor(&self, config: &Configuration, rng: &mut StdRng) -> Configuration {
        let active: Vec<usize> = (0..self.params.len())
            .filter(|&i| config.values[i].is_some())
            .collect();
        if active.is_empty() {
            return config.clone();
        }
        let pick = active[rng.random_range(0..active.len())];
        let mut values = config.values.clone();
        let p = &self.params[pick];
        let new_value = match &p.domain {
            Domain::Cat { n } => {
                if *n <= 1 {
                    0.0
                } else {
                    let cur = values[pick].unwrap_or(0.0).round() as usize;
                    let mut next = rng.random_range(0..*n - 1);
                    if next >= cur {
                        next += 1;
                    }
                    next as f64
                }
            }
            domain => {
                let cur_unit = domain.to_unit(values[pick].unwrap_or(p.default));
                // Gaussian step in unit space (Box–Muller, local move).
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                domain.from_unit((cur_unit + 0.2 * g).clamp(0.0, 1.0))
            }
        };
        values[pick] = Some(new_value);
        // Re-activate/deactivate children: inactive children get fresh
        // defaults when they become active.
        for i in 0..self.params.len() {
            if self.is_active(i, &values) {
                if values[i].is_none() {
                    values[i] = Some(self.params[i].default);
                }
            } else {
                values[i] = None;
            }
        }
        Configuration { values }
    }

    /// Encodes a configuration for the surrogate: one slot per parameter,
    /// active values scaled into `[0, 1]`, inactive slots `-1`.
    pub fn encode(&self, config: &Configuration) -> Vec<f64> {
        config
            .values
            .iter()
            .zip(self.params.iter())
            .map(|(v, p)| match v {
                Some(v) => p.domain.to_unit(*v),
                None => -1.0,
            })
            .collect()
    }

    /// Active `(name, value)` pairs as a map — the interface to pipeline and
    /// model factories.
    pub fn to_map(&self, config: &Configuration) -> HashMap<String, f64> {
        config
            .values
            .iter()
            .zip(self.params.iter())
            .filter_map(|(v, p)| v.map(|v| (p.name.clone(), v)))
            .collect()
    }

    /// Validates that a configuration matches the space (width, domains,
    /// activity pattern).
    pub fn validate(&self, config: &Configuration) -> Result<()> {
        if config.values.len() != self.params.len() {
            return Err(BoError::InvalidConfiguration(format!(
                "width {} vs space {}",
                config.values.len(),
                self.params.len()
            )));
        }
        for (i, (v, p)) in config.values.iter().zip(self.params.iter()).enumerate() {
            let should_be_active = self.is_active(i, &config.values);
            match (v, should_be_active) {
                (Some(_), false) => {
                    return Err(BoError::InvalidConfiguration(format!(
                        "{} is set but inactive",
                        p.name
                    )))
                }
                (None, true) => {
                    return Err(BoError::InvalidConfiguration(format!(
                        "{} is active but unset",
                        p.name
                    )))
                }
                (Some(v), true) => {
                    let clamped = p.domain.clamp(*v);
                    if (clamped - v).abs() > 1e-9 {
                        return Err(BoError::InvalidConfiguration(format!(
                            "{} = {v} outside domain",
                            p.name
                        )));
                    }
                }
                (None, false) => {}
            }
        }
        Ok(())
    }

    /// Builds a configuration from a name→value map; unset active parameters
    /// take defaults, and values are clamped into their domains.
    pub fn from_map(&self, map: &HashMap<String, f64>) -> Configuration {
        let mut values: Vec<Option<f64>> = self
            .params
            .iter()
            .map(|p| Some(p.domain.clamp(*map.get(&p.name).unwrap_or(&p.default))))
            .collect();
        self.deactivate_inactive(&mut values);
        Configuration { values }
    }
}

/// One point in a configuration space.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    /// Per-parameter raw values; `None` = inactive.
    pub values: Vec<Option<f64>>,
}

impl Configuration {
    /// Value of parameter `idx` if active.
    pub fn get(&self, idx: usize) -> Option<f64> {
        self.values.get(idx).copied().flatten()
    }

    /// Stable hash key for caching (bit-exact on values).
    pub fn cache_key(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in &self.values {
            let bits = match v {
                Some(v) => v.to_bits(),
                None => u64::MAX,
            };
            h ^= bits;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Canonical bitwise rendering for state snapshots: one 16-hex-digit
    /// word per value, `-` for inactive conditionals.
    pub fn bits(&self) -> String {
        self.values
            .iter()
            .map(|v| match v {
                Some(x) => format!("{:016x}", x.to_bits()),
                None => "-".to_string(),
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::from_seed;

    fn toy_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        let alg = s.add("alg", Domain::Cat { n: 3 }, 0.0).unwrap();
        s.add_conditional(
            "c_svm",
            Domain::Float { lo: 0.1, hi: 10.0, log: true },
            1.0,
            Some(Condition { parent: alg, values: vec![0] }),
        )
        .unwrap();
        s.add_conditional(
            "trees",
            Domain::Int { lo: 10, hi: 100, log: false },
            50.0,
            Some(Condition { parent: alg, values: vec![1, 2] }),
        )
        .unwrap();
        s.add("lr", Domain::Float { lo: 1e-4, hi: 1.0, log: true }, 0.01)
            .unwrap();
        s
    }

    #[test]
    fn default_configuration_respects_conditions() {
        let s = toy_space();
        let c = s.default_configuration();
        assert_eq!(c.get(0), Some(0.0));
        assert!(c.get(1).is_some()); // active (alg == 0)
        assert!(c.get(2).is_none()); // inactive
        s.validate(&c).unwrap();
    }

    #[test]
    fn sampling_respects_conditions_and_domains() {
        let s = toy_space();
        let mut rng = from_seed(0);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            s.validate(&c).unwrap();
            let alg = c.get(0).unwrap() as usize;
            if alg == 0 {
                assert!(c.get(1).is_some() && c.get(2).is_none());
                let v = c.get(1).unwrap();
                assert!((0.1..=10.0).contains(&v));
            } else {
                assert!(c.get(1).is_none() && c.get(2).is_some());
                let t = c.get(2).unwrap();
                assert!(t.fract() == 0.0 && (10.0..=100.0).contains(&t));
            }
        }
    }

    #[test]
    fn log_sampling_covers_decades() {
        let mut s = ConfigSpace::new();
        s.add("x", Domain::Float { lo: 1e-4, hi: 1.0, log: true }, 0.01)
            .unwrap();
        let mut rng = from_seed(1);
        let mut small = 0;
        for _ in 0..1000 {
            let c = s.sample(&mut rng);
            if c.get(0).unwrap() < 1e-2 {
                small += 1;
            }
        }
        // Log-uniform: ~half the draws below the geometric midpoint.
        assert!((350..=650).contains(&small), "{small}");
    }

    #[test]
    fn encode_marks_inactive_with_sentinel() {
        let s = toy_space();
        let c = s.default_configuration();
        let e = s.encode(&c);
        assert_eq!(e.len(), 4);
        assert_eq!(e[2], -1.0);
        assert!(e.iter().all(|&v| v == -1.0 || (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn unit_roundtrip() {
        let d = Domain::Float { lo: 1e-3, hi: 1e3, log: true };
        for v in [1e-3, 0.1, 1.0, 10.0, 1e3] {
            let u = d.to_unit(v);
            assert!((d.from_unit(u) - v).abs() / v < 1e-9);
        }
        let i = Domain::Int { lo: 2, hi: 20, log: false };
        assert_eq!(i.from_unit(i.to_unit(7.0)), 7.0);
        let c = Domain::Cat { n: 4 };
        for v in 0..4 {
            assert_eq!(c.from_unit(c.to_unit(v as f64)), v as f64);
        }
    }

    #[test]
    fn neighbor_stays_valid_and_differs() {
        let s = toy_space();
        let mut rng = from_seed(3);
        let base = s.default_configuration();
        let mut changed = 0;
        for _ in 0..100 {
            let n = s.neighbor(&base, &mut rng);
            s.validate(&n).unwrap();
            if n != base {
                changed += 1;
            }
        }
        assert!(changed > 90);
    }

    #[test]
    fn neighbor_activates_children_with_defaults() {
        let s = toy_space();
        let mut rng = from_seed(4);
        let base = s.default_configuration();
        // Find a neighbor that flips alg to 1 or 2: trees must become active.
        for _ in 0..500 {
            let n = s.neighbor(&base, &mut rng);
            if n.get(0).map(|v| v as usize) != Some(0) {
                assert!(n.get(2).is_some());
                assert!(n.get(1).is_none());
                return;
            }
        }
        panic!("never flipped the categorical");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = ConfigSpace::new();
        s.add("x", Domain::Cat { n: 2 }, 0.0).unwrap();
        assert!(s.add("x", Domain::Cat { n: 2 }, 0.0).is_err());
    }

    #[test]
    fn child_before_parent_rejected() {
        let mut s = ConfigSpace::new();
        let r = s.add_conditional(
            "child",
            Domain::Cat { n: 2 },
            0.0,
            Some(Condition { parent: 5, values: vec![0] }),
        );
        assert!(r.is_err());
    }

    #[test]
    fn non_categorical_parent_rejected() {
        let mut s = ConfigSpace::new();
        let p = s.add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false }, 0.5).unwrap();
        let r = s.add_conditional(
            "child",
            Domain::Cat { n: 2 },
            0.0,
            Some(Condition { parent: p, values: vec![0] }),
        );
        assert!(r.is_err());
    }

    #[test]
    fn validate_catches_mismatches() {
        let s = toy_space();
        let mut c = s.default_configuration();
        c.values[2] = Some(50.0); // inactive param set
        assert!(s.validate(&c).is_err());
        let mut c2 = s.default_configuration();
        c2.values[1] = Some(1e9); // out of domain
        assert!(s.validate(&c2).is_err());
    }

    #[test]
    fn from_map_and_to_map_roundtrip() {
        let s = toy_space();
        let mut m = HashMap::new();
        m.insert("alg".to_string(), 1.0);
        m.insert("trees".to_string(), 64.0);
        let c = s.from_map(&m);
        s.validate(&c).unwrap();
        let back = s.to_map(&c);
        assert_eq!(back.get("alg"), Some(&1.0));
        assert_eq!(back.get("trees"), Some(&64.0));
        assert!(!back.contains_key("c_svm"));
    }

    #[test]
    fn cache_key_distinguishes_configs() {
        let s = toy_space();
        let mut rng = from_seed(9);
        let a = s.sample(&mut rng);
        let b = s.sample(&mut rng);
        assert_eq!(a.cache_key(), a.clone().cache_key());
        if a != b {
            assert_ne!(a.cache_key(), b.cache_key());
        }
    }
}
