//! Bitwise-stable study-state snapshots for crash-resume verification.
//!
//! A [`StudyState`] captures everything that determines a search's future
//! scheduling decisions: the evaluator's observed-work multiset, every
//! block's incumbent/trajectory/bandit occupancy, and every engine's
//! scheduler internals (bracket queues, in-flight sets, rung results). All
//! floats are rendered as `f64::to_bits` hex words, so two snapshots are
//! equal iff the underlying states are *bitwise* equal.
//!
//! The crash-resume contract this verifies: VolcanoML's schedules are
//! deterministic functions of the seed and the *observed trial outcomes* —
//! losses always, and in cost-aware mode the journaled wall-clock costs
//! too (EI-per-second acquisition, loss-per-second promotion). Resuming a
//! run by re-driving the same plan while answering journaled trials from
//! the replay table must land the tree in exactly the interrupted run's
//! state; replay answers both coordinates bitwise (cached trials resolve
//! to their memoized true cost, not the journal's cost-0 accounting row),
//! so the contract holds for cost-aware studies as well. The resume
//! property tests assert `capture` of a fully-replayed run equals `capture`
//! of the uninterrupted run, line for line.

use crate::block::{BuildingBlock, NodeState};
use crate::conditioning::EU_HORIZON;
use crate::evaluator::Evaluator;

/// A canonical snapshot of a search's scheduling-relevant state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyState {
    /// Canonical snapshot lines: evaluator lines first, then the block
    /// tree's lines in a deterministic pre-order walk.
    pub lines: Vec<String>,
}

impl StudyState {
    /// Captures the state of a block tree and its evaluator.
    pub fn capture(root: &dyn BuildingBlock, evaluator: &Evaluator) -> StudyState {
        let mut lines = Vec::new();
        evaluator.capture_state(&mut lines);
        capture_node(root, "plan", &mut lines);
        StudyState { lines }
    }

    /// The snapshot as one newline-joined string (for dumps and diffs).
    pub fn render(&self) -> String {
        self.lines.join("\n")
    }

    /// Human-readable first divergence between two snapshots, or `None`
    /// when they are identical — what a failing resume test prints.
    pub fn diff(&self, other: &StudyState) -> Option<String> {
        let n = self.lines.len().max(other.lines.len());
        for i in 0..n {
            let a = self.lines.get(i).map(String::as_str);
            let b = other.lines.get(i).map(String::as_str);
            if a != b {
                return Some(format!(
                    "line {i}:\n  left:  {}\n  right: {}",
                    a.unwrap_or("<missing>"),
                    b.unwrap_or("<missing>")
                ));
            }
        }
        None
    }
}

/// Appends `block`'s lines, then its children's, each prefixed with its
/// position in the plan tree (`plan`, `plan/algorithm=1`, `.../left`).
fn capture_node(block: &dyn BuildingBlock, path: &str, out: &mut Vec<String>) {
    match block.state() {
        NodeState::Joint { kind, engine, .. } => {
            let history = engine.history();
            // `seeds_pending=0` stays so pinned `StudyState` digests hold: it
            // once counted a warm-start queue that no longer exists.
            out.push(format!(
                "{path} joint engine={} evaluations={} seeds_pending=0",
                kind.name(),
                history.len(),
            ));
            if let Some(loss) = history.best_loss() {
                out.push(format!("{path} joint best_loss={:016x}", loss.to_bits()));
            }
            let traj = history
                .trajectory()
                .iter()
                .map(|l| format!("{:016x}", l.to_bits()))
                .collect::<Vec<_>>()
                .join(",");
            out.push(format!("{path} joint trajectory={traj}"));
            // History rows drive every future suggestion — including, in
            // cost-aware mode, the cost surrogate and promotion ranking — so
            // cost is pinned bitwise alongside loss. This is safe for replay:
            // cached trials now resolve to their memoized true cost on both the
            // live and the replayed path (the journal row's cost-0 accounting
            // is an accounting convention, not what the optimizer observes).
            for (i, obs) in history.observations().iter().enumerate() {
                out.push(format!(
                    "{path} joint history[{i}] fidelity={:016x} loss={:016x} cost={:016x} config={}",
                    obs.fidelity.to_bits(),
                    obs.loss.to_bits(),
                    obs.cost.to_bits(),
                    obs.config.bits()
                ));
            }
            engine.capture_scheduler_state(&format!("{path} engine"), out);
        }
        NodeState::Conditioning { var, cursor, arms, .. } => {
            out.push(format!(
                "{path} conditioning var={var} cursor={cursor} evaluations={}",
                block.evaluations()
            ));
            for a in arms {
                let child = format!("{path}/{var}={}", a.value);
                let iv = a.block.expected_utility(EU_HORIZON);
                out.push(format!(
                    "{child} arm active={} plays={} eu=[{:016x},{:016x}]",
                    a.active,
                    a.block.evaluations(),
                    iv.optimistic.to_bits(),
                    iv.pessimistic.to_bits()
                ));
                capture_node(a.block.as_ref(), &child, out);
            }
        }
        NodeState::Alternating { plays, left, right, .. } => {
            out.push(format!(
                "{path} alternating plays={plays} evaluations={}",
                block.evaluations()
            ));
            capture_node(left, &format!("{path}/left"), out);
            capture_node(right, &format!("{path}/right"), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_reports_first_divergence() {
        let a = StudyState {
            lines: vec!["x=1".into(), "y=2".into()],
        };
        let b = StudyState {
            lines: vec!["x=1".into(), "y=3".into()],
        };
        assert!(a.diff(&a).is_none());
        let d = a.diff(&b).expect("differs");
        assert!(d.contains("line 1"), "{d}");
        assert!(d.contains("y=2") && d.contains("y=3"), "{d}");
        let c = StudyState {
            lines: vec!["x=1".into()],
        };
        assert!(a.diff(&c).expect("differs").contains("<missing>"));
    }
}
