//! Cooperative budgets for backtracking searches.
//!
//! A [`SearchBudget`] bounds a single matcher invocation three ways: a
//! node limit (candidate trials), a wall-clock deadline and any number of
//! shared cancellation flags. The matcher polls the cheap node counter on
//! every trial and the deadline/flags every [`POLL_MASK`]` + 1` trials, so
//! even a search that would run for minutes reacts to a cancel or an
//! expired deadline within microseconds.
//!
//! Budgets make searches *inconclusive* rather than wrong: a truncated
//! search that found a homomorphism still returns a certificate, while a
//! truncated miss is reported through [`SearchOutcome::truncated`] and
//! must never be read as a refutation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Check the deadline and cancel flags once per this many + 1 trials.
const POLL_MASK: usize = 0xFF;

/// Limits shared by every search a caller spawns: node budget, deadline
/// and cooperative cancellation.
#[derive(Clone, Debug, Default)]
pub struct SearchBudget {
    /// Abort after this many candidate trials (`None` = unbounded).
    pub node_limit: Option<usize>,
    /// Abort once the wall clock passes this instant.
    pub deadline: Option<Instant>,
    /// Abort when any of these shared flags is raised. Multiple flags let
    /// an engine-level cancel token and a local first-hit-wins flag cut
    /// the same search.
    pub cancel: Vec<Arc<AtomicBool>>,
}

impl SearchBudget {
    /// An unbounded budget (the default).
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// Sets the node limit.
    pub fn with_node_limit(mut self, n: usize) -> Self {
        self.node_limit = Some(n);
        self
    }

    /// Lowers the node limit to `n` if the current one is absent or
    /// larger — the degraded-mode shrink: never loosens an existing
    /// limit.
    pub fn tighten_node_limit(mut self, n: usize) -> Self {
        self.node_limit = Some(self.node_limit.map_or(n, |cur| cur.min(n)));
        self
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, d: Instant) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Adds a cancellation flag.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel.push(flag);
        self
    }

    /// Is the deadline past or any cancel flag raised? (Ignores the node
    /// limit, which is per-search state.) This is the between-searches
    /// poll for loops that issue many budgeted searches.
    pub fn interrupted(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        self.cancel.iter().any(|f| f.load(Ordering::Acquire))
    }

    /// The in-search poll: node limit on every trial, deadline/flags every
    /// [`POLL_MASK`]` + 1` trials.
    pub(crate) fn exhausted_at(&self, nodes: usize) -> bool {
        if let Some(limit) = self.node_limit {
            if nodes > limit {
                return true;
            }
        }
        if nodes & POLL_MASK == 0 && (self.deadline.is_some() || !self.cancel.is_empty()) {
            return self.interrupted();
        }
        false
    }
}

/// What a budgeted search reports besides its hits: whether it was cut
/// short and how much work it did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The search stopped because a budget ran out (node limit, deadline
    /// or cancel), *not* because the space was exhausted or the callback
    /// asked to stop. A truncated miss is inconclusive.
    pub truncated: bool,
    /// Candidate trials performed.
    pub nodes: usize,
}

impl SearchOutcome {
    /// The outcome of a search whose budget had tripped before it began:
    /// inconclusive, with no work done.
    pub(crate) fn interrupted() -> Self {
        SearchOutcome {
            truncated: true,
            nodes: 0,
        }
    }
}

/// Aggregated matcher counters for one core-maintenance phase: how many
/// search nodes were explored across how many fold-candidate probes, and
/// whether any search was budget-truncated.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Candidate trials across all searches of the phase.
    pub nodes: usize,
    /// Fold candidates probed for eliminability.
    pub candidates: usize,
    /// At least one search was cut short by the budget, so the phase's
    /// result may be an under-approximation (a non-core retract).
    pub truncated: bool,
}

impl MatchStats {
    /// Folds one probe's outcome into the aggregate.
    pub fn absorb(&mut self, outcome: SearchOutcome) {
        self.nodes += outcome.nodes;
        self.candidates += 1;
        self.truncated |= outcome.truncated;
    }

    /// Merges another aggregate (e.g. a core phase's fold probes into
    /// the nodes its pivot certificate spent).
    pub fn merge(&mut self, other: MatchStats) {
        self.nodes += other.nodes;
        self.candidates += other.candidates;
        self.truncated |= other.truncated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = SearchBudget::unlimited();
        assert!(!b.interrupted());
        assert!(!b.exhausted_at(0));
        assert!(!b.exhausted_at(1 << 30));
    }

    #[test]
    fn node_limit_cuts_at_the_limit() {
        let b = SearchBudget::unlimited().with_node_limit(10);
        assert!(!b.exhausted_at(10));
        assert!(b.exhausted_at(11));
    }

    #[test]
    fn tighten_never_loosens() {
        let b = SearchBudget::unlimited().tighten_node_limit(100);
        assert_eq!(b.node_limit, Some(100));
        let b = b.tighten_node_limit(10);
        assert_eq!(b.node_limit, Some(10));
        let b = b.tighten_node_limit(1_000);
        assert_eq!(b.node_limit, Some(10), "a wider limit is ignored");
    }

    #[test]
    fn expired_deadline_interrupts() {
        let past = Instant::now() - Duration::from_millis(1);
        let b = SearchBudget::unlimited().with_deadline(past);
        assert!(b.interrupted());
        assert!(b.exhausted_at(0), "deadline is polled at trial 0");
    }

    #[test]
    fn cancel_flag_interrupts_all_clones() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = SearchBudget::unlimited().with_cancel(Arc::clone(&flag));
        let c = b.clone();
        assert!(!b.interrupted() && !c.interrupted());
        flag.store(true, Ordering::Release);
        assert!(b.interrupted() && c.interrupted());
    }

    #[test]
    fn stats_absorb_and_merge_accumulate() {
        let mut m = MatchStats::default();
        m.absorb(SearchOutcome {
            truncated: false,
            nodes: 5,
        });
        m.absorb(SearchOutcome {
            truncated: true,
            nodes: 7,
        });
        assert_eq!(m.nodes, 12);
        assert_eq!(m.candidates, 2);
        assert!(m.truncated);
        let mut n = MatchStats::default();
        n.merge(m);
        assert_eq!(n, m);
    }
}
