//! Cooperative run control for long chase derivations: cancellation
//! tokens and the step-observer event stream.
//!
//! The paper's interesting derivations do not terminate (the staircase
//! `K_h` and elevator `K_v` of Sections 6–7 are *designed* not to), so a
//! production runner cannot treat `run_chase` as a blocking black box.
//! A driver that steps a [`crate::ChaseRun`] itself decides between steps
//! whether to go on; for one that hands the whole run to
//! [`crate::chase::run_chase_controlled`] (the `treechase-service` job
//! runner), this module provides the two hooks:
//!
//! * [`CancelToken`] — a shared flag polled between trigger applications
//!   and inside retraction searches. A cancel lands at the next poll,
//!   then the run stops with [`crate::ChaseOutcome::Cancelled`]. On the
//!   workloads of the paper a single step is far below the 100 ms
//!   latency envelope.
//! * [`ChaseEvent`] — the in-band progress stream that
//!   [`crate::ChaseRun::step`] hands to its observer: round boundaries,
//!   applied steps, degradation and core retractions, each carrying the
//!   running [`crate::ChaseStats`]. An observer's `Break` stops the run
//!   at the end of the step that raised it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use chase_atoms::{AtomSet, Vocabulary};
use chase_homomorphism::MatchStats;

use crate::chase::ChaseStats;
use crate::prng::SplitMix64;

/// A cloneable cancellation flag shared between a chase run and its
/// controller. All clones observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// The underlying shared flag, for wiring the token into a
    /// [`chase_homomorphism::SearchBudget`] so that retraction searches
    /// *inside* a core step observe the cancel, not just the between-steps
    /// polls.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// One deterministic fault site of a [`FaultPlan`].
///
/// Counts are 1-based and *process-global per plan*: clones of a plan
/// share the same counters, so a site fires at most once even when the
/// run that hit it is retried in the same process (the supervision layer
/// of `treechase-service` relies on this to converge).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic when the `k`-th trigger application (counted across every
    /// run sharing the plan) lands.
    Application(usize),
    /// Panic when the `k`-th in-loop core phase begins.
    CorePhase(usize),
    /// Fail the `k`-th durable checkpoint write (surfaced as an I/O-style
    /// error by the checkpoint store, not a panic).
    CheckpointWrite(usize),
    /// Report synthetic memory pressure at the `k`-th trigger
    /// application: the engine treats it as a hard memory-ceiling hit and
    /// suspends cleanly — overload paths become testable without
    /// allocating real memory.
    MemoryPressure(usize),
    /// Sleep for the given number of milliseconds at the `k`-th trigger
    /// application, simulating a slow step (for deadline and drain
    /// testing).
    Slow(usize, u64),
}

#[derive(Debug, Default)]
struct FaultInner {
    sites: Vec<FaultSite>,
    applications: AtomicUsize,
    core_phases: AtomicUsize,
    checkpoint_writes: AtomicUsize,
    mem_checks: AtomicUsize,
    slow_checks: AtomicUsize,
}

/// A deterministic, shareable fault-injection plan for crash testing.
///
/// The engine and the checkpoint store consult the plan at well-defined
/// sites; each [`FaultSite`] fires exactly once because the counters are
/// strictly monotone and shared across clones. An empty plan never fires.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    inner: Arc<FaultInner>,
}

impl FaultPlan {
    /// Builds a plan from explicit sites.
    pub fn new(sites: Vec<FaultSite>) -> Self {
        FaultPlan {
            inner: Arc::new(FaultInner {
                sites,
                ..FaultInner::default()
            }),
        }
    }

    /// Builds a plan of `kills` application-crash sites drawn without
    /// replacement from `1..=horizon` by the seeded local PRNG.
    pub fn seeded(seed: u64, kills: usize, horizon: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut picks: Vec<usize> = Vec::new();
        while picks.len() < kills.min(horizon.max(1)) {
            let k = rng.gen_range(horizon.max(1)) + 1;
            if !picks.contains(&k) {
                picks.push(k);
            }
        }
        picks.sort_unstable();
        FaultPlan::new(picks.into_iter().map(FaultSite::Application).collect())
    }

    /// The configured sites, for display and logging.
    pub fn sites(&self) -> &[FaultSite] {
        &self.inner.sites
    }

    /// Does the plan contain no sites at all?
    pub fn is_empty(&self) -> bool {
        self.inner.sites.is_empty()
    }

    fn hit(
        &self,
        count: &AtomicUsize,
        matches: impl Fn(&FaultSite) -> Option<usize>,
    ) -> Option<usize> {
        let n = count.fetch_add(1, Ordering::AcqRel) + 1;
        self.inner
            .sites
            .iter()
            .filter_map(matches)
            .any(|k| k == n)
            .then_some(n)
    }

    /// Advances the application counter; `Some(n)` means "crash now, at
    /// application #n".
    pub fn on_application(&self) -> Option<usize> {
        self.hit(&self.inner.applications, |s| match s {
            FaultSite::Application(k) => Some(*k),
            _ => None,
        })
    }

    /// Advances the core-phase counter; `Some(n)` means "crash now, in
    /// core phase #n".
    pub fn on_core_phase(&self) -> Option<usize> {
        self.hit(&self.inner.core_phases, |s| match s {
            FaultSite::CorePhase(k) => Some(*k),
            _ => None,
        })
    }

    /// Advances the checkpoint-write counter; `Some(n)` means "fail this
    /// write, the #n-th".
    pub fn on_checkpoint_write(&self) -> Option<usize> {
        self.hit(&self.inner.checkpoint_writes, |s| match s {
            FaultSite::CheckpointWrite(k) => Some(*k),
            _ => None,
        })
    }

    /// Advances the memory-pressure counter (one tick per trigger
    /// application); `Some(n)` means "pretend the hard memory ceiling was
    /// hit at application #n".
    pub fn on_memory_pressure(&self) -> Option<usize> {
        self.hit(&self.inner.mem_checks, |s| match s {
            FaultSite::MemoryPressure(k) => Some(*k),
            _ => None,
        })
    }

    /// Advances the slow-step counter (one tick per trigger application);
    /// `Some(ms)` means "sleep `ms` milliseconds before continuing".
    pub fn on_slow(&self) -> Option<u64> {
        let n = self.inner.slow_checks.fetch_add(1, Ordering::AcqRel) + 1;
        self.inner.sites.iter().find_map(|s| match s {
            FaultSite::Slow(k, ms) if *k == n => Some(*ms),
            _ => None,
        })
    }
}

/// One progress event of a controlled chase run.
///
/// Borrowed data stays valid only for the duration of the observer call —
/// observers that stream events elsewhere copy what they need (typically
/// the stats and instance sizes, not the instance itself).
#[derive(Debug)]
pub enum ChaseEvent<'a> {
    /// A fairness round begins with `pending` triggers snapshotted.
    RoundStarted {
        /// 1-based round number.
        round: usize,
        /// Triggers in this round's snapshot.
        pending: usize,
    },
    /// A trigger was applied; `instance` is the freshly produced `F_i`.
    StepApplied {
        /// The instance after the application (and its simplification).
        instance: &'a AtomSet,
        /// The live vocabulary, including nulls minted so far — what a
        /// checkpointing observer needs to serialize `instance`.
        vocab: &'a Vocabulary,
        /// Running counters.
        stats: &'a ChaseStats,
    },
    /// The run crossed its soft memory ceiling and degraded: an immediate
    /// core retraction pass was forced (core variant) and the retraction
    /// search budget was shrunk. Emitted once per run, on the crossing.
    Degraded {
        /// Abstract memory units (atoms + nulls minted + pending queue
        /// entries) at the crossing.
        mem_units: usize,
        /// The soft ceiling that was crossed.
        soft_limit: usize,
        /// Running counters.
        stats: &'a ChaseStats,
    },
    /// A core-chase simplification strictly shrank the instance.
    CoreRetracted {
        /// Atoms before the retraction (`A_i`).
        before: usize,
        /// Atoms after (`F_i`).
        after: usize,
        /// Matcher counters for this core phase (nodes explored, fold
        /// candidates probed, budget truncation).
        match_stats: MatchStats,
        /// Running counters.
        stats: &'a ChaseStats,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sites_fire_exactly_once_across_clones() {
        let plan = FaultPlan::new(vec![
            FaultSite::Application(2),
            FaultSite::CorePhase(1),
            FaultSite::CheckpointWrite(3),
        ]);
        let clone = plan.clone();
        assert_eq!(plan.on_application(), None); // #1
        assert_eq!(clone.on_application(), Some(2)); // #2 fires, shared counter
        assert_eq!(plan.on_application(), None); // #3: monotone, never re-fires
        assert_eq!(plan.on_core_phase(), Some(1));
        assert_eq!(clone.on_core_phase(), None);
        assert_eq!(plan.on_checkpoint_write(), None);
        assert_eq!(plan.on_checkpoint_write(), None);
        assert_eq!(clone.on_checkpoint_write(), Some(3));
        assert_eq!(clone.on_checkpoint_write(), None);
    }

    #[test]
    fn memory_and_slow_sites_fire_once_at_their_application() {
        let plan = FaultPlan::new(vec![FaultSite::MemoryPressure(2), FaultSite::Slow(1, 7)]);
        let clone = plan.clone();
        assert_eq!(plan.on_slow(), Some(7)); // application #1
        assert_eq!(plan.on_memory_pressure(), None);
        assert_eq!(clone.on_slow(), None); // application #2, shared counter
        assert_eq!(clone.on_memory_pressure(), Some(2));
        assert_eq!(plan.on_slow(), None); // #3: monotone, never re-fires
        assert_eq!(plan.on_memory_pressure(), None);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(42, 2, 50);
        let b = FaultPlan::seeded(42, 2, 50);
        assert_eq!(a.sites(), b.sites());
        assert_eq!(a.sites().len(), 2);
        for s in a.sites() {
            let FaultSite::Application(k) = s else {
                panic!("seeded plans only produce application sites");
            };
            assert!((1..=50).contains(k));
        }
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn token_clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        let cancelled = |t: &CancelToken| t.flag().load(Ordering::Acquire);
        assert!(!cancelled(&t) && !cancelled(&u));
        u.cancel();
        assert!(cancelled(&t) && cancelled(&u));
        t.cancel(); // idempotent
        assert!(cancelled(&t));
    }
}
