//! Job specifications, lifecycle states and results.

use chase_atoms::{AtomSet, Vocabulary};
use chase_core::KnowledgeBase;
use chase_engine::{ChaseConfig, ChaseOutcome, ChaseStats, Combine};
use chase_parser::{parse_program, Program};

use crate::checkpoint::Checkpoint;

/// Identifies a job within one service instance (monotonically assigned).
pub type JobId = u64;

/// Lifecycle state of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Ran to its outcome (fixpoint or budget) without cancellation.
    Finished,
    /// Stopped by a cancel request (before or during execution).
    Cancelled,
    /// The job could not run (e.g. its source failed to parse).
    Failed,
}

impl JobStatus {
    /// Will this status never change again?
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Scheduling priority of a job. Within the queue a higher priority is
/// picked first; ties fall back to FIFO order — so a small high-priority
/// probe overtakes suspended heavyweights without starving anyone (the
/// queue is bounded, and every admitted job is eventually first of its
/// class).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Picked before everything else (probe jobs, interactive queries).
    High,
    /// The default.
    #[default]
    Normal,
    /// Picked only when nothing else is queued (bulk backfill).
    Low,
}

impl Priority {
    /// Wire/CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses the wire/CLI spelling.
    pub fn parse(s: &str) -> Result<Priority, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority `{other}` (high|normal|low)")),
        }
    }
}

/// Certified three-valued answer for one named query of a job.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueryVerdict {
    /// The query maps into a chase element (universality ⇒ `K ⊨ Q`).
    EntailedCertified,
    /// The chase terminated in a universal model not containing the
    /// query (`K ⊭ Q`).
    NotEntailedCertified,
    /// Budget ran out before either certificate appeared.
    Inconclusive,
}

/// Everything needed to run one chase job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name (shows up in events and summaries).
    pub name: String,
    /// The knowledge base to chase.
    pub kb: KnowledgeBase,
    /// Named boolean CQs evaluated against the run's final instance.
    pub queries: Vec<(String, AtomSet)>,
    /// Chase configuration (variant, scheduler, budgets).
    pub config: ChaseConfig,
    /// Emit a treewidth sample event every this many applications.
    pub tw_sample_interval: Option<usize>,
    /// Emit a step event every this many applications.
    pub progress_every: usize,
    /// Capture (and, with a state dir, persist) a checkpoint every this
    /// many applications; `None` falls back to the service-level default.
    pub checkpoint_every: Option<usize>,
    /// Scheduling priority (see [`Priority`]).
    pub priority: Priority,
    /// Who submitted the job, for per-submitter admission quotas; `None`
    /// is exempt from quota counting.
    pub submitter: Option<String>,
    /// Let the admission-time analyzer pick the chase variant and a
    /// stratified rule schedule for this job. Wire submits that did not
    /// pin a `variant` set this; programmatic specs default to `false`
    /// (what you configure is what runs).
    pub auto_strategy: bool,
    /// Let the admission-time analyzer tighten the application budget
    /// when it positively refutes termination. Wire submits that did
    /// not pin any budget set this; programmatic specs default to
    /// `false`.
    pub auto_budgets: bool,
    /// Counters carried over from the checkpointed prefix this job
    /// resumes (zero for fresh jobs).
    pub base_stats: ChaseStats,
    /// This job resumes an oblivious/semi-oblivious checkpoint whose
    /// applied-trigger memory could not be serialized: the resumed run
    /// may re-apply triggers the prefix already fired. Surfaced as a
    /// `warning` job event.
    pub resumed_inexact: bool,
}

impl JobSpec {
    /// Builds a job from program text in the `chase-parser` syntax. The
    /// program's named queries ride along.
    pub fn from_text(
        name: impl Into<String>,
        source: &str,
        config: ChaseConfig,
    ) -> Result<Self, String> {
        let prog = parse_program(source).map_err(|e| e.to_string())?;
        Ok(JobSpec::from_program(name, prog, config))
    }

    /// Builds a job from a parsed program. The program's named queries
    /// ride along.
    pub(crate) fn from_program(
        name: impl Into<String>,
        prog: Program,
        config: ChaseConfig,
    ) -> Self {
        let (kb, queries) = KnowledgeBase::from_program(prog);
        JobSpec {
            queries,
            ..JobSpec::from_kb(name, kb, config)
        }
    }

    /// Builds a job from an in-memory knowledge base (the path used by
    /// the experiment drivers in `chase-bench`).
    pub fn from_kb(name: impl Into<String>, kb: KnowledgeBase, config: ChaseConfig) -> Self {
        JobSpec {
            name: name.into(),
            kb,
            queries: Vec::new(),
            config,
            tw_sample_interval: None,
            progress_every: 1,
            checkpoint_every: None,
            priority: Priority::default(),
            submitter: None,
            auto_strategy: false,
            auto_budgets: false,
            base_stats: ChaseStats::default(),
            resumed_inexact: false,
        }
    }

    /// Sets the treewidth sampling interval.
    pub fn with_tw_samples(mut self, every: usize) -> Self {
        self.tw_sample_interval = Some(every.max(1));
        self
    }

    /// Sets the step-event interval.
    pub fn with_progress_every(mut self, every: usize) -> Self {
        self.progress_every = every.max(1);
        self
    }

    /// Sets the periodic-checkpoint interval for this job.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = Some(every.max(1));
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Tags the job with its submitter (for admission quotas).
    pub fn with_submitter(mut self, s: impl Into<String>) -> Self {
        self.submitter = Some(s.into());
        self
    }
}

/// The result of a completed (or cancelled) job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Why the chase stopped.
    pub outcome: ChaseOutcome,
    /// Counters accumulated across all resumed slices of this
    /// derivation (not just the final slice).
    pub stats: ChaseStats,
    /// The final instance `F_k`.
    pub final_instance: AtomSet,
    /// The vocabulary as of the end of the run — the chase mints fresh
    /// labeled nulls, so rendering (or re-serializing) the final
    /// instance needs the symbol table of the same instant, not the
    /// spec's.
    pub final_vocab: Vocabulary,
    /// Per-query verdicts against the final instance.
    pub queries: Vec<(String, QueryVerdict)>,
    /// A resume checkpoint, present iff the outcome is resumable.
    pub checkpoint: Option<Checkpoint>,
    /// Wall-clock milliseconds spent executing this slice.
    pub wall_ms: u64,
}

/// Adds two counter sets (checkpoint carry-over + fresh slice), each
/// counter as its [`ChaseStats::FIELDS`] row says.
pub fn add_stats(a: ChaseStats, b: ChaseStats) -> ChaseStats {
    let mut total = a;
    for f in &ChaseStats::FIELDS {
        let (x, y) = ((f.get)(&a), (f.get)(&b));
        let v = match f.combine {
            Combine::Sum => x + y,
            Combine::Peak => x.max(y),
        };
        (f.set)(&mut total, v);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::ChaseVariant;

    #[test]
    fn spec_from_text_carries_queries() {
        let spec = JobSpec::from_text(
            "t",
            "r(a, b). T: r(X, Y) -> r(Y, X). Q: ?- r(b, a).",
            ChaseConfig::variant(ChaseVariant::Restricted),
        )
        .unwrap();
        assert_eq!(spec.queries.len(), 1);
        assert_eq!(spec.queries[0].0, "Q");
        assert_eq!(spec.kb.facts.len(), 1);
    }

    #[test]
    fn spec_from_bad_text_reports_error() {
        assert!(JobSpec::from_text("t", "r(a,", ChaseConfig::default()).is_err());
    }
}
