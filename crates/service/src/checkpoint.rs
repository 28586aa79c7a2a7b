//! Pause/resume checkpoints: serializing the live end of a derivation so
//! a budget-exhausted job can continue in a later request (or another
//! process entirely).
//!
//! A checkpoint stores the current instance *as a program text* in the
//! `chase-parser` syntax — facts (labeled nulls print as `V<n>` variables
//! within a single statement, so sharing survives), the rule set and the
//! pending queries — plus the chase configuration and the accumulated
//! counters. Resuming re-parses the text and restarts the chase with the
//! instance as the fact base.
//!
//! This is semantically exact for the *satisfaction-based* variants
//! (restricted, frugal, core): their trigger activity is a function of
//! the current instance alone, so a run from the checkpoint instance is
//! itself a valid continuation of the original derivation (the paper's
//! Definition 1 composes). For the oblivious variants the applied-trigger
//! memory is not carried, so a resumed run may re-apply triggers the
//! original already fired — still sound (the result is a chase of the
//! checkpoint KB) but not slice-invariant; the service surfaces this in
//! the checkpoint's `exact` flag.

use std::time::Duration;

use chase_engine::{ChaseConfig, ChaseStats, ChaseVariant};
use chase_parser::{parse_program_trusted, program_to_text, Program};

use crate::job::JobSpec;
use crate::json::Json;
use crate::protocol::{config_from_json, config_to_json, stats_from_json, stats_to_json};

/// A serializable snapshot of an interrupted chase job.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The job's display name.
    pub name: String,
    /// The chase configuration of the interrupted run.
    pub config: ChaseConfig,
    /// Instance, rules and queries in the parser syntax.
    pub program: String,
    /// Counters accumulated over all slices up to this checkpoint.
    pub stats: ChaseStats,
}

impl Checkpoint {
    /// Captures a checkpoint from a finished slice. `vocab` must be the
    /// post-run vocabulary (it knows every predicate and constant the
    /// instance mentions).
    pub fn capture(
        spec: &JobSpec,
        vocab: &chase_atoms::Vocabulary,
        instance: &chase_atoms::AtomSet,
        total_stats: ChaseStats,
    ) -> Checkpoint {
        let program = program_to_text(&Program {
            vocab: vocab.clone(),
            facts: instance.clone(),
            rules: spec.kb.rules.clone(),
            queries: spec.queries.clone(),
        });
        Checkpoint::with_program(spec, program, total_stats)
    }

    /// The checkpoint `spec` starts from, with `program` as its program:
    /// `program` must be the text `spec` was parsed from, so a resumed
    /// job is stored without printing its instance again.
    pub(crate) fn at_start(spec: &JobSpec, program: String) -> Checkpoint {
        Checkpoint::with_program(spec, program, spec.base_stats)
    }

    fn with_program(spec: &JobSpec, program: String, total_stats: ChaseStats) -> Checkpoint {
        // Stored budgets are derivation-total, consumed amounts live in
        // `stats`, and the split is re-derived at resume time. Baking the
        // slice-local view in instead would hand every resumed slice a
        // fresh budget (the overshoot bug) or double-count what recovery
        // already subtracted (checkpoints taken after a crash retry).
        let mut config = spec.config.clone();
        config.consumed_wall = Duration::ZERO;
        config.max_applications = spec
            .config
            .max_applications
            .saturating_add(spec.base_stats.applications);
        Checkpoint {
            name: spec.name.clone(),
            config,
            program,
            stats: total_stats,
        }
    }

    /// Is resuming from this checkpoint guaranteed equivalent to having
    /// never stopped? True for the satisfaction-based variants.
    pub fn exact(&self) -> bool {
        matches!(
            self.config.variant,
            ChaseVariant::Restricted | ChaseVariant::Frugal | ChaseVariant::Core
        )
    }

    /// Rebuilds a runnable job from the checkpoint, parsing its program
    /// text. The new slice starts from the serialized instance and
    /// inherits the stored config. An inexact (oblivious/semi-oblivious)
    /// resume is flagged on the spec so the runner emits a `warning`
    /// event instead of silently dropping the applied-trigger memory.
    ///
    /// This is for checkpoints held as text (job tables, crash retries);
    /// one just decoded by [`Checkpoint::from_json`] is already parsed,
    /// see [`DecodedCheckpoint::into_parts`].
    pub fn into_spec(&self) -> Result<JobSpec, String> {
        let program = parse_program_trusted(&self.program).map_err(|e| e.to_string())?;
        Ok(self.spec_from(program))
    }

    /// The runnable job for this checkpoint, given its parsed program.
    fn spec_from(&self, program: Program) -> JobSpec {
        let mut spec = JobSpec::from_program(self.name.clone(), program, self.config.clone());
        spec.base_stats = self.stats;
        spec.resumed_inexact = !self.exact();
        // The resumed slice continues the derivation's budgets rather
        // than getting fresh ones: what the prefix spent comes off the
        // stored totals (an explicit new budget on the resume request
        // overrides this, see `handler::resume_job`).
        spec.config.max_applications = self
            .config
            .max_applications
            .saturating_sub(self.stats.applications);
        spec.config.consumed_wall = Duration::from_micros(self.stats.wall_us);
        spec
    }

    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("exact", Json::Bool(self.exact())),
            ("config", config_to_json(&self.config)),
            ("stats", stats_to_json(&self.stats)),
            ("program", Json::str(&self.program)),
        ])
    }

    /// Deserializes from the wire or a store file. The program is
    /// parsed here, once, so a malformed one is refused on the request
    /// that carries it (`checkpoint program: …`) rather than inside a
    /// worker, and the parse is handed on instead of repeated: see
    /// [`DecodedCheckpoint`]. Checkpoint programs are printer output, so
    /// the reserved null spelling is legal here.
    pub fn from_json(v: &Json) -> Result<DecodedCheckpoint, String> {
        let text = v.require_str("program")?;
        let program =
            parse_program_trusted(text).map_err(|e| format!("checkpoint program: {e}"))?;
        let checkpoint = Checkpoint {
            name: v.require_str("name")?.to_string(),
            config: config_from_json(v.require("config")?)?,
            program: text.to_string(),
            stats: stats_from_json(v.require("stats")?)?,
        };
        Ok(DecodedCheckpoint {
            checkpoint,
            program,
        })
    }
}

/// A checkpoint just decoded by [`Checkpoint::from_json`], together with
/// its parsed program: everything built from a received checkpoint (a
/// resumed job, a recovered job, a leased slice, a published snapshot)
/// comes from this one parse.
#[derive(Clone, Debug)]
pub struct DecodedCheckpoint {
    /// The checkpoint as received. Its program stays text, which is all
    /// a job table, a store or a reply keeps.
    checkpoint: Checkpoint,
    /// `checkpoint.program`, parsed.
    program: Program,
}

impl DecodedCheckpoint {
    /// The checkpoint as received.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// The checkpoint and the runnable job it resumes (see
    /// [`Checkpoint::into_spec`]), built from the parsed program.
    pub fn into_parts(self) -> (Checkpoint, JobSpec) {
        let spec = self.checkpoint.spec_from(self.program);
        (self.checkpoint, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::{run_chase, ChaseConfig, ChaseOutcome, ChaseVariant};

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let spec = JobSpec::from_text(
            "ck",
            "r(a, b). r(b, X). T: r(X, Y), r(Y, Z) -> r(X, Z). Q: ?- r(a, a).",
            ChaseConfig::variant(ChaseVariant::Core).with_max_applications(2),
        )
        .unwrap();
        let mut vocab = spec.kb.vocab.clone();
        let res = run_chase(&mut vocab, &spec.kb.facts, &spec.kb.rules, &spec.config);
        let ck = Checkpoint::capture(&spec, &vocab, &res.final_instance, res.stats);
        let (back, resumed) = Checkpoint::from_json(&ck.to_json()).unwrap().into_parts();
        assert_eq!(back.name, "ck");
        assert!(back.exact());
        assert_eq!(back.stats, res.stats);
        assert_eq!(resumed.queries.len(), 1);
        assert_eq!(resumed.kb.facts.len(), res.final_instance.len());
        assert_eq!(resumed.base_stats, res.stats);
    }

    #[test]
    fn resume_deducts_consumed_wall_instead_of_resetting_the_budget() {
        let spec = JobSpec::from_text(
            "w",
            "r(a, b). T: r(X, Y), r(Y, Z) -> r(X, Z).",
            ChaseConfig::variant(ChaseVariant::Restricted)
                .with_max_wall(std::time::Duration::from_millis(10))
                // A slice mid-flight has a nonzero carry-over of its own;
                // the checkpoint must not bake it in twice.
                .with_consumed_wall(std::time::Duration::from_millis(2)),
        )
        .unwrap();
        let vocab = spec.kb.vocab.clone();
        let stats = ChaseStats {
            applications: 1,
            wall_us: 5_000,
            ..ChaseStats::default()
        };
        let ck = Checkpoint::capture(&spec, &vocab, &spec.kb.facts, stats);
        assert_eq!(ck.config.consumed_wall, std::time::Duration::ZERO);
        let resumed = ck.into_spec().unwrap();
        // The resumed slice sees 10ms total minus the 5ms the derivation
        // has accumulated so far — not a fresh 10ms.
        assert_eq!(
            resumed.config.consumed_wall,
            std::time::Duration::from_micros(5_000)
        );
        assert_eq!(
            resumed.config.max_wall,
            Some(std::time::Duration::from_millis(10))
        );
        // And the carry-over survives the wire.
        let (_, wired) = Checkpoint::from_json(&ck.to_json()).unwrap().into_parts();
        assert_eq!(
            wired.config.consumed_wall,
            std::time::Duration::from_micros(5_000)
        );
    }

    #[test]
    fn resume_continues_toward_the_original_application_target() {
        // A job resumed once already: 4 of its 10-application target are
        // spent (base), its current slice budget is the remaining 6.
        let mut spec = JobSpec::from_text(
            "apps",
            "r(a, b). T: r(X, Y), r(Y, Z) -> r(X, Z).",
            ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(6),
        )
        .unwrap();
        spec.base_stats.applications = 4;
        // The slice crashes/pauses after 3 more applications.
        let stats = ChaseStats {
            applications: 7,
            ..ChaseStats::default()
        };
        let vocab = spec.kb.vocab.clone();
        let ck = Checkpoint::capture(&spec, &vocab, &spec.kb.facts, stats);
        assert_eq!(ck.config.max_applications, 10, "stored as total");
        let resumed = ck.into_spec().unwrap();
        assert_eq!(resumed.config.max_applications, 3, "10 - 7 remain");
        assert_eq!(resumed.base_stats.applications, 7);
        // Capturing again from the resumed spec is stable: still 10.
        let again = Checkpoint::capture(&resumed, &vocab, &resumed.kb.facts, stats);
        assert_eq!(again.config.max_applications, 10);
    }

    #[test]
    fn resume_reaches_the_same_closure_as_uninterrupted() {
        let src = "r(a, b). r(b, c). r(c, d). T: r(X, Y), r(Y, Z) -> r(X, Z).";
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted);
        let full_spec = JobSpec::from_text("full", src, cfg.clone()).unwrap();
        let mut v1 = full_spec.kb.vocab.clone();
        let full = run_chase(&mut v1, &full_spec.kb.facts, &full_spec.kb.rules, &cfg);
        assert!(full.outcome.terminated());

        let cut = cfg.clone().with_max_applications(2);
        let part_spec = JobSpec::from_text("part", src, cut.clone()).unwrap();
        let mut v2 = part_spec.kb.vocab.clone();
        let part = run_chase(&mut v2, &part_spec.kb.facts, &part_spec.kb.rules, &cut);
        assert_eq!(part.outcome, ChaseOutcome::ApplicationBudgetExhausted);

        let ck = Checkpoint::capture(&part_spec, &v2, &part.final_instance, part.stats);
        let resumed_spec = ck.into_spec().unwrap();
        let mut v3 = resumed_spec.kb.vocab.clone();
        let resumed = run_chase(
            &mut v3,
            &resumed_spec.kb.facts,
            &resumed_spec.kb.rules,
            &cfg,
        );
        assert!(resumed.outcome.terminated());
        // Ground closure: resumed result is literally isomorphic (here
        // even equal up to constant interning) to the uninterrupted one.
        assert!(
            chase_homomorphism::isomorphism(&resumed.final_instance, &full.final_instance)
                .is_some()
        );
    }
}
