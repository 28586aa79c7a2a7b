//! The budgeted, fair chase runner for the oblivious, semi-oblivious,
//! restricted and core chase variants.
//!
//! ## Fairness
//!
//! The runner works in **rounds**: at the start of a round it snapshots
//! the currently active triggers; during the round it applies them one by
//! one, *forwarding* each queued trigger through the simplifications
//! performed meanwhile (the trace maps `σ_i^j` of Definition 2) and
//! re-checking activity right before application. Triggers discovered
//! during a round wait for the next round. Every trigger that stays active
//! is therefore applied within a bounded number of rounds, which is
//! exactly Definition 3 fairness on the produced derivation.
//!
//! ## Variants
//!
//! * **Oblivious** — applies every trigger once (deduplicated by rule +
//!   full body image), regardless of satisfaction.
//! * **Semi-oblivious** (skolem) — deduplicates by rule + frontier image.
//! * **Restricted** (standard) — applies only triggers not satisfied in
//!   the current instance; simplifications are the identity.
//! * **Core** — restricted, plus a retraction to the core after every
//!   `core_interval` applications (Definition 1's simplifications).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use chase_atoms::{AtomSet, Substitution, Term, Vocabulary};
use chase_homomorphism::{
    core_of_budgeted, fold_variables, incremental_core, MatchStats, SearchBudget,
};

use crate::control::{CancelToken, ChaseEvent, FaultPlan};
use crate::derivation::{first_instance, Derivation, DerivationStep};
use crate::prng::SplitMix64;
use crate::rule::RuleSet;
use crate::skolem::SkolemTable;
use crate::trigger::{
    apply_trigger, fresh_pi_safe, triggers_using_delta_counted, MatchTally, Trigger,
};

/// Which chase variant to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChaseVariant {
    /// Apply every trigger exactly once, never checking satisfaction.
    Oblivious,
    /// Apply one trigger per (rule, frontier image) class.
    SemiOblivious,
    /// Apply only unsatisfied triggers; no simplification.
    Restricted,
    /// Restricted + fold only the freshly minted nulls of each
    /// application (the *frugal* chase of Konstantinidis & Ambite, the
    /// paper's \[15\] — strictly between restricted and core in redundancy
    /// removal).
    Frugal,
    /// Restricted + retraction to the core every `core_interval`
    /// applications.
    Core,
}

/// How the runner orders the triggers within a round. All options preserve
/// fairness (the round structure does); they differ in *which* fair
/// sequence gets built — Propositions 8.3/8.4 quantify over all of them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Deterministic order: rule-major, then by body image.
    Deterministic,
    /// Seeded random shuffle of each round's snapshot.
    Random(u64),
    /// Datalog (existential-free) rules first, then deterministic — the
    /// priority scheme of the paper's Proposition 6 proof.
    DatalogFirst,
    /// Datalog triggers first, then existential triggers ascending by
    /// how many existentials the rule mints. A refinement of
    /// [`SchedulerKind::DatalogFirst`] for guarded loops: saturating
    /// cheap facts before each null-minting application gives the
    /// restricted chase's satisfaction check the best chance to block
    /// the application outright.
    ExistentialLast,
    /// Triggers ascending by the number of nulls in their frontier
    /// image (ties broken deterministically). Null-propagating triggers
    /// run last each round, so ground-fact consequences land first and
    /// satisfaction checks prune deeper null chains — the
    /// restricted-chase selection strategy for width-bounded loops.
    NullAverse,
}

/// Chase configuration.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// The chase variant.
    pub variant: ChaseVariant,
    /// Trigger ordering within a round.
    pub scheduler: SchedulerKind,
    /// Budget: maximum number of rule applications.
    pub max_applications: usize,
    /// Budget: stop once an instance exceeds this many atoms.
    pub max_atoms: usize,
    /// Budget: stop once this much wall-clock time has elapsed (checked
    /// between trigger applications, so a single expensive core step may
    /// overshoot). `None` disables the clock.
    pub max_wall: Option<Duration>,
    /// Core variant only: retract to the core every this many
    /// applications (≥ 1).
    pub core_interval: usize,
    /// Wall-clock time already consumed by earlier slices of the same
    /// derivation. Deducted from `max_wall` so a resumed job continues
    /// under the *remaining* budget instead of a fresh full one. Process
    /// state, never serialized into checkpoints.
    pub consumed_wall: Duration,
    /// Deterministic fault-injection plan for crash testing; `None` (the
    /// default) injects nothing. Process state, never serialized.
    pub fault: Option<FaultPlan>,
    /// Soft memory ceiling, in abstract memory units (instance atoms +
    /// nulls minted this slice + pending trigger-queue entries). Crossing
    /// it once degrades the run: an immediate core retraction pass is
    /// forced (core variant), the retraction search budget is shrunk and
    /// a [`ChaseEvent::Degraded`] event is emitted. `None` disables.
    pub mem_soft: Option<usize>,
    /// Hard memory ceiling, in the same units. Crossing it suspends the
    /// run cleanly with [`ChaseOutcome::Suspended`]
    /// ([`SuspendReason::MemoryCeiling`]) — resumable via the ordinary
    /// checkpoint path, instead of aborting or `OOMing`. `None` disables.
    pub mem_hard: Option<usize>,
    /// Optional stratified rule schedule: an ordered partition of rule
    /// ids. Each stratum is chased to saturation before the next one is
    /// enabled; rules missing from every stratum never fire. Sound when
    /// the partition follows the rule-dependency condensation
    /// (producers before consumers), because later strata cannot feed
    /// earlier ones. Serialized into checkpoints so resumed jobs keep
    /// their plan.
    pub strata: Option<Vec<Vec<usize>>>,
    /// Externally supplied [`SearchBudget`], merged into the budget that
    /// every retraction search runs under (cancel flags appended, the
    /// earlier deadline wins, node limits combine by minimum) and polled
    /// between trigger applications — an expired or cancelled external
    /// budget stops the run with [`ChaseOutcome::Cancelled`]. Process
    /// state, never serialized.
    pub search_budget: SearchBudget,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            variant: ChaseVariant::Restricted,
            scheduler: SchedulerKind::Deterministic,
            max_applications: 10_000,
            max_atoms: 1_000_000,
            max_wall: None,
            core_interval: 1,
            consumed_wall: Duration::ZERO,
            fault: None,
            mem_soft: None,
            mem_hard: None,
            strata: None,
            search_budget: SearchBudget::unlimited(),
        }
    }
}

impl ChaseConfig {
    /// A config for the given variant with default budgets.
    pub fn variant(variant: ChaseVariant) -> Self {
        ChaseConfig {
            variant,
            ..ChaseConfig::default()
        }
    }

    /// Sets the application budget.
    pub fn with_max_applications(mut self, n: usize) -> Self {
        self.max_applications = n;
        self
    }

    /// Sets the atom budget.
    pub fn with_max_atoms(mut self, n: usize) -> Self {
        self.max_atoms = n;
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_max_wall(mut self, d: Duration) -> Self {
        self.max_wall = Some(d);
        self
    }

    /// Sets the scheduler.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Sets the core retraction interval.
    pub fn with_core_interval(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.core_interval = k;
        self
    }

    /// Sets the wall-clock time already consumed by earlier slices.
    pub fn with_consumed_wall(mut self, d: Duration) -> Self {
        self.consumed_wall = d;
        self
    }

    /// Arms a fault-injection plan.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the soft memory ceiling (abstract units; degrade, don't stop).
    pub fn with_mem_soft(mut self, units: usize) -> Self {
        self.mem_soft = Some(units);
        self
    }

    /// Sets the hard memory ceiling (abstract units; suspend cleanly).
    pub fn with_mem_hard(mut self, units: usize) -> Self {
        self.mem_hard = Some(units);
        self
    }

    /// Sets a stratified rule schedule (an ordered partition of rule
    /// ids; each stratum saturates before the next starts).
    pub fn with_strata(mut self, strata: Vec<Vec<usize>>) -> Self {
        self.strata = Some(strata);
        self
    }

    /// Sets the external search budget (merged into retraction searches
    /// and polled between applications).
    pub fn with_search_budget(mut self, budget: SearchBudget) -> Self {
        self.search_budget = budget;
        self
    }
}

/// Why the chase stopped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// A fixpoint was reached: no active trigger remains, the final
    /// instance is a (finite universal, for restricted/core) model.
    Terminated,
    /// The application budget was exhausted.
    ApplicationBudgetExhausted,
    /// The atom budget was exhausted.
    AtomBudgetExhausted,
    /// The wall-clock budget was exhausted.
    WallBudgetExhausted,
    /// The observer callback requested a stop.
    Stopped,
    /// A [`CancelToken`] requested a stop.
    Cancelled,
    /// The run was suspended cleanly before a resource exhaustion could
    /// turn into a crash; resumable like any budget stop.
    Suspended(SuspendReason),
}

/// Why a run was suspended ([`ChaseOutcome::Suspended`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SuspendReason {
    /// The hard memory ceiling ([`ChaseConfig::mem_hard`]) was crossed,
    /// or a [`crate::FaultSite::MemoryPressure`] site fired.
    MemoryCeiling,
}

impl ChaseOutcome {
    /// Did the chase reach a fixpoint?
    pub fn terminated(self) -> bool {
        self == ChaseOutcome::Terminated
    }

    /// Can the run meaningfully continue from its final instance (i.e.
    /// it stopped for a budget, a cancel or an observer, not because a
    /// fixpoint was reached)?
    pub fn resumable(self) -> bool {
        !self.terminated()
    }
}

/// Counters describing a chase run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Number of rule applications performed.
    pub applications: usize,
    /// Number of fairness rounds executed.
    pub rounds: usize,
    /// Number of non-identity simplifications (core retractions).
    pub retractions: usize,
    /// Largest instance (in atoms) ever produced, pre-simplification.
    pub peak_atoms: usize,
    /// Core/frugal phases executed (including no-op ones).
    pub core_steps: usize,
    /// Matcher search nodes explored across all core/frugal phases.
    pub match_nodes: usize,
    /// Fold candidates probed for eliminability across all phases.
    pub fold_candidates: usize,
    /// Phases cut short by the wall-clock/cancel budget (their result is
    /// a sound retract but possibly not the core).
    pub core_truncations: usize,
    /// Wall-clock microseconds spent inside core/frugal phases.
    pub core_time_us: u64,
    /// Wall-clock microseconds this run has consumed, updated before
    /// every step event and at the end of the run. Across resumed slices
    /// the service accumulates it, so a checkpoint knows how much of the
    /// `max_wall` budget the derivation has already spent.
    pub wall_us: u64,
    /// Fresh nulls minted by trigger applications in this slice (the
    /// skolem variant interns nulls, so its reused ones do not count).
    pub nulls_minted: usize,
    /// Largest round snapshot of pending triggers ever taken.
    pub peak_trigger_queue: usize,
    /// Peak abstract memory units (atoms + nulls minted + pending queue
    /// entries) observed after any application — what the soft/hard
    /// memory ceilings of [`ChaseConfig`] are enforced against. The run
    /// keeps one live instance, and its derivation logs triggers and
    /// substitutions rather than instances, so the atoms counted here
    /// are the instances actually held.
    pub peak_mem_units: usize,
    /// Wall-clock microseconds spent in the match phase (trigger
    /// discovery + satisfaction checking). Nondeterministic, like
    /// [`ChaseStats::wall_us`].
    pub match_time_us: u64,
    /// Homomorphism searches run by the match phase.
    pub match_searches: usize,
    /// Candidate trials explored by match-phase searches. Deterministic
    /// for a given KB — the counter the bench gate compares across
    /// machines.
    pub match_trials: usize,
    /// Largest number of live positional-index postings the instance ever
    /// carried (a structural gauge of index memory).
    pub peak_index_postings: usize,
}

/// How two consecutive slices of one derivation combine a counter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Combine {
    /// The slices' values add up (applications, timers, search nodes).
    Sum,
    /// The larger value stands (gauges such as `peak_atoms`).
    Peak,
}

/// One row of [`ChaseStats::FIELDS`].
#[derive(Copy, Clone, Debug)]
pub struct StatsField {
    /// The counter's key on the wire (its field name).
    pub name: &'static str,
    /// Reads the counter.
    pub get: fn(&ChaseStats) -> u64,
    /// Writes the counter.
    pub set: fn(&mut ChaseStats, u64),
    /// How a resumed slice's value combines with its prefix's.
    pub combine: Combine,
    /// Decoders reject a record without this key; any other missing
    /// counter reads as 0, so records written before it existed parse.
    pub required: bool,
}

/// A [`StatsField`] row for the field `$field`.
macro_rules! stats_field {
    ($field:ident, $combine:ident, $required:literal) => {
        StatsField {
            name: stringify!($field),
            get: |s| s.$field as u64,
            set: |s, v| s.$field = v as _,
            combine: Combine::$combine,
            required: $required,
        }
    };
}

impl ChaseStats {
    /// Every counter, in wire order: the one place that names them for
    /// the stats codec and for combining a checkpoint's prefix with a
    /// resumed slice. A new counter needs a field and a row here.
    pub const FIELDS: [StatsField; 17] = [
        stats_field!(applications, Sum, true),
        stats_field!(rounds, Sum, true),
        stats_field!(retractions, Sum, true),
        stats_field!(peak_atoms, Peak, true),
        stats_field!(core_steps, Sum, false),
        stats_field!(match_nodes, Sum, false),
        stats_field!(fold_candidates, Sum, false),
        stats_field!(core_truncations, Sum, false),
        stats_field!(core_time_us, Sum, false),
        stats_field!(wall_us, Sum, false),
        stats_field!(nulls_minted, Sum, false),
        stats_field!(peak_trigger_queue, Peak, false),
        stats_field!(peak_mem_units, Peak, false),
        stats_field!(match_time_us, Sum, false),
        stats_field!(match_searches, Sum, false),
        stats_field!(match_trials, Sum, false),
        stats_field!(peak_index_postings, Peak, false),
    ];

    /// Counts one core or frugal phase: its matcher counters `ms` and the
    /// wall-clock time it took.
    pub fn tally_core_phase(&mut self, ms: MatchStats, elapsed: Duration) {
        self.core_steps += 1;
        self.match_nodes += ms.nodes;
        self.fold_candidates += ms.candidates;
        self.core_truncations += ms.truncated as usize;
        self.core_time_us += elapsed.as_micros() as u64;
    }
}

/// The result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The recorded derivation: its log, replayable into every `F_i`.
    pub derivation: Derivation,
    /// The final instance `F_k`.
    pub final_instance: AtomSet,
    /// Why the run stopped.
    pub outcome: ChaseOutcome,
    /// Run counters.
    pub stats: ChaseStats,
}

fn order_snapshot(
    snapshot: &mut [Trigger],
    rules: &RuleSet,
    cfg: &ChaseConfig,
    rng: &mut SplitMix64,
) {
    match cfg.scheduler {
        SchedulerKind::Deterministic => {}
        SchedulerKind::Random(_) => rng.shuffle(snapshot),
        SchedulerKind::DatalogFirst => {
            snapshot.sort_by_key(|t| !rules.get(t.rule).is_datalog());
        }
        SchedulerKind::ExistentialLast => {
            snapshot.sort_by_key(|t| {
                let rule = rules.get(t.rule);
                (!rule.is_datalog(), rule.existential_vars().len())
            });
        }
        SchedulerKind::NullAverse => {
            // Instance terms that are variables are labeled nulls, so
            // the key counts nulls in the trigger's frontier image.
            snapshot.sort_by_key(|t| {
                let rule = rules.get(t.rule);
                rule.frontier_vars()
                    .iter()
                    .filter(|&&x| matches!(t.pi.apply_term(Term::Var(x)), Term::Var(_)))
                    .count()
            });
        }
    }
}

/// Runs the chase from `(facts, rules)` under `cfg`, minting fresh nulls
/// from `vocab`.
pub fn run_chase(
    vocab: &mut Vocabulary,
    facts: &AtomSet,
    rules: &RuleSet,
    cfg: &ChaseConfig,
) -> ChaseResult {
    run_chase_observed(vocab, facts, rules, cfg, |_, _| {
        std::ops::ControlFlow::Continue(())
    })
}

/// Like [`run_chase`], but invokes `observer` after every rule
/// application with the freshly produced instance `F_i` and the running
/// stats. Returning `ControlFlow::Break` stops the chase with
/// [`ChaseOutcome::Stopped`] — the mechanism behind the Theorem 1 twin
/// semi-decision procedure in `chase-core`.
pub fn run_chase_observed(
    vocab: &mut Vocabulary,
    facts: &AtomSet,
    rules: &RuleSet,
    cfg: &ChaseConfig,
    mut observer: impl FnMut(&AtomSet, &ChaseStats) -> std::ops::ControlFlow<()>,
) -> ChaseResult {
    run_chase_controlled(vocab, facts, rules, cfg, None, |event| match event {
        ChaseEvent::StepApplied {
            instance, stats, ..
        } => observer(instance, stats),
        _ => std::ops::ControlFlow::Continue(()),
    })
}

/// The fully controlled runner behind [`run_chase`] and
/// [`run_chase_observed`]: adds cooperative cancellation (polled between
/// trigger applications), the wall-clock budget of
/// [`ChaseConfig::max_wall`], and a structured [`ChaseEvent`] stream in
/// place of the post-hoc-only stats. This is the engine entry point of
/// the `treechase-service` job runner.
pub fn run_chase_controlled(
    vocab: &mut Vocabulary,
    facts: &AtomSet,
    rules: &RuleSet,
    cfg: &ChaseConfig,
    cancel: Option<&CancelToken>,
    mut observer: impl FnMut(ChaseEvent<'_>) -> std::ops::ControlFlow<()>,
) -> ChaseResult {
    // Once the soft memory ceiling is crossed, retraction searches run
    // under this node limit: degraded mode trades core quality (a
    // truncated phase is a sound non-core retract) for bounded memory
    // and latency.
    const DEGRADED_NODE_LIMIT: usize = 50_000;

    // Make sure the supply is ahead of every variable already mentioned.
    for v in facts.vars() {
        vocab.ensure_var(v);
    }
    for (_, rule) in rules.iter() {
        for v in rule.body().vars().union(&rule.head().vars()) {
            vocab.ensure_var(*v);
        }
    }

    let mut rng = SplitMix64::new(match cfg.scheduler {
        SchedulerKind::Random(seed) => seed,
        _ => 0,
    });
    let started = Instant::now();
    // What earlier slices of this derivation already spent comes off the
    // wall budget: a resumed job continues the old clock, it does not get
    // a fresh one.
    let effective_wall = cfg
        .max_wall
        .map(|limit| limit.saturating_sub(cfg.consumed_wall));
    let wall_exhausted = |started: Instant| match effective_wall {
        Some(limit) => started.elapsed() >= limit,
        None => false,
    };
    let cancelled =
        || cancel.is_some_and(CancelToken::is_cancelled) || cfg.search_budget.interrupted();

    // The budget threaded into every retraction search: the caller's
    // external budget, plus a deadline from `max_wall` and the cancel
    // flag from the token. This is what keeps a single expensive core
    // phase from overshooting the wall budget or ignoring a cancel — the
    // matcher polls it inside its backtracking loop.
    let mut budget = cfg.search_budget.clone();
    if let Some(limit) = effective_wall {
        let wall_deadline = started + limit;
        budget.deadline = Some(
            budget
                .deadline
                .map_or(wall_deadline, |d| d.min(wall_deadline)),
        );
    }
    if let Some(token) = cancel {
        budget = budget.with_cancel(token.flag());
    }

    let mut degraded = false;

    let mut stats = ChaseStats {
        peak_atoms: facts.len(),
        ..ChaseStats::default()
    };
    // Whether the last core computation (σ₀, then each phase) ended at
    // a core: only then may the next phase certify its old variables.
    let mut at_core = false;
    let sigma0 = match cfg.variant {
        ChaseVariant::Core => {
            let phase = Instant::now();
            let (res, ms) = core_of_budgeted(facts, &budget);
            stats.tally_core_phase(ms, phase.elapsed());
            at_core = !ms.truncated;
            res.retraction
        }
        _ => Substitution::new(),
    };
    // The one live instance: every application inserts into it in place,
    // every simplification retracts it in place (or replaces it by the
    // retract a core phase builds), and the derivation only logs what
    // happened to it.
    let mut instance = first_instance(&sigma0, facts);
    let mut log: Vec<DerivationStep> = Vec::new();

    // Semi-naive discovery for every variant: a round matches only the
    // triggers that use an atom inserted since the last discovery. Every
    // simplification σᵢ is a retraction (Defs. 1–2) and fixes its image,
    // so this holds for frugal and core too (DESIGN §7):
    // 1. satisfaction survives a retraction r (witness r∘π′: the
    //    frontier is fixed);
    // 2. a retracted atom holds an eliminated null that never reappears,
    //    so a body present at round k+1 and at round k's discovery was
    //    present throughout, `tr.map(forward)` left it unchanged, and
    //    round k applied the trigger or found it satisfied;
    // 3. so every active trigger at round k+1 uses an atom inserted in
    //    round k.
    // The delta starts as the first instance (σ₀(F) for core) and
    // collects the atoms whose `insert` succeeded. Debug builds check
    // every frugal and core round against a full re-scan; the monotonic
    // variants skip it, which keeps their long debug runs linear.
    let mut delta: Vec<chase_atoms::Atom> = instance.iter().cloned().collect();

    // Dedup memory for the oblivious variants (monotonic, so keys stay
    // valid across the whole run).
    let mut applied_keys: HashSet<(usize, Vec<(chase_atoms::VarId, chase_atoms::Term)>)> =
        HashSet::new();

    // Stratified schedule: only rules of the active stratum may fire;
    // when the active stratum saturates, the next one is enabled and the
    // semi-naive delta is reset to the full instance so the newly
    // enabled rules see every atom.
    let strata_sets: Option<Vec<HashSet<usize>>> = cfg
        .strata
        .as_ref()
        .map(|parts| parts.iter().map(|s| s.iter().copied().collect()).collect());
    let mut stratum = 0usize;

    let mut skolem = SkolemTable::new();
    let mut since_core = 0usize;
    // The atoms inserted since the last core phase: between phases the
    // instance only grows, so the last phase's result is the rest.
    let mut added_since_core: Vec<chase_atoms::Atom> = Vec::new();
    let outcome = 'outer: loop {
        if cancelled() {
            break ChaseOutcome::Cancelled;
        }
        if wall_exhausted(started) {
            break ChaseOutcome::WallBudgetExhausted;
        }
        stats.peak_index_postings = stats.peak_index_postings.max(instance.index_postings());
        let match_phase = Instant::now();
        let mut tally = MatchTally::default();
        let discovered = triggers_using_delta_counted(rules, &instance, &delta, &mut tally);
        delta.clear();
        let pending = |t: &Trigger, tally: &mut MatchTally| {
            strata_sets
                .as_ref()
                .is_none_or(|sets| sets.get(stratum).is_some_and(|s| s.contains(&t.rule)))
                && match cfg.variant {
                    ChaseVariant::Oblivious => !applied_keys.contains(&t.universal_key(rules)),
                    ChaseVariant::SemiOblivious => !applied_keys.contains(&t.frontier_key(rules)),
                    ChaseVariant::Restricted | ChaseVariant::Frugal | ChaseVariant::Core => {
                        !t.is_satisfied_in_counted(rules, &instance, tally)
                    }
                }
        };
        let mut snapshot: Vec<Trigger> = discovered
            .into_iter()
            .filter(|t| pending(t, &mut tally))
            .collect();
        stats.match_time_us += match_phase.elapsed().as_micros() as u64;
        stats.match_searches += tally.searches;
        stats.match_trials += tally.trials;
        #[cfg(debug_assertions)]
        if matches!(cfg.variant, ChaseVariant::Frugal | ChaseVariant::Core) {
            let rescan: Vec<Trigger> = crate::trigger::all_triggers(rules, &instance)
                .into_iter()
                .filter(|t| pending(t, &mut MatchTally::default()))
                .collect();
            assert_eq!(
                snapshot, rescan,
                "semi-naive discovery must equal a re-scan"
            );
        }
        if snapshot.is_empty() {
            if let Some(sets) = &strata_sets {
                if stratum + 1 < sets.len() {
                    stratum += 1;
                    // Re-prime discovery for the next stratum: its rules
                    // have never matched, so every atom is "new" to them.
                    delta = instance.iter().cloned().collect();
                    continue;
                }
            }
            break ChaseOutcome::Terminated;
        }
        order_snapshot(&mut snapshot, rules, cfg, &mut rng);
        stats.rounds += 1;
        stats.peak_trigger_queue = stats.peak_trigger_queue.max(snapshot.len());
        if observer(ChaseEvent::RoundStarted {
            round: stats.rounds,
            pending: snapshot.len(),
        })
        .is_break()
        {
            break 'outer ChaseOutcome::Stopped;
        }

        // Simplifications performed during this round, composed.
        let mut forward = Substitution::new();
        let snapshot_len = snapshot.len();
        for (pos, tr) in snapshot.into_iter().enumerate() {
            if cancelled() {
                break 'outer ChaseOutcome::Cancelled;
            }
            if wall_exhausted(started) {
                break 'outer ChaseOutcome::WallBudgetExhausted;
            }
            if stats.applications >= cfg.max_applications {
                break 'outer ChaseOutcome::ApplicationBudgetExhausted;
            }
            let tr = tr.map(rules, &forward);
            let match_phase = Instant::now();
            let mut tally = MatchTally::default();
            let active = match cfg.variant {
                ChaseVariant::Oblivious => !applied_keys.contains(&tr.universal_key(rules)),
                ChaseVariant::SemiOblivious => !applied_keys.contains(&tr.frontier_key(rules)),
                ChaseVariant::Restricted | ChaseVariant::Frugal | ChaseVariant::Core => {
                    tr.is_trigger_for(rules, &instance)
                        && !tr.is_satisfied_in_counted(rules, &instance, &mut tally)
                }
            };
            stats.match_time_us += match_phase.elapsed().as_micros() as u64;
            stats.match_searches += tally.searches;
            stats.match_trials += tally.trials;
            if !active {
                continue;
            }
            // Skolem semantics intern the nulls per (rule, frontier
            // image), making the run deterministic and restart-safe; every
            // other variant mints fresh ones.
            let (pi_safe, fresh) = if cfg.variant == ChaseVariant::SemiOblivious {
                (skolem.pi_safe(vocab, rules, &tr), Vec::new())
            } else {
                fresh_pi_safe(vocab, rules, &tr)
            };
            let added = apply_trigger(rules, &mut instance, &tr, &pi_safe);
            stats.applications += 1;
            since_core += 1;
            if let Some(n) = cfg.fault.as_ref().and_then(FaultPlan::on_application) {
                panic!("injected fault: crash at application #{n}");
            }
            if let Some(ms) = cfg.fault.as_ref().and_then(FaultPlan::on_slow) {
                std::thread::sleep(Duration::from_millis(ms));
            }
            stats.nulls_minted += fresh.len();
            stats.peak_atoms = stats.peak_atoms.max(instance.len());
            stats.peak_index_postings = stats.peak_index_postings.max(instance.index_postings());

            // Abstract memory accounting: instance atoms at their
            // pre-retraction peak, plus the nulls this slice minted, plus
            // the triggers still queued in this round. Deterministic, so
            // ceiling behaviour is reproducible in tests without real
            // memory pressure.
            let mem_units = instance.len() + stats.nulls_minted + (snapshot_len - pos - 1);
            stats.peak_mem_units = stats.peak_mem_units.max(mem_units);
            let mem_fault = cfg
                .fault
                .as_ref()
                .and_then(FaultPlan::on_memory_pressure)
                .is_some();
            let mem_hard_hit = mem_fault || cfg.mem_hard.is_some_and(|h| mem_units > h);
            if !mem_hard_hit && !degraded && cfg.mem_soft.is_some_and(|s| mem_units > s) {
                degraded = true;
                // Degrade: force the core retraction pass to run on this
                // very application (core variant; the others have no
                // retraction to force) and shrink the search budget so
                // later phases stay bounded.
                since_core = cfg.core_interval;
                budget = budget.tighten_node_limit(DEGRADED_NODE_LIMIT);
                if observer(ChaseEvent::Degraded {
                    mem_units,
                    soft_limit: cfg.mem_soft.unwrap_or(0),
                    stats: &stats,
                })
                .is_break()
                {
                    // The application is in the instance, so it is logged.
                    log.push(DerivationStep {
                        trigger: tr,
                        pi_safe,
                        simplification: Substitution::new(),
                    });
                    break 'outer ChaseOutcome::Stopped;
                }
            }
            let produced_len = instance.len();
            if cfg.variant == ChaseVariant::Core {
                added_since_core.extend(added.iter().cloned());
            }
            delta.extend(added);
            match cfg.variant {
                ChaseVariant::Oblivious => {
                    applied_keys.insert(tr.universal_key(rules));
                }
                ChaseVariant::SemiOblivious => {
                    applied_keys.insert(tr.frontier_key(rules));
                }
                _ => {}
            }
            let mut phase_stats = MatchStats::default();
            let sigma = match cfg.variant {
                ChaseVariant::Core if since_core >= cfg.core_interval => {
                    since_core = 0;
                    if let Some(n) = cfg.fault.as_ref().and_then(FaultPlan::on_core_phase) {
                        panic!("injected fault: crash in core phase #{n}");
                    }
                    let phase = Instant::now();
                    let (sigma, ms) =
                        incremental_core(&mut instance, &added_since_core, &budget, at_core);
                    // A truncated phase (a degraded run's node limit)
                    // leaves a sound retract that may not be a core.
                    at_core = !ms.truncated;
                    added_since_core.clear();
                    stats.tally_core_phase(ms, phase.elapsed());
                    if !sigma.is_empty() {
                        stats.retractions += 1;
                    }
                    phase_stats = ms;
                    sigma
                }
                ChaseVariant::Frugal => {
                    // Fold only the freshly minted nulls of this
                    // application; everything older stays fixed.
                    let phase = Instant::now();
                    let (sigma, ms) =
                        fold_variables(&mut instance, fresh.iter().copied(), Some(&fresh), &budget);
                    stats.tally_core_phase(ms, phase.elapsed());
                    if !sigma.is_empty() {
                        stats.retractions += 1;
                    }
                    phase_stats = ms;
                    sigma
                }
                _ => Substitution::new(),
            };
            forward = forward.then(&sigma);
            let retracted = instance.len() < produced_len;
            let too_big = instance.len() > cfg.max_atoms;
            log.push(DerivationStep {
                trigger: tr,
                pi_safe,
                simplification: sigma,
            });
            if too_big {
                break 'outer ChaseOutcome::AtomBudgetExhausted;
            }
            if mem_hard_hit {
                // The application is recorded (it happened), then the run
                // suspends cleanly: the caller checkpoints the instance
                // exactly as for a budget stop.
                break 'outer ChaseOutcome::Suspended(SuspendReason::MemoryCeiling);
            }
            if retracted
                && observer(ChaseEvent::CoreRetracted {
                    before: produced_len,
                    after: instance.len(),
                    match_stats: phase_stats,
                    stats: &stats,
                })
                .is_break()
            {
                break 'outer ChaseOutcome::Stopped;
            }
            stats.wall_us = started.elapsed().as_micros() as u64;
            if observer(ChaseEvent::StepApplied {
                instance: &instance,
                vocab: &*vocab,
                stats: &stats,
            })
            .is_break()
            {
                break 'outer ChaseOutcome::Stopped;
            }
        }
    };

    stats.wall_us = started.elapsed().as_micros() as u64;
    ChaseResult {
        derivation: Derivation {
            rules: rules.clone(),
            initial: facts.clone(),
            sigma0,
            steps: log,
            last: instance.clone(),
        },
        final_instance: instance,
        outcome,
        stats,
    }
}

#[cfg(test)]
/// Term, atom and instance builders shared by this file's test modules.
mod test_helpers {
    use chase_atoms::{Atom, AtomSet, PredId, Term, VarId, Vocabulary};

    pub(super) fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    pub(super) fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(pr), args.to_vec())
    }

    pub(super) fn set(atoms: &[Atom]) -> AtomSet {
        atoms.iter().cloned().collect()
    }

    /// A vocabulary whose null supply starts past every test variable.
    pub(super) fn vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.ensure_var(VarId::from_raw(99));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::test_helpers::*;
    use crate::rule::Rule;
    use crate::trigger::is_model_of_rules;
    use chase_atoms::{PredId, Term};
    use chase_homomorphism::{is_core, maps_to};

    /// Transitivity (datalog, terminating).
    fn transitivity() -> RuleSet {
        [Rule::new(
            "trans",
            set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]),
            set(&[atom(0, &[v(0), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect()
    }

    /// r(X, Y) → ∃Z. r(Y, Z) (non-terminating for restricted on a path).
    fn chain() -> RuleSet {
        [Rule::new(
            "chain",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(0, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect()
    }

    #[test]
    fn datalog_chase_terminates_with_transitive_closure() {
        let rules = transitivity();
        let facts = set(&[
            atom(0, &[v(10), v(11)]),
            atom(0, &[v(11), v(12)]),
            atom(0, &[v(12), v(13)]),
        ]);
        let mut vocab = vocab();
        let res = run_chase(&mut vocab, &facts, &rules, &ChaseConfig::default());
        assert!(res.outcome.terminated());
        // Closure of a 4-chain: 3 + 2 + 1 = 6 atoms.
        assert_eq!(res.final_instance.len(), 6);
        assert!(is_model_of_rules(&rules, &res.final_instance));
        let d = res.derivation;
        assert_eq!(d.validate(), Ok(()));
        assert!(d.check_fair_up_to_horizon().is_ok());
    }

    #[test]
    fn restricted_chase_hits_budget_on_chain() {
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::default().with_max_applications(5);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert_eq!(res.outcome, ChaseOutcome::ApplicationBudgetExhausted);
        assert_eq!(res.stats.applications, 5);
        assert_eq!(res.final_instance.len(), 6);
        let d = res.derivation;
        assert!(d.is_monotonic());
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn restricted_chase_terminates_on_loop() {
        // Facts contain a loop ⇒ the chain trigger is satisfied.
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(10)])]);
        let mut vocab = vocab();
        let res = run_chase(&mut vocab, &facts, &rules, &ChaseConfig::default());
        assert!(res.outcome.terminated());
        assert_eq!(res.stats.applications, 0);
    }

    #[test]
    fn core_chase_folds_redundancy() {
        // Rule r(X,Y) → ∃Z. r(X,Z), plus facts {r(a-var, b-var), loop}:
        // facts: r(10,11), r(10,10). Trigger on (10,11) is satisfied by
        // r(10,10)? Satisfaction needs an extension of π = {X↦10, Y↦11}
        // mapping Z somewhere with r(10, Z): yes, Z↦11 or 10. So chase
        // terminates immediately. Core chase's σ_0 folds 11 into 10?
        // r(10,11): folding 11↦10 needs r(10,10) ∈ F — yes! So F_0 is the
        // loop alone.
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(0, &[v(0), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(10), v(10)])]);
        let mut vocab = vocab();
        let res = run_chase(
            &mut vocab,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Core),
        );
        assert!(res.outcome.terminated());
        assert_eq!(res.final_instance, set(&[atom(0, &[v(10), v(10)])]));
        assert!(is_core(&res.final_instance));
    }

    #[test]
    fn core_chase_result_is_core_after_termination() {
        let rules = transitivity();
        let facts = set(&[
            atom(0, &[v(10), v(11)]),
            atom(0, &[v(11), v(10)]),
            atom(0, &[v(11), v(12)]),
        ]);
        let mut vocab = vocab();
        let res = run_chase(
            &mut vocab,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Core),
        );
        assert!(res.outcome.terminated());
        assert!(is_core(&res.final_instance));
        assert!(is_model_of_rules(&rules, &res.final_instance));
        let d = res.derivation;
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn oblivious_applies_satisfied_triggers() {
        // chain rule on a loop: restricted stops at once, oblivious keeps
        // going (each new atom spawns a new trigger) until budget.
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(10)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::variant(ChaseVariant::Oblivious).with_max_applications(4);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert_eq!(res.outcome, ChaseOutcome::ApplicationBudgetExhausted);
        assert_eq!(res.final_instance.len(), 5);
    }

    #[test]
    fn semi_oblivious_dedupes_by_frontier() {
        // r(X, Y) → ∃Z. s(Y, Z): triggers sharing Y produce one null under
        // semi-oblivious, two under oblivious.
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(1, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(12)]), atom(0, &[v(11), v(12)])]);

        let mut vocab1 = vocab();
        let semi = run_chase(
            &mut vocab1,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::SemiOblivious),
        );
        assert!(semi.outcome.terminated());
        assert_eq!(semi.final_instance.pred_count(PredId::from_raw(1)), 1);

        let mut vocab2 = vocab();
        let obl = run_chase(
            &mut vocab2,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Oblivious),
        );
        assert!(obl.outcome.terminated());
        assert_eq!(obl.final_instance.pred_count(PredId::from_raw(1)), 2);
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let rules = transitivity();
        let facts = set(&[
            atom(0, &[v(10), v(11)]),
            atom(0, &[v(11), v(12)]),
            atom(0, &[v(12), v(13)]),
            atom(0, &[v(13), v(14)]),
        ]);
        let run = |seed| {
            let mut vc = vocab();
            let cfg = ChaseConfig::default().with_scheduler(SchedulerKind::Random(seed));
            run_chase(&mut vc, &facts, &rules, &cfg)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.final_instance, b.final_instance);
        // Wall time is the one genuinely nondeterministic counter.
        let strip = |s: ChaseStats| ChaseStats {
            wall_us: 0,
            match_time_us: 0,
            ..s
        };
        assert_eq!(strip(a.stats), strip(b.stats));
        // Different seeds still converge to the same closure (confluence
        // of datalog).
        let c = run(8);
        assert_eq!(a.final_instance, c.final_instance);
    }

    #[test]
    fn all_variants_agree_on_datalog_closure() {
        let rules = transitivity();
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(11), v(12)])]);
        let mut results = Vec::new();
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
            ChaseVariant::Core,
        ] {
            let mut vc = vocab();
            let res = run_chase(&mut vc, &facts, &rules, &ChaseConfig::variant(variant));
            assert!(res.outcome.terminated(), "{variant:?}");
            results.push(res.final_instance);
        }
        // Datalog creates no nulls, so all variants coincide exactly.
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
    }

    #[test]
    fn chase_instances_map_into_any_model() {
        // Proposition 1.(1) smoke test: each F_i maps into a hand-built
        // model of the KB.
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        // Model: r(10,11) plus loop on 11.
        let model = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(11), v(11)])]);
        assert!(is_model_of_rules(&rules, &model));
        let mut vc = vocab();
        let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(6);
        let res = run_chase(&mut vc, &facts, &rules, &cfg);
        let d = res.derivation;
        assert!(d.all_instances_map_into(&model));
        assert!(maps_to(&facts, &model));
    }

    #[test]
    fn consumed_wall_is_deducted_from_the_slice_budget() {
        // A slice whose earlier siblings already spent the whole wall
        // budget must stop immediately instead of getting a fresh clock.
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vc = vocab();
        let cfg = ChaseConfig::default()
            .with_max_wall(Duration::from_secs(3600))
            .with_consumed_wall(Duration::from_secs(3600));
        let res = run_chase(&mut vc, &facts, &rules, &cfg);
        assert_eq!(res.outcome, ChaseOutcome::WallBudgetExhausted);
        assert_eq!(res.stats.applications, 0);
        // Sanity: without the carried-over consumption the same config
        // makes progress.
        let mut vc2 = vocab();
        let fresh = ChaseConfig::default()
            .with_max_wall(Duration::from_secs(3600))
            .with_max_applications(3);
        let res2 = run_chase(&mut vc2, &facts, &rules, &fresh);
        assert_eq!(res2.stats.applications, 3);
    }

    #[test]
    fn injected_application_fault_panics_exactly_once() {
        use crate::control::{FaultPlan, FaultSite};
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let plan = FaultPlan::new(vec![FaultSite::Application(2)]);
        let cfg = ChaseConfig::default()
            .with_max_applications(4)
            .with_fault(plan.clone());
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut vc = vocab();
            run_chase(&mut vc, &facts, &rules, &cfg)
        }));
        let message = *crashed.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("crash at application #2"), "{message}");
        // The site is spent: a retry under the same plan runs clean.
        let mut vc = vocab();
        let res = run_chase(&mut vc, &facts, &rules, &cfg);
        assert_eq!(res.outcome, ChaseOutcome::ApplicationBudgetExhausted);
        assert_eq!(res.stats.applications, 4);
    }

    #[test]
    fn derivation_log_replays_to_the_final_instance() {
        // Folding (core, frugal) and skolem (semi-oblivious) runs included:
        // the log alone reproduces the live instance, step by step.
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(11), v(12)])]);
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
            ChaseVariant::Frugal,
            ChaseVariant::Core,
        ] {
            let mut vc = vocab();
            let cfg = ChaseConfig::variant(variant).with_max_applications(6);
            let res = run_chase(&mut vc, &facts, &rules, &cfg);
            let d = &res.derivation;
            assert_eq!(d.len(), res.stats.applications + 1, "{variant:?}");
            let mut replayed = None;
            d.replay(|e| replayed = Some(e.instance.clone()));
            assert_eq!(replayed.as_ref(), Some(&res.final_instance), "{variant:?}");
            // The oblivious variants apply satisfied triggers, which
            // Definition 1 forbids; the others record derivations.
            if !matches!(
                variant,
                ChaseVariant::Oblivious | ChaseVariant::SemiOblivious
            ) {
                assert_eq!(d.validate(), Ok(()), "{variant:?}");
            }
        }
    }

    #[test]
    fn hard_memory_ceiling_suspends_resumably() {
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::default()
            .with_max_applications(10_000)
            .with_mem_hard(8);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert_eq!(
            res.outcome,
            ChaseOutcome::Suspended(SuspendReason::MemoryCeiling)
        );
        assert!(res.outcome.resumable());
        assert!(!res.outcome.terminated());
        assert!(res.stats.peak_mem_units > 8);
        // Well short of the application budget: the ceiling cut it.
        assert!(res.stats.applications < 100);
        assert!(res.stats.nulls_minted > 0);
    }

    #[test]
    fn soft_memory_ceiling_degrades_exactly_once() {
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::default()
            .with_max_applications(12)
            .with_mem_soft(5);
        let mut degraded_events = 0usize;
        let res = run_chase_controlled(&mut vocab, &facts, &rules, &cfg, None, |ev| {
            if let ChaseEvent::Degraded {
                mem_units,
                soft_limit,
                ..
            } = ev
            {
                assert!(mem_units > soft_limit);
                assert_eq!(soft_limit, 5);
                degraded_events += 1;
            }
            std::ops::ControlFlow::Continue(())
        });
        // Degrading does not stop the run; it runs to its budget.
        assert_eq!(res.outcome, ChaseOutcome::ApplicationBudgetExhausted);
        assert_eq!(degraded_events, 1, "the crossing is reported once");
        assert!(res.stats.peak_mem_units > 5);
        assert!(res.stats.peak_trigger_queue >= 1);
    }

    #[test]
    fn stop_on_degraded_logs_the_crossing_application() {
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::default()
            .with_max_applications(12)
            .with_mem_soft(5);
        let res = run_chase_controlled(&mut vocab, &facts, &rules, &cfg, None, |ev| {
            if matches!(ev, ChaseEvent::Degraded { .. }) {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        });
        assert_eq!(res.outcome, ChaseOutcome::Stopped);
        let d = &res.derivation;
        assert_eq!(d.len(), res.stats.applications + 1);
        assert_eq!(d.validate(), Ok(()));
        let mut replayed = None;
        d.replay(|e| replayed = Some(e.instance.clone()));
        assert_eq!(replayed.as_ref(), Some(&res.final_instance));
    }

    #[test]
    fn memory_pressure_fault_suspends_at_its_application() {
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::default()
            .with_max_applications(10_000)
            .with_fault(FaultPlan::new(vec![crate::FaultSite::MemoryPressure(3)]));
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert_eq!(
            res.outcome,
            ChaseOutcome::Suspended(SuspendReason::MemoryCeiling)
        );
        assert_eq!(res.stats.applications, 3);
    }

    #[test]
    fn slow_fault_injects_latency() {
        let rules = chain();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::default()
            .with_max_applications(2)
            .with_fault(FaultPlan::new(vec![crate::FaultSite::Slow(1, 30)]));
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert!(
            res.stats.wall_us >= 30_000,
            "a slow:1:30 site sleeps 30ms, got {}us",
            res.stats.wall_us
        );
    }

    #[test]
    fn conclusive_phase_after_a_truncated_one_reaches_the_core() {
        // Under a 2-node limit σ₀ cuts the probe of x10, then folds x13
        // onto x11: the retract r(x11, x10), r(x11, x11) is not a core.
        // The next phase adds only n(c, Z), so its pivot certificate
        // holds; it must still probe x10, which now folds cheaply.
        let c = Term::Const(chase_atoms::ConstId::from_raw(0));
        let facts = set(&[
            atom(0, &[v(11), v(10)]),
            atom(0, &[v(13), v(10)]),
            atom(0, &[v(11), v(11)]),
            atom(1, &[c]),
        ]);
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(1, &[v(0)])]),
            set(&[atom(2, &[v(0), v(1)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let cfg = ChaseConfig::variant(ChaseVariant::Core)
            .with_search_budget(SearchBudget::unlimited().with_node_limit(2));
        let res = run_chase(&mut vocab(), &facts, &rules, &cfg);
        assert!(res.outcome.terminated());
        assert_eq!(res.stats.core_steps, 2);
        assert_eq!(res.stats.core_truncations, 1, "σ₀ is cut, the phase is not");
        assert!(is_core(&res.final_instance));
        assert_eq!(res.final_instance.len(), 3);
    }
}

#[cfg(test)]
mod frugal_tests {
    use super::*;
    use crate::chase::test_helpers::*;
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::PredId;
    use chase_homomorphism::is_core;

    #[test]
    fn frugal_folds_redundant_fresh_nulls() {
        // r(X, Y) → ∃Z, W. s(Y, Z) ∧ s(Y, W): the two fresh nulls are
        // interchangeable; the frugal chase keeps only one.
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(1, &[v(1), v(2)]), atom(1, &[v(1), v(3)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)])]);

        let mut vc = vocab();
        let frugal = run_chase(
            &mut vc,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Frugal),
        );
        assert!(frugal.outcome.terminated());
        assert_eq!(
            frugal.final_instance.pred_count(PredId::from_raw(1)),
            1,
            "one of the twin nulls folds away"
        );
        assert!(frugal.stats.retractions >= 1);

        let mut vc = vocab();
        let restricted = run_chase(
            &mut vc,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Restricted),
        );
        assert_eq!(
            restricted.final_instance.pred_count(PredId::from_raw(1)),
            2,
            "restricted keeps both"
        );
    }

    #[test]
    fn frugal_leaves_old_redundancy_untouched() {
        // Initial facts carry a redundancy the frugal chase must never
        // fold (only fresh nulls move), while the core chase removes it.
        let rules: RuleSet = [Rule::new(
            "noop",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(2, &[v(0)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        // p(10,11) is redundant given p(10,10).
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(10), v(10)])]);

        let mut vc = vocab();
        let frugal = run_chase(
            &mut vc,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Frugal),
        );
        assert!(frugal.outcome.terminated());
        assert!(frugal.final_instance.contains(&atom(0, &[v(10), v(11)])));
        assert!(!is_core(&frugal.final_instance));

        let mut vc = vocab();
        let core = run_chase(
            &mut vc,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Core),
        );
        assert!(core.outcome.terminated());
        assert!(is_core(&core.final_instance));
        assert!(core.final_instance.len() < frugal.final_instance.len());
    }

    #[test]
    fn frugal_derivation_validates() {
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(1, &[v(1), v(2)]), atom(1, &[v(1), v(3)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vc = vocab();
        let res = run_chase(
            &mut vc,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Frugal),
        );
        let d = res.derivation;
        assert_eq!(d.validate(), Ok(()));
    }
}

#[cfg(test)]
mod semi_naive_tests {
    use super::*;
    use crate::chase::test_helpers::*;
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::{PredId, VarId};

    /// Datalog has one fixpoint, so a naive loop that re-scans the whole
    /// instance until no trigger is active is a perfect oracle for the
    /// semi-naive runner; Frugal never folds here (no fresh nulls to move)
    /// and must reach it too.
    #[test]
    fn semi_naive_matches_full_rescan_on_datalog() {
        let rules: RuleSet = [
            Rule::new(
                "trans",
                set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]),
                set(&[atom(0, &[v(0), v(2)])]),
            )
            .unwrap(),
            Rule::new(
                "inv",
                set(&[atom(0, &[v(0), v(1)])]),
                set(&[atom(1, &[v(1), v(0)])]),
            )
            .unwrap(),
        ]
        .into_iter()
        .collect();
        let facts = set(&[
            atom(0, &[v(10), v(11)]),
            atom(0, &[v(11), v(12)]),
            atom(0, &[v(12), v(13)]),
            atom(0, &[v(13), v(10)]),
        ]);
        let run = |variant| {
            let mut vocab = Vocabulary::new();
            run_chase(&mut vocab, &facts, &rules, &ChaseConfig::variant(variant))
        };
        let mut full = facts.clone();
        while let Some(tr) = crate::trigger::unsatisfied_triggers(&rules, &full).pop() {
            let pi_safe = tr.pi.clone();
            apply_trigger(&rules, &mut full, &tr, &pi_safe);
        }
        for variant in [ChaseVariant::Restricted, ChaseVariant::Frugal] {
            let semi = run(variant);
            assert!(semi.outcome.terminated(), "{variant:?}");
            assert_eq!(semi.final_instance, full, "{variant:?}");
        }
    }

    /// Existential rules: semi-naive restricted still reaches a model on
    /// a terminating KB.
    #[test]
    fn semi_naive_reaches_fixpoint_with_existentials() {
        // r(X,Y) → ∃Z. s(Y,Z); s(X,Y) → t(X): terminates after 2 rounds.
        let rules: RuleSet = [
            Rule::new(
                "mk",
                set(&[atom(0, &[v(0), v(1)])]),
                set(&[atom(1, &[v(1), v(2)])]),
            )
            .unwrap(),
            Rule::new(
                "mark",
                set(&[atom(1, &[v(0), v(1)])]),
                set(&[atom(2, &[v(0)])]),
            )
            .unwrap(),
        ]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(12), v(11)])]);
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        let res = run_chase(
            &mut vocab,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Restricted),
        );
        assert!(res.outcome.terminated());
        assert!(crate::trigger::is_model_of_rules(
            &rules,
            &res.final_instance
        ));
        assert_eq!(res.final_instance.pred_count(PredId::from_raw(2)), 1);
    }
}

#[cfg(test)]
mod control_tests {
    use super::*;
    use crate::chase::test_helpers::*;
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::VarId;

    /// r(X, Y) → ∃Z. r(Y, Z): divergent under the restricted chase.
    fn chain() -> (Vocabulary, RuleSet, AtomSet) {
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        let rules: RuleSet = [Rule::new(
            "chain",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(0, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        (vocab, rules, set(&[atom(0, &[v(10), v(11)])]))
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_application() {
        let (mut vocab, rules, facts) = chain();
        let token = CancelToken::new();
        token.cancel();
        let res = run_chase_controlled(
            &mut vocab,
            &facts,
            &rules,
            &ChaseConfig::default(),
            Some(&token),
            |_| std::ops::ControlFlow::Continue(()),
        );
        assert_eq!(res.outcome, ChaseOutcome::Cancelled);
        assert_eq!(res.stats.applications, 0);
        assert_eq!(res.final_instance, facts);
    }

    #[test]
    fn mid_run_cancellation_keeps_a_valid_prefix() {
        let (mut vocab, rules, facts) = chain();
        let token = CancelToken::new();
        let cancel_at = 3usize;
        let t2 = token.clone();
        let res = run_chase_controlled(
            &mut vocab,
            &facts,
            &rules,
            &ChaseConfig::default().with_max_applications(1_000),
            Some(&token),
            |event| {
                if let ChaseEvent::StepApplied { stats, .. } = event {
                    if stats.applications >= cancel_at {
                        t2.cancel();
                    }
                }
                std::ops::ControlFlow::Continue(())
            },
        );
        assert_eq!(res.outcome, ChaseOutcome::Cancelled);
        assert_eq!(res.stats.applications, cancel_at);
        let d = res.derivation;
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn zero_wall_budget_exhausts_immediately() {
        let (mut vocab, rules, facts) = chain();
        let cfg = ChaseConfig::default().with_max_wall(Duration::ZERO);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert_eq!(res.outcome, ChaseOutcome::WallBudgetExhausted);
        assert_eq!(res.stats.applications, 0);
    }

    #[test]
    fn events_stream_rounds_steps_and_retractions() {
        // A head with twin existentials under the core chase retracts
        // every step, so all three event kinds fire.
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(1, &[v(1), v(2)]), atom(1, &[v(1), v(3)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let (mut rounds, mut steps, mut retractions) = (0, 0, 0);
        let res = run_chase_controlled(
            &mut vocab,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Core),
            None,
            |event| {
                match event {
                    ChaseEvent::RoundStarted { .. } => rounds += 1,
                    ChaseEvent::StepApplied { .. } => steps += 1,
                    ChaseEvent::CoreRetracted { before, after, .. } => {
                        assert!(after < before);
                        retractions += 1;
                    }
                    ChaseEvent::Degraded { .. } => unreachable!("no memory ceiling set"),
                }
                std::ops::ControlFlow::Continue(())
            },
        );
        assert!(res.outcome.terminated());
        assert_eq!(rounds, res.stats.rounds);
        assert_eq!(steps, res.stats.applications);
        assert_eq!(retractions, res.stats.retractions);
    }

    /// An `n × n` unlabeled grid over distinct variables: a core whose
    /// eliminability probes are expensive to refute — the instance that
    /// used to make a single core phase overshoot every budget.
    fn grid_facts(n: u32) -> AtomSet {
        let idx = |i: u32, j: u32| v(i * n + j);
        let mut atoms = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if j + 1 < n {
                    atoms.push(atom(0, &[idx(i, j), idx(i, j + 1)]));
                }
                if i + 1 < n {
                    atoms.push(atom(1, &[idx(i, j), idx(i + 1, j)]));
                }
            }
        }
        atoms.into_iter().collect()
    }

    #[test]
    fn core_step_stops_within_tolerance_of_max_wall() {
        // Un-budgeted, coring this grid takes tens of seconds (it is a
        // core, so every probe must exhaust its search space). The
        // deadline must now cut *inside* the phase, not after it.
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(16 * 16 + 1));
        let facts = grid_facts(16);
        let max_wall = Duration::from_millis(150);
        let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_wall(max_wall);
        let t = Instant::now();
        let res = run_chase(&mut vocab, &facts, &RuleSet::default(), &cfg);
        let elapsed = t.elapsed();
        assert_eq!(res.outcome, ChaseOutcome::WallBudgetExhausted);
        assert!(
            res.stats.core_truncations >= 1,
            "the budget must have cut a core phase: {:?}",
            res.stats
        );
        assert!(
            elapsed < Duration::from_millis(2_500),
            "core step overshot max_wall={max_wall:?} to {elapsed:?}"
        );
    }

    #[test]
    fn cancel_token_cuts_a_running_core_step() {
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(16 * 16 + 1));
        let facts = grid_facts(16);
        let token = CancelToken::new();
        let t2 = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            t2.cancel();
        });
        let t = Instant::now();
        let res = run_chase_controlled(
            &mut vocab,
            &facts,
            &RuleSet::default(),
            &ChaseConfig::variant(ChaseVariant::Core),
            Some(&token),
            |_| std::ops::ControlFlow::Continue(()),
        );
        let elapsed = t.elapsed();
        canceller.join().unwrap();
        assert_eq!(res.outcome, ChaseOutcome::Cancelled);
        assert!(
            elapsed < Duration::from_millis(2_500),
            "cancel mid-core took {elapsed:?}"
        );
    }

    #[test]
    fn resuming_from_final_instance_matches_uninterrupted_run() {
        // Budget-split determinism for the satisfaction-based variants:
        // chase(5 apps) then chase-from-instance equals one chase(∞) —
        // the engine-level law behind service checkpoints.
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        // Terminating KB: transitive closure of a 5-chain.
        let rules_t: RuleSet = [Rule::new(
            "trans",
            set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]),
            set(&[atom(0, &[v(0), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[
            atom(0, &[v(10), v(11)]),
            atom(0, &[v(11), v(12)]),
            atom(0, &[v(12), v(13)]),
            atom(0, &[v(13), v(14)]),
        ]);
        let full = run_chase(
            &mut vocab.clone(),
            &facts,
            &rules_t,
            &ChaseConfig::default(),
        );
        assert!(full.outcome.terminated());
        let cfg5 = ChaseConfig::default().with_max_applications(5);
        let part = run_chase(&mut vocab, &facts, &rules_t, &cfg5);
        assert_eq!(part.outcome, ChaseOutcome::ApplicationBudgetExhausted);
        assert!(part.outcome.resumable());
        let resumed = run_chase(
            &mut vocab,
            &part.final_instance,
            &rules_t,
            &ChaseConfig::default(),
        );
        assert!(resumed.outcome.terminated());
        assert_eq!(resumed.final_instance, full.final_instance);
    }
}

#[cfg(test)]
mod skolem_chase_tests {
    use super::*;
    use crate::chase::test_helpers::*;
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::{PredId, VarId};

    /// Restart safety: two independent semi-oblivious runs on the same KB
    /// produce literally identical instances (not merely isomorphic).
    #[test]
    fn semi_oblivious_runs_are_bitwise_reproducible() {
        let rules: RuleSet = [
            Rule::new(
                "mk",
                set(&[atom(0, &[v(0), v(1)])]),
                set(&[atom(1, &[v(1), v(2)])]),
            )
            .unwrap(),
            Rule::new(
                "back",
                set(&[atom(1, &[v(0), v(1)])]),
                set(&[atom(0, &[v(1), v(0)])]),
            )
            .unwrap(),
        ]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(12), v(11)])]);
        let run = || {
            let mut vocab = Vocabulary::new();
            vocab.ensure_var(VarId::from_raw(50));
            run_chase(
                &mut vocab,
                &facts,
                &rules,
                &ChaseConfig::variant(ChaseVariant::SemiOblivious).with_max_applications(20),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_instance, b.final_instance);
        let strip = |s: ChaseStats| ChaseStats {
            wall_us: 0,
            match_time_us: 0,
            ..s
        };
        assert_eq!(strip(a.stats), strip(b.stats));
    }

    /// p(X) → ∃Z. e(X, Z) followed by a datalog projection of `e`.
    fn two_strata_rules() -> RuleSet {
        [
            Rule::new(
                "mk",
                set(&[atom(0, &[v(0)])]),
                set(&[atom(1, &[v(0), v(1)])]),
            )
            .unwrap(),
            Rule::new(
                "proj",
                set(&[atom(1, &[v(0), v(1)])]),
                set(&[atom(2, &[v(1)])]),
            )
            .unwrap(),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn stratified_schedule_matches_unstratified_result() {
        let rules = two_strata_rules();
        let facts = set(&[atom(0, &[v(10)]), atom(0, &[v(11)])]);
        let unstrat = {
            let mut vocab = vocab();
            run_chase(&mut vocab, &facts, &rules, &ChaseConfig::default())
        };
        let strat = {
            let mut vocab = vocab();
            let cfg = ChaseConfig::default().with_strata(vec![vec![0], vec![1]]);
            run_chase(&mut vocab, &facts, &rules, &cfg)
        };
        assert!(unstrat.outcome.terminated());
        assert!(strat.outcome.terminated());
        assert_eq!(strat.final_instance.len(), unstrat.final_instance.len());
        assert!(crate::trigger::is_model_of_rules(
            &rules,
            &strat.final_instance
        ));
    }

    #[test]
    fn stratified_schedule_saturates_each_stratum_in_order() {
        // Schedule the projection rule FIRST: the stratum saturates
        // immediately (no `e`-facts yet), then the existential stratum
        // runs — but its output is never projected, because stratum 0
        // is already closed. The final instance is a model of stratum 1
        // but deliberately not of the full ruleset: strata really do
        // run to saturation in order, not interleaved.
        let rules = two_strata_rules();
        let facts = set(&[atom(0, &[v(10)])]);
        let mut vocab = vocab();
        let cfg = ChaseConfig::default().with_strata(vec![vec![1], vec![0]]);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert!(res.outcome.terminated());
        assert!(!crate::trigger::is_model_of_rules(
            &rules,
            &res.final_instance
        ));
        assert_eq!(
            res.final_instance
                .iter()
                .filter(|a| a.pred() == PredId::from_raw(2))
                .count(),
            0,
            "projection stratum closed before e-facts existed"
        );
    }

    #[test]
    fn search_budget_cancel_flag_interrupts_chase() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // r(X, Y) → ∃Z. r(Y, Z): would diverge without the flag.
        let rules: RuleSet = [Rule::new(
            "chain",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(0, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let flag = Arc::new(AtomicBool::new(true));
        flag.store(true, Ordering::SeqCst);
        let mut vocab = vocab();
        let cfg = ChaseConfig::variant(ChaseVariant::Oblivious)
            .with_search_budget(chase_homomorphism::SearchBudget::unlimited().with_cancel(flag));
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        assert_eq!(res.outcome, ChaseOutcome::Cancelled);
    }
}
