//! The budgeted, fair chase runner for the oblivious, semi-oblivious,
//! restricted and core chase variants.
//!
//! ## Fairness
//!
//! A [`ChaseRun`] works in **rounds**: at the start of a round it snapshots
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
//!   Each frontier image fires once, so the fresh nulls of its one
//!   application are its Skolem terms `f_{R,z}(x̄)`: every variant takes
//!   `π_safe` from the same fresh-null supply.
//! * **Restricted** (standard) — applies only triggers not satisfied in
//!   the current instance; simplifications are the identity.
//! * **Core** — restricted, plus a retraction to the core after every
//!   `core_interval` applications (Definition 1's simplifications).

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use chase_atoms::{Atom, AtomSet, Substitution, Term, VarId, Vocabulary};
use chase_homomorphism::{
    core_of_budgeted, fold_variables, incremental_core, MatchStats, SearchBudget,
};

use crate::control::{CancelToken, ChaseEvent, FaultPlan};
use crate::derivation::{first_instance, Derivation, DerivationStep};
use crate::prng::SplitMix64;
use crate::rule::RuleSet;
use crate::trigger::{apply_trigger, fresh_pi_safe, triggers_using_delta, MatchTally, Trigger};

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
    /// The observer callback requested a stop, or the driver finished
    /// the run before its outcome.
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
    /// Fresh nulls minted by trigger applications in this slice: one per
    /// existential variable of every applied rule, in every variant.
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

    /// Counts one match phase: its searches and trials, and the
    /// wall-clock time it took.
    pub fn tally_match(&mut self, tally: MatchTally, elapsed: Duration) {
        self.match_time_us += elapsed.as_micros() as u64;
        self.match_searches += tally.searches;
        self.match_trials += tally.trials;
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

/// Runs the chase from `(facts, rules)` under `cfg`, minting fresh nulls
/// from `vocab`.
pub fn run_chase(
    vocab: &mut Vocabulary,
    facts: &AtomSet,
    rules: &RuleSet,
    cfg: &ChaseConfig,
) -> ChaseResult {
    let no_observer = |_: ChaseEvent<'_>| ControlFlow::Continue(());
    run_chase_controlled(vocab, facts, rules, cfg, None, no_observer)
}

/// Steps one [`ChaseRun`] to its outcome, handing every [`ChaseEvent`]
/// to `observer` (see [`ChaseRun::step`]); `cancel` is polled between
/// applications and inside retraction searches. The engine entry point
/// of the `treechase-service` job runner.
pub fn run_chase_controlled(
    vocab: &mut Vocabulary,
    facts: &AtomSet,
    rules: &RuleSet,
    cfg: &ChaseConfig,
    cancel: Option<&CancelToken>,
    mut observer: impl FnMut(ChaseEvent<'_>) -> ControlFlow<()>,
) -> ChaseResult {
    let mut run = ChaseRun::new(vocab, facts, rules, cfg, cancel);
    while run.step(&mut observer).is_none() {}
    run.finish()
}

/// The retraction searches' node limit once the soft memory ceiling is
/// crossed: a truncated phase is a sound non-core retract.
const DEGRADED_NODE_LIMIT: usize = 50_000;

/// What an oblivious variant remembers an applied trigger by.
type TriggerKey = (usize, Vec<(VarId, Term)>);

/// A chase run as a state machine: [`ChaseRun::step`] advances it to the
/// next rule application or to its outcome, and the driver decides what
/// happens between steps (DESIGN §3).
pub struct ChaseRun<'a> {
    vocab: &'a mut Vocabulary,
    facts: &'a AtomSet,
    rules: &'a RuleSet,
    cfg: &'a ChaseConfig,
    started: Instant,
    // `max_wall` less what earlier slices of this derivation already
    // spent: a resumed job continues the old clock, not a fresh one.
    deadline: Option<Instant>,
    // The external budget plus the cancel token, polled between steps.
    interrupt: SearchBudget,
    // `interrupt` plus the wall deadline, polled inside every retraction
    // search: a single core phase cannot overshoot it or ignore a cancel.
    budget: SearchBudget,
    degraded: bool,
    rng: SplitMix64,
    stats: ChaseStats,
    // Whether the last core computation (σ₀, then each phase) ended at
    // a core: only then may the next phase certify its old variables.
    at_core: bool,
    // The one live instance: applications insert into it, simplifications
    // retract it in place (or replace it by a core phase's retract); the
    // derivation only logs what happened to it.
    instance: AtomSet,
    // The derivation's log past F: σ₀ and the steps. `finish` assembles
    // the `Derivation`, so a driver that never calls it copies neither
    // F nor the rules.
    sigma0: Substitution,
    steps: Vec<DerivationStep>,
    // Semi-naive discovery for every variant: a round matches only the
    // triggers that use an atom inserted since the last discovery. Every
    // σᵢ is a retraction (Defs. 1–2), so this holds for frugal and core
    // too (DESIGN §7): (1) satisfaction survives a retraction; (2) a
    // retracted atom's null never reappears, so a body present at two
    // discoveries was present throughout and its trigger was applied or
    // found satisfied; (3) so every active trigger uses a new atom. The
    // delta starts as the first instance (σ₀(F) for core) and collects
    // the atoms whose `insert` succeeded. Debug builds check every
    // frugal and core round against a full re-scan.
    delta: Vec<Atom>,
    // The round's ordered snapshot, consumed front to back; what is left
    // of it counts towards the memory units.
    queue: std::vec::IntoIter<Trigger>,
    // Simplifications performed during this round, composed: each queued
    // trigger is forwarded through them before its re-check.
    forward: Substitution,
    // Dedup memory for the oblivious variants (monotonic, so keys stay
    // valid across the whole run).
    applied_keys: HashSet<TriggerKey>,
    // Stratified schedule: only rules of the active stratum may fire.
    strata: Option<Vec<HashSet<usize>>>,
    stratum: usize,
    since_core: usize,
    // The atoms inserted since the last core phase: between phases the
    // instance only grows, so the last phase's result is the rest.
    added_since_core: Vec<Atom>,
    outcome: Option<ChaseOutcome>,
}

impl<'a> ChaseRun<'a> {
    /// Starts a run from `(facts, rules)` under `cfg`, minting fresh
    /// nulls from `vocab`. The core variant computes σ₀ here.
    pub fn new(
        vocab: &'a mut Vocabulary,
        facts: &'a AtomSet,
        rules: &'a RuleSet,
        cfg: &'a ChaseConfig,
        cancel: Option<&'a CancelToken>,
    ) -> Self {
        // Make sure the supply is ahead of every variable already mentioned.
        for v in facts.vars() {
            vocab.ensure_var(v);
        }
        for (_, rule) in rules.iter() {
            for &v in rule.universal_vars().iter().chain(rule.existential_vars()) {
                vocab.ensure_var(v);
            }
        }
        let started = Instant::now();
        let deadline = cfg
            .max_wall
            .map(|limit| started + limit.saturating_sub(cfg.consumed_wall));
        let mut interrupt = cfg.search_budget.clone();
        if let Some(token) = cancel {
            interrupt = interrupt.with_cancel(token.flag());
        }
        let mut budget = interrupt.clone();
        if let Some(d) = deadline {
            budget.deadline = Some(budget.deadline.map_or(d, |b| b.min(d)));
        }
        let mut stats = ChaseStats {
            peak_atoms: facts.len(),
            ..ChaseStats::default()
        };
        let (mut sigma0, mut at_core) = (Substitution::new(), false);
        if cfg.variant == ChaseVariant::Core {
            let phase = Instant::now();
            let (res, ms) = core_of_budgeted(facts, &budget);
            stats.tally_core_phase(ms, phase.elapsed());
            (sigma0, at_core) = (res.retraction, !ms.truncated);
        }
        let instance = first_instance(&sigma0, facts);
        // Simplifications only remove postings, so after this the peak is
        // always reached by an application.
        stats.peak_index_postings = instance.index_postings();
        ChaseRun {
            delta: instance.iter().cloned().collect(),
            sigma0,
            steps: Vec::new(),
            instance,
            vocab,
            facts,
            rules,
            cfg,
            started,
            deadline,
            interrupt,
            budget,
            degraded: false,
            rng: SplitMix64::new(match cfg.scheduler {
                SchedulerKind::Random(seed) => seed,
                _ => 0,
            }),
            stats,
            at_core,
            queue: Vec::new().into_iter(),
            forward: Substitution::new(),
            applied_keys: HashSet::new(),
            strata: cfg
                .strata
                .as_ref()
                .map(|parts| parts.iter().map(|s| s.iter().copied().collect()).collect()),
            stratum: 0,
            since_core: 0,
            added_since_core: Vec::new(),
            outcome: None,
        }
    }

    /// The live instance `F_i`.
    pub fn instance(&self) -> &AtomSet {
        &self.instance
    }

    /// The running counters.
    pub fn stats(&self) -> &ChaseStats {
        &self.stats
    }

    /// The last rule application: its trigger, `π_safe` and
    /// simplification (`None` before the first).
    pub fn last_step(&self) -> Option<&DerivationStep> {
        self.steps.last()
    }

    /// Runs to the next rule application (`None`) or to the run's
    /// outcome, which every later call returns again; the events on the
    /// way go to `observer`. A `Break` stops the run with
    /// [`ChaseOutcome::Stopped`] at the end of this step, unless the step
    /// ended it otherwise.
    pub fn step(
        &mut self,
        mut observer: impl FnMut(ChaseEvent<'_>) -> ControlFlow<()>,
    ) -> Option<ChaseOutcome> {
        if self.outcome.is_none() {
            let mut stop = false;
            let outcome = self.advance(&mut |event| stop |= observer(event).is_break());
            self.outcome = outcome.or(stop.then_some(ChaseOutcome::Stopped));
        }
        self.outcome
    }

    /// Ends the run; one finished before its outcome counts as
    /// [`ChaseOutcome::Stopped`].
    pub fn finish(mut self) -> ChaseResult {
        self.stats.wall_us = self.started.elapsed().as_micros() as u64;
        ChaseResult {
            derivation: Derivation {
                rules: self.rules.clone(),
                initial: self.facts.clone(),
                sigma0: self.sigma0,
                steps: self.steps,
                last: self.instance.clone(),
            },
            final_instance: self.instance,
            outcome: self.outcome.unwrap_or(ChaseOutcome::Stopped),
            stats: self.stats,
        }
    }

    fn advance(&mut self, emit: &mut dyn FnMut(ChaseEvent<'_>)) -> Option<ChaseOutcome> {
        let rules = self.rules;
        loop {
            if self.interrupt.interrupted() {
                return Some(ChaseOutcome::Cancelled);
            }
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Some(ChaseOutcome::WallBudgetExhausted);
            }
            let Some(tr) = self.queue.next() else {
                // Snapshot the next round's pending triggers.
                let match_phase = Instant::now();
                let mut tally = MatchTally::default();
                let mut snapshot =
                    triggers_using_delta(rules, &self.instance, &self.delta, &mut tally);
                self.delta.clear();
                snapshot.retain(|t| self.pending(t, &mut tally));
                self.stats.tally_match(tally, match_phase.elapsed());
                #[cfg(debug_assertions)]
                if matches!(self.cfg.variant, ChaseVariant::Frugal | ChaseVariant::Core) {
                    let mut rescan = crate::trigger::all_triggers(rules, &self.instance);
                    rescan.retain(|t| self.pending(t, &mut MatchTally::default()));
                    assert_eq!(
                        snapshot, rescan,
                        "semi-naive discovery must equal a re-scan"
                    );
                }
                if snapshot.is_empty() {
                    if self.stratum + 1 >= self.strata.as_ref().map_or(0, Vec::len) {
                        return Some(ChaseOutcome::Terminated);
                    }
                    // The next stratum's rules have never matched, so
                    // every atom is "new" to them.
                    self.stratum += 1;
                    self.delta = self.instance.iter().cloned().collect();
                    continue;
                }
                self.order(&mut snapshot);
                self.stats.rounds += 1;
                self.stats.peak_trigger_queue = self.stats.peak_trigger_queue.max(snapshot.len());
                emit(ChaseEvent::RoundStarted {
                    round: self.stats.rounds,
                    pending: snapshot.len(),
                });
                self.queue = snapshot.into_iter();
                self.forward = Substitution::new();
                continue;
            };
            if self.stats.applications >= self.cfg.max_applications {
                return Some(ChaseOutcome::ApplicationBudgetExhausted);
            }
            // Def. 2: the round's simplifications are homomorphisms, so
            // the forwarded trigger is still a trigger, and the stratum
            // is the snapshot's: only the variant's own test remains.
            let tr = if self.forward.is_empty() {
                tr
            } else {
                tr.map(rules, &self.forward)
            };
            debug_assert!(tr.is_trigger_for(rules, &self.instance));
            let match_phase = Instant::now();
            let mut tally = MatchTally::default();
            // An oblivious variant marks the key applied as it decides:
            // an active trigger is applied right away.
            let active = match self.dedup_key(&tr) {
                Some(key) => self.applied_keys.insert(key),
                None => !tr.is_satisfied_in_counted(rules, &self.instance, &mut tally),
            };
            self.stats.tally_match(tally, match_phase.elapsed());
            if active {
                return self.apply(tr, emit);
            }
        }
    }

    /// Orders a round's snapshot by the scheduler.
    fn order(&mut self, snapshot: &mut [Trigger]) {
        let rules = self.rules;
        match self.cfg.scheduler {
            SchedulerKind::Deterministic => {}
            SchedulerKind::Random(_) => self.rng.shuffle(snapshot),
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

    /// Is `tr` due: its rule is in the active stratum, and the variant
    /// still needs it — an oblivious variant has not applied its key, the
    /// others find it unsatisfied.
    fn pending(&self, tr: &Trigger, tally: &mut MatchTally) -> bool {
        self.strata
            .as_ref()
            .is_none_or(|sets| sets.get(self.stratum).is_some_and(|s| s.contains(&tr.rule)))
            && match self.dedup_key(tr) {
                Some(key) => !self.applied_keys.contains(&key),
                None => !tr.is_satisfied_in_counted(self.rules, &self.instance, tally),
            }
    }

    /// The key an oblivious variant remembers `tr` by; `None` for the
    /// variants that check satisfaction instead.
    fn dedup_key(&self, tr: &Trigger) -> Option<TriggerKey> {
        match self.cfg.variant {
            ChaseVariant::Oblivious => Some(tr.universal_key(self.rules)),
            ChaseVariant::SemiOblivious => Some(tr.frontier_key(self.rules)),
            ChaseVariant::Restricted | ChaseVariant::Frugal | ChaseVariant::Core => None,
        }
    }

    /// Applies the active trigger `tr`, simplifies, logs the step and
    /// reports it; `Some` when the application ends the run.
    fn apply(&mut self, tr: Trigger, emit: &mut dyn FnMut(ChaseEvent<'_>)) -> Option<ChaseOutcome> {
        let (rules, cfg) = (self.rules, self.cfg);
        let (pi_safe, fresh) = fresh_pi_safe(self.vocab, rules, &tr);
        let added = apply_trigger(rules, &mut self.instance, &tr, &pi_safe);
        self.stats.applications += 1;
        self.since_core += 1;
        if let Some(n) = cfg.fault.as_ref().and_then(FaultPlan::on_application) {
            panic!("injected fault: crash at application #{n}");
        }
        if let Some(ms) = cfg.fault.as_ref().and_then(FaultPlan::on_slow) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let stats = &mut self.stats;
        stats.nulls_minted += fresh.len();
        stats.peak_atoms = stats.peak_atoms.max(self.instance.len());
        let postings = self.instance.index_postings();
        stats.peak_index_postings = stats.peak_index_postings.max(postings);

        // Abstract memory units: instance atoms at their pre-retraction
        // peak, nulls minted this slice and the triggers still queued.
        // Deterministic, so ceilings are testable without real pressure.
        let mem_units = self.instance.len() + stats.nulls_minted + self.queue.len();
        stats.peak_mem_units = stats.peak_mem_units.max(mem_units);
        let mem_fault = cfg.fault.as_ref().and_then(FaultPlan::on_memory_pressure);
        let mem_hard_hit = mem_fault.is_some() || cfg.mem_hard.is_some_and(|h| mem_units > h);
        if !mem_hard_hit && !self.degraded && cfg.mem_soft.is_some_and(|s| mem_units > s) {
            // Degrade: force a core phase on this very application (core
            // variant) and shrink the search budget for later phases.
            self.degraded = true;
            self.since_core = cfg.core_interval;
            self.budget = self.budget.clone().tighten_node_limit(DEGRADED_NODE_LIMIT);
            emit(ChaseEvent::Degraded {
                mem_units,
                soft_limit: cfg.mem_soft.unwrap_or(0),
                stats: &self.stats,
            });
        }
        let produced_len = self.instance.len();
        if cfg.variant == ChaseVariant::Core {
            self.added_since_core.extend(added.iter().cloned());
        }
        self.delta.extend(added);
        let (sigma, phase_stats) = self.simplify(&fresh);
        self.forward = self.forward.then(&sigma);
        self.steps.push(DerivationStep {
            trigger: tr,
            pi_safe,
            simplification: sigma,
        });
        if self.instance.len() > cfg.max_atoms {
            return Some(ChaseOutcome::AtomBudgetExhausted);
        }
        if mem_hard_hit {
            // The application is recorded (it happened), then the run
            // suspends cleanly: the caller checkpoints the instance
            // exactly as for a budget stop.
            return Some(ChaseOutcome::Suspended(SuspendReason::MemoryCeiling));
        }
        if self.instance.len() < produced_len {
            emit(ChaseEvent::CoreRetracted {
                before: produced_len,
                after: self.instance.len(),
                match_stats: phase_stats,
                stats: &self.stats,
            });
        }
        self.stats.wall_us = self.started.elapsed().as_micros() as u64;
        emit(ChaseEvent::StepApplied {
            instance: &self.instance,
            vocab: &*self.vocab,
            stats: &self.stats,
        });
        None
    }

    /// The simplification σᵢ: a core phase every `core_interval`
    /// applications (core), a fold of the fresh nulls (frugal), or none.
    fn simplify(&mut self, fresh: &[VarId]) -> (Substitution, MatchStats) {
        let phase = Instant::now();
        let (sigma, ms) = match self.cfg.variant {
            ChaseVariant::Core if self.since_core >= self.cfg.core_interval => {
                self.since_core = 0;
                if let Some(n) = self.cfg.fault.as_ref().and_then(FaultPlan::on_core_phase) {
                    panic!("injected fault: crash in core phase #{n}");
                }
                let (sigma, ms) = incremental_core(
                    &mut self.instance,
                    &self.added_since_core,
                    &self.budget,
                    self.at_core,
                );
                // A truncated phase (a degraded run's node limit) leaves
                // a sound retract that may not be a core.
                self.at_core = !ms.truncated;
                self.added_since_core.clear();
                (sigma, ms)
            }
            // Fold only the fresh nulls; everything older stays fixed.
            ChaseVariant::Frugal => fold_variables(
                &mut self.instance,
                fresh.iter().copied(),
                Some(fresh),
                &self.budget,
            ),
            _ => return (Substitution::new(), MatchStats::default()),
        };
        self.stats.tally_core_phase(ms, phase.elapsed());
        if !sigma.is_empty() {
            self.stats.retractions += 1;
        }
        (sigma, ms)
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
        // A `Break` on `Degraded` takes effect once the crossing step is
        // done — for the core variant, after its forced core phase.
        for variant in [ChaseVariant::Restricted, ChaseVariant::Core] {
            let rules = chain();
            let facts = set(&[atom(0, &[v(10), v(11)])]);
            let mut vocab = vocab();
            let cfg = ChaseConfig::variant(variant)
                .with_max_applications(12)
                .with_mem_soft(5);
            let res = run_chase_controlled(&mut vocab, &facts, &rules, &cfg, None, |ev| {
                if matches!(ev, ChaseEvent::Degraded { .. }) {
                    std::ops::ControlFlow::Break(())
                } else {
                    std::ops::ControlFlow::Continue(())
                }
            });
            assert_eq!(res.outcome, ChaseOutcome::Stopped, "{variant:?}");
            let d = &res.derivation;
            assert_eq!(d.len(), res.stats.applications + 1, "{variant:?}");
            assert_eq!(d.validate(), Ok(()), "{variant:?}");
            let mut replayed = None;
            d.replay(|e| replayed = Some(e.instance.clone()));
            assert_eq!(replayed.as_ref(), Some(&res.final_instance), "{variant:?}");
        }
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

    /// r(X, Y) → ∃Z. s(Y, Z) and s(X, Y) → r(Y, X): a frontier image
    /// shared by two `r`-atoms, and a null-fed loop.
    fn mk_back_rules() -> RuleSet {
        [
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
        .collect()
    }

    fn semi_oblivious_run(rules: &RuleSet) -> ChaseResult {
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(12), v(11)])]);
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        run_chase(
            &mut vocab,
            &facts,
            rules,
            &ChaseConfig::variant(ChaseVariant::SemiOblivious).with_max_applications(20),
        )
    }

    /// Restart safety: two independent semi-oblivious runs on the same KB
    /// produce literally identical instances (not merely isomorphic).
    #[test]
    fn semi_oblivious_runs_are_bitwise_reproducible() {
        let rules = mk_back_rules();
        let run = || semi_oblivious_run(&rules);
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

    /// Each frontier image fires once, so every existential binding of
    /// every step's `π_safe` is a null the run minted.
    #[test]
    fn semi_oblivious_counts_every_minted_null() {
        let rules = mk_back_rules();
        let res = semi_oblivious_run(&rules);
        let bindings: usize = res
            .derivation
            .steps
            .iter()
            .map(|step| rules.get(step.trigger.rule).existential_vars().len())
            .sum();
        assert!(bindings > 0);
        assert_eq!(res.stats.nulls_minted, bindings);
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
            let cfg = ChaseConfig {
                strata: Some(vec![vec![0], vec![1]]),
                ..ChaseConfig::default()
            };
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
        let cfg = ChaseConfig {
            strata: Some(vec![vec![1], vec![0]]),
            ..ChaseConfig::default()
        };
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
