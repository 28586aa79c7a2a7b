//! Derivations (Definition 1), trace maps (Definition 2) and fairness
//! checks (Definition 3).
//!
//! Every element satisfies `F_i = σ_i(α(F_{i-1}, tr_i))`, so a derivation
//! is fully determined by `F`, `σ_0` and the log of `(tr_i, π_safe, σ_i)`.
//! That log is what [`Derivation`] stores, plus the last instance; the
//! other instances are recomputed by [`Derivation::replay`], which walks
//! one instance through the log.

use std::ops::ControlFlow;

use chase_atoms::{Atom, AtomSet, Substitution};

use crate::rule::RuleSet;
use crate::trigger::{all_triggers, apply_trigger, Trigger};

/// `F_0 = σ_0(F)`. An empty `σ_0` (every variant but the core chase)
/// copies `F` instead of rebuilding it and its indexes atom by atom.
pub(crate) fn first_instance(sigma0: &Substitution, facts: &AtomSet) -> AtomSet {
    if sigma0.is_empty() {
        facts.clone()
    } else {
        sigma0.apply_set(facts)
    }
}

/// One logged step `i ≥ 1` of a derivation: `(tr_i, π_safe, σ_i)`.
#[derive(Clone, Debug)]
pub struct DerivationStep {
    /// The trigger `tr_i` applied at this step.
    pub trigger: Trigger,
    /// The safe substitution used by the application (`π` on the frontier
    /// plus fresh nulls for existentials).
    pub pi_safe: Substitution,
    /// The simplification `σ_i` — a retraction of
    /// `A_i = α(F_{i-1}, tr_i)` with `F_i = σ_i(A_i)`.
    pub simplification: Substitution,
}

/// A recorded (finite prefix of a) derivation
/// `D = ((tr_i, σ_i, F_i))_{i}` from a knowledge base `(F, Σ)`.
#[derive(Clone, Debug)]
pub struct Derivation {
    pub(crate) rules: RuleSet,
    pub(crate) initial: AtomSet,
    pub(crate) sigma0: Substitution,
    pub(crate) steps: Vec<DerivationStep>,
    /// `F_k`, which the chase runner keeps equal to the replayed log.
    pub(crate) last: AtomSet,
}

/// One element of a replayed derivation (see [`Derivation::replay`]).
#[derive(Copy, Clone, Debug)]
pub struct DerivationElement<'a> {
    /// The element's index `i`.
    pub index: usize,
    /// The pre-simplification instance `A_i = α(F_{i-1}, tr_i)`; for
    /// `i = 0`, the original facts `F`.
    pub pre: &'a AtomSet,
    /// The atoms of `A_i` that `F_{i-1}` lacked (empty for `i = 0`).
    pub added: &'a [Atom],
    /// The instance `F_i = σ_i(A_i)`.
    pub instance: &'a AtomSet,
}

impl Derivation {
    /// Starts a derivation: records step 0 with `F_0 = σ_0(F)`.
    pub fn start(rules: RuleSet, initial: AtomSet, sigma0: Substitution) -> Self {
        Derivation {
            rules,
            last: first_instance(&sigma0, &initial),
            initial,
            sigma0,
            steps: Vec::new(),
        }
    }

    /// Appends step `i`: `F_i = σ(α(F_{i-1}, tr))`.
    pub fn push_step(&mut self, trigger: Trigger, pi_safe: Substitution, sigma: Substitution) {
        apply_trigger(&self.rules, &mut self.last, &trigger, &pi_safe);
        self.last.apply_in_place(&sigma);
        self.steps.push(DerivationStep {
            trigger,
            pi_safe,
            simplification: sigma,
        });
    }

    /// The rule set `Σ`.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The original fact set `F` (before `σ_0`).
    pub fn initial(&self) -> &AtomSet {
        &self.initial
    }

    /// Number of recorded elements (including step 0), i.e. `k + 1` for a
    /// derivation `(F_i)_{0 ≤ i ≤ k}`.
    pub fn len(&self) -> usize {
        self.steps.len() + 1
    }

    /// Always false — a derivation records at least `F_0`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The logged steps `1 … k`: `steps()[i - 1]` is step `i`.
    pub fn steps(&self) -> &[DerivationStep] {
        &self.steps
    }

    /// The simplification `σ_i` (`σ_0` for `i = 0`).
    pub fn simplification(&self, i: usize) -> &Substitution {
        match i {
            0 => &self.sigma0,
            _ => &self.steps[i - 1].simplification,
        }
    }

    /// The final recorded instance `F_k`.
    pub fn last_instance(&self) -> &AtomSet {
        &self.last
    }

    /// Replays the log from `F_0 = σ_0(F)`, handing every element
    /// `0 … k` to `visit` in order. One instance walks through the log:
    /// each step inserts `π_safe(H)` in place, and only a step with a
    /// non-identity `σ_i` builds `F_i` beside `A_i`.
    pub fn replay(&self, mut visit: impl FnMut(DerivationElement<'_>)) {
        self.replay_while(|e| {
            visit(e);
            ControlFlow::Continue(())
        });
    }

    /// [`Derivation::replay`] that stops after the first element for
    /// which `visit` breaks; the later instances are never built.
    pub fn replay_while(&self, mut visit: impl FnMut(DerivationElement<'_>) -> ControlFlow<()>) {
        let mut current = first_instance(&self.sigma0, &self.initial);
        let first = DerivationElement {
            index: 0,
            pre: &self.initial,
            added: &[],
            instance: &current,
        };
        if visit(first).is_break() {
            return;
        }
        for (index, step) in (1..).zip(&self.steps) {
            let added = apply_trigger(&self.rules, &mut current, &step.trigger, &step.pi_safe);
            let sigma = &step.simplification;
            let folded = (!sigma.is_empty()).then(|| sigma.apply_set(&current));
            let flow = visit(DerivationElement {
                index,
                pre: &current,
                added: &added,
                instance: folded.as_ref().unwrap_or(&current),
            });
            if flow.is_break() {
                return;
            }
            if let Some(folded) = folded {
                current = folded;
            }
        }
    }

    /// The trace map `σ_i^j = σ_j ∘ … ∘ σ_{i+1}` of Definition 2
    /// (identity when `i = j`).
    pub fn trace(&self, i: usize, j: usize) -> Substitution {
        assert!(i <= j && j < self.len());
        let mut composed = Substitution::new();
        for step in &self.steps[i..j] {
            composed = composed.then(&step.simplification);
        }
        composed
    }

    /// Is the derivation monotonic (`F_{i-1} ⊆ F_i` for all `i`)? As
    /// `σ_i` is a retraction of `A_i ⊇ F_{i-1}`, that holds iff `σ_i`
    /// fixes every term of `F_{i-1}`.
    pub fn is_monotonic(&self) -> bool {
        let mut monotonic = true;
        self.replay(|e| {
            if let Some(next) = self.steps.get(e.index) {
                monotonic &= next.simplification.is_identity_on(e.instance.terms());
            }
        });
        monotonic
    }

    /// Checks the Definition 1 invariants on every recorded step:
    ///
    /// 1. `tr_i` is a trigger for `F_{i-1}` that is *not satisfied* in
    ///    `F_{i-1}`;
    /// 2. `σ_i` is a retraction of `A_i = α(F_{i-1}, tr_i)` (for `i = 0`,
    ///    of `F`);
    /// 3. the replayed `F_k` is the recorded last instance.
    ///
    /// Returns the index of the first violating step, if any.
    pub fn validate(&self) -> Result<(), usize> {
        let mut first_violation = None;
        self.replay(|e| {
            let i = e.index;
            first_violation = first_violation.or_else(|| {
                if !self.simplification(i).is_retraction_of(e.pre) {
                    return Some(i);
                }
                let Some(next) = self.steps.get(i) else {
                    return (*e.instance != self.last).then_some(i);
                };
                let tr = &next.trigger;
                (!tr.is_trigger_for(&self.rules, e.instance)
                    || tr.is_satisfied_in(&self.rules, e.instance))
                .then_some(i + 1)
            });
        });
        first_violation.map_or(Ok(()), Err)
    }

    /// Fairness check on a *terminating* derivation prefix: every trigger
    /// of every `F_i`, forwarded through the trace maps, must be satisfied
    /// in the final instance. Returns the offending `(step, trigger)` if
    /// any.
    ///
    /// For non-terminating prefixes this is only a necessary condition up
    /// to the recorded horizon.
    pub fn check_fair_up_to_horizon(&self) -> Result<(), (usize, Trigger)> {
        let last = self.len() - 1;
        let mut unfair = None;
        self.replay(|e| {
            unfair = unfair.take().or_else(|| {
                let trace = self.trace(e.index, last);
                all_triggers(&self.rules, e.instance)
                    .into_iter()
                    .find(|tr| {
                        !tr.map(&self.rules, &trace)
                            .is_satisfied_in(&self.rules, &self.last)
                    })
                    .map(|tr| (e.index, tr))
            });
        });
        unfair.map_or(Ok(()), Err)
    }

    /// Checks Proposition 1.(1) on the recorded prefix: every `F_i` maps
    /// homomorphically into `model` (so the natural aggregation is
    /// universal). `model` must be a model of the KB for this to be
    /// meaningful.
    pub fn all_instances_map_into(&self, model: &AtomSet) -> bool {
        let mut all = true;
        self.replay(|e| all = all && chase_homomorphism::maps_to(e.instance, model));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use crate::trigger::fresh_pi_safe;
    use chase_atoms::{PredId, Term, VarId, Vocabulary};

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(pr), args.to_vec())
    }

    fn set(atoms: &[Atom]) -> AtomSet {
        atoms.iter().cloned().collect()
    }

    /// r(X, Y) → ∃Z. r(Y, Z) with rule vars 0,1,2; facts r(10, 11).
    fn setup() -> (Vocabulary, RuleSet, AtomSet) {
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
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        (vocab, rules, facts)
    }

    /// Applies the first unsatisfied trigger of the last instance, if any.
    fn extend_once(vocab: &mut Vocabulary, d: &mut Derivation) -> bool {
        let Some(tr) = crate::trigger::unsatisfied_triggers(d.rules(), d.last_instance())
            .into_iter()
            .next()
        else {
            return false;
        };
        let (pi_safe, _) = fresh_pi_safe(vocab, d.rules(), &tr);
        d.push_step(tr, pi_safe, Substitution::new());
        true
    }

    fn instances(d: &Derivation) -> Vec<AtomSet> {
        let mut out = Vec::new();
        d.replay(|e| out.push(e.instance.clone()));
        out
    }

    #[test]
    fn monotonic_derivation_validates() {
        let (mut vocab, rules, facts) = setup();
        let mut d = Derivation::start(rules, facts, Substitution::new());
        for _ in 0..3 {
            assert!(extend_once(&mut vocab, &mut d));
        }
        assert_eq!(d.len(), 4);
        assert!(d.is_monotonic());
        assert_eq!(d.validate(), Ok(()));
        assert!(d.trace(0, 3).is_empty(), "monotonic traces are identity");
    }

    #[test]
    fn replay_walks_every_element() {
        let (mut vocab, rules, facts) = setup();
        let mut d = Derivation::start(rules, facts.clone(), Substitution::new());
        assert!(extend_once(&mut vocab, &mut d));
        assert!(extend_once(&mut vocab, &mut d));
        let mut seen = Vec::new();
        d.replay(|e| {
            seen.push(e.index);
            // With identity simplifications, A_i = F_i, and each step adds
            // exactly the one new chain atom.
            assert_eq!(e.instance.len(), 1 + e.index);
            assert_eq!(e.added.len(), usize::from(e.index > 0));
            if e.index == 0 {
                assert_eq!(e.pre, &facts);
            } else {
                assert_eq!(e.pre, e.instance);
            }
        });
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(instances(&d).last(), Some(d.last_instance()));
    }

    #[test]
    fn simplified_derivation_validates() {
        // s(X,Y) → ∃W. r(Y,W); facts {s(10,11), r(11,12), r(12,12)}.
        // Every trigger is satisfied (r(11,12) witnesses it), so
        // Definition 1 forbids applying it; validate() must catch that.
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(1, &[v(0), v(1)])]),
            set(&[atom(0, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[
            atom(1, &[v(10), v(11)]),
            atom(0, &[v(11), v(12)]),
            atom(0, &[v(12), v(12)]),
        ]);
        let mut d = Derivation::start(rules.clone(), facts.clone(), Substitution::new());
        let tr = crate::trigger::all_triggers(&rules, &facts)
            .into_iter()
            .find(|t| !t.is_satisfied_in(&rules, &facts));
        assert!(tr.is_none());
        let satisfied = crate::trigger::all_triggers(&rules, &facts)
            .into_iter()
            .next()
            .unwrap();
        let (pi_safe, _) = fresh_pi_safe(&mut vocab, &rules, &satisfied);
        d.push_step(satisfied, pi_safe, Substitution::new());
        assert_eq!(d.validate(), Err(1));
    }

    #[test]
    fn folding_step_replays_its_simplification() {
        // s(X,Y) → ∃W. r(Y,W) on {s(10,11), r(12,13)}: A_1 adds r(11, N);
        // σ_1 = {13 ↦ N, 12 ↦ 11} folds r(12,13) onto it, giving
        // F_1 = {s(10,11), r(11,N)}.
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        let rules: RuleSet = [Rule::new(
            "mk",
            set(&[atom(1, &[v(0), v(1)])]),
            set(&[atom(0, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(1, &[v(10), v(11)]), atom(0, &[v(12), v(13)])]);
        let mut d = Derivation::start(rules.clone(), facts.clone(), Substitution::new());
        let tr = crate::trigger::unsatisfied_triggers(&rules, &facts)[0].clone();
        let (pi_safe, fresh) = fresh_pi_safe(&mut vocab, &rules, &tr);
        let sigma = Substitution::from_pairs([
            (VarId::from_raw(12), v(11)),
            (VarId::from_raw(13), Term::Var(fresh[0])),
        ]);
        d.push_step(tr, pi_safe, sigma);
        let f1 = set(&[
            atom(1, &[v(10), v(11)]),
            atom(0, &[v(11), Term::Var(fresh[0])]),
        ]);
        assert_eq!(d.last_instance(), &f1);
        assert_eq!(d.validate(), Ok(()));
        assert!(!d.is_monotonic());
        d.replay(|e| {
            if e.index == 1 {
                assert_eq!(e.pre.len(), 3);
                assert_eq!(e.instance, &f1);
            }
        });
    }

    #[test]
    fn fairness_on_terminated_chase() {
        // Datalog transitivity on a 3-path terminates; afterwards every
        // trigger is satisfied.
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(50));
        let rules: RuleSet = [Rule::new(
            "trans",
            set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]),
            set(&[atom(0, &[v(0), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(11), v(12)])]);
        let mut d = Derivation::start(rules, facts, Substitution::new());
        while extend_once(&mut vocab, &mut d) {}
        assert_eq!(d.validate(), Ok(()));
        assert!(d.check_fair_up_to_horizon().is_ok());
        assert!(crate::trigger::is_model_of_rules(
            d.rules(),
            d.last_instance()
        ));
        assert!(d.all_instances_map_into(d.last_instance()));
    }
}
