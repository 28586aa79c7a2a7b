//! Triggers and trigger application (`α(I, tr)`).

use std::collections::HashSet;
use std::ops::ControlFlow;

use chase_atoms::{Atom, AtomSet, Substitution, Term, VarId, Vocabulary};
use chase_homomorphism::{for_each_homomorphism, MatchConfig};

use crate::rule::{RuleId, RuleSet};

/// Running totals for the engine's match phase: how many homomorphism
/// searches trigger discovery and satisfaction checking ran, and how many
/// candidate trials (backtracking nodes) they explored. Trial counts are
/// deterministic for a given instance, which makes them the
/// machine-independent counters the match-phase bench gate compares.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchTally {
    /// Homomorphism searches started.
    pub searches: usize,
    /// Candidate trials explored across those searches.
    pub trials: usize,
}

impl MatchTally {
    /// Adds a search's outcome to the tally.
    pub fn absorb(&mut self, outcome: chase_homomorphism::SearchOutcome) {
        self.searches += 1;
        self.trials += outcome.nodes;
    }
}

/// A trigger `tr = (R, π)`: a rule together with a homomorphism of its
/// body into an instance.
///
/// `π` is stored restricted to the rule's universal variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// The rule being triggered.
    pub rule: RuleId,
    /// The body homomorphism, restricted to the rule's universal
    /// variables.
    pub pi: Substitution,
}

impl Trigger {
    /// Creates a trigger, restricting `pi` to the rule's universal
    /// variables.
    pub fn new(rules: &RuleSet, rule: RuleId, pi: &Substitution) -> Self {
        Trigger {
            rule,
            pi: pi.restrict(rules.get(rule).universal_vars()),
        }
    }

    /// Is this a trigger *for* `instance`, i.e. does `π` map the rule body
    /// into it?
    pub fn is_trigger_for(&self, rules: &RuleSet, instance: &AtomSet) -> bool {
        self.pi
            .is_homomorphism(rules.get(self.rule).body(), instance)
    }

    /// Is the trigger *satisfied* in `instance`: can `π` be extended to a
    /// homomorphism from `B ∪ H` to `instance`?
    pub fn is_satisfied_in(&self, rules: &RuleSet, instance: &AtomSet) -> bool {
        self.is_satisfied_in_counted(rules, instance, &mut MatchTally::default())
    }

    /// [`Trigger::is_satisfied_in`], recording the search in `tally`.
    pub fn is_satisfied_in_counted(
        &self,
        rules: &RuleSet,
        instance: &AtomSet,
        tally: &mut MatchTally,
    ) -> bool {
        let rule = rules.get(self.rule);
        if !self.is_trigger_for(rules, instance) {
            return false;
        }
        // Seed with π unrestricted: bindings for universal variables
        // outside the head are inert (they never conflict with the
        // head's frontier or existential variables), and only existence
        // matters here.
        let mut found = false;
        let mcfg = MatchConfig::default();
        let outcome = for_each_homomorphism(rule.head(), instance, &self.pi, &mcfg, |_| {
            found = true;
            ControlFlow::Break(())
        });
        tally.absorb(outcome);
        found
    }

    /// Applies a substitution to the trigger: `σ(tr) = (R, σ ∘ π)`,
    /// restricted back to the rule's universal variables.
    pub fn map(&self, rules: &RuleSet, sigma: &Substitution) -> Trigger {
        Trigger {
            rule: self.rule,
            pi: self
                .pi
                .then(sigma)
                .restrict(rules.get(self.rule).universal_vars()),
        }
    }

    /// A canonical key identifying the trigger up to its frontier image —
    /// the deduplication notion of the *semi-oblivious* (skolem) chase.
    pub fn frontier_key(&self, rules: &RuleSet) -> (RuleId, Vec<(VarId, Term)>) {
        let rule = rules.get(self.rule);
        let key = rule
            .frontier_vars()
            .iter()
            .map(|&x| (x, self.pi.apply_term(Term::Var(x))))
            .collect();
        (self.rule, key)
    }

    /// A canonical key identifying the trigger up to its full universal
    /// image — the deduplication notion of the *oblivious* chase.
    pub fn universal_key(&self, rules: &RuleSet) -> (RuleId, Vec<(VarId, Term)>) {
        let rule = rules.get(self.rule);
        let key = rule
            .universal_vars()
            .iter()
            .map(|&x| (x, self.pi.apply_term(Term::Var(x))))
            .collect();
        (self.rule, key)
    }
}

/// The safe substitution of `tr` under fresh-null semantics: `π` on the
/// frontier plus a fresh null from `vocab` for each existential variable
/// of the rule. Also returns those nulls, in the order of the rule's
/// existential variables.
pub fn fresh_pi_safe(
    vocab: &mut Vocabulary,
    rules: &RuleSet,
    tr: &Trigger,
) -> (Substitution, Vec<VarId>) {
    let rule = rules.get(tr.rule);
    let mut pi_safe = tr.pi.restrict(rule.frontier_vars());
    let mut fresh = Vec::new();
    for &z in rule.existential_vars() {
        let null = vocab.fresh_var();
        pi_safe.bind(z, Term::Var(null));
        fresh.push(null);
    }
    (pi_safe, fresh)
}

/// Applies trigger `tr` to `instance` in place under `pi_safe`, turning
/// it into `α(instance, tr) = instance ∪ π_safe(H)`. Returns the head
/// atoms `instance` did not contain yet (in head order) — the
/// application's contribution to the semi-naive delta.
pub fn apply_trigger(
    rules: &RuleSet,
    instance: &mut AtomSet,
    tr: &Trigger,
    pi_safe: &Substitution,
) -> Vec<Atom> {
    let mut added = Vec::new();
    for atom in rules.get(tr.rule).head().iter() {
        let image = pi_safe.apply_atom(atom);
        if instance.insert(image.clone()) {
            added.push(image);
        }
    }
    added
}

/// Enumerates all triggers of `rules` for `instance`, in deterministic
/// order (rule-major, then matcher order).
pub fn all_triggers(rules: &RuleSet, instance: &AtomSet) -> Vec<Trigger> {
    all_triggers_counted(rules, instance, &mut MatchTally::default())
}

/// [`all_triggers`], recording every body search in `tally`.
pub fn all_triggers_counted(
    rules: &RuleSet,
    instance: &AtomSet,
    tally: &mut MatchTally,
) -> Vec<Trigger> {
    let mut out = Vec::new();
    let mcfg = MatchConfig::default();
    for (id, rule) in rules.iter() {
        let outcome =
            for_each_homomorphism(rule.body(), instance, &Substitution::new(), &mcfg, |pi| {
                out.push(Trigger {
                    rule: id,
                    pi: pi.restrict(rule.universal_vars()),
                });
                ControlFlow::Continue(())
            });
        tally.absorb(outcome);
    }
    // Matcher order depends on dynamic candidate counts; sort for a stable
    // cross-run order.
    out.sort_by(|a, b| {
        a.rule.cmp(&b.rule).then_with(|| {
            let ka: Vec<_> = a.pi.iter().collect();
            let kb: Vec<_> = b.pi.iter().collect();
            ka.cmp(&kb)
        })
    });
    out.dedup();
    out
}

/// Enumerates the triggers for `instance` whose body image uses at least
/// one atom from `delta` — the *semi-naive* discovery step: in a
/// monotonic chase every trigger is discovered in the round after its
/// last body atom appears, and (since satisfaction is preserved under
/// extension) a trigger handled once never needs to be revisited.
///
/// The result is deduplicated and sorted like [`all_triggers`].
pub fn triggers_using_delta(rules: &RuleSet, instance: &AtomSet, delta: &[Atom]) -> Vec<Trigger> {
    triggers_using_delta_counted(rules, instance, delta, &mut MatchTally::default())
}

/// [`triggers_using_delta`], recording every seeded body search in
/// `tally`.
pub fn triggers_using_delta_counted(
    rules: &RuleSet,
    instance: &AtomSet,
    delta: &[Atom],
    tally: &mut MatchTally,
) -> Vec<Trigger> {
    let mut out = Vec::new();
    let mcfg = MatchConfig::default();
    // A rule whose body repeats a predicate seeds the same homomorphism
    // once per (body-atom, delta-atom) pair; dedup on the trigger's
    // universal key *during* enumeration so each distinct trigger is
    // materialized once, instead of piling duplicates into `out` and
    // discarding them post-hoc in sort+dedup.
    let mut seen: HashSet<(RuleId, Vec<(VarId, Term)>)> = HashSet::new();
    for (id, rule) in rules.iter() {
        for body_atom in rule.body().iter() {
            for new_atom in delta {
                if new_atom.pred() != body_atom.pred() || new_atom.arity() != body_atom.arity() {
                    continue;
                }
                // Seed: unify this body atom against the new atom.
                let mut seed = Substitution::new();
                let mut ok = true;
                for (&bt, &nt) in body_atom.args().iter().zip(new_atom.args()) {
                    match bt {
                        chase_atoms::Term::Const(_) => {
                            if bt != nt {
                                ok = false;
                                break;
                            }
                        }
                        chase_atoms::Term::Var(v) => match seed.get(v) {
                            Some(prev) if prev != nt => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                seed.bind(v, nt);
                            }
                        },
                    }
                }
                if !ok {
                    continue;
                }
                let outcome = for_each_homomorphism(rule.body(), instance, &seed, &mcfg, |pi| {
                    let tr = Trigger {
                        rule: id,
                        pi: pi.restrict(rule.universal_vars()),
                    };
                    if seen.insert(tr.universal_key(rules)) {
                        out.push(tr);
                    }
                    ControlFlow::Continue(())
                });
                tally.absorb(outcome);
            }
        }
    }
    // `seen` already guarantees uniqueness; sort for a stable cross-run
    // order like `all_triggers`.
    out.sort_by(|a, b| {
        a.rule.cmp(&b.rule).then_with(|| {
            let ka: Vec<_> = a.pi.iter().collect();
            let kb: Vec<_> = b.pi.iter().collect();
            ka.cmp(&kb)
        })
    });
    out
}

/// Enumerates the *unsatisfied* triggers for `instance` — the active
/// triggers of the restricted chase. `instance` is a model of the rules
/// iff this is empty.
pub fn unsatisfied_triggers(rules: &RuleSet, instance: &AtomSet) -> Vec<Trigger> {
    all_triggers(rules, instance)
        .into_iter()
        .filter(|t| !t.is_satisfied_in(rules, instance))
        .collect()
}

/// Is `instance` a model of every rule (every trigger satisfied)?
pub fn is_model_of_rules(rules: &RuleSet, instance: &AtomSet) -> bool {
    let mut ok = true;
    'outer: for (id, rule) in rules.iter() {
        let mut triggers = Vec::new();
        for_each_homomorphism(
            rule.body(),
            instance,
            &Substitution::new(),
            &MatchConfig::default(),
            |pi| {
                triggers.push(Trigger {
                    rule: id,
                    pi: pi.restrict(rule.universal_vars()),
                });
                ControlFlow::Continue(())
            },
        );
        for t in triggers {
            if !t.is_satisfied_in(rules, instance) {
                ok = false;
                break 'outer;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use chase_atoms::PredId;

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(pr), args.to_vec())
    }

    fn set(atoms: &[Atom]) -> AtomSet {
        atoms.iter().cloned().collect()
    }

    /// r(X, Y) → ∃Z. r(Y, Z) over variables 0, 1, 2.
    fn chain_rule() -> RuleSet {
        [Rule::new(
            "chain",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(0, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect()
    }

    fn vocab_with_vars(n: u32) -> Vocabulary {
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(n));
        vocab
    }

    #[test]
    fn trigger_enumeration_and_application() {
        let rules = chain_rule();
        // instance: r(10, 11)
        let inst = set(&[atom(0, &[v(10), v(11)])]);
        let triggers = all_triggers(&rules, &inst);
        assert_eq!(triggers.len(), 1);
        let tr = &triggers[0];
        assert!(tr.is_trigger_for(&rules, &inst));
        assert!(!tr.is_satisfied_in(&rules, &inst));

        let mut vocab = vocab_with_vars(100);
        let (pi_safe, fresh) = fresh_pi_safe(&mut vocab, &rules, tr);
        let mut applied = inst.clone();
        let added = apply_trigger(&rules, &mut applied, tr, &pi_safe);
        assert_eq!(applied.len(), 2);
        assert_eq!(added.len(), 1);
        assert_eq!(fresh.len(), 1);
        // Now the trigger is satisfied.
        assert!(tr.is_satisfied_in(&rules, &applied));
        // Re-applying under the same π_safe adds nothing.
        assert!(apply_trigger(&rules, &mut applied, tr, &pi_safe).is_empty());
    }

    #[test]
    fn satisfied_trigger_detected() {
        let rules = chain_rule();
        // r(10, 11), r(11, 12): the trigger on r(10, 11) is satisfied.
        let inst = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(11), v(12)])]);
        let triggers = all_triggers(&rules, &inst);
        assert_eq!(triggers.len(), 2);
        let unsat = unsatisfied_triggers(&rules, &inst);
        assert_eq!(unsat.len(), 1);
        assert_eq!(unsat[0].pi.apply_term(v(0)), v(11));
    }

    #[test]
    fn loop_makes_model() {
        let rules = chain_rule();
        // r(10, 10) satisfies everything.
        let inst = set(&[atom(0, &[v(10), v(10)])]);
        assert!(unsatisfied_triggers(&rules, &inst).is_empty());
        assert!(is_model_of_rules(&rules, &inst));
    }

    #[test]
    fn trigger_map_forwards_through_retraction() {
        let rules = chain_rule();
        let inst = set(&[atom(0, &[v(10), v(11)])]);
        let tr = &all_triggers(&rules, &inst)[0];
        // Retraction folding 11 onto 10 in some later instance.
        let sigma = Substitution::from_pairs([(VarId::from_raw(11), v(10))]);
        let mapped = tr.map(&rules, &sigma);
        assert_eq!(mapped.pi.apply_term(v(0)), v(10));
        assert_eq!(mapped.pi.apply_term(v(1)), v(10));
    }

    #[test]
    fn keys_distinguish_variants() {
        // Rule with a non-frontier universal variable:
        // r(X, Y) → s(X) ; triggers differing only in Y share the frontier
        // key but not the universal key.
        let rules: RuleSet = [Rule::new(
            "proj",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(1, &[v(0)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let inst = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(10), v(12)])]);
        let triggers = all_triggers(&rules, &inst);
        assert_eq!(triggers.len(), 2);
        assert_eq!(
            triggers[0].frontier_key(&rules),
            triggers[1].frontier_key(&rules)
        );
        assert_ne!(
            triggers[0].universal_key(&rules),
            triggers[1].universal_key(&rules)
        );
    }

    #[test]
    fn delta_discovery_dedups_repeated_body_predicates() {
        // r(X, Y), r(Y, Z) → s(X, Z): both body atoms share predicate r,
        // so every delta atom seeds the same homomorphism once per
        // occurrence — the dedup must collapse them during enumeration.
        let rules: RuleSet = [Rule::new(
            "two-hop",
            set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]),
            set(&[atom(1, &[v(0), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let inst = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(11), v(12)])]);
        let delta: Vec<Atom> = inst.iter().cloned().collect();
        let from_delta = triggers_using_delta(&rules, &inst, &delta);
        assert_eq!(from_delta.len(), 1, "one distinct trigger");
        assert_eq!(from_delta, all_triggers(&rules, &inst));
    }

    #[test]
    fn fresh_nulls_are_globally_fresh() {
        let rules = chain_rule();
        let inst = set(&[atom(0, &[v(10), v(11)])]);
        let tr = all_triggers(&rules, &inst)[0].clone();
        let mut vocab = vocab_with_vars(100);
        let (_, fresh1) = fresh_pi_safe(&mut vocab, &rules, &tr);
        let (_, fresh2) = fresh_pi_safe(&mut vocab, &rules, &tr);
        assert_ne!(fresh1, fresh2);
    }
}
