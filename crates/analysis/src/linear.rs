//! The exact termination decision for **linear** rulesets (single-atom
//! bodies), after Leclère–Mugnier–Thomazo–Ulliana's single-approach
//! derivation-tree analysis.
//!
//! Linear rules never join two atoms, so every derivation decomposes
//! into chains of single-atom steps, and whether a rule applies to an
//! atom depends only on the atom's *pattern*: its predicate plus, per
//! position, either a rule constant, the critical star `∗`, or an
//! anonymous null class. The pattern space is finite, which turns the
//! Marnette critical-instance semi-decision into a genuine decision:
//!
//! 1. saturate the set of patterns reachable from the critical
//!    instance (exact, because single-atom unification against a
//!    pattern is exactly single-atom unification against any atom
//!    realizing it);
//! 2. build the *tracked-null* transition system: states are
//!    `(pattern, marked null class)`, persistence edges carry the
//!    marked null through an application, and **minting** edges switch
//!    tracking to a fresh existential null whose minting application
//!    held the old null in its frontier image;
//! 3. the Skolem (semi-oblivious) chase diverges on some fact base
//!    **iff** a cycle through a minting edge is reachable: such a cycle
//!    pumps — linear derivations are self-similar, so the loop re-fires
//!    forever with a brand-new frontier image each round — while
//!    conversely an infinite chase has null-creation chains longer than
//!    the state space, which forces exactly such a cycle.
//!
//! The verdict is therefore **exact** for the termination route that
//! all of this crate's other fes certificates use (Skolem-chase
//! termination on every fact base): `Terminating` and `NonTerminating`
//! are proofs, not evidence, and override probe heuristics. The state
//! space is exponential in predicate arity in the worst case, so the
//! saturation still runs under the shared [`SearchBudget`] and reports
//! `BudgetExhausted` instead of stalling when a cap is hit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use chase_atoms::{Atom, ConstId, PredId, Term, VarId};
use chase_engine::{Rule, RuleId, RuleSet};
use chase_homomorphism::SearchBudget;

use crate::acyclicity::tarjan_scc;
use crate::critical::{critical_signature, for_each_tuple};
use crate::guards::{guard_kind, GuardKind};

/// States explored when the budget carries no node limit.
const DEFAULT_STATES: usize = 20_000;

/// Outcome of the linear-ruleset termination decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinearOutcome {
    /// Pattern saturation completed with no pumpable cycle: the Skolem
    /// chase terminates on **every** fact base. Exact.
    Terminating {
        /// Distinct atom patterns reachable from the critical instance.
        patterns: usize,
    },
    /// A reachable cycle through a minting edge: the Skolem chase
    /// diverges on the critical instance (hence the ruleset is not
    /// fes). Exact.
    NonTerminating {
        /// The rule whose existential the cycle pumps.
        rule: RuleId,
    },
    /// Some rule has a multi-atom body: the decision does not apply.
    NotLinear,
    /// The state cap or deadline/cancel of the [`SearchBudget`] was hit
    /// before saturation: no verdict either way.
    BudgetExhausted {
        /// States explored before giving up.
        states: usize,
    },
}

/// The rule ids of the linear fragment: every rule whose body is a
/// single atom.
#[must_use]
pub fn linear_fragment(rules: &RuleSet) -> Vec<RuleId> {
    rules
        .iter()
        .filter(|(_, r)| guard_kind(r) == GuardKind::Linear)
        .map(|(id, _)| id)
        .collect()
}

/// One position of an atom pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Lab {
    /// A constant occurring in the rules.
    Const(ConstId),
    /// The critical star `∗` (a constant distinct from every rule
    /// constant).
    Star,
    /// An anonymous null, numbered canonically by first occurrence.
    Null(usize),
}

/// An atom up to null renaming: predicate + per-position labels with
/// null classes canonically numbered.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pat {
    pred: PredId,
    labels: Vec<Lab>,
}

/// Matches a single body atom against a pattern. Returns the variable
/// assignment, or `None` when no atom realizing the pattern matches.
/// Exact for patterns: a body constant matches only itself (never the
/// star, never a null), and a repeated variable forces equal labels.
fn unify(body: &Atom, pat: &Pat) -> Option<BTreeMap<VarId, Lab>> {
    if body.pred() != pat.pred || body.arity() != pat.labels.len() {
        return None;
    }
    let mut sub = BTreeMap::new();
    for (i, &t) in body.args().iter().enumerate() {
        let lab = pat.labels[i];
        match t {
            Term::Const(c) => {
                if lab != Lab::Const(c) {
                    return None;
                }
            }
            Term::Var(v) => match sub.get(&v) {
                None => {
                    sub.insert(v, lab);
                }
                Some(&prev) if prev == lab => {}
                Some(_) => return None,
            },
        }
    }
    Some(sub)
}

/// One instantiated head atom: its canonical pattern, where each *old*
/// null class of the trigger pattern landed (if it survived), and where
/// each existential variable's fresh null landed.
struct HeadPat {
    pat: Pat,
    old: BTreeMap<usize, usize>,
    fresh: BTreeMap<VarId, usize>,
}

/// Instantiates every head atom of `rule` under `sub`, minting one
/// fresh null class per existential variable (shared across the head
/// atoms it occurs in, but canonicalized per atom — linear rules never
/// re-join two atoms, so cross-atom null sharing is unobservable).
fn head_patterns(rule: &Rule, sub: &BTreeMap<VarId, Lab>) -> Vec<HeadPat> {
    rule.head()
        .iter()
        .map(|h| {
            let mut labels = Vec::with_capacity(h.arity());
            let mut canon: BTreeMap<Lab, usize> = BTreeMap::new();
            let mut fresh_canon: BTreeMap<VarId, usize> = BTreeMap::new();
            let mut old = BTreeMap::new();
            let mut fresh = BTreeMap::new();
            let mut next = 0usize;
            for &t in h.args() {
                let lab = match t {
                    Term::Const(c) => Lab::Const(c),
                    Term::Var(v) => {
                        if let Some(&l) = sub.get(&v) {
                            l
                        } else {
                            // Existential: one fresh null per variable.
                            let cls = *fresh_canon.entry(v).or_insert_with(|| {
                                let cls = next;
                                next += 1;
                                fresh.insert(v, cls);
                                cls
                            });
                            labels.push(Lab::Null(cls));
                            continue;
                        }
                    }
                };
                labels.push(match lab {
                    Lab::Null(k) => {
                        let cls = *canon.entry(Lab::Null(k)).or_insert_with(|| {
                            let cls = next;
                            next += 1;
                            old.insert(k, cls);
                            cls
                        });
                        Lab::Null(cls)
                    }
                    other => other,
                });
            }
            // Fresh classes were numbered interleaved with old ones in
            // first-occurrence order, which is already canonical.
            HeadPat {
                pat: Pat {
                    pred: h.pred(),
                    labels,
                },
                old,
                fresh,
            }
        })
        .collect()
}

/// Enumerates the patterns of the critical instance: every assignment
/// of rule constants and the star to every predicate position. Returns
/// `None` when the enumeration would exceed `cap` — computed by
/// checked arithmetic before materializing anything.
fn start_patterns(rules: &RuleSet, cap: usize) -> Option<Vec<Pat>> {
    let (preds, consts) = critical_signature(rules, cap)?;
    let labels: Vec<Lab> = std::iter::once(Lab::Star)
        .chain(consts.into_iter().map(Lab::Const))
        .collect();
    let mut out = Vec::new();
    for (pred, arity) in preds {
        for_each_tuple(&labels, arity, |labels| out.push(Pat { pred, labels }));
    }
    Some(out)
}

/// Decides Skolem-chase termination (on every fact base) for a linear
/// ruleset under the shared [`SearchBudget`]. Rulesets with any
/// multi-atom body get [`LinearOutcome::NotLinear`]; run the decision
/// on the [`linear_fragment`] sub-ruleset for a per-fragment verdict
/// (rule ids in the outcome then index the sub-ruleset).
#[must_use]
pub fn linear_termination(rules: &RuleSet, budget: &SearchBudget) -> LinearOutcome {
    if rules
        .iter()
        .any(|(_, r)| guard_kind(r) != GuardKind::Linear)
    {
        return LinearOutcome::NotLinear;
    }
    let cap = budget.node_limit.unwrap_or(DEFAULT_STATES);

    // Phase 1: reachable pattern saturation.
    let Some(starts) = start_patterns(rules, cap) else {
        return LinearOutcome::BudgetExhausted { states: 0 };
    };
    let mut reach: BTreeSet<Pat> = starts.iter().cloned().collect();
    let mut work: VecDeque<Pat> = reach.iter().cloned().collect();
    while let Some(pat) = work.pop_front() {
        if reach.len() > cap || budget.interrupted() {
            return LinearOutcome::BudgetExhausted {
                states: reach.len(),
            };
        }
        for (_, rule) in rules.iter() {
            let Some(sub) = rule.body().iter().next().and_then(|b| unify(b, &pat)) else {
                continue;
            };
            for hp in head_patterns(rule, &sub) {
                if reach.insert(hp.pat.clone()) {
                    work.push_back(hp.pat);
                }
            }
        }
    }
    let patterns = reach.len();

    // Phase 2: tracked-null transition system over (pattern, class).
    let mut index: BTreeMap<(Pat, usize), usize> = BTreeMap::new();
    let mut states: Vec<(Pat, usize)> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut intern = |pat: Pat,
                      cls: usize,
                      states: &mut Vec<(Pat, usize)>,
                      queue: &mut VecDeque<usize>|
     -> usize {
        *index.entry((pat.clone(), cls)).or_insert_with(|| {
            states.push((pat, cls));
            queue.push_back(states.len() - 1);
            states.len() - 1
        })
    };
    // Initial states: every fresh null minted by a rule firing on a
    // reachable pattern (a divergence chain can start at any minting).
    for pat in &reach {
        for (_, rule) in rules.iter() {
            let Some(sub) = rule.body().iter().next().and_then(|b| unify(b, pat)) else {
                continue;
            };
            for hp in head_patterns(rule, &sub) {
                for &cls in hp.fresh.values() {
                    intern(hp.pat.clone(), cls, &mut states, &mut queue);
                }
            }
        }
    }
    // Edges: `minting` names the rule when the edge switches tracking
    // to a fresh null (the old null sat in the frontier image).
    let mut edges: Vec<(usize, usize, Option<RuleId>)> = Vec::new();
    while let Some(s) = queue.pop_front() {
        if states.len() > cap || budget.interrupted() {
            return LinearOutcome::BudgetExhausted {
                states: states.len(),
            };
        }
        let (pat, marked) = states[s].clone();
        for (rid, rule) in rules.iter() {
            let Some(sub) = rule.body().iter().next().and_then(|b| unify(b, &pat)) else {
                continue;
            };
            let frontier_hit = rule
                .frontier_vars()
                .iter()
                .any(|v| sub.get(v) == Some(&Lab::Null(marked)));
            for hp in head_patterns(rule, &sub) {
                if let Some(&cls) = hp.old.get(&marked) {
                    let t = intern(hp.pat.clone(), cls, &mut states, &mut queue);
                    edges.push((s, t, None));
                }
                if frontier_hit {
                    for &cls in hp.fresh.values() {
                        let t = intern(hp.pat.clone(), cls, &mut states, &mut queue);
                        edges.push((s, t, Some(rid)));
                    }
                }
            }
        }
    }

    // Phase 3: a minting edge inside one SCC is a pumpable cycle.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); states.len()];
    for &(u, v, _) in &edges {
        adj[u].push(v);
    }
    let comp = tarjan_scc(states.len(), &adj);
    for &(u, v, minting) in &edges {
        if let Some(rule) = minting {
            if comp[u] == comp[v] {
                return LinearOutcome::NonTerminating { rule };
            }
        }
    }
    LinearOutcome::Terminating { patterns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_parser::parse_program;

    fn rules(src: &str) -> RuleSet {
        parse_program(src).expect("parses").rules
    }

    fn budget(n: usize) -> SearchBudget {
        SearchBudget::unlimited().with_node_limit(n)
    }

    #[test]
    fn diverging_linear_chain_refuted() {
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert_eq!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::NonTerminating { rule: 0 }
        );
    }

    #[test]
    fn terminating_linear_pipeline_certified() {
        let rs = rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).");
        assert!(matches!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::Terminating { .. }
        ));
    }

    #[test]
    fn frontier_dropping_existential_terminates() {
        // p(X) → ∃Z. p(Z): the minting application's frontier is empty,
        // so the semi-oblivious chase fires it once per rule — the naive
        // "existential in a cycle" reading would wrongly refute this.
        let rs = rules("R: p(X) -> p(Z).");
        assert!(matches!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::Terminating { .. }
        ));
    }

    #[test]
    fn two_rule_null_relay_refuted() {
        // The null relays through q back into p's second column with
        // the null in the frontier each time: a pump across two rules.
        let rs = rules("R1: p(X, Y) -> q(Y, Z). R2: q(X, Y) -> p(X, Y).");
        assert!(matches!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::NonTerminating { .. }
        ));
    }

    #[test]
    fn constant_rebirth_relay_terminates() {
        // Same relay but R2 drops the null and re-seeds with a
        // constant: each R1 firing on p(_, b) has the same frontier
        // image, so the semi-oblivious chase fires it once and stops —
        // the frontier-image condition on minting edges is load-bearing.
        let rs = rules("R1: p(X, Y) -> q(Y, Z). R2: q(X, Y) -> p(Y, b).");
        assert!(matches!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::Terminating { .. }
        ));
    }

    #[test]
    fn constant_blocker_terminates() {
        // The recursion needs ok(a)-gated... here the body constant `a`
        // never matches a null, so the loop cannot consume its own
        // output: r only fires on q(a, _) atoms, and its output is
        // q(Z, b) — Z is a null, never `a`.
        let rs = rules("R: q(a, Y) -> q(Z, b).");
        assert!(matches!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::Terminating { .. }
        ));
    }

    #[test]
    fn datalog_linear_rules_terminate() {
        let rs = rules("A: p(X) -> q(X). B: q(X) -> p(X).");
        assert!(matches!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::Terminating { .. }
        ));
    }

    #[test]
    fn multi_atom_body_is_not_linear() {
        let rs = rules("T: r(X, Y), r(Y, Z) -> r(X, Z).");
        assert_eq!(
            linear_termination(&rs, &budget(100)),
            LinearOutcome::NotLinear
        );
    }

    #[test]
    fn linear_fragment_lists_single_atom_bodies() {
        let rs = rules("A: r(X, Y) -> s(Y). B: r(X, Y), s(Y) -> t(X).");
        assert_eq!(linear_fragment(&rs), vec![0]);
    }

    #[test]
    fn tiny_budget_is_inconclusive() {
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert!(matches!(
            linear_termination(&rs, &budget(0)),
            LinearOutcome::BudgetExhausted { .. }
        ));
    }

    #[test]
    fn high_arity_blowup_is_inconclusive_not_materialized() {
        let rs = rules("R: p(a, b, c, d, e, f, g, h) -> p(b, c, d, e, f, g, h, Z).");
        let started = std::time::Instant::now();
        assert!(matches!(
            linear_termination(&rs, &budget(1_000)),
            LinearOutcome::BudgetExhausted { states: 0 }
        ));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "the 9^8-pattern start set must not be enumerated"
        );
    }

    #[test]
    fn mfa_false_positive_is_decided_exactly() {
        // q(X, Y) → ∃Z. q(Z, X): the null flows into the *first* column
        // only; re-firing on q(n, x) puts n in the frontier and mints a
        // deeper null, so this genuinely diverges — and unlike the MFA
        // heuristic the decision proves it.
        let rs = rules("R: q(X, Y) -> q(Z, X).");
        assert_eq!(
            linear_termination(&rs, &budget(5_000)),
            LinearOutcome::NonTerminating { rule: 0 }
        );
    }
}
