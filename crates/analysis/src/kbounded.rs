//! k-boundedness certificates for the breadth-first chase.
//!
//! A ruleset is *k-bounded* (Delivorias, Leclère, Mugnier, Ulliana,
//! IJCAI 2018) when on **every** instance the breadth-first chase
//! saturates within `k` rounds — equivalently, every derived atom has
//! breadth-first rank at most `k`. k-boundedness implies fes with a
//! budget that is uniform across fact bases, which is exactly what an
//! admission gate wants: the certificate converts into a hard
//! application bound instead of a heuristic one.
//!
//! The test here reads the semi-oblivious (Skolem) chase of the
//! critical instance ([`CriticalChase`], shared with the MFA test) run
//! to saturation under the shared [`SearchBudget`], and performs a *rank
//! analysis* on the saturated run:
//!
//! * every trigger of the final instance is assigned the rank
//!   `1 + max(rank of its body atoms)`;
//! * every atom is assigned `max(0, max(rank of the triggers that
//!   output it))` — the `0` floor accounts for instances that contain
//!   the atom's image directly.
//!
//! Because the chase of any instance embeds homomorphically into the
//! critical chase (Marnette, PODS 2009) and the embedding maps round-r
//! applications to triggers of rank ≤ r, the maximum trigger rank `k`
//! bounds the breadth-first round count of **every** instance:
//! `Certified(KBounded{k})` is sound. The analysis is conservative in
//! the other direction: a cycle in the rank graph (an atom feeding a
//! trigger that re-outputs it, as in transitive closure) makes the
//! abstract ranks unbounded and the test reports
//! [`KBoundedOutcome::DepthUnbounded`] — *no certificate*, not a
//! refutation, since the concrete chase may still be bounded (e.g. a
//! rule copying an atom onto itself).

use std::collections::HashMap;

use chase_atoms::Atom;
use chase_engine::{all_triggers, RuleSet};
use chase_homomorphism::SearchBudget;

use crate::acyclicity::tarjan_scc;
use crate::critical::{application_limit, atom_cap, CriticalChase};

/// Outcome of the k-boundedness test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KBoundedOutcome {
    /// The critical chase saturated and its rank graph is acyclic: the
    /// breadth-first chase of **every** instance saturates within `k`
    /// rounds.
    Bounded {
        /// Maximum breadth-first rank over all triggers of the
        /// saturated critical chase — the certified round bound.
        k: usize,
        /// Trigger applications used by the critical chase.
        applications: usize,
    },
    /// The rank graph of the saturated critical chase is cyclic: the
    /// abstraction cannot bound derivation depth. Not a refutation —
    /// datalog saturation (e.g. transitive closure) lands here even
    /// though its chase terminates on every instance.
    DepthUnbounded {
        /// Trigger applications used by the critical chase.
        applications: usize,
    },
    /// Budget (node limit, deadline or cancellation) exhausted before
    /// the critical chase saturated.
    BudgetExhausted {
        /// Trigger applications performed before giving up.
        applications: usize,
    },
}

/// Runs the k-boundedness test for `rules` under `budget`. Like
/// [`crate::mfa_test`], a critical instance over the budget's atom cap is
/// reported [`KBoundedOutcome::BudgetExhausted`] up front.
#[must_use]
pub fn kbounded_test(rules: &RuleSet, budget: &SearchBudget) -> KBoundedOutcome {
    let limit = application_limit(budget);
    let run = CriticalChase::run(rules, budget, limit, limit);
    kbounded_outcome(rules, budget, run.as_ref(), limit)
}

/// Reads the k-bounded outcome at application limit `limit` off a
/// critical chase run at that limit or above (`None`: the critical
/// instance exceeded the run's atom cap). The reader keeps its own atom
/// cap, and counts the run as saturated only if it saturated within
/// `limit` applications.
pub(crate) fn kbounded_outcome(
    rules: &RuleSet,
    budget: &SearchBudget,
    run: Option<&CriticalChase>,
    limit: usize,
) -> KBoundedOutcome {
    let Some(run) = run.filter(|run| run.critical_atoms <= atom_cap(limit)) else {
        return KBoundedOutcome::BudgetExhausted { applications: 0 };
    };
    let applications = run.applications;
    if !run.saturated || applications > limit {
        return KBoundedOutcome::BudgetExhausted {
            applications: applications.min(limit),
        };
    }

    // The bipartite rank graph over the saturated run: `deps[v]` lists
    // what node `v` depends on. A trigger node depends on its body
    // atoms, an (interned) atom node on every trigger that outputs it.
    let mut atom_ids: HashMap<Atom, usize> = HashMap::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut is_trigger: Vec<bool> = Vec::new();
    for tr in all_triggers(rules, &run.instance) {
        if budget.interrupted() {
            return KBoundedOutcome::BudgetExhausted { applications };
        }
        let tid = deps.len();
        deps.push(Vec::new());
        is_trigger.push(true);
        let body = rules.get(tr.rule).body().iter();
        let body = body.map(|atom| (tr.pi.apply_atom(atom), false));
        // Saturation means every frontier key has fired.
        let key = tr.frontier_key(rules);
        let outputs = run.outputs.get(&key).into_iter().flatten();
        for (atom, output) in body.chain(outputs.map(|atom| (atom.clone(), true))) {
            let aid = *atom_ids.entry(atom).or_insert_with(|| {
                deps.push(Vec::new());
                is_trigger.push(false);
                deps.len() - 1
            });
            if output {
                deps[aid].push(tid);
            } else {
                deps[tid].push(aid);
            }
        }
    }
    match max_trigger_rank(&deps, &is_trigger) {
        Some(k) => KBoundedOutcome::Bounded { k, applications },
        None => KBoundedOutcome::DepthUnbounded { applications },
    }
}

/// Longest-path ranks over the bipartite rank graph: a trigger's rank is
/// one more than its deepest body atom, an atom's rank the deepest of its
/// producers. Returns the maximum trigger rank, or `None` when the graph
/// is cyclic (depth unbounded).
fn max_trigger_rank(deps: &[Vec<usize>], is_trigger: &[bool]) -> Option<usize> {
    // Tarjan numbers components dependencies first; the graph is acyclic
    // iff every component is a single node (it has no self-loops).
    let mut order = vec![usize::MAX; deps.len()];
    for (v, c) in tarjan_scc(deps.len(), deps).into_iter().enumerate() {
        if std::mem::replace(&mut order[c], v) != usize::MAX {
            return None;
        }
    }
    let mut rank = vec![0usize; deps.len()];
    for v in order {
        let best = deps[v].iter().map(|&c| rank[c]).max().unwrap_or(0);
        rank[v] = best + usize::from(is_trigger[v]);
    }
    let trigger_ranks = rank.iter().zip(is_trigger).filter(|(_, &t)| t);
    Some(trigger_ranks.map(|(&r, _)| r).max().unwrap_or(0))
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
    fn copy_rule_is_one_bounded() {
        let rs = rules("C: p(X) -> q(X).");
        assert_eq!(
            kbounded_test(&rs, &budget(100)),
            KBoundedOutcome::Bounded {
                k: 1,
                applications: 1
            }
        );
    }

    #[test]
    fn two_stage_pipeline_is_two_bounded() {
        // p→q→r chains two rounds on {p(a)} even though the critical
        // instance holds q(*) from round zero: the rank graph must
        // route q's rank through the producing trigger.
        let rs = rules("R: p(X) -> q(X). S: q(X) -> r(X).");
        assert!(matches!(
            kbounded_test(&rs, &budget(100)),
            KBoundedOutcome::Bounded { k: 2, .. }
        ));
    }

    #[test]
    fn existential_pipeline_is_bounded() {
        let rs = rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).");
        assert!(matches!(
            kbounded_test(&rs, &budget(200)),
            KBoundedOutcome::Bounded { k: 2, .. }
        ));
    }

    #[test]
    fn transitive_closure_is_depth_unbounded() {
        // Terminates on every instance, but the number of rounds grows
        // with the longest path: no k works, and the rank graph is
        // cyclic on the critical chase.
        let rs = rules("T: r(X, Y), r(Y, Z) -> r(X, Z).");
        assert!(matches!(
            kbounded_test(&rs, &budget(200)),
            KBoundedOutcome::DepthUnbounded { .. }
        ));
    }

    #[test]
    fn self_copy_is_conservatively_unbounded() {
        // p(X) → p(X) is trivially 1-bounded, but its own output feeds
        // its body: the abstraction declines to certify. Documented
        // over-approximation.
        let rs = rules("L: p(X) -> p(X).");
        assert!(matches!(
            kbounded_test(&rs, &budget(100)),
            KBoundedOutcome::DepthUnbounded { .. }
        ));
    }

    #[test]
    fn diverging_chain_exhausts_budget() {
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert!(matches!(
            kbounded_test(&rs, &budget(50)),
            KBoundedOutcome::BudgetExhausted { .. }
        ));
    }

    #[test]
    fn tiny_budget_is_inconclusive() {
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert_eq!(
            kbounded_test(&rs, &budget(0)),
            KBoundedOutcome::BudgetExhausted { applications: 0 }
        );
    }

    #[test]
    fn high_arity_blowup_is_inconclusive_not_materialized() {
        let rs = rules("R: p(a, b, c, d, e, f, g, h) -> q(Z).");
        let started = std::time::Instant::now();
        assert_eq!(
            kbounded_test(&rs, &budget(1_000)),
            KBoundedOutcome::BudgetExhausted { applications: 0 }
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "the 9^8-atom critical instance must not be enumerated"
        );
    }
}
