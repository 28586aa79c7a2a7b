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
//! The test here runs the semi-oblivious (Skolem) chase from the
//! critical instance to saturation under the shared [`SearchBudget`],
//! then performs a *rank analysis* on the saturated run:
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

use chase_atoms::{Atom, Term, Vocabulary};
use chase_engine::{all_triggers, apply_trigger, fresh_pi_safe, RuleId, RuleSet};
use chase_homomorphism::SearchBudget;

use crate::critical::{atom_cap, critical_instance_capped};

/// Applications allowed when the budget carries no node limit.
const DEFAULT_APPLICATIONS: usize = 10_000;

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

/// A fired application's identity: the semi-oblivious frontier key.
type FrontierKey = (RuleId, Vec<(chase_atoms::VarId, Term)>);

/// Runs the k-boundedness test for `rules` under `budget`.
///
/// Like [`crate::mfa_test`], the critical instance is materialized
/// under an atom ceiling derived from the budget, so a high-arity
/// ruleset is reported [`KBoundedOutcome::BudgetExhausted`] up front
/// instead of stalling on construction.
#[must_use]
pub fn kbounded_test(rules: &RuleSet, budget: &SearchBudget) -> KBoundedOutcome {
    let mut vocab = Vocabulary::new();
    let max_applications = budget.node_limit.unwrap_or(DEFAULT_APPLICATIONS);
    let Some(mut instance) =
        critical_instance_capped(&mut vocab, rules, atom_cap(max_applications))
    else {
        return KBoundedOutcome::BudgetExhausted { applications: 0 };
    };

    // Phase 1: saturate the Skolem chase, recording the output atoms of
    // each frontier key (Skolem semantics: duplicate keys share them).
    let mut outputs: HashMap<FrontierKey, Vec<Atom>> = HashMap::new();
    let mut applications = 0usize;
    loop {
        let mut progressed = false;
        let triggers = all_triggers(rules, &instance);
        for tr in triggers {
            let key = tr.frontier_key(rules);
            if outputs.contains_key(&key) {
                continue;
            }
            if applications >= max_applications || budget.interrupted() {
                return KBoundedOutcome::BudgetExhausted { applications };
            }
            let rule = rules.get(tr.rule);
            let (pi_safe, _) = fresh_pi_safe(&mut vocab, rules, &tr);
            apply_trigger(rules, &mut instance, &tr, &pi_safe);
            applications += 1;
            let out = rule
                .head()
                .iter()
                .map(|atom| pi_safe.apply_atom(atom))
                .collect();
            outputs.insert(key, out);
            progressed = true;
        }
        if !progressed {
            break;
        }
    }

    // Phase 2: build the bipartite rank graph over the saturated run.
    // Atom nodes are interned; trigger nodes depend on their body
    // atoms, atom nodes depend on every trigger that outputs them.
    let mut atom_ids: HashMap<Atom, usize> = HashMap::new();
    let mut atom_deps: Vec<Vec<usize>> = Vec::new();
    let mut trigger_deps: Vec<Vec<usize>> = Vec::new();
    let mut intern = |atom: Atom, deps: &mut Vec<Vec<usize>>| -> usize {
        let next = atom_ids.len();
        *atom_ids.entry(atom).or_insert_with(|| {
            deps.push(Vec::new());
            next
        })
    };
    for tr in all_triggers(rules, &instance) {
        if budget.interrupted() {
            return KBoundedOutcome::BudgetExhausted { applications };
        }
        let rule = rules.get(tr.rule);
        let tid = trigger_deps.len();
        let mut body_ids = Vec::new();
        for atom in rule.body().iter() {
            body_ids.push(intern(tr.pi.apply_atom(atom), &mut atom_deps));
        }
        trigger_deps.push(body_ids);
        // Saturation means every frontier key has fired.
        let key = tr.frontier_key(rules);
        for atom in outputs.get(&key).map_or(&[][..], Vec::as_slice) {
            let aid = intern(atom.clone(), &mut atom_deps);
            atom_deps[aid].push(tid);
        }
    }

    // Phase 3: longest path over the rank graph, with cycle detection.
    match max_trigger_rank(&atom_deps, &trigger_deps) {
        Some(k) => KBoundedOutcome::Bounded { k, applications },
        None => KBoundedOutcome::DepthUnbounded { applications },
    }
}

/// Longest-path ranks over the bipartite rank graph: atoms occupy nodes
/// `[0, n_atoms)`, triggers `[n_atoms, n)`; a trigger's rank is one more
/// than its deepest body atom, an atom's rank the deepest of its
/// producers. Returns the maximum trigger rank, or `None` when the
/// graph is cyclic (depth unbounded).
fn max_trigger_rank(atom_deps: &[Vec<usize>], trigger_deps: &[Vec<usize>]) -> Option<usize> {
    let n_atoms = atom_deps.len();
    let n = n_atoms + trigger_deps.len();
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
    for producers in atom_deps {
        deps.push(producers.iter().map(|&t| n_atoms + t).collect());
    }
    for body in trigger_deps {
        deps.push(body.clone());
    }
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut rank = vec![0usize; n];
    let mut k = 0usize;
    for start in n_atoms..n {
        if state[start] != 0 {
            k = k.max(rank[start]);
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = 1;
        while let Some(frame) = stack.last_mut() {
            let (node, cursor) = *frame;
            if cursor < deps[node].len() {
                frame.1 += 1;
                let child = deps[node][cursor];
                match state[child] {
                    0 => {
                        state[child] = 1;
                        stack.push((child, 0));
                    }
                    1 => return None,
                    _ => {}
                }
            } else {
                let best = deps[node].iter().map(|&c| rank[c]).max().unwrap_or(0);
                rank[node] = if node >= n_atoms { best + 1 } else { best };
                state[node] = 2;
                stack.pop();
            }
        }
        k = k.max(rank[start]);
    }
    Some(k)
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
