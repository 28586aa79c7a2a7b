//! Homomorphism enumeration: the match front end of the crate's one
//! search kernel (`incremental.rs`).
//!
//! The matcher finds substitutions `π` with `π(pattern) ⊆ target`,
//! optionally extending a seed assignment and optionally subject to the
//! constraints in [`MatchConfig`] (injectivity, constant-only variables).
//! A [`SearchBudget`] bounds the search.
//!
//! The pattern is first renamed onto dense variables, so a search's
//! state is sized by the pattern (and the seed), never by the target or
//! the vocabulary. Pattern atoms whose arguments are all determined by
//! the seed are resolved by one lookup each up front; then at each step
//! the kernel picks the unmatched pattern atom with the fewest candidate
//! target atoms under the current partial assignment
//! (most-constrained-first), ties broken by pattern order. Candidates
//! are the *exact* intersection of the target's positional
//! `(pred, arity, position, term)` postings ([`AtomSet::matching_ids`]),
//! so the ranking uses true candidate counts and the enumeration visits
//! exactly that set, in ascending atom-id order. This is the classic CSP
//! ordering used by CQ evaluators; it makes the crafted instances in
//! this workspace (grids, staircases, elevator columns) match in
//! near-linear time. `tests/matcher_differential.rs` checks the
//! enumeration against a brute-force enumerator in every constraint
//! mode.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

use chase_atoms::{Atom, AtomId, AtomSet, PredId, Substitution, Term, VarId};

use crate::budget::{SearchBudget, SearchOutcome};
use crate::incremental::{Front, Kernel};

/// Constraints layered on top of plain homomorphism search.
#[derive(Clone, Default, Debug)]
pub struct MatchConfig {
    /// Require variables to map to *variables*, injectively. Used for
    /// isomorphism search.
    pub injective_vars: bool,
    /// Variables whose image must be a constant. Answer queries set it
    /// to their answer variables: a branch binding one to a null could
    /// only yield a tuple the caller discards.
    pub const_only: BTreeSet<VarId>,
}

/// A pattern renamed onto dense variables: the `i`-th smallest variable
/// of the pattern and the seed becomes `VarId` `i`, and the `i`-th atom
/// in pattern order becomes `AtomId` `i`.
#[derive(Default)]
pub(crate) struct Compiled {
    /// Each atom's predicate and the range of its arguments in `args`.
    atoms: Vec<(PredId, usize, usize)>,
    args: Vec<Term>,
    /// The original variable behind each dense one.
    pub(crate) vars: Vec<VarId>,
    /// `(variable, atom)` occurrences, sorted and deduplicated: a
    /// variable's star is one run of it.
    occurs: Vec<(VarId, AtomId)>,
}

thread_local! {
    /// The emptied buffers of the last pattern compiled on this thread:
    /// a chase compiles thousands of small patterns.
    static SPARE: Cell<Compiled> = Cell::default();
}

/// The dense variable of `v` among the sorted `vars`.
fn dense(vars: &[VarId], v: VarId) -> VarId {
    VarId::from_raw(vars.binary_search(&v).expect("every variable is listed") as u32)
}

impl Compiled {
    fn new(pattern: &AtomSet, seed: &Substitution) -> Self {
        let mut c = SPARE.take();
        c.atoms.clear();
        c.args.clear();
        c.vars.clear();
        c.occurs.clear();
        c.vars
            .extend(pattern.iter().flat_map(Atom::vars).chain(seed.domain()));
        c.vars.sort_unstable();
        c.vars.dedup();
        for (i, atom) in pattern.iter().enumerate() {
            let start = c.args.len();
            for &t in atom.args() {
                let t = t.as_var().map_or(t, |v| Term::Var(dense(&c.vars, v)));
                c.args.push(t);
                if let Term::Var(v) = t {
                    c.occurs.push((v, AtomId::from_raw(i as u32)));
                }
            }
            c.atoms.push((atom.pred(), start, c.args.len()));
        }
        c.occurs.sort_unstable();
        c.occurs.dedup();
        c
    }

    /// The predicate and renamed arguments of atom `id`.
    pub(crate) fn atom(&self, id: AtomId) -> (PredId, &[Term]) {
        let (pred, start, end) = self.atoms[id.raw() as usize];
        (pred, &self.args[start..end])
    }

    /// The atoms containing dense variable `v`, ascending.
    pub(crate) fn star(&self, v: VarId) -> impl Iterator<Item = AtomId> + '_ {
        let from = self.occurs.partition_point(|&(u, _)| u < v);
        let to = self.occurs.partition_point(|&(u, _)| u <= v);
        self.occurs[from..to].iter().map(|&(_, id)| id)
    }
}

/// Enumerates homomorphisms `π` extending `seed` with
/// `π(pattern) ⊆ target`, subject to `cfg`, invoking `on_found` for each.
///
/// Return [`ControlFlow::Break`] from the callback to stop early. Each
/// reported substitution binds exactly the variables of `pattern` plus the
/// seed domain. Unbudgeted, the returned [`SearchOutcome`] is never
/// truncated; see [`for_each_homomorphism_budgeted`].
pub fn for_each_homomorphism(
    pattern: &AtomSet,
    target: &AtomSet,
    seed: &Substitution,
    cfg: &MatchConfig,
    on_found: impl FnMut(Substitution) -> ControlFlow<()>,
) -> SearchOutcome {
    for_each_homomorphism_budgeted(
        pattern,
        target,
        seed,
        cfg,
        &SearchBudget::default(),
        on_found,
    )
}

/// [`for_each_homomorphism`] under a [`SearchBudget`]: its node limit is
/// checked on every candidate trial, and its deadline and cancel flags
/// are polled *inside* the backtracking loop, so a cancel reaches a long
/// answer search.
///
/// The returned [`SearchOutcome`] says whether the budget cut the search
/// short: a truncated enumeration that reported no hit is
/// **inconclusive**, not a refutation. A contradictory seed, or a
/// pattern atom the seed determines onto a missing image, refutes
/// conclusively without a trial.
pub fn for_each_homomorphism_budgeted(
    pattern: &AtomSet,
    target: &AtomSet,
    seed: &Substitution,
    cfg: &MatchConfig,
    budget: &SearchBudget,
    mut on_found: impl FnMut(Substitution) -> ControlFlow<()>,
) -> SearchOutcome {
    if budget.interrupted() {
        // An already-tripped budget makes even an empty search inconclusive.
        return SearchOutcome::interrupted();
    }
    let compiled = Compiled::new(pattern, seed);
    let front = Front::Match {
        pattern: &compiled,
        injective: cfg.injective_vars,
        const_only: &cfg.const_only,
    };
    let mut search = Kernel::new(target, budget, front, compiled.atoms.len());
    let seeded = seed
        .iter()
        .all(|(v, t)| search.try_bind(dense(&compiled.vars, v), t));
    if !seeded {
        return SearchOutcome::default();
    }
    search.queue_untouched();
    let mut complete = search.descend(true) || search.solve();
    while complete {
        let sub = search
            .bindings()
            .map(|(v, t)| (compiled.vars[v.raw() as usize], t));
        if on_found(sub.collect()).is_break() {
            break;
        }
        complete = search.solve();
    }
    let outcome = search.outcome;
    drop(search);
    SPARE.set(compiled);
    outcome
}

/// Finds one homomorphism from `pattern` to `target`, if any.
pub fn find_homomorphism(pattern: &AtomSet, target: &AtomSet) -> Option<Substitution> {
    find_homomorphism_extending(pattern, target, &Substitution::new())
}

/// Finds one homomorphism from `pattern` to `target` extending `seed`.
///
/// This is exactly the paper's *trigger satisfaction* check: a trigger
/// `(B → H, π)` is satisfied in `I` iff `π` extends to a homomorphism from
/// `B ∪ H` to `I`.
pub fn find_homomorphism_extending(
    pattern: &AtomSet,
    target: &AtomSet,
    seed: &Substitution,
) -> Option<Substitution> {
    let mut found = None;
    for_each_homomorphism(pattern, target, seed, &MatchConfig::default(), |sub| {
        found = Some(sub);
        ControlFlow::Break(())
    });
    found
}

/// Does `a` homomorphically map to `b` (i.e. `b ⊨ a` as existentially
/// closed conjunctions)?
pub fn maps_to(a: &AtomSet, b: &AtomSet) -> bool {
    find_homomorphism(a, b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::{ConstId, PredId};

    fn p(i: u32) -> PredId {
        PredId::from_raw(i)
    }

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(p(pr), args.to_vec())
    }

    fn set(atoms: &[Atom]) -> AtomSet {
        atoms.iter().cloned().collect()
    }

    #[test]
    fn finds_simple_homomorphism() {
        // pattern: r(X, Y) ; target: r(a, b)
        let pattern = set(&[atom(0, &[v(0), v(1)])]);
        let target = set(&[atom(0, &[c(0), c(1)])]);
        let h = find_homomorphism(&pattern, &target).unwrap();
        assert_eq!(h.apply_term(v(0)), c(0));
        assert_eq!(h.apply_term(v(1)), c(1));
        assert!(h.is_homomorphism(&pattern, &target));
    }

    #[test]
    fn respects_shared_variables() {
        // pattern: r(X, X) does not map to r(a, b) but maps to r(a, a).
        let pattern = set(&[atom(0, &[v(0), v(0)])]);
        assert!(!maps_to(&pattern, &set(&[atom(0, &[c(0), c(1)])])));
        assert!(maps_to(&pattern, &set(&[atom(0, &[c(0), c(0)])])));
    }

    #[test]
    fn constants_must_match_exactly() {
        let pattern = set(&[atom(0, &[c(0), v(0)])]);
        assert!(maps_to(&pattern, &set(&[atom(0, &[c(0), c(1)])])));
        assert!(!maps_to(&pattern, &set(&[atom(0, &[c(1), c(1)])])));
    }

    #[test]
    fn path_into_cycle() {
        // path X0-X1-X2-X3 maps into a 2-cycle a-b.
        let pattern = set(&[
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(2)]),
            atom(0, &[v(2), v(3)]),
        ]);
        let target = set(&[atom(0, &[c(0), c(1)]), atom(0, &[c(1), c(0)])]);
        assert!(maps_to(&pattern, &target));
        // And the 2-cycle does not map into the path.
        assert!(!maps_to(&target, &pattern));
    }

    #[test]
    fn seed_extension_restricts_search() {
        // r(X, Y) into {r(a,b), r(b,a)} with X seeded to b ⇒ Y must be a.
        let pattern = set(&[atom(0, &[v(0), v(1)])]);
        let target = set(&[atom(0, &[c(0), c(1)]), atom(0, &[c(1), c(0)])]);
        let seed = Substitution::from_pairs([(VarId::from_raw(0), c(1))]);
        let h = find_homomorphism_extending(&pattern, &target, &seed).unwrap();
        assert_eq!(h.apply_term(v(1)), c(0));

        let bad_seed = Substitution::from_pairs([(VarId::from_raw(0), c(7))]);
        assert!(find_homomorphism_extending(&pattern, &target, &bad_seed).is_none());
    }

    #[test]
    fn empty_pattern_has_empty_homomorphism() {
        let target = set(&[atom(0, &[c(0)])]);
        let h = find_homomorphism(&AtomSet::new(), &target).unwrap();
        assert!(h.is_empty());
    }

    #[test]
    fn injective_mode_requires_distinct_var_images() {
        // r(X, Y) injectively into r(a, a): X,Y would both map to constant a
        // — forbidden in injective mode (vars must map to vars).
        let pattern = set(&[atom(0, &[v(0), v(1)])]);
        let target = set(&[atom(0, &[c(0), c(0)])]);
        let cfg = MatchConfig {
            injective_vars: true,
            ..MatchConfig::default()
        };
        let mut found = 0;
        for_each_homomorphism(&pattern, &target, &Substitution::new(), &cfg, |_| {
            found += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(found, 0);

        // Injectively into r(Z, W): exactly one assignment.
        let target2 = set(&[atom(0, &[v(10), v(11)])]);
        let mut subs = Vec::new();
        for_each_homomorphism(&pattern, &target2, &Substitution::new(), &cfg, |s| {
            subs.push(s);
            ControlFlow::Continue(())
        });
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn injective_mode_counts_identity_images() {
        // {r(X3, X0), r(X1, X0)} into {r(X1, X2)}: both atoms must land on
        // the one target atom, so X3 ↦ X1 and X1 ↦ X1 — not injective,
        // although the second binding is an identity.
        let pattern = set(&[atom(0, &[v(3), v(0)]), atom(0, &[v(1), v(0)])]);
        let target = set(&[atom(0, &[v(1), v(2)])]);
        let cfg = MatchConfig {
            injective_vars: true,
            ..MatchConfig::default()
        };
        let out = for_each_homomorphism(&pattern, &target, &Substitution::new(), &cfg, |s| {
            panic!("non-injective match {s:?}")
        });
        assert!(!out.truncated);
    }

    #[test]
    fn exhaustive_miss_is_not_truncated() {
        // r(X, X) does not map to r(a, b); with no limit the miss is a
        // conclusive refutation.
        let pattern = set(&[atom(0, &[v(0), v(0)])]);
        let target = set(&[atom(0, &[c(0), c(1)])]);
        let out = for_each_homomorphism(
            &pattern,
            &target,
            &Substitution::new(),
            &MatchConfig::default(),
            |_| ControlFlow::Continue(()),
        );
        assert!(!out.truncated);
        assert!(out.nodes >= 1);
    }

    #[test]
    fn budgeted_miss_is_truncated_not_refuted() {
        // A large pattern with a 1-node budget: the search cannot finish,
        // and must say so instead of reporting a refutation.
        let n = 6u32;
        let idx = |i: u32, j: u32| v(i * n + j);
        let mut atoms = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i + 1 < n {
                    atoms.push(atom(0, &[idx(i, j), idx(i + 1, j)]));
                }
                if j + 1 < n {
                    atoms.push(atom(1, &[idx(i, j), idx(i, j + 1)]));
                }
            }
        }
        let grid = set(&atoms);
        let mut found = false;
        let out = for_each_homomorphism_budgeted(
            &grid,
            &grid,
            &Substitution::new(),
            &MatchConfig::default(),
            &SearchBudget::unlimited().with_node_limit(1),
            |_| {
                found = true;
                ControlFlow::Break(())
            },
        );
        assert!(!found);
        assert!(out.truncated, "a budgeted miss must be inconclusive");
    }

    #[test]
    fn callback_break_is_not_truncated() {
        // Found-and-stopped must be distinguishable from budget-exhausted.
        let pattern = set(&[atom(0, &[v(0), v(1)])]);
        let target = set(&[atom(0, &[c(0), c(1)])]);
        let out = for_each_homomorphism(
            &pattern,
            &target,
            &Substitution::new(),
            &MatchConfig::default(),
            |_| ControlFlow::Break(()),
        );
        assert!(!out.truncated);
    }

    #[test]
    fn budget_deadline_truncates_search() {
        use crate::budget::SearchBudget;
        let pattern = set(&[atom(0, &[v(0), v(1)])]);
        let target = set(&[atom(0, &[c(0), c(1)])]);
        let expired = SearchBudget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut found = false;
        let out = for_each_homomorphism_budgeted(
            &pattern,
            &target,
            &Substitution::new(),
            &MatchConfig::default(),
            &expired,
            |_| {
                found = true;
                ControlFlow::Break(())
            },
        );
        assert!(!found);
        assert!(out.truncated);
    }

    #[test]
    fn grid_pattern_matches_itself_quickly() {
        // 8×8 grid pattern onto itself — a smoke test that the
        // most-constrained-first ordering keeps this tractable.
        let n = 8u32;
        let idx = |i: u32, j: u32| v(i * n + j);
        let mut atoms = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i + 1 < n {
                    atoms.push(atom(0, &[idx(i, j), idx(i + 1, j)]));
                }
                if j + 1 < n {
                    atoms.push(atom(1, &[idx(i, j), idx(i, j + 1)]));
                }
            }
        }
        let grid = set(&atoms);
        assert!(maps_to(&grid, &grid));
    }
}
