//! The backtracking homomorphism matcher.
//!
//! The matcher finds substitutions `π` with `π(pattern) ⊆ target`,
//! optionally extending a seed assignment and optionally subject to the
//! constraints in [`MatchConfig`] (injectivity, constant-only variables,
//! a node limit). Retractions are not searched here: the fold search in
//! `incremental.rs` is the crate's only retraction search.
//!
//! Search strategy: pattern atoms whose arguments are all determined by
//! the seed are resolved by one lookup each up front; then at each step
//! the search picks the unmatched pattern atom with the fewest candidate
//! target atoms under the current partial assignment
//! (most-constrained-first). Candidates are the *exact* intersection of
//! the target's positional `(pred, arity, position, term)` postings
//! ([`AtomSet::matching_ids`]), computed via bitset pruning — so the
//! selector ranks atoms by their true candidate count and the enumeration
//! visits exactly that set, in ascending atom-id order. This is the
//! classic CSP ordering used by CQ evaluators; it makes the crafted
//! instances in this workspace (grids, staircases, elevator columns)
//! match in near-linear time. `tests/matcher_differential.rs` checks the
//! enumeration against a brute-force enumerator in every constraint mode.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::ControlFlow;

use chase_atoms::{Atom, AtomId, AtomSet, IdBits, Substitution, Term, VarId};

use crate::budget::{SearchBudget, SearchOutcome};

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
    /// Abort the search after this many candidate trials (`None` =
    /// unbounded). A budgeted search that finds a homomorphism is still a
    /// certificate; a budgeted *miss* is inconclusive — callers that need
    /// refutations must leave this unset.
    pub node_limit: Option<usize>,
}

struct Search<'a> {
    pattern: Vec<&'a Atom>,
    target: &'a AtomSet,
    cfg: &'a MatchConfig,
    budget: &'a SearchBudget,
    /// Partial assignment. Ordered so both the search trajectory and the
    /// emitted substitutions are deterministic across runs and platforms.
    bind: BTreeMap<VarId, Term>,
    used_images: HashSet<Term>,
    /// Scratch bitset for posting intersection, reused across every node
    /// of the search ([`AtomSet::matching_ids`] leaves it clean).
    scratch: IdBits,
    matched: Vec<bool>,
    n_matched: usize,
    nodes: usize,
    truncated: bool,
}

impl<'a> Search<'a> {
    fn new(
        pattern: &'a AtomSet,
        target: &'a AtomSet,
        seed: &Substitution,
        cfg: &'a MatchConfig,
        budget: &'a SearchBudget,
    ) -> Option<Self> {
        let pattern_atoms: Vec<&Atom> = pattern.iter().collect();
        let mut s = Search {
            matched: vec![false; pattern_atoms.len()],
            pattern: pattern_atoms,
            target,
            cfg,
            budget,
            bind: BTreeMap::new(),
            used_images: HashSet::new(),
            scratch: IdBits::new(),
            n_matched: 0,
            nodes: 0,
            truncated: false,
        };
        for (v, t) in seed.iter() {
            let mut trail = Vec::new();
            if !s.try_bind(v, t, &mut trail) {
                return None;
            }
        }
        Some(s)
    }

    /// Attempts to bind `v ↦ t` under the active constraints, recording
    /// a new binding in `trail`.
    fn try_bind(&mut self, v: VarId, t: Term, trail: &mut Vec<VarId>) -> bool {
        if let Some(&existing) = self.bind.get(&v) {
            return existing == t;
        }
        if t.is_var() && self.cfg.const_only.contains(&v) {
            return false;
        }
        // Injectivity covers identity bindings too: `u ↦ u` after
        // `w ↦ u` would give `u` two preimages.
        if self.cfg.injective_vars && (!t.is_var() || self.used_images.contains(&t)) {
            return false;
        }
        self.bind.insert(v, t);
        if self.cfg.injective_vars {
            self.used_images.insert(t);
        }
        trail.push(v);
        true
    }

    fn undo(&mut self, trail: &[VarId]) {
        for &v in trail {
            if let Some(t) = self.bind.remove(&v) {
                if self.cfg.injective_vars {
                    self.used_images.remove(&t);
                }
            }
        }
    }

    /// Image of a pattern term under the current partial assignment, if
    /// determined.
    fn image(&self, t: Term) -> Option<Term> {
        match t {
            Term::Const(_) => Some(t),
            Term::Var(v) => self.bind.get(&v).copied(),
        }
    }

    /// Root-level fast path: a pattern atom whose arguments are all
    /// determined (constants, or variables bound by the seed) either has
    /// its image already in the target — matched without entering the
    /// backtracking search — or refutes the whole search conclusively.
    /// The constraints (`injective_vars`, `const_only`) restrict only
    /// *new* variable bindings, which determined atoms never create, so
    /// the shortcut is mode-independent. Resolved atoms are hash probes, not
    /// backtracking nodes, so they do not count against `nodes` budgets.
    fn resolve_determined(&mut self) -> bool {
        for i in 0..self.pattern.len() {
            let atom = self.pattern[i];
            let mut img: Vec<Term> = Vec::with_capacity(atom.arity());
            for &t in atom.args() {
                let Some(u) = self.image(t) else {
                    img.clear();
                    break;
                };
                img.push(u);
            }
            if img.len() < atom.arity() {
                continue;
            }
            if !self.target.contains(&Atom::new(atom.pred(), img)) {
                return false;
            }
            self.matched[i] = true;
            self.n_matched += 1;
        }
        true
    }

    /// Picks the unmatched pattern atom with the fewest candidates and
    /// returns its exact candidate set.
    ///
    /// Selection and enumeration are one pass: every unmatched atom's
    /// true candidate set is computed from the positional postings
    /// ([`AtomSet::matching_ids`]) and the smallest one is memoized as
    /// the winner — the count that ranks an atom is *exactly* the set the
    /// search will try, so the most-constrained-first ordering can no
    /// longer be misled by cross-predicate term occurrences.
    fn select(&mut self) -> (usize, Vec<&'a Atom>) {
        let target = self.target;
        let mut best_idx = usize::MAX;
        let mut best_count = usize::MAX;
        // Ids for the current best atom — only valid when `best_listed`:
        // atoms with ≤ 1 determined position are counted exactly through
        // two O(1) index lookups without materialising anything, and the
        // winner's list is (re)built once at the end.
        let mut best: Vec<AtomId> = Vec::new();
        let mut best_listed = false;
        let mut tmp: Vec<AtomId> = Vec::new();
        let mut bound: Vec<(usize, Term)> = Vec::new();
        for i in 0..self.pattern.len() {
            if self.matched[i] {
                continue;
            }
            let atom = self.pattern[i];
            bound.clear();
            for (pos, &t) in atom.args().iter().enumerate() {
                if let Some(img) = self.image(t) {
                    bound.push((pos, img));
                }
            }
            let (count, listed) = if bound.len() >= 2 {
                target.matching_ids(
                    atom.pred(),
                    atom.arity(),
                    &bound,
                    &mut self.scratch,
                    &mut tmp,
                );
                (tmp.len(), true)
            } else {
                (
                    target.matching_count(atom.pred(), atom.arity(), &bound),
                    false,
                )
            };
            if best_idx == usize::MAX || count < best_count {
                best_idx = i;
                best_count = count;
                best_listed = listed;
                if listed {
                    std::mem::swap(&mut best, &mut tmp);
                }
                if count == 0 {
                    break;
                }
            }
        }
        if !best_listed {
            if best_count == 0 {
                best.clear();
            } else {
                let atom = self.pattern[best_idx];
                bound.clear();
                for (pos, &t) in atom.args().iter().enumerate() {
                    if let Some(img) = self.image(t) {
                        bound.push((pos, img));
                    }
                }
                target.matching_ids(
                    atom.pred(),
                    atom.arity(),
                    &bound,
                    &mut self.scratch,
                    &mut best,
                );
            }
        }
        let atoms = best
            .iter()
            .map(|&id| target.get(id).expect("matching_ids returned dead id"))
            .collect();
        (best_idx, atoms)
    }

    fn try_unify(&mut self, pattern: &Atom, cand: &Atom, trail: &mut Vec<VarId>) -> bool {
        for (&pt, &tt) in pattern.args().iter().zip(cand.args()) {
            match pt {
                Term::Const(_) => {
                    if pt != tt {
                        return false;
                    }
                }
                Term::Var(v) => {
                    if !self.try_bind(v, tt, trail) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Depth-first enumeration on an explicit frame stack — one frame per
    /// pattern atom being matched, so a deep pattern never grows the
    /// thread's stack. Entering a node picks the next pattern atom (or
    /// reports a complete assignment to `on_found`); each frame then
    /// tries its candidates in order, undoing the previous candidate's
    /// bindings (one trail for the whole search) first.
    fn run(
        &mut self,
        on_found: &mut dyn FnMut(Substitution) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut stack: Vec<Frame<'a>> = Vec::new();
        let mut trail: Vec<VarId> = Vec::new();
        let mut enter = true;
        loop {
            if enter {
                enter = false;
                if self.n_matched == self.pattern.len() {
                    let sub = Substitution::from_pairs(self.bind.iter().map(|(&v, &t)| (v, t)));
                    if on_found(sub).is_break() {
                        return ControlFlow::Break(());
                    }
                } else {
                    let (idx, cands) = self.select();
                    if cands.is_empty() {
                        // A dead end: no frame (and no allocation) needed.
                        continue;
                    }
                    self.matched[idx] = true;
                    self.n_matched += 1;
                    stack.push(Frame {
                        idx,
                        cands,
                        next: 0,
                        mark: trail.len(),
                    });
                }
            }
            let Some(frame) = stack.last_mut() else {
                return ControlFlow::Continue(());
            };
            self.undo(&trail[frame.mark..]);
            trail.truncate(frame.mark);
            let Some(&cand) = frame.cands.get(frame.next) else {
                self.matched[frame.idx] = false;
                self.n_matched -= 1;
                stack.pop();
                continue;
            };
            frame.next += 1;
            self.nodes += 1;
            // A budget-exhausted break sets `truncated`, distinguishing it
            // from a callback-requested stop (which is a conclusive hit).
            let over_cfg_limit = self.cfg.node_limit.is_some_and(|l| self.nodes > l);
            if over_cfg_limit || self.budget.exhausted_at(self.nodes) {
                self.truncated = true;
                return ControlFlow::Break(());
            }
            let pattern_atom = self.pattern[frame.idx];
            enter = self.try_unify(pattern_atom, cand, &mut trail);
        }
    }
}

/// One open node of [`Search::run`]: the pattern atom being matched, its
/// candidate images, the next one to try and the binding-trail length
/// to undo back to before trying it.
struct Frame<'a> {
    idx: usize,
    cands: Vec<&'a Atom>,
    next: usize,
    mark: usize,
}

/// Enumerates homomorphisms `π` extending `seed` with
/// `π(pattern) ⊆ target`, subject to `cfg`, invoking `on_found` for each.
///
/// Return [`ControlFlow::Break`] from the callback to stop early. Each
/// reported substitution binds exactly the variables of `pattern` plus the
/// seed domain.
///
/// The returned [`SearchOutcome`] says whether the search was cut short by
/// [`MatchConfig::node_limit`]: a truncated enumeration that reported no
/// hit is **inconclusive**, not a refutation. Callers that need a
/// refutation must check `truncated` (or leave the limit unset).
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

/// [`for_each_homomorphism`] with an explicit [`SearchBudget`] layered on
/// top of `cfg.node_limit` (whichever bound trips first wins): the
/// budget's deadline and cancel flags are polled *inside* the
/// backtracking loop, so a cancel reaches a long answer search.
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
        return SearchOutcome {
            truncated: true,
            nodes: 0,
        };
    }
    let Some(mut search) = Search::new(pattern, target, seed, cfg, budget) else {
        // A contradictory seed refutes conclusively without any trials.
        return SearchOutcome::default();
    };
    if !search.resolve_determined() {
        // A determined atom with no image in the target refutes
        // conclusively; `nodes` keeps the lookups that got here.
        return SearchOutcome {
            truncated: false,
            nodes: search.nodes,
        };
    }
    let _ = search.run(&mut on_found);
    SearchOutcome {
        truncated: search.truncated,
        nodes: search.nodes,
    }
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

/// Collects *all* homomorphisms from `pattern` to `target`. Intended for
/// tests and small instances — the number of homomorphisms can be
/// exponential.
pub fn all_homomorphisms(pattern: &AtomSet, target: &AtomSet) -> Vec<Substitution> {
    let mut out = Vec::new();
    for_each_homomorphism(
        pattern,
        target,
        &Substitution::new(),
        &MatchConfig::default(),
        |sub| {
            out.push(sub);
            ControlFlow::Continue(())
        },
    );
    out
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
    fn counts_all_homomorphisms() {
        // r(X, Y) into a 2-clique-with-loops has 4 homomorphisms... use
        // target {r(a,a), r(a,b), r(b,a), r(b,b)}: 4 homs.
        let pattern = set(&[atom(0, &[v(0), v(1)])]);
        let target = set(&[
            atom(0, &[c(0), c(0)]),
            atom(0, &[c(0), c(1)]),
            atom(0, &[c(1), c(0)]),
            atom(0, &[c(1), c(1)]),
        ]);
        assert_eq!(all_homomorphisms(&pattern, &target).len(), 4);
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
        let cfg = MatchConfig {
            node_limit: Some(1),
            ..MatchConfig::default()
        };
        let mut found = false;
        let out = for_each_homomorphism(&grid, &grid, &Substitution::new(), &cfg, |_| {
            found = true;
            ControlFlow::Break(())
        });
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
