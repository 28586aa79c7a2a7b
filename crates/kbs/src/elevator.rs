//! The **inflating elevator** knowledge base `K_v` (Section 7,
//! Figures 3–4): its rules and analytic models.
//!
//! ## The KB
//!
//! ```text
//! F_v  = { c(X⁰₀), d(X⁰₀), h(X⁰₀, X¹₀), f(X¹₀) }
//! R1v: c(X) ∧ h(X,Y) → ∃Y′,Y″. v(Y,Y′) ∧ v(Y′,Y″) ∧ c(Y″)
//! R2v: d(X) ∧ f(X) ∧ v(X,X′) → ∃Y′. h(X′,Y′) ∧ f(Y′)
//! R3v: v(X,X′) ∧ h(X,Y) → ∃Y′. v(Y,Y′) ∧ h(X′,Y′)
//! R4v: c(X) → d(X)
//! R5v: v(X,X′) ∧ d(X′) → d(X)
//! R6v: h(X,Y) ∧ d(Y) ∧ f(Y) → f(X) ∧ v(X,X)
//! R7v: c(X) ∧ h(X,Y) ∧ v(Y,Y′) ∧ f(Y′) → h(X,Y′)
//! ```
//!
//! ## The analytic universal model `I^v` (Definition 10)
//!
//! Terms `X^i_j` for `max(0, i−1) ≤ j ≤ 2i` (column `i`, height `j`);
//! atoms, for all valid indices:
//!
//! * `d(X^i_j)` and `f(X^i_j)` everywhere;
//! * `c(X^i_{2i})` at the column tops;
//! * `h(X^i_j, X^{i+1}_j)` for `i ≤ j ≤ 2i` (same-height horizontals);
//! * `h(X^i_{2i}, X^{i+1}_{2i+1})` and `h(X^i_{2i}, X^{i+1}_{2i+2})`
//!   (diagonals produced by `R7v`);
//! * `v(X^i_j, X^i_{j+1})` within columns;
//! * `v(X^i_j, X^i_j)` for `j ≥ i` (v-loops).
//!
//! `I^v*` (Definition 11) is the sub-instance on the tops `X^i_{2i}` — a
//! universal model of treewidth 1. The cabins `I^v_n` (Definition 12) are
//! cores of treewidth ≥ ⌈n/3⌉ + 1 that every core-chase sequence must
//! eventually contain (Proposition 8); this module reconstructs them from
//! the (partly garbled) extracted definition and machine-checks core-ness.

use std::collections::HashMap;

use chase_atoms::{Atom, AtomSet, PredId, Term, VarId, Vocabulary};
use chase_engine::RuleSet;
use chase_parser::parse_program;
use chase_treewidth::GridLabeling;

/// The inflating elevator KB with its grid-named nulls.
pub struct Elevator {
    /// Symbol tables (grid nulls are named `X{i}_{j}`).
    pub vocab: Vocabulary,
    /// The ruleset `Σ_v = {R1v, …, R7v}`.
    pub rules: RuleSet,
    /// The fact set `F_v`.
    pub facts: AtomSet,
    c: PredId,
    d: PredId,
    f: PredId,
    h: PredId,
    v: PredId,
    grid: HashMap<(u32, u32), VarId>,
}

impl Elevator {
    /// Builds the KB.
    pub fn new() -> Self {
        let src = "
            R1v: c(X), h(X, Y) -> v(Y, Y'), v(Y', Y''), c(Y'').
            R2v: d(X), f(X), v(X, X') -> h(X', Y'), f(Y').
            R3v: v(X, X'), h(X, Y) -> v(Y, Y'), h(X', Y').
            R4v: c(X) -> d(X).
            R5v: v(X, X'), d(X') -> d(X).
            R6v: h(X, Y), d(Y), f(Y) -> f(X), v(X, X).
            R7v: c(X), h(X, Y), v(Y, Y'), f(Y') -> h(X, Y').
        ";
        let prog = parse_program(src).expect("elevator rules parse");
        let mut vocab = prog.vocab;
        let c = vocab.pred("c", 1);
        let d = vocab.pred("d", 1);
        let f = vocab.pred("f", 1);
        let h = vocab.pred("h", 2);
        let v = vocab.pred("v", 2);
        let mut this = Elevator {
            vocab,
            rules: prog.rules,
            facts: AtomSet::new(),
            c,
            d,
            f,
            h,
            v,
            grid: HashMap::new(),
        };
        let x00 = this.x(0, 0);
        let x10 = this.x(1, 0);
        this.facts.insert(Atom::new(c, vec![x00]));
        this.facts.insert(Atom::new(d, vec![x00]));
        this.facts.insert(Atom::new(h, vec![x00, x10]));
        this.facts.insert(Atom::new(f, vec![x10]));
        this
    }

    /// The grid null `X^i_j` (minted on first use, named `X{i}_{j}`).
    pub fn x(&mut self, i: u32, j: u32) -> Term {
        let id = *self.grid.entry((i, j)).or_insert_with(|| {
            let id = self.vocab.fresh_var();
            self.vocab.set_var_name(id, &format!("X{i}_{j}"));
            id
        });
        Term::Var(id)
    }

    /// Does term `X^i_j` exist in `I^v`?
    fn exists(i: u32, j: u32) -> bool {
        j + 1 >= i && j <= 2 * i
    }

    fn unary(&mut self, p: PredId, i: u32, j: u32) -> Atom {
        let t = self.x(i, j);
        Atom::new(p, vec![t])
    }

    fn binary(&mut self, p: PredId, a: (u32, u32), b: (u32, u32)) -> Atom {
        let ta = self.x(a.0, a.1);
        let tb = self.x(b.0, b.1);
        Atom::new(p, vec![ta, tb])
    }

    /// The prefix of `I^v` with columns `0..=m`.
    pub fn universal_prefix(&mut self, m: u32) -> AtomSet {
        let mut out = AtomSet::new();
        for i in 0..=m {
            let lo = i.saturating_sub(1);
            for j in lo..=2 * i {
                out.insert(self.unary(self.d, i, j));
                out.insert(self.unary(self.f, i, j));
                if j == 2 * i {
                    out.insert(self.unary(self.c, i, j));
                }
                if j >= i {
                    out.insert(self.binary(self.v, (i, j), (i, j)));
                }
                if j < 2 * i {
                    out.insert(self.binary(self.v, (i, j), (i, j + 1)));
                }
                if i < m && j >= i && Self::exists(i + 1, j) {
                    out.insert(self.binary(self.h, (i, j), (i + 1, j)));
                }
            }
            if i < m {
                out.insert(self.binary(self.h, (i, 2 * i), (i + 1, 2 * i + 1)));
                out.insert(self.binary(self.h, (i, 2 * i), (i + 1, 2 * i + 2)));
            }
        }
        out
    }

    /// The prefix of the spine `I^v*` (Definition 11) with columns
    /// `0..=m`: the sub-instance of `I^v` on the tops `X^i_{2i}` — a
    /// universal model of treewidth 1.
    pub fn spine_prefix(&mut self, m: u32) -> AtomSet {
        let mut out = AtomSet::new();
        for i in 0..=m {
            let j = 2 * i;
            out.insert(self.unary(self.c, i, j));
            out.insert(self.unary(self.d, i, j));
            out.insert(self.unary(self.f, i, j));
            out.insert(self.binary(self.v, (i, j), (i, j)));
            if i < m {
                out.insert(self.binary(self.h, (i, j), (i + 1, 2 * i + 2)));
            }
        }
        out
    }

    /// The cabin `I^v_n` (Definition 12, reconstructed): the sub-instance
    /// of `I^v` induced by the spine tops `X^i_{2i}` for `2i ≤ n` together
    /// with the band `{X^i_j | i ≤ n+1, j ≥ n}`, minus
    ///
    /// * v-loops and `f` at heights `j > n`, and
    /// * height-increasing `h`-atoms `h(X^i_j, X^{i+1}_k)` with `k > j`
    ///   and `k > n`.
    pub fn cabin(&mut self, n: u32) -> AtomSet {
        let mut keep: Vec<(u32, u32)> = Vec::new();
        for i in 0..=n + 1 {
            for j in i.saturating_sub(1)..=2 * i {
                let spine = j == 2 * i && 2 * i <= n;
                let band = j >= n;
                if spine || band {
                    keep.push((i, j));
                }
            }
        }
        let full = self.universal_prefix(n + 1);
        let keep_terms: std::collections::BTreeSet<Term> =
            keep.iter().map(|&(i, j)| self.x(i, j)).collect();
        let induced = full.induced_by_terms(&keep_terms);
        // Reverse map term → height for the atom filters.
        let heights: HashMap<Term, u32> = self
            .grid
            .iter()
            .map(|(&(_, j), &v)| (Term::Var(v), j))
            .collect();
        let mut out = AtomSet::new();
        for atom in induced.iter() {
            let height = |t: Term| -> u32 { heights[&t] };
            let p = atom.pred();
            if p == self.v && atom.args()[0] == atom.args()[1] && height(atom.args()[0]) > n {
                continue;
            }
            if p == self.f && height(atom.args()[0]) > n {
                continue;
            }
            if p == self.h && atom.args()[0] != atom.args()[1] {
                let j0 = height(atom.args()[0]);
                let j1 = height(atom.args()[1]);
                if j1 > j0 && j1 > n {
                    continue;
                }
            }
            out.insert(atom.clone());
        }
        out
    }

    /// The grid labeling inside the cabin used by the Proposition 8.2
    /// proof: terms `X^i_k` with `⌊2n/3⌋ + 1 ≤ i ≤ n + 1` and
    /// `n ≤ k ≤ ⌈4n/3⌉`, witnessing a `(⌊n/3⌋ + 1) × (⌊n/3⌋ + 1)`-grid.
    pub fn cabin_grid_labeling(&mut self, n: u32) -> GridLabeling {
        let side = (n / 3 + 1) as usize;
        let i0 = 2 * n / 3 + 1;
        let k0 = n;
        GridLabeling::from_fn(side, |a, b| self.x(i0 + a as u32, k0 + b as u32))
    }
}

impl Default for Elevator {
    fn default() -> Self {
        Elevator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::{run_chase, ChaseConfig, ChaseVariant, SchedulerKind};
    use chase_homomorphism::{is_core, maps_to};
    use chase_treewidth::{contains_grid, treewidth, treewidth_bounds};

    #[test]
    fn facts_embed_in_models() {
        let mut e = Elevator::new();
        let prefix = e.universal_prefix(4);
        let spine = e.spine_prefix(4);
        assert!(maps_to(&e.facts, &prefix));
        assert!(maps_to(&e.facts, &spine));
    }

    #[test]
    fn spine_is_treewidth_one_and_inside_prefix() {
        let mut e = Elevator::new();
        let spine = e.spine_prefix(6);
        assert_eq!(treewidth(&spine), 1);
        let prefix = e.universal_prefix(6);
        assert!(spine.is_subset_of(&prefix), "I^v* ⊆ I^v");
    }

    #[test]
    fn prefix_contains_growing_grids() {
        // Same-height horizontals plus verticals form grids in the band.
        let mut e = Elevator::new();
        let n = 6;
        let prefix = e.universal_prefix(n + 1);
        let lab = e.cabin_grid_labeling(n);
        assert!(contains_grid(&prefix, &lab));
    }

    #[test]
    fn cabin_contains_its_grid() {
        let mut e = Elevator::new();
        for n in [3u32, 6] {
            let cabin = e.cabin(n);
            let lab = e.cabin_grid_labeling(n);
            assert!(contains_grid(&cabin, &lab), "n = {n}");
            let b = treewidth_bounds(&cabin);
            assert!(
                b.upper as u32 > n / 3,
                "tw(cabin {n}) upper {} below grid bound",
                b.upper
            );
        }
    }

    #[test]
    fn cabins_are_cores() {
        let mut e = Elevator::new();
        for n in [1u32, 2, 3] {
            let cabin = e.cabin(n);
            assert!(is_core(&cabin), "I^v_{n} must be a core");
        }
    }

    #[test]
    fn restricted_chase_approximates_universal_model() {
        let mut e = Elevator::new();
        // Proposition 6, direction 1: a small I^v prefix maps into a deep
        // chase (column 1 completes only after ~200 applications because
        // `f` propagates right-to-left through later columns).
        let mut vocab = e.vocab.clone();
        let deep_cfg = ChaseConfig::variant(ChaseVariant::Restricted)
            .with_scheduler(SchedulerKind::DatalogFirst)
            .with_max_applications(300);
        let deep = run_chase(&mut vocab, &e.facts, &e.rules, &deep_cfg);
        let small = e.universal_prefix(1);
        assert!(
            maps_to(&small, &deep.final_instance),
            "I^v prefix must appear in the restricted chase"
        );
        // Direction 2: the chase stays within I^v. The chase-side pattern
        // of this homomorphism must stay moderate (large patterns with
        // many interchangeable nulls thrash the backtracking search), so
        // check it on a 140-application element; monotonicity makes that
        // subsume all earlier elements.
        let mut vocab = e.vocab.clone();
        let mid_cfg = ChaseConfig::variant(ChaseVariant::Restricted)
            .with_scheduler(SchedulerKind::DatalogFirst)
            .with_max_applications(140);
        let mid = run_chase(&mut vocab, &e.facts, &e.rules, &mid_cfg);
        let big = e.universal_prefix(10);
        assert!(
            maps_to(&mid.final_instance, &big),
            "the restricted chase must stay within I^v"
        );
    }

    #[test]
    fn core_chase_treewidth_grows() {
        // Corollary 1 (shape): the core chase's instances develop growing
        // certified grid structure. We run a modest budget and check the
        // certified upper bound exceeds 1 eventually (the spine alone
        // would stay at 1).
        let e = Elevator::new();
        let mut vocab = e.vocab.clone();
        let cfg = ChaseConfig::variant(ChaseVariant::Core)
            .with_scheduler(SchedulerKind::DatalogFirst)
            .with_max_applications(40);
        let res = run_chase(&mut vocab, &e.facts, &e.rules, &cfg);
        assert!(!res.outcome.terminated(), "K_v must not terminate");
        let bound = chase_engine::boundedness::certified_uniform_bound(&res.derivation);
        assert!(
            bound >= 2,
            "core chase should exceed treewidth 1, got {bound}"
        );
    }
}
