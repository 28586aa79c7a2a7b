//! Elimination orderings, the greedy heuristics that choose them, and the
//! decompositions they induce.
//!
//! Eliminating `v` makes `N(v)` a clique and removes `v`. Doing so for
//! every vertex yields a tree decomposition with one bag `{v} ∪ N(v)` per
//! vertex, so an order's width is its largest degree at elimination time,
//! read without building a bag. The treewidth is the minimum over all
//! orders, which is what the exact solver branches on.
//!
//! `Elimination` is the crate's one elimination kernel: a flat adjacency
//! copied once from the [`Graph`], plus a stamp array. `eliminate(v)` costs
//! `Σ_{u ∈ N(v)} (deg u + |N(v)|)`; `fill_in(v)` counts the missing edges
//! inside `N(v)` in one stamp pass over the neighbours' lists; `restore`
//! undoes an elimination, for the exact solver's branch-and-bound.
//!
//! `greedy` eliminates the live vertex of least `(score, v)`, the one a
//! `min_by_key` over ascending vertex indices picks, from a `BTreeSet`
//! keyed by `(score, v)`. It rescores only the vertices an elimination can
//! change: `N(v)` for min-degree and degeneracy; for min-fill also the
//! common neighbours of the two endpoints of each fill edge added, since a
//! fill count changes only when the neighbourhood changes or an edge
//! appears inside it. A simplicial elimination (every leaf of a tree) thus
//! rescores just its neighbours: `2n − 1` evaluations on a tree, where
//! rescanning every live vertex at every step takes about `n²/2`.

use std::collections::BTreeSet;

use chase_atoms::AtomSet;

use crate::decomposition::TreeDecomposition;
use crate::graph::Graph;

/// A working copy of a graph that vertices are eliminated from.
pub(crate) struct Elimination {
    /// The live vertices' neighbour lists; an eliminated vertex's is empty.
    pub(crate) adj: Vec<Vec<usize>>,
    stamp: Vec<usize>,
    epoch: usize,
}

impl Elimination {
    pub(crate) fn new(g: &Graph) -> Self {
        let adj = (0..g.len()).map(|v| g.neighbors(v).iter().copied().collect());
        let (adj, stamp, epoch) = (adj.collect(), vec![0; g.len()], 0);
        Elimination { adj, stamp, epoch }
    }

    /// Stamps the current neighbours of `v` and returns the stamp.
    fn mark(&mut self, v: usize) -> usize {
        self.epoch += 1;
        for &u in &self.adj[v] {
            self.stamp[u] = self.epoch;
        }
        self.epoch
    }

    /// The members of `adj[x]` carrying stamp `e`.
    fn marked(&self, x: usize, e: usize) -> impl Iterator<Item = &usize> {
        self.adj[x].iter().filter(move |&&y| self.stamp[y] == e)
    }

    /// The number of missing edges inside `N(v)`.
    pub(crate) fn fill_in(&mut self, v: usize) -> usize {
        let e = self.mark(v);
        let inside: usize = self.adj[v].iter().map(|&x| self.marked(x, e).count()).sum();
        let d = self.adj[v].len();
        d * d.saturating_sub(1) / 2 - inside / 2
    }

    /// Removes `v` and returns its former neighbours.
    fn remove(&mut self, v: usize) -> Vec<usize> {
        let neighbors = std::mem::take(&mut self.adj[v]);
        for &x in &neighbors {
            self.adj[x].retain(|&y| y != v);
        }
        neighbors
    }

    /// Eliminates `v`: removes it, makes its former neighbours a clique,
    /// sets `fill` to the fill edges added and returns the neighbours.
    pub(crate) fn eliminate(&mut self, v: usize, fill: &mut Vec<(usize, usize)>) -> Vec<usize> {
        let neighbors = self.remove(v);
        fill.clear();
        for &x in &neighbors {
            let e = self.mark(x);
            for &y in &neighbors {
                if y != x && self.stamp[y] != e {
                    self.adj[x].push(y);
                    if x < y {
                        fill.push((x, y));
                    }
                }
            }
        }
        neighbors
    }

    /// Undoes `eliminate(v)`, given the neighbours and fill edges it
    /// returned. Neighbour lists come back as sets, not in their old order.
    pub(crate) fn restore(&mut self, v: usize, neighbors: Vec<usize>, fill: &[(usize, usize)]) {
        for &(x, y) in fill {
            self.adj[x].retain(|&z| z != y);
            self.adj[y].retain(|&z| z != x);
        }
        for &x in &neighbors {
            self.adj[x].push(v);
        }
        self.adj[v] = neighbors;
    }
}

/// The score a greedy elimination minimises.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Heuristic {
    /// Degree, deleting without fill: the width is the degeneracy.
    Degeneracy,
    /// Degree at elimination time.
    MinDegree,
    /// Fill edges the elimination would add.
    MinFill,
}

/// A greedy elimination order, its width and its score-evaluation count.
pub(crate) struct Greedy {
    pub(crate) order: Vec<usize>,
    pub(crate) width: usize,
    #[cfg_attr(not(test), allow(dead_code))] // pinned by the complexity test
    pub(crate) evaluations: usize,
}

/// Repeatedly eliminates the live vertex of least `(score, v)`.
pub(crate) fn greedy(g: &Graph, heuristic: Heuristic) -> Greedy {
    let n = g.len();
    let mut k = Elimination::new(g);
    let score = |k: &mut Elimination, v: usize| match heuristic {
        Heuristic::MinFill => k.fill_in(v),
        Heuristic::Degeneracy | Heuristic::MinDegree => k.adj[v].len(),
    };
    let mut scores: Vec<usize> = (0..n).map(|v| score(&mut k, v)).collect();
    let mut queue: BTreeSet<(usize, usize)> = (0..n).map(|v| (scores[v], v)).collect();
    let (mut order, mut width, mut evaluations) = (Vec::with_capacity(n), 0, n);
    let mut fill = Vec::new();
    while let Some((_, v)) = queue.pop_first() {
        width = width.max(k.adj[v].len());
        order.push(v);
        let mut dirty = match heuristic {
            Heuristic::Degeneracy => k.remove(v),
            Heuristic::MinDegree | Heuristic::MinFill => k.eliminate(v, &mut fill),
        };
        if heuristic == Heuristic::MinFill {
            for &(x, y) in &fill {
                let e = k.mark(x);
                dirty.extend(k.marked(y, e));
            }
            dirty.sort_unstable();
            dirty.dedup();
        }
        evaluations += dirty.len();
        for u in dirty {
            let s = score(&mut k, u);
            if s != scores[u] {
                queue.remove(&(scores[u], u));
                queue.insert((s, u));
                scores[u] = s;
            }
        }
    }
    Greedy {
        order,
        width,
        evaluations,
    }
}

/// Builds the tree decomposition induced by an elimination order
/// (given as graph vertex indices; must be a permutation of all vertices).
pub fn decomposition_from_order(g: &Graph, order: &[usize]) -> TreeDecomposition {
    let n = g.len();
    assert_eq!(order.len(), n, "order must cover all vertices");
    // position[v] = index in `order` at which v is eliminated.
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let mut k = Elimination::new(g);
    let (mut fill, mut bags, mut edges) = (Vec::new(), Vec::with_capacity(n), Vec::new());
    for (step, &v) in order.iter().enumerate() {
        let neighbors = k.eliminate(v, &mut fill);
        bags.push(neighbors.iter().chain([&v]).map(|&u| g.term(u)).collect());
        // Bag `step` hangs below its neighbour eliminated next; a component's
        // last bag links to the next bag in order, keeping a single tree.
        match neighbors.iter().map(|&u| position[u]).min() {
            Some(parent) => edges.push((step, parent)),
            None if step + 1 < n => edges.push((step, step + 1)),
            None => {}
        }
    }
    TreeDecomposition { bags, edges }
}

/// The min-degree heuristic: repeatedly eliminate a vertex of minimum
/// current degree. Returns a valid decomposition of `a`.
pub fn min_degree_decomposition(a: &AtomSet) -> TreeDecomposition {
    let g = Graph::primal(a);
    decomposition_from_order(&g, &greedy(&g, Heuristic::MinDegree).order)
}

/// The min-fill heuristic: repeatedly eliminate the vertex whose
/// elimination adds the fewest fill edges. Returns a valid decomposition
/// of `a`.
pub fn min_fill_decomposition(a: &AtomSet) -> TreeDecomposition {
    let g = Graph::primal(a);
    decomposition_from_order(&g, &greedy(&g, Heuristic::MinFill).order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use chase_atoms::{Atom, PredId, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(pr), args.to_vec())
    }

    fn path(n: u32) -> AtomSet {
        (0..n - 1).map(|i| atom(0, &[v(i), v(i + 1)])).collect()
    }

    fn cycle(n: u32) -> AtomSet {
        (0..n).map(|i| atom(0, &[v(i), v((i + 1) % n)])).collect()
    }

    fn clique(n: u32) -> AtomSet {
        let mut atoms = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                atoms.push(atom(0, &[v(i), v(j)]));
            }
        }
        atoms.into_iter().collect()
    }

    #[test]
    fn path_has_width_one() {
        let a = path(10);
        let td = min_degree_decomposition(&a);
        assert!(td.validate(&a).is_ok());
        assert_eq!(td.width(), 1);
        let tf = min_fill_decomposition(&a);
        assert!(tf.validate(&a).is_ok());
        assert_eq!(tf.width(), 1);
    }

    #[test]
    fn cycle_has_width_two() {
        let a = cycle(8);
        let td = min_fill_decomposition(&a);
        assert!(td.validate(&a).is_ok());
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn clique_has_width_n_minus_one() {
        let a = clique(5);
        let td = min_degree_decomposition(&a);
        assert!(td.validate(&a).is_ok());
        assert_eq!(td.width(), 4);
    }

    #[test]
    fn disconnected_components_handled() {
        let mut a = path(4);
        a.extend([atom(0, &[v(100), v(101)]), atom(0, &[v(101), v(102)])]);
        let td = min_degree_decomposition(&a);
        assert!(td.validate(&a).is_ok(), "{:?}", td.validate(&a));
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn singleton_vertex() {
        let a: AtomSet = [atom(1, &[v(0)])].into_iter().collect();
        let td = min_fill_decomposition(&a);
        assert!(td.validate(&a).is_ok());
        assert_eq!(td.width(), 0);
    }

    #[test]
    fn decomposition_from_explicit_order() {
        let a = path(4);
        let g = Graph::primal(&a);
        // Eliminate in label order — also yields width 1 on a path.
        let order: Vec<usize> = (0..g.len()).collect();
        let td = decomposition_from_order(&g, &order);
        assert!(td.validate(&a).is_ok());
    }

    #[test]
    fn bad_order_still_valid_just_wider() {
        // Eliminating the middle of a star first gives a big bag, but the
        // decomposition must still validate.
        let mut atoms = Vec::new();
        for i in 1..=6 {
            atoms.push(atom(0, &[v(0), v(i)]));
        }
        let a: AtomSet = atoms.into_iter().collect();
        let g = Graph::primal(&a);
        let center = g.vertex(v(0)).unwrap();
        let mut order = vec![center];
        order.extend((0..g.len()).filter(|&i| i != center));
        let td = decomposition_from_order(&g, &order);
        assert!(td.validate(&a).is_ok());
        assert_eq!(td.width(), 6);
        // The heuristic does better:
        assert_eq!(min_degree_decomposition(&a).width(), 1);
    }

    /// splitmix64: a seeded stream for the random atomsets below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// Up to 60 variables in atoms of arity 1–3, from sparse to dense;
    /// about a third of them split the variables into two components.
    fn random_atomset(seed: u64) -> AtomSet {
        let mut rng = Rng(seed);
        let vars = 1 + rng.below(60) as u32;
        let atoms = 1 + rng.below(u64::from(vars) * (1 + seed % 4));
        let split = rng.below(3) == 0;
        (0..atoms)
            .map(|_| {
                let (lo, len) = match (split, rng.below(2)) {
                    (true, 0) => (0, vars.div_ceil(2)),
                    (true, _) => (vars.div_ceil(2), vars / 2 + 1),
                    (false, _) => (0, vars),
                };
                let arity = 1 + rng.below(3) as usize;
                let args: Vec<Term> = (0..arity)
                    .map(|_| v(lo + rng.below(u64::from(len)) as u32))
                    .collect();
                atom(arity as u32, &args)
            })
            .collect()
    }

    #[test]
    fn kernel_orders_match_the_quadratic_oracle() {
        for seed in 0..1000 {
            let a = random_atomset(seed);
            let g = Graph::primal(&a);
            let degeneracy = greedy(&g, Heuristic::Degeneracy).width;
            assert_eq!(degeneracy, oracle::degeneracy(g.adjacency()), "seed {seed}");
            for (h, reference) in [
                (
                    Heuristic::MinDegree,
                    oracle::min_degree_order(g.adjacency()),
                ),
                (Heuristic::MinFill, oracle::min_fill_order(g.adjacency())),
            ] {
                let run = greedy(&g, h);
                assert_eq!(run.order, reference, "{h:?} order, seed {seed}");
                let td = decomposition_from_order(&g, &run.order);
                let valid = td.validate(&a);
                assert!(valid.is_ok(), "{h:?}, seed {seed}: {valid:?}");
                assert_eq!(td.width(), run.width, "{h:?} width, seed {seed}");
            }
        }
    }

    #[test]
    fn floored_upper_bound_agrees_above_its_floor() {
        for seed in 0..300 {
            let a = random_atomset(seed);
            let upper = crate::treewidth_bounds(&a).upper;
            let min_degree = greedy(&Graph::primal(&a), Heuristic::MinDegree).width;
            // The floors at which the answer can change: around the
            // upper bound and around min-degree's width.
            let floors = [upper, min_degree].map(|w| [w.saturating_sub(1), w, w + 1]);
            for floor in floors.into_iter().flatten().chain([0]) {
                let got = crate::treewidth_upper_above(&a, floor);
                assert_eq!(got.width.max(floor), upper.max(floor), "seed {seed}");
                assert!(got.width >= upper, "seed {seed}: not an upper bound");
                assert_eq!(got.min_fill, min_degree > floor, "seed {seed}");
            }
            assert_eq!(crate::treewidth_upper_above(&a, 0).width, upper);
        }
    }

    #[test]
    fn score_evaluations_on_a_ternary_tree_are_linear() {
        // Vertex i > 0 hangs below vertex (i - 1) / 3. Every elimination
        // removes a leaf and rescores its parent only: n + (n - 1).
        let n = 3252;
        let a: AtomSet = (1..n).map(|i| atom(0, &[v((i - 1) / 3), v(i)])).collect();
        let g = Graph::primal(&a);
        assert_eq!(g.len(), n as usize);
        for h in [
            Heuristic::Degeneracy,
            Heuristic::MinDegree,
            Heuristic::MinFill,
        ] {
            let run = greedy(&g, h);
            assert_eq!(run.width, 1, "{h:?}");
            assert_eq!(run.evaluations, 6503, "{h:?}");
            assert!(run.evaluations <= 8 * g.len(), "{h:?}");
        }
    }
}
