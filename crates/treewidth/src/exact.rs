//! Exact treewidth via branch-and-bound over elimination orderings, plus
//! the degeneracy lower bound.
//!
//! The solver is a QuickBB-style search: a state is the set of already
//! eliminated vertices (the width contributed by a prefix is independent
//! of its internal order, so states memoize), branching on the next vertex
//! to eliminate, pruning with (a) the best width found so far, seeded with
//! the width of the min-fill order, (b) the minimum degree of the
//! remaining graph, and (c) the *simplicial vertex rule* — a vertex whose
//! neighbourhood is a clique can always be eliminated first without loss
//! of optimality. That is the only reduction rule; almost-simplicial
//! vertices are branched on like any other.
//!
//! The search runs on the crate's one elimination kernel
//! ([`crate::elimination`]), undoing each branch's elimination on return:
//! a vertex is simplicial when its elimination adds no fill edge.
//!
//! Intended for primal graphs of up to roughly 30–40 vertices, which
//! covers every structure appearing in the paper's figures. Larger
//! instances should use [`crate::treewidth_bounds`].

use std::collections::{BTreeSet, HashMap};

use chase_atoms::AtomSet;

use crate::elimination::{greedy, Elimination, Heuristic};
use crate::graph::Graph;

/// The degeneracy of the graph: `max` over the elimination process of the
/// minimum degree. This is a lower bound on treewidth (any tree
/// decomposition of width `w` yields, for every subgraph, a vertex of
/// degree ≤ `w`).
pub fn degeneracy_lower_bound(g: &Graph) -> usize {
    greedy(g, Heuristic::Degeneracy).width
}

struct Solver {
    graph: Elimination,
    best: usize,
    memo: HashMap<u128, usize>,
}

impl Solver {
    fn search(&mut self, alive: &mut BTreeSet<usize>, mask: u128, width_so_far: usize) {
        if width_so_far >= self.best {
            return; // cannot improve
        }
        if alive.len() <= 1 {
            self.best = self.best.min(width_so_far);
            return;
        }
        if alive.len().saturating_sub(1) <= width_so_far {
            // Eliminating the rest in any order cannot exceed width_so_far.
            self.best = self.best.min(width_so_far);
            return;
        }
        if let Some(&cached) = self.memo.get(&mask) {
            if cached <= width_so_far {
                return; // already explored this prefix-set at least as well
            }
        }
        self.memo.insert(mask, width_so_far);

        // The minimum live degree is a lower bound for the rest.
        let min_degree = alive.iter().map(|&v| self.graph.adj[v].len()).min();
        if min_degree.unwrap_or(0).max(width_so_far) >= self.best {
            return;
        }

        // Simplicial rule: eliminate a simplicial vertex greedily.
        let simplicial = alive.iter().copied().find(|&v| self.graph.fill_in(v) == 0);
        let candidates: Vec<usize> = match simplicial {
            Some(v) => vec![v],
            None => {
                let mut c: Vec<usize> = alive.iter().copied().collect();
                // Branch on low-degree vertices first.
                c.sort_by_key(|&v| self.graph.adj[v].len());
                c
            }
        };

        let mut fill = Vec::new();
        for v in candidates {
            let neighbors = self.graph.eliminate(v, &mut fill);
            alive.remove(&v);
            self.search(
                alive,
                mask | (1u128 << v),
                width_so_far.max(neighbors.len()),
            );
            alive.insert(v);
            self.graph.restore(v, neighbors, &fill);
        }
    }
}

/// Exact treewidth of a graph. Panics if the graph has more than 128
/// vertices (use [`crate::treewidth_bounds`] instead at that scale).
pub fn exact_treewidth_graph(g: &Graph) -> usize {
    let n = g.len();
    if n == 0 {
        return 0;
    }
    assert!(
        n <= 128,
        "exact treewidth solver supports at most 128 vertices (got {n})"
    );
    let ub = greedy(g, Heuristic::MinFill).width;
    let lb = degeneracy_lower_bound(g);
    if lb == ub {
        return ub;
    }
    let mut solver = Solver {
        graph: Elimination::new(g),
        best: ub,
        memo: HashMap::new(),
    };
    let mut alive: BTreeSet<usize> = (0..n).collect();
    solver.search(&mut alive, 0, lb);
    // `width_so_far` seeded with lb is sound: the true width is ≥ lb.
    solver.best
}

/// Exact treewidth of an atomset (treewidth of its primal graph).
pub fn exact_treewidth(a: &AtomSet) -> usize {
    exact_treewidth_graph(&Graph::primal(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::{Atom, PredId, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn atom(args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(0), args.to_vec())
    }

    fn edges(pairs: &[(u32, u32)]) -> AtomSet {
        pairs.iter().map(|&(a, b)| atom(&[v(a), v(b)])).collect()
    }

    #[test]
    fn empty_and_trivial() {
        assert_eq!(exact_treewidth(&AtomSet::new()), 0);
        let single: AtomSet = [Atom::new(PredId::from_raw(1), vec![v(0)])]
            .into_iter()
            .collect();
        assert_eq!(exact_treewidth(&single), 0);
    }

    #[test]
    fn path_is_one() {
        assert_eq!(exact_treewidth(&edges(&[(0, 1), (1, 2), (2, 3)])), 1);
    }

    #[test]
    fn cycle_is_two() {
        assert_eq!(
            exact_treewidth(&edges(&[(0, 1), (1, 2), (2, 3), (3, 0)])),
            2
        );
    }

    #[test]
    fn clique_is_n_minus_one() {
        let mut pairs = Vec::new();
        for i in 0..6u32 {
            for j in i + 1..6 {
                pairs.push((i, j));
            }
        }
        assert_eq!(exact_treewidth(&edges(&pairs)), 5);
    }

    #[test]
    fn grid_3x3_is_three() {
        // tw of the n×n grid graph is n for n ≥ 2.
        let n = 3u32;
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let id = i * n + j;
                if i + 1 < n {
                    pairs.push((id, id + n));
                }
                if j + 1 < n {
                    pairs.push((id, id + 1));
                }
            }
        }
        assert_eq!(exact_treewidth(&edges(&pairs)), 3);
    }

    #[test]
    fn grid_4x4_is_four() {
        let n = 4u32;
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let id = i * n + j;
                if i + 1 < n {
                    pairs.push((id, id + n));
                }
                if j + 1 < n {
                    pairs.push((id, id + 1));
                }
            }
        }
        assert_eq!(exact_treewidth(&edges(&pairs)), 4);
    }

    #[test]
    fn complete_bipartite_k33_is_three() {
        let mut pairs = Vec::new();
        for i in 0..3u32 {
            for j in 3..6u32 {
                pairs.push((i, j));
            }
        }
        assert_eq!(exact_treewidth(&edges(&pairs)), 3);
    }

    #[test]
    fn tree_is_one() {
        assert_eq!(
            exact_treewidth(&edges(&[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])),
            1
        );
    }

    #[test]
    fn degeneracy_bounds_tw_below() {
        let a = edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g = Graph::primal(&a);
        let lb = degeneracy_lower_bound(&g);
        assert!(lb <= exact_treewidth(&a));
        assert_eq!(lb, 2);
    }

    #[test]
    fn octahedron_is_four() {
        // K_{2,2,2}: 6 vertices, every pair adjacent except 3 disjoint
        // "antipodal" pairs. Treewidth 4.
        let mut pairs = Vec::new();
        for i in 0..6u32 {
            for j in i + 1..6 {
                // K6 minus the perfect matching {(0,3), (1,4), (2,5)}.
                if (i, j) != (0, 3) && (i, j) != (1, 4) && (i, j) != (2, 5) {
                    pairs.push((i, j));
                }
            }
        }
        assert_eq!(exact_treewidth(&edges(&pairs)), 4);
    }
}
