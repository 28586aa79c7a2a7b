//! The quadratic greedy elimination that the kernel in `elimination.rs`
//! replaced, kept as the reference its orders and widths are tested
//! against. Every pass rescans every live vertex and picks the first
//! minimum of `(score, v)` over ascending `v`.
//!
//! Compiled only into tests: the crate's unit tests, and
//! `tests/treewidth_integration.rs` through `#[path]`. It depends on the
//! standard library alone, so both can include it.

use std::collections::BTreeSet;

/// The greedy elimination order for `score`, over an adjacency list.
pub fn greedy_order(
    mut adj: Vec<BTreeSet<usize>>,
    mut score: impl FnMut(&Vec<BTreeSet<usize>>, usize) -> usize,
) -> Vec<usize> {
    let n = adj.len();
    let mut alive: BTreeSet<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&best) = alive.iter().min_by_key(|&&v| (score(&adj, v), v)) {
        let neighbors: Vec<usize> = adj[best].iter().copied().collect();
        for (i, &x) in neighbors.iter().enumerate() {
            for &y in &neighbors[i + 1..] {
                adj[x].insert(y);
                adj[y].insert(x);
            }
        }
        for &u in &neighbors {
            adj[u].remove(&best);
        }
        adj[best].clear();
        alive.remove(&best);
        order.push(best);
    }
    order
}

/// The min-degree order.
pub fn min_degree_order(adj: Vec<BTreeSet<usize>>) -> Vec<usize> {
    greedy_order(adj, |adj, v| adj[v].len())
}

/// The min-fill order.
pub fn min_fill_order(adj: Vec<BTreeSet<usize>>) -> Vec<usize> {
    greedy_order(adj, |adj, v| {
        let neigh: Vec<usize> = adj[v].iter().copied().collect();
        let mut fill = 0usize;
        for (i, &x) in neigh.iter().enumerate() {
            for &y in &neigh[i + 1..] {
                if !adj[x].contains(&y) {
                    fill += 1;
                }
            }
        }
        fill
    })
}

/// The degeneracy: the largest minimum degree met while repeatedly
/// deleting a vertex of minimum degree.
pub fn degeneracy(mut adj: Vec<BTreeSet<usize>>) -> usize {
    let mut alive: BTreeSet<usize> = (0..adj.len()).collect();
    let mut best = 0usize;
    while !alive.is_empty() {
        let &v = alive
            .iter()
            .min_by_key(|&&v| adj[v].len())
            .expect("alive nonempty");
        best = best.max(adj[v].len());
        let neigh: Vec<usize> = adj[v].iter().copied().collect();
        for u in neigh {
            adj[u].remove(&v);
        }
        adj[v].clear();
        alive.remove(&v);
    }
    best
}
