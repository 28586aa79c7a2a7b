//! # chase-treewidth
//!
//! Treewidth machinery for atomsets, implementing Section 4 of *Bounded
//! Treewidth and the Infinite Core Chase* (PODS 2023):
//!
//! * the **primal (Gaifman) graph** of an atomset ([`Graph::primal`]);
//! * **tree decompositions** (Definition 4) with an independent validator
//!   ([`TreeDecomposition::validate`]);
//! * **heuristic** upper bounds from greedy min-degree / min-fill
//!   elimination orders, one kernel rescoring only what each elimination
//!   touches ([`treewidth_bounds`] and the floor-aware
//!   [`treewidth_upper_above`] read widths without building bags;
//!   [`min_degree_decomposition`] / [`min_fill_decomposition`] build them);
//! * an **exact** branch-and-bound solver over elimination orderings with
//!   memoization and the simplicial-vertex reduction ([`exact_treewidth`]);
//! * a degeneracy-based **lower bound** ([`degeneracy_lower_bound`]) —
//!   `tw(G) ≥ degeneracy(G)` since every subgraph of `G` has a vertex of
//!   degree at most `tw(G)`;
//! * **grid containment** per Definition 5 ([`contains_grid`]), giving the
//!   paper's Fact 2 lower bound `tw(A) ≥ n` when `A` contains an
//!   `n × n`-grid;
//! * **pathwidth** via vertex separation ([`exact_pathwidth`]) — a second
//!   structural measure demonstrating Section 5's remark that the
//!   grid-based counterexamples transfer beyond treewidth;
//! * **structural measures** and the uniform/recurring boundedness notions
//!   of Section 5 ([`measure`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decomposition;
mod elimination;
mod exact;
mod graph;
mod grid;
mod hypertree;
pub mod measure;
#[cfg(test)]
mod oracle;
mod pathwidth;

pub use decomposition::{DecompositionError, TreeDecomposition};
pub use elimination::{decomposition_from_order, min_degree_decomposition, min_fill_decomposition};
pub use exact::{degeneracy_lower_bound, exact_treewidth, exact_treewidth_graph};
pub use graph::Graph;
pub use grid::{contains_grid, grid_atoms, GridLabeling};
pub use hypertree::{greedy_cover_width, hypertree_width_upper};
pub use pathwidth::{
    exact_pathwidth, exact_pathwidth_graph, is_path_decomposition, path_decomposition_from_order,
};

use chase_atoms::AtomSet;

use elimination::{greedy, Heuristic};

/// Certified two-sided treewidth estimate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TwBounds {
    /// A proven lower bound on the treewidth.
    pub lower: usize,
    /// A proven upper bound on the treewidth (width of a valid
    /// decomposition).
    pub upper: usize,
}

impl TwBounds {
    /// Are the bounds tight (exact value known)?
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Computes certified treewidth bounds for an atomset.
///
/// The upper bound is the smaller width of the min-degree and min-fill
/// elimination orders; the lower bound is the degeneracy of the primal
/// graph. An order's width is the width of the decomposition
/// [`decomposition_from_order`] builds from it, which the crate's tests
/// validate against the atomset for both orders. For exact values on small
/// instances use [`treewidth`].
pub fn treewidth_bounds(a: &AtomSet) -> TwBounds {
    let g = Graph::primal(a);
    TwBounds {
        lower: degeneracy_lower_bound(&g),
        upper: upper_above(&g, 0).width,
    }
}

/// A treewidth upper bound read against a floor; see
/// [`treewidth_upper_above`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FlooredUpper {
    /// A proven upper bound on the treewidth; it equals
    /// `treewidth_bounds(a).upper` whenever that exceeds the floor.
    pub width: usize,
    /// Whether the min-fill order ran.
    pub min_fill: bool,
}

/// The upper bound of [`treewidth_bounds`] as far as it shows above
/// `floor`: `max(width, floor) == max(treewidth_bounds(a).upper, floor)`.
///
/// No lower bound is computed, and min-fill runs only when min-degree's
/// width exceeds `floor`: the upper bound is the smaller of the two
/// widths, so once min-degree is at or below the floor min-fill cannot
/// lift the bound above it. A caller folding a running maximum passes
/// that maximum as the floor; floor 0 reads the exact upper bound.
pub fn treewidth_upper_above(a: &AtomSet, floor: usize) -> FlooredUpper {
    upper_above(&Graph::primal(a), floor)
}

fn upper_above(g: &Graph, floor: usize) -> FlooredUpper {
    let min_degree = greedy(g, Heuristic::MinDegree).width;
    if min_degree <= floor {
        return FlooredUpper {
            width: min_degree,
            min_fill: false,
        };
    }
    FlooredUpper {
        width: min_degree.min(greedy(g, Heuristic::MinFill).width),
        min_fill: true,
    }
}

/// Computes the exact treewidth of an atomset.
///
/// Uses the sandwich bounds first and falls back to branch-and-bound only
/// when they disagree. Exponential in the worst case — intended for
/// instances whose primal graph has at most a few dozen vertices (the
/// figures of the paper are all in this regime).
pub fn treewidth(a: &AtomSet) -> usize {
    if a.is_empty() {
        return 0;
    }
    let b = treewidth_bounds(a);
    if b.is_exact() {
        return b.lower;
    }
    exact_treewidth(a)
}
