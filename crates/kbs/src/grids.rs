//! Grid workloads and an injective grid *search* giving certified
//! Definition 5 lower bounds on arbitrary instances.

use std::ops::ControlFlow;

use chase_atoms::{AtomSet, PredId, Substitution, Term, VarId, Vocabulary};
use chase_homomorphism::{for_each_homomorphism_budgeted, MatchConfig, SearchBudget};
use chase_treewidth::{grid_atoms, GridLabeling};

/// Builds a fresh `n × n` grid instance over predicates `h`/`v` with
/// vocabulary-registered nulls; returns the atomset and its labeling.
pub fn labeled_grid(vocab: &mut Vocabulary, n: usize) -> (AtomSet, GridLabeling) {
    let h = vocab.pred("h", 2);
    let v = vocab.pred("v", 2);
    grid_atoms(n, h, v, |i, j| {
        let var = vocab.fresh_var();
        vocab.set_var_name(var, &format!("g{i}_{j}"));
        Term::Var(var)
    })
}

/// The three-valued outcome of a budgeted grid search: the search runs
/// under a node limit, so a miss is only a *refutation* when the space
/// was exhausted.
#[derive(Clone, Debug)]
pub enum GridSearch {
    /// A certified grid embedding.
    Found(GridLabeling),
    /// Exhaustive miss: no directional grid of this size exists.
    Absent,
    /// The node budget cut the search before a hit — the grid may or may
    /// not exist. Must never be treated as a refutation.
    Inconclusive,
}

impl GridSearch {
    /// Was the search cut short without a hit?
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, GridSearch::Inconclusive)
    }
}

/// A grid-based treewidth lower bound, carrying whether the climb was
/// stopped by the node budget rather than an exhaustive miss.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GridBound {
    /// Largest certified grid side; `tw(a) ≥ side` by Fact 2.
    pub side: usize,
    /// The climb ended on an inconclusive (budget-truncated) search, so
    /// larger grids were not refuted.
    pub truncated: bool,
}

/// Searches for an **injective** embedding of an `n × n` grid pattern
/// (built from `h` column-steps and `v` row-steps) into `a`.
///
/// A hit is a certified `n × n`-grid in the sense of Definition 5 (the
/// `n²` image terms are pairwise distinct and adjacent coordinates
/// co-occur in an atom), hence `tw(a) ≥ n` by Fact 2. An [`GridSearch::Absent`]
/// miss certifies only that no grid uses `h`/`v` atoms *directionally*;
/// it is not a treewidth upper bound.
pub fn find_grid(a: &AtomSet, n: usize, h: PredId, v: PredId) -> GridSearch {
    if n == 0 {
        return GridSearch::Found(GridLabeling { terms: vec![] });
    }
    // Pattern variables: chosen outside the instance's variable space by
    // offsetting beyond its maximum raw id.
    let max_var = a.vars().iter().map(|v| v.raw()).max().unwrap_or(0);
    let var_at = |i: usize, j: usize| -> Term {
        Term::Var(VarId::from_raw(max_var + 1 + (i * n + j) as u32))
    };
    let (pattern, _) = grid_atoms(n, h, v, var_at);
    if n == 1 {
        // No adjacency constraints; any term works if the instance is
        // nonempty.
        return match a.terms().into_iter().next() {
            Some(t) => GridSearch::Found(GridLabeling {
                terms: vec![vec![t]],
            }),
            None => GridSearch::Absent,
        };
    }
    let cfg = MatchConfig {
        injective_vars: true,
        ..MatchConfig::default()
    };
    let budget = SearchBudget::unlimited().with_node_limit(500_000);
    let mut found = None;
    let outcome =
        for_each_homomorphism_budgeted(&pattern, a, &Substitution::new(), &cfg, &budget, |sub| {
            found = Some(sub);
            ControlFlow::Break(())
        });
    match found {
        Some(sub) => GridSearch::Found(GridLabeling::from_fn(n, |i, j| {
            sub.apply_term(var_at(i, j))
        })),
        // A budgeted miss refutes nothing (the bug this enum fixes: it
        // used to read as "no grid").
        None if outcome.truncated => GridSearch::Inconclusive,
        None => GridSearch::Absent,
    }
}

/// The largest `n` (up to `cap`) for which [`find_grid`] succeeds;
/// `tw(a) ≥ side` by Fact 2 (0 when even a single term is absent). The
/// climb stops at the first miss; a budget-truncated miss marks the
/// bound `truncated` instead of silently under-reporting.
pub fn best_grid_lower_bound(a: &AtomSet, cap: usize, h: PredId, v: PredId) -> GridBound {
    let mut bound = GridBound {
        side: 0,
        truncated: false,
    };
    for n in 1..=cap {
        match find_grid(a, n, h, v) {
            GridSearch::Found(_) => bound.side = n,
            GridSearch::Absent => break,
            GridSearch::Inconclusive => {
                bound.truncated = true;
                break;
            }
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::Atom;
    use chase_treewidth::contains_grid;

    #[test]
    fn finds_grid_in_labeled_grid() {
        let mut vocab = Vocabulary::new();
        let (set, lab) = labeled_grid(&mut vocab, 4);
        assert!(contains_grid(&set, &lab));
        let h = vocab.pred("h", 2);
        let v = vocab.pred("v", 2);
        let GridSearch::Found(found) = find_grid(&set, 4, h, v) else {
            panic!("grid must be found");
        };
        assert!(contains_grid(&set, &found));
        assert!(matches!(find_grid(&set, 5, h, v), GridSearch::Absent));
        assert_eq!(
            best_grid_lower_bound(&set, 8, h, v),
            GridBound {
                side: 4,
                truncated: false
            }
        );
    }

    #[test]
    fn injectivity_rejects_collapsed_grids() {
        // A single h/v loop pair satisfies grid adjacencies only
        // non-injectively.
        let mut vocab = Vocabulary::new();
        let h = vocab.pred("h", 2);
        let v = vocab.pred("v", 2);
        let x = Term::Var(vocab.fresh_var());
        let set: AtomSet = [Atom::new(h, vec![x, x]), Atom::new(v, vec![x, x])]
            .into_iter()
            .collect();
        assert!(matches!(find_grid(&set, 2, h, v), GridSearch::Absent));
        assert_eq!(best_grid_lower_bound(&set, 4, h, v).side, 1);
    }

    #[test]
    fn empty_instance_has_no_grid() {
        let mut vocab = Vocabulary::new();
        let h = vocab.pred("h", 2);
        let v = vocab.pred("v", 2);
        assert_eq!(best_grid_lower_bound(&AtomSet::new(), 3, h, v).side, 0);
    }
}
