//! The natural aggregation `D* = ⋃_i F_i` of Section 3.
//!
//! On a recorded finite prefix this is the union of all recorded
//! instances; for monotonic derivations it equals the final instance. The
//! paper's Proposition 1 shows `D*` is always *universal* for the KB but —
//! for non-monotonic derivations — not necessarily a model (the steepening
//! staircase makes this concrete: its core-chase `D*` even has unbounded
//! treewidth while every chase element has treewidth ≤ 2).

use chase_atoms::AtomSet;

use crate::derivation::Derivation;

/// The natural aggregation of the recorded prefix: `⋃_{i ≤ k} F_i`.
pub fn natural_aggregation(d: &Derivation) -> AtomSet {
    let mut out = AtomSet::new();
    d.replay(|e| {
        out.union_with(e.instance);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{run_chase, ChaseConfig, ChaseVariant};
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::{Atom, PredId, Term, VarId, Vocabulary};

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(pr), args.to_vec())
    }

    fn set(atoms: &[Atom]) -> AtomSet {
        atoms.iter().cloned().collect()
    }

    #[test]
    fn monotonic_aggregation_equals_final() {
        let rules: RuleSet = [Rule::new(
            "chain",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(0, &[v(1), v(2)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)])]);
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(99));
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(4);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        let d = res.derivation;
        assert!(d.is_monotonic());
        assert_eq!(&natural_aggregation(&d), d.last_instance());
    }

    #[test]
    fn nonmonotonic_aggregation_keeps_folded_atoms() {
        // Core chase that folds an initial redundancy: D* still contains
        // the folded atom.
        let rules: RuleSet = [Rule::new(
            "noop",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(1, &[v(0)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(10), v(10)])]);
        let mut vocab = Vocabulary::new();
        vocab.ensure_var(VarId::from_raw(99));
        let res = run_chase(
            &mut vocab,
            &facts,
            &rules,
            &ChaseConfig::variant(ChaseVariant::Core),
        );
        let d = res.derivation;
        let agg = natural_aggregation(&d);
        // σ_0 folded r(10,11) away, so F_0 no longer has it; the
        // aggregation is over F_i, so it contains everything that ever
        // *survived* a simplification:
        d.replay(|e| assert!(e.instance.is_subset_of(&agg)));
        assert!(res.final_instance.is_subset_of(&agg));
    }
}
