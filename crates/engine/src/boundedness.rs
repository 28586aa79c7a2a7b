//! Treewidth profiles of derivations — the raw material for the
//! uniform/recurring boundedness analyses of Section 5.

use chase_treewidth::{treewidth_bounds, TwBounds};

use crate::derivation::Derivation;

/// Certified treewidth bounds for every recorded instance `F_i`.
pub fn treewidth_profile(d: &Derivation) -> Vec<TwBounds> {
    let mut profile = Vec::with_capacity(d.len());
    d.replay(|e| profile.push(treewidth_bounds(e.instance)));
    profile
}

/// A certified *uniform* treewidth bound for the recorded prefix: the
/// maximum of the per-instance upper bounds (every `tw(F_i)` is ≤ this).
pub fn certified_uniform_bound(d: &Derivation) -> usize {
    treewidth_profile(d)
        .iter()
        .map(|b| b.upper)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{run_chase, ChaseConfig, ChaseVariant};
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::{Atom, AtomSet, PredId, Term, VarId, Vocabulary};

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
    fn chain_rule_profile_stays_width_one() {
        // r(X,Y) → ∃Z. r(Y,Z) keeps producing a path: tw 1 throughout.
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
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(6);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        let d = res.derivation;
        let profile = treewidth_profile(&d);
        assert_eq!(profile.len(), 7);
        assert!(profile.iter().all(|b| b.upper == 1));
        assert_eq!(certified_uniform_bound(&d), 1);
    }
}
