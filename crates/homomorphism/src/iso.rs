//! Isomorphism and homomorphic equivalence of atomsets.

use std::ops::ControlFlow;

use chase_atoms::{AtomSet, Substitution};

use crate::matcher::{for_each_homomorphism, maps_to, MatchConfig};

/// Finds an isomorphism from `a` to `b`, if one exists.
///
/// Per the paper, an isomorphism is a bijective homomorphism whose inverse
/// is also a homomorphism. Substitutions fix constants, so an isomorphism
/// maps variables to variables bijectively, and the constants occurring in
/// `a` and `b` must coincide.
///
/// Soundness of the search: an injective variable-to-variable homomorphism
/// `h: a → b` with `|a| = |b|` (atom counts) and `|terms(a)| = |terms(b)|`
/// is automatically surjective on atoms (`h(a) ⊆ b` with equal finite
/// cardinality forces `h(a) = b`), hence its inverse maps `b` back into
/// `a`.
pub fn isomorphism(a: &AtomSet, b: &AtomSet) -> Option<Substitution> {
    if a.len() != b.len() {
        return None;
    }
    if a.terms().len() != b.terms().len() {
        return None;
    }
    if a.constants() != b.constants() {
        return None;
    }
    // Per-signature atom counts must agree (with equal totals, `b` then
    // has no signature `a` lacks).
    if a.signatures()
        .any(|((p, arity), n)| b.matching_count(p, arity, &[]) != n)
    {
        return None;
    }
    let cfg = MatchConfig {
        injective_vars: true,
        ..MatchConfig::default()
    };
    let mut found = None;
    for_each_homomorphism(a, b, &Substitution::new(), &cfg, |sub| {
        found = Some(sub);
        ControlFlow::Break(())
    });
    let iso = found?;
    debug_assert!(iso.is_homomorphism(a, b));
    debug_assert!(iso.inverse().is_some_and(|inv| inv.is_homomorphism(b, a)));
    Some(iso)
}

/// Are `a` and `b` homomorphically equivalent (each maps into the other)?
pub fn hom_equivalent(a: &AtomSet, b: &AtomSet) -> bool {
    maps_to(a, b) && maps_to(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::{Atom, ConstId, PredId, Term, VarId};

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
    fn renamed_paths_are_isomorphic() {
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]);
        let b = set(&[atom(0, &[v(10), v(11)]), atom(0, &[v(11), v(12)])]);
        let iso = isomorphism(&a, &b).unwrap();
        assert_eq!(iso.apply_set(&a), b);
    }

    #[test]
    fn different_shapes_are_not_isomorphic() {
        // Path 0→1→2 vs fork 0→1, 0→2.
        let path = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]);
        let fork = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(0), v(2)])]);
        assert!(isomorphism(&path, &fork).is_none());
    }

    #[test]
    fn constants_must_coincide() {
        let a = set(&[atom(0, &[c(0), v(0)])]);
        let b = set(&[atom(0, &[c(1), v(0)])]);
        assert!(isomorphism(&a, &b).is_none());
        assert!(isomorphism(&a, &a).is_some());
    }

    #[test]
    fn var_cannot_map_to_constant_in_iso() {
        let a = set(&[atom(0, &[v(0)])]);
        let b = set(&[atom(0, &[c(0)])]);
        // Same atom/term counts, but iso would need v0 ↦ constant.
        assert!(isomorphism(&a, &b).is_none());
        // Though a hom-maps to b.
        assert!(maps_to(&a, &b));
    }

    #[test]
    fn hom_equivalent_but_not_isomorphic() {
        // {r(0,1), r(1,1)} ≡hom {r(2,2)} but not isomorphic.
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(1)])]);
        let b = set(&[atom(0, &[v(2), v(2)])]);
        assert!(hom_equivalent(&a, &b));
        assert!(isomorphism(&a, &b).is_none());
    }

    #[test]
    fn pred_multiset_mismatch_rejected_fast() {
        let a = set(&[atom(0, &[v(0)]), atom(1, &[v(0)])]);
        let b = set(&[atom(0, &[v(1)]), atom(0, &[v(2)])]);
        assert!(isomorphism(&a, &b).is_none());
    }

    #[test]
    fn cycle_isomorphism_respects_direction() {
        let fwd = set(&[
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(2)]),
            atom(0, &[v(2), v(0)]),
        ]);
        let relabeled = set(&[
            atom(0, &[v(7), v(5)]),
            atom(0, &[v(5), v(6)]),
            atom(0, &[v(6), v(7)]),
        ]);
        assert!(isomorphism(&fwd, &relabeled).is_some());
    }
}
