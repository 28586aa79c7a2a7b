//! Substitutions with the paper's `σ⁺` total-extension semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::atom::Atom;
use crate::atomset::AtomSet;
use crate::term::{Term, VarId};

/// A substitution: a finite map from variables to terms.
///
/// Application uses the paper's `σ⁺` convention — a variable outside the
/// domain is mapped to itself — so every substitution acts as a total
/// function on terms.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: BTreeMap<VarId, Term>,
}

impl Substitution {
    /// The empty (identity) substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a substitution from `(variable, image)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (VarId, Term)>) -> Self {
        Substitution {
            map: pairs.into_iter().collect(),
        }
    }

    /// Binds `var ↦ term`. Returns the previous image, if any.
    pub fn bind(&mut self, var: VarId, term: Term) -> Option<Term> {
        self.map.insert(var, term)
    }

    /// The raw image of `var`, or `None` if unbound.
    pub fn get(&self, var: VarId) -> Option<Term> {
        self.map.get(&var).copied()
    }

    /// Number of explicit bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is this the empty substitution?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The explicit domain of the substitution, in variable order.
    pub fn domain(&self) -> impl Iterator<Item = VarId> + '_ {
        self.map.keys().copied()
    }

    /// Iterates over `(variable, image)` bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Term)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }

    /// Applies the substitution to a term (`σ⁺` semantics).
    pub fn apply_term(&self, term: Term) -> Term {
        match term {
            Term::Var(v) => self.map.get(&v).copied().unwrap_or(term),
            Term::Const(_) => term,
        }
    }

    /// Applies the substitution to an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        atom.map_terms(|t| self.apply_term(t))
    }

    /// Applies the substitution to an atomset, producing `σ(A)`.
    pub fn apply_set(&self, set: &AtomSet) -> AtomSet {
        set.apply(self)
    }

    /// Composition `other ∘ self`: first apply `self`, then `other`.
    ///
    /// Per the paper (Section 2) the result is a substitution of
    /// `dom(self) ∪ dom(other)` with `Y ↦ other⁺(self⁺(Y))`.
    pub fn then(&self, other: &Substitution) -> Substitution {
        let mut map = BTreeMap::new();
        for (&v, &t) in &self.map {
            map.insert(v, other.apply_term(t));
        }
        for (&v, &t) in &other.map {
            map.entry(v).or_insert(t);
        }
        // Normalize: drop explicit identity bindings so that equality of
        // substitutions is equality as functions.
        map.retain(|&v, t| *t != Term::Var(v));
        Substitution { map }
    }

    /// Are the two substitutions compatible (agree on shared variables)?
    pub fn compatible(&self, other: &Substitution) -> bool {
        for (&v, &t) in &self.map {
            if let Some(&u) = other.map.get(&v) {
                if u != t {
                    return false;
                }
            }
        }
        true
    }

    /// Merges two compatible substitutions. Returns `None` on conflict.
    pub fn merge(&self, other: &Substitution) -> Option<Substitution> {
        if !self.compatible(other) {
            return None;
        }
        let mut map = self.map.clone();
        for (&v, &t) in &other.map {
            map.insert(v, t);
        }
        Some(Substitution { map })
    }

    /// Restricts the substitution to the given variables.
    pub fn restrict(&self, vars: &BTreeSet<VarId>) -> Substitution {
        Substitution {
            map: self
                .map
                .iter()
                .filter(|(v, _)| vars.contains(v))
                .map(|(&v, &t)| (v, t))
                .collect(),
        }
    }

    /// Drops explicit identity bindings (`X ↦ X`).
    pub fn normalized(&self) -> Substitution {
        Substitution {
            map: self
                .map
                .iter()
                .filter(|&(&v, &t)| t != Term::Var(v))
                .map(|(&v, &t)| (v, t))
                .collect(),
        }
    }

    /// Does the substitution act as the identity on every term of `terms`?
    pub fn is_identity_on(&self, terms: impl IntoIterator<Item = Term>) -> bool {
        terms.into_iter().all(|t| self.apply_term(t) == t)
    }

    /// Is this substitution an endomorphism of `a`, i.e. `σ(a) ⊆ a`?
    pub fn is_endomorphism_of(&self, a: &AtomSet) -> bool {
        a.iter().all(|atom| a.contains(&self.apply_atom(atom)))
    }

    /// Is this substitution a *retraction* of `a`?
    ///
    /// Per the paper: an endomorphism whose restriction to the terms of its
    /// image `σ(a)` is the identity.
    pub fn is_retraction_of(&self, a: &AtomSet) -> bool {
        if !self.is_endomorphism_of(a) {
            return false;
        }
        let image = self.apply_set(a);
        self.is_identity_on(image.terms())
    }

    /// Is this substitution a homomorphism from `from` to `to`, i.e.
    /// `σ(from) ⊆ to`?
    pub fn is_homomorphism(&self, from: &AtomSet, to: &AtomSet) -> bool {
        from.iter().all(|atom| to.contains(&self.apply_atom(atom)))
    }

    /// Attempts to invert the substitution (must be injective on its domain
    /// and map variables to variables).
    pub fn inverse(&self) -> Option<Substitution> {
        let mut map = BTreeMap::new();
        for (&v, &t) in &self.map {
            let Term::Var(w) = t else { return None };
            if map.insert(w, Term::Var(v)).is_some() {
                return None;
            }
        }
        Some(Substitution { map })
    }
}

impl FromIterator<(VarId, Term)> for Substitution {
    fn from_iter<I: IntoIterator<Item = (VarId, Term)>>(iter: I) -> Self {
        Substitution::from_pairs(iter)
    }
}

impl fmt::Debug for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}↦{t:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::PredId;

    fn v(i: u32) -> VarId {
        VarId::from_raw(i)
    }

    fn tv(i: u32) -> Term {
        Term::Var(v(i))
    }

    fn atom(args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(0), args.to_vec())
    }

    #[test]
    fn apply_uses_sigma_plus_semantics() {
        let s = Substitution::from_pairs([(v(0), tv(1))]);
        assert_eq!(s.apply_term(tv(0)), tv(1));
        assert_eq!(s.apply_term(tv(7)), tv(7), "unbound vars are fixed");
    }

    #[test]
    fn composition_order() {
        // self: 0↦1, other: 1↦2  ⇒  then: 0↦2, 1↦2
        let s = Substitution::from_pairs([(v(0), tv(1))]);
        let t = Substitution::from_pairs([(v(1), tv(2))]);
        let c = s.then(&t);
        assert_eq!(c.apply_term(tv(0)), tv(2));
        assert_eq!(c.apply_term(tv(1)), tv(2));
    }

    #[test]
    fn composition_is_function_composition() {
        // Property: (s.then(t)).apply == t.apply ∘ s.apply on a sample.
        let s = Substitution::from_pairs([(v(0), tv(3)), (v(1), tv(0))]);
        let t = Substitution::from_pairs([(v(3), tv(5)), (v(0), tv(1))]);
        let c = s.then(&t);
        for i in 0..8 {
            assert_eq!(c.apply_term(tv(i)), t.apply_term(s.apply_term(tv(i))));
        }
    }

    #[test]
    fn compatibility_and_merge() {
        let s = Substitution::from_pairs([(v(0), tv(1))]);
        let t = Substitution::from_pairs([(v(0), tv(1)), (v(2), tv(3))]);
        let u = Substitution::from_pairs([(v(0), tv(9))]);
        assert!(s.compatible(&t));
        assert!(!s.compatible(&u));
        let m = s.merge(&t).unwrap();
        assert_eq!(m.get(v(2)), Some(tv(3)));
        assert!(s.merge(&u).is_none());
    }

    #[test]
    fn retraction_detection() {
        // a: {p(0,1), p(1,1)}; σ: 0↦1 is a retraction (image {p(1,1)}).
        let a: AtomSet = [atom(&[tv(0), tv(1)]), atom(&[tv(1), tv(1)])]
            .into_iter()
            .collect();
        let fold = Substitution::from_pairs([(v(0), tv(1))]);
        assert!(fold.is_endomorphism_of(&a));
        assert!(fold.is_retraction_of(&a));

        // σ': 1↦0 is NOT an endomorphism (p(0,0) missing).
        let bad = Substitution::from_pairs([(v(1), tv(0))]);
        assert!(!bad.is_endomorphism_of(&a));

        // A non-idempotent endomorphism is not a retraction:
        // b: {p(0,1), p(1,2), p(2,2)}; σ: 0↦1,1↦2 moves image term 1.
        let b: AtomSet = [
            atom(&[tv(0), tv(1)]),
            atom(&[tv(1), tv(2)]),
            atom(&[tv(2), tv(2)]),
        ]
        .into_iter()
        .collect();
        let shift = Substitution::from_pairs([(v(0), tv(1)), (v(1), tv(2))]);
        assert!(shift.is_endomorphism_of(&b));
        assert!(!shift.is_retraction_of(&b));
    }

    #[test]
    fn inverse_of_renaming() {
        let s = Substitution::from_pairs([(v(0), tv(5)), (v(1), tv(6))]);
        let inv = s.inverse().unwrap();
        assert_eq!(inv.apply_term(tv(5)), tv(0));
        assert_eq!(inv.apply_term(tv(6)), tv(1));
        let non_injective = Substitution::from_pairs([(v(0), tv(5)), (v(1), tv(5))]);
        assert!(non_injective.inverse().is_none());
    }

    #[test]
    fn normalized_drops_identity_bindings() {
        let s = Substitution::from_pairs([(v(0), tv(0)), (v(1), tv(2))]);
        let n = s.normalized();
        assert_eq!(n.len(), 1);
        assert_eq!(n.get(v(1)), Some(tv(2)));
    }

    #[test]
    fn homomorphism_check() {
        let from: AtomSet = [atom(&[tv(0), tv(1)])].into_iter().collect();
        let to: AtomSet = [atom(&[tv(5), tv(5)])].into_iter().collect();
        let h = Substitution::from_pairs([(v(0), tv(5)), (v(1), tv(5))]);
        assert!(h.is_homomorphism(&from, &to));
        let miss = Substitution::from_pairs([(v(0), tv(5))]);
        assert!(!miss.is_homomorphism(&from, &to));
    }
}
