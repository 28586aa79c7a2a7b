//! Conjunctive-query operations built on the homomorphism/core
//! machinery: containment, equivalence and minimization (via cores).
//! Answer-tuple enumeration lives in `chase-query`.
//!
//! These are the classical applications of the paper's Section 2 toolbox:
//! CQ containment is homomorphism existence (Chandra–Merlin), and the
//! unique minimal equivalent CQ is the *core* of the query.

use chase_atoms::AtomSet;
use chase_homomorphism::{core_of, find_homomorphism};

/// A union of conjunctive queries (UCQ): entailed iff some disjunct is.
#[derive(Clone, Debug, Default)]
pub struct Ucq {
    /// The disjuncts.
    pub disjuncts: Vec<AtomSet>,
}

impl Ucq {
    /// Builds a UCQ from disjuncts.
    pub fn new(disjuncts: Vec<AtomSet>) -> Self {
        Ucq { disjuncts }
    }

    /// Removes disjuncts subsumed by others (`q ⊑ q'` makes `q`
    /// redundant… careful with direction: a disjunct `q` is redundant if
    /// some *other* disjunct `q'` is more general, i.e. `q ⊑ q'`), and
    /// minimizes each survivor to its core.
    pub fn minimized(&self) -> Ucq {
        let cores: Vec<AtomSet> = self.disjuncts.iter().map(minimize_cq).collect();
        let mut keep: Vec<AtomSet> = Vec::new();
        'outer: for (i, q) in cores.iter().enumerate() {
            for (j, other) in cores.iter().enumerate() {
                if i != j && cq_contained_in(q, other) {
                    // q ⊑ other: whenever q holds, other holds, so q is
                    // redundant — unless they are equivalent, in which
                    // case keep the first occurrence only.
                    if !cq_contained_in(other, q) || j < i {
                        continue 'outer;
                    }
                }
            }
            keep.push(q.clone());
        }
        Ucq { disjuncts: keep }
    }
}

/// Is `q1 ⊑ q2` (every KB entailing `q1` entails `q2`)?
///
/// By Chandra–Merlin this holds iff `q2` maps homomorphically into `q1`.
pub fn cq_contained_in(q1: &AtomSet, q2: &AtomSet) -> bool {
    find_homomorphism(q2, q1).is_some()
}

/// Are the two Boolean CQs equivalent?
pub fn cq_equivalent(q1: &AtomSet, q2: &AtomSet) -> bool {
    cq_contained_in(q1, q2) && cq_contained_in(q2, q1)
}

/// The unique (up to isomorphism) minimal CQ equivalent to `q`: its core.
pub fn minimize_cq(q: &AtomSet) -> AtomSet {
    core_of(q).core
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::{Atom, PredId, Term, VarId};
    use chase_homomorphism::isomorphism;

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
    fn containment_is_reverse_homomorphism() {
        // q1 = r(X,Y), r(Y,Z) (a 2-path); q2 = r(A,B). q1 ⊑ q2.
        let q1 = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]);
        let q2 = set(&[atom(0, &[v(10), v(11)])]);
        assert!(cq_contained_in(&q1, &q2));
        assert!(!cq_contained_in(&q2, &q1));
        assert!(!cq_equivalent(&q1, &q2));
    }

    #[test]
    fn minimization_removes_redundant_atoms() {
        // r(X,Y) ∧ r(X,Z) is equivalent to r(X,Y).
        let q = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(0), v(2)])]);
        let m = minimize_cq(&q);
        assert_eq!(m.len(), 1);
        assert!(cq_equivalent(&q, &m));
        // Idempotent up to isomorphism.
        assert!(isomorphism(&m, &minimize_cq(&m)).is_some());
    }

    #[test]
    fn minimization_keeps_non_redundant_queries() {
        let q = set(&[atom(0, &[v(0), v(1)]), atom(1, &[v(1), v(2)])]);
        assert_eq!(minimize_cq(&q), q);
    }
}

#[cfg(test)]
mod ucq_tests {
    use super::*;
    use crate::kb::KnowledgeBase;

    #[test]
    fn ucq_minimization_drops_subsumed_disjuncts() {
        let mut kb = KnowledgeBase::from_text("r(a, b).").unwrap();
        // r(X,Y) ∨ (r(X,Y) ∧ r(Y,Z)): the longer disjunct is subsumed
        // (it is contained in the shorter one).
        let short = kb.parse_query("r(X, Y)").unwrap();
        let long = kb.parse_query("r(X, Y), r(Y, Z)").unwrap();
        let ucq = Ucq::new(vec![long, short.clone()]);
        let min = ucq.minimized();
        assert_eq!(min.disjuncts.len(), 1);
        assert!(cq_equivalent(&min.disjuncts[0], &short));
    }

    #[test]
    fn ucq_minimization_keeps_equivalent_once() {
        let mut kb = KnowledgeBase::from_text("r(a, b).").unwrap();
        let q1 = kb.parse_query("r(X, Y)").unwrap();
        let q2 = kb.parse_query("r(A, B), r(A, C)").unwrap(); // core = r(A,B)
        let ucq = Ucq::new(vec![q1, q2]);
        let min = ucq.minimized();
        assert_eq!(min.disjuncts.len(), 1);
    }
}

#[cfg(test)]
mod ucq_property_tests {
    use super::*;
    use crate::entail::entail;
    use crate::kb::KnowledgeBase;
    use chase_atoms::{Atom, PredId, Term, VarId, Vocabulary};
    use chase_engine::prng::SplitMix64;

    /// A random CQ over `preds` binary predicates and `vars` variables.
    #[allow(clippy::cast_possible_truncation)]
    fn random_cq(rng: &mut SplitMix64, preds: usize, vars: usize) -> AtomSet {
        let n_atoms = 1 + rng.gen_range(4);
        (0..n_atoms)
            .map(|_| {
                Atom::new(
                    PredId::from_raw(rng.gen_range(preds) as u32),
                    vec![
                        Term::Var(VarId::from_raw(rng.gen_range(vars) as u32)),
                        Term::Var(VarId::from_raw(rng.gen_range(vars) as u32)),
                    ],
                )
            })
            .collect()
    }

    /// UCQ containment `u1 ⊑ u2`: every disjunct of `u1` is contained in
    /// some disjunct of `u2` (sound and complete for UCQs by the
    /// disjunctive Chandra–Merlin argument).
    fn ucq_contained_in(u1: &Ucq, u2: &Ucq) -> bool {
        u1.disjuncts
            .iter()
            .all(|q| u2.disjuncts.iter().any(|other| cq_contained_in(q, other)))
    }

    fn ucq_equivalent(u1: &Ucq, u2: &Ucq) -> bool {
        ucq_contained_in(u1, u2) && ucq_contained_in(u2, u1)
    }

    /// Pins the subtle containment direction in [`Ucq::minimized`]:
    /// the minimized UCQ must be *equivalent* to the original (dropping a
    /// disjunct is only sound when a more general one survives), minimal
    /// (no survivor contained in another), and idempotent.
    #[test]
    fn minimized_is_equivalent_minimal_and_idempotent() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        for round in 0..200 {
            let n_disjuncts = 1 + rng.gen_range(4);
            let ucq = Ucq::new(
                (0..n_disjuncts)
                    .map(|_| random_cq(&mut rng, 2, 4))
                    .collect(),
            );
            let min = ucq.minimized();
            assert!(
                !min.disjuncts.is_empty(),
                "round {round}: minimization emptied a nonempty UCQ"
            );
            assert!(
                min.disjuncts.len() <= ucq.disjuncts.len(),
                "round {round}: minimization grew the UCQ"
            );
            assert!(
                ucq_equivalent(&ucq, &min),
                "round {round}: minimized() not equivalent to original"
            );
            for (i, q) in min.disjuncts.iter().enumerate() {
                for (j, other) in min.disjuncts.iter().enumerate() {
                    assert!(
                        i == j || !cq_contained_in(q, other),
                        "round {round}: survivors {i} ⊑ {j} — not minimal"
                    );
                }
            }
            let twice = min.minimized();
            assert_eq!(
                twice.disjuncts.len(),
                min.disjuncts.len(),
                "round {round}: minimized() not idempotent"
            );
            assert!(ucq_equivalent(&min, &twice), "round {round}");
        }
    }

    /// Entailment agrees before and after minimization on a concrete KB.
    #[test]
    fn minimized_preserves_entailment() {
        use chase_engine::{ChaseConfig, ChaseVariant};
        let mut rng = SplitMix64::new(0xBEEF);
        // Fixed KB: a small transitive graph.
        let kb = {
            let mut vocab = Vocabulary::new();
            let p0 = vocab.pred("e0", 2);
            let p1 = vocab.pred("e1", 2);
            let a = vocab.constant("a");
            let b = vocab.constant("b");
            let c = vocab.constant("c");
            let facts: AtomSet = [
                Atom::new(p0, vec![Term::Const(a), Term::Const(b)]),
                Atom::new(p0, vec![Term::Const(b), Term::Const(c)]),
                Atom::new(p1, vec![Term::Const(c), Term::Const(a)]),
            ]
            .into_iter()
            .collect();
            KnowledgeBase::new(vocab, facts, chase_engine::RuleSet::new())
        };
        let cfg = ChaseConfig::variant(ChaseVariant::Core);
        // A UCQ is entailed iff some disjunct is.
        let entailed = |ucq: &Ucq| {
            ucq.disjuncts
                .iter()
                .any(|q| entail(&kb, q, &cfg).is_entailed())
        };
        for round in 0..50 {
            let n_disjuncts = 1 + rng.gen_range(3);
            let ucq = Ucq::new(
                (0..n_disjuncts)
                    .map(|_| random_cq(&mut rng, 2, 3))
                    .collect(),
            );
            assert_eq!(
                entailed(&ucq),
                entailed(&ucq.minimized()),
                "round {round}: entailment changed"
            );
        }
    }
}
