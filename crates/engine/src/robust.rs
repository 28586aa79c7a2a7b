//! Robust renaming, robust sequences and robust aggregation —
//! Definitions 14–16 and Propositions 10–12 of the paper.
//!
//! The natural aggregation of a non-monotonic derivation can fail to be a
//! model (and can blow up structurally). The *robust aggregation* fixes
//! this: along the derivation, variables are renamed so that whenever a
//! simplification folds a variable class together, the class adopts the
//! **rank-smallest** name it ever had (Definition 14). Because a name can
//! only decrease in rank, and ranks are well-founded, every variable is
//! renamed finitely often (Proposition 10) — so the per-step atomsets
//! `G_i` (each isomorphic to `F_i`) converge: their "stabilized" parts
//! form a monotone sequence whose union `D^⊛` is a model (when the
//! derivation is fair) and finitely universal (Proposition 11), with
//! treewidth bounded by any recurring bound of the derivation
//! (Proposition 12).
//!
//! On the finite prefixes recorded by the chase runner, `D^⊛` is
//! approximated by the atoms that persist through the trailing `margin`
//! steps ([`RobustSequence::aggregation_prefix`]) — a liminf proxy that is
//! exact in the limit.

use std::collections::BTreeMap;

use chase_atoms::{AtomSet, Substitution, Term, VarId};
use chase_homomorphism::isomorphism;

use crate::derivation::Derivation;

/// The rank order on variables used by robust renaming (the paper's
/// bijection `rank : X → ℕ`). Smaller rank wins. The default rank is the
/// variable's raw index (creation order); the staircase worked example of
/// Section 8 uses a custom rank.
pub type RankFn<'a> = dyn Fn(VarId) -> u64 + 'a;

/// The default rank: creation order.
pub fn default_rank(v: VarId) -> u64 {
    u64::from(v.raw())
}

/// Computes the robust renaming `ρ_σ` associated with the retraction
/// `sigma` of `a` (Definition 14): each variable `X` of `sigma(a)` maps to
/// the rank-smallest variable of `σ⁻¹(X)`.
pub fn robust_renaming(a: &AtomSet, sigma: &Substitution, rank: &RankFn<'_>) -> Substitution {
    let image_vars = sigma.apply_set(a).vars();
    let mut best: BTreeMap<VarId, VarId> = BTreeMap::new();
    for y in a.vars() {
        if let Term::Var(x) = sigma.apply_term(Term::Var(y)) {
            if image_vars.contains(&x) {
                match best.get(&x) {
                    Some(&cur) if (rank(cur), cur) <= (rank(y), y) => {}
                    _ => {
                        best.insert(x, y);
                    }
                }
            }
        }
    }
    Substitution::from_pairs(best.into_iter().map(|(x, y)| (x, Term::Var(y)))).normalized()
}

/// The trace of one variable through the robust sequence: its successive
/// images under `τ_{i+1}, τ_{i+2}, …` and the point from which the image
/// stops changing within the recorded prefix.
#[derive(Clone, Debug)]
pub struct VarTrace {
    /// The variable traced (a variable of `G_start`).
    pub var: VarId,
    /// The step at which the trace starts.
    pub start: usize,
    /// `images[j]` is the image in `G_{start + j}` (so `images[0]` is the
    /// variable itself).
    pub images: Vec<Term>,
    /// The first step index (absolute) from which the image is constant
    /// until the end of the recorded prefix.
    pub settled_at: usize,
}

/// The robust sequence `(G_i)` associated with a derivation
/// (Definition 15), together with the isomorphisms `ρ_i : F_i → G_i` and
/// the homomorphisms `τ_i` connecting consecutive elements.
#[derive(Clone, Debug)]
pub struct RobustSequence {
    /// `G_i`, isomorphic to `F_i`.
    pub sets: Vec<AtomSet>,
    /// `ρ_i`: the isomorphism from `F_i` to `G_i`.
    pub rho: Vec<Substitution>,
    /// `τ_i`: for `i ≥ 1` the homomorphism `A'_i → G_i` (which maps
    /// `G_{i-1} ⊆ A'_i` into `G_i`); `τ_0` maps the original facts `F`
    /// to `G_0`.
    pub tau: Vec<Substitution>,
}

impl RobustSequence {
    /// Builds the robust sequence of a recorded derivation under the
    /// default rank (creation order).
    pub fn build(d: &Derivation) -> Self {
        Self::build_with_rank(d, &default_rank)
    }

    /// Builds the robust sequence under a custom rank order.
    ///
    /// Follows Definition 15 literally:
    ///
    /// * `G_0 = ρ_{σ_0}(F_0)`;
    /// * for `i > 0`: `A'_i = ρ_{i-1}(A_i)` (fresh nulls are untouched),
    ///   `σ'_i = ρ_{i-1} ∘ σ_i ∘ ρ_{i-1}^{-1}` (a retraction of `A'_i`),
    ///   `G_i = ρ_{σ'_i}(σ'_i(A'_i))`, `ρ_i = ρ_{σ'_i} ∘ ρ_{i-1}` and
    ///   `τ_i = ρ_{σ'_i} ∘ σ'_i`.
    pub fn build_with_rank(d: &Derivation, rank: &RankFn<'_>) -> Self {
        let mut sets = Vec::with_capacity(d.len());
        let mut rho: Vec<Substitution> = Vec::with_capacity(d.len());
        let mut tau = Vec::with_capacity(d.len());

        d.replay(|e| {
            let sigma_i = d.simplification(e.index);
            let Some(rho_prev) = rho.last() else {
                // Step 0: `e.pre` is F, `e.instance` is F_0.
                let rho0 = robust_renaming(e.pre, sigma_i, rank);
                sets.push(rho0.apply_set(e.instance));
                tau.push(sigma_i.then(&rho0));
                rho.push(rho0);
                return;
            };
            let rho_prev_inv = rho_prev
                .inverse()
                .expect("ρ is a variable renaming, hence invertible");
            let a_prime = rho_prev.apply_set(e.pre);
            // σ'_i = ρ_{i-1} ∘ σ_i ∘ ρ_{i-1}^{-1}, built explicitly on the
            // variables of A'_i.
            let mut sigma_prime = Substitution::new();
            for y in a_prime.vars() {
                let orig = rho_prev_inv.apply_term(Term::Var(y));
                let img = rho_prev.apply_term(sigma_i.apply_term(orig));
                if img != Term::Var(y) {
                    sigma_prime.bind(y, img);
                }
            }
            debug_assert!(sigma_prime.is_retraction_of(&a_prime));
            let f_prime = sigma_prime.apply_set(&a_prime);
            let rho_sigma = robust_renaming(&a_prime, &sigma_prime, rank);
            let g_i = rho_sigma.apply_set(&f_prime);
            let tau_i = sigma_prime.then(&rho_sigma);
            let rho_i = rho_prev.then(&rho_sigma);
            // ρ_i must stay a pure variable renaming on vars(F_i); keep
            // only those bindings.
            let rho_i = rho_i.restrict(&e.instance.vars()).normalized();
            sets.push(g_i);
            tau.push(tau_i);
            rho.push(rho_i);
        });
        RobustSequence { sets, rho, tau }
    }

    /// Number of elements (same as the derivation length).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The composed map `τ_j ∘ … ∘ τ_{i+1}` sending `G_i` into `G_j`
    /// (identity when `i = j`).
    pub fn tau_span(&self, i: usize, j: usize) -> Substitution {
        assert!(i <= j && j < self.len());
        let mut composed = Substitution::new();
        for k in i + 1..=j {
            composed = composed.then(&self.tau[k]);
        }
        composed
    }

    /// Traces a variable of `G_start` through the remaining prefix
    /// (Proposition 10 instrumentation).
    pub fn trace_var(&self, start: usize, var: VarId) -> VarTrace {
        let mut images = vec![Term::Var(var)];
        let mut current = Term::Var(var);
        for k in start + 1..self.len() {
            current = match current {
                Term::Var(_) => self.tau[k].apply_term(current),
                c => c,
            };
            images.push(current);
        }
        // Find the earliest suffix on which the image is constant.
        let last = *images.last().expect("nonempty");
        let mut settled_rel = images.len() - 1;
        while settled_rel > 0 && images[settled_rel - 1] == last {
            settled_rel -= 1;
        }
        VarTrace {
            var,
            start,
            images,
            settled_at: start + settled_rel,
        }
    }

    /// The liminf proxy for the robust aggregation `D^⊛` on this prefix:
    /// the atoms present in **every** one of the trailing `margin + 1`
    /// sets `G_{k-margin} … G_k`.
    ///
    /// Rationale: `D^⊛ = ⋃_i τ̂(G_i)` consists of atoms that are
    /// *eventually always* present in the robust sequence (Lemma 1), i.e.
    /// `D^⊛ = liminf G_i`. Atoms of the intersection above are exactly
    /// those that have persisted for at least `margin` steps at the
    /// horizon; as the prefix grows (for fixed margin) the result
    /// converges to `D^⊛` from below/above mixtures vanish.
    pub fn aggregation_prefix(&self, margin: usize) -> AtomSet {
        let k = self.len() - 1;
        let from = k.saturating_sub(margin);
        let mut result = self.sets[from].clone();
        for j in from + 1..=k {
            let keep: Vec<chase_atoms::Atom> = result
                .iter()
                .filter(|a| self.sets[j].contains(a))
                .cloned()
                .collect();
            result = keep.into_iter().collect();
        }
        result
    }

    /// Verifies the Definition 15 invariants against the originating
    /// derivation:
    ///
    /// 1. every `G_i` is isomorphic to `F_i`, witnessed by `ρ_i`;
    /// 2. every `τ_i` (`i ≥ 1`) maps `G_{i-1}` into `G_i`;
    /// 3. `τ_0` maps the original facts into `G_0`.
    pub fn verify_invariants(&self, d: &Derivation) -> Result<(), String> {
        if self.len() != d.len() {
            return Err(format!("{} sets for {} elements", self.len(), d.len()));
        }
        let mut verdict = Ok(());
        d.replay(|e| {
            let (i, f_i, g_i) = (e.index, e.instance, &self.sets[e.index]);
            if verdict.is_ok() {
                verdict = if self.rho[i].apply_set(f_i) != *g_i {
                    Err(format!("ρ_{i} does not map F_{i} onto G_{i}"))
                } else if isomorphism(f_i, g_i).is_none() {
                    Err(format!("G_{i} is not isomorphic to F_{i}"))
                } else if i == 0 && !self.tau[0].is_homomorphism(d.initial(), g_i) {
                    Err("τ_0 is not a homomorphism from F to G_0".into())
                } else if i > 0 && !self.tau[i].is_homomorphism(&self.sets[i - 1], g_i) {
                    Err(format!("τ_{i} does not map G_{} into G_{i}", i - 1))
                } else {
                    Ok(())
                };
            }
        });
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{run_chase, ChaseConfig, ChaseVariant};
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::{Atom, PredId, Vocabulary};

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn vid(i: u32) -> VarId {
        VarId::from_raw(i)
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(pr), args.to_vec())
    }

    fn set(atoms: &[Atom]) -> AtomSet {
        atoms.iter().cloned().collect()
    }

    #[test]
    fn robust_renaming_picks_rank_smallest_preimage() {
        // a = {r(0,1), r(1,1)}, σ: 0 ↦ 1. Then σ⁻¹(1) = {0, 1} and the
        // renaming maps 1 ↦ 0 (rank-smallest).
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(1)])]);
        let sigma = Substitution::from_pairs([(vid(0), v(1))]);
        assert!(sigma.is_retraction_of(&a));
        let rho = robust_renaming(&a, &sigma, &default_rank);
        assert_eq!(rho.apply_term(v(1)), v(0));
        // τ_σ = ρ_σ ∘ σ maps both 0 and 1 to 0.
        let tau = sigma.then(&rho);
        assert_eq!(tau.apply_term(v(0)), v(0));
        assert_eq!(tau.apply_term(v(1)), v(0));
    }

    #[test]
    fn robust_renaming_identity_for_identity_retraction() {
        let a = set(&[atom(0, &[v(0), v(1)])]);
        let rho = robust_renaming(&a, &Substitution::new(), &default_rank);
        assert!(rho.is_empty());
    }

    #[test]
    fn custom_rank_changes_choice() {
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(1)])]);
        let sigma = Substitution::from_pairs([(vid(0), v(1))]);
        // Reverse rank: larger raw id = smaller rank.
        let rank = |x: VarId| u64::MAX - u64::from(x.raw());
        let rho = robust_renaming(&a, &sigma, &rank);
        // Preimage of 1 is {0, 1}; rank-min is now 1 itself.
        assert!(rho.is_empty());
    }

    /// Core chase on r(X,Y) → ∃Z. r(Y,Z) from r(c?, …): use a shifting
    /// scenario where the core chase repeatedly folds the tail.
    fn shifting_chase() -> (Derivation, Vocabulary) {
        // Rule: f(X) ∧ r(X, Y) → ∃Z. r(Y, Z) ∧ f(Y)  — marks move along.
        // Combined with a "cleanup" the core chase folds old tails. For a
        // compact test we use the simpler rule r(X,Y) → ∃Z. r(Y,Z): the
        // core chase from a 2-path keeps producing paths that fold back…
        // actually a path is a core, so no folding happens; instead use
        // facts with a loop far away that lets folds happen:
        // facts: r(10, 11); rule as above. Restricted chase grows a path —
        // each F_i is a core already, so the robust sequence is just a
        // renaming exercise. Good enough to exercise the machinery; the
        // staircase KB (chase-kbs) exercises real folding.
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
        vocab.ensure_var(vid(99));
        let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(5);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        (res.derivation, vocab)
    }

    #[test]
    fn robust_sequence_invariants_hold() {
        let (d, _vocab) = shifting_chase();
        let rs = RobustSequence::build(&d);
        assert_eq!(rs.len(), d.len());
        assert_eq!(rs.verify_invariants(&d), Ok(()));
    }

    #[test]
    fn monotonic_derivation_gives_identity_robust_maps() {
        let (d, _vocab) = shifting_chase();
        // This particular chase never folds (paths are cores), so all σ_i
        // are identities and G_i = F_i.
        let rs = RobustSequence::build(&d);
        d.replay(|e| {
            assert_eq!(&rs.sets[e.index], e.instance);
            assert!(rs.rho[e.index].is_empty());
        });
        // The aggregation prefix with margin 0 is just the last set.
        assert_eq!(rs.aggregation_prefix(0), *d.last_instance());
    }

    #[test]
    fn folding_scenario_produces_stable_names() {
        // Build a derivation by hand that folds a variable, and check the
        // robust sequence adopts the rank-smallest name.
        // facts F: {r(10,11)}; apply chain rule: A_1 = {r(10,11), r(11,N)};
        // σ_1 folds… nothing is foldable. Instead craft directly:
        // F = {r(10,11), r(11,12), r(12,12)}  (path into a loop)
        // σ_0 = core retraction: folds 10, 11 away? core is the loop:
        // σ_0: 10↦12, 11↦12. Robust renaming: preimage of 12 is
        // {10,11,12} ⇒ G_0 names the loop variable 10.
        let rules: RuleSet = [Rule::new(
            "dummy",
            set(&[atom(0, &[v(0), v(1)])]),
            set(&[atom(0, &[v(0), v(1)])]),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let facts = set(&[
            atom(0, &[v(10), v(11)]),
            atom(0, &[v(11), v(12)]),
            atom(0, &[v(12), v(12)]),
        ]);
        let core = chase_homomorphism::core_of(&facts);
        let d = Derivation::start(rules, facts, core.retraction);
        let rs = RobustSequence::build(&d);
        assert_eq!(rs.sets[0], set(&[atom(0, &[v(10), v(10)])]));
        assert_eq!(rs.verify_invariants(&d), Ok(()));
    }

    #[test]
    fn var_trace_settles() {
        let (d, _vocab) = shifting_chase();
        let rs = RobustSequence::build(&d);
        let some_var = *rs.sets[0].vars().iter().next().unwrap();
        let trace = rs.trace_var(0, some_var);
        assert_eq!(trace.images.len(), rs.len());
        assert!(trace.settled_at < rs.len());
        // In this monotonic case nothing ever moves.
        assert_eq!(trace.settled_at, 0);
    }

    #[test]
    fn tau_span_composes() {
        let (d, _vocab) = shifting_chase();
        let rs = RobustSequence::build(&d);
        let span = rs.tau_span(0, rs.len() - 1);
        assert!(span.is_homomorphism(&rs.sets[0], &rs.sets[rs.len() - 1]));
    }
}
