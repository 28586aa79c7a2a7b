//! Atomsets (instances): indexed, deterministic sets of atoms.
//!
//! An [`AtomSet`] corresponds to the paper's notion of a (finite) atomset /
//! instance. Besides the exact-match lookup it keeps two secondary
//! indexes — by term, and by *(predicate, arity, position, term)* — so the
//! homomorphism engine enumerates candidates through point lookups and
//! posting-list intersection, and it iterates in insertion order so every
//! printout and derived artifact is deterministic.
//!
//! ## Postings
//!
//! Every index entry is a *posting*: the ascending (= insertion-ordered)
//! list of ids of the live atoms it covers — per term (an atom once, even
//! `r(x, x)`), per `(pred, arity)` signature, and per signature position
//! and term. [`AtomSet::matching_ids`] intersects the postings of a
//! pattern atom's determined positions via an [`IdBits`] scratch bitset,
//! so the *exact* candidate set costs roughly the size of the smallest
//! posting involved. Postings are maintained incrementally through
//! insert, remove and auto-compaction.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::atom::Atom;
use crate::bitset::IdBits;
use crate::substitution::Substitution;
use crate::term::{ConstId, Term, VarId};
use crate::vocab::PredId;

/// A handle to an atom inside one [`AtomSet`].
///
/// Ids are allocated in insertion order, so sorting by `AtomId` recovers
/// insertion order even after removals. They are **not** stable across
/// mutations: a removal may auto-compact the arena (see
/// [`AtomSet::compact`]), which reassigns ids — hold the [`Atom`]
/// itself, not its id, across anything that removes atoms.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AtomId(u32);

impl AtomId {
    /// The raw index of this atom id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id with raw index `raw`: for numbering atoms held outside an
    /// atomset (a compiled search pattern) in the same id space.
    pub const fn from_raw(raw: u32) -> Self {
        AtomId(raw)
    }
}

/// The per-(predicate, arity) slice of the positional index.
#[derive(Clone, Default)]
struct SigIndex {
    /// Posting of the live atoms with this signature.
    ids: Vec<u32>,
    /// One posting map per argument position: term → posting.
    positions: Vec<HashMap<Term, Vec<u32>>>,
}

/// Removes `id` from an ascending posting; returns whether the posting
/// is now empty (and should be dropped from its index).
fn unpost(posting: &mut Vec<u32>, id: u32) -> bool {
    if let Ok(at) = posting.binary_search(&id) {
        posting.remove(at);
    }
    posting.is_empty()
}

/// A finite set of atoms with term-occurrence and positional
/// `(pred, arity, position, term)` indexes.
#[derive(Clone, Default)]
pub struct AtomSet {
    /// Arena of atoms; `None` marks a removed (tombstoned) slot.
    slots: Vec<Option<Atom>>,
    /// Exact-match lookup (also the deduplication map).
    lookup: HashMap<Atom, AtomId>,
    /// Posting of the live atoms per occurring term.
    by_term: HashMap<Term, Vec<u32>>,
    /// Positional postings per `(pred, arity)` signature.
    by_sig: HashMap<(PredId, u32), SigIndex>,
    /// Number of live non-empty postings (a structural gauge the engine
    /// reports as an index stat).
    postings: usize,
    /// Number of live atoms.
    live: usize,
    /// Whether removals may auto-compact the arena. Disabled only by
    /// differential tests that need [`AtomId`]s stable across a whole
    /// run.
    no_auto_compact: bool,
    /// Number of removal-triggered auto-compactions this set (or the
    /// sets it was derived from via [`Clone`]/[`AtomSet::apply`]) has
    /// performed — lets regression tests assert compaction really fired.
    compactions: usize,
}

/// Arenas smaller than this never auto-compact: a handful of dead slots
/// is cheaper than the rebuild.
const COMPACT_MIN_SLOTS: usize = 64;

impl AtomSet {
    /// Creates an empty atomset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of atoms in the set.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts an atom; returns `true` if it was not already present.
    pub fn insert(&mut self, atom: Atom) -> bool {
        if self.lookup.contains_key(&atom) {
            return false;
        }
        let id = AtomId(u32::try_from(self.slots.len()).expect("too many atoms"));
        // Ids are allocated in increasing order (and the index is rebuilt
        // in insertion order on compaction), so pushing keeps every
        // posting sorted ascending.
        for t in atom.terms() {
            let posting = self.by_term.entry(t).or_default();
            // A term repeated within the atom (`r(x, x)`) is posted once.
            if posting.last() != Some(&id.0) {
                posting.push(id.0);
            }
        }
        let sig = self
            .by_sig
            .entry((atom.pred(), atom.arity() as u32))
            .or_default();
        if sig.positions.len() < atom.arity() {
            sig.positions.resize_with(atom.arity(), HashMap::new);
        }
        sig.ids.push(id.0);
        for (pos, &t) in atom.args().iter().enumerate() {
            let posting = sig.positions[pos].entry(t).or_default();
            if posting.is_empty() {
                self.postings += 1;
            }
            debug_assert!(posting.last().is_none_or(|&last| last < id.0));
            posting.push(id.0);
        }
        self.lookup.insert(atom.clone(), id);
        self.slots.push(Some(atom));
        self.live += 1;
        true
    }

    /// Removes an atom; returns `true` if it was present.
    ///
    /// Removal may auto-compact the arena (see [`AtomSet::compact`]),
    /// invalidating previously obtained [`AtomId`]s.
    pub fn remove(&mut self, atom: &Atom) -> bool {
        let Some(id) = self.lookup.remove(atom) else {
            return false;
        };
        let stored = self.slots[id.0 as usize]
            .take()
            .expect("lookup/slot desync");
        for t in stored.terms() {
            if self.by_term.get_mut(&t).is_some_and(|p| unpost(p, id.0)) {
                self.by_term.remove(&t);
            }
        }
        let sig_key = (stored.pred(), stored.arity() as u32);
        if let Some(sig) = self.by_sig.get_mut(&sig_key) {
            for (pos, &t) in stored.args().iter().enumerate() {
                if sig.positions[pos]
                    .get_mut(&t)
                    .is_some_and(|p| unpost(p, id.0))
                {
                    sig.positions[pos].remove(&t);
                    self.postings -= 1;
                }
            }
            if unpost(&mut sig.ids, id.0) {
                self.by_sig.remove(&sig_key);
            }
        }
        self.live -= 1;
        self.maybe_compact();
        true
    }

    /// Compacts once tombstones outnumber live atoms two-to-one. The
    /// rebuild is O(live), so charging it to the ≥ 2·live removals since
    /// the last compaction keeps removal amortized O(1) while bounding
    /// the arena at 3·live + [`COMPACT_MIN_SLOTS`] slots — without this,
    /// a retraction-heavy core chase grows `slots` monotonically even
    /// when the live instance stays small.
    fn maybe_compact(&mut self) {
        let dead = self.slots.len() - self.live;
        if !self.no_auto_compact && self.slots.len() >= COMPACT_MIN_SLOTS && dead > 2 * self.live {
            self.compact();
            self.compactions += 1;
        }
    }

    /// Number of removal-triggered auto-compactions performed so far
    /// (inherited through [`Clone`] and [`AtomSet::apply`]).
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Disables (or re-enables) removal-triggered auto-compaction.
    ///
    /// With auto-compaction off, [`AtomId`]s stay stable across removals
    /// and the arena grows monotonically — the reference behaviour the
    /// compaction regression tests compare against. The flag survives
    /// [`Clone`], [`AtomSet::apply`] and explicit [`AtomSet::compact`]
    /// calls.
    pub fn set_auto_compact(&mut self, enabled: bool) {
        self.no_auto_compact = !enabled;
    }

    /// Does the set contain the given atom?
    pub fn contains(&self, atom: &Atom) -> bool {
        self.lookup.contains_key(atom)
    }

    /// The id of the given atom, if the set contains it.
    pub fn id_of(&self, atom: &Atom) -> Option<AtomId> {
        self.lookup.get(atom).copied()
    }

    /// Returns the atom behind an id, if still live.
    pub fn get(&self, id: AtomId) -> Option<&Atom> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Iterates over the atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Atom> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Resolves a posting's raw ids to their atoms.
    fn posted<'a>(&'a self, posting: Option<&'a Vec<u32>>) -> impl Iterator<Item = &'a Atom> {
        posting
            .into_iter()
            .flatten()
            .map(|&i| self.get(AtomId(i)).expect("index/slot desync"))
    }

    /// Iterates over the atoms with predicate `pred` and arity `arity`,
    /// in insertion order.
    pub fn with_sig(&self, pred: PredId, arity: usize) -> impl Iterator<Item = &Atom> {
        self.posted(self.by_sig.get(&(pred, arity as u32)).map(|s| &s.ids))
    }

    /// The `(pred, arity)` signatures with at least one atom, each with
    /// its atom count, in no particular order.
    pub fn signatures(&self) -> impl Iterator<Item = ((PredId, usize), usize)> + '_ {
        self.by_sig
            .iter()
            .map(|(&(p, arity), sig)| ((p, arity as usize), sig.ids.len()))
    }

    /// Number of atoms with the given predicate, over every arity.
    pub fn pred_count(&self, pred: PredId) -> usize {
        self.signatures()
            .filter(|&((p, _), _)| p == pred)
            .map(|(_, n)| n)
            .sum()
    }

    /// Iterates over atoms mentioning the given term, in insertion order.
    pub fn with_term(&self, term: Term) -> impl Iterator<Item = &Atom> {
        self.posted(self.by_term.get(&term))
    }

    /// Ids of the atoms mentioning the given term, in insertion order.
    pub fn ids_with_term(&self, term: Term) -> impl Iterator<Item = AtomId> + '_ {
        self.by_term
            .get(&term)
            .into_iter()
            .flatten()
            .map(|&i| AtomId(i))
    }

    /// Number of atoms mentioning the given term.
    pub fn term_count(&self, term: Term) -> usize {
        self.by_term.get(&term).map_or(0, Vec::len)
    }

    /// Does any atom mention the given term?
    pub fn mentions(&self, term: Term) -> bool {
        self.by_term.contains_key(&term)
    }

    /// The set of terms occurring in the atomset (`terms(A)`), sorted.
    pub fn terms(&self) -> BTreeSet<Term> {
        self.by_term.keys().copied().collect()
    }

    /// The set of variables occurring in the atomset (`vars(A)`), sorted.
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.by_term.keys().filter_map(|t| t.as_var()).collect()
    }

    /// The set of constants occurring in the atomset, sorted.
    pub fn constants(&self) -> BTreeSet<ConstId> {
        self.by_term.keys().filter_map(|t| t.as_const()).collect()
    }

    /// Applies a substitution, producing a new atomset `σ(A)`.
    pub fn apply(&self, sigma: &Substitution) -> AtomSet {
        let mut out: AtomSet = self.iter().map(|a| sigma.apply_atom(a)).collect();
        out.no_auto_compact = self.no_auto_compact;
        out.compactions = self.compactions;
        out
    }

    /// Applies a substitution in place: atoms whose image differs are
    /// removed and the images inserted. Equivalent to
    /// `*self = self.apply(sigma)` as a set. An atom moves exactly when it
    /// mentions a variable that σ does not fix, so the moved atoms are
    /// read from those variables' postings and visited in ascending id
    /// (= iteration) order, as a scan would meet them. Removals may
    /// trigger auto-compaction, so callers must not hold [`AtomId`]s
    /// across the call.
    pub fn apply_in_place(&mut self, sigma: &Substitution) {
        let mut ids: Vec<u32> = sigma
            .iter()
            .filter(|&(x, t)| t != Term::Var(x))
            .filter_map(|(x, _)| self.by_term.get(&Term::Var(x)))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let moved: Vec<(Atom, Atom)> = ids
            .into_iter()
            .map(|i| {
                let a = self.get(AtomId(i)).expect("index/slot desync");
                (a.clone(), sigma.apply_atom(a))
            })
            .collect();
        for (old, _) in &moved {
            self.remove(old);
        }
        for (_, new) in moved {
            self.insert(new);
        }
    }

    /// Is `self ⊆ other`?
    pub fn is_subset_of(&self, other: &AtomSet) -> bool {
        self.len() <= other.len() && self.iter().all(|a| other.contains(a))
    }

    /// The sub-atomset *induced* by a set of terms: atoms whose terms all
    /// belong to `keep`.
    pub fn induced_by_terms(&self, keep: &BTreeSet<Term>) -> AtomSet {
        self.iter()
            .filter(|a| a.terms().all(|t| keep.contains(&t)))
            .cloned()
            .collect()
    }

    /// Inserts all atoms of `other`; returns how many were new.
    pub fn union_with(&mut self, other: &AtomSet) -> usize {
        let mut added = 0;
        for a in other.iter() {
            if self.insert(a.clone()) {
                added += 1;
            }
        }
        added
    }

    /// The atoms as a sorted vector (canonical form, independent of
    /// insertion order). Useful for hashing and set-level comparison.
    pub fn sorted_atoms(&self) -> Vec<Atom> {
        let mut v: Vec<Atom> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// Rebuilds the arena, dropping tombstones while preserving insertion
    /// order. Ids are *not* stable across compaction.
    pub fn compact(&mut self) {
        let atoms: Vec<Atom> = self.iter().cloned().collect();
        let no_auto_compact = self.no_auto_compact;
        let compactions = self.compactions;
        *self = atoms.into_iter().collect();
        self.no_auto_compact = no_auto_compact;
        self.compactions = compactions;
    }

    /// Number of arena slots, live atoms plus tombstones — the set's
    /// real memory footprint, which auto-compaction keeps within a
    /// constant factor of [`AtomSet::len`].
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of live non-empty positional postings — a structural gauge
    /// of index size, reported through `ChaseStats`.
    pub fn index_postings(&self) -> usize {
        self.postings
    }

    /// Exact number of atoms [`Self::matching_ids`] would return for a
    /// `bound` of **at most one** determined position — two O(1) index
    /// lookups instead of materialising the id list. With two or more
    /// determined positions the count requires the actual intersection;
    /// use [`Self::matching_ids`] there.
    pub fn matching_count(&self, pred: PredId, arity: usize, bound: &[(usize, Term)]) -> usize {
        debug_assert!(
            bound.len() <= 1,
            "counts for >1 positions need the intersection"
        );
        let Some(sig) = self.by_sig.get(&(pred, arity as u32)) else {
            return 0;
        };
        match bound.first() {
            None => sig.ids.len(),
            Some(&(pos, t)) => sig
                .positions
                .get(pos)
                .and_then(|m| m.get(&t))
                .map_or(0, Vec::len),
        }
    }

    /// Collects into `out` the ids of every atom with predicate `pred`,
    /// arity `arity`, and term `t` at position `p` for each `(p, t)` in
    /// `bound` — the *exact* candidate set for a pattern atom whose
    /// determined positions are `bound`, in insertion (ascending id)
    /// order.
    ///
    /// `bound` may be empty (all atoms of the signature match) and may
    /// bind the same position more than once (a repeated-variable pattern
    /// like `r(x, x)`). With ≥ 2 bound positions the smallest posting
    /// drives and the rest filter it, each either marked into `scratch`
    /// (then sparsely cleared) for O(1) membership tests or binary
    /// searched, whichever is cheaper. `out` is cleared first; `scratch`
    /// is left empty again, so both can be reused across calls without
    /// reallocation.
    pub fn matching_ids(
        &self,
        pred: PredId,
        arity: usize,
        bound: &[(usize, Term)],
        scratch: &mut IdBits,
        out: &mut Vec<AtomId>,
    ) {
        out.clear();
        let Some(sig) = self.by_sig.get(&(pred, arity as u32)) else {
            return;
        };
        if bound.is_empty() {
            out.extend(sig.ids.iter().map(|&i| AtomId(i)));
            return;
        }
        let mut posts: Vec<&[u32]> = Vec::with_capacity(bound.len());
        for &(pos, t) in bound {
            let Some(posting) = sig.positions.get(pos).and_then(|m| m.get(&t)) else {
                return;
            };
            posts.push(posting.as_slice());
        }
        posts.sort_by_key(|p| p.len());
        let (driver, rest) = posts.split_first().expect("bound is non-empty");
        out.extend(driver.iter().map(|&i| AtomId(i)));
        for posting in rest {
            if out.is_empty() {
                return;
            }
            // Filtering `out` against this posting costs either
            // O(|posting|) bitset marks + O(|out|) probes + a sparse
            // clear, or O(|out|·log|posting|) binary searches; pick the
            // cheaper side.
            if posting.len() <= out.len() * 8 {
                scratch.ensure(self.slots.len());
                for &i in *posting {
                    scratch.insert(i);
                }
                out.retain(|id| scratch.contains(id.0));
                scratch.clear_ids(posting.iter().copied());
            } else {
                out.retain(|id| posting.binary_search(&id.0).is_ok());
            }
        }
    }

    /// Convenience wrapper around [`AtomSet::matching_ids`] that clones
    /// the matching atoms out with a fresh scratch. Intended for tests
    /// and cold paths; hot paths should reuse a scratch + id buffer.
    pub fn matching_atoms(&self, pred: PredId, arity: usize, bound: &[(usize, Term)]) -> Vec<Atom> {
        let mut scratch = IdBits::new();
        let mut ids = Vec::new();
        self.matching_ids(pred, arity, bound, &mut scratch, &mut ids);
        ids.iter()
            .map(|&id| self.get(id).expect("matching_ids returned dead id").clone())
            .collect()
    }
}

impl PartialEq for AtomSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|a| other.contains(a))
    }
}

impl Eq for AtomSet {}

impl FromIterator<Atom> for AtomSet {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        let mut s = AtomSet::new();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl Extend<Atom> for AtomSet {
    fn extend<I: IntoIterator<Item = Atom>>(&mut self, iter: I) {
        for a in iter {
            self.insert(a);
        }
    }
}

impl<'a> IntoIterator for &'a AtomSet {
    type Item = &'a Atom;
    type IntoIter = Box<dyn Iterator<Item = &'a Atom> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PredId {
        PredId::from_raw(i)
    }

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(p(pr), args.to_vec())
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = AtomSet::new();
        let a = atom(0, &[v(1), v(2)]);
        assert!(s.insert(a.clone()));
        assert!(!s.insert(a.clone()), "duplicate insert is a no-op");
        assert!(s.contains(&a));
        assert_eq!(s.len(), 1);
        assert!(s.remove(&a));
        assert!(!s.remove(&a));
        assert!(s.is_empty());
        assert!(!s.mentions(v(1)));
    }

    #[test]
    fn indexes_track_membership() {
        let mut s = AtomSet::new();
        s.insert(atom(0, &[v(1), v(2)]));
        s.insert(atom(0, &[v(2), v(3)]));
        s.insert(atom(1, &[v(1)]));
        assert_eq!(s.pred_count(p(0)), 2);
        assert_eq!(s.pred_count(p(1)), 1);
        assert_eq!(s.pred_count(p(9)), 0);
        assert_eq!(s.term_count(v(2)), 2);
        assert_eq!(s.with_term(v(1)).count(), 2);

        s.remove(&atom(0, &[v(2), v(3)]));
        assert_eq!(s.term_count(v(2)), 1);
        assert!(!s.mentions(v(3)));
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut s = AtomSet::new();
        let a1 = atom(1, &[v(9)]);
        let a2 = atom(0, &[v(1)]);
        let a3 = atom(2, &[v(5)]);
        s.insert(a1.clone());
        s.insert(a2.clone());
        s.insert(a3.clone());
        let order: Vec<&Atom> = s.iter().collect();
        assert_eq!(order, vec![&a1, &a2, &a3]);
    }

    #[test]
    fn set_equality_ignores_order() {
        let mut s1 = AtomSet::new();
        let mut s2 = AtomSet::new();
        s1.insert(atom(0, &[v(1)]));
        s1.insert(atom(0, &[v(2)]));
        s2.insert(atom(0, &[v(2)]));
        s2.insert(atom(0, &[v(1)]));
        assert_eq!(s1, s2);
        s2.remove(&atom(0, &[v(1)]));
        assert_ne!(s1, s2);
    }

    #[test]
    fn induced_subset() {
        let mut s = AtomSet::new();
        s.insert(atom(0, &[v(1), v(2)]));
        s.insert(atom(0, &[v(2), v(3)]));
        let keep: BTreeSet<Term> = [v(1), v(2)].into_iter().collect();
        let ind = s.induced_by_terms(&keep);
        assert_eq!(ind.len(), 1);
        assert!(ind.contains(&atom(0, &[v(1), v(2)])));
    }

    #[test]
    fn subset_and_union() {
        let small: AtomSet = [atom(0, &[v(1)])].into_iter().collect();
        let mut big: AtomSet = [atom(0, &[v(1)]), atom(0, &[v(2)])].into_iter().collect();
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert_eq!(big.union_with(&small), 0);
        let other: AtomSet = [atom(1, &[v(7)])].into_iter().collect();
        assert_eq!(big.union_with(&other), 1);
        assert_eq!(big.len(), 3);
    }

    #[test]
    fn compact_preserves_contents_and_order() {
        let mut s = AtomSet::new();
        for i in 0..10 {
            s.insert(atom(0, &[v(i)]));
        }
        for i in (0..10).step_by(2) {
            s.remove(&atom(0, &[v(i)]));
        }
        let before: Vec<Atom> = s.iter().cloned().collect();
        s.compact();
        let after: Vec<Atom> = s.iter().cloned().collect();
        assert_eq!(before, after);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn retraction_churn_keeps_arena_bounded() {
        let mut s = AtomSet::new();
        // A small persistent core plus a long insert/retract churn — the
        // access pattern of a core chase folding fresh nulls away.
        for i in 0..8 {
            s.insert(atom(1, &[v(1_000_000 + i)]));
        }
        for i in 0..10_000u32 {
            let a = atom(0, &[v(i), v(i + 1)]);
            s.insert(a.clone());
            s.remove(&a);
            assert!(
                s.arena_len() <= 3 * s.len() + COMPACT_MIN_SLOTS,
                "arena grew unboundedly: {} slots for {} live atoms",
                s.arena_len(),
                s.len()
            );
        }
        assert_eq!(s.len(), 8);
        // Auto-compaction preserved the insertion order of survivors.
        let order: Vec<&Atom> = s.iter().collect();
        for (i, a) in order.iter().enumerate() {
            assert_eq!(**a, atom(1, &[v(1_000_000 + i as u32)]));
        }
    }

    /// Reference semantics for `matching_ids`: scan everything, filter.
    fn brute_matching(s: &AtomSet, pr: PredId, arity: usize, bound: &[(usize, Term)]) -> Vec<Atom> {
        s.iter()
            .filter(|a| {
                a.pred() == pr
                    && a.arity() == arity
                    && bound.iter().all(|&(pos, t)| a.args()[pos] == t)
            })
            .cloned()
            .collect()
    }

    #[test]
    fn matching_ids_equals_brute_force_scan() {
        // A deterministic pseudo-random mix of arities, predicates and
        // shared terms, with interleaved removals, checked against the
        // brute-force scan for every bound-position combination.
        let mut s = AtomSet::new();
        let mut seed = 0x9e37_79b9_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) as u32
        };
        let mut atoms = Vec::new();
        for _ in 0..300 {
            let pr = next() % 4;
            let arity = 1 + (next() % 3) as usize;
            let args: Vec<Term> = (0..arity).map(|_| v(next() % 12)).collect();
            let a = atom(pr, &args);
            s.insert(a.clone());
            atoms.push(a);
        }
        for (i, a) in atoms.iter().enumerate() {
            if i % 3 == 0 {
                s.remove(a);
            }
        }
        let mut scratch = IdBits::new();
        let mut ids = Vec::new();
        for pr in 0..4 {
            for arity in 1..=3usize {
                let mut bounds: Vec<Vec<(usize, Term)>> = vec![vec![]];
                for pos in 0..arity {
                    for t in 0..12 {
                        bounds.push(vec![(pos, v(t))]);
                        for pos2 in pos + 1..arity {
                            bounds.push(vec![(pos, v(t)), (pos2, v((t + 5) % 12))]);
                        }
                    }
                }
                for bound in &bounds {
                    s.matching_ids(p(pr), arity, bound, &mut scratch, &mut ids);
                    let got: Vec<Atom> = ids
                        .iter()
                        .map(|&id| s.get(id).expect("live id").clone())
                        .collect();
                    let want = brute_matching(&s, p(pr), arity, bound);
                    assert_eq!(got, want, "pred {pr} arity {arity} bound {bound:?}");
                    assert_eq!(got, s.matching_atoms(p(pr), arity, bound));
                }
            }
        }
    }

    #[test]
    fn matching_ids_repeated_position_and_missing() {
        let mut s = AtomSet::new();
        s.insert(atom(0, &[v(1), v(1)]));
        s.insert(atom(0, &[v(1), v(2)]));
        // The same position bound twice (consistently) is just a filter.
        let both = s.matching_atoms(p(0), 2, &[(0, v(1)), (1, v(1))]);
        assert_eq!(both, vec![atom(0, &[v(1), v(1)])]);
        // Unknown signature, term, or position ⇒ empty, not a panic.
        assert!(s.matching_atoms(p(7), 2, &[]).is_empty());
        assert!(s.matching_atoms(p(0), 3, &[]).is_empty());
        assert!(s.matching_atoms(p(0), 2, &[(1, v(9))]).is_empty());
    }

    #[test]
    fn postings_gauge_tracks_removals_and_compaction() {
        let mut s = AtomSet::new();
        assert_eq!(s.index_postings(), 0);
        s.insert(atom(0, &[v(1), v(2)]));
        // Two positions, one distinct term each ⇒ 2 postings.
        assert_eq!(s.index_postings(), 2);
        s.insert(atom(0, &[v(1), v(3)]));
        // Position 0 shares the v(1) posting; position 1 gains one.
        assert_eq!(s.index_postings(), 3);
        s.remove(&atom(0, &[v(1), v(3)]));
        assert_eq!(s.index_postings(), 2);
        s.compact();
        assert_eq!(s.index_postings(), 2);
        s.remove(&atom(0, &[v(1), v(2)]));
        assert_eq!(s.index_postings(), 0);
    }

    #[test]
    fn matching_survives_auto_compaction() {
        let mut s = AtomSet::new();
        for i in 0..200u32 {
            s.insert(atom(0, &[v(i % 5), v(i)]));
        }
        for i in 0..180u32 {
            s.remove(&atom(0, &[v(i % 5), v(i)]));
        }
        assert!(s.arena_len() < 200, "auto-compaction should have fired");
        let got = s.matching_atoms(p(0), 2, &[(0, v(2))]);
        let want = brute_matching(&s, p(0), 2, &[(0, v(2))]);
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }

    #[test]
    fn auto_compact_flag_disables_and_survives() {
        let mut s = AtomSet::new();
        s.set_auto_compact(false);
        for i in 0..200u32 {
            let a = atom(0, &[v(i)]);
            s.insert(a.clone());
            s.remove(&a);
        }
        assert_eq!(s.arena_len(), 200, "auto-compaction must stay off");
        // The flag survives clone, explicit compaction and apply.
        let mut c = s.clone();
        c.compact();
        assert_eq!(c.arena_len(), 0);
        for i in 0..200u32 {
            let a = atom(0, &[v(i)]);
            c.insert(a.clone());
            c.remove(&a);
        }
        assert_eq!(c.arena_len(), 200);
        let applied = c.apply(&Substitution::new());
        let mut a2 = applied;
        for i in 0..200u32 {
            let a = atom(1, &[v(i)]);
            a2.insert(a.clone());
            a2.remove(&a);
        }
        assert_eq!(a2.arena_len(), 200);
    }

    #[test]
    fn terms_vars_constants() {
        let mut s = AtomSet::new();
        let c = Term::Const(crate::term::ConstId::from_raw(0));
        s.insert(atom(0, &[c, v(1)]));
        assert_eq!(s.terms().len(), 2);
        assert_eq!(s.vars().len(), 1);
        assert_eq!(s.constants().len(), 1);
    }

    /// Checks every index accessor of `s` against a recomputation from
    /// its live atoms, over every term of `domain`.
    fn assert_indexes_consistent(s: &AtomSet, domain: &[Term], step: usize) {
        let live: Vec<(AtomId, &Atom)> = (0..s.arena_len() as u32)
            .filter_map(|i| s.get(AtomId(i)).map(|a| (AtomId(i), a)))
            .collect();
        let atoms: Vec<&Atom> = live.iter().map(|&(_, a)| a).collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), atoms, "step {step}: iter");
        assert_eq!(s.len(), live.len(), "step {step}: len");
        for &t in domain {
            let ids: Vec<AtomId> = live
                .iter()
                .filter(|(_, a)| a.terms().any(|u| u == t))
                .map(|&(id, _)| id)
                .collect();
            let ctx = format!("step {step}: term {t:?}");
            assert_eq!(s.ids_with_term(t).collect::<Vec<_>>(), ids, "{ctx}");
            let with: Vec<&Atom> = ids.iter().map(|&id| s.get(id).unwrap()).collect();
            assert_eq!(s.with_term(t).collect::<Vec<_>>(), with, "{ctx}");
            assert_eq!(s.term_count(t), ids.len(), "{ctx}");
            assert_eq!(s.mentions(t), !ids.is_empty(), "{ctx}");
        }
        let vars: BTreeSet<VarId> = atoms.iter().flat_map(|a| a.vars()).collect();
        assert_eq!(s.vars(), vars, "step {step}: vars");
        let mut sigs: HashMap<(PredId, usize), Vec<&Atom>> = HashMap::new();
        for &a in &atoms {
            sigs.entry((a.pred(), a.arity())).or_default().push(a);
        }
        let mut got: Vec<_> = s.signatures().collect();
        let mut want: Vec<_> = sigs.iter().map(|(&k, v)| (k, v.len())).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "step {step}: signatures");
        let mut postings = BTreeSet::new();
        let (mut scratch, mut ids) = (IdBits::new(), Vec::new());
        for (&(pr, arity), members) in &sigs {
            assert_eq!(s.with_sig(pr, arity).collect::<Vec<_>>(), *members);
            assert_eq!(s.matching_count(pr, arity, &[]), members.len());
            for a in members {
                for (pos, &t) in a.args().iter().enumerate() {
                    postings.insert((pr, arity, pos, t));
                    let n = s.matching_count(pr, arity, &[(pos, t)]);
                    assert_eq!(n, brute_matching(s, pr, arity, &[(pos, t)]).len());
                }
                // Every subset of bound positions, bound to this atom's terms.
                for mask in 0..1u32 << arity {
                    let bound: Vec<(usize, Term)> = (0..arity)
                        .filter(|&pos| mask & (1 << pos) != 0)
                        .map(|pos| (pos, a.args()[pos]))
                        .collect();
                    s.matching_ids(pr, arity, &bound, &mut scratch, &mut ids);
                    let got: Vec<Atom> = ids.iter().map(|&id| s.get(id).unwrap().clone()).collect();
                    let want = brute_matching(s, pr, arity, &bound);
                    assert_eq!(got, want, "step {step}: {pr:?}/{arity} bound {bound:?}");
                }
            }
        }
        assert_eq!(s.index_postings(), postings.len(), "step {step}: postings");
    }

    /// The reference for [`AtomSet::apply_in_place`]: rebuild every atom
    /// and move the ones whose image differs, in iteration order.
    fn apply_by_scan(s: &mut AtomSet, sigma: &Substitution) {
        let moved: Vec<(Atom, Atom)> = s
            .iter()
            .filter_map(|a| {
                let b = sigma.apply_atom(a);
                (b != *a).then(|| (a.clone(), b))
            })
            .collect();
        for (old, _) in &moved {
            s.remove(old);
        }
        for (_, new) in moved {
            s.insert(new);
        }
    }

    #[test]
    fn apply_in_place_equals_the_full_scan() {
        // Seeded random atomsets and substitutions: bindings to variables
        // inside and outside the set, to constants, and identity bindings.
        let domain: Vec<Term> = (0..10)
            .map(v)
            .chain((0..3).map(|i| Term::Const(ConstId::from_raw(i))))
            .collect();
        let mut seed = 0x9e37_79b9_u64;
        let mut next = move |n: usize| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) as usize % n
        };
        for case in 0..2_000 {
            let mut s = AtomSet::new();
            for _ in 0..next(40) {
                let arity = 1 + next(3);
                let args: Vec<Term> = (0..arity).map(|_| domain[next(domain.len())]).collect();
                s.insert(atom(next(3) as u32, &args));
            }
            // Some removals leave tombstones, so ids are not dense.
            let live: Vec<Atom> = s.iter().cloned().collect();
            for a in live.iter().filter(|_| next(4) == 0) {
                s.remove(a);
            }
            let sigma = Substitution::from_pairs((0..next(5)).map(|_| {
                let x = VarId::from_raw(next(12) as u32);
                let t = if next(4) == 0 {
                    Term::Var(x)
                } else {
                    domain[next(domain.len())]
                };
                (x, t)
            }));
            let mut want = s.clone();
            apply_by_scan(&mut want, &sigma);
            s.apply_in_place(&sigma);
            let (got, want): (Vec<&Atom>, Vec<&Atom>) = (s.iter().collect(), want.iter().collect());
            assert_eq!(got, want, "case {case}: {sigma:?}");
        }
    }

    #[test]
    fn index_churn_matches_recomputation() {
        // Seeded random inserts, removals, in-place substitutions and
        // compactions over unary to ternary atoms on a small term domain,
        // so repeated terms (`r(x, x)`) are common. A grow phase, then a
        // removal-heavy phase that drives auto-compaction, twice over.
        let domain: Vec<Term> = (0..8)
            .map(v)
            .chain((0..3).map(|i| Term::Const(ConstId::from_raw(i))))
            .collect();
        let mut seed = 0x2545_f491_u64;
        let mut next = move |n: usize| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) as usize % n
        };
        let mut s = AtomSet::new();
        for step in 0..1_200 {
            let removal_heavy = (step / 300) % 2 == 1;
            let roll = next(100);
            let live: Vec<Atom> = s.iter().cloned().collect();
            if roll < 2 {
                s.compact();
            } else if roll < 6 {
                let from = VarId::from_raw(next(8) as u32);
                s.apply_in_place(&Substitution::from_pairs([(
                    from,
                    domain[next(domain.len())],
                )]));
            } else if !live.is_empty() && roll < if removal_heavy { 85 } else { 25 } {
                assert!(s.remove(&live[next(live.len())]));
            } else {
                let arity = 1 + next(3);
                let args: Vec<Term> = (0..arity).map(|_| domain[next(domain.len())]).collect();
                s.insert(atom(next(3) as u32, &args));
            }
            assert_indexes_consistent(&s, &domain, step);
        }
        assert!(s.compactions() > 0, "auto-compaction never fired");
    }
}
