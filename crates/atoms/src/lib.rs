//! # chase-atoms
//!
//! The logical substrate of the `treechase` workspace: terms, atoms,
//! atomsets (instances) and substitutions, exactly as defined in Section 2
//! of *Bounded Treewidth and the Infinite Core Chase* (PODS 2023).
//!
//! Design notes (following the workspace coding guides):
//!
//! * **Interned symbols.** Predicate and constant names are interned in a
//!   [`Vocabulary`]; the hot data structures ([`Term`], [`Atom`],
//!   [`AtomSet`]) only carry compact `u32` ids, so equality and hashing in
//!   inner loops never touch strings.
//! * **Indexed atomsets.** [`AtomSet`] maintains per-predicate and per-term
//!   occurrence indexes so the homomorphism engine can enumerate candidate
//!   atoms without scanning. Iteration order is insertion order, which keeps
//!   every downstream printout deterministic.
//! * **Substitutions as partial maps.** A [`Substitution`] is a finite map
//!   from variables to terms with the paper's `σ⁺` semantics: variables
//!   outside the domain are fixed. Composition follows Definition `σ' ∘ σ`
//!   of the paper (Section 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod atomset;
mod bitset;
mod display;
mod substitution;
mod term;
mod vocab;

pub use atom::Atom;
pub use atomset::{AtomId, AtomSet};
pub use bitset::IdBits;
pub use display::{DisplayWith, WithVocab};
pub use substitution::Substitution;
pub use term::{ConstId, Term, VarId};
pub use vocab::{PredDecl, PredId, Vocabulary};

/// Convenience constructor for a variable term.
pub fn var(id: VarId) -> Term {
    Term::Var(id)
}
