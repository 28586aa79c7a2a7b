//! # chase-homomorphism
//!
//! Homomorphism machinery for atomsets: homomorphism enumeration, trigger
//! satisfaction, retraction search, core computation and isomorphism
//! testing.
//!
//! This crate implements the homomorphism-theoretic toolbox of Section 2 of
//! *Bounded Treewidth and the Infinite Core Chase* (PODS 2023). It has one
//! backtracking search, with two front ends that differ only in their
//! inputs and in the constraints a binding must meet:
//!
//! * a **homomorphism** from `A` to `B` is a substitution `π` with
//!   `π(A) ⊆ B` — found by [`find_homomorphism`] / enumerated by
//!   [`for_each_homomorphism`], the match front end;
//! * a **retraction** of `A` is an endomorphism that is the identity on the
//!   terms of its image — searched directly by
//!   [`find_retraction_eliminating`] and [`fold_variables`], the fold front
//!   end, which searches the moved closure of the eliminated variable;
//! * the **core** of a finite atomset is its unique (up to isomorphism)
//!   retract that is a core — computed by [`core_of`];
//! * **isomorphism** is a bijective homomorphism with homomorphic inverse —
//!   decided by [`isomorphism`].
//!
//! ## Why searching only retractions is complete
//!
//! To decide whether a variable `x` can be folded away we search directly
//! for a *retraction* avoiding `x` rather than an arbitrary endomorphism.
//! This loses nothing: if any endomorphism `h` of a finite `A` avoids `x`,
//! then some power `h^k` has a stable image `I ⊆ h(A)` (so `x ∉ I`) on which
//! it acts as a permutation, and a further power is the identity on `I` —
//! a retraction avoiding `x`. The direct search enforces the fixpoint
//! condition *during* backtracking (binding `v ↦ u` forces `u ↦ u`), which
//! both prunes the search and returns a ready-to-use simplification for the
//! core chase (Definition 1 requires simplifications to be retractions).
//! The same holds when some variables must stay fixed: every power of an
//! `h` that fixes them fixes them too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod core_impl;
mod incremental;
mod iso;
mod matcher;

pub use budget::{MatchStats, SearchBudget, SearchOutcome};
pub use core_impl::{
    core_of, core_of_budgeted, find_proper_retraction, find_retraction_eliminating, fold_variables,
    is_core, CoreResult,
};
pub use incremental::{incremental_core, pivot_certificate};
pub use iso::{hom_equivalent, isomorphism};
pub use matcher::{
    find_homomorphism, find_homomorphism_extending, for_each_homomorphism,
    for_each_homomorphism_budgeted, maps_to, MatchConfig,
};
