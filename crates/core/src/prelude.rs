//! Convenience re-exports: `use chase_core::prelude::*;` pulls in the
//! whole working vocabulary of the library.

pub use chase_atoms::{
    Atom, AtomSet, ConstId, DisplayWith, PredId, Substitution, Term, VarId, Vocabulary,
};
pub use chase_engine::{
    aggregation::natural_aggregation, boundedness::treewidth_profile, run_chase, ChaseConfig,
    ChaseOutcome, ChaseResult, ChaseVariant, Derivation, RobustSequence, Rule, RuleSet,
    SchedulerKind, Trigger,
};
pub use chase_homomorphism::{
    core_of, find_homomorphism, hom_equivalent, is_core, isomorphism, maps_to,
};
pub use chase_parser::{parse_program, Program};
pub use chase_treewidth::{
    contains_grid, treewidth, treewidth_bounds, GridLabeling, TreeDecomposition, TwBounds,
};

pub use crate::classes::{probe_classes, probe_classes_budgeted, ClassProbe};
pub use crate::cq::{cq_contained_in, cq_equivalent, minimize_cq, Ucq};
pub use crate::decide::{decide, DecideConfig, DecideOutcome};
pub use crate::entail::{entail, Entailment};
pub use crate::kb::KnowledgeBase;
