//! `treechase-service`: a concurrent, budgeted, cancellable chase job
//! runner.
//!
//! The chase runs this repo cares about are *long*: the paper's Section 6
//! staircase and Section 7 elevator knowledge bases drive the core chase
//! through thousands of applications, and an unbounded run may never
//! terminate at all (the infinite core chase of the title). This crate
//! turns those runs into managed *jobs*:
//!
//! - a [`Service`] owns a worker pool and a job table; [`JobSpec`]s are
//!   queued and executed concurrently,
//! - every job carries budgets (applications, atoms, wall clock) and a
//!   [`CancelToken`](chase_engine::CancelToken) polled between trigger
//!   applications, so cancellation lands without poisoning the pool,
//! - budget-exhausted jobs produce a [`Checkpoint`] — the live end of the
//!   derivation serialized as program text — from which a later job
//!   resumes; for the satisfaction-based variants the resumed run is
//!   equivalent to never having stopped,
//! - progress streams out as [`JobEvent`]s (queued / started / step /
//!   core-retraction / treewidth-sample / crashed / finished), which the
//!   `treechase serve` subcommand renders as JSONL,
//! - with a state directory, periodic checkpoints go to a durable
//!   [`store::CheckpointStore`] (atomic temp-file + rename writes) and a
//!   restarted service recovers them into resumable jobs; crashes — real
//!   or injected via [`chase_engine::FaultPlan`] — are supervised with
//!   bounded retries from the last checkpoint.
//!
//! The wire protocol lives in [`protocol`], and [`handler`] answers its
//! client ops for every transport; the hand-rolled JSON layer in
//! [`json`] keeps the crate dependency-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod handler;
pub mod job;
pub mod json;
pub mod protocol;
pub mod runner;
pub mod store;

pub use checkpoint::Checkpoint;
pub use handler::{handle, Backend, Fields, Refusal, MAX_FRAME};
pub use job::{add_stats, JobId, JobResult, JobSpec, JobStatus, Priority, QueryVerdict};
pub use json::{parse_json, Json};
pub use protocol::{
    analysis_to_json, named_kb, parse_fault_plan, parse_request, query_reply_to_json,
    rejection_to_json, Request,
};
pub use runner::{
    answer_adhoc, answer_snapshot, apply_admission_gate, query_budget, Admission, DrainReport,
    EventReceiver, JobEvent, JobEventKind, JobSummary, QueryError, QueryReply, RejectReason,
    Rejection, Service, ServiceConfig, WaitResult,
};
pub use store::{CheckpointStore, CorruptEntry};
