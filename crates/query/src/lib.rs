//! # chase-query
//!
//! The query-serving subsystem: answers conjunctive queries (with
//! answer variables, and unions thereof) over chase instances, with
//! *certain-answer* semantics and honest completeness tagging.
//!
//! The paper's point is decidable CQ entailment over possibly infinite
//! core chases; operationally that means query answering must be
//! decoupled from chase termination (Larroque–Manière): serve the sound
//! answers you can compute from whatever prefix you have, and say
//! exactly how much the reply promises.
//!
//! * [`Snapshot`] / [`SnapshotCache`] — immutable per-job
//!   materialization snapshots published by the chase worker at step
//!   boundaries; each job keeps only its newest, which is a sound
//!   answer substrate for every chase variant. Readers never block the
//!   writer.
//! * [`answer_view`] — evaluate a query text on a cache view (the hot
//!   read path); it borrows the view's vocabulary and copies nothing.
//! * [`answer_kb`] — one-shot budgeted chase + evaluation for ad-hoc
//!   queries against a KB source.
//! * [`Completeness`] — the `complete` / `sound-prefix{horizon}` /
//!   `truncated` reply lattice; every level is sound, lower levels
//!   promise less about missing tuples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod snapshot;

pub use engine::{answer_kb, answer_view, Completeness, QueryOutcome};
pub use snapshot::{CacheStats, QueryView, Snapshot, SnapshotCache};
