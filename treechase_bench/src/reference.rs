//! Speed normalisation against a fixed reference computation.
//!
//! The machines this runs on are shared: measured on a 2-vCPU virtual
//! machine, the same single-threaded loop ran at anywhere from 0.5× to 1×
//! its best speed, in phases lasting seconds to minutes, so raw run
//! medians of the same commit spread by up to 44% between runs, wider than
//! any useful regression bound. Timing each server process's lifetime
//! against a fixed reference computation run just before and after it,
//! and scaling its times by `NOMINAL_S / reference`, cancels most of that
//! drift (44% → 16% for `staircase-core`'s job time in a slow phase, see
//! the README's baseline). Reported times are therefore seconds at nominal
//! speed; every run record also keeps the raw samples and the factors.

use std::time::Instant;

use crate::stats::median;
use crate::workloads::SplitMix64;

/// The reference computation's time on a machine of nominal speed (about
/// its median on the 2-vCPU machine the baseline was measured on).
pub const NOMINAL_S: f64 = 0.0025;

/// One run of the reference computation: sorting and indexing
/// pseudo-random keys, integer work with allocation and cache misses,
/// like the chase's own.
fn once() -> f64 {
    let started = Instant::now();
    let mut rng = SplitMix64::new(42);
    let mut keys: Vec<u64> = (0..40_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let index: std::collections::BTreeMap<u64, usize> = keys
        .iter()
        .step_by(4)
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let hits = keys.iter().filter(|k| index.contains_key(k)).count();
    std::hint::black_box(hits);
    started.elapsed().as_secs_f64()
}

/// The reference time now: the median of three runs, so that one
/// preemption does not skew it.
pub fn now() -> f64 {
    median(&[once(), once(), once()])
}

/// The factor that scales times measured between two reference readings
/// to nominal speed.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}
