//! Per-job materialization snapshots and the cache that serves them.
//!
//! The chase worker publishes immutable [`Snapshot`]s of the live
//! instance at derivation-step boundaries; readers grab an `Arc` and
//! evaluate queries without ever blocking the writer. Each job keeps one
//! snapshot, the newest: every element `F_i` of a derivation maps into
//! every later `F_j` by a homomorphism fixing constants (paper
//! Defs. 1–2), so constant answers over the newest live instance are
//! sound and only grow as the chase advances, for every variant.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use chase_atoms::{AtomSet, Vocabulary};

/// An immutable snapshot of one job's chase instance.
///
/// The vocabulary rides along because the chase mints fresh labeled
/// nulls as it runs — rendering a snapshot's atoms needs the symbol
/// table as of the same instant.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Symbol tables as of the capture.
    pub vocab: Arc<Vocabulary>,
    /// The instance as of the capture.
    pub instance: Arc<AtomSet>,
    /// Rule applications performed when the snapshot was taken (the
    /// *horizon* reported with sound-prefix answers).
    pub applications: u64,
    /// Whether the chase had terminated (the instance is then a
    /// universal model and answers over it are complete).
    pub terminated: bool,
    /// When the snapshot was captured.
    pub captured: Instant,
}

impl Snapshot {
    /// Builds a snapshot of a live (not yet terminated) instance.
    pub fn live(vocab: Vocabulary, instance: AtomSet, applications: u64) -> Self {
        Snapshot {
            vocab: Arc::new(vocab),
            instance: Arc::new(instance),
            applications,
            terminated: false,
            captured: Instant::now(),
        }
    }

    /// Builds a snapshot of a terminated run's final (universal-model)
    /// instance.
    pub fn terminal(vocab: Vocabulary, instance: AtomSet, applications: u64) -> Self {
        Snapshot {
            terminated: true,
            ..Snapshot::live(vocab, instance, applications)
        }
    }
}

/// What a query evaluates against: the newest snapshot of a job (the
/// final instance once the job terminated), plus the metadata needed to
/// tag the reply. A live snapshot is a sound answer substrate on its
/// own (see the module docs), retracting core chase included.
#[derive(Clone, Debug)]
pub struct QueryView {
    /// Symbol tables to parse/render against.
    pub vocab: Arc<Vocabulary>,
    /// The instance to evaluate on.
    pub instance: Arc<AtomSet>,
    /// Whether the instance is a universal model (chase terminated).
    pub terminated: bool,
    /// Monotone per-job publication counter of the snapshot.
    pub sequence: u64,
    /// Applications horizon of the snapshot.
    pub applications: u64,
    /// Capture time of the snapshot (readers derive its age from it).
    pub captured: Instant,
}

/// Cache counters, all monotone.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Views served for jobs with at least one published snapshot.
    pub hits: u64,
    /// View requests for jobs with no snapshot yet.
    pub misses: u64,
    /// Snapshots published (across all jobs).
    pub published: u64,
    /// Answer tuples handed out by the query engine (bumped by callers
    /// via [`SnapshotCache::add_answers_served`]).
    pub answers_served: u64,
    /// Live publishes ignored: a terminal snapshot already existed for
    /// the job (stragglers racing the finisher), or the publish lies
    /// below the current snapshot's horizon (a crashed slice retried
    /// from an older checkpoint, or from scratch).
    pub stale_drops: u64,
}

struct JobSlot {
    /// The newest snapshot. Once it is terminal it is latched: a late
    /// `live` publish (e.g. a checkpoint straggling in after the job
    /// finished) must not downgrade `complete` replies to sound-prefix.
    newest: Arc<Snapshot>,
    next_seq: u64,
}

/// What survives a [`SnapshotCache::evict`]: enough to keep per-job
/// reply sequences monotone (and the terminal latch honest) if the same
/// job id publishes again.
#[derive(Copy, Clone, Default)]
struct Retired {
    next_seq: u64,
    terminal: bool,
}

#[derive(Default)]
struct CacheState {
    jobs: HashMap<u64, JobSlot>,
    retired: HashMap<u64, Retired>,
}

/// A concurrent per-job snapshot cache holding one snapshot per job: the
/// newest.
///
/// Writers call [`SnapshotCache::publish`] at step boundaries; readers
/// call [`SnapshotCache::view`]. The mutex only guards the per-job slot
/// — instances are shared by `Arc`, so a reader holding a view never
/// blocks a publisher and vice versa.
#[derive(Default)]
pub struct SnapshotCache {
    jobs: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    published: AtomicU64,
    answers_served: AtomicU64,
    stale_drops: AtomicU64,
}

impl SnapshotCache {
    /// Creates an empty cache. The argument is ignored: the cache keeps
    /// only the newest snapshot per job. It remains for callers written
    /// against the former trailing-ring cache.
    pub fn new(_ignored: usize) -> Self {
        SnapshotCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.jobs.lock().expect("snapshot cache poisoned")
    }

    /// Publishes a snapshot for `job`, replacing its previous one. A
    /// `live` publish is dropped (counted in [`CacheStats::stale_drops`])
    /// once a terminal snapshot exists for the job, or when its horizon
    /// lies below the current snapshot's — so `complete` replies never
    /// downgrade and the horizon never falls. Per-job sequence numbers
    /// stay monotone for the cache's lifetime, across
    /// [`SnapshotCache::evict`] and re-publish. The replaced snapshot is
    /// freed outside the lock [`SnapshotCache::view`] takes.
    pub fn publish(&self, job: u64, snapshot: Snapshot) {
        let mut st = self.lock();
        let (next_seq, stale) = match st.jobs.get(&job) {
            Some(slot) => (
                slot.next_seq,
                !snapshot.terminated
                    && (slot.newest.terminated || snapshot.applications < slot.newest.applications),
            ),
            None => {
                let carried = st.retired.get(&job).copied().unwrap_or_default();
                (carried.next_seq, !snapshot.terminated && carried.terminal)
            }
        };
        if stale {
            drop(st);
            self.stale_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let replaced = st.jobs.insert(
            job,
            JobSlot {
                newest: Arc::new(snapshot),
                next_seq: next_seq + 1,
            },
        );
        drop(st);
        drop(replaced);
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// The view to answer queries for `job` from, or `None` when no
    /// snapshot has been published yet.
    pub fn view(&self, job: u64) -> Option<QueryView> {
        let st = self.lock();
        let Some(slot) = st.jobs.get(&job) else {
            drop(st);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let (newest, sequence) = (Arc::clone(&slot.newest), slot.next_seq - 1);
        drop(st);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(QueryView {
            vocab: Arc::clone(&newest.vocab),
            instance: Arc::clone(&newest.instance),
            terminated: newest.terminated,
            sequence,
            applications: newest.applications,
            captured: newest.captured,
        })
    }

    /// Capture time of `job`'s newest snapshot, without touching the
    /// hit/miss counters (for listings and health reporting).
    pub fn latest_captured(&self, job: u64) -> Option<Instant> {
        self.lock().jobs.get(&job).map(|slot| slot.newest.captured)
    }

    /// Drops a job's snapshot (e.g. when the job record is evicted). The
    /// job's sequence counter and terminal latch are retained, so a
    /// later re-publish under the same id continues the sequence instead
    /// of restarting readers at zero.
    pub fn evict(&self, job: u64) {
        let mut st = self.lock();
        let Some(slot) = st.jobs.remove(&job) else {
            return;
        };
        st.retired.insert(
            job,
            Retired {
                next_seq: slot.next_seq,
                terminal: slot.newest.terminated,
            },
        );
        drop(st);
        drop(slot);
    }

    /// Records `n` answer tuples handed out from this cache's views.
    pub fn add_answers_served(&self, n: u64) {
        self.answers_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            answers_served: self.answers_served.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::{Atom, Term};

    fn inst(vocab: &mut Vocabulary, names: &[&str]) -> AtomSet {
        names
            .iter()
            .map(|n| {
                let p = vocab.pred("p", 1);
                Atom::new(p, vec![Term::Const(vocab.constant(n))])
            })
            .collect()
    }

    #[test]
    fn view_serves_latest_terminated_instance() {
        let cache = SnapshotCache::default();
        assert!(cache.view(7).is_none());
        let mut vocab = Vocabulary::new();
        let i1 = inst(&mut vocab, &["a"]);
        cache.publish(7, Snapshot::live(vocab.clone(), i1, 1));
        let i2 = inst(&mut vocab, &["a", "b"]);
        cache.publish(7, Snapshot::terminal(vocab.clone(), i2.clone(), 2));
        let view = cache.view(7).expect("published");
        assert!(view.terminated);
        assert_eq!(*view.instance, i2);
        assert_eq!(view.applications, 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.published, 2);
    }

    #[test]
    fn live_view_is_the_newest_snapshot() {
        let cache = SnapshotCache::default();
        let mut vocab = Vocabulary::new();
        let i1 = inst(&mut vocab, &["a"]);
        let i2 = inst(&mut vocab, &["a", "b"]);
        cache.publish(1, Snapshot::live(vocab.clone(), i1, 1));
        cache.publish(1, Snapshot::live(vocab.clone(), i2.clone(), 2));
        let view = cache.view(1).expect("published");
        assert!(!view.terminated);
        assert_eq!(*view.instance, i2, "the view must contain `b`");
        assert_eq!(view.applications, 2);
        assert_eq!(view.sequence, 1);
    }

    #[test]
    fn live_publish_below_the_horizon_is_dropped() {
        let cache = SnapshotCache::default();
        let mut vocab = Vocabulary::new();
        let ahead = inst(&mut vocab, &["a", "b"]);
        let behind = inst(&mut vocab, &["a"]);
        cache.publish(4, Snapshot::live(vocab.clone(), ahead.clone(), 128));
        // A crashed slice retried from an older checkpoint republishes
        // its start: readers must not see the horizon fall.
        cache.publish(4, Snapshot::live(vocab.clone(), behind, 100));
        let view = cache.view(4).expect("published");
        assert_eq!(view.applications, 128);
        assert_eq!(*view.instance, ahead);
        assert_eq!(view.sequence, 0, "ignored publish must not bump seq");
        assert_eq!(cache.stats().stale_drops, 1);
        // An equal horizon still replaces (a slice's final publish).
        cache.publish(4, Snapshot::live(vocab.clone(), ahead.clone(), 128));
        assert_eq!(cache.view(4).expect("published").sequence, 1);
        // A terminal snapshot is authoritative whatever its horizon.
        cache.publish(4, Snapshot::terminal(vocab, ahead, 120));
        assert!(cache.view(4).expect("published").terminated);
    }

    #[test]
    fn sequences_stay_monotone_across_evict_and_republish() {
        let cache = SnapshotCache::default();
        let mut vocab = Vocabulary::new();
        let i = inst(&mut vocab, &["a"]);
        cache.publish(5, Snapshot::live(vocab.clone(), i.clone(), 1));
        cache.publish(5, Snapshot::live(vocab.clone(), i.clone(), 2));
        let before = cache.view(5).expect("published").sequence;
        assert_eq!(before, 1);
        cache.evict(5);
        assert!(cache.view(5).is_none(), "evicted");
        // Re-publish under the same job id: readers relying on per-job
        // monotonicity must never see the sequence restart at zero.
        cache.publish(5, Snapshot::live(vocab.clone(), i, 3));
        let after = cache.view(5).expect("republished").sequence;
        assert!(
            after > before,
            "sequence went backwards: {after} <= {before}"
        );
    }

    #[test]
    fn terminal_snapshot_wins_over_late_live_publish() {
        let cache = SnapshotCache::default();
        let mut vocab = Vocabulary::new();
        let i_final = inst(&mut vocab, &["a", "b"]);
        cache.publish(9, Snapshot::terminal(vocab.clone(), i_final.clone(), 7));
        let seq = cache.view(9).expect("terminal").sequence;
        // A checkpoint straggling in after the finisher must not
        // downgrade `complete` replies back to sound-prefix.
        let stale = inst(&mut vocab, &["a"]);
        cache.publish(9, Snapshot::live(vocab.clone(), stale.clone(), 5));
        let view = cache.view(9).expect("still served");
        assert!(view.terminated, "late live publish downgraded the view");
        assert_eq!(*view.instance, i_final);
        assert_eq!(view.sequence, seq, "ignored publish must not bump seq");
        assert_eq!(cache.stats().stale_drops, 1);
        assert_eq!(cache.stats().published, 1);
        // The latch survives eviction of the job record.
        cache.evict(9);
        cache.publish(9, Snapshot::live(vocab.clone(), stale, 6));
        assert!(cache.view(9).is_none(), "stale publish revived evicted job");
        assert_eq!(cache.stats().stale_drops, 2);
        // A genuine terminal re-publish (e.g. recovery) is still allowed.
        cache.publish(9, Snapshot::terminal(vocab, i_final, 7));
        let view = cache.view(9).expect("terminal republished");
        assert!(view.terminated);
        assert!(view.sequence > seq);
    }

    #[test]
    fn eviction_and_counters() {
        let cache = SnapshotCache::default();
        let mut vocab = Vocabulary::new();
        let i = inst(&mut vocab, &["a"]);
        cache.publish(3, Snapshot::live(vocab, i, 1));
        assert!(cache.view(3).is_some());
        cache.evict(3);
        assert!(cache.view(3).is_none());
        cache.add_answers_served(5);
        assert_eq!(cache.stats().answers_served, 5);
    }
}
