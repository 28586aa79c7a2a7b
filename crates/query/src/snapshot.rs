//! Per-job materialization snapshots and the cache that serves them.
//!
//! The chase worker publishes immutable [`Snapshot`]s of the live
//! instance at derivation-step boundaries; readers grab an `Arc` and
//! evaluate queries without ever blocking the writer. Each job keeps a
//! short *ring* of recent snapshots whose intersection is the liminf
//! proxy for the robust aggregate D^⊛ (paper Defs. 14–16): for a
//! non-terminating chase, atoms present in every trailing snapshot are
//! the stable prefix it is sound to answer from.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// What a query evaluates against: either the final instance of a
/// terminated job or the robust (ring-intersection) prefix of a live
/// one, plus the metadata needed to tag the reply.
#[derive(Clone, Debug)]
pub struct QueryView {
    /// Symbol tables to parse/render against (latest snapshot's).
    pub vocab: Arc<Vocabulary>,
    /// The instance to evaluate on.
    pub instance: Arc<AtomSet>,
    /// Whether the instance is a universal model (chase terminated).
    pub terminated: bool,
    /// Monotone per-job publication counter of the newest ring entry.
    pub sequence: u64,
    /// Applications horizon of the newest ring entry.
    pub applications: u64,
    /// Capture time of the newest ring entry (readers derive the
    /// snapshot age from it).
    pub captured: Instant,
    /// How many snapshots the intersection spans (1 for terminated
    /// jobs: the final instance is served as-is).
    pub ring_len: usize,
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
    /// Live publishes ignored because a terminal snapshot already
    /// existed for the job (stragglers racing the finisher).
    pub stale_drops: u64,
}

struct JobRing {
    ring: VecDeque<Arc<Snapshot>>,
    /// Intersection of the ring instances, refreshed on publish so the
    /// (frequent) read path never pays for it.
    robust: Arc<AtomSet>,
    next_seq: u64,
    /// Latched once a terminal snapshot lands: a late `live` publish
    /// (e.g. a checkpoint straggling in after the job finished) must not
    /// re-enter the ring and downgrade `complete` replies back to
    /// sound-prefix.
    terminal: bool,
}

/// What survives a [`SnapshotCache::evict`]: enough to keep per-job
/// reply sequences monotone (and the terminal latch honest) if the same
/// job id publishes again.
#[derive(Copy, Clone, Default)]
struct Retired {
    next_seq: u64,
    terminal: bool,
}

struct CacheState {
    jobs: HashMap<u64, JobRing>,
    retired: HashMap<u64, Retired>,
}

/// A concurrent per-job snapshot cache.
///
/// Writers call [`SnapshotCache::publish`] at step boundaries; readers
/// call [`SnapshotCache::view`]. The mutex only guards the ring
/// bookkeeping — instances are shared by `Arc`, so a reader holding a
/// view never blocks a publisher and vice versa.
pub struct SnapshotCache {
    jobs: Mutex<CacheState>,
    /// Serialises publishes and evictions, so a publish can rebuild a
    /// ring outside `jobs` and hold that lock only to swap the result in.
    publishing: Mutex<()>,
    ring_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    published: AtomicU64,
    answers_served: AtomicU64,
    stale_drops: AtomicU64,
}

impl SnapshotCache {
    /// Creates a cache keeping up to `ring_capacity` trailing snapshots
    /// per job (the D^⊛ intersection margin + 1; must be ≥ 1).
    ///
    /// # Panics
    /// Panics if `ring_capacity == 0`.
    pub fn new(ring_capacity: usize) -> Self {
        assert!(ring_capacity >= 1, "ring capacity must be at least 1");
        SnapshotCache {
            jobs: Mutex::new(CacheState {
                jobs: HashMap::new(),
                retired: HashMap::new(),
            }),
            publishing: Mutex::new(()),
            ring_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            published: AtomicU64::new(0),
            answers_served: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
        }
    }

    /// Publishes a snapshot for `job`, sliding its ring forward and
    /// refreshing the robust intersection. A terminal snapshot clears
    /// the ring — the final instance alone is served from then on, and
    /// later `live` publishes for the job are dropped (counted in
    /// [`CacheStats::stale_drops`]) instead of downgrading `complete`
    /// replies. Per-job sequence numbers stay monotone for the cache's
    /// lifetime, across [`SnapshotCache::evict`] and re-publish.
    ///
    /// The ring intersection and the freeing of evicted snapshots happen
    /// outside the lock [`SnapshotCache::view`] takes, so a publish never
    /// stalls a concurrent reader for longer than a swap.
    pub fn publish(&self, job: u64, snapshot: Snapshot) {
        let terminated = snapshot.terminated;
        let _publishing = self.publishing.lock().expect("snapshot cache poisoned");
        let st = self.jobs.lock().expect("snapshot cache poisoned");
        let entry = st.jobs.get(&job);
        let already_terminal = entry.map_or_else(
            || st.retired.get(&job).is_some_and(|r| r.terminal),
            |e| e.terminal,
        );
        if already_terminal && !terminated {
            drop(st);
            self.stale_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = entry
            .filter(|_| !terminated)
            .map_or_else(VecDeque::new, |e| e.ring.clone());
        drop(st);
        ring.push_back(Arc::new(snapshot));
        while ring.len() > self.ring_capacity {
            ring.pop_front();
        }
        let robust = intersect_ring(&ring);
        let mut st = self.jobs.lock().expect("snapshot cache poisoned");
        let carried = st.retired.get(&job).copied().unwrap_or_default();
        let entry = st.jobs.entry(job).or_insert_with(|| JobRing {
            ring: VecDeque::new(),
            robust: Arc::new(AtomSet::new()),
            next_seq: carried.next_seq,
            terminal: carried.terminal,
        });
        entry.terminal |= terminated;
        entry.next_seq += 1;
        let evicted = (
            std::mem::replace(&mut entry.ring, ring),
            std::mem::replace(&mut entry.robust, robust),
        );
        drop(st);
        drop(evicted);
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// The view to answer queries for `job` from, or `None` when no
    /// snapshot has been published yet.
    pub fn view(&self, job: u64) -> Option<QueryView> {
        let jobs = self.jobs.lock().expect("snapshot cache poisoned");
        let Some(entry) = jobs.jobs.get(&job) else {
            drop(jobs);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let Some(newest) = entry.ring.back() else {
            drop(jobs);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let view = QueryView {
            vocab: Arc::clone(&newest.vocab),
            instance: if newest.terminated {
                Arc::clone(&newest.instance)
            } else {
                Arc::clone(&entry.robust)
            },
            terminated: newest.terminated,
            sequence: entry.next_seq - 1,
            applications: newest.applications,
            captured: newest.captured,
            ring_len: entry.ring.len(),
        };
        drop(jobs);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(view)
    }

    /// Capture time of `job`'s newest snapshot, without touching the
    /// hit/miss counters (for listings and health reporting).
    pub fn latest_captured(&self, job: u64) -> Option<Instant> {
        let jobs = self.jobs.lock().expect("snapshot cache poisoned");
        jobs.jobs.get(&job)?.ring.back().map(|s| s.captured)
    }

    /// Drops a job's ring (e.g. when the job record is evicted). The
    /// job's sequence counter and terminal latch are retained, so a
    /// later re-publish under the same id continues the sequence instead
    /// of restarting readers at zero.
    pub fn evict(&self, job: u64) {
        let _publishing = self.publishing.lock().expect("snapshot cache poisoned");
        let mut st = self.jobs.lock().expect("snapshot cache poisoned");
        if let Some(ring) = st.jobs.remove(&job) {
            st.retired.insert(
                job,
                Retired {
                    next_seq: ring.next_seq,
                    terminal: ring.terminal,
                },
            );
        }
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

/// Intersection of the ring instances — the liminf proxy mirroring
/// `RobustSequence::aggregation_prefix`: an atom is in the robust
/// prefix iff it survived in every trailing snapshot.
fn intersect_ring(ring: &VecDeque<Arc<Snapshot>>) -> Arc<AtomSet> {
    let Some(first) = ring.front() else {
        return Arc::new(AtomSet::new());
    };
    if ring.len() == 1 {
        return Arc::clone(&first.instance);
    }
    let atoms: AtomSet = first
        .instance
        .iter()
        .filter(|a| ring.iter().skip(1).all(|s| s.instance.contains(a)))
        .cloned()
        .collect();
    Arc::new(atoms)
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
        let cache = SnapshotCache::new(3);
        assert!(cache.view(7).is_none());
        let mut vocab = Vocabulary::new();
        let i1 = inst(&mut vocab, &["a"]);
        cache.publish(7, Snapshot::live(vocab.clone(), i1, 1));
        let i2 = inst(&mut vocab, &["a", "b"]);
        cache.publish(7, Snapshot::terminal(vocab.clone(), i2.clone(), 2));
        let view = cache.view(7).expect("published");
        assert!(view.terminated);
        assert_eq!(*view.instance, i2);
        assert_eq!(view.ring_len, 1, "terminal snapshot clears the ring");
        assert_eq!(view.applications, 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.published, 2);
    }

    #[test]
    fn robust_view_is_ring_intersection() {
        let cache = SnapshotCache::new(2);
        let mut vocab = Vocabulary::new();
        // Simulate core retraction: atom `b` appears then disappears.
        let i1 = inst(&mut vocab, &["a", "b"]);
        let i2 = inst(&mut vocab, &["a", "c"]);
        cache.publish(1, Snapshot::live(vocab.clone(), i1, 1));
        cache.publish(1, Snapshot::live(vocab.clone(), i2, 2));
        let view = cache.view(1).expect("published");
        assert!(!view.terminated);
        assert_eq!(view.ring_len, 2);
        assert_eq!(view.instance.len(), 1, "only `a` survives both");
        // Ring capacity 2: a third publish drops the first snapshot.
        let i3 = inst(&mut vocab, &["a", "c", "d"]);
        cache.publish(1, Snapshot::live(vocab.clone(), i3, 3));
        let view = cache.view(1).expect("published");
        assert_eq!(view.instance.len(), 2, "a and c survive the last two");
        assert_eq!(view.sequence, 2);
    }

    #[test]
    fn sequences_stay_monotone_across_evict_and_republish() {
        let cache = SnapshotCache::new(2);
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
        let cache = SnapshotCache::new(3);
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
        let cache = SnapshotCache::new(1);
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
