//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **core interval** — how often the core chase retracts to a core
//!   (Definition 1 allows any finite spacing). Interval 1 keeps instances
//!   minimal but pays a core computation per application; larger
//!   intervals trade instance size for fewer retractions.
//! * **semi-naive trigger discovery** — the monotonic variants only scan
//!   the delta; the Frugal variant on datalog is an exact full-rescan
//!   baseline (it never folds without fresh nulls), isolating the
//!   discovery strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use chase_core::KnowledgeBase;
use chase_engine::{ChaseConfig, ChaseVariant, SchedulerKind};

fn bench_core_interval(c: &mut Criterion) {
    let kb = KnowledgeBase::staircase();
    let mut group = c.benchmark_group("ablation/core-interval");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for interval in [1usize, 4, 16] {
        let cfg = ChaseConfig::variant(ChaseVariant::Core)
            .with_scheduler(SchedulerKind::DatalogFirst)
            .with_core_interval(interval)
            .with_max_applications(25);
        group.bench_with_input(BenchmarkId::from_parameter(interval), &cfg, |b, cfg| {
            b.iter(|| kb.chase(cfg).stats.retractions)
        });
    }
    group.finish();
}

fn bench_semi_naive_vs_full_rescan(c: &mut Criterion) {
    // Datalog closure of a long chain: Restricted uses delta discovery,
    // Frugal re-scans every round (and never folds on datalog), so the
    // difference isolates the discovery strategy.
    let mut facts = String::new();
    for i in 0..14 {
        facts.push_str(&format!("r(k{i}, k{}).\n", i + 1));
    }
    let kb = KnowledgeBase::from_text(&format!(
        "{facts}T: r(X, Y), r(Y, Z) -> r(X, Z)."
    ))
    .expect("kb parses");
    let mut group = c.benchmark_group("ablation/trigger-discovery");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for (name, variant) in [
        ("semi-naive", ChaseVariant::Restricted),
        ("full-rescan", ChaseVariant::Frugal),
    ] {
        let cfg = ChaseConfig::variant(variant);
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let res = kb.chase(cfg);
                assert!(res.outcome.terminated());
                res.final_instance.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_core_interval, bench_semi_naive_vs_full_rescan);
criterion_main!(benches);
