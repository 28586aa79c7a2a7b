//! B3 — chase variant throughput on the paper's KBs: applications per
//! second of the oblivious / semi-oblivious / restricted / core chases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use chase_core::KnowledgeBase;
use chase_engine::{ChaseConfig, ChaseVariant, SchedulerKind};

fn bench_variants(c: &mut Criterion) {
    let cases = [
        ("staircase", KnowledgeBase::staircase(), 30usize),
        ("elevator", KnowledgeBase::elevator(), 30usize),
        (
            "datalog",
            KnowledgeBase::from_text(
                "r(a,b). r(b,c). r(c,d). r(d,e). T: r(X,Y), r(Y,Z) -> r(X,Z).",
            )
            .unwrap(),
            1_000,
        ),
    ];
    for (name, kb, budget) in cases {
        let mut group = c.benchmark_group(format!("chase/{name}"));
        group.warm_up_time(Duration::from_millis(300));
        group.measurement_time(Duration::from_secs(3));
        group.sample_size(10);
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
            ChaseVariant::Core,
        ] {
            let cfg = ChaseConfig::variant(variant)
                .with_scheduler(SchedulerKind::DatalogFirst)
                .with_max_applications(budget)
                .with_max_atoms(5_000);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{variant:?}")),
                &cfg,
                |b, cfg| b.iter(|| kb.chase(cfg).stats.applications),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
