//! **E6 — Theorems 1–2**: the twin semi-decision procedure.
//!
//! Runs the dovetailed two-run decision procedure over the full ground-truth
//! query suites of both headline KBs (and a terminating datalog KB) and
//! compares against the analytic universal models. Positive answers must
//! be *certified*; negatives on non-terminating KBs are heuristic (the
//! full MSO-over-bounded-treewidth refuter is non-implementable — see
//! DESIGN.md) and must still agree with ground truth.

use chase_bench::{exit_with, Report};
use chase_core::{decide, DecideConfig, DecideOutcome, KnowledgeBase};
use chase_kbs::queries::{elevator_queries, staircase_queries};

fn main() {
    let mut report = Report::new("e6-decide");
    // Budgets: positives certify within ~30 applications on both KBs;
    // negatives must burn the whole budget in every worker, so keep it
    // modest (the answer quality is unchanged — negatives on the
    // divergent KBs are heuristic at any finite budget).
    let cfg = DecideConfig {
        max_applications: 150,
        max_atoms: 20_000,
        core_max_applications: 30,
    };

    // Steepening staircase.
    let kb = KnowledgeBase::staircase();
    let mut vocab = kb.vocab.clone();
    let mut agree = 0usize;
    let mut total = 0usize;
    let mut positives_certified = true;
    for gt in staircase_queries(&mut vocab) {
        let out = decide(&kb, &gt.query, &cfg);
        let answer = matches!(out, DecideOutcome::Entailed { .. });
        if gt.entailed && !matches!(out, DecideOutcome::Entailed { .. }) {
            positives_certified = false;
        }
        total += 1;
        if answer == gt.entailed {
            agree += 1;
        }
        report.row(format!(
            "K_h ⊨ {:<18} truth={} decided={answer} via {:?}",
            gt.name, gt.entailed, out
        ));
    }
    report.claim(
        "thm2/staircase-agreement",
        "twin procedure agrees with ground truth",
        format!("{agree}/{total}"),
        agree == total,
    );
    report.claim(
        "thm1/staircase-positives-certified",
        "every entailed CQ found by semi-procedure 1",
        positives_certified,
        positives_certified,
    );

    // Inflating elevator.
    let kb = KnowledgeBase::elevator();
    let mut vocab = kb.vocab.clone();
    let mut agree = 0usize;
    let mut total = 0usize;
    let mut positives_certified = true;
    for gt in elevator_queries(&mut vocab) {
        let out = decide(&kb, &gt.query, &cfg);
        let answer = matches!(out, DecideOutcome::Entailed { .. });
        if gt.entailed && !matches!(out, DecideOutcome::Entailed { .. }) {
            positives_certified = false;
        }
        total += 1;
        if answer == gt.entailed {
            agree += 1;
        }
        report.row(format!(
            "K_v ⊨ {:<18} truth={} decided={answer} via {:?}",
            gt.name, gt.entailed, out
        ));
    }
    report.claim(
        "thm2/elevator-agreement",
        "twin procedure agrees with ground truth",
        format!("{agree}/{total}"),
        agree == total,
    );
    report.claim(
        "thm1/elevator-positives-certified",
        "every entailed CQ found by semi-procedure 1",
        positives_certified,
        positives_certified,
    );

    // Terminating KB: both directions certified.
    let mut kb =
        KnowledgeBase::from_text("r(a, b). r(b, c). r(c, d). T: r(X, Y), r(Y, Z) -> r(X, Z).")
            .expect("kb parses");
    let pos = kb.parse_query("r(a, d)").unwrap();
    let neg = kb.parse_query("r(d, a)").unwrap();
    let pos_out = decide(&kb, &pos, &cfg);
    let neg_out = decide(&kb, &neg, &cfg);
    report.claim(
        "thm1/terminating-positive-certified",
        "Entailed",
        format!("{pos_out:?}"),
        matches!(pos_out, DecideOutcome::Entailed { .. }),
    );
    report.claim(
        "thm1/terminating-negative-certified",
        "NotEntailed (finite universal model)",
        format!("{neg_out:?}"),
        matches!(neg_out, DecideOutcome::NotEntailed { .. }),
    );

    exit_with(report.finish());
}
