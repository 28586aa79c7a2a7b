//! **E5 — Table 1**: the rule-application schedule that produces step
//! `S_k` from column `C_k`.
//!
//! Replays the schedule (one `R1h` on the top loop, `k`× `R2h` top-down,
//! one `R3h`, `k+1`× `R4h` bottom-up) for a sweep of `k` and verifies
//! application-by-application that each produces *exactly* the atoms the
//! table lists, ending at `S_k` (and, after the fold, at `C_{k+1}`).

use chase_atoms::DisplayWith;
use chase_bench::{exit_with, Report};
use chase_kbs::Staircase;

fn main() {
    let mut report = Report::new("e5-table1-schedule");
    let k_max = 6u32;

    let mut s = Staircase::new();
    let d = s.scripted_restricted_chase(k_max);
    report.claim(
        "table1/derivation-valid",
        "the scheduled derivation satisfies Definition 1",
        format!("{:?}", d.validate()),
        d.validate().is_ok(),
    );

    // One replay of D_r walks the schedule: D_r is monotonic, so what
    // step i added is F_i \ F_{i-1}, and after the last application of
    // step k the chase has built S_k ⊆ F_i.
    let schedules: Vec<_> = (0..k_max).map(|k| s.schedule(k)).collect();
    let rects: Vec<_> = (0..k_max).map(|k| s.step_rect(k)).collect();
    let apps: Vec<_> = (0u32..)
        .zip(&schedules)
        .flat_map(|(k, sch)| sch.iter().enumerate().map(move |(j, app)| (k, j, app)))
        .collect();
    let mut all_exact = apps.len() + 1 == d.len();
    d.replay(|e| {
        let Some(&(k, j, app)) = e.index.checked_sub(1).and_then(|i| apps.get(i)) else {
            return;
        };
        let len = schedules[k as usize].len();
        if j == 0 {
            report.row(format!(
                "step k={k}: {len} applications (expected {})",
                2 * k + 3
            ));
            all_exact &= len as u32 == 2 * k + 3;
        }
        all_exact &= e.added.len() == app.expected_new.len()
            && app.expected_new.iter().all(|a| e.added.contains(a));
        if k <= 1 {
            let rule_name = d.rules().get(app.rule).name();
            let atoms: Vec<String> = e
                .added
                .iter()
                .map(|a| format!("{}", a.with(&s.vocab)))
                .collect();
            report.row(format!("  {rule_name:<4} ⇒ {}", atoms.join(", ")));
        }
        if j + 1 == len {
            all_exact &= rects[k as usize].is_subset_of(e.instance);
        }
    });
    report.claim(
        "table1/applications-exact",
        "every application produces exactly the listed atoms",
        all_exact,
        all_exact,
    );

    // The core-chase variant of the same schedule ends at C_{k_max}.
    let mut s2 = Staircase::new();
    let dc = s2.scripted_core_chase(k_max);
    report.claim(
        "table1/core-variant-folds",
        "the folded schedule ends at C_k",
        format!("{} atoms", dc.last_instance().len()),
        dc.last_instance() == &s2.column(k_max),
    );

    exit_with(report.finish());
}
