//! A guided tour of the paper's *inflating elevator* `K_v` (Section 7):
//! the KB with a treewidth-1 universal model whose every core chase blows
//! up structurally.
//!
//! ```sh
//! cargo run --example elevator_tour
//! ```

use treechase::engine::boundedness::treewidth_profile;
use treechase::kbs::grids::best_grid_lower_bound;
use treechase::kbs::Elevator;
use treechase::prelude::*;

fn main() {
    let mut e = Elevator::new();
    println!("Σ_v rules:");
    for (_, rule) in e.rules.iter() {
        println!("  {}: {}", rule.name(), rule.with(&e.vocab));
    }
    println!("F_v = {}", e.facts.with(&e.vocab));

    // The spine I^v* is a universal model of treewidth 1.
    let spine = e.spine_prefix(6);
    println!(
        "\nspine I^v* (7 columns): {} atoms, treewidth {}",
        spine.len(),
        treewidth(&spine)
    );

    // The cabins I^v_n are cores with growing grid content.
    for n in [2u32, 4] {
        let cabin = e.cabin(n);
        let side = n / 3 + 1;
        let lab = e.cabin_grid_labeling(n);
        println!(
            "cabin I^v_{n}: {} atoms, core: {}, {side}×{side} grid: {}",
            cabin.len(),
            is_core(&cabin),
            contains_grid(&cabin, &lab)
        );
    }

    // Run the real core chase and watch its treewidth climb — contrast
    // with the staircase, where the core chase stays at 2.
    let mut vocab = e.vocab.clone();
    let cfg = ChaseConfig::variant(ChaseVariant::Core)
        .with_scheduler(SchedulerKind::DatalogFirst)
        .with_max_applications(120);
    let run = run_chase(&mut vocab, &e.facts, &e.rules, &cfg);
    let d = run.derivation;
    let profile = treewidth_profile(&d);
    let ubs: Vec<usize> = profile.iter().map(|b| b.upper).collect();
    println!(
        "\ncore chase ({} applications): tw upper bounds (every 10th) {:?}",
        run.stats.applications,
        ubs.iter().step_by(10).collect::<Vec<_>>()
    );

    let h = e.vocab.lookup_pred("h").unwrap();
    let v = e.vocab.lookup_pred("v").unwrap();
    let bound = best_grid_lower_bound(d.last_instance(), 5, h, v);
    let side = bound.side;
    println!(
        "certified grid in the final element: {side}×{side} ⇒ tw ≥ {side} (Fact 2){}",
        if bound.truncated {
            " — search truncated, larger grids not refuted"
        } else {
            ""
        }
    );

    // Yet CQ answering still works through the spine:
    let kb = KnowledgeBase::elevator();
    let mut kb2 = kb.clone();
    let q = kb2.parse_query("c(A), h(A, B), v(B, C), c(C)").unwrap();
    println!(
        "\nK_v ⊨ spine-step query? {:?}",
        entail(
            &kb,
            &q,
            &ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(200)
        )
    );
}
