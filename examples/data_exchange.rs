//! Data exchange with source-to-target dependencies — the classic
//! application of the chase (Fagin, Kolaitis, Miller, Popa, TCS 2005):
//! chase the source instance with the st-tgds and target constraints to
//! obtain a *universal solution*, then answer target queries by certain
//! answers.
//!
//! ```sh
//! cargo run --example data_exchange
//! ```

use treechase::analysis::analyze;
use treechase::homomorphism::SearchBudget;
use treechase::prelude::*;
use treechase::query::{answer_kb, Completeness};

fn main() {
    // Source schema: emp(name, dept); target schema: works_in(name, dept),
    // dept_head(dept, head), managed(name, head).
    let src = "
        % source data
        emp(ann, cs). emp(bea, cs). emp(cal, math).

        % st-tgds: every employee moves to the target; every target dept
        % gets an (unknown) head.
        ST1: emp(N, D) -> works_in(N, D).
        ST2: works_in(N, D) -> dept_head(D, H).

        % target tgd: employees are managed by their department head.
        T1: works_in(N, D), dept_head(D, H) -> managed(N, H).
    ";
    let mut kb = KnowledgeBase::from_text(src).expect("mapping parses");

    // Static analysis: this mapping is weakly acyclic, so the chase
    // terminates on every source instance — the data-exchange guarantee.
    let report = analyze(&kb.rules);
    println!("--- static analysis of the mapping ---\n{report}\n");
    assert!(report.weakly_acyclic);

    // Build the universal solution with the core chase (this yields the
    // *core solution*, the smallest universal solution — exactly the
    // "best" target instance of data exchange).
    let result = kb.chase(&ChaseConfig::variant(ChaseVariant::Core));
    assert!(result.outcome.terminated());
    println!(
        "--- core universal solution ({} atoms) ---\n{}\n",
        result.final_instance.len(),
        result.final_instance.with(&kb.vocab)
    );

    // Certain answers: who works in cs? (Constants only — the invented
    // department heads are labeled nulls and must not be returned.)
    let answers = answer_kb(
        &kb,
        "?(X) :- works_in(X, cs)",
        &ChaseConfig::variant(ChaseVariant::Core),
        &SearchBudget::unlimited(),
    )
    .expect("query parses");
    println!("--- certain answers to works_in(X, cs) ---");
    for tuple in &answers.answers {
        println!("  X = {}", tuple[0]);
    }
    assert_eq!(answers.completeness, Completeness::Complete);
    assert_eq!(answers.answers.len(), 2);

    // Boolean query: do two cs employees share a manager? True in every
    // solution (they share the department head).
    let shared = kb.parse_query("managed(ann, H), managed(bea, H)").unwrap();
    let verdict = entail(&kb, &shared, &ChaseConfig::variant(ChaseVariant::Core));
    println!("\nann and bea share a manager: {verdict:?}");
    assert!(verdict.is_entailed());

    // And a non-certain one: is cal managed by ann? No model forces it.
    let no = kb.parse_query("managed(cal, ann)").unwrap();
    let verdict = entail(&kb, &no, &ChaseConfig::variant(ChaseVariant::Core));
    println!("cal managed by ann: {verdict:?}");
    assert!(verdict.is_not_entailed());
}
