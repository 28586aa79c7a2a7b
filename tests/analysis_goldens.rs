//! Analyzer goldens: the critical-instance tests (`mfa_test`,
//! `kbounded_test`, `critical_instance_test`) and the dynamic fields of
//! `analyze_with_budget` must reproduce, byte for byte, the outcomes
//! recorded in `testdata/analysis/critical.golden` for a fixed corpus of
//! rulesets at several node limits.
//!
//! The same rendering records the golden: with `ANALYSIS_GOLDENS_OUT` set
//! to a file path the test writes its text there instead of comparing.
//! `testdata/analysis/record.sh <git-revision>` does this against an
//! exported revision.

use std::fmt::Write as _;

use treechase::analysis::{analyze_with_budget, critical_instance_test, kbounded_test, mfa_test};
use treechase::atoms::{AtomSet, Vocabulary};
use treechase::core::KnowledgeBase;
use treechase::homomorphism::SearchBudget;
use treechase::kbs::random::random_linear_ruleset;

/// Node limits every ruleset is analysed under.
const LIMITS: [usize; 4] = [0, 16, 256, 2_000];

// The corpus: `corpus(testdata)`, shared with the admission gate's
// differential test.
include!("support/analysis_corpus.rs");

/// One line per (ruleset, node limit): every critical-instance outcome.
fn render() -> String {
    let mut text = String::new();
    let testdata = format!("{}/testdata", env!("CARGO_MANIFEST_DIR"));
    for (name, kb) in corpus(&testdata) {
        let rules = kb.rules;
        for limit in LIMITS {
            let budget = SearchBudget::unlimited().with_node_limit(limit);
            let report = analyze_with_budget(&rules, &budget);
            let _ = writeln!(
                text,
                "{name} limit={limit}: mfa_test {:?} | kbounded_test {:?} | \
                 critical_instance_test {:?} | analyze.mfa {:?} | analyze.kbounded {:?} | \
                 analyze.terminating {:?}",
                mfa_test(&rules, &budget),
                kbounded_test(&rules, &budget),
                critical_instance_test(&rules, &budget),
                report.mfa,
                report.kbounded,
                report.terminating,
            );
        }
    }
    text
}

#[test]
fn critical_instance_outcomes_match_their_golden() {
    let text = render();
    if let Ok(out) = std::env::var("ANALYSIS_GOLDENS_OUT") {
        std::fs::write(&out, &text).expect("golden written");
        return;
    }
    let path = format!(
        "{}/testdata/analysis/critical.golden",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).expect("golden present");
    for (line, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{path}:{}: outcome differs", line + 1);
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "{path}: line count differs"
    );
}
