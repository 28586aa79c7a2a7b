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
use treechase::atoms::Vocabulary;
use treechase::core::KnowledgeBase;
use treechase::engine::RuleSet;
use treechase::homomorphism::SearchBudget;
use treechase::kbs::random::random_linear_ruleset;

/// Node limits every ruleset is analysed under.
const LIMITS: [usize; 4] = [0, 16, 256, 2_000];

/// Rulesets of the analyzer's unit tests (mfa, k-bounded, critical
/// instance and report), by source text.
const UNIT_RULESETS: [&str; 13] = [
    "R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).",
    "T: r(X, Y), r(Y, Z) -> r(X, Z).",
    "R: r(X, Y) -> r(Y, Z).",
    "R1: p(X), ok(X) -> q(X, Z). R2: q(X, Z) -> p(Z).",
    "R: p(a, b, c, d, e, f, g, h) -> q(Z).",
    "C: p(X) -> q(X).",
    "R: p(X) -> q(X). S: q(X) -> r(X).",
    "L: p(X) -> p(X).",
    "R: ok(a), r(X, Y) -> r(Y, Z).",
    "R: p(X) -> e(X, Z), p(Z).",
    "Fill: h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2).",
    "R1: p(X) -> q(X, Z), q(Z, X). R2: q(Y, Y) -> p(Y). W: a(X), b(X) -> c(X).",
    "R1: p(X), seed(X) -> q(X, Z). R2: q(X, Z) -> p(Z), seed(Z).",
];

/// Rulesets that put the k-bounded reader's own atom cap or its
/// application slice on the critical path: a critical instance that fits
/// the MFA limit's cap but not the k-bounded one (saturating, then
/// diverging), and a cyclic term that closes only after more than 256
/// applications.
const EDGE_RULESETS: [&str; 3] = [
    "D: p(a, b, c, X, Y) -> q(X).",
    "R: p(a, b, c, d, X, Y) -> r(Y, Z). S: r(X, Y) -> r(Y, Z).",
    "D: p(X, Y, W, V), e(a, b, c, d) -> q(X, Y, W, V). R: r(X, Y) -> r(Y, Z).",
];

/// Named rulesets of the corpus, in golden order.
fn corpus() -> Vec<(String, RuleSet)> {
    let mut out = vec![
        ("staircase".to_string(), KnowledgeBase::staircase().rules),
        ("elevator".to_string(), KnowledgeBase::elevator().rules),
    ];
    let dir = format!("{}/testdata", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("testdata readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tc"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("kb readable");
        let kb = KnowledgeBase::from_text(&src).expect("kb parses");
        let name = path.file_name().expect("file name").to_string_lossy();
        out.push((format!("testdata/{name}"), kb.rules));
    }
    for (i, src) in UNIT_RULESETS.iter().enumerate() {
        let kb = KnowledgeBase::from_text(src).expect("unit ruleset parses");
        out.push((format!("unit{i}"), kb.rules));
    }
    for (i, src) in EDGE_RULESETS.iter().enumerate() {
        let kb = KnowledgeBase::from_text(src).expect("edge ruleset parses");
        out.push((format!("edge{i}"), kb.rules));
    }
    for seed in 0..100u64 {
        let rules = random_linear_ruleset(&mut Vocabulary::new(), 4, seed);
        out.push((format!("random{seed}"), rules));
    }
    out
}

/// One line per (ruleset, node limit): every critical-instance outcome.
fn render() -> String {
    let mut text = String::new();
    for (name, rules) in corpus() {
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
