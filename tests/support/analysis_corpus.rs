// The analyzer test corpus. Included with `include!` by
// `tests/analysis_goldens.rs` and by the admission gate's differential
// test in `crates/core/src/gate.rs`; the includer brings `AtomSet`,
// `KnowledgeBase`, `Vocabulary` and `random_linear_ruleset` into scope.

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

/// The named KBs of the corpus, in golden order: the paper's two KBs and
/// the programs in `testdata` with their facts, then fact-free rulesets.
fn corpus(testdata: &str) -> Vec<(String, KnowledgeBase)> {
    let mut out = vec![
        ("staircase".to_string(), KnowledgeBase::staircase()),
        ("elevator".to_string(), KnowledgeBase::elevator()),
    ];
    let mut files: Vec<_> = std::fs::read_dir(testdata)
        .expect("testdata readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tc"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("kb readable");
        let kb = KnowledgeBase::from_text(&src).expect("kb parses");
        let name = path.file_name().expect("file name").to_string_lossy();
        out.push((format!("testdata/{name}"), kb));
    }
    for (i, src) in UNIT_RULESETS.iter().enumerate() {
        let kb = KnowledgeBase::from_text(src).expect("unit ruleset parses");
        out.push((format!("unit{i}"), kb));
    }
    for (i, src) in EDGE_RULESETS.iter().enumerate() {
        let kb = KnowledgeBase::from_text(src).expect("edge ruleset parses");
        out.push((format!("edge{i}"), kb));
    }
    for seed in 0..100u64 {
        let mut vocab = Vocabulary::new();
        let rules = random_linear_ruleset(&mut vocab, 4, seed);
        let kb = KnowledgeBase::new(vocab, AtomSet::new(), rules);
        out.push((format!("random{seed}"), kb));
    }
    out
}
