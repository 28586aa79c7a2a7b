#!/bin/sh
# Records the derivation goldens replayed by tests/derivation_goldens.rs.
#
#   testdata/derivations/record.sh <git-revision>
#
# Exports <git-revision> of this repository into a temporary tree, builds
# the recorder below there as an example of the `treechase` package, and
# writes one `<kb>.<variant>.golden` per chased KB and chase variant into
# this directory. A golden renders every element of the recorded
# derivation with the run's vocabulary: the applied rule, `π_safe`, the
# simplification `σ_i` and the sorted atoms of `F_i`.
#
# The recorder reads the instance each derivation step stored, so it
# builds against revisions whose `ChaseResult::derivation` is an `Option`
# keeping every `F_i`; the test replays the log-only derivation of later
# revisions against the goldens those revisions recorded. Revisions that
# still have `ChaseConfig::probe_threads` probe core folds on several
# threads by default, so their core goldens repeat only up to
# isomorphism. Set CARGO_TARGET_DIR to reuse a build directory across
# recordings.
set -eu
REV=$1
DIR=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$DIR/../.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

git -C "$ROOT" archive "$REV" | tar -x -C "$TMP"
cat > "$TMP/examples/record_derivations.rs" <<'EOF'
use std::fmt::Write as _;

use treechase::atoms::DisplayWith;
use treechase::core::KnowledgeBase;
use treechase::engine::{run_chase, ChaseConfig, ChaseVariant};

fn main() {
    let out = std::env::args().nth(1).expect("output directory");
    let tc = KnowledgeBase::from_text(
        "r(a, b). r(b, c). r(c, d). r(d, e). r(e, f). \
         T: r(X, Y), r(Y, Z) -> r(X, Z).",
    )
    .expect("transitive closure parses");
    let kbs = [
        ("staircase", KnowledgeBase::staircase(), 12),
        ("elevator", KnowledgeBase::elevator(), 12),
        ("transitive", tc, 20),
    ];
    let variants = [
        ("oblivious", ChaseVariant::Oblivious),
        ("semi-oblivious", ChaseVariant::SemiOblivious),
        ("restricted", ChaseVariant::Restricted),
        ("frugal", ChaseVariant::Frugal),
        ("core", ChaseVariant::Core),
    ];
    for (kb_name, kb, budget) in &kbs {
        for (variant_name, variant) in variants {
            let cfg = ChaseConfig::variant(variant).with_max_applications(*budget);
            let mut vocab = kb.vocab.clone();
            let res = run_chase(&mut vocab, &kb.facts, &kb.rules, &cfg);
            let d = res.derivation.expect("full record");
            let mut text = format!(
                "# {kb_name} {variant_name} max_applications={budget}: {:?} after {} applications\n",
                res.outcome, res.stats.applications
            );
            for (i, step) in d.steps().iter().enumerate() {
                let applied = match (&step.trigger, &step.pi_safe) {
                    (Some(tr), Some(pi_safe)) => format!(
                        "{} π_safe {}",
                        d.rules().get(tr.rule).name(),
                        pi_safe.with(&vocab)
                    ),
                    _ => "initial".to_string(),
                };
                let _ = writeln!(
                    text,
                    "{i} {applied} σ {} F {}",
                    step.simplification.with(&vocab),
                    step.instance.with(&vocab)
                );
            }
            let path = format!("{out}/{kb_name}.{variant_name}.golden");
            std::fs::write(&path, text).expect("golden written");
        }
    }
}
EOF
cd "$TMP"
cargo run --release --quiet --offline --example record_derivations -- "$DIR"
