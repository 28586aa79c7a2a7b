//! Derivation goldens: every chase variant on the staircase, elevator and
//! transitive-closure KBs must replay, step for step, the derivation
//! recorded in `testdata/derivations/` by `testdata/derivations/record.sh`
//! — the applied rule, `π_safe`, `σ_i` and the sorted atoms of every
//! `F_i`, byte for byte — and the last replayed instance must be the
//! run's final instance.

use std::fmt::Write as _;

use treechase::atoms::DisplayWith;
use treechase::core::KnowledgeBase;
use treechase::engine::{run_chase, ChaseConfig, ChaseVariant};

const VARIANTS: [(&str, ChaseVariant); 5] = [
    ("oblivious", ChaseVariant::Oblivious),
    ("semi-oblivious", ChaseVariant::SemiOblivious),
    ("restricted", ChaseVariant::Restricted),
    ("frugal", ChaseVariant::Frugal),
    ("core", ChaseVariant::Core),
];

/// Chases `kb` under every variant and compares each rendered derivation
/// with `testdata/derivations/<kb_name>.<variant>.golden`.
fn check_against_goldens(kb_name: &str, kb: &KnowledgeBase, budget: usize) {
    for (variant_name, variant) in VARIANTS {
        let cfg = ChaseConfig::variant(variant).with_max_applications(budget);
        let mut vocab = kb.vocab.clone();
        let res = run_chase(&mut vocab, &kb.facts, &kb.rules, &cfg);
        let d = &res.derivation;
        let mut text = format!(
            "# {kb_name} {variant_name} max_applications={budget}: {:?} after {} applications\n",
            res.outcome, res.stats.applications
        );
        let mut replayed_last = None;
        d.replay(|e| {
            let i = e.index;
            let applied = match i {
                0 => "initial".to_string(),
                _ => {
                    let step = &d.steps()[i - 1];
                    format!(
                        "{} π_safe {}",
                        d.rules().get(step.trigger.rule).name(),
                        step.pi_safe.with(&vocab)
                    )
                }
            };
            let _ = writeln!(
                text,
                "{i} {applied} σ {} F {}",
                d.simplification(i).with(&vocab),
                e.instance.with(&vocab)
            );
            if i + 1 == d.len() {
                replayed_last = Some(e.instance.clone());
            }
        });
        let path = format!(
            "{}/testdata/derivations/{kb_name}.{variant_name}.golden",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read_to_string(&path).expect("golden present");
        assert!(
            text == golden,
            "{kb_name}/{variant_name}: replayed derivation differs from {path}\n\
             --- replayed ---\n{text}--- golden ---\n{golden}"
        );
        assert_eq!(
            replayed_last.as_ref(),
            Some(&res.final_instance),
            "{kb_name}/{variant_name}: the last replayed instance is the final instance"
        );
    }
}

#[test]
fn staircase_derivations_replay_their_goldens() {
    check_against_goldens("staircase", &KnowledgeBase::staircase(), 12);
}

#[test]
fn elevator_derivations_replay_their_goldens() {
    check_against_goldens("elevator", &KnowledgeBase::elevator(), 12);
}

#[test]
fn transitive_closure_derivations_replay_their_goldens() {
    let kb = KnowledgeBase::from_text(
        "r(a, b). r(b, c). r(c, d). r(d, e). r(e, f). \
         T: r(X, Y), r(Y, Z) -> r(X, Z).",
    )
    .expect("transitive closure parses");
    check_against_goldens("transitive", &kb, 20);
}
