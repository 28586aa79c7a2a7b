//! Integration tests for the static analyses (chase-analysis), the CQ
//! operations, and the frugal chase variant — checking that the
//! syntactic certificates agree with the dynamic chase behaviour.

use treechase::analysis::{analyze, jointly_acyclic, weakly_acyclic};
use treechase::core::cq::{cq_contained_in, cq_equivalent, minimize_cq};
use treechase::homomorphism::SearchBudget;
use treechase::prelude::*;
use treechase::query::{answer_kb, Completeness};

fn kb(src: &str) -> KnowledgeBase {
    KnowledgeBase::from_text(src).unwrap()
}

/// Weak acyclicity certificates agree with observed termination on the
/// witness suite.
#[test]
fn acyclicity_predicts_termination() {
    // (source, weakly acyclic expected, chase terminates expected)
    let cases = [
        ("r(a, b). T: r(X, Y), r(Y, Z) -> r(X, Z).", true, true),
        ("r(a, b). R: r(X, Y) -> r(Y, Z).", false, false),
        (
            "r(a, b). R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).",
            true,
            true,
        ),
    ];
    for (src, wa, terminates) in cases {
        let k = kb(src);
        assert_eq!(weakly_acyclic(&k.rules), wa, "{src}");
        let res =
            k.chase(&ChaseConfig::variant(ChaseVariant::SemiOblivious).with_max_applications(200));
        assert_eq!(res.outcome.terminated(), terminates, "{src}");
        // Soundness direction: certified ⇒ terminates.
        if wa {
            assert!(res.outcome.terminated());
        }
    }
}

/// Joint acyclicity is implied by weak acyclicity on a sample of
/// rulesets (subsumption direction of Krötzsch–Rudolph).
#[test]
fn weak_implies_joint_acyclicity() {
    let sources = [
        "T: r(X, Y), r(Y, Z) -> r(X, Z).",
        "R: r(X, Y) -> s(Y, Z).",
        "A: p(X) -> q(X). B: q(X) -> e(X, Y).",
        "R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> r(X, X).",
    ];
    for src in sources {
        let k = kb(&format!("seed(a). {src}"));
        if weakly_acyclic(&k.rules) {
            assert!(jointly_acyclic(&k.rules), "{src}");
        }
    }
}

/// The staircase and elevator rulesets carry no syntactic certificate —
/// their behaviour is exactly what the paper's dynamic analysis is for.
#[test]
fn paper_kbs_have_no_syntactic_certificate() {
    let kh = KnowledgeBase::staircase();
    let report = analyze(&kh.rules);
    assert!(!report.certified_fes());

    let kv = KnowledgeBase::elevator();
    let report = analyze(&kv.rules);
    assert!(!report.certified_fes());
}

/// CQ minimization interacts correctly with entailment: a query and its
/// core are entailed by exactly the same KBs.
#[test]
fn minimized_queries_answer_identically() {
    let mut k = kb("r(a, b). r(b, c). T: r(X, Y), r(Y, Z) -> r(X, Z).");
    let q = k.parse_query("r(X, Y), r(X, Z)").unwrap(); // redundant
    let m = minimize_cq(&q);
    assert!(m.len() < q.len());
    assert!(cq_equivalent(&q, &m));
    let cfg = ChaseConfig::default();
    assert_eq!(
        entail(&k, &q, &cfg).is_entailed(),
        entail(&k, &m, &cfg).is_entailed()
    );
}

/// Containment is reflexive, transitive, and antisymmetric up to
/// equivalence on a small query family.
#[test]
fn containment_is_a_preorder() {
    let mut vocab = Vocabulary::new();
    let qs: Vec<AtomSet> = ["r(X, Y)", "r(X, Y), r(Y, Z)", "r(X, X)", "r(X, Y), r(Y, X)"]
        .iter()
        .enumerate()
        .map(|(i, src)| chase_parser_parse(&mut vocab, &format!("q{i}"), src))
        .collect();
    for q in &qs {
        assert!(cq_contained_in(q, q));
    }
    for a in &qs {
        for b in &qs {
            for c in &qs {
                if cq_contained_in(a, b) && cq_contained_in(b, c) {
                    assert!(cq_contained_in(a, c));
                }
            }
        }
    }
    // r(X,X) ⊑ r(X,Y) but not conversely.
    assert!(cq_contained_in(&qs[2], &qs[0]));
    assert!(!cq_contained_in(&qs[0], &qs[2]));
}

fn chase_parser_parse(vocab: &mut Vocabulary, prefix: &str, src: &str) -> AtomSet {
    treechase::parser::parse_atoms_with(vocab, prefix, src).unwrap()
}

/// The frugal chase sits between restricted and core on instance size,
/// and all three agree on CQ entailment.
#[test]
fn frugal_between_restricted_and_core() {
    let k = kb("r(a, b).
         R: r(X, Y) -> s(Y, Z), s(Y, W), t(Z).");
    let sizes: Vec<usize> = [
        ChaseVariant::Restricted,
        ChaseVariant::Frugal,
        ChaseVariant::Core,
    ]
    .iter()
    .map(|&v| {
        let res = k.chase(&ChaseConfig::variant(v).with_max_applications(50));
        assert!(res.outcome.terminated(), "{v:?}");
        res.final_instance.len()
    })
    .collect();
    assert!(
        sizes[0] >= sizes[1] && sizes[1] >= sizes[2],
        "restricted {} ≥ frugal {} ≥ core {}",
        sizes[0],
        sizes[1],
        sizes[2]
    );

    let mut k2 = k.clone();
    let q = k2.parse_query("s(b, V), t(V)").unwrap();
    for v in [
        ChaseVariant::Restricted,
        ChaseVariant::Frugal,
        ChaseVariant::Core,
    ] {
        assert!(
            entail(&k, &q, &ChaseConfig::variant(v)).is_entailed(),
            "{v:?}"
        );
    }
}

/// Certain answers respect the core/restricted equivalence.
#[test]
fn certain_answers_variant_independent() {
    let k = kb("emp(ann, cs). emp(bea, cs).
         M: emp(N, D) -> works(N, D).
         H: works(N, D) -> head(D, H).");
    let answers = |variant| {
        let cfg = ChaseConfig::variant(variant);
        answer_kb(&k, "?(X) :- works(X, cs)", &cfg, &SearchBudget::unlimited()).unwrap()
    };
    let a1 = answers(ChaseVariant::Core);
    let a2 = answers(ChaseVariant::Frugal);
    let a3 = answers(ChaseVariant::Restricted);
    assert_eq!(a1.answers, a2.answers);
    assert_eq!(a1.answers, a3.answers);
    assert_eq!(a1.answers.len(), 2);
    for a in [&a1, &a2, &a3] {
        assert_eq!(a.completeness, Completeness::Complete);
    }
}
