//! The query-answering engine: evaluates parsed CQ/UCQ answer queries
//! against snapshot views or directly against a knowledge base, tagging
//! every reply with its completeness status.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use chase_atoms::{AtomSet, ConstId, Substitution, Term, Vocabulary};
use chase_core::KnowledgeBase;
use chase_engine::{run_chase, ChaseConfig, ChaseOutcome};
use chase_homomorphism::{for_each_homomorphism_budgeted, MatchConfig, SearchBudget};
use chase_parser::{parse_query, ParseError, ParsedQuery};

use crate::snapshot::QueryView;

/// How much of the true certain-answer set a reply covers. The lattice
/// is `Complete > SoundPrefix > Truncated`: every level is sound, lower
/// levels promise less about missing tuples.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Completeness {
    /// The chase terminated: the instance is a universal model and the
    /// answers are exactly the certain answers.
    Complete,
    /// The chase is still running (or was budget-stopped): the answers
    /// are a sound subset computed from the chase instance as of
    /// `horizon` rule applications. Missing tuples may appear later.
    SoundPrefix {
        /// Rule applications performed when the prefix was captured.
        horizon: u64,
    },
    /// The *query's* search budget clipped the homomorphism enumeration
    /// (or the synchronous chase): a missing tuple means nothing at all
    /// (inconclusive-never-refutation).
    Truncated,
}

impl Completeness {
    /// Stable wire label: `complete`, `sound-prefix`, or `truncated`.
    pub fn label(&self) -> &'static str {
        match self {
            Completeness::Complete => "complete",
            Completeness::SoundPrefix { .. } => "sound-prefix",
            Completeness::Truncated => "truncated",
        }
    }

    /// The sound-prefix horizon, when there is one.
    pub fn horizon(&self) -> Option<u64> {
        match self {
            Completeness::SoundPrefix { horizon } => Some(*horizon),
            _ => None,
        }
    }
}

/// The reply to one answer query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Answer variable names, in output order (empty for boolean
    /// queries).
    pub var_names: Vec<String>,
    /// Answer tuples rendered as constant names, sorted and
    /// deduplicated. A boolean query answers with one empty tuple when
    /// entailed and no tuples otherwise.
    pub answers: Vec<Vec<String>>,
    /// How much of the certain-answer set the reply covers.
    pub completeness: Completeness,
}

impl QueryOutcome {
    /// Is the (boolean or answer) query entailed, i.e. has at least one
    /// answer? For [`Completeness::Complete`] replies `false` is a
    /// refutation; otherwise it is inconclusive.
    pub fn entailed(&self) -> bool {
        !self.answers.is_empty()
    }
}

/// Evaluates every disjunct of `parsed` on `instance` under `budget`,
/// unioning the constant-only answer tuples. Over a single instance the
/// union over disjuncts is exactly UCQ evaluation; over a universal
/// model it is exactly the certain answers (UCQs are preserved by
/// homomorphisms), and over a chase element the tuples are certain
/// answers (chase elements map into every model fixing constants).
/// The flag says whether the budget clipped some enumeration (a miss is
/// then inconclusive, never a refutation).
fn evaluate_disjuncts(
    parsed: &ParsedQuery,
    instance: &AtomSet,
    budget: &SearchBudget,
) -> (BTreeSet<Vec<ConstId>>, bool) {
    let mut tuples = BTreeSet::new();
    let mut truncated = false;
    for (atoms, answer_vars) in &parsed.disjuncts {
        // Nulls are not certain answers: prune every branch that binds an
        // answer variable to one instead of enumerating and discarding it.
        let cfg = MatchConfig {
            const_only: answer_vars.iter().copied().collect(),
            ..MatchConfig::default()
        };
        let outcome = for_each_homomorphism_budgeted(
            atoms,
            instance,
            &Substitution::new(),
            &cfg,
            budget,
            |sub| {
                let tuple: Option<Vec<ConstId>> = answer_vars
                    .iter()
                    .map(|&v| match sub.apply_term(Term::Var(v)) {
                        Term::Const(c) => Some(c),
                        Term::Var(_) => None, // an answer variable absent from the body
                    })
                    .collect();
                if let Some(t) = tuple {
                    tuples.insert(t);
                }
                // A boolean query's one possible tuple is found: stop.
                if answer_vars.is_empty() {
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            },
        );
        truncated |= outcome.truncated;
    }
    (tuples, truncated)
}

fn render_tuples(vocab: &Vocabulary, tuples: BTreeSet<Vec<ConstId>>) -> Vec<Vec<String>> {
    tuples
        .into_iter()
        .map(|t| {
            t.into_iter()
                .map(|c| vocab.const_name(c).unwrap_or("?").to_owned())
                .collect()
        })
        .collect()
}

/// Answers `query_src` against a snapshot view (the cache read path).
///
/// The query is parsed strictly against the view's vocabulary, borrowed
/// (see [`parse_query`]), so predicate and constant identifiers line up
/// with the snapshot instance; unknown predicates and constants simply
/// match nothing. Parsing, evaluation and rendering only read the view,
/// which concurrent readers share by `Arc`: no symbol table is copied.
pub fn answer_view(
    view: &QueryView,
    query_src: &str,
    budget: &SearchBudget,
) -> Result<QueryOutcome, ParseError> {
    let parsed = parse_query(&view.vocab, query_src)?;
    let (tuples, truncated) = evaluate_disjuncts(&parsed, &view.instance, budget);
    let completeness = if truncated {
        Completeness::Truncated
    } else if view.terminated {
        Completeness::Complete
    } else {
        Completeness::SoundPrefix {
            horizon: view.applications,
        }
    };
    Ok(QueryOutcome {
        var_names: parsed.var_names,
        answers: render_tuples(&view.vocab, tuples),
        completeness,
    })
}

/// Answers `query_src` against a knowledge base by running a budgeted
/// chase to (attempted) completion and evaluating on the final
/// instance — the synchronous path behind `treechase query <file>` and
/// the `kb`/`source` forms of the `query` wire op.
///
/// Both the chase and the homomorphism enumeration honor `budget`, so
/// the call never outlives its operation deadline.
pub fn answer_kb(
    kb: &KnowledgeBase,
    query_src: &str,
    cfg: &ChaseConfig,
    budget: &SearchBudget,
) -> Result<QueryOutcome, ParseError> {
    let parsed = parse_query(&kb.vocab, query_src)?;
    let mut vocab = kb.vocab.clone();
    // The query's variables count up from the vocabulary's next fresh
    // one: reserve them, so the chase's nulls stay distinct from them.
    for (atoms, _) in &parsed.disjuncts {
        for v in atoms.vars() {
            vocab.ensure_var(v);
        }
    }
    let run_cfg = cfg.clone().with_search_budget(budget.clone());
    let res = run_chase(&mut vocab, &kb.facts, &kb.rules, &run_cfg);
    let (tuples, match_truncated) = evaluate_disjuncts(&parsed, &res.final_instance, budget);
    let chase_truncated = res.outcome == ChaseOutcome::Cancelled && budget.interrupted();
    let completeness = if match_truncated || chase_truncated {
        Completeness::Truncated
    } else if res.outcome == ChaseOutcome::Terminated {
        Completeness::Complete
    } else {
        Completeness::SoundPrefix {
            horizon: res.stats.applications as u64,
        }
    };
    Ok(QueryOutcome {
        var_names: parsed.var_names,
        answers: render_tuples(&vocab, tuples),
        completeness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SnapshotCache};
    use chase_engine::ChaseVariant;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn kb(src: &str) -> KnowledgeBase {
        KnowledgeBase::from_text(src).expect("valid KB source")
    }

    #[test]
    fn kb_answers_are_the_certain_answers() {
        let kb = kb("r(a, b). r(b, c). T: r(X, Y), r(Y, Z) -> r(X, Z).");
        let cfg = ChaseConfig::variant(ChaseVariant::Core);
        let out = answer_kb(&kb, "?(X) :- r(a, X)", &cfg, &SearchBudget::unlimited()).unwrap();
        assert_eq!(out.completeness, Completeness::Complete);
        assert_eq!(out.var_names, vec!["X".to_owned()]);
        assert_eq!(
            out.answers,
            vec![vec!["b".to_owned()], vec!["c".to_owned()]]
        );
    }

    #[test]
    fn application_budget_tags_a_sound_prefix() {
        // r(X,Y) → ∃Z. r(Y,Z) diverges; five applications in, r(a, b) is
        // still the only constant answer, and more may follow.
        let kb = kb("r(a, b). R: r(X, Y) -> r(Y, Z).");
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(5);
        let out = answer_kb(&kb, "?(X) :- r(a, X)", &cfg, &SearchBudget::unlimited()).unwrap();
        assert_eq!(out.completeness, Completeness::SoundPrefix { horizon: 5 });
        assert_eq!(out.answers, vec![vec!["b".to_owned()]]);
    }

    #[test]
    fn interrupted_budget_truncates_a_nonterminating_chase() {
        // An already-expired deadline or a raised cancel flag must stop
        // the divergent chase at once and tag the reply truncated, not
        // complete.
        let kb = kb("r(a, b). R: r(X, Y) -> r(Y, Z).");
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted);
        for budget in [
            SearchBudget::unlimited().with_deadline(Instant::now()),
            SearchBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(true))),
        ] {
            let started = Instant::now();
            let out = answer_kb(&kb, "?(X) :- r(a, X)", &cfg, &budget).unwrap();
            assert!(started.elapsed() < Duration::from_secs(5));
            assert_eq!(out.completeness, Completeness::Truncated, "{budget:?}");
        }
    }

    #[test]
    fn node_limited_answers_stay_sound() {
        // Clip the enumeration over a terminated chase with a node
        // budget: whatever comes back must be a subset of the complete
        // answers, and a shortfall must be tagged truncated.
        let kb = kb("r(a, b). r(b, c). T: r(X, Y), r(Y, Z) -> r(X, Z).");
        let cfg = ChaseConfig::variant(ChaseVariant::Core);
        let query = "?(X, Y) :- r(X, Y)";
        let full = answer_kb(&kb, query, &cfg, &SearchBudget::unlimited()).unwrap();
        assert_eq!(full.completeness, Completeness::Complete);
        for limit in [0usize, 1, 2, 4, 8] {
            let budget = SearchBudget::unlimited().with_node_limit(limit);
            let clipped = answer_kb(&kb, query, &cfg, &budget).unwrap();
            for t in &clipped.answers {
                assert!(
                    full.answers.contains(t),
                    "unsound tuple under limit {limit}"
                );
            }
            if clipped.answers.len() < full.answers.len() {
                assert_eq!(
                    clipped.completeness,
                    Completeness::Truncated,
                    "limit {limit}"
                );
            }
        }
    }

    #[test]
    fn boolean_and_ucq_forms() {
        let kb = kb("r(a, b). r(b, c). T: r(X, Y), r(Y, Z) -> r(X, Z).");
        let cfg = ChaseConfig::variant(ChaseVariant::Core);
        let yes = answer_kb(&kb, "?- r(a, c)", &cfg, &SearchBudget::unlimited()).unwrap();
        assert!(yes.entailed());
        assert_eq!(yes.answers, vec![Vec::<String>::new()]);
        let no = answer_kb(&kb, "?- r(c, a)", &cfg, &SearchBudget::unlimited()).unwrap();
        assert!(!no.entailed());
        assert_eq!(no.completeness, Completeness::Complete);
        // A boolean UCQ is entailed iff some disjunct is.
        let yes = answer_kb(
            &kb,
            "?- r(c, a) ; r(a, c)",
            &cfg,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert!(yes.entailed());
        let no = answer_kb(
            &kb,
            "?- r(c, a) ; r(b, a)",
            &cfg,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert!(!no.entailed());
        assert_eq!(no.completeness, Completeness::Complete);
        // UCQ: one bad disjunct, one good.
        let ucq = answer_kb(
            &kb,
            "?(X) :- r(X, a) ; r(X, c)",
            &cfg,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(ucq.answers.len(), 2, "a and b reach c");
    }

    #[test]
    fn nulls_never_rendered_as_answers() {
        let kb = kb("r(a, b). R: r(X, Y) -> s(Y, Z).");
        let cfg = ChaseConfig::variant(ChaseVariant::Core);
        let out = answer_kb(&kb, "?(W) :- s(b, W)", &cfg, &SearchBudget::unlimited()).unwrap();
        assert_eq!(out.completeness, Completeness::Complete);
        assert!(out.answers.is_empty());
        // …but the boolean projection is entailed.
        let out = answer_kb(&kb, "?- s(b, W)", &cfg, &SearchBudget::unlimited()).unwrap();
        assert!(out.entailed());
    }

    #[test]
    fn snapshot_view_answers_and_tags() {
        let kb = kb("r(a, b). r(b, c).");
        let cache = SnapshotCache::default();
        cache.publish(1, Snapshot::live(kb.vocab.clone(), kb.facts.clone(), 4));
        let view = cache.view(1).unwrap();
        let out = answer_view(&view, "?(X, Y) :- r(X, Y)", &SearchBudget::unlimited()).unwrap();
        assert_eq!(out.completeness, Completeness::SoundPrefix { horizon: 4 });
        assert_eq!(out.completeness.label(), "sound-prefix");
        assert_eq!(out.completeness.horizon(), Some(4));
        assert_eq!(out.answers.len(), 2);
        cache.publish(1, Snapshot::terminal(kb.vocab.clone(), kb.facts.clone(), 4));
        let view = cache.view(1).unwrap();
        let out = answer_view(&view, "?(X, Y) :- r(X, Y)", &SearchBudget::unlimited()).unwrap();
        assert_eq!(out.completeness, Completeness::Complete);
    }

    #[test]
    fn unknown_predicate_matches_nothing() {
        let kb = kb("r(a, b).");
        let cache = SnapshotCache::default();
        cache.publish(1, Snapshot::terminal(kb.vocab.clone(), kb.facts.clone(), 0));
        let view = cache.view(1).unwrap();
        let out = answer_view(&view, "?(X) :- zzz(X, X)", &SearchBudget::unlimited()).unwrap();
        assert!(out.answers.is_empty());
        assert_eq!(out.completeness, Completeness::Complete);
    }

    #[test]
    fn budget_truncation_tags_truncated() {
        let kb = kb("r(a, b). r(b, c). r(c, d).");
        let cache = SnapshotCache::default();
        cache.publish(1, Snapshot::terminal(kb.vocab.clone(), kb.facts.clone(), 0));
        let view = cache.view(1).unwrap();
        let tight = SearchBudget::unlimited().with_node_limit(1);
        let out = answer_view(&view, "?(X, Y) :- r(X, Y)", &tight).unwrap();
        assert_eq!(out.completeness, Completeness::Truncated);
        let full = answer_view(&view, "?(X, Y) :- r(X, Y)", &SearchBudget::unlimited()).unwrap();
        for t in &out.answers {
            assert!(full.answers.contains(t), "truncated answers must be sound");
        }
    }

    #[test]
    fn boolean_query_stops_at_its_first_witness() {
        // Enumerating every r-atom overruns a two-node budget; a boolean
        // query needs only the first one.
        let kb = kb("r(a, b). r(b, c). r(c, d). r(d, e). r(e, f).");
        let budget = SearchBudget::unlimited().with_node_limit(2);
        let all = parse_query(&kb.vocab, "?(X, Y) :- r(X, Y)").unwrap();
        assert!(evaluate_disjuncts(&all, &kb.facts, &budget).1);
        let boolean = parse_query(&kb.vocab, "?- r(X, Y)").unwrap();
        let (tuples, truncated) = evaluate_disjuncts(&boolean, &kb.facts, &budget);
        assert_eq!(tuples.into_iter().collect::<Vec<_>>(), vec![Vec::new()]);
        assert!(!truncated);
    }

    #[test]
    fn parse_errors_surface() {
        let kb = kb("r(a, b).");
        let cfg = ChaseConfig::default();
        assert!(answer_kb(&kb, "?(X) :-", &cfg, &SearchBudget::unlimited()).is_err());
        assert!(answer_kb(&kb, "?(a) :- r(a, b)", &cfg, &SearchBudget::unlimited()).is_err());
    }

    /// A KB whose restricted chase terminates with a null: `r(c, n)`,
    /// `t(n, d)`.
    const NULLS_KB: &str = "r(a, b). r(b, c). s(c). N: s(X) -> r(X, Y), t(Y, d).";

    /// A query's answer tuples, or its parse error.
    type Expected = Result<&'static [&'static [&'static str]], &'static str>;

    /// Each query with its answers over the terminated chase of
    /// [`NULLS_KB`] (all complete), or its parse error.
    const SEMANTICS: &[(&str, Expected)] = &[
        ("?(X) :- r(X, Y), t(Y, d)", Ok(&[&["c"]])),
        ("?- r(c, Y), t(Y, d)", Ok(&[&[]])),
        ("?(X) :- zzz(X)", Ok(&[])),
        ("?(X) :- r(X, nosuch)", Ok(&[])),
        (
            "?- r(a)",
            Err("1:4: predicate `r` used with arity 1, but declared with arity 2"),
        ),
        (
            "?- zzz(a) ; zzz(a, b)",
            Err("1:13: predicate `zzz` used with arity 2, but declared with arity 1"),
        ),
        (
            "?- r(_N1, b)",
            Err(
                "1:4: variable name `_N1` is reserved for printed labeled nulls; \
                 rename it (e.g. `N1`)",
            ),
        ),
        (
            "?(X, Y) :- r(X, Y) ; r(X, X)",
            Err("1:1: answer variable `Y` does not occur in disjunct 2"),
        ),
    ];

    /// A cache view of the terminated restricted chase of `kb`.
    fn terminal_view(kb: &KnowledgeBase) -> QueryView {
        let mut vocab = kb.vocab.clone();
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted);
        let res = run_chase(&mut vocab, &kb.facts, &kb.rules, &cfg);
        assert_eq!(res.outcome, ChaseOutcome::Terminated);
        let cache = SnapshotCache::default();
        let apps = res.stats.applications as u64;
        cache.publish(1, Snapshot::terminal(vocab, res.final_instance, apps));
        cache.view(1).unwrap()
    }

    #[test]
    fn query_semantics_table() {
        let view = terminal_view(&kb(NULLS_KB));
        assert!(!view.instance.vars().is_empty(), "the instance holds nulls");
        for &(query, expected) in SEMANTICS {
            let got = answer_view(&view, query, &SearchBudget::unlimited());
            match (got, expected) {
                (Ok(out), Ok(answers)) => {
                    assert_eq!(out.answers, answers, "{query}");
                    assert_eq!(out.completeness, Completeness::Complete, "{query}");
                }
                (Err(e), Err(message)) => assert_eq!(e.to_string(), message, "{query}"),
                (got, _) => panic!("{query}: {got:?}"),
            }
        }
    }

    #[test]
    fn kb_and_terminal_view_answer_alike() {
        let kb = kb(NULLS_KB);
        let view = terminal_view(&kb);
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted);
        let budget = SearchBudget::unlimited();
        let message = |e: ParseError| e.to_string();
        for &(query, _) in SEMANTICS {
            assert_eq!(
                answer_kb(&kb, query, &cfg, &budget).map_err(message),
                answer_view(&view, query, &budget).map_err(message),
                "{query}"
            );
        }
    }
}
