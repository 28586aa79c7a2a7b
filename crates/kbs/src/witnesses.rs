//! Witness rulesets separating the decidable classes of Figure 1 and
//! Proposition 13.
//!
//! * [`bts_not_fes`] — `{ r(X,Y) → ∃Z. r(Y,Z) }`: every restricted chase
//!   keeps treewidth ≤ max(tw(F), 1) (bts), but from an acyclic fact base
//!   there is no finite universal model (not fes).
//! * [`fes_not_bts`] — `{ r(X,Y) ∧ r(Y,Z) → ∃V. r(X,X) ∧ r(X,Z) ∧ r(Z,V) }`:
//!   the core chase terminates on every fact base (fes), yet restricted
//!   chase sequences blow up structurally (not bts) — both from the
//!   Proposition 13 proof.
//! * [`datalog_transitivity`] — plain datalog: terminating, inside every
//!   class.
//! * [`grid_grower`] — builds an ever-growing quarter-grid: no
//!   treewidth-bounded chase of any variant, and (by the grid argument)
//!   no treewidth-finite universal model; outside all treewidth classes.

use chase_atoms::{AtomSet, Vocabulary};
use chase_engine::RuleSet;
use chase_parser::parse_program;

/// A named witness KB: vocabulary, facts and rules, plus which classes it
/// is expected to (not) belong to.
pub struct Witness {
    /// Short identifier used in reports.
    pub name: &'static str,
    /// Symbol tables.
    pub vocab: Vocabulary,
    /// The fact base.
    pub facts: AtomSet,
    /// The ruleset.
    pub rules: RuleSet,
    /// Expected: does the core chase terminate on these facts (fes probe)?
    pub expect_fes: bool,
    /// Expected: does some restricted chase stay treewidth-bounded (bts
    /// probe)?
    pub expect_bts: bool,
    /// Expected: does some core chase stay (recurringly) treewidth-bounded
    /// (core-bts probe)?
    pub expect_core_bts: bool,
}

fn witness(
    name: &'static str,
    src: &str,
    expect_fes: bool,
    expect_bts: bool,
    expect_core_bts: bool,
) -> Witness {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("witness `{name}`: {e}"));
    Witness {
        name,
        vocab: prog.vocab,
        facts: prog.facts,
        rules: prog.rules,
        expect_fes,
        expect_bts,
        expect_core_bts,
    }
}

/// `{ r(X,Y) → ∃Z. r(Y,Z) }` from `r(a,b)`: bts but not fes.
pub fn bts_not_fes() -> Witness {
    witness(
        "bts-not-fes",
        "r(a, b). R: r(X, Y) -> r(Y, Z).",
        false,
        true,
        true, // core-bts subsumes bts (Proposition 13)
    )
}

/// `{ r(X,Y) ∧ r(Y,Z) → ∃V. r(X,X) ∧ r(X,Z) ∧ r(Z,V) }` from a 3-path:
/// fes but not bts.
pub fn fes_not_bts() -> Witness {
    witness(
        "fes-not-bts",
        "r(a, b). r(b, c). R: r(X, Y), r(Y, Z) -> r(X, X), r(X, Z), r(Z, V).",
        true,
        false,
        true, // core-bts subsumes fes (Proposition 13)
    )
}

/// Plain datalog transitivity from a 4-path: fes, bts and core-bts.
pub fn datalog_transitivity() -> Witness {
    witness(
        "datalog-transitivity",
        "r(a, b). r(b, c). r(c, d). T: r(X, Y), r(Y, Z) -> r(X, Z).",
        true,
        true,
        true,
    )
}

/// A quarter-grid grower: the top row extends right, the left column
/// extends down, and `Fill` closes every square — the canonical
/// unbounded-treewidth KB. Outside fes, bts and core-bts.
pub fn grid_grower() -> Witness {
    witness(
        "grid-grower",
        "
        top(a). left(a).
        Right: top(X) -> h(X, Y), top(Y).
        Down:  left(X) -> v(X, Y), left(Y).
        Fill:  h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2).
        ",
        false,
        false,
        false,
    )
}

/// All witnesses, in report order. The paper's two headline KBs (the
/// steepening staircase and the inflating elevator) are exposed by their
/// own modules and joined into the Figure 1 report by `chase-core`.
pub fn all_witnesses() -> Vec<Witness> {
    vec![
        datalog_transitivity(),
        bts_not_fes(),
        fes_not_bts(),
        grid_grower(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::{run_chase, ChaseConfig, ChaseVariant};
    use chase_treewidth::treewidth_bounds;

    #[test]
    fn bts_not_fes_core_chase_diverges_with_low_treewidth() {
        let w = bts_not_fes();
        let mut vocab = w.vocab.clone();
        let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(12);
        let res = run_chase(&mut vocab, &w.facts, &w.rules, &cfg);
        assert!(!res.outcome.terminated());
        res.derivation
            .replay(|e| assert!(treewidth_bounds(e.instance).upper <= 1));
    }

    #[test]
    fn fes_not_bts_core_chase_terminates() {
        let w = fes_not_bts();
        let mut vocab = w.vocab.clone();
        let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(500);
        let res = run_chase(&mut vocab, &w.facts, &w.rules, &cfg);
        assert!(res.outcome.terminated(), "fes witness must terminate");
    }

    #[test]
    fn datalog_terminates_everywhere() {
        let w = datalog_transitivity();
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
            ChaseVariant::Core,
        ] {
            let mut vocab = w.vocab.clone();
            let res = run_chase(
                &mut vocab,
                &w.facts,
                &w.rules,
                &ChaseConfig::variant(variant),
            );
            assert!(res.outcome.terminated(), "{variant:?}");
        }
    }

    #[test]
    fn grid_grower_treewidth_climbs() {
        let w = grid_grower();
        let mut vocab = w.vocab.clone();
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(60);
        let res = run_chase(&mut vocab, &w.facts, &w.rules, &cfg);
        assert!(!res.outcome.terminated());
        let b = treewidth_bounds(&res.final_instance);
        assert!(b.lower >= 2, "grid grower lower bound stuck at {}", b.lower);
    }
}
