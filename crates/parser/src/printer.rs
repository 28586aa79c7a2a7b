//! Rendering a [`Program`] back to the text syntax (round-trip support).

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use chase_atoms::{Atom, AtomSet, Term, VarId, Vocabulary};
use chase_engine::{Rule, RuleSet};

use crate::lower::{is_reserved_null_name, Program};

/// The reserved surface spelling for a labeled null without a usable
/// name: `_N<raw>`. It lexes as a variable (leading `_`), is unique per
/// `VarId`, and [`crate::parse_program`] rejects it in user input, so a
/// printed null can never capture a user variable on re-parse.
fn reserved_null(v: VarId) -> String {
    format!("_N{}", v.raw())
}

/// Renders a variable name valid in the surface syntax: the lowering
/// prefixes variable names with their statement scope (`R1.X`), which the
/// printer strips again; unnamed variables print in the reserved
/// `_N<raw>` spelling.
fn var_name(vocab: &Vocabulary, v: VarId, scope: &str) -> String {
    match vocab.var_name(v) {
        Some(name) => match name.strip_prefix(&format!("{scope}.")) {
            Some(stripped) => stripped.to_string(),
            None => name.rsplit('.').next().unwrap_or(name).to_string(),
        },
        None => reserved_null(v),
    }
}

/// Names for the single facts statement, where variables of *every* fact
/// scope (plus the engine's fresh nulls) print together: each distinct
/// `VarId` must get a distinct spelling, so stripped names that collide —
/// `f0.X` and `f1.X` both render as `X` — or that land in the reserved
/// namespace are α-renamed to `_N<raw>`.
fn fact_var_names(vocab: &Vocabulary, facts: &AtomSet) -> HashMap<VarId, String> {
    let mut names = HashMap::new();
    let mut used: HashSet<String> = HashSet::new();
    // `vars()` is sorted by id, so the winner of a name is deterministic.
    for v in facts.vars() {
        let stripped = vocab
            .var_name(v)
            .map(|name| name.rsplit('.').next().unwrap_or(name).to_string());
        let name = match stripped {
            Some(n) if !is_reserved_null_name(&n) && used.insert(n.clone()) => n,
            _ => reserved_null(v),
        };
        names.insert(v, name);
    }
    names
}

fn term_text(
    vocab: &Vocabulary,
    t: Term,
    scope: &str,
    names: Option<&HashMap<VarId, String>>,
) -> String {
    match t {
        Term::Const(c) => vocab
            .const_name(c)
            .map_or_else(|| format!("k{}", c.raw()), str::to_string),
        Term::Var(v) => match names.and_then(|m| m.get(&v)) {
            Some(name) => name.clone(),
            None => var_name(vocab, v, scope),
        },
    }
}

fn atom_text(
    vocab: &Vocabulary,
    atom: &Atom,
    scope: &str,
    names: Option<&HashMap<VarId, String>>,
) -> String {
    let args: Vec<String> = atom
        .args()
        .iter()
        .map(|&t| term_text(vocab, t, scope, names))
        .collect();
    if args.is_empty() {
        vocab.pred_name(atom.pred()).to_string()
    } else {
        format!("{}({})", vocab.pred_name(atom.pred()), args.join(", "))
    }
}

fn atoms_text_with(
    vocab: &Vocabulary,
    atoms: &AtomSet,
    scope: &str,
    names: Option<&HashMap<VarId, String>>,
) -> String {
    atoms
        .sorted_atoms()
        .iter()
        .map(|a| atom_text(vocab, a, scope, names))
        .collect::<Vec<_>>()
        .join(", ")
}

fn atoms_text(vocab: &Vocabulary, atoms: &AtomSet, scope: &str) -> String {
    atoms_text_with(vocab, atoms, scope, None)
}

/// Renders one rule as `Name: body -> head.`.
pub fn rule_to_text(vocab: &Vocabulary, rule: &Rule) -> String {
    format!(
        "{}: {} -> {}.",
        rule.name(),
        atoms_text(vocab, rule.body(), rule.name()),
        atoms_text(vocab, rule.head(), rule.name())
    )
}

/// Renders a whole program in the surface syntax. Re-parsing the result
/// yields a program with the same facts (up to null renaming), rules and
/// queries.
pub fn program_to_text(prog: &Program) -> String {
    program_parts_to_text(&prog.vocab, &prog.facts, &prog.rules, &prog.queries)
}

/// [`program_to_text`] over borrowed parts, for callers that hold a
/// vocabulary, an instance and rules but no [`Program`] (checkpoints).
pub fn program_parts_to_text(
    vocab: &Vocabulary,
    facts: &AtomSet,
    rules: &RuleSet,
    queries: &[(String, AtomSet)],
) -> String {
    let mut out = String::new();
    if !facts.is_empty() {
        // Facts keep one statement so shared nulls stay shared.
        let names = fact_var_names(vocab, facts);
        let _ = writeln!(
            out,
            "{}.",
            atoms_text_with(vocab, facts, "f0", Some(&names))
        );
    }
    for (_, rule) in rules.iter() {
        let _ = writeln!(out, "{}", rule_to_text(vocab, rule));
    }
    for (name, atoms) in queries {
        let _ = writeln!(out, "{name}: ?- {}.", atoms_text(vocab, atoms, name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::parse_program;

    #[test]
    fn roundtrip_simple_program() {
        let src = "
            r(a, b). r(b, X).
            R1: r(X, Y) -> r(Y, Z).
            Q1: ?- r(A, B), r(B, A).
        ";
        let p1 = parse_program(src).unwrap();
        let text = program_to_text(&p1);
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p1.facts.len(), p2.facts.len());
        assert_eq!(p1.facts.vars().len(), p2.facts.vars().len());
        assert_eq!(p1.rules.len(), p2.rules.len());
        assert_eq!(p1.queries.len(), p2.queries.len());
        let r1 = p1.rules.get(0);
        let r2 = p2.rules.get(0);
        assert_eq!(r1.name(), r2.name());
        assert_eq!(r1.body().len(), r2.body().len());
        assert_eq!(r1.existential_vars().len(), r2.existential_vars().len());
    }

    #[test]
    fn roundtrip_is_idempotent_on_text() {
        let src = "p(a). R: p(X) -> q(X, Y). Q: ?- q(a, Z).";
        let p1 = parse_program(src).unwrap();
        let t1 = program_to_text(&p1);
        let p2 = parse_program(&t1).unwrap();
        let t2 = program_to_text(&p2);
        assert_eq!(t1, t2, "printing stabilizes after one roundtrip");
    }

    #[test]
    fn zero_arity_atoms_roundtrip() {
        let src = "go. R: go -> done.";
        let p1 = parse_program(src).unwrap();
        let text = program_to_text(&p1);
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p2.rules.len(), 1);
        assert_eq!(p2.facts.len(), 1);
    }

    #[test]
    fn shared_fact_nulls_stay_shared() {
        let src = "r(X, a), s(X).";
        let p1 = parse_program(src).unwrap();
        assert_eq!(p1.facts.vars().len(), 1);
        let p2 = parse_program(&program_to_text(&p1)).unwrap();
        assert_eq!(p2.facts.vars().len(), 1);
    }

    #[test]
    fn unnamed_nulls_cannot_capture_user_variables() {
        use crate::lower::parse_program_trusted;
        // A user program whose variables are literally named `V<n>` —
        // the spelling the printer once used for unnamed nulls.
        let mut p = parse_program("r(V0, V1). R: r(X, Y) -> s(Y, Z).").unwrap();
        // Two engine-minted nulls land in the fact base, as after a
        // chase slice. Their raw ids overlap the `V<n>` namespace.
        let s = p.vocab.pred("s", 2);
        let n1 = p.vocab.fresh_var();
        let n2 = p.vocab.fresh_var();
        p.facts
            .insert(Atom::new(s, vec![Term::Var(n1), Term::Var(n2)]));
        let before = p.facts.vars().len();
        assert_eq!(before, 4);
        let text = program_to_text(&p);
        assert!(text.contains("_N"), "{text}");
        let back = parse_program_trusted(&text).unwrap();
        assert_eq!(back.facts.vars().len(), 4, "{text}");
        assert_eq!(back.facts.len(), p.facts.len());
    }

    #[test]
    fn colliding_fact_statement_names_are_alpha_renamed() {
        use crate::lower::parse_program_trusted;
        // Two fact statements each using `X`: distinct nulls (`f0.X`,
        // `f1.X`) that both strip to `X` in the merged facts statement.
        let p1 = parse_program("r(X, a). s(X, b).").unwrap();
        assert_eq!(p1.facts.vars().len(), 2);
        let text = program_to_text(&p1);
        let p2 = parse_program_trusted(&text).unwrap();
        assert_eq!(p2.facts.vars().len(), 2, "{text}");
    }
}
