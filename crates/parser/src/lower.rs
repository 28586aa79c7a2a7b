//! Lowering the AST into `chase-atoms` / `chase-engine` values.

use std::collections::HashMap;

use chase_atoms::{Atom, AtomSet, ConstId, PredId, Term, VarId, Vocabulary};
use chase_engine::{Rule, RuleSet};

use crate::parser_impl::{parse_query_ast, parse_stmts, AtomAst, ParseError, StmtAst, TermAst};

/// A fully lowered program: vocabulary, fact set, rules and named queries.
#[derive(Clone, Debug)]
pub struct Program {
    /// Symbol tables (predicates, constants, variable names).
    pub vocab: Vocabulary,
    /// The fact base `F`. Variables occurring in facts are labeled nulls
    /// scoped per fact *statement*.
    pub facts: AtomSet,
    /// The rule set `Σ`, in source order.
    pub rules: RuleSet,
    /// Boolean CQs, keyed by name (`q0`, `q1`, … for anonymous queries).
    pub queries: Vec<(String, AtomSet)>,
}

/// Is `name` the printer's reserved spelling for an unnamed labeled null
/// (`_N` followed by digits)? User input must not use it — otherwise
/// re-parsing a checkpoint could merge a null with a user variable.
pub fn is_reserved_null_name(name: &str) -> bool {
    name.strip_prefix("_N")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Where a lowering resolves symbols: a [`Vocabulary`] interns what it
/// has not seen (programs, fragments), a [`QueryScope`] only reads one
/// (answer queries).
trait Symbols {
    /// The id of predicate `name` used at `arity`, or `Err` with the
    /// arity it is declared with when that differs.
    fn pred(&mut self, name: &str, arity: usize) -> Result<PredId, usize>;
    /// The id of constant `name`.
    fn constant(&mut self, name: &str) -> ConstId;
    /// A fresh variable, spelled `name` in the statement scope `prefix`.
    fn var(&mut self, prefix: &str, name: &str) -> VarId;
}

impl Symbols for Vocabulary {
    fn pred(&mut self, name: &str, arity: usize) -> Result<PredId, usize> {
        match self.lookup_pred(name).map(|p| self.arity(p)) {
            Some(declared) if declared != arity => Err(declared),
            _ => Ok(Vocabulary::pred(self, name, arity)),
        }
    }

    fn constant(&mut self, name: &str) -> ConstId {
        Vocabulary::constant(self, name)
    }

    fn var(&mut self, prefix: &str, name: &str) -> VarId {
        let v = self.fresh_var();
        self.set_var_name(v, &format!("{prefix}{name}"));
        v
    }
}

/// A borrowed vocabulary as a query sees it. Symbols the vocabulary
/// lacks get the ids interning them would give (past the table's end,
/// in order of first use), so they match nothing; variables count up
/// from the vocabulary's next fresh variable. Nothing is written back.
struct QueryScope<'v> {
    vocab: &'v Vocabulary,
    preds: HashMap<String, (PredId, usize)>,
    consts: HashMap<String, ConstId>,
    next_var: u32,
}

impl Symbols for QueryScope<'_> {
    fn pred(&mut self, name: &str, arity: usize) -> Result<PredId, usize> {
        let (id, declared) = match self.vocab.lookup_pred(name) {
            Some(p) => (p, self.vocab.arity(p)),
            None => {
                let next = self
                    .vocab
                    .next_pred()
                    .raw()
                    .checked_add(self.preds.len() as u32)
                    .expect("too many predicates");
                *self
                    .preds
                    .entry(name.to_owned())
                    .or_insert((PredId::from_raw(next), arity))
            }
        };
        if declared == arity {
            Ok(id)
        } else {
            Err(declared)
        }
    }

    fn constant(&mut self, name: &str) -> ConstId {
        if let Some(c) = self.vocab.lookup_constant(name) {
            return c;
        }
        let next = self
            .vocab
            .next_const()
            .raw()
            .checked_add(self.consts.len() as u32)
            .expect("too many constants");
        *self
            .consts
            .entry(name.to_owned())
            .or_insert(ConstId::from_raw(next))
    }

    fn var(&mut self, _prefix: &str, _name: &str) -> VarId {
        let v = VarId::from_raw(self.next_var);
        self.next_var = self
            .next_var
            .checked_add(1)
            .expect("variable supply exhausted");
        v
    }
}

struct Scope<'s, S: Symbols> {
    syms: &'s mut S,
    vars: HashMap<String, VarId>,
    prefix: String,
    /// Accept the reserved `_N<digits>` null spelling (printer output,
    /// i.e. checkpoint programs) instead of rejecting it as user input.
    allow_reserved: bool,
}

impl<'s, S: Symbols> Scope<'s, S> {
    fn new(syms: &'s mut S, prefix: impl Into<String>) -> Self {
        Scope {
            syms,
            vars: HashMap::new(),
            prefix: prefix.into(),
            allow_reserved: false,
        }
    }

    fn lower_atom(&mut self, ast: &AtomAst) -> Result<Atom, ParseError> {
        // Arity checking against earlier uses.
        let pred = self
            .syms
            .pred(&ast.pred, ast.args.len())
            .map_err(|expected| {
                ParseError::new(
                    ast.span,
                    format!(
                        "predicate `{}` used with arity {}, but declared with arity {expected}",
                        ast.pred,
                        ast.args.len()
                    ),
                )
            })?;
        let args: Vec<Term> = ast
            .args
            .iter()
            .map(|t| match t {
                TermAst::Const(name) => Ok(Term::Const(self.syms.constant(name))),
                TermAst::Var(name) => {
                    if !self.allow_reserved && is_reserved_null_name(name) {
                        return Err(ParseError::new(
                            ast.span,
                            format!(
                                "variable name `{name}` is reserved for printed \
                                 labeled nulls; rename it (e.g. `N{}`)",
                                &name[2..]
                            ),
                        ));
                    }
                    let id = *self
                        .vars
                        .entry(name.clone())
                        .or_insert_with(|| self.syms.var(&self.prefix, name));
                    Ok(Term::Var(id))
                }
            })
            .collect::<Result<_, ParseError>>()?;
        Ok(Atom::new(pred, args))
    }

    fn lower_atoms(&mut self, atoms: &[AtomAst]) -> Result<AtomSet, ParseError> {
        atoms.iter().map(|a| self.lower_atom(a)).collect()
    }
}

/// Parses a whole program, rejecting the reserved `_N<digits>` variable
/// spelling (see [`is_reserved_null_name`]).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_program_impl(src, false)
}

/// Parses a program that the printer itself produced (checkpoint
/// programs): the reserved `_N<digits>` spelling is accepted as an
/// ordinary variable name. Never feed untrusted user input through this
/// entry point — the reservation exists to keep printed labeled nulls
/// from capturing user variables on re-parse.
pub fn parse_program_trusted(src: &str) -> Result<Program, ParseError> {
    parse_program_impl(src, true)
}

fn parse_program_impl(src: &str, trusted: bool) -> Result<Program, ParseError> {
    let stmts = parse_stmts(src)?;
    let mut vocab = Vocabulary::new();
    let mut facts = AtomSet::new();
    let mut rules = RuleSet::new();
    let mut queries = Vec::new();
    let mut anon_rules = 0usize;
    let mut anon_queries = 0usize;
    let mut fact_stmts = 0usize;
    for stmt in &stmts {
        match stmt {
            StmtAst::Facts(atoms) => {
                let mut scope = Scope::new(&mut vocab, format!("f{fact_stmts}."));
                scope.allow_reserved = trusted;
                fact_stmts += 1;
                let lowered = scope.lower_atoms(atoms)?;
                facts.union_with(&lowered);
            }
            StmtAst::Rule(rule) => {
                let name = rule.name.clone().unwrap_or_else(|| {
                    anon_rules += 1;
                    format!("r{}", anon_rules - 1)
                });
                let mut scope = Scope::new(&mut vocab, format!("{name}."));
                scope.allow_reserved = trusted;
                let body = scope.lower_atoms(&rule.body)?;
                let head = scope.lower_atoms(&rule.head)?;
                let lowered = Rule::new(name, body, head)
                    .map_err(|e| ParseError::new(rule.span, e.to_string()))?;
                rules.push(lowered);
            }
            StmtAst::Query { name, atoms, span } => {
                let name = name.clone().unwrap_or_else(|| {
                    anon_queries += 1;
                    format!("q{}", anon_queries - 1)
                });
                let mut scope = Scope::new(&mut vocab, format!("{name}."));
                scope.allow_reserved = trusted;
                let lowered = scope.lower_atoms(atoms)?;
                if lowered.is_empty() {
                    return Err(ParseError::new(*span, "query must not be empty"));
                }
                queries.push((name, lowered));
            }
        }
    }
    Ok(Program {
        vocab,
        facts,
        rules,
        queries,
    })
}

/// Parses a comma-separated atom list (e.g. a CQ) against an existing
/// vocabulary; variables get a fresh scope with the given prefix.
pub fn parse_atoms_with(
    vocab: &mut Vocabulary,
    prefix: &str,
    src: &str,
) -> Result<AtomSet, ParseError> {
    let stmts = parse_stmts(&format!("{src}."))?;
    let [StmtAst::Facts(atoms)] = &stmts[..] else {
        return Err(ParseError::new(
            crate::parser_impl::Span { line: 1, col: 1 },
            "expected a plain atom list",
        ));
    };
    Scope::new(vocab, format!("{prefix}.")).lower_atoms(atoms)
}

/// A lowered answer query: named answer variables plus one or more
/// disjuncts, each carrying its own binding of the answer variables
/// (variables are scoped per disjunct, so the "same" `X` is a distinct
/// [`VarId`] in each disjunct).
#[derive(Clone, Debug)]
pub struct ParsedQuery {
    /// Answer variable names, in output order (empty for boolean queries).
    pub var_names: Vec<String>,
    /// `(atoms, answer_vars)` per disjunct; `answer_vars` is parallel to
    /// [`ParsedQuery::var_names`].
    pub disjuncts: Vec<(AtomSet, Vec<VarId>)>,
}

/// Parses an answer query (`?(X, Y) :- p(X, Z) ; q(X, Y)`, `?- p(X)`, or
/// a bare atom list) against a vocabulary it only reads. Known names
/// take the vocabulary's ids; an unknown predicate or constant takes the
/// id interning it would give, so it matches nothing; arities are
/// checked against the vocabulary and against earlier atoms of the
/// query. Each disjunct gets a fresh variable scope, numbered upward
/// from the vocabulary's next fresh variable; every disjunct must use
/// every answer variable. The reserved `_N<digits>` spelling is
/// rejected.
pub fn parse_query(vocab: &Vocabulary, src: &str) -> Result<ParsedQuery, ParseError> {
    let ast = parse_query_ast(src)?;
    let mut syms = QueryScope {
        vocab,
        preds: HashMap::new(),
        consts: HashMap::new(),
        next_var: vocab.next_var().raw(),
    };
    let mut disjuncts = Vec::with_capacity(ast.disjuncts.len());
    for (i, atoms) in ast.disjuncts.iter().enumerate() {
        let mut scope = Scope::new(&mut syms, String::new());
        let lowered = scope.lower_atoms(atoms)?;
        if lowered.is_empty() {
            return Err(ParseError::new(ast.span, "query must not be empty"));
        }
        let answer_vars = ast
            .answer_vars
            .iter()
            .map(|name| {
                scope.vars.get(name).copied().ok_or_else(|| {
                    ParseError::new(
                        ast.span,
                        format!(
                            "answer variable `{name}` does not occur in disjunct {}",
                            i + 1
                        ),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        disjuncts.push((lowered, answer_vars));
    }
    Ok(ParsedQuery {
        var_names: ast.answer_vars,
        disjuncts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::DisplayWith;

    #[test]
    fn lowers_full_program() {
        let src = "
            % the chain KB
            r(a, b).
            R1: r(X, Y) -> r(Y, Z).
            Q1: ?- r(X, Y), r(Y, Z).
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.facts.len(), 1);
        assert_eq!(prog.rules.len(), 1);
        assert_eq!(prog.queries.len(), 1);
        let rule = prog.rules.get(0);
        assert_eq!(rule.existential_vars().len(), 1);
        assert_eq!(rule.frontier_vars().len(), 1);
    }

    #[test]
    fn variables_scoped_per_statement() {
        let src = "
            R1: p(X) -> q(X).
            R2: q(X) -> p(X).
        ";
        let prog = parse_program(src).unwrap();
        let x1 = *prog.rules.get(0).body().vars().iter().next().unwrap();
        let x2 = *prog.rules.get(1).body().vars().iter().next().unwrap();
        assert_ne!(x1, x2, "X in R1 and R2 are distinct variables");
    }

    #[test]
    fn shared_variable_inside_rule() {
        let prog = parse_program("R: p(X, X) -> q(X).").unwrap();
        let rule = prog.rules.get(0);
        assert_eq!(rule.body().vars().len(), 1);
        assert_eq!(rule.frontier_vars().len(), 1);
    }

    #[test]
    fn fact_variables_are_nulls() {
        let prog = parse_program("p(X, a).").unwrap();
        assert_eq!(prog.facts.vars().len(), 1);
        assert_eq!(prog.facts.constants().len(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = parse_program("p(a). p(a, b).").unwrap_err();
        assert!(err.message.contains("arity"));
    }

    #[test]
    fn reserved_null_spelling_rejected_in_user_input() {
        assert!(is_reserved_null_name("_N0"));
        assert!(is_reserved_null_name("_N17"));
        assert!(!is_reserved_null_name("_N"));
        assert!(!is_reserved_null_name("_Nx3"));
        assert!(!is_reserved_null_name("N17"));
        assert!(!is_reserved_null_name("_M17"));
        let err = parse_program("p(_N3).").unwrap_err();
        assert!(err.message.contains("reserved"), "{}", err.message);
        let err = parse_program("R: p(X) -> q(X, _N0).").unwrap_err();
        assert!(err.message.contains("reserved"), "{}", err.message);
        // Near-misses stay legal.
        assert!(parse_program("p(_N). q(_Nx3). r(N17).").is_ok());
        // The trusted entry point (checkpoint programs) accepts it.
        let prog = parse_program_trusted("p(_N3, _N4), q(_N3).").unwrap();
        assert_eq!(prog.facts.vars().len(), 2);
    }

    #[test]
    fn display_roundtrip_names() {
        let prog = parse_program("r(a, b). R1: r(X, Y) -> r(Y, Z).").unwrap();
        let rendered = format!("{}", prog.rules.get(0).with(&prog.vocab));
        assert!(rendered.contains("r(R1.X, R1.Y)"), "{rendered}");
        assert!(rendered.contains('∃'), "{rendered}");
    }

    #[test]
    fn fragment_parser() {
        let mut vocab = Vocabulary::new();
        let atoms = parse_atoms_with(&mut vocab, "q", "r(X, Y), r(Y, X)").unwrap();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms.vars().len(), 2);
    }

    #[test]
    fn lowers_answer_query() {
        let prog = parse_program("p(a, b). R: p(X, Y) -> p(Y, Z).").unwrap();
        let vocab = prog.vocab;
        let first = vocab.next_var().raw();
        let q = parse_query(&vocab, "?(X, Y) :- p(X, Z), r(Z, Y) ; s(X, Y)").unwrap();
        assert_eq!(q.var_names, vec!["X".to_owned(), "Y".to_owned()]);
        assert_eq!(q.disjuncts.len(), 2);
        let (atoms0, vars0) = &q.disjuncts[0];
        assert_eq!(atoms0.len(), 2);
        assert_eq!(vars0.len(), 2);
        // Variables are scoped per disjunct: X in d0 ≠ X in d1. They
        // count up from the vocabulary's next fresh variable: d0 holds
        // X, Z, Y, d1 holds X, Y.
        let (atoms1, vars1) = &q.disjuncts[1];
        let raws = |atoms: &AtomSet| atoms.vars().iter().map(|v| v.raw()).collect::<Vec<_>>();
        assert_eq!(raws(atoms0), vec![first, first + 1, first + 2]);
        assert_eq!(raws(atoms1), vec![first + 3, first + 4]);
        assert_eq!(vars0, &[VarId::from_raw(first), VarId::from_raw(first + 2)]);
        assert_eq!(
            vars1,
            &[VarId::from_raw(first + 3), VarId::from_raw(first + 4)]
        );
        // The vocabulary is only read: the unknown `r` and `s` are not
        // interned, and no variable is minted or named.
        assert!(vocab.lookup_pred("r").is_none() && vocab.lookup_pred("s").is_none());
        assert_eq!(vocab.next_var().raw(), first);
        assert_eq!(vocab.var_name(VarId::from_raw(first)), None);
    }

    #[test]
    fn unknown_query_symbols_take_the_ids_interning_would_give() {
        let vocab = parse_program("p(a, b).").unwrap().vocab;
        let q = parse_query(&vocab, "?- r(c, a), s(d), r(d, c)").unwrap();
        let mut interned = vocab.clone();
        let r = interned.pred("r", 2);
        let c = interned.constant("c");
        let s = interned.pred("s", 1);
        let d = interned.constant("d");
        let a = interned.lookup_constant("a").unwrap();
        let expected: AtomSet = [
            Atom::new(r, vec![Term::Const(c), Term::Const(a)]),
            Atom::new(s, vec![Term::Const(d)]),
            Atom::new(r, vec![Term::Const(d), Term::Const(c)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(q.disjuncts[0].0, expected);
    }

    #[test]
    fn answer_query_validation() {
        let mut vocab = Vocabulary::new();
        vocab.pred("p", 2);
        // Answer var missing from the second disjunct.
        let err = parse_query(&vocab, "?(X, Y) :- p(X, Y) ; p(X, X)").unwrap_err();
        assert!(err.message.contains("does not occur"), "{}", err.message);
        // Boolean forms lower with empty answer tuples.
        let q = parse_query(&vocab, "?- p(X, X)").unwrap();
        assert!(q.var_names.is_empty());
        assert_eq!(q.disjuncts[0].1.len(), 0);
        // Reserved nulls are rejected.
        let err = parse_query(&vocab, "?- p(_N1, _N1)").unwrap_err();
        assert!(err.message.contains("reserved"), "{}", err.message);
        // Arity checking runs against the vocabulary…
        let err = parse_query(&vocab, "?- p(X)").unwrap_err();
        assert!(err.message.contains("arity"), "{}", err.message);
        // …and against earlier atoms of the same query, across disjuncts.
        let err = parse_query(&vocab, "?- zzz(X) ; zzz(X, X)").unwrap_err();
        assert_eq!(
            err.message,
            "predicate `zzz` used with arity 2, but declared with arity 1"
        );
    }

    #[test]
    fn staircase_rules_parse() {
        // The paper's Σ_h in this syntax.
        let src = "
            f(X0), h(X0, X0).
            R1h: h(X, X) -> h(X, Y), v(X, X1), h(X1, Y1), v(Y, Y1), c(Y1).
            R2h: h(X, X), v(X, X1), h(X1, X1), h(X1, Y1) -> c(Y1), h(X, Y), v(Y, Y1).
            R3h: f(X), h(X, X), h(X, Y) -> f(Y), h(Y, Y).
            R4h: h(X, X), v(X, X1), c(X1) -> h(X1, X1).
        ";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.rules.len(), 4);
        assert_eq!(prog.facts.len(), 2);
        assert!(prog.rules.get(2).is_datalog());
        assert!(prog.rules.get(3).is_datalog());
        assert_eq!(prog.rules.get(0).existential_vars().len(), 3);
    }
}
