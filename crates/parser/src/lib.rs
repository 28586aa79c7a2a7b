//! # chase-parser
//!
//! A small datalog±-style text syntax for existential rules, facts and
//! conjunctive queries, with spanned error reporting.
//!
//! ## Syntax
//!
//! ```text
//! % comments run to end of line (also //)
//! h(a, b).                          % facts (constants are lowercase)
//! R1: h(X, X) -> h(X, Y), c(Y).    % rule; head-only vars are existential
//! Q1: ?- h(X, Y), c(Y).            % boolean conjunctive query
//! ```
//!
//! Standalone *answer queries* (not program statements) add
//! distinguished variables and UCQ disjunction:
//!
//! ```text
//! ?(X, Y) :- p(X, Z), q(Z, Y) ; r(X, Y).   % answer vars X, Y; two disjuncts
//! ?- p(X), q(X).                           % boolean query
//! p(X), q(X)                               % boolean, bare atom list
//! ```
//!
//! * Identifiers starting with an uppercase letter (or `_`) are
//!   **variables**, scoped to their statement (rule / query / fact
//!   statement).
//! * Lowercase identifiers and numbers in term position are **constants**;
//!   in predicate position they are predicate symbols (arity inferred and
//!   checked on first use).
//! * Statement names (`R1:`, `Q1:`) are optional.
//!
//! ## Entry points
//!
//! [`parse_program`] parses a whole source text into a [`Program`]
//! (vocabulary + facts + rules + named queries);
//! [`parse_program_trusted`] also accepts the printer's reserved null
//! spelling, for checkpoint programs. [`parse_atoms_with`] parses an
//! atom list into an existing vocabulary, interning new symbols. [`parse_query`] lowers an answer query
//! against a vocabulary it only borrows, so a reader never copies the
//! symbol table. [`program_to_text`] prints a program back;
//! [`program_parts_to_text`] prints one from borrowed parts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
mod lower;
mod parser_impl;
mod printer;

pub use lexer::{Lexer, Token, TokenKind};
pub use lower::{
    is_reserved_null_name, parse_atoms_with, parse_program, parse_program_trusted, parse_query,
    ParsedQuery, Program,
};
pub use parser_impl::{AtomAst, ParseError, QueryAst, RuleAst, Span, StmtAst, TermAst};
pub use printer::{program_parts_to_text, program_to_text, rule_to_text};
