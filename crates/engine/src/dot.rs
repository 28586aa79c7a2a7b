//! Graphviz (DOT) export for instances and derivations — the pictures of
//! the paper's Figures 2–4 as machine-generated diagrams.
//!
//! Binary atoms become labeled edges, unary atoms become node labels, and
//! higher-arity atoms become hyperedge factor nodes. Derivations render
//! as one cluster per chase element.

use std::fmt::Write as _;

use chase_atoms::{AtomSet, DisplayWith, Term, Vocabulary};

use crate::derivation::Derivation;

fn node_id(prefix: &str, t: Term) -> String {
    match t {
        Term::Var(v) => format!("{prefix}v{}", v.raw()),
        Term::Const(c) => format!("{prefix}c{}", c.raw()),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_instance_body(out: &mut String, prefix: &str, vocab: &Vocabulary, instance: &AtomSet) {
    // Node declarations with accumulated unary labels.
    for t in instance.terms() {
        let mut label = format!("{}", t.with(vocab));
        let marks: Vec<String> = instance
            .with_term(t)
            .filter(|a| a.arity() == 1)
            .map(|a| vocab.pred_name(a.pred()).to_string())
            .collect();
        if !marks.is_empty() {
            let _ = write!(label, "\\n[{}]", marks.join(","));
        }
        let _ = writeln!(
            out,
            "    {} [label=\"{}\"];",
            node_id(prefix, t),
            escape(&label)
        );
    }
    let mut factor = 0usize;
    for atom in instance.iter() {
        match atom.arity() {
            0 | 1 => {}
            2 => {
                let _ = writeln!(
                    out,
                    "    {} -> {} [label=\"{}\"];",
                    node_id(prefix, atom.args()[0]),
                    node_id(prefix, atom.args()[1]),
                    escape(vocab.pred_name(atom.pred()))
                );
            }
            _ => {
                let f = format!("{prefix}f{factor}");
                factor += 1;
                let _ = writeln!(
                    out,
                    "    {f} [shape=box,label=\"{}\"];",
                    escape(vocab.pred_name(atom.pred()))
                );
                for (i, &t) in atom.args().iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "    {f} -> {} [label=\"{i}\",style=dashed];",
                        node_id(prefix, t)
                    );
                }
            }
        }
    }
}

/// Renders one instance as a DOT digraph.
pub fn instance_dot(vocab: &Vocabulary, instance: &AtomSet, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(title));
    let _ = writeln!(out, "    rankdir=BT;");
    let _ = writeln!(out, "    label=\"{}\";", escape(title));
    write_instance_body(&mut out, "", vocab, instance);
    let _ = writeln!(out, "}}");
    out
}

/// Renders a derivation as a DOT digraph with one cluster per element
/// `F_i`, annotated with the applied rule and whether the simplification
/// was proper.
pub fn derivation_dot(vocab: &Vocabulary, d: &Derivation, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(title));
    let _ = writeln!(out, "    rankdir=LR;");
    let _ = writeln!(out, "    label=\"{}\";", escape(title));
    d.replay(|e| {
        let i = e.index;
        let rule_note = match i {
            0 => format!("F{i} (initial)"),
            _ => format!(
                "F{i} ← {}",
                d.rules().get(d.steps()[i - 1].trigger.rule).name()
            ),
        };
        let simp_note = if d.simplification(i).is_empty() {
            ""
        } else {
            " / fold"
        };
        let _ = writeln!(out, "  subgraph cluster_{i} {{");
        let _ = writeln!(out, "    label=\"{}{}\";", escape(&rule_note), simp_note);
        write_instance_body(&mut out, &format!("s{i}_"), vocab, e.instance);
        let _ = writeln!(out, "  }}");
    });
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{run_chase, ChaseConfig, ChaseVariant};
    use crate::rule::{Rule, RuleSet};
    use chase_atoms::Atom;

    #[test]
    fn instance_dot_renders_nodes_edges_and_marks() {
        let mut vocab = Vocabulary::new();
        let f = vocab.pred("f", 1);
        let h = vocab.pred("h", 2);
        let x = Term::Var(vocab.named_var("X"));
        let y = Term::Var(vocab.named_var("Y"));
        let inst: AtomSet = [Atom::new(f, vec![x]), Atom::new(h, vec![x, y])]
            .into_iter()
            .collect();
        let dot = instance_dot(&vocab, &inst, "test");
        assert!(dot.contains("digraph"));
        assert!(dot.contains("label=\"h\""));
        assert!(dot.contains("[f]"), "unary mark rendered: {dot}");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn ternary_atoms_become_factor_nodes() {
        let mut vocab = Vocabulary::new();
        let t = vocab.pred("t", 3);
        let x = Term::Var(vocab.named_var("X"));
        let inst: AtomSet = [Atom::new(t, vec![x, x, x])].into_iter().collect();
        let dot = instance_dot(&vocab, &inst, "t3");
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn derivation_dot_has_one_cluster_per_step() {
        let mut vocab = Vocabulary::new();
        let r = vocab.pred("r", 2);
        let x = Term::Var(vocab.named_var("X"));
        let y = Term::Var(vocab.named_var("Y"));
        let z = Term::Var(vocab.named_var("Z"));
        let rules: RuleSet = [Rule::new(
            "R",
            [Atom::new(r, vec![x, y])].into_iter().collect(),
            [Atom::new(r, vec![y, z])].into_iter().collect(),
        )
        .unwrap()]
        .into_iter()
        .collect();
        let a = Term::Var(vocab.fresh_var());
        let b = Term::Var(vocab.fresh_var());
        let facts: AtomSet = [Atom::new(r, vec![a, b])].into_iter().collect();
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(2);
        let res = run_chase(&mut vocab, &facts, &rules, &cfg);
        let d = res.derivation;
        let dot = derivation_dot(&vocab, &d, "chain");
        assert_eq!(dot.matches("subgraph cluster_").count(), d.len());
        assert!(dot.contains("← R"));
    }
}
