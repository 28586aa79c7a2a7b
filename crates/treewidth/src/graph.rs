//! Undirected graphs over terms, and the primal (Gaifman) graph of an
//! atomset.

use std::collections::{BTreeSet, HashMap};

use chase_atoms::{AtomSet, Term};

/// A simple undirected graph whose vertices are [`Term`]s.
///
/// Internally vertices are dense indices; the term labels are kept for
/// mapping decompositions back to the atomset world.
#[derive(Clone, Debug)]
pub struct Graph {
    verts: Vec<Term>,
    index: HashMap<Term, usize>,
    adj: Vec<BTreeSet<usize>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            verts: Vec::new(),
            index: HashMap::new(),
            adj: Vec::new(),
        }
    }

    /// The primal (Gaifman) graph of an atomset: one vertex per term, an
    /// edge between two terms whenever they co-occur in an atom.
    ///
    /// A tree decomposition of the atomset per Definition 4 is exactly a
    /// tree decomposition of this graph in which every atom's term set is
    /// covered by a bag; since each atom's terms form a clique here and
    /// every clique of a graph is contained in some bag of any of its tree
    /// decompositions, the two notions give the same width.
    pub fn primal(a: &AtomSet) -> Self {
        let mut g = Graph::new();
        for atom in a.iter() {
            let terms: Vec<Term> = atom.terms().collect();
            for &t in &terms {
                g.ensure_vertex(t);
            }
            for (i, &t) in terms.iter().enumerate() {
                for &u in &terms[i + 1..] {
                    g.add_edge(t, u);
                }
            }
        }
        g
    }

    /// Adds (or finds) a vertex for `t`, returning its dense index.
    pub fn ensure_vertex(&mut self, t: Term) -> usize {
        if let Some(&i) = self.index.get(&t) {
            return i;
        }
        let i = self.verts.len();
        self.verts.push(t);
        self.index.insert(t, i);
        self.adj.push(BTreeSet::new());
        i
    }

    /// Adds an undirected edge between the terms `t` and `u` (self-loops
    /// are ignored).
    pub fn add_edge(&mut self, t: Term, u: Term) {
        let i = self.ensure_vertex(t);
        let j = self.ensure_vertex(u);
        if i != j {
            self.adj[i].insert(j);
            self.adj[j].insert(i);
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The term labelling vertex `i`.
    pub fn term(&self, i: usize) -> Term {
        self.verts[i]
    }

    /// The dense index of a term, if it is a vertex.
    pub fn vertex(&self, t: Term) -> Option<usize> {
        self.index.get(&t).copied()
    }

    /// The neighbourhood of vertex `i`.
    pub fn neighbors(&self, i: usize) -> &BTreeSet<usize> {
        &self.adj[i]
    }

    /// The degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Are vertices `i` and `j` adjacent?
    pub fn adjacent(&self, i: usize, j: usize) -> bool {
        self.adj[i].contains(&j)
    }

    /// Returns the adjacency lists as a plain vector (for solvers that
    /// mutate their own working copy).
    pub fn adjacency(&self) -> Vec<BTreeSet<usize>> {
        self.adj.clone()
    }

    /// All vertex terms, in insertion order.
    pub fn terms(&self) -> &[Term] {
        &self.verts
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_atoms::{Atom, PredId, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(PredId::from_raw(pr), args.to_vec())
    }

    fn edge_count(g: &Graph) -> usize {
        (0..g.len()).map(|i| g.degree(i)).sum::<usize>() / 2
    }

    #[test]
    fn primal_graph_of_binary_atoms() {
        let a: AtomSet = [atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]
            .into_iter()
            .collect();
        let g = Graph::primal(&a);
        assert_eq!(g.len(), 3);
        assert_eq!(edge_count(&g), 2);
        let i0 = g.vertex(v(0)).unwrap();
        let i1 = g.vertex(v(1)).unwrap();
        let i2 = g.vertex(v(2)).unwrap();
        assert!(g.adjacent(i0, i1));
        assert!(g.adjacent(i1, i2));
        assert!(!g.adjacent(i0, i2));
    }

    #[test]
    fn ternary_atom_forms_clique() {
        let a: AtomSet = [atom(0, &[v(0), v(1), v(2)])].into_iter().collect();
        let g = Graph::primal(&a);
        assert_eq!(edge_count(&g), 3);
    }

    #[test]
    fn repeated_terms_no_self_loop() {
        let a: AtomSet = [atom(0, &[v(0), v(0)])].into_iter().collect();
        let g = Graph::primal(&a);
        assert_eq!(g.len(), 1);
        assert_eq!(edge_count(&g), 0);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn isolated_unary_atoms() {
        let a: AtomSet = [atom(0, &[v(0)]), atom(0, &[v(1)])].into_iter().collect();
        let g = Graph::primal(&a);
        assert_eq!(g.len(), 2);
        assert_eq!(edge_count(&g), 0);
    }
}
