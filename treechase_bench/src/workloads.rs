//! The four workloads: the inputs generated from `--seed`, the query
//! mixes, and the outputs the benchmark expects, computed here without
//! asking the program.
//!
//! Inputs depend on the seed only through constant names, fact order and
//! query picks, never through sizes: every seed asks the program for the
//! same amount of work, so run-to-run spread across seeds measures the
//! machine, not the inputs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use chase_core::KnowledgeBase;
use chase_parser::{program_to_text, Program};
use treechase_service::Json;

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Terminating datalog closure over a labelled grid: per-application
    /// instance clones and full-derivation recording dominate; the core
    /// layer is idle.
    GridDatalog,
    /// The paper's staircase `K_h` under the gate-chosen core chase: core
    /// maintenance dominates; the only workload running analysis and
    /// treewidth sampling.
    StaircaseCore,
    /// The paper's elevator `K_v` with a closed-loop query client running
    /// beside the chase.
    ElevatorLiveQuery,
    /// A large seeded fanout program, checkpointed, restarted and resumed:
    /// the wire codec, the parser and checkpoint store/recovery dominate.
    IngestResume,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 4] = [
    Workload::GridDatalog,
    Workload::StaircaseCore,
    Workload::ElevatorLiveQuery,
    Workload::IngestResume,
];

impl Workload {
    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridDatalog => "grid-datalog",
            Workload::StaircaseCore => "staircase-core",
            Workload::ElevatorLiveQuery => "elevator-live-query",
            Workload::IngestResume => "ingest-resume",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`FULL`] is the benchmark; [`SMOKE`] keeps the unit
/// tests fast.
#[derive(Copy, Clone, Debug)]
pub struct Sizes {
    /// Side of the labelled grid.
    pub grid_n: usize,
    /// Application budget of the staircase core chase.
    pub staircase_apps: usize,
    /// Application budget of the elevator restricted chase.
    pub elevator_apps: usize,
    /// Fanout sources of the ingest program.
    pub fan_sources: usize,
    /// Noise facts per fanout source.
    pub fan_noise: usize,
    /// Application budget of each ingest slice.
    pub slice_apps: usize,
    /// Queries sent after the job on the workloads without live queries.
    pub post_queries: usize,
}

/// The benchmark's sizes. Each process stays under 400 MB RSS, and a
/// repetition takes well under a second, so a run's medians rest on
/// dozens of repetitions: on a shared machine whose speed drifts by tens
/// of percent for seconds at a time, many short samples give steadier
/// medians than a few long ones.
pub const FULL: Sizes = Sizes {
    grid_n: 14,
    staircase_apps: 300,
    elevator_apps: 1000,
    fan_sources: 12,
    fan_noise: 250,
    slice_apps: 60,
    post_queries: 150,
};

/// Tiny sizes for the unit tests.
#[cfg(test)]
pub const SMOKE: Sizes = Sizes {
    grid_n: 5,
    staircase_apps: 60,
    elevator_apps: 80,
    fan_sources: 3,
    fan_noise: 20,
    slice_apps: 6,
    post_queries: 10,
};

/// Treewidth sampling interval of the staircase job.
pub const TW_INTERVAL: usize = 50;
/// Periodic checkpoint interval of the ingest job (a `serve` flag, so the
/// resumed slice checkpoints at the same cadence as the first).
pub const CHECKPOINT_EVERY: usize = 20;

/// Atoms of the elevator restricted chase after `apps` applications
/// under the deterministic scheduler. The KB is fixed, so these are
/// constants; a changed count means the chase itself changed.
pub fn elevator_atoms(apps: usize) -> Option<usize> {
    match apps {
        80 => Some(151),
        1000 => Some(1862),
        _ => None,
    }
}

/// One query of a workload's mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryCase {
    /// Query text in the parser's answer-query syntax.
    pub text: String,
    /// The answer tuples, sorted, when the benchmark knows them
    /// independently of the program.
    pub answers: Option<Vec<Vec<String>>>,
}

/// What a workload's job must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The closure terminates with `facts + closure` atoms after
    /// `closure` applications.
    Grid {
        /// Base facts.
        facts: usize,
        /// Size of the `d` closure, from the benchmark's own BFS.
        closure: usize,
    },
    /// The admission gate picks `core`; `applications` run; every
    /// treewidth sample is at most 2 (the paper's Props. 3–5).
    Staircase {
        /// Pinned application budget.
        applications: usize,
    },
    /// `atoms` after the pinned budget, if pinned for this size.
    Elevator {
        /// Application budget.
        applications: usize,
        /// Final atom count.
        atoms: Option<usize>,
    },
    /// Every slice adds exactly two atoms per application.
    Ingest {
        /// Base facts.
        facts: usize,
        /// Application budget of each slice.
        slice_apps: usize,
    },
}

/// Everything one workload sends and expects.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The exact `submit` request line.
    pub submit_line: String,
    /// The program text the job is built from (the printed KB for the
    /// built-in KBs), for the traced parser timing.
    pub program: String,
    /// Extra `treechase serve` flags (besides `--workers 1`).
    pub serve_flags: Vec<String>,
    /// The query mix, sent in this order (cycling).
    pub queries: Vec<QueryCase>,
    /// Queries after the job (0 for the live-query workload).
    pub post_queries: usize,
    /// What the job must produce.
    pub expect: Expect,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed` at `sizes`.
    pub fn generate(workload: Workload, seed: u64, sizes: &Sizes) -> Inputs {
        // Distinct streams per workload, so adding one never shifts another.
        let mut rng = SplitMix64::new(seed ^ (workload as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match workload {
            Workload::GridDatalog => grid(&mut rng, sizes),
            Workload::StaircaseCore => staircase(sizes),
            Workload::ElevatorLiveQuery => elevator(&mut rng, sizes),
            Workload::IngestResume => ingest(&mut rng, sizes),
        }
    }

    /// The `query` request line for mix entry `i` against `job`.
    pub fn query_line(&self, job: u64, i: usize) -> String {
        let q = &self.queries[i % self.queries.len()];
        Json::obj([
            ("op", Json::str("query")),
            ("job", Json::Int(job as i64)),
            ("query", Json::str(&q.text)),
        ])
        .to_string()
    }
}

/// The `SplitMix64` generator, kept here rather than borrowed from the
/// engine so the generated inputs never change with the program.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `count` distinct names `prefix` + `hex` lowercase hex digits (all
    /// the same length, so the program text has the same size for every
    /// seed).
    fn names(&mut self, prefix: &str, hex: usize, count: usize) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let bits = self.next_u64() & ((1u64 << (4 * hex)) - 1);
            let name = format!("{prefix}{bits:0hex$x}");
            if seen.insert(name.clone()) {
                out.push(name);
            }
        }
        out
    }
}

fn submit_line(name: &str, fields: Vec<(&'static str, Json)>) -> String {
    let mut obj = vec![("op", Json::str("submit")), ("name", Json::str(name))];
    obj.extend(fields);
    Json::obj(obj).to_string()
}

/// Pairs `(a, c)` with `h(a, b), v(b, c)` among `facts`, closed
/// transitively by breadth-first search: the `d` relation the grid rules
/// derive.
fn grid_closure(facts: &[(char, String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let mut v_out: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (p, a, b) in facts {
        if *p == 'v' {
            v_out.entry(a).or_default().push(b);
        }
    }
    let mut step: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (p, a, b) in facts {
        if *p == 'h' {
            for c in v_out.get(b.as_str()).into_iter().flatten() {
                step.entry(a).or_default().push(c);
            }
        }
    }
    let mut closure = BTreeMap::new();
    for &start in step.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<&str> = step[start].iter().copied().collect();
        while let Some(x) = queue.pop_front() {
            if seen.insert(x.to_string()) {
                queue.extend(step.get(x).into_iter().flatten().copied());
            }
        }
        closure.insert(start.to_string(), seen);
    }
    closure
}

fn grid(rng: &mut SplitMix64, sizes: &Sizes) -> Inputs {
    let n = sizes.grid_n;
    let names = rng.names("g", 6, n * n);
    let at = |i: usize, j: usize| names[i * n + j].clone();
    let mut facts = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if j + 1 < n {
                facts.push(('h', at(i, j), at(i, j + 1)));
            }
            if i + 1 < n {
                facts.push(('v', at(i, j), at(i + 1, j)));
            }
        }
    }
    rng.shuffle(&mut facts);
    let mut program = String::new();
    for (p, a, b) in &facts {
        let _ = writeln!(program, "{p}({a}, {b}).");
    }
    program.push_str("Diag: h(X, Y), v(Y, Z) -> d(X, Z).\n");
    program.push_str("Trans: d(X, Y), d(Y, Z) -> d(X, Z).\n");

    let closure = grid_closure(&facts);
    let closure_size = closure.values().map(BTreeSet::len).sum();
    // Probes at the same grid positions for every seed (only the names
    // and the order change), so every seed's mix costs the same: from
    // cell (i, j), all its `d` successors, its diagonal neighbour (a hit)
    // and its vertical neighbour (a miss).
    let mut queries = Vec::new();
    for k in 0..8 {
        let (i, j) = (k % (n - 1), (2 * k) % (n - 1));
        let a = at(i, j);
        let reach = closure.get(&a).cloned().unwrap_or_default();
        queries.push(QueryCase {
            text: format!("?(Y) :- d({a}, Y)"),
            answers: Some(reach.iter().map(|b| vec![b.clone()]).collect()),
        });
        let b = if k % 2 == 0 {
            at(i + 1, j + 1)
        } else {
            at(i + 1, j)
        };
        queries.push(QueryCase {
            text: format!("?- d({a}, {b})"),
            answers: Some(if reach.contains(&b) {
                vec![Vec::new()]
            } else {
                Vec::new()
            }),
        });
    }
    rng.shuffle(&mut queries);
    Inputs {
        workload: Workload::GridDatalog,
        submit_line: submit_line(
            "grid-datalog",
            vec![
                ("source", Json::str(&program)),
                ("variant", Json::str("restricted")),
                ("max_apps", Json::Int(1_000_000)),
            ],
        ),
        program,
        serve_flags: Vec::new(),
        queries,
        post_queries: sizes.post_queries,
        expect: Expect::Grid {
            facts: facts.len(),
            closure: closure_size,
        },
    }
}

fn printed(kb: KnowledgeBase) -> String {
    program_to_text(&Program {
        vocab: kb.vocab,
        facts: kb.facts,
        rules: kb.rules,
        queries: Vec::new(),
    })
}

fn staircase(sizes: &Sizes) -> Inputs {
    // The fixed KB and a fixed mix: the seed-independent control.
    let queries = ["?- f(X), h(X, X)", "?- h(X, Y), v(Y, Z), c(Z)"]
        .into_iter()
        .map(|text| QueryCase {
            text: text.to_string(),
            answers: None,
        })
        .collect();
    Inputs {
        workload: Workload::StaircaseCore,
        // `variant` unpinned: the admission gate runs and must pick core.
        submit_line: submit_line(
            "staircase-core",
            vec![
                ("kb", Json::str("staircase")),
                ("max_apps", Json::Int(sizes.staircase_apps as i64)),
                ("tw_sample_interval", Json::Int(TW_INTERVAL as i64)),
            ],
        ),
        program: printed(KnowledgeBase::staircase()),
        serve_flags: Vec::new(),
        queries,
        post_queries: sizes.post_queries,
        expect: Expect::Staircase {
            applications: sizes.staircase_apps,
        },
    }
}

fn elevator(rng: &mut SplitMix64, sizes: &Sizes) -> Inputs {
    // Equal shares of the two queries in a seeded order.
    let mix = ["?- h(X, Y), v(Y, Z)", "?(X) :- c(X), h(X, Y)"];
    let mut queries: Vec<QueryCase> = (0..32)
        .map(|k| QueryCase {
            text: mix[k % mix.len()].to_string(),
            answers: None,
        })
        .collect();
    rng.shuffle(&mut queries);
    Inputs {
        workload: Workload::ElevatorLiveQuery,
        submit_line: submit_line(
            "elevator-live-query",
            vec![
                ("kb", Json::str("elevator")),
                ("variant", Json::str("restricted")),
                ("max_apps", Json::Int(sizes.elevator_apps as i64)),
            ],
        ),
        program: printed(KnowledgeBase::elevator()),
        serve_flags: Vec::new(),
        queries,
        post_queries: 0,
        expect: Expect::Elevator {
            applications: sizes.elevator_apps,
            atoms: elevator_atoms(sizes.elevator_apps),
        },
    }
}

fn ingest(rng: &mut SplitMix64, sizes: &Sizes) -> Inputs {
    let sources = rng.names("s", 5, sizes.fan_sources);
    let noise = rng.names("u", 7, sizes.fan_sources * sizes.fan_noise);
    let mut lines = Vec::new();
    let mut owner = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        lines.push(format!("p({s})."));
        for u in &noise[i * sizes.fan_noise..(i + 1) * sizes.fan_noise] {
            lines.push(format!("q({s}, {u})."));
            owner.push((s.clone(), u.clone()));
        }
    }
    let facts = lines.len();
    rng.shuffle(&mut lines);
    let mut program = lines.join("\n");
    program.push_str("\nE: p(X) -> e(X, Z), p(Z).\n");
    let queries = (0..16)
        .map(|k| {
            let (s, u) = &owner[rng.below(owner.len())];
            if k % 2 == 0 {
                QueryCase {
                    text: format!("?- q({s}, {u})"),
                    answers: Some(vec![Vec::new()]),
                }
            } else {
                QueryCase {
                    text: format!("?(X) :- p(X), q(X, {u})"),
                    answers: Some(vec![vec![s.clone()]]),
                }
            }
        })
        .collect();
    Inputs {
        workload: Workload::IngestResume,
        submit_line: submit_line(
            "ingest-resume",
            vec![
                ("source", Json::str(&program)),
                ("variant", Json::str("restricted")),
                ("max_apps", Json::Int(sizes.slice_apps as i64)),
            ],
        ),
        program,
        serve_flags: vec![
            "--checkpoint-every".to_string(),
            CHECKPOINT_EVERY.to_string(),
        ],
        queries,
        post_queries: sizes.post_queries,
        expect: Expect::Ingest {
            facts,
            slice_apps: sizes.slice_apps,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_generates_the_same_inputs_and_seeds_differ() {
        for w in ALL {
            let a = Inputs::generate(w, 7, &FULL);
            let b = Inputs::generate(w, 7, &FULL);
            assert_eq!(a.submit_line, b.submit_line, "{}", w.name());
            assert_eq!(a.queries, b.queries, "{}", w.name());
            assert_eq!(a.expect, b.expect, "{}", w.name());
            let c = Inputs::generate(w, 8, &FULL);
            // Same sizes, same expected outputs for every seed...
            assert_eq!(a.submit_line.len(), c.submit_line.len(), "{}", w.name());
            assert_eq!(a.expect, c.expect, "{}", w.name());
            // ...but different inputs, except for the fixed-KB control.
            let differs = a.submit_line != c.submit_line || a.queries != c.queries;
            assert_eq!(differs, w != Workload::StaircaseCore, "{}", w.name());
        }
    }

    #[test]
    fn grid_closure_counts_diagonal_pairs() {
        // The d relation of an n×n grid links (i, j) to (i+k, j+k):
        // Σ_{m<n} m² pairs.
        for n in [2usize, 3, 5] {
            let sizes = Sizes { grid_n: n, ..SMOKE };
            let Expect::Grid { facts, closure } =
                Inputs::generate(Workload::GridDatalog, 1, &sizes).expect
            else {
                panic!("grid expectation");
            };
            assert_eq!(facts, 2 * n * (n - 1));
            assert_eq!(closure, (1..n).map(|m| m * m).sum::<usize>());
        }
    }
}
