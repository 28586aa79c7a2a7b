//! Randomized parser round-trips: random programs survive
//! print → parse with structure intact (up to variable renaming, which
//! we verify through isomorphism of the lowered atomsets). A mutation
//! fuzzer checks that malformed programs and queries are rejected with
//! an error, never a panic.
//!
//! Programs are generated at the *source* level with the engine's
//! deterministic [`SplitMix64`] generator, so the property covers
//! lexer + parser + lowering + printer together on reproducible inputs.

use treechase::atoms::Vocabulary;
use treechase::engine::prng::SplitMix64;
use treechase::homomorphism::isomorphism;
use treechase::parser::{parse_program, parse_query, program_to_text};

const PREDS: [&str; 3] = ["r", "s", "t"];
const CONS: [&str; 3] = ["a", "b", "c"];
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];

fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(from.len())]
}

fn random_program_source(rng: &mut SplitMix64) -> String {
    let mut src = String::new();
    for _ in 0..1 + rng.gen_range(3) {
        let (p, a, b) = (pick(rng, &PREDS), pick(rng, &CONS), pick(rng, &CONS));
        src.push_str(&format!("{p}({a}, {b}).\n"));
    }
    for _ in 0..rng.gen_range(3) {
        let bp = pick(rng, &PREDS);
        let hp = pick(rng, &PREDS);
        let x = pick(rng, &VARS);
        let y = pick(rng, &VARS);
        let z = pick(rng, &VARS);
        if rng.gen_bool() && z != x && z != y {
            src.push_str(&format!("{bp}({x}, {y}) -> {hp}({y}, {z}).\n"));
        } else {
            src.push_str(&format!("{bp}({x}, {y}) -> {hp}({y}, {x}).\n"));
        }
    }
    for _ in 0..rng.gen_range(2) {
        let (p, x, y) = (pick(rng, &PREDS), pick(rng, &VARS), pick(rng, &VARS));
        src.push_str(&format!("?- {p}({x}, {y}).\n"));
    }
    src
}

#[test]
fn print_parse_preserves_structure() {
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..48 {
        let src = random_program_source(&mut rng);
        let p1 = parse_program(&src).expect("generated source parses");
        let text = program_to_text(&p1);
        let p2 = parse_program(&text)
            .unwrap_or_else(|e| panic!("printed text must reparse: {e}\n---\n{text}"));

        // Facts are isomorphic (ground facts: even equal).
        assert!(isomorphism(&p1.facts, &p2.facts).is_some());

        // Rules correspond 1:1 with isomorphic bodies and heads.
        assert_eq!(p1.rules.len(), p2.rules.len());
        for ((_, r1), (_, r2)) in p1.rules.iter().zip(p2.rules.iter()) {
            assert_eq!(r1.name(), r2.name());
            assert!(isomorphism(r1.body(), r2.body()).is_some());
            assert!(isomorphism(r1.head(), r2.head()).is_some());
            assert_eq!(r1.existential_vars().len(), r2.existential_vars().len());
            assert_eq!(r1.frontier_vars().len(), r2.frontier_vars().len());
        }

        // Queries correspond with isomorphic atomsets.
        assert_eq!(p1.queries.len(), p2.queries.len());
        for ((n1, q1), (n2, q2)) in p1.queries.iter().zip(p2.queries.iter()) {
            assert_eq!(n1, n2);
            assert!(isomorphism(q1, q2).is_some());
        }
    }
}

#[test]
fn printing_stabilizes() {
    let mut rng = SplitMix64::new(0xFACADE);
    for _ in 0..48 {
        let src = random_program_source(&mut rng);
        let p1 = parse_program(&src).expect("parses");
        let t1 = program_to_text(&p1);
        let t2 = program_to_text(&parse_program(&t1).expect("reparses"));
        assert_eq!(t1, t2);
    }
}

/// Answer queries in every accepted shape, next to the `testdata`
/// programs in the mutation corpus.
const SAMPLE_QUERIES: [&str; 5] = [
    "?(X) :- r(c0, X)",
    "?(X, Y) :- e(X, Y), n(Y) ; e(Y, X)",
    "?- brace(X, Y)",
    "step(t0, X), riser(X, Y)",
    "?(X) :- p(X, _N3)",
];

/// Characters that steer the lexer and parser into their edge cases:
/// delimiters, arrows, comments, the reserved null spelling, non-ASCII
/// and control characters.
const SPLICES: [&str; 20] = [
    "(", ")", ",", ".", ";", ":", "-", ">", "->", "?", "?(", ":-", "%", "_N", "_", "0", "\n",
    "\u{0}", "é", "→",
];

fn mutate(rng: &mut SplitMix64, text: &mut Vec<char>) {
    for _ in 0..1 + rng.gen_range(3) {
        let at = rng.gen_range(text.len() + 1);
        match rng.gen_range(4) {
            0 if at < text.len() => {
                text.remove(at);
            }
            1 => text.truncate(at),
            2 if at < text.len() => {
                // Duplicate a short run, e.g. a parenthesis or an arrow.
                let end = (at + 1 + rng.gen_range(4)).min(text.len());
                let run: Vec<char> = text[at..end].to_vec();
                text.splice(at..at, run);
            }
            _ => {
                let splice = SPLICES[rng.gen_range(SPLICES.len())];
                text.splice(at..at, splice.chars());
            }
        }
    }
}

/// `parse_program` and `parse_query` on seeded character mutations
/// of every `testdata/*.tc` program and of sample answer queries: each
/// call returns `Ok` or `Err`, never panics.
#[test]
fn seeded_mutations_never_panic() {
    let dir = format!("{}/testdata", env!("CARGO_MANIFEST_DIR"));
    let mut corpus: Vec<String> = std::fs::read_dir(&dir)
        .expect("testdata readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tc"))
        .map(|p| std::fs::read_to_string(p).expect("program readable"))
        .collect();
    corpus.sort();
    assert!(corpus.len() >= 5, "testdata programs missing");
    corpus.extend(SAMPLE_QUERIES.iter().map(|q| q.to_string()));
    let mut rng = SplitMix64::new(0xF022_7E57);
    for _ in 0..20_000 {
        let mut text: Vec<char> = corpus[rng.gen_range(corpus.len())].chars().collect();
        mutate(&mut rng, &mut text);
        let text: String = text.into_iter().collect();
        std::panic::catch_unwind(|| {
            let _ = parse_program(&text);
            let _ = parse_query(&Vocabulary::new(), &text);
        })
        .unwrap_or_else(|_| panic!("the parser panicked on {text:?}"));
    }
}
