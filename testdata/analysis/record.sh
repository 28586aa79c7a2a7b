#!/bin/sh
# Records the analyzer goldens:
#
#   testdata/analysis/record.sh <git-revision>
#
# critical.golden (compared by tests/analysis_goldens.rs): exports
# <git-revision> of this repository into a temporary tree, copies the
# working tree's tests/analysis_goldens.rs and the corpus it includes
# (tests/support/) into it and runs that test there with
# ANALYSIS_GOLDENS_OUT pointing at critical.golden in this directory. The
# test then writes its rendering of <git-revision>'s outcomes instead of
# comparing them, so the recorder and the check share one renderer.
#
# analyze.golden.jsonl (compared by CI's analyzer smoke step and
# tests/cli.rs): builds <git-revision>'s `treechase` binary in the same
# tree and writes one `treechase analyze <kb> --json` line per input, in
# the order of ANALYZE_INPUTS below.
#
# Set CARGO_TARGET_DIR to reuse a build directory across recordings.
set -eu
REV=$1
DIR=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$DIR/../.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
ANALYZE_INPUTS="staircase elevator testdata/elevator.tc testdata/family.tc
testdata/reachability.tc testdata/staircase.tc testdata/transitive.tc"

git -C "$ROOT" archive "$REV" | tar -x -C "$TMP"
cp "$ROOT/tests/analysis_goldens.rs" "$TMP/tests/analysis_goldens.rs"
mkdir -p "$TMP/tests/support"
cp "$ROOT/tests/support/analysis_corpus.rs" "$TMP/tests/support/"
cd "$TMP"
ANALYSIS_GOLDENS_OUT="$DIR/critical.golden" \
    cargo test --release --quiet --offline --test analysis_goldens

cargo build --release --quiet --offline --bin treechase
BIN="${CARGO_TARGET_DIR:-$TMP/target}/release/treechase"
: > "$DIR/analyze.golden.jsonl"
for KB in $ANALYZE_INPUTS; do
    "$BIN" analyze "$KB" --json >> "$DIR/analyze.golden.jsonl"
done
