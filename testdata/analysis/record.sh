#!/bin/sh
# Records the analyzer golden compared by tests/analysis_goldens.rs.
#
#   testdata/analysis/record.sh <git-revision>
#
# Exports <git-revision> of this repository into a temporary tree, copies
# the working tree's tests/analysis_goldens.rs into it and runs that test
# there with ANALYSIS_GOLDENS_OUT pointing at critical.golden in this
# directory. The test then writes its rendering of <git-revision>'s
# outcomes instead of comparing them, so the recorder and the check share
# one renderer. Set CARGO_TARGET_DIR to reuse a build directory across
# recordings.
set -eu
REV=$1
DIR=$(cd "$(dirname "$0")" && pwd)
ROOT=$(cd "$DIR/../.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

git -C "$ROOT" archive "$REV" | tar -x -C "$TMP"
cp "$ROOT/tests/analysis_goldens.rs" "$TMP/tests/analysis_goldens.rs"
cd "$TMP"
ANALYSIS_GOLDENS_OUT="$DIR/critical.golden" \
    cargo test --release --quiet --offline --test analysis_goldens
