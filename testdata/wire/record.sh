#!/bin/sh
# Records the wire goldens replayed by tests/wire_snapshots.rs.
#
#   testdata/wire/record.sh path/to/treechase
#
# For every request script `<name>.jsonl` in this directory it writes
#   <name>.serve.golden.jsonl        the replies of `treechase serve --workers 1`
#                                    (event lines dropped);
#   <name>.coordinator.golden.jsonl  the replies of a worker-less
#                                    `treechase coordinator`, through
#                                    `treechase cluster-client`.
# The coordinator transport carries JSON frames only, so script lines that
# are not JSON are not sent to it.
set -eu
BIN=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
DIR=$(cd "$(dirname "$0")" && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for SCRIPT in "$DIR"/*.jsonl; do
  case "$SCRIPT" in *.golden.jsonl) continue ;; esac
  NAME=$(basename "$SCRIPT" .jsonl)

  "$BIN" serve --workers 1 < "$SCRIPT" | grep -v '"type":"event"' \
    > "$DIR/$NAME.serve.golden.jsonl"

  "$BIN" coordinator --listen 127.0.0.1:0 --state-dir "$TMP/$NAME" \
    > "$TMP/$NAME.log" &
  COORD=$!
  for _ in $(seq 50); do
    grep -q '"op":"listening"' "$TMP/$NAME.log" 2>/dev/null && break
    sleep 0.1
  done
  ADDR=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$TMP/$NAME.log" | head -1)
  python3 -c '
import json, sys
for line in sys.stdin:
    try:
        json.loads(line)
    except ValueError:
        continue
    sys.stdout.write(line)
' < "$SCRIPT" | "$BIN" cluster-client "$ADDR" > "$DIR/$NAME.coordinator.golden.jsonl"
  kill "$COORD" 2>/dev/null || true
  wait "$COORD" 2>/dev/null || true
done
