#!/bin/sh
# Index smoke test: the VP-tree k-nearest-neighbour engine must serve
# exactly the same predictions as the exhaustive scan, through the real
# binary.  Trains a tiny model once, serves it twice (--index scan and
# --index vptree), runs the same single and --batch queries against
# each, and diffs the predicted pass lists.  Timing lines are filtered
# out; everything else must be byte-identical.
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
SMOKE=index-smoke
. "$(dirname "$0")/smoke_lib.sh"
DIR=results/index_smoke
MODEL="$DIR/model.pcm"

rm -rf "$DIR"
mkdir -p "$DIR"

echo "index-smoke: training tiny model..."
REPRO_UARCHS=2 REPRO_OPTS=8 "$BIN" train -o "$MODEL" --log-level quiet

for ENGINE in scan vptree; do
  start_server "$DIR/$ENGINE.sock" "$DIR/serve_$ENGINE.log" \
    --model "$MODEL" --jobs 2 --admin --index "$ENGINE"

  echo "index-smoke: querying $ENGINE engine..."
  "$BIN" query --socket "$SOCK" --health \
    | grep -q "\"index\":\"$ENGINE\""
  {
    "$BIN" query --socket "$SOCK" qsort
    "$BIN" query --socket "$SOCK" --batch qsort bitcnts susan_e
  } | grep -v "served in" >"$DIR/$ENGINE.out"

  stop_server
done

echo "index-smoke: comparing predictions..."
diff -u "$DIR/scan.out" "$DIR/vptree.out"
grep -q "predicted passes" "$DIR/vptree.out"
echo "index-smoke: OK"
