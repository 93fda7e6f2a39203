#!/bin/sh
# Multi-objective smoke test against the real binary:
#   - `train --objective cycles` must be byte-identical to a train
#     without the flag (the default path cannot drift);
#   - `train --objective pareto` trains and records the spec in the
#     artifact meta;
#   - `crossval --objective pareto` must expose a non-trivial front
#     (>= 3 non-dominated settings on at least one pair) and emit
#     objective.front trace events that `portopt report` validates;
#   - a server loaded with the pareto model answers queries that pin
#     `--objective pareto` and rejects `--objective cycles` with a
#     typed 400;
#   - `bench pareto` writes a schema-tagged results/BENCH_pareto.json.
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
SMOKE=pareto-smoke
. "$(dirname "$0")/smoke_lib.sh"
BENCH=_build/default/bench/main.exe
DIR=results/pareto_smoke
SOCK="$DIR/portopt.sock"

rm -rf "$DIR"
mkdir -p "$DIR"

echo "pareto-smoke: --objective cycles is byte-identical to the default..."
env REPRO_UARCHS=2 REPRO_OPTS=16 SOURCE_DATE_EPOCH=0 \
  "$BIN" train -o "$DIR/default.pcm" --log-level quiet
env REPRO_UARCHS=2 REPRO_OPTS=16 SOURCE_DATE_EPOCH=0 \
  "$BIN" train --objective cycles -o "$DIR/cycles.pcm" --log-level quiet
cmp "$DIR/default.pcm" "$DIR/cycles.pcm"

echo "pareto-smoke: training pareto model..."
env REPRO_UARCHS=2 REPRO_OPTS=16 SOURCE_DATE_EPOCH=0 \
  "$BIN" train --objective pareto -o "$DIR/pareto.pcm" --log-level quiet
grep -q '"objective":"pareto"' "$DIR/pareto.pcm"
# The spec must change the trained artifact.
if cmp -s "$DIR/default.pcm" "$DIR/pareto.pcm"; then
  echo "pareto-smoke: pareto artifact identical to cycles artifact" >&2
  exit 1
fi

echo "pareto-smoke: crossval --objective pareto (front summary + trace)..."
env REPRO_UARCHS=2 REPRO_OPTS=16 SOURCE_DATE_EPOCH=0 \
  "$BIN" crossval --objective pareto \
  --trace "$DIR/crossval.jsonl" --log-level debug \
  >"$DIR/crossval.out" 2>/dev/null
grep -q "pareto fronts" "$DIR/crossval.out"
# At least one pair must carry a non-trivial (>= 3 settings) front.
NONTRIVIAL=$(sed -n 's/^non-trivial fronts *\([0-9][0-9]*\) pairs.*/\1/p' \
  "$DIR/crossval.out")
if [ -z "$NONTRIVIAL" ] || [ "$NONTRIVIAL" -lt 1 ]; then
  echo "pareto-smoke: no pair with a >= 3-member front" >&2
  cat "$DIR/crossval.out" >&2
  exit 1
fi
# The trace must be schema-valid and carry the per-pair front events.
"$BIN" report "$DIR/crossval.jsonl" >/dev/null
grep -q '"objective.front"' "$DIR/crossval.jsonl"

echo "pareto-smoke: serving the pareto model..."
start_server "$SOCK" "$DIR/serve.log" --model "$DIR/pareto.pcm" --jobs 2 --admin

# Health echoes the training spec in the artifact meta.
"$BIN" query --socket "$SOCK" --health | grep -q '"objective":"pareto"'

# A query that pins the matching objective is answered...
"$BIN" query --socket "$SOCK" --objective pareto qsort \
  >"$DIR/match.out" 2>&1
grep -q "predicted passes" "$DIR/match.out"

# ...and one pinning a different objective gets a typed 400.
if "$BIN" query --socket "$SOCK" --objective cycles qsort \
  >"$DIR/mismatch.out" 2>&1; then
  echo "pareto-smoke: objective mismatch should have failed" >&2
  exit 1
fi
grep -q "server error 400" "$DIR/mismatch.out"
grep -q "objective mismatch" "$DIR/mismatch.out"

# An unpinned query still answers (compatibility default).
"$BIN" query --socket "$SOCK" qsort | grep -q "predicted passes"

stop_server

echo "pareto-smoke: bench pareto writes a schema-tagged summary..."
env REPRO_UARCHS=2 REPRO_OPTS=16 "$BENCH" pareto --log-level quiet \
  >"$DIR/bench.out" 2>&1
grep -q '"schema":"portopt-pareto/1"' results/BENCH_pareto.json
grep -q '"vs_cycles_baseline"' results/BENCH_pareto.json

echo "pareto-smoke: OK"
