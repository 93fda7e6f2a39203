#!/bin/sh
# Observability smoke test: the telemetry plane end to end against the
# real binary.
#
# 1. A traced `train --workers 2` — the coordinator traces itself and
#    spawns workers tracing sibling files under its trace id; the
#    multi-file `report` must stitch them into one causal tree with
#    ZERO orphan spans, and tracing must not change the artifact
#    (byte-identical to an untraced run).
# 2. A traced serve + query burst — client span contexts propagate
#    through requests; `portopt metrics --format prom` must expose a
#    valid Prometheus scrape with the request-latency histogram and
#    its quantile family, every `serve.` name in the json snapshot
#    must be documented in docs/observability.md (the heap gauges
#    `serve.gc.heap_words` and `serve.gc.top_heap_words` among them),
#    every span it reports must be in that doc's "Span naming" block,
#    and `portopt top --count 2` must render the dashboard without a
#    terminal.
#
# Before either, every span name written as a literal at an
# `Obs.Span.with_` site in lib/ and bin/ must be in the "Span naming"
# block too, so spans that only a coordinator or a worker opens are
# checked as well.
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
SMOKE=obs-smoke
. "$(dirname "$0")/smoke_lib.sh"
DIR=results/obs_smoke
SOCK="$DIR/portopt.sock"
MODEL="$DIR/model.pcm"

rm -rf "$DIR"
mkdir -p "$DIR"

SCALE="REPRO_UARCHS=2 REPRO_OPTS=6 SOURCE_DATE_EPOCH=0"

# in_span_block NAME: NAME is a whole word of the "Span naming" block.
awk '/^## /{ s = ($0 == "## Span naming") } s && /^```/ { c++; next }
     s && c == 1' docs/observability.md >"$DIR/span_block.txt"
test -s "$DIR/span_block.txt"
in_span_block() {
  awk -v n="$1" '{ for (i = 1; i <= NF; i++) if ($i == n) found = 1 }
                 END { exit !found }' "$DIR/span_block.txt"
}

echo "obs-smoke: every Obs.Span.with_ name in lib/ and bin/ is documented..."
# The name is the first string literal after `Span.with_` and any
# labelled arguments (`?remote_parent`, `~level:Info`).  A site whose
# name is not such a literal on its own line cannot be checked, so it
# fails the step rather than pass unseen.
SITE='Span\.with_( +[~?][a-z_]+(:[^ "]+)?)* +"([^"]+)"'
grep -rnE 'Span\.with_' lib bin --include='*.ml' >"$DIR/span_sites.txt"
test -s "$DIR/span_sites.txt"
if grep -vE "$SITE" "$DIR/span_sites.txt" >"$DIR/span_unread.txt"; then
  echo "obs-smoke: span sites without a literal name:" >&2
  cat "$DIR/span_unread.txt" >&2
  exit 1
fi
sed -nE "s/.*$SITE.*/\3/p" "$DIR/span_sites.txt" | sort -u \
  >"$DIR/span_literals.txt"
while read -r name; do
  in_span_block "$name" \
    || { echo "obs-smoke: span $name (lib/ or bin/) is missing from the" \
           "Span naming block of docs/observability.md" >&2
         exit 1; }
done <"$DIR/span_literals.txt"

echo "obs-smoke: untraced baseline artifact..."
env $SCALE "$BIN" train -o "$DIR/base.pcm" --log-level quiet

# Default (info) log level: `quiet` also silences info-level spans, and
# the point here is a coordinator trace the workers can stitch under.
echo "obs-smoke: traced train --workers 2..."
env $SCALE "$BIN" train --workers 2 -o "$MODEL" \
  --trace "$DIR/train.jsonl" >"$DIR/train.log" 2>&1

echo "obs-smoke: tracing must not change the artifact..."
cmp "$DIR/base.pcm" "$MODEL"

echo "obs-smoke: worker traces written under the parent's id..."
ls "$DIR"/train.worker-*.jsonl >/dev/null

echo "obs-smoke: stitched report with zero orphan spans..."
"$BIN" report "$DIR/train.jsonl" "$DIR"/train.worker-*.jsonl \
  >"$DIR/stitch.out"
grep -q "^orphan spans: 0$" "$DIR/stitch.out"
# The tree must actually join across processes: the coordinator's
# evaluation span present, and worker lease spans stitched under it
# (indented, not at the left margin as roots).
grep -q "cluster.evaluate @" "$DIR/stitch.out"
grep -q "cluster.lease @" "$DIR/stitch.out"
! grep -Eq "^      [0-9]+\.[0-9]+ \[[^]]*\] cluster.lease" "$DIR/stitch.out" \
  || { echo "obs-smoke: lease spans are roots — context not propagated" >&2
       exit 1; }
# One trace id across all files — no multi-run warning.
! grep -q "distinct trace ids" "$DIR/stitch.out"

echo "obs-smoke: traced serve + query burst..."
start_server "$SOCK" "$DIR/serve.log" --model "$MODEL" --jobs 2 --admin \
  --trace "$DIR/serve.jsonl"

env $SCALE "$BIN" query --socket "$SOCK" qsort \
  --trace "$DIR/query.jsonl" >"$DIR/q1.out" 2>&1
env $SCALE "$BIN" query --socket "$SOCK" qsort >/dev/null 2>&1
env $SCALE "$BIN" query --socket "$SOCK" bitcnts >/dev/null 2>&1
grep -q "predicted passes" "$DIR/q1.out"

echo "obs-smoke: prometheus scrape..."
"$BIN" metrics --socket "$SOCK" --format prom >"$DIR/scrape.txt"
grep -q "^# TYPE serve_requests counter$" "$DIR/scrape.txt"
grep -q "^# TYPE serve_request_seconds histogram$" "$DIR/scrape.txt"
grep -q 'serve_request_seconds_bucket{le="+Inf"}' "$DIR/scrape.txt"
grep -q "^serve_request_seconds_count " "$DIR/scrape.txt"
grep -q 'serve_request_seconds_quantile{quantile="0.99"}' "$DIR/scrape.txt"

echo "obs-smoke: json snapshot..."
"$BIN" metrics --socket "$SOCK" --format json >"$DIR/snapshot.json"
grep -q '"serve.request.seconds"' "$DIR/snapshot.json"
# The metrics op sets the heap gauges each time it runs.
grep -q '"serve.gc.heap_words"' "$DIR/snapshot.json"
grep -q '"serve.gc.top_heap_words"' "$DIR/snapshot.json"
# Every serve.* instrument the server reports is named, in full, in the
# "Metric names" section of docs/observability.md.
grep -o '"serve\.[^"]*"' "$DIR/snapshot.json" | tr -d '"' | sort -u \
  >"$DIR/serve_names.txt"
test -s "$DIR/serve_names.txt"
while read -r name; do
  grep -qF "\`$name\`" docs/observability.md \
    || { echo "obs-smoke: $name is missing from docs/observability.md" >&2
         exit 1; }
done <"$DIR/serve_names.txt"
# Every span.<name>.seconds the server reports names a span of the
# "Span naming" block; start-up's artifact read is always one of them.
grep -q '"span.artifact.read.seconds"' "$DIR/snapshot.json"
grep -o '"span\.[^"]*\.seconds"' "$DIR/snapshot.json" \
  | sed 's/^"span\.//; s/\.seconds"$//' | sort -u >"$DIR/span_names.txt"
while read -r name; do
  in_span_block "$name" \
    || { echo "obs-smoke: span $name is missing from the Span naming block" \
           "of docs/observability.md" >&2
         exit 1; }
done <"$DIR/span_names.txt"

echo "obs-smoke: top dashboard (2 polls, no tty)..."
"$BIN" top --socket "$SOCK" --interval 0.2 --count 2 >"$DIR/top.out"
grep -q "portopt top" "$DIR/top.out"
grep -q "req/s" "$DIR/top.out"
grep -q "(lifetime)" "$DIR/top.out"
grep -q "(window)" "$DIR/top.out"

echo "obs-smoke: drain and stitch client into the server trace..."
stop_server

"$BIN" report "$DIR/serve.jsonl" "$DIR/query.jsonl" >"$DIR/stitch2.out"
grep -q "^orphan spans: 0$" "$DIR/stitch2.out"

echo "obs-smoke: OK"
