#!/bin/sh
# Full CI gate, in dependency order: build everything, run the unit
# suites, then the end-to-end smokes — bench (sequential and parallel
# engine, their summary and ablation tables diffed), trace (JSONL schema round-trip), serve (train -> serve ->
# query -> drain against a real server), index (served predictions
# byte-identical to in-process ones through the binary), store (cold -> warm
# incremental rerun with byte-identical artifacts) and cluster
# (multi-process train with chaos and a mid-run worker kill, artifact
# byte-identical to single-process), obs (traced multi-process
# train stitched to zero orphan spans, live Prometheus scrape and
# `top` dashboard, tracing proven artifact-neutral) and registry
# (evidence -> publish -> incremental refit byte-identical to a cold
# retrain -> live serve with A/B -> reload -> promote -> gc), net
# (binary, JSON and mixed clients on one listener, net.loop.*
# instruments in both metrics renderings, drain under live load) and
# pareto (--objective cycles byte-identical to the default, pareto
# fronts through crossval/serve/bench, typed 400 on objective
# mismatch).
# Each stage fails fast; a green run is the tier-1 bar for merging.
#
# Usage: sh scripts/ci.sh   (or `make ci`)
set -eu

stage() {
  echo
  echo "== ci: $* =="
}

stage build
dune build @all

stage unit tests
dune runtest

stage bench-smoke
make bench-smoke

stage trace-smoke
make trace-smoke

stage serve-smoke
make serve-smoke

stage index-smoke
make index-smoke

stage store-smoke
make store-smoke

stage cluster-smoke
make cluster-smoke

stage obs-smoke
make obs-smoke

stage registry-smoke
make registry-smoke

stage net-smoke
make net-smoke

stage pareto-smoke
make pareto-smoke

echo
echo "ci: OK"
