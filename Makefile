# Developer entry points.  `check` is the tier-1 gate; `ci` is the full
# gate (`check` plus bench-smoke) as one script; `bench-smoke` runs
# `summary ablation` at tiny scale on both the sequential and the
# 4-domain path, writes each stdout under results/ and diffs the two
# without their `(... took ...s)` timing lines: the summary's
# cross-validation and every ablation row run on the domain pool, and
# their tables must be bit-identical at any job count, so parallel
# regressions surface in a minute rather than in a full bench run;
# `trace-smoke` runs a tiny traced bench, validates the JSONL against
# the schema via `portopt report` and checks the report: zero orphan
# spans, the `bench.summary` and `crossval.run` rows of its span table
# and `interp.runs` among its counters (see docs/observability.md);
# `serve-smoke` does a full train -> serve -> concurrent query ->
# shutdown round trip against a real server process (see
# docs/serving.md); `index-smoke`
# serves a tiny model and diffs its single and batch answers against
# `portopt predict --model` in-process — the served kNN search must be
# byte-identical (see docs/model.md); `store-smoke`
# proves a warm evaluation store reruns `train` incrementally with a
# byte-identical artifact (see docs/architecture.md); `cluster-smoke`
# proves `train --workers N` over real worker processes is
# byte-identical to single-process — including under chaos and with a
# worker kill -9'd mid-run (see docs/cluster.md); `obs-smoke` runs
# the telemetry plane end to end — a traced multi-process train
# stitched to zero orphan spans, a live Prometheus scrape and the
# `top` dashboard against a real server, with tracing proven not to
# change the artifact (see docs/observability.md); `registry-smoke`
# exercises the model registry end to end — evidence ledgers, an
# incremental refit byte-identical to a cold retrain on the union,
# live serving from registry channels with an A/B split, a hot
# reload, promotion and gc reachability (see docs/registry.md);
# `net-smoke` proves the shared I/O core end to end — binary, JSON
# and mixed clients on one listener with the framings agreeing byte
# for byte on the payload, net.loop.* instruments visible in both
# metrics renderings, and a drain under live load (see docs/net.md);
# `pareto-smoke` exercises the multi-objective plane — `--objective
# cycles` byte-identical to the default path, a pareto-trained model
# served with per-request objective pinning (typed 400 on mismatch),
# a crossval front summary with a non-trivial front, and the `bench
# pareto` JSON summary (see docs/objectives.md).
# Smoke outputs land under results/ (gitignored), never in the repo
# root.

.PHONY: check ci bench-smoke trace-smoke serve-smoke index-smoke \
	store-smoke cluster-smoke obs-smoke registry-smoke net-smoke \
	pareto-smoke bench clean

check:
	dune build @all
	dune runtest
	$(MAKE) trace-smoke
	$(MAKE) serve-smoke
	$(MAKE) index-smoke
	$(MAKE) store-smoke
	$(MAKE) cluster-smoke
	$(MAKE) obs-smoke
	$(MAKE) registry-smoke
	$(MAKE) net-smoke
	$(MAKE) pareto-smoke

ci:
	sh scripts/ci.sh

bench-smoke:
	mkdir -p results
	REPRO_UARCHS=4 REPRO_OPTS=20 REPRO_JOBS=1 dune exec bench/main.exe -- \
	  summary ablation > results/bench_smoke_jobs1.txt
	REPRO_UARCHS=4 REPRO_OPTS=20 REPRO_JOBS=4 dune exec bench/main.exe -- \
	  summary ablation > results/bench_smoke_jobs4.txt
	diff -I '^(.* took [0-9.]*s)$$' results/bench_smoke_jobs1.txt \
	  results/bench_smoke_jobs4.txt

trace-smoke:
	mkdir -p results
	REPRO_UARCHS=4 REPRO_OPTS=20 REPRO_JOBS=4 dune exec bench/main.exe -- \
	  summary --trace results/trace_smoke.jsonl --json results/BENCH_smoke.json
	dune exec bin/portopt.exe -- report results/trace_smoke.jsonl \
	  > results/trace_smoke_report.txt
	grep -q '^orphan spans: 0$$' results/trace_smoke_report.txt
	grep -Eq '^  bench\.summary +[0-9]+ ' results/trace_smoke_report.txt
	grep -Eq '^  crossval\.run +[0-9]+ ' results/trace_smoke_report.txt
	grep -Eq '^  interp\.runs +[1-9]' results/trace_smoke_report.txt

serve-smoke:
	dune build bin/portopt.exe
	sh scripts/serve_smoke.sh

index-smoke:
	dune build bin/portopt.exe
	sh scripts/index_smoke.sh

store-smoke:
	dune build bin/portopt.exe
	sh scripts/store_smoke.sh

cluster-smoke:
	dune build bin/portopt.exe
	sh scripts/cluster_smoke.sh

obs-smoke:
	dune build bin/portopt.exe
	sh scripts/obs_smoke.sh

registry-smoke:
	dune build bin/portopt.exe
	sh scripts/registry_smoke.sh

net-smoke:
	dune build bin/portopt.exe
	sh scripts/net_smoke.sh

pareto-smoke:
	dune build bin/portopt.exe bench/main.exe
	sh scripts/pareto_smoke.sh

bench:
	dune exec bench/main.exe

clean:
	dune clean
