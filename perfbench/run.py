#!/usr/bin/env python3
"""The repository benchmark: train a model with the real `portopt` binary,
then serve it under open-loop load, and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds `portopt` and the
benchmark's helper (`perfbench/pbench.exe`) from source with dune, works
in a private directory under `.bench_build/`, prints a human-readable
report, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Every workload is one session of the system as a user drives it:

1. set-up: for the warm workloads, a cold `portopt train` fills an
   evaluation store with the workload's programs and settings;
2. train phase (timed): `portopt train --store` at the workload's scale;
3. serve set-up: the seeded query stream with every reference answer
   (pbench), then `portopt serve` on the new artifact, started several
   times: the median start-up is `setup_s`;
4. serve phase (timed): open-loop `predict` traffic at three fixed rates
   (low, mid, high), then a ladder above them, with no top, for the
   highest rate that meets the latency limit without a growing backlog.

The workloads (perfbench/config.json) differ in what carries the work:
`train-cold` starts from an empty store, so compile and interpretation
dominate; `train-warm` retrains from a filled store at 200
configurations, so pricing, fitting and the artifact dominate, and it
serves a stream of distinct queries, every one of which runs kNN;
`serve-mixed` serves the same model with half its queries repeating a
hot set answered from the server's cache.

With `--trace 0` the end-to-end metrics are reported (tracing off).
With `--trace 1` the same session runs, then `pbench replay` repeats the
train and the served stream in-process with a span around every public
call, writes the spans as a trace `portopt report` reads, and the
per-layer metrics are reported with the layer budget.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402

CONFIG_PATH = os.path.join(HERE, "config.json")
# The self-check (selfcheck.py) names a JSON file here whose keys replace
# those of config.json, to run every workload at a tiny scale.
OVERLAY_PATH = os.environ.get("PERFBENCH_CONFIG", "")
# The self-check (selfcheck.py) names one output check here to hand it a
# wrong expected value and prove that the check fails.
WRONG = os.environ.get("PERFBENCH_WRONG", "")
BENCHMARK_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
PORTOPT = os.path.join("_build", "default", "bin", "portopt.exe")
PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")


class BenchError(Exception):
    pass


class GeneratorLate(Exception):
    """The generator missed its schedule: the step says nothing of the server."""


class StreamEnd(Exception):
    """A probe would need more requests than the whole query stream."""


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------


def build(root):
    for needed in ("dune-project", os.path.join("bin", "portopt.ml")):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError("not a checkout of the repository: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [dune, "build", "--root", ".", "bin/portopt.exe", "perfbench/pbench.exe"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise BenchError("build failed")
    log("build: %.1fs" % (time.perf_counter() - t0))


# ---- processes --------------------------------------------------------------


def run_tool(argv, cwd, env, what):
    """Run a helper to completion; return its last stdout line as JSON."""
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
        raise BenchError("%s failed (exit %d)" % (what, proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def timed_process(argv, cwd, env, what):
    """Run one program process; return (wall_s, cpu_s, peak_rss_mib).

    The child is reaped with wait4, so CPU and peak RSS are its own."""
    errlog = os.path.join(cwd, "stderr.log")
    with open(errlog, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(errlog, "rb") as f:
            sys.stderr.write(f.read().decode(errors="replace")[-4000:])
        raise BenchError("%s failed (exit %d)" % (what, code))
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mib(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Server:
    """One `portopt serve` process on a Unix socket."""

    def __init__(self, cwd, env, model, cfg):
        # Both ends name the socket relative to their working directory,
        # which keeps it under the AF_UNIX path limit wherever the
        # checkout lives.
        socket_path = os.path.relpath(os.path.join(cwd, "serve.sock"))
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self.socket = socket_path
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.abspath(PORTOPT), "serve", "--model", model, "--socket", "serve.sock",
             "--jobs", str(cfg["jobs"]), "--cache", str(cfg["cache"]),
             "--log-level", "quiet"],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "listening" not in line:
            self.stop()
            raise BenchError("server did not start: %r" % line)
        health = loadgen.request(socket_path, {"op": "health"})
        if not health.get("ok"):
            self.stop()
            raise BenchError("server health check failed")
        self.ready_s = time.perf_counter() - t0
        self.model_version = health["model"]["version"]

    def metrics(self):
        reply = loadgen.request(self.socket, {"op": "metrics"})
        if not reply.get("ok"):
            raise BenchError("metrics op failed: %r" % reply)
        return reply["metrics"]

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def artifact_id(path):
    """(version id from the header's payload checksum, digest of the bytes)."""
    with open(path, "rb") as f:
        data = f.read()
    header = json.loads(data.split(b"\n", 1)[0])
    return header["checksum"].split(":", 1)[1], hashlib.sha256(data).hexdigest()


# ---- metrics helpers ---------------------------------------------------------


def counter(snapshot, name):
    return snapshot.get("counters", {}).get(name, 0)


def gauge(snapshot, name):
    return snapshot.get("gauges", {}).get(name, 0.0)


def q(values, p):
    return loadgen.quantile(sorted(values), p)


def overlay(base, top):
    """`base` with every key of `top` replaced, merging nested objects."""
    out = dict(base)
    for k, v in top.items():
        out[k] = overlay(base[k], v) if isinstance(v, dict) and isinstance(
            base.get(k), dict) else v
    return out


def load_config():
    with open(CONFIG_PATH) as f:
        config = json.load(f)
    if OVERLAY_PATH:
        with open(OVERLAY_PATH) as f:
            config = overlay(config, json.load(f))
    return config


# ---- the session --------------------------------------------------------------


class Session:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.config = load_config()
        if workload not in self.config["workloads"]:
            raise BenchError("unknown workload %s (have: %s)" % (
                workload, ", ".join(sorted(self.config["workloads"]))))
        self.name = workload
        self.w = self.config["workloads"][workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".bench_build", "perfbench",
                                 "%s-%d" % (workload, os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup = {}
        self.out = {}
        self.lines = []

    def env(self, uarchs):
        env = dict(os.environ)
        env.update(self.config["env"])
        env["REPRO_SEED"] = str(self.config["train_seed"])
        env["REPRO_UARCHS"] = str(uarchs)
        env["REPRO_OPTS"] = str(self.w["REPRO_OPTS"])
        return env

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            log("check failed: " + what)

    def pbench(self, args, what, cwd=None):
        return run_tool([os.path.join(self.root, PBENCH)] + args, cwd or self.work,
                        self.env(self.w["REPRO_UARCHS"]), what)

    def train(self, uarchs, model):
        return timed_process(
            [os.path.join(self.root, PORTOPT), "train", "--store", "store", "-o", model,
             "--log-level", "quiet"],
            self.work, self.env(uarchs), "portopt train")

    def store_records(self):
        return self.pbench(["check-store", "store"], "pbench check-store")

    # -- 1 + 2: set-up and train phase --

    def train_phase(self):
        store = os.path.join(self.work, "store")
        if self.w["store"] == "filled":
            t0 = time.perf_counter()
            self.train(self.config["store_fill"]["REPRO_UARCHS"], "fill.pcm")
            self.setup["store_fill_s"] = time.perf_counter() - t0
            filled = self.store_records()
            self.check(filled["bad"] == 0, "store fill: %d bad records" % filled["bad"])
            if WRONG == "warm":
                filled["records"] += 1
        walls, cpus, rss, ids = [], [], [], []
        for i in range(self.w["trains"]):
            if self.w["store"] == "empty":
                shutil.rmtree(store, ignore_errors=True)
            wall, cpu, peak = self.train(self.w["REPRO_UARCHS"], "model.pcm")
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            ids.append(artifact_id(os.path.join(self.work, "model.pcm")))
            records = self.store_records()
            self.check(records["bad"] == 0,
                       "train %d: %d store records fail the reference checksum" % (i, records["bad"]))
            if self.w["store"] == "filled":
                # A warm train writes nothing: every profile is read back,
                # none interpreted.
                self.check(records["records"] == filled["records"],
                           "warm train %d wrote %d new records" % (
                               i, records["records"] - filled["records"]))
        self.check(len(set(ids)) == 1, "train artifacts differ: %s" % sorted(set(ids)))
        self.version_id = ids[0][0]
        expected = "0" * 16 if WRONG == "version" else self.w.get("version_id")
        if expected:
            self.check(self.version_id == expected,
                       "artifact %s, expected the recorded %s" % (self.version_id, expected))
        self.out["train_s"] = statistics.median(walls)
        self.out["train_cpu_s"] = statistics.median(cpus)
        self.train_rss = max(rss)
        self.lines.append("train: %d run(s), wall %s s, cpu %s s, artifact %s" % (
            len(walls), " ".join("%.3f" % x for x in walls),
            " ".join("%.3f" % x for x in cpus), self.version_id))

    # -- 3 + 4: serve set-up and serve phase --

    def serve_setup(self, count):
        t0 = time.perf_counter()
        got = self.pbench(
            ["stream", "--model", "model.pcm", "--store", "store", "--seed", str(self.seed),
             "--count", str(count), "--hot-set", str(self.w["hot_set"]),
             "--hot-share", str(self.w["hot_share"]), "--out", "stream.jsonl"],
            "pbench stream")
        self.setup["reference_s"] = time.perf_counter() - t0
        self.stream = []
        with open(os.path.join(self.work, "stream.jsonl")) as f:
            for line in f:
                item = json.loads(line)
                item["frame"] = loadgen.frame(item["payload"].encode())
                del item["payload"]
                self.stream.append(item)
        if WRONG == "reply":
            self.stream[0]["passes"] = [v + 1 for v in self.stream[0]["passes"]]
        self.lines.append("stream: %d requests, %d distinct queries, hot share %.2f" % (
            len(self.stream), got["distinct"], self.w["hot_share"]))

    def start_server(self):
        return Server(self.work, self.env(self.w["REPRO_UARCHS"]), "model.pcm",
                      self.config["server"])

    def schedule(self):
        """The fixed-rate windows: (name, rate, seconds); they split --seconds
        with the climb's probes."""
        share = self.config["step_share"]
        return [(name, float(self.w["rates"][name]), share[name] * self.seconds)
                for name in ("low", "mid", "high")]

    def probe_n(self, rate):
        """Requests in one climb probe: its share of --seconds, and never
        fewer than `probe_samples`, so p99 rests on at least 10 samples."""
        c = self.config["climb"]
        return max(c["probe_samples"], int(round(rate * self.config["step_share"]["probe"]
                                                 * self.seconds)))

    def climb(self, gen):
        """Highest rate meeting the latency limit with no growing backlog.

        Rates rise geometrically from the high rate until a probe fails,
        then bisect between the last good and the first failing rate.  A
        failing probe is repeated once, so one host stall cannot end the
        climb on its own.  Only a failing probe, a generator that cannot
        keep its schedule, or a probe longer than the whole query stream,
        stops the climb; the probes go round the stream (loadgen.py)."""
        c = self.config["climb"]
        probes = []

        def probe(rate):
            n = self.probe_n(rate)
            for _ in range(2):
                if not gen.fits(n):
                    raise StreamEnd(rate)
                r = gen.step(rate, n / rate, grace=2.0)
                ok, late_ok = self.step_ok(r)
                probes.append((r, ok, late_ok))
                if not late_ok:
                    raise GeneratorLate(rate)
                if ok:
                    return True
            return False

        good = 0.0
        rate = float(self.w["rates"]["high"])
        try:
            while probe(rate):
                good = rate
                rate *= c["factor"]
            bad = rate
            for _ in range(c["bisections"]):
                mid = round((good * bad) ** 0.5) if good else round(bad / c["factor"])
                if probe(mid):
                    good = mid
                else:
                    bad = mid
        except GeneratorLate:
            self.climb_end = "the generator could not keep its schedule"
        except StreamEnd:
            self.climb_end = "a probe would be longer than the query stream"
        return good, probes

    def step_ok(self, r):
        limit = self.config["latency_limit_ms"] / 1e3
        # A generator that cannot keep its schedule runs late on most
        # sends, not just across a host stall (which the latencies,
        # timed from the due times, already carry).
        late_ok = q(r["late"], 0.5) <= self.config["late_p50_limit_ms"] / 1e3
        p99 = q(r["latencies"], 0.99)
        # A queue that grows through the step shows as a backlog far beyond
        # what the limit allows in flight.
        backlog_ok = r["backlog"] <= max(10, r["rate"] * limit)
        return r["failed"] == 0 and p99 <= limit and backlog_ok, late_ok

    def serve_phase(self):
        windows = self.schedule()
        rounds = self.config["rounds"]
        # Enough for every window; the climb goes round the stream again.
        self.serve_setup(int(rounds * sum(r * s for _, r, s in windows)) + 64)
        # The program's own set-up: exec to a healthy server on the new
        # artifact, several times over, the last one kept to serve.
        starts = []
        server = None
        for _ in range(self.config["server_starts"]):
            if server:
                server.stop()
            server = self.start_server()
            starts.append(server.ready_s)
        try:
            self.out["setup_s"] = statistics.median(starts)
            self.lines.append("server start-up: %s s" % " ".join("%.3f" % x for x in starts))
            trained = "0" * 16 if WRONG == "served-model" else self.version_id
            self.check(server.model_version == trained,
                       "server loaded %s, trained %s" % (server.model_version, trained))
            nproc = loadgen.nproc()
            conns = max(1, min(nproc, self.config["server"]["connections_max"]))
            self.climb_end = None
            timer = loadgen.timer_lateness(1000)
            gen = loadgen.Generator(server.socket, self.stream, conns)
            self.lines.append(
                "generator: nproc %d, %d connection(s), idle timer lateness p50 %.3f p99 %.3f "
                "max %.3f ms" % (nproc, conns, q(timer, 0.5) * 1e3, q(timer, 0.99) * 1e3,
                                 timer[-1] * 1e3))
            self.out["gen.timer_late_ms.p99"] = q(timer, 0.99) * 1e3
            before = server.metrics()
            cpu0 = proc_cpu_s(server.proc.pid)
            # The three rates take turns, window by window, so a slow
            # spell of the host lands on every rate alike.
            fixed = {name: [] for name, _, _ in windows}
            for _ in range(rounds):
                for name, rate, secs in windows:
                    fixed[name].append(gen.step(rate, secs, grace=2.0))
            cpu1 = proc_cpu_s(server.proc.pid)
            after = server.metrics()
            best, probes = self.climb(gen)
            gen.close()
            self.server_rss = proc_hwm_mib(server.proc.pid)
        finally:
            server.stop()
        answered = 0
        lates = []
        backlog = 0
        for name, rate, _ in windows:
            rs = fixed[name]
            lat = sorted(x for r in rs for x in r["latencies"])
            late = sorted(x for r in rs for x in r["late"])
            lates += late
            backlog = max([backlog] + [r["backlog"] for r in rs])
            for r in rs:
                self.account(r)
                answered += r["answered"]
            p50s = [q(r["latencies"], 0.5) for r in rs]
            late_windows = sum(1 for r in rs if not self.step_ok(r)[1])
            self.out["lat_p50_ms." + name] = statistics.median(p50s) * 1e3
            self.out["lat_p99_ms." + name] = q(lat, 0.99) * 1e3
            self.lines.append(
                "%-4s %6.0f req/s: n %d in %d windows, window p50s %s ms; pooled p99 %.3f ms "
                "(%d beyond), max %.3f ms; late p50 %.3f p99 %.3f ms; failed %d%s" % (
                    name, rate, len(lat), len(rs),
                    " ".join("%.3f" % (x * 1e3) for x in p50s), q(lat, 0.99) * 1e3,
                    len(lat) - int(0.99 * len(lat)), lat[-1] * 1e3 if lat else 0.0,
                    q(late, 0.5) * 1e3, q(late, 0.99) * 1e3, sum(r["failed"] for r in rs),
                    "; INVALID: the generator ran late in %d window(s)" % late_windows
                    if late_windows else ""))
        for r, ok, late_ok in probes:
            self.account(r)
            self.lines.append(
                "probe %6.0f req/s: n %d, p99 %.3f ms, backlog %d, failed %d -> %s" % (
                    r["rate"], r["attempted"], q(r["latencies"], 0.99) * 1e3, r["backlog"],
                    r["failed"], "ok" if ok and late_ok else
                    ("generator late: invalid" if not late_ok else "over the limit")))
        if self.climb_end:
            self.lines.append("climb stopped before the server's limit: " + self.climb_end)
        self.out["server_cpu_us_per_req"] = (cpu1 - cpu0) / max(1, answered) * 1e6
        self.out["max_ok_rps"] = best
        lates.sort()
        self.out["gen.late_ms.p99"] = q(lates, 0.99) * 1e3
        self.out["gen.late_ms.max"] = lates[-1] * 1e3
        self.out["gen.backlog"] = backlog
        self.server_layer(before, after, answered)

    def account(self, r):
        self.attempted += r["attempted"]
        self.failed += r["failed"]
        if r["failed"]:
            self.failures.append("%d of %d requests at %.0f req/s failed (%d refused, %d wrong)" % (
                r["failed"], r["attempted"], r["rate"], r["refused"], r["wrong"]))

    def server_layer(self, before, after, answered):
        n = max(1, answered)

        def d(name):
            return counter(after, name) - counter(before, name)

        hits, misses = d("serve.cache.hits"), d("serve.cache.misses")
        self.out["cache.hit_ratio"] = hits / max(1, hits + misses)
        self.out["net.bytes_in_per_req"] = d("net.loop.bytes_in") / n
        self.out["net.bytes_out_per_req"] = d("net.loop.bytes_out") / n
        self.out["loop.wakeups_per_req"] = d("net.loop.wakeups") / n
        self.out["loop.lag_ms"] = gauge(after, "net.loop.lag_seconds") * 1e3
        # At --jobs 1 predictions run on the server's dispatch thread, not in
        # Prelude.Pool, so the pool's task histogram stays empty; the
        # request histogram covers queueing and compute.
        for label, snapshot in (("before", before), ("after", after)):
            with open(os.path.join(self.work, "metrics-%s.json" % label), "w") as f:
                json.dump(snapshot, f)
        window = self.pbench(["window", "--before", "metrics-before.json", "--after",
                              "metrics-after.json", "--hist", "serve.request.seconds"],
                             "pbench window")
        self.out["server.request_ms.p50"] = window["p50"] * 1e3
        self.out["server.request_ms.p99"] = window["p99"] * 1e3
        self.out["serve.shed"] = d("serve.shed")
        self.out["serve.errors"] = d("serve.errors")

    # -- the traced replay --

    def replay(self):
        rdir = os.path.join(self.work, "replay")
        os.makedirs(rdir)
        if self.w["store"] == "filled":
            shutil.copytree(os.path.join(self.work, "store"), os.path.join(rdir, "store"))
        # The replay covers the first round of fixed-rate windows: the
        # stream's mix, at a size whose trace stays small.
        n = int(sum(r * s for _, r, s in self.schedule()))
        with open(os.path.join(self.work, "stream.jsonl")) as src, \
                open(os.path.join(rdir, "stream.jsonl"), "w") as dst:
            for i, line in enumerate(src):
                if i >= n:
                    break
                dst.write(line)
        got = self.pbench(["replay", "--store", "store", "--model-out", "model.pcm",
                           "--stream", "stream.jsonl", "--trace", "trace.jsonl"],
                          "pbench replay", cwd=rdir)
        self.attempted += got["checked"]
        self.failed += got["failed"]
        if got["failed"]:
            self.failures.append("replay: %d of %d checks failed" % (got["failed"], got["checked"]))
        binary = "0" * 16 if WRONG == "replay-model" else self.version_id
        self.check(got["version_id"] == binary,
                   "replay artifact %s, binary artifact %s" % (got["version_id"], binary))
        m = got["metrics"]
        self.out.update(m)
        if self.w["store"] == "filled":
            runs = 1 if WRONG == "warm-replay" else 0
            self.check(m["interp.runs"] == runs,
                       "warm replay interpreted %d binaries, expected %d" % (m["interp.runs"], runs))
        trace = "missing.jsonl" if WRONG == "report" else "trace.jsonl"
        report = subprocess.run(
            [os.path.join(self.root, PORTOPT), "report", trace], cwd=rdir,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.check(report.returncode == 0,
                   "portopt report rejected the replay trace: %s" % report.stderr.decode()[-500:])
        # The work directory goes at exit; the trace stays for `portopt report`.
        kept = os.path.join(self.root, ".bench_build", "perfbench", "%s-trace.jsonl" % self.name)
        os.replace(os.path.join(rdir, "trace.jsonl"), kept)
        self.out["trace_overhead_s"] = m["train.traced_s"] - self.out["train_s"]
        self.lines.append("layer budget (traced replay, %.3f s; trace %s):" % (
            m["traced_s"], os.path.relpath(kept, self.root)))
        self.lines.append("  %-16s %10s %10s %8s %12s" % (
            "layer", "count", "busy s", "share", "per unit"))
        for row in got["layers"]:
            self.lines.append("  %-16s %10.0f %10.4f %7.1f%% %12.4g %s" % (
                row["layer"], row["count"], row["busy_s"], row["share"] * 100, row["per_unit"],
                row["unit"]))
        self.lines.append("  %-16s %10s %10.4f %7.1f%%" % (
            "unattributed", "", m["layers.unattributed_s"],
            m["layers.unattributed_s"] / m["traced_s"] * 100 if m["traced_s"] else 0.0))
        self.lines.append("  trace overhead: %.3f s (traced %.3f s - untraced %.3f s)" % (
            self.out["trace_overhead_s"], m["train.traced_s"], self.out["train_s"]))

    def run(self):
        self.train_phase()
        self.serve_phase()
        self.out["store_fill_s"] = self.setup.get("store_fill_s", 0.0)
        self.out["reference_s"] = self.setup["reference_s"]
        self.out["peak_rss_mb"] = self.train_rss
        self.out["server_rss_mb"] = self.server_rss
        if self.trace:
            self.replay()
        self.lines.insert(0, "benchmark set-up: " + ", ".join(
            "%s %.3f s" % (k, v) for k, v in sorted(self.setup.items())))

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def report(session, bench):
    kind = "per_layer" if session.trace else "end_to_end"
    metrics = {}
    for spec in bench[kind]:
        name = spec["name"]
        if name not in session.out:
            raise BenchError("metric %s was not measured" % name)
        metrics[name] = {"value": float(session.out[name]), "unit": spec["unit"]}
    print("perfbench %s seed %d (%s)" % (session.name, session.seed,
                                          "traced" if session.trace else "tracing off"))
    for line in session.lines:
        print(line)
    # Every metric this run measured, by name and unit; the JSON line
    # below carries the set BENCHMARK.json names for this mode.
    for title, specs in (("end-to-end", bench["end_to_end"]), ("per-layer", bench["per_layer"])):
        shown = [m for m in specs if m["name"] in session.out]
        if shown:
            print("%s metrics:" % title)
        for m in shown:
            print("  %-28s %14.6g %s" % (m["name"], session.out[m["name"]], m["unit"]))
    print("failed_share %.6f ratio (%d of %d attempted)" % (
        session.failed / max(1, session.attempted), session.failed, session.attempted))
    for f in session.failures[:20]:
        print("FAILED: " + f)
    print("measured: " + json.dumps(session.out, sort_keys=True))
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    try:
        with open(BENCHMARK_PATH) as f:
            bench = json.load(f)
        build(root)
        session = Session(root, args.workload, args.seed, args.seconds, args.trace == 1)
        try:
            session.run()
            report(session, bench)
        finally:
            session.cleanup()
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
