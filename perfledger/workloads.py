"""The two workloads: set-up, timed phase, oracle check, traced run.

Each workload replays a fixed, seeded op sequence after a warm-up that
covers its whole hot key space, so a timed phase never mixes cold
fills with warm hits.  A timed phase ends when its ops are done, not at
a deadline: a slow host takes longer over the same work instead of
doing less of it.  Set-up (server boots) is repeated and reported as a
median.  With ``--trace 1`` the op count is halved and replayed twice:
once by the program as is, once through the traced launcher, and the
difference is the tracing overhead.
"""

import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
import opsgen
import spans
from layers import REQUEST_SPAN, STARTUP_LAYERS, TIME_LAYERS
from loadgen import Server, closed_loop, encode_request

HERE = Path(__file__).resolve().parent

#: Server boots per run; the median is ``setup_s``.  A traced run
#: reports no ``setup_s`` and boots once per phase.
SETUP_REPEATS = 3
#: Oracle processes: one per core, at most two.
ORACLE_SHARDS = max(1, min(2, os.cpu_count() or 1))
#: Timed ops per ``--seconds``: the op count of a timed phase is this
#: rate times the seconds asked for.  The rates are what a 2-vCPU host
#: sustains, so a phase lasts about ``--seconds`` there; the count, not
#: the clock, ends it.  At the benchmark's 30 seconds serve-hot's count
#: also holds about fourteen of the server's full garbage collections
#: (one per ~170 requests, ~90 ms each), so ``tail_ms`` falls among
#: them and not on the edge between them and ordinary requests.
OPS_PER_SECOND = {"serve-hot": 80, "serve-store": 60}
STORE_CONCEPTS = 20_000
STORE_NAME = "wordnet20k"
#: Rounds of the telemetry on/off replay, and ops per round.  Warm
#: workloads replay one fixed chunk every round; serve-store replays a
#: new chunk of whole 3:1 blocks each round, so it keeps missing.
REPLAY_ROUNDS = 12
REPLAY_CHUNK = {"serve-hot": 25, "serve-store": 40}
ORACLE_SHARD_MIN = 200
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Context:
    """Paths, environment and process helpers of one benchmark run."""

    def __init__(self, root, seed, seconds, trace):
        self.root = Path(root)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_repeats = 1 if trace else SETUP_REPEATS
        scratch = self.root / ".perfledger"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("SST_")
               and key not in _THREAD_VARIABLES}
        env["PYTHONPATH"] = str(self.root / "src")
        self.env = env
        self._dirs = itertools.count()
        self.phases = []
        self._last_mark = time.perf_counter()

    def mark(self, label):
        """Record the wall time spent since the previous mark."""
        now = time.perf_counter()
        self.phases.append((label, now - self._last_mark))
        self._last_mark = now

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prime(self):
        """Byte-compile the program once, so no timed call pays for it."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(self.root / "src")], env=self.env,
                       check=True, stdout=subprocess.DEVNULL)

    def fresh(self, label):
        path = self.workdir / f"{label}-{next(self._dirs)}"
        path.mkdir()
        return str(path)

    def program(self, *arguments):
        return [sys.executable, "-m", "repro.cli", *arguments]

    def traced(self, spans_path, *arguments):
        return [sys.executable, str(HERE / "launcher.py"), spans_path,
                *arguments]

    def helper(self, *arguments):
        """Run a ``progside.py`` command; fail the run if it fails."""
        subprocess.run([sys.executable, str(HERE / "progside.py"),
                        *arguments], env=self.env, cwd=self.root,
                       check=True, stdout=subprocess.DEVNULL)

    def catalog(self):
        path = os.path.join(self.fresh("catalog"), "concepts.json")
        self.helper("concepts", path)
        with open(path) as handle:
            return json.load(handle)

    def oracle(self, ops, store=None):
        """Digest of every distinct op's uncached, naive answer."""
        distinct = list({opsgen.op_key(op): op for op in ops}.values())
        shards = ORACLE_SHARDS if len(distinct) >= ORACLE_SHARD_MIN else 1
        directory = self.fresh("oracle")
        extra = ["--store", store] if store else []
        jobs = []
        for shard in range(shards):
            ops_path = os.path.join(directory, f"ops-{shard}.json")
            out_path = os.path.join(directory, f"digests-{shard}.json")
            with open(ops_path, "w") as handle:
                json.dump(distinct[shard::shards], handle)
            jobs.append((out_path, subprocess.Popen(
                [sys.executable, str(HERE / "progside.py"), "oracle",
                 ops_path, out_path, *extra], env=self.env, cwd=self.root,
                stdout=subprocess.DEVNULL)))
        codes = [job.wait() for _, job in jobs]
        if any(codes):
            raise RuntimeError(f"oracle failed with exit codes {codes}")
        digests = {}
        for out_path, _ in jobs:
            with open(out_path) as handle:
                digests.update(json.load(handle))
        return digests

    def replay(self, warm, rounds, store=None):
        """``telemetry.overhead_pct`` from an in-process handler replay."""
        directory = self.fresh("replay")
        plan_path = os.path.join(directory, "plan.json")
        out_path = os.path.join(directory, "replay.json")
        with open(plan_path, "w") as handle:
            json.dump({"warm": warm, "rounds": rounds}, handle)
        extra = ["--store", store] if store else []
        self.helper("replay", plan_path, self.fresh("replay-cache"),
                    out_path, *extra)
        self.mark("replay")
        with open(out_path) as handle:
            return json.load(handle)["overhead_pct"]


class Tally:
    """Timed ops that failed, and answers that disagree with the oracle.

    A timed op fails when it errs or its answer is wrong.  A warm-up
    request that errs counts as a wrong answer: the run then measured
    something else than it claims.
    """

    def __init__(self):
        self.failed = 0
        self.wrong = 0

    def setup(self, ok, matches):
        if not (ok and matches):
            self.wrong += 1

    def timed(self, ok, matches):
        if not (ok and matches):
            self.failed += 1
            if ok:
                self.wrong += 1


def _digest(body):
    return opsgen.canonical_digest(json.loads(body))


# -- serve-hot and serve-store ---------------------------------------------


def _boot(ctx, argv):
    server = Server(argv, ctx.env, ctx.root,
                    os.path.join(ctx.workdir, "serve-stderr.log"))
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


def _warm(server, warm_requests):
    run = closed_loop(server.port, warm_requests)
    return [(index, status, body)
            for index, _, status, body in run["records"]]


def _serve(ctx, workload, warm_ops, stream, extra_args, store=None):
    count = max(1, round(OPS_PER_SECOND[workload] * ctx.seconds
                         / (2 if ctx.trace else 1)))
    timed_ops = list(itertools.islice(stream, count))
    warm_requests = [encode_request(op) for op in warm_ops]
    timed_requests = [encode_request(op) for op in timed_ops]
    warm_answers = []
    setup = []
    server = None
    try:
        for _ in range(ctx.setup_repeats):
            if server is not None:
                server.stop()
            server = _boot(ctx, ctx.program(
                "--cache-dir", ctx.fresh("cache"), *extra_args,
                "serve", "--port", "0"))
            warm_answers += _warm(server, warm_requests)
            setup.append(time.perf_counter() - server.spawned)
        ctx.mark("setup")
        cpu_before = measure.proc_cpu_seconds(server.process.pid)
        run = closed_loop(server.port, timed_requests)
        cpu = measure.proc_cpu_seconds(server.process.pid) - cpu_before
        peak_rss = measure.proc_peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()
    ctx.mark("timed")
    traced = None
    if ctx.trace:
        spans_path = os.path.join(ctx.fresh("spans"), "serve.json")
        server = _boot(ctx, ctx.traced(
            spans_path, "--cache-dir", ctx.fresh("cache"), *extra_args,
            "serve", "--port", "0"))
        try:
            warm_answers += _warm(server, warm_requests)
            traced = closed_loop(server.port, timed_requests)
        finally:
            server.stop()
        traced["spans"] = spans.load(spans_path)
        traced["spawned"] = server.spawned
        ctx.mark("traced")

    phases = [run] + ([traced] if traced else [])
    oracle = ctx.oracle(warm_ops + timed_ops, store)
    ctx.mark("oracle")

    def check(op, status, body):
        return status == 200, (status == 200 and _digest(body)
                               == oracle[opsgen.op_key(op)])

    tally = Tally()
    for index, status, body in warm_answers:
        tally.setup(*check(warm_ops[index], status, body))
    for index, _, status, body in run["records"]:
        tally.timed(*check(timed_ops[index], status, body))
    untraced_failed = tally.failed
    for index, _, status, body in (traced or {"records": []})["records"]:
        tally.timed(*check(timed_ops[index], status, body))
    failed = tally.failed
    latencies = [latency for _, latency, _, _ in run["records"]]
    ops = len(latencies)
    attempted = sum(len(phase["records"]) for phase in phases)
    summary = measure.latency_summary(latencies)
    result = {
        "attempted": attempted, "failed": failed, "wrong": tally.wrong,
        "metrics": {
            "setup_s": statistics.median(setup),
            "mean_ms": summary["mean_ms"],
            "p50_ms": summary["p50_ms"],
            "tail_ms": summary["tail_ms"],
            "ops_per_s": (ops - untraced_failed) / run["elapsed"],
            "cpu_ms_per_op": cpu * 1000 / ops,
            "peak_rss_mb": peak_rss,
            "error_rate": failed / attempted,
        },
        "samples": {"setup_s": len(setup), "ops": ops},
        "tail_pct": summary["tail_pct"],
        "loadgen_cpu_ms_per_op": run["cpu"] * 1000 / ops,
    }
    if traced:
        rows = _serve_layers(traced, latencies)
        rows["loadgen.cpu_ms_per_op"] = result["loadgen_cpu_ms_per_op"]
        size = REPLAY_CHUNK[workload]
        if store is None:
            rounds = [timed_ops[:size]] * REPLAY_ROUNDS
        else:
            rounds = [list(itertools.islice(stream, size))
                      for _ in range(REPLAY_ROUNDS)]
        rows["telemetry.overhead_pct"] = ctx.replay(warm_ops, rounds, store)
        result["layers"] = rows
    return result


def _serve_layers(traced, untraced_latencies):
    record = traced["spans"]
    start = traced["started"]
    end = start + traced["elapsed"]
    rows = spans.empty_rows()
    rows["interp.start_ms"] = (record["started"] - traced["spawned"]) * 1000
    rows["cli.import_ms"] = (record["imported"] - record["started"]) * 1000
    boot_totals, _, _ = spans.span_totals(record, float("-inf"), start)
    for layer in STARTUP_LAYERS:
        if layer in boot_totals:
            rows[layer] = boot_totals[layer]
    ops = len(traced["records"])
    totals, pairs, score_total = spans.span_totals(record, start, end)
    for layer in STARTUP_LAYERS:
        totals.pop(layer, None)
    request_ms = totals.pop(REQUEST_SPAN, 0.0) / ops
    spans.fill(rows, totals, pairs, score_total, ops)
    wall_ms = statistics.mean(
        latency for _, latency, _, _ in traced["records"]) * 1000
    rows["server.http_ms"] = request_ms - sum(
        rows[name] for name in TIME_LAYERS if name != "server.http_ms")
    counters = spans.counter_deltas(record, start, end)
    spans.cache_rows(rows, {name: value / ops
                            for name, value in counters.items()})
    rows["server.coalesced"] = counters["server.coalesced"]
    rows["server.shed"] = counters["server.shed"]
    rows["server.queue_depth"] = counters["server.queue_depth"]
    rows["server.reconnects"] = traced["reconnects"]
    spans.reconcile(rows, wall_ms,
                    statistics.mean(untraced_latencies) * 1000)
    return rows


def serve_hot(ctx):
    catalog = ctx.catalog()
    ctx.mark("catalog")
    return _serve(ctx, "serve-hot", opsgen.hot_warmup(ctx.seed, catalog),
                  opsgen.hot_stream(ctx.seed, catalog), [])


def serve_store(ctx):
    directory = ctx.fresh("store")
    source = os.path.join(directory, f"{STORE_NAME}.wn")
    store = os.path.join(directory, f"{STORE_NAME}.sstdb")
    ctx.helper("wordnet", str(STORE_CONCEPTS), str(ctx.seed), source)
    subprocess.run(ctx.program("import", source, "--output", store),
                   env=ctx.env, cwd=ctx.root, check=True,
                   stdout=subprocess.DEVNULL)
    with open(source) as handle:
        names = [line.split()[4] for line in handle if line.strip()]
    ctx.mark("store")
    return _serve(ctx, "serve-store",
                  opsgen.store_warmup(ctx.seed, STORE_NAME, names),
                  opsgen.store_stream(ctx.seed, STORE_NAME, names),
                  ["--ontology-file", store], store=store)


WORKLOADS = {
    "serve-hot": serve_hot,
    "serve-store": serve_store,
}
