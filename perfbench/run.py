"""KSP-DG benchmark: one seeded workload on NY-lite, end to end or traced.

    python3 perfbench/run.py --workload ny-churn --seed 1 --seconds 10 --trace 0

Set-up starts a ``local[N]`` Spark session (N = min(4, cores)), makes
NY-lite and builds the DTLP with ``build_dtlp_spark``. A batch of
trivial s == t queries then warms the Spark workers up. A round applies
the workload's weight changes with ``DTLP.update`` and answers one
``process_batch_spark`` batch on the new weights. Every answer is
checked against networkx and every update against Theorem 1 (see
``checks.py``).

``--trace 0`` times whole rounds until the next one would pass
``--seconds`` of measured time and prints the end-to-end metrics.
``--trace 1`` plays round 0 only: its updates run under layer wrappers,
and its queries are replayed in the driver through ``ksp_dg`` against
``query_snapshot()``, once untraced and once traced; FindKSP and Yen
then answer the same queries on the same weights. It prints the
per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` counts query
answers; a query stopped by the iteration budget counts as failed.
Progress and per-query detail go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import itertools
import json
import os
import pathlib
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from checks import (
    OK, STOPPED, WRONG, nx_graph, oracle_dists, self_test, skeleton_bound_faults, verdict,
)
from tracing import Tracer, build_layers, query_layers, update_layers

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_tmp"  # Spark, JVM and temp files of a run
FIXED_PROBE_BATCHES = 3  # traced runs; untraced runs make one, as warm-up
THEOREM1_SAMPLE = 16  # skeleton edges checked after every update


_T0 = time.perf_counter()


def log(*parts) -> None:
    print(f"[{time.perf_counter() - _T0:6.1f}s]", *parts, file=sys.stderr, flush=True)


def prepare_env() -> None:
    """Keep temp files in the checkout and make ``src/`` importable here
    and in the Spark workers."""
    for d in ("jvm", "spark", "tmp"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    # Every JVM, the spark-submit launcher too: temp files in WORK, and
    # no hsperfdata file under the system temp directory.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK / 'jvm'}"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    sys.path.insert(0, src)


def start_spark():
    from pyspark.sql import SparkSession

    n = min(4, os.cpu_count() or 1)
    spark = (
        SparkSession.builder.master(f"local[{n}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Tally:
    """Operation counts and correctness of one run."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0

    def check_update(self, dtlp, seed: int, r: int) -> None:
        faults = skeleton_bound_faults(dtlp, random.Random(seed * 7_919 + r), THEOREM1_SAMPLE)
        self.wrong += len(faults)
        for f in faults:
            log("WRONG:", f)

    def check_answers(self, graph, wl, queries, answers) -> list:
        """Check ``answers[i] = (paths, n_iterations)``; return verdicts."""
        g = nx_graph(graph)
        out = []
        for (s, t), (paths, n_iter) in zip(queries, answers):
            stopped = wl.budget is not None and n_iter >= wl.budget
            v, faults = verdict(graph, g, s, t, wl.k, paths, stopped)
            self.attempted += 1
            self.failed += v == STOPPED
            self.wrong += v == WRONG
            for f in faults:
                log("WRONG:", f)
            out.append(v)
        return out


def fixed_cost_probe(spark, dtlp, n: int, k: int, batches: int) -> float:
    """Median time of a batch of ``n`` trivial s == t queries: broadcast,
    scheduling and collect with no KSP work. The first batch also starts
    the Python workers, so it is the run's warm-up."""
    from repro.distrib import process_batch_spark

    v = min(dtlp.graph.vertices)
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        process_batch_spark(spark, dtlp, [(v, v)] * n, k)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclasses.dataclass
class Round:
    updates: list  # seconds of each DTLP.update call
    round_s: float  # the updates before the batch, then the batch
    batch_s: float
    answers: int  # certified-exact answers


def timed_rounds(spark, dtlp, wl, pool, spike, seed, seconds, tally):
    """Whole rounds until the next one would pass ``seconds``."""
    from repro.distrib import process_batch_spark

    graph = dtlp.graph
    rounds = []
    for deltas in wl.prologue(spike):
        dtlp.update(deltas)
    for r in itertools.count():
        before, after = wl.deltas(graph, seed, r, spike)
        queries = wl.queries(graph, pool, seed, r)
        gc.collect()  # no collection of earlier rounds' garbage in the timings
        updates = []
        t0 = time.perf_counter()
        for deltas in before:
            dtlp.update(deltas)
            updates.append(time.perf_counter() - t0 - sum(updates))
        t1 = time.perf_counter()
        res = process_batch_spark(spark, dtlp, queries, wl.k, max_iterations=wl.budget)
        t2 = time.perf_counter()
        answers = [(res[i].paths, res[i].n_iterations) for i in range(len(queries))]
        verdicts = tally.check_answers(graph, wl, queries, answers)
        for deltas in after:
            gc.collect()  # the checks' garbage, as at the start of the round
            t = time.perf_counter()
            dtlp.update(deltas)
            updates.append(time.perf_counter() - t)
        tally.check_update(dtlp, seed, r)
        log(
            f"round {r}: update {' '.join(f'{u:.3f}' for u in updates)}s "
            f"batch {t2 - t1:.3f}s iterations {[n for _, n in answers]}"
        )
        rounds.append(Round(updates, t2 - t0, t2 - t1, verdicts.count(OK)))
        spent = sum(sum(x.updates) + x.batch_s for x in rounds)
        if spent + sum(updates) + (t2 - t1) > seconds:
            return rounds


def traced_round(dtlp, wl, pool, spike, seed, tally, tr):
    """Round 0 with its updates traced and its queries replayed in the
    driver, untraced and traced, then answered by FindKSP and Yen."""
    from repro.baselines import find_ksp
    from repro.core import yen_ksp

    ksp_dg = importlib.import_module("repro.core.ksp_dg").ksp_dg
    graph = dtlp.graph
    queries = wl.queries(graph, pool, seed, 0)
    before, after = wl.deltas(graph, seed, 0, spike)
    for deltas in wl.prologue(spike):
        dtlp.update(deltas)

    def traced_update(deltas):
        with update_layers(tr), tr.span("update.skeleton_patch"):
            st = dtlp.update(deltas)
        tr.counts["update.paths_touched"] += st.n_paths_touched
        tr.counts["update.subgraphs_refreshed"] += st.n_subgraphs_refreshed
        tr.counts["update.skeleton_edges_updated"] += st.n_skeleton_edges_updated

    for deltas in before:
        traced_update(deltas)
    tally.check_update(dtlp, seed, 0)

    def replay():
        snap = dtlp.query_snapshot()  # fresh per replay: attach caches start cold
        gc.collect()
        t0 = time.perf_counter()
        res = [ksp_dg(snap, s, t, wl.k, max_iterations=wl.budget) for s, t in queries]
        return res, time.perf_counter() - t0

    _, plain_s = replay()
    with query_layers(tr, wl.k):
        res, traced_s = replay()
    tr.self_s["trace.replay"] = plain_s
    tr.self_s["trace.overhead"] = traced_s - plain_s
    iters = [q.n_iterations for q in res]
    tr.counts["query.iterations"] = sum(iters)
    tr.counts["query.iterations_max"] = max(iters)
    tr.counts["query.partial_tasks"] = sum(q.n_partial_tasks for q in res)
    tr.counts["query.partial_hits"] = sum(q.cache_hits for q in res)
    tally.check_answers(graph, wl, queries, [(q.paths, q.n_iterations) for q in res])
    log(f"traced queries {queries}")
    log(f"traced iterations {iters}")

    g = nx_graph(graph)
    want = [oracle_dists(g, s, t, wl.k) for s, t in queries]
    for name, fn in (("baseline.findksp", find_ksp), ("baseline.yen", yen_ksp)):
        t0 = time.perf_counter()
        out = [fn(graph.neighbors, s, t, wl.k) for s, t in queries]
        tr.self_s[name] = time.perf_counter() - t0
        for (s, t), paths, w in zip(queries, out, want):
            if any(abs(d - e) > 1e-6 for (_, d), e in zip(paths, w)) or len(paths) != len(w):
                tally.wrong += 1
                log(f"WRONG: {name} {s}->{t}: {[d for _, d in paths]} != oracle {w}")

    for deltas in after:
        traced_update(deltas)
    tally.check_update(dtlp, seed, 0)


def run(args) -> dict:
    from repro.distrib import build_dtlp_spark
    from workloads import XI, Z, WORKLOADS, base_graph, load_pool, spike_deltas

    wl = WORKLOADS[args.workload]
    rejected, corrupted = self_test()
    log(f"checker self-test: {rejected}/{corrupted} corrupted answers rejected")
    if rejected != corrupted:
        raise RuntimeError("the answer checker accepts corrupted answers")
    pool = load_pool() if wl.budget is not None else None
    tr = Tracer()

    t0 = time.perf_counter()
    spark = start_spark()
    try:
        session_s = time.perf_counter() - t0
        graph = base_graph()
        with build_layers(tr) if args.trace else contextlib.nullcontext():
            with tr.span("build.bounding"):
                dtlp, _ = build_dtlp_spark(spark, graph, z=Z, xi=XI)
        setup_s = time.perf_counter() - t0
        log(f"setup {setup_s:.2f}s (session {session_s:.2f}s)")

        spike = spike_deltas(graph)
        tally = Tally()
        n = len(wl.queries(graph, pool, args.seed, 0))
        fixed_s = fixed_cost_probe(spark, dtlp, n, wl.k, FIXED_PROBE_BATCHES if args.trace else 1)
        if args.trace:
            tr.self_s["build.session"] = session_s
            tr.self_s["spark.fixed"] = fixed_s
            tr.counts["index.ep_entries"] = dtlp.ep.n_entries
            tr.counts["index.skeleton_edges"] = dtlp.skeleton.n_edges
            tr.counts["index.bytes"] = len(pickle.dumps(dtlp))
            tr.counts["snapshot.bytes"] = len(pickle.dumps(dtlp.query_snapshot()))
            traced_round(dtlp, wl, pool, spike, args.seed, tally, tr)
            metrics = per_layer(tr)
        else:
            rounds = timed_rounds(spark, dtlp, wl, pool, spike, args.seed, args.seconds, tally)
            metrics = end_to_end(setup_s, rounds)
    finally:
        stop_spark(spark)
        log("spark stopped")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def end_to_end(setup_s: float, rounds) -> dict:
    batch = [x.batch_s for x in rounds]
    answers = sum(x.answers for x in rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": (setup_s, "s"),
        "batch_s": (statistics.median(batch), "s"),
        "answers_per_s": (answers / sum(batch), "1/s"),
        "round_s": (statistics.median(x.round_s for x in rounds), "s"),
        "driver_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


PER_LAYER_TIMES = [
    "build.session", "build.partition", "build.bounding", "build.reassemble",
    "spark.fixed", "query.attach", "query.filter", "query.refine", "query.join",
    "update.ep_shift", "update.unit_refresh", "update.lbd", "update.skeleton_patch",
    "baseline.findksp", "baseline.yen", "trace.replay", "trace.overhead",
]
PER_LAYER_COUNTS = {
    "build.bounding_rows": "count", "index.ep_entries": "count",
    "index.skeleton_edges": "count", "index.bytes": "B", "snapshot.bytes": "B",
    "query.iterations": "count", "query.iterations_max": "count",
    "query.partial_tasks": "count", "query.partial_hits": "count",
    "query.join_calls": "count", "query.join_short": "count",
    "update.paths_touched": "count", "update.subgraphs_refreshed": "count",
    "update.skeleton_edges_updated": "count",
}


def per_layer(tr) -> dict:
    out = {f"{n}_s": {"value": tr.self_s[n], "unit": "s"} for n in PER_LAYER_TIMES}
    out.update({n: {"value": tr.counts[n], "unit": u} for n, u in PER_LAYER_COUNTS.items()})
    for name, m in sorted(out.items()):
        log(f"  {name:32s} {m['value']:>14.4f} {m['unit']}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["ny-churn", "ny-cross-k2"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    prepare_env()
    try:
        result = run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
