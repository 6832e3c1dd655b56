"""Regenerate ``cross_pool.json``, the cross-town pairs of ``ny-cross-k2``.

    python3 perfbench/make_pool.py

Builds the DTLP exactly as a benchmark run does, applies and clears the
traffic spike once, then runs KSP-DG (k=2, budget 150) in worker
processes on 300 uniformly random pairs, each under a 5 s limit. A pair
is

* ``certified`` if it finishes within the budget and the limit;
* ``budget_stopped`` if it hits the budget within the limit;
* ``over_limit`` if it runs past the limit.

``workloads.PINNED`` names the budget-stopped pair that joins every
batch. Certified pairs costing more than 1 s are left out so that a
batch fits a run; the file lists what was left out. Takes about five
minutes on 4 cores.
"""
from __future__ import annotations

import importlib
import json
import multiprocessing as mp
import pickle
import random
import signal
import sys
import time

import run

POOL_SEED = 2020
CANDIDATES = 300
WORKERS = 3
LIMIT_S = 5.0
MAX_CERTIFIED_S = 1.0

_DTLP = None


def _load(path):
    global _DTLP
    with open(path, "rb") as f:
        _DTLP = pickle.load(f).query_snapshot()


def _limit(signum, frame):
    raise TimeoutError


def _classify(job):
    """``(iterations, seconds)``, or ``(None, limit)`` past the limit."""
    ksp_dg = importlib.import_module("repro.core.ksp_dg").ksp_dg
    s, t, k, budget, limit = job
    signal.signal(signal.SIGALRM, _limit)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        res = ksp_dg(_DTLP, s, t, k, max_iterations=budget)
    except TimeoutError:
        return None, limit
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return res.n_iterations, time.perf_counter() - t0


def main() -> int:
    run.prepare_env()
    from repro.distrib import build_dtlp_spark
    from workloads import BASE_SNAPSHOT_SEED, POOL_FILE, SPIKE_SNAPSHOT_SEED, WORKLOADS, XI, Z
    from workloads import base_graph, spike_deltas

    wl = WORKLOADS["ny-cross-k2"]

    spark = run.start_spark()
    try:
        graph = base_graph()
        dtlp, _ = build_dtlp_spark(spark, graph, z=Z, xi=XI)
    finally:
        run.stop_spark(spark)

    rnd = random.Random(POOL_SEED)
    verts = sorted(graph.vertices)
    pairs = []
    while len(pairs) < CANDIDATES:
        s, t = rnd.choice(verts), rnd.choice(verts)
        if s != t:
            pairs.append((s, t))

    # The state every ny-cross-k2 batch sees: one spike applied and cleared.
    spike = spike_deltas(graph)
    dtlp.update(spike)
    dtlp.update([(e, -dw) for e, dw in spike])
    path = run.WORK / "tmp" / "pool_dtlp.pkl"
    path.write_bytes(pickle.dumps(dtlp))
    try:
        ctx = mp.get_context("spawn")
        with ctx.Pool(WORKERS, initializer=_load, initargs=(path,)) as pool:
            jobs = [(s, t, wl.k, wl.budget, LIMIT_S) for s, t in pairs]
            outcome = pool.map(_classify, jobs, chunksize=1)
    finally:
        path.unlink()

    certified, stopped, over, costly = [], [], [], []
    for (s, t), (its, secs) in zip(pairs, outcome):
        row = [s, t, its, round(secs, 2)]
        if its is None:
            over.append(row)
        elif its >= wl.budget:
            stopped.append(row)
        elif secs > MAX_CERTIFIED_S:
            costly.append(row)
        else:
            certified.append(row)
    doc = {
        "about": (
            "Cross-town pairs of ny-cross-k2, made by make_pool.py. Rows are "
            "[s, t, KSP-DG iterations, driver seconds when classified] "
            f"for k={wl.k}, budget {wl.budget}, z={Z}, xi={XI}, on NY-lite after the "
            f"base snapshot (seed {BASE_SNAPSHOT_SEED}) and one spike "
            f"(seed {SPIKE_SNAPSHOT_SEED}) applied and cleared."
        ),
        "budget": wl.budget,
        "pool_seed": POOL_SEED,
        "candidates": CANDIDATES,
        "limit_s": LIMIT_S,
        "max_certified_s": MAX_CERTIFIED_S,
        "certified": certified,
        "budget_stopped": stopped,
        "left_out": {"over_limit": over, "certified_but_costly": costly},
    }
    POOL_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(
        f"{len(certified)} certified, {len(stopped)} budget-stopped, "
        f"{len(over)} over the limit, {len(costly)} costly",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
