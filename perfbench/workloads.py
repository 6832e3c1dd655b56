"""Seeded inputs of the benchmark: the road network, queries and traffic.

Everything the program under test receives is made here, in the driver
process, from fixed constants and the run's ``--seed``:

* the road network is NY-lite (``load_dataset("NY")``), perturbed once
  with alpha=35%, tau=30% (snapshot seed 1) before the index is built.
  It does not depend on ``--seed``, so every run builds the same DTLP;
* ``ny-churn`` applies a fresh seeded traffic snapshot every round and
  asks a batch of short trips on the new weights;
* ``ny-cross-k2`` keeps a fixed traffic spike (snapshot seed 2) on
  the network between rounds: a round clears it through
  ``DTLP.update``, asks a batch of cross-town trips on the base
  weights, and applies the spike again. Every batch thus runs on the
  same weights in every run, so a query stopped by the iteration budget
  is stopped in every run; the seed picks which certified pool pairs
  join the batch.
"""
from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.roadnet import apply_deltas, load_dataset, snapshot_deltas

Pair = Tuple[int, int]
Deltas = List[Tuple[Tuple[int, int], float]]

DATASET = "NY"
Z = 50
XI = 12
ALPHA = 0.35
TAU = 0.30
BASE_SNAPSHOT_SEED = 1  # the one perturbation applied before the build
SPIKE_SNAPSHOT_SEED = 2  # the spike applied and cleared in ny-cross-k2
GRID_COLS = 50  # NY-lite is a 50 x 50 grid; vertex id = row * 50 + col
TRIP_CELLS = (4, 12)  # short trips: grid (Manhattan) distance range
SHORT_BATCH = 16
CROSS_SEEDED = 3  # seeded pool pairs per cross-town batch
# The budget-stopped pool pair in every cross-town batch: 150 iterations
# without a Theorem 3 certificate, about 2.6 s in the driver, 80% of it
# in the candidate join. The costlier stopped pairs would not fit a run.
PINNED = (395, 1053)
POOL_FILE = pathlib.Path(__file__).with_name("cross_pool.json")


def base_graph():
    """NY-lite with the pre-build traffic perturbation applied."""
    g = load_dataset(DATASET)
    apply_deltas(g, snapshot_deltas(g, alpha=ALPHA, tau=TAU, seed=BASE_SNAPSHOT_SEED))
    return g


def _cells(a: int, b: int) -> int:
    return abs(a // GRID_COLS - b // GRID_COLS) + abs(a % GRID_COLS - b % GRID_COLS)


def short_trips(graph, rnd: random.Random, n: int) -> List[Pair]:
    """``n`` trips whose target lies 4-12 grid cells from the source."""
    verts = sorted(graph.vertices)
    lo, hi = TRIP_CELLS
    out: List[Pair] = []
    while len(out) < n:
        s, t = rnd.choice(verts), rnd.choice(verts)
        if lo <= _cells(s, t) <= hi:
            out.append((s, t))
    return out


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())


def cross_trips(pool: dict, rnd: random.Random) -> List[Pair]:
    """The pinned budget-stopped pair plus one certified pair per stratum.

    The pool pairs are sorted by iteration count and cut into
    ``CROSS_SEEDED`` equal strata, so every batch has the same mix of
    easy and hard certified queries whatever the seed.
    """
    certified = sorted(pool["certified"], key=lambda p: (p[2], p[0], p[1]))
    n = len(certified)
    picks = []
    for i in range(CROSS_SEEDED):
        stratum = certified[i * n // CROSS_SEEDED : (i + 1) * n // CROSS_SEEDED]
        s, t = rnd.choice(stratum)[:2]
        picks.append((s, t))
    return [PINNED] + picks


@dataclass
class Workload:
    name: str
    k: int
    budget: int | None  # max_iterations handed to the query path

    def queries(self, graph, pool, seed: int, rnd_round: int) -> List[Pair]:
        rnd = random.Random(seed * 100_003 + rnd_round)
        if self.name == "ny-churn":
            return short_trips(graph, rnd, SHORT_BATCH)
        return cross_trips(pool, rnd)

    def prologue(self, spike: Deltas) -> List[Deltas]:
        """Weight changes applied once, untimed, before round 0."""
        return [] if self.name == "ny-churn" else [spike]

    def deltas(self, graph, seed: int, rnd_round: int, spike: Deltas):
        """``(before, after)``: the weight-change batches a round applies
        before its query batch and after it."""
        if self.name == "ny-churn":
            snap = snapshot_deltas(
                graph, alpha=ALPHA, tau=TAU, seed=1_000_000 + seed * 1_000 + rnd_round
            )
            return [snap], []
        # The spike is cleared before the batch and comes back after it,
        # so every batch runs on the base weights and the two updates
        # fall in different moments of the round. Base and spiked weights
        # both lie within [0.7, 1.3] x w0, so each difference and sum is
        # exact in floating point: clearing restores the very same weights.
        return [[(e, -dw) for e, dw in spike]], [spike]


WORKLOADS = {
    "ny-churn": Workload("ny-churn", k=2, budget=None),
    "ny-cross-k2": Workload("ny-cross-k2", k=2, budget=150),
}


def spike_deltas(graph) -> Deltas:
    """Deltas from the base weights to the fixed traffic spike."""
    return snapshot_deltas(graph, alpha=ALPHA, tau=TAU, seed=SPIKE_SNAPSHOT_SEED)
