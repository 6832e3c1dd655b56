"""Answer and index checks, computed outside the program under test.

They read only public surfaces: ``Graph.edges/weight/has_edge``, the
paths and distances a query returns, ``DTLP.skeleton`` and
``DTLP.partition``. The oracle is networkx, which ``src/`` never uses.
"""
from __future__ import annotations

import random
from itertools import islice
from typing import List, Sequence, Tuple

import networkx as nx

_TOL = 1e-6

OK, WRONG, STOPPED = "ok", "wrong", "stopped"


def nx_graph(graph) -> nx.Graph:
    """The graph's current weights as an undirected networkx graph."""
    g = nx.Graph()
    for u, v in graph.edges():
        g.add_edge(u, v, weight=graph.weight(u, v))
    return g


def oracle_dists(g: nx.Graph, s: int, t: int, k: int) -> List[float]:
    """First ``k`` simple-path distances from ``s`` to ``t``."""
    if s == t:
        return [0.0]
    paths = islice(nx.shortest_simple_paths(g, s, t, weight="weight"), k)
    return [nx.path_weight(g, p, "weight") for p in paths]


def path_faults(graph, s: int, t: int, paths: Sequence[Tuple[List[int], float]]) -> List[str]:
    """Property checks on a returned answer; an empty list means it passed.

    Every path must run from ``s`` to ``t``, be simple, use only graph
    edges, and have the reported distance when recomputed.
    """
    faults = []
    for path, dist in paths:
        if not path or path[0] != s or path[-1] != t:
            faults.append(f"path {path[:3]}... does not run {s}->{t}")
            continue
        if len(set(path)) != len(path):
            faults.append(f"path {s}->{t} repeats a vertex")
            continue
        if not all(graph.has_edge(a, b) for a, b in zip(path, path[1:])):
            faults.append(f"path {s}->{t} uses a non-edge")
            continue
        length = sum(graph.weight(a, b) for a, b in zip(path, path[1:]))
        if abs(length - dist) > _TOL * max(1.0, length):
            faults.append(f"path {s}->{t} reports {dist} but measures {length}")
    if len({tuple(p) for p, _ in paths}) != len(paths):
        faults.append(f"answer {s}->{t} repeats a path")
    return faults


def verdict(graph, g: nx.Graph, s, t, k, paths, stopped: bool) -> Tuple[str, List[str]]:
    """``OK``, ``STOPPED`` (budget hit, no wrong path) or ``WRONG``.

    An exact answer must match the oracle's first ``k`` distances. A
    budget-stopped answer is uncertified; its paths must still be valid
    and no better than the oracle's, rank by rank.
    """
    faults = path_faults(graph, s, t, paths)
    want = oracle_dists(g, s, t, k)
    got = [d for _, d in paths]
    if stopped:
        if any(d < w - _TOL for d, w in zip(got, want)) or len(got) > len(want):
            faults.append(f"stopped answer {s}->{t} beats the oracle: {got} vs {want}")
        return (WRONG if faults else STOPPED), faults
    if len(got) != len(want) or any(abs(a - b) > _TOL * max(1.0, b) for a, b in zip(got, want)):
        faults.append(f"answer {s}->{t}: {got} != oracle {want}")
    return (WRONG if faults else OK), faults


def skeleton_bound_faults(dtlp, rnd: random.Random, n_edges: int) -> List[str]:
    """Theorem 1 on a seeded sample of skeleton edges.

    For a skeleton edge (a, b) and every subgraph holding both, the
    edge's MBD may not exceed the a-b distance inside that subgraph with
    its other boundary vertices removed.
    """
    skel, part, graph = dtlp.skeleton, dtlp.partition, dtlp.graph
    edges = sorted((a, b) for a in skel.vertices for b, _ in skel.neighbors(a) if a < b)
    faults = []
    for a, b in rnd.sample(edges, min(n_edges, len(edges))):
        mbd = skel.weight(a, b)
        for sg_id in sorted(set(part.home_subgraphs(a)) & set(part.home_subgraphs(b))):
            banned = set(part.boundary_of(sg_id)) - {a, b}
            g = nx.Graph()
            for u, v in part.subgraphs[sg_id].edge_list:
                if u not in banned and v not in banned:
                    g.add_edge(u, v, weight=graph.weight(u, v))
            try:
                d = nx.dijkstra_path_length(g, a, b, weight="weight")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                continue
            if mbd > d + _TOL:
                faults.append(f"skeleton ({a},{b}) MBD {mbd} > {d} inside subgraph {sg_id}")
    return faults


def self_test() -> Tuple[int, int]:
    """Feed the checker corrupted answers: ``(rejected, corrupted)``.

    Uses a 4-cycle with a chord, so the test needs no index or Spark.
    Raises if the checker rejects the right answer.
    """
    from repro.roadnet import Graph

    graph = Graph()
    for u, v, w in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 2), (0, 2, 3)]:
        graph.add_edge(u, v, w)
    g = nx_graph(graph)
    if verdict(graph, g, 0, 2, 2, [([0, 1, 2], 2.0), ([0, 2], 3.0)], False)[0] != OK:
        raise RuntimeError("checker rejects a right answer")
    corrupted = [
        [([0, 1, 2], 2.0), ([0, 2], 4.0)],  # distance misreported
        [([0, 2], 3.0), ([0, 3, 2], 3.0)],  # misses the shortest path
        [([0, 1, 2], 2.0), ([0, 1, 0, 2], 5.0)],  # not simple
        [([0, 1, 2], 2.0), ([0, 3, 1, 2], 4.0)],  # uses a non-edge
        [([0, 1, 2], 2.0)],  # fewer than k paths
        [([0, 1, 2], 2.0), ([0, 1, 2], 2.0)],  # repeated path
        [([1, 2], 1.0), ([0, 2], 3.0)],  # wrong source
    ]
    rejected = sum(verdict(graph, g, 0, 2, 2, a, False)[0] == WRONG for a in corrupted)
    return rejected, len(corrupted)
