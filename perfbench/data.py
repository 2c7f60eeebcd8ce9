"""Seeded inputs and the benchmark's own oracles.

Everything here is plain Python over tuples and sets: the oracles never call
into the system under test, so an engine defect cannot hide behind itself.

Graphs are drawn as ``G(n, m)`` digraphs (exactly ``m`` distinct edges,
no self loops) and accepted only when their transitive closure lands in a
narrow band around a target size.  Sparse random graphs sit near the giant
component threshold, where the closure size swings several-fold from seed
to seed; conditioning on it keeps the work per query, and so every timing,
comparable across seeds while the seed still picks the graph.  Where the
workload deletes edges under a maintained closure, the mean edge cone
(:func:`edge_cone`) is conditioned the same way, because it sets the
delete/rederive work per deleted edge.
"""

from __future__ import annotations

import random
from typing import Iterable


def closure(edges: Iterable[tuple[int, int]]) -> frozenset:
    """Transitive closure by one BFS per source node."""
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    out = set()
    for s in succ:
        seen: set[int] = set()
        stack = [s]
        while stack:
            for y in succ.get(stack.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        out.update((s, y) for y in seen)
    return frozenset(out)


def reach_from(tc: frozenset, src: int) -> frozenset:
    """The rows ``edges.fix().where(fst == src)`` must return."""
    return frozenset(p for p in tc if p[0] == src)


def two_hop(edges: Iterable[tuple[int, int]]) -> frozenset:
    """``edges o edges``: pairs joined by a path of exactly two edges."""
    succ: dict[int, set[int]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    return frozenset(
        (a, c) for a, bs in succ.items() for b in bs for c in succ.get(b, ())
    )


def parity(bits: list[bool]) -> bool:
    """XOR of the bits."""
    out = False
    for b in bits:
        out ^= b
    return out


def edge_cone(edges: list, tc: frozenset) -> float:
    """Mean over edges (a, b) of (ancestors(a) + 1) * (descendants(b) + 1).

    The closure rows whose derivation can run through one edge: the rows a
    delete/rederive pass over-deletes when that edge is deleted.
    """
    anc: dict[int, int] = {}
    desc: dict[int, int] = {}
    for x, y in tc:
        anc[y] = anc.get(y, 0) + 1
        desc[x] = desc.get(x, 0) + 1
    return sum((1 + anc.get(a, 0)) * (1 + desc.get(b, 0)) for a, b in edges) / len(edges)


def seeded_graph(rng: random.Random, n: int, m: int, tc_target: int, tc_band: float,
                 cone_target: float = 0.0, cone_band: float = 0.0) -> list:
    """A ``G(n, m)`` digraph with closure size, and edge cone if given, in band."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for _ in range(10_000):
        edges = rng.sample(pairs, m)
        tc = closure(edges)
        if abs(len(tc) - tc_target) > tc_target * tc_band:
            continue
        if cone_target and abs(edge_cone(edges, tc) - cone_target) > cone_target * cone_band:
            continue
        return sorted(edges)
    raise RuntimeError(
        f"no G({n}, {m}) graph with closure size {tc_target} +-{tc_band:.0%} "
        f"(edge cone {cone_target} +-{cone_band:.0%}) in 10000 draws; "
        "the design's sizes are inconsistent"
    )


def seeded_bits(rng: random.Random, k: int) -> list[bool]:
    return [rng.random() < 0.5 for _ in range(k)]


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list:
    """Nested ``{D x {D}}`` form: one record per node, sinks included."""
    succ: dict[int, list[int]] = {u: [] for u in range(n)}
    for a, b in edges:
        succ[a].append(b)
    return [[u, sorted(vs)] for u, vs in sorted(succ.items())]
