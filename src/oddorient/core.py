"""The decision contract and the integer index every decider reads.

``SolveResult`` and its three statuses are what every decider answers.
``_Index`` numbers the vertices and links of one graph; ``_split`` cuts an
index into the connected components the exact search takes one at a time,
settling parity per edge component on the way; and ``_check_witness``
checks every feasible answer on the index before it is returned.

The witness check must not trust the search it checks, so this module
imports nothing of the package but ``pdgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

from oddorient.pdgraph import Orientation, PartiallyDirectedGraph, Vertex

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
ABORTED = "aborted"

# the detail of an infeasible answer for parity, exact per edge component
_PARITY_REFUSAL = "parity cannot be met in the edge component of vertex {}"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a decision procedure.

    ``status`` is one of feasible / infeasible / aborted.  A feasible result
    carries a witness that passes is_acyclic and is_T_odd_on.  A solver
    stops at its first solution; ``enumerate`` is the one that counts them.
    ``propagations`` counts forced steps.  In the linear pass these are the
    edges oriented by a parity demand: every edge but the one cut from each
    cycle of edges.  In the exact search they are the arcs a rule forced and
    applied, decisions excluded, including those a backtrack later undid and
    those a learned nogood forced; its probe applies no arc, so a direction
    it only tests counts nothing.  A parity refusal, which rests on one
    edge component's tally, reports no decisions and no propagations.
    """

    status: str
    witness: Optional[Orientation] = None
    decisions: int = 0
    propagations: int = 0
    detail: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE



# -- the integer index ------------------------------------------------------------


class _Index:
    """One integer view of a graph, built once per solve and read by every
    branch of ``decide`` and by its witness check.

    ``labels`` lists the vertices in ascending order; a vertex is known by
    its position there, so positions compare as labels do.  ``edges``
    holds the position pair of every edge in the graph's set order, and
    ``arcs`` the (tail, head) pair of every fixed arc.  ``deg`` counts the
    links at each vertex.
    """

    __slots__ = ("labels", "edges", "arcs", "deg")

    def __init__(self, graph: PartiallyDirectedGraph):
        self.labels = labels = sorted(graph.vertices)
        at = dict(zip(labels, range(len(labels))))
        self.edges = edges = [(at[u], at[v]) for u, v in graph.edges]
        self.arcs = arcs = [(at[t], at[h]) for t, h in graph.arcs]
        self.deg = deg = [0] * len(labels)
        for a, b in chain(edges, arcs):
            deg[a] += 1
            deg[b] += 1


def _union(root: list[int], links: Iterable[tuple[int, int]]) -> bool:
    """Merge the two ends of each link in the union-find ``root``, then
    point every vertex at its root; whether some link joined two vertices
    already connected.  Path halving; a merge keeps the lower root, so a
    root is the lowest vertex of its set and ``root[v] <= v`` throughout."""
    cyclic = False
    for u, v in links:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u < v:
            root[v] = u
        elif v < u:
            root[u] = v
        else:
            cyclic = True
    for v in range(len(root)):
        # root[v] <= v, so root[root[v]] is already final
        root[v] = root[root[v]]
    return cyclic


def _is_forest(ix: _Index) -> bool:
    """True when the links together (direction ignored) contain no cycle."""
    if len(ix.edges) + len(ix.arcs) >= len(ix.labels) > 0:
        return False   # a forest has fewer links than vertices
    return not _union(list(range(len(ix.labels))), chain(ix.edges, ix.arcs))


def underlying_is_forest(graph: PartiallyDirectedGraph) -> bool:
    """True when edges and arcs together (direction ignored) contain no cycle."""
    return _is_forest(_Index(graph))


def max_degree(graph: PartiallyDirectedGraph) -> int:
    """The most links (edges and arcs) at one vertex; 0 without links."""
    return max(_Index(graph).deg, default=0)


class _Part(NamedTuple):
    """One connected component of an index: its vertices as index positions,
    ascending (a range over all of them for a connected index); the link ids
    of its edges in ascending order of their ends; and its edges and fixed
    arcs as position pairs within ``verts``."""

    verts: Sequence[int]
    edge_ids: list[int]
    ends: list[tuple[int, int]]
    arcs: list[tuple[int, int]]


def _split(ix: _Index, target: list[bool]) -> tuple[list[_Part], int]:
    """The connected components of the links (direction ignored), in
    ascending order of their lowest vertex, and -1; or no parts and the
    lowest vertex of an edge component whose parity cannot be met, where
    ``target`` flags each vertex odd.

    This is where the exact branch settles parity, in the one union-find
    that splits.  The edges are merged first: a connected edge set meets
    every parity demand whose sum matches its edge count (Chevalier, Jaeger,
    Payan and Xuong 1983), so an edge component C has a parity orientation
    iff |E(C)| + (fixed arcs into C) + |T ∩ C| is even, and each root tallies
    that sum.  The fixed arcs, merged next, join edge components into the
    parts searched.  A connected index is its one part, in place: its
    positions stay, and only its edges are sorted."""
    edges, arcs, n = ix.edges, ix.arcs, len(ix.labels)
    root = list(range(n))
    _union(root, edges)
    odd = [0] * n
    for r, t in zip(root, target):
        if t:
            odd[r] ^= 1
    for a, _ in edges:
        odd[root[a]] ^= 1
    for _, h in arcs:
        odd[root[h]] ^= 1
    if 1 in odd:
        return [], odd.index(1)
    _union(root, arcs)
    # ascending order of the edges' ends, (a, b) keyed as the int a * n + b
    ids = sorted(range(len(edges)), key=[a * n + b for a, b in edges].__getitem__)
    if not any(root):
        return [_Part(range(n), ids, [edges[i] for i in ids], arcs)], -1
    pos = [0] * n       # a vertex's position in its part
    part_at = [0] * n   # a lowest vertex's part
    parts: list[_Part] = []
    for v, r in zip(range(n), root):
        if r == v:
            part_at[v] = len(parts)
            parts.append(_Part([v], [], [], []))
        else:
            verts = parts[part_at[r]].verts
            pos[v] = len(verts)
            verts.append(v)
    for i in ids:
        a, b = edges[i]
        part = parts[part_at[root[a]]]
        part.edge_ids.append(i)
        part.ends.append((pos[a], pos[b]))
    for t, h in arcs:
        parts[part_at[root[t]]].arcs.append((pos[t], pos[h]))
    return parts, -1


def _check_witness(
    ix: _Index, arcs: list[tuple[int, int]], odd_set: frozenset[Vertex]
) -> bool:
    """Whether ``arcs``, one (tail, head) position pair per edge of ``ix``
    in link order, leave no directed cycle together with the fixed arcs.
    Raise RuntimeError unless they orient each edge along its own two ends
    and give odd in-degree exactly at the vertices of ``odd_set``.

    Linear time: one pass over the links counts in-degrees, and Kahn's
    count (CACM 1962) peels every vertex exactly when the arcs are acyclic.
    Solvers hand back a witness only when the verdict is True: the exact
    search raises on False, and the linear pass answers infeasible, since
    its witness is acyclic when any parity orientation is.
    """
    labels = ix.labels
    n = len(labels)
    if len(arcs) != len(ix.edges):
        raise RuntimeError("solver produced a witness that misses an edge")
    for (t, h), (a, b) in zip(arcs, ix.edges):
        if t + h != a + b or (t != a and t != b):
            raise RuntimeError(
                f"solver produced an arc {labels[t]}->{labels[h]} on no edge"
            )
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for t, h in chain(arcs, ix.arcs):
        out[t].append(h)
        indeg[h] += 1
    left = indeg[:]
    stack = [v for v in range(n) if not left[v]]
    peeled = 0
    while stack:
        peeled += 1
        for w in out[stack.pop()]:
            left[w] -= 1
            if not left[w]:
                stack.append(w)
    for d, label in zip(indeg, labels):
        if (d & 1) != (label in odd_set):
            raise RuntimeError("solver produced a parity-violating witness")
    return peeled == n


def _orientation(
    ix: _Index, arcs: list[tuple[int, int]], graph: PartiallyDirectedGraph
) -> Orientation:
    """The checked edge directions ``arcs`` plus the fixed arcs, by label."""
    labels = ix.labels
    chosen = frozenset([(labels[t], labels[h]) for t, h in arcs])
    return Orientation(arcs=chosen | graph.arcs)

