"""Partially directed graphs and parity-constrained orientations.

A partially directed graph carries a set of undirected edges together with a
set of fixed arcs.  An orientation assigns a direction to every undirected
edge while keeping every fixed arc; the questions asked of it downstream are
acyclicity and in-degree parity ("odd exactly on a prescribed vertex set").

Vertices are opaque integers.  Display names, when any exist, live in label
tables outside this module.
"""

from __future__ import annotations

import functools
import gc
import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

Vertex = int
Edge = tuple[int, int]   # canonical form has lower id first
Arc = tuple[int, int]    # (tail, head)


class GraphError(ValueError):
    """Raised when a graph, problem, or orientation violates an invariant."""


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    return (u, v) if u <= v else (v, u)


def _gc_paused(func):
    """Run ``func`` with the cyclic garbage collector off, and turn it on
    again when the call returns or raises.

    For the calls that build instance-sized object graphs: each allocates
    enough container objects to trigger collections, yet leaves no cyclic
    garbage behind, so every collection inside it walks live objects for
    nothing.  Reference counting still frees everything as usual.  A call
    made while the collector is off, by the caller or by an enclosing
    paused call, goes straight through and leaves the setting alone.  The
    collector is process-wide, so other threads run without it too while a
    paused call is open.  It lives here because every module of the
    package may import this one.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class PartiallyDirectedGraph:
    """Simple graph with undirected edges and pre-directed arcs.

    ``build`` is the checked constructor, the instance reader's included:
    it canonicalizes edge tuples and rejects loops, parallel links, and
    dangling endpoints.  It checks with set operations and calls
    ``validate`` only to word an error.  The raw dataclass constructor
    performs no checks so that ``validate`` can be pointed at malformed
    data.
    """

    vertices: frozenset[Vertex]
    edges: frozenset[Edge]
    arcs: frozenset[Arc]

    @classmethod
    def build(
        cls,
        vertices: Iterable[Vertex],
        edges: Iterable[tuple[Vertex, Vertex]] = (),
        arcs: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> "PartiallyDirectedGraph":
        edges = [(u, v) if u <= v else (v, u) for u, v in edges]
        arcs = [(u, v) for u, v in arcs]
        graph = cls(
            vertices=frozenset(vertices),
            edges=frozenset(edges),
            arcs=frozenset(arcs),
        )
        arc_pairs = {(u, v) if u <= v else (v, u) for u, v in arcs}
        if (
            len(graph.edges) == len(edges)
            and len(graph.arcs) == len(arc_pairs) == len(arcs)
            and graph.edges.isdisjoint(arc_pairs)
            and not any(u == v for u, v in chain(edges, arcs))
            and graph.vertices.issuperset(chain.from_iterable(chain(edges, arcs)))
        ):
            return graph
        problems = validate(graph)
        for listed, kept in ((edges, graph.edges), (arcs, graph.arcs)):
            if len(kept) < len(listed):
                u, v = next(p for p, c in Counter(listed).items() if c > 1)
                problems.append(f"parallel links between {u} and {v}, listed twice")
        if problems:
            raise GraphError("; ".join(problems))
        return graph

    # -- structural accessors -------------------------------------------------

    def links(self) -> frozenset[tuple[Vertex, Vertex]]:
        """All links (edges in canonical form plus arcs as stored)."""
        return self.edges | self.arcs

    def undirected_pairs(self) -> set[Edge]:
        """Endpoint pairs of every link, canonicalized; ignores direction."""
        pairs = {canonical_edge(u, v) for u, v in self.edges}
        pairs |= {canonical_edge(u, v) for u, v in self.arcs}
        return pairs

    def adjacency(self) -> dict[Vertex, list[Vertex]]:
        """Underlying undirected adjacency over edges and arcs combined."""
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for u, v in self.arcs:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
        return adj

    def degree(self, v: Vertex) -> int:
        d = 0
        for a, b in self.edges:
            d += (a == v) + (b == v)
        for a, b in self.arcs:
            d += (a == v) + (b == v)
        return d


def validate(graph: PartiallyDirectedGraph) -> list[str]:
    """Report every invariant violation; an empty list means the graph is fine.

    Checks loops, parallel links (edge/edge, arc/arc in either direction, and
    edge/arc mixtures), and endpoints missing from the vertex set.
    """
    problems: list[str] = []
    seen_pairs: set[Edge] = set()
    for kind, sign, links in (("edge", "-", graph.edges), ("arc", "->", graph.arcs)):
        for u, v in sorted(links):
            if u == v:
                problems.append(f"loop at {u}")
                continue
            pair = canonical_edge(u, v)
            if pair in seen_pairs:
                problems.append(f"parallel links between {pair[0]} and {pair[1]}")
            seen_pairs.add(pair)
            for w in (u, v):
                if w not in graph.vertices:
                    problems.append(f"dangling endpoint {w} on {kind} {u}{sign}{v}")
    return problems


@dataclass(frozen=True)
class OrientationProblem:
    """A graph together with the set of vertices required to have odd in-degree."""

    graph: PartiallyDirectedGraph
    odd_set: frozenset[Vertex]

    @classmethod
    def build(
        cls,
        graph: PartiallyDirectedGraph,
        odd_set: Iterable[Vertex],
    ) -> "OrientationProblem":
        odd = frozenset(odd_set)
        stray = odd - graph.vertices
        if stray:
            raise GraphError(f"odd_set contains non-vertices: {sorted(stray)}")
        return cls(graph=graph, odd_set=odd)


@dataclass(frozen=True)
class Orientation:
    """A total direction choice, stored as the induced arc set.

    The arc set contains the graph's fixed arcs plus one directed copy of each
    undirected edge.  Two orientations are equal exactly when their arc sets
    are equal.
    """

    arcs: frozenset[Arc]

    @classmethod
    def of(
        cls, graph: PartiallyDirectedGraph, directed_edges: Iterable[Arc]
    ) -> "Orientation":
        chosen = list(directed_edges)
        covered: set[Edge] = set()
        for u, v in chosen:
            pair = canonical_edge(u, v)
            if pair not in graph.edges:
                raise GraphError(f"direction {u}->{v} does not match any edge")
            if pair in covered:
                raise GraphError(f"edge {pair} directed twice")
            covered.add(pair)
        missing = graph.edges - covered
        if missing:
            raise GraphError(f"undirected edges left over: {sorted(missing)[:4]}")
        return cls(arcs=frozenset(chosen) | graph.arcs)

    def directs(self, u: Vertex, v: Vertex) -> bool:
        return (u, v) in self.arcs

    def in_degrees(self, vertices: Iterable[Vertex]) -> dict[Vertex, int]:
        """The in-degree vector over ``vertices``: the number of arcs into
        each, whose parity the T-odd condition constrains (odd exactly on
        T)."""
        deg = {v: 0 for v in vertices}
        for _, h in self.arcs:
            if h in deg:
                deg[h] += 1
        return deg


def extends(graph: PartiallyDirectedGraph, orientation: Orientation) -> bool:
    """True when the orientation covers each edge once and keeps every arc.

    The arcs beyond the fixed ones must fall on the edges' endpoint pairs
    one to one: as many pairs as arcs, and those pairs are the edge set.
    """
    if not graph.arcs <= orientation.arcs:
        return False
    free = orientation.arcs - graph.arcs
    pairs = {(u, v) if u <= v else (v, u) for u, v in free}
    return len(pairs) == len(free) and pairs == graph.edges


# -- boundaries ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryView:
    """Links crossing a vertex set, split by kind and direction."""

    edge_boundary: frozenset[Edge]   # undirected crossers (empty if oriented)
    out_arcs: frozenset[Arc]         # tail inside, head outside
    in_arcs: frozenset[Arc]          # head inside, tail outside


def boundary(
    graph: PartiallyDirectedGraph,
    inside: Iterable[Vertex],
    orientation: Optional[Orientation] = None,
) -> BoundaryView:
    """Classify the links with exactly one endpoint in ``inside``.

    Without an orientation, undirected crossers land in ``edge_boundary``.
    With one, every crosser is classified by its direction, so
    ``edge_boundary`` is empty.
    """
    inner = set(inside)
    stray = inner - graph.vertices
    if stray:
        raise GraphError(f"boundary set contains non-vertices: {sorted(stray)}")
    edge_cross: set[Edge] = set()
    out_arcs: set[Arc] = set()
    in_arcs: set[Arc] = set()
    for u, v in graph.edges:
        if (u in inner) == (v in inner):
            continue
        if orientation is None:
            edge_cross.add(canonical_edge(u, v))
        else:
            tail, head = (u, v) if orientation.directs(u, v) else (v, u)
            if tail in inner:
                out_arcs.add((tail, head))
            else:
                in_arcs.add((tail, head))
    for tail, head in graph.arcs:
        if (tail in inner) == (head in inner):
            continue
        if tail in inner:
            out_arcs.add((tail, head))
        else:
            in_arcs.add((tail, head))
    return BoundaryView(frozenset(edge_cross), frozenset(out_arcs), frozenset(in_arcs))


def is_uniform(view: BoundaryView) -> bool:
    """A boundary is uniform when it has no undirected crossers and all arcs
    run the same way (all outward or all inward).  This is the boundary of
    a variable ring in the reduction: every orientation leaves it uniform,
    and its two directions store the variable's one bit."""
    if view.edge_boundary:
        return False
    return not view.out_arcs or not view.in_arcs


def gamma_subgraph(
    graph: PartiallyDirectedGraph, core: Iterable[Vertex]
) -> PartiallyDirectedGraph:
    """Subgraph induced by the links inside ``core`` plus its boundary links.

    This is the Γ of a gadget's vertex set in an assembled instance, the
    graph the gadget claims are made on; ``attach_stubs`` builds the same
    shape for a gadget on its own, one fresh outside vertex per boundary
    link.  The vertex set is ``core`` plus the external endpoints of
    boundary links; isolated core vertices are kept.
    """
    inner = set(core)
    stray = inner - graph.vertices
    if stray:
        raise GraphError(f"core set contains non-vertices: {sorted(stray)}")
    keep_edges: set[Edge] = set()
    keep_arcs: set[Arc] = set()
    verts = set(inner)
    for u, v in graph.edges:
        if u in inner or v in inner:
            keep_edges.add(canonical_edge(u, v))
            verts.update((u, v))
    for u, v in graph.arcs:
        if u in inner or v in inner:
            keep_arcs.add((u, v))
            verts.update((u, v))
    return PartiallyDirectedGraph(
        vertices=frozenset(verts),
        edges=frozenset(keep_edges),
        arcs=frozenset(keep_arcs),
    )


# -- acyclicity ---------------------------------------------------------------


@dataclass(frozen=True)
class AcyclicityReport:
    acyclic: bool
    order: Optional[tuple[Vertex, ...]] = None   # topological witness
    cycle: Optional[tuple[Vertex, ...]] = None   # directed cycle witness


def is_acyclic(arcs: Iterable[Arc]) -> AcyclicityReport:
    """Kahn's algorithm over the arc set; ties broken by ascending vertex id.

    Returns a topological order covering every arc endpoint when acyclic, or
    a directed cycle (vertex sequence, first vertex repeated implicitly) when
    not.
    """
    arc_list = list(arcs)
    out_adj: dict[Vertex, list[Vertex]] = {}
    in_deg: dict[Vertex, int] = {}
    for t, h in arc_list:
        out_adj.setdefault(t, []).append(h)
        in_deg[t] = in_deg.get(t, 0)
        in_deg[h] = in_deg.get(h, 0) + 1
    ready = [v for v, d in in_deg.items() if d == 0]
    heapq.heapify(ready)
    order: list[Vertex] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out_adj.get(v, ()):
            in_deg[w] -= 1
            if in_deg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) == len(in_deg):
        return AcyclicityReport(True, order=tuple(order))
    # every leftover vertex has an unresolved in-arc from another leftover
    # vertex, so walking backward along in-arcs must revisit a vertex
    leftover = {v for v, d in in_deg.items() if d > 0}
    in_adj: dict[Vertex, list[Vertex]] = {v: [] for v in leftover}
    for t, h in arc_list:
        if t in leftover and h in leftover:
            in_adj[h].append(t)
    seen: dict[Vertex, int] = {}
    path: list[Vertex] = []
    v = min(leftover)
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = min(in_adj[v])
    cycle = path[seen[v]:][::-1]   # reverse the backward walk
    shift = cycle.index(min(cycle))
    cycle = cycle[shift:] + cycle[:shift]
    return AcyclicityReport(False, cycle=tuple(cycle))


# -- parity -------------------------------------------------------------------


def is_T_odd_on(
    problem: OrientationProblem,
    orientation: Orientation,
    scope: Optional[Iterable[Vertex]] = None,
) -> bool:
    """Check the parity constraint on ``scope`` (default: every vertex).

    A vertex passes when its in-degree is odd exactly if it belongs to the
    problem's odd set, so the check compares the set of odd-in-degree heads
    with the odd set, both cut to the scope.
    """
    odd: set[Vertex] = set()
    for _, h in orientation.arcs:
        if h in odd:
            odd.remove(h)
        else:
            odd.add(h)
    scoped = problem.graph.vertices if scope is None else set(scope)
    return odd & scoped == problem.odd_set & scoped


def parity_feasible(problem: OrientationProblem) -> bool:
    """Necessary parity condition: |E| + |A| + |odd_set| must be even.

    Each link contributes exactly one to the total in-degree, so the sum of
    in-degrees is |E| + |A|; the odd-set size must match its parity.
    """
    g = problem.graph
    return (len(g.edges) + len(g.arcs) + len(problem.odd_set)) % 2 == 0


def flip_all(orientation: Orientation) -> Orientation:
    """Reverse every arc.  Acyclicity is preserved and each in-degree becomes
    degree minus the old in-degree; the result extends the reversed fixed
    arcs, so it is an orientation of the reversed graph.  This is the final
    flip of the T=∅ normalization, which ``NormalizeBackMap.restore`` undoes
    first."""
    return Orientation(arcs=frozenset((h, t) for t, h in orientation.arcs))


def reverse_graph(graph: PartiallyDirectedGraph) -> PartiallyDirectedGraph:
    return PartiallyDirectedGraph(
        vertices=graph.vertices,
        edges=graph.edges,
        arcs=frozenset((h, t) for t, h in graph.arcs),
    )
