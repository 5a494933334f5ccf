"""Decision procedures for acyclic T-odd orientation.

Three solvers with one contract ("is there an acyclic orientation, extending
the fixed arcs, whose odd-in-degree set is exactly the requested one?"):

* ``enumerate``      exhaustive oracle over all 2^k edge directions; it
                     generates only the solutions of the parity constraints
                     (an affine space over GF(2)) and checks their
                     acyclicity bit-sliced, one solution to a bit of a
                     Python int, by peeling sinks with int-wide AND/OR,
* ``solve_tree`` and ``solve_degree_two``
                     one linear pass over an integer index for forests and
                     max-degree-2 graphs: fixed arcs only shift the parity
                     their heads owe, undirected edges are peeled from the
                     leaves, and each cycle of edges is cut at its lowest
                     vertex first; the two names differ only in the graph
                     class they accept,
* ``solve_exact``    a parity tally per edge component, exact on its own,
                     then complete search with parity and cycle propagation,
                     conflict-directed backjumping and learned nogoods,

plus ``decide`` (dispatcher) and the two instance transforms
(``apex_transform``, ``normalize_empty_T``).

``decide`` builds one integer index of the problem per call (``_Index``:
vertices in ascending label order, edges and fixed arcs as two lists of
position pairs, link counts).  Its class tests, the linear pass, the exact
search's components and the witness check all read that index, and the
index lives only for the call.  Every feasible answer passes
``_check_witness`` on the index before it is returned.

The code lives in four modules, split along what judges what:

* ``oddorient.oracle``  ``enumerate`` and its sweep, with ``BudgetError``;
* ``oddorient.core``    the decision contract (``SolveResult`` and its
                        statuses), the index, ``_split`` and
                        ``_check_witness``;
* ``oddorient.search``  the exact search, ``solve_exact``;
* ``oddorient.solver``  this module: the linear pass, ``decide`` and the
                        transforms.

``oracle`` and ``core`` import nothing of the package but ``pdgraph``, so
neither the oracle that judges the search nor the check that every feasible
answer passes can reach search code; ``search`` imports only ``core`` and
``pdgraph``.  This module re-exports the public names of the other three,
so callers import every decider and its types from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from oddorient.core import (
    ABORTED,
    FEASIBLE,
    INFEASIBLE,
    _PARITY_REFUSAL,
    SolveResult,
    _check_witness,
    _Index,
    _is_forest,
    _orientation,
    max_degree,
    underlying_is_forest,
)
from oddorient.oracle import BudgetError, EnumerationReport, enumerate
from oddorient.pdgraph import (
    Arc,
    Edge,
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    Vertex,
    _gc_paused,
    canonical_edge,
    flip_all,
    parity_feasible,
    reverse_graph,
)
from oddorient.search import _solve_exact, solve_exact


class NormalizeError(GraphError):
    """Raised when the T=∅ normalization cannot be applied."""

    def __init__(self, message: str, vertex: Optional[Vertex] = None):
        super().__init__(message)
        self.vertex = vertex


# -- forests and max-degree-2 graphs ---------------------------------------------


def solve_tree(problem: OrientationProblem) -> SolveResult:
    """Solve a forest (links acyclic, direction ignored) by the linear pass
    ``decide`` also uses; any other graph raises ``GraphError``.

    On a forest the T-odd orientation is unique when it exists, and any
    orientation of a forest is acyclic, so peeling the edges from the leaves
    alone decides it.
    """
    ix = _Index(problem.graph)
    if not _is_forest(ix):
        raise GraphError("solve_tree requires a forest (underlying links acyclic)")
    return _solve_sparse(problem, ix)


def solve_degree_two(problem: OrientationProblem) -> SolveResult:
    """Solve a graph of maximum degree 2 (paths and cycles) by the linear
    pass ``decide`` also uses; any other graph raises ``GraphError``.  The
    edges form paths, which peel as in a forest, and cycles; each cycle of
    edges is cut at its lowest vertex and then peels like a path.  The
    reverse of its parity orientation is the only other one, and is cyclic
    exactly when it is, so the pass is exact."""
    ix = _Index(problem.graph)
    if max(ix.deg, default=0) > 2:
        raise GraphError("solve_degree_two requires maximum degree 2")
    return _solve_sparse(problem, ix)


def _solve_sparse(problem: OrientationProblem, ix: _Index) -> SolveResult:
    """One linear pass for a forest or a graph of maximum degree 2, over the
    problem's index, whose ``edges`` are numbered by their position there.

    A fixed arc only flips the parity its head still owes; the pass peels
    undirected edges alone.  A vertex with one edge left takes it in when it
    owes odd in-degree and sends it out otherwise.  A cycle of edges, which
    has no such vertex, is cut at its lowest vertex c: the edge toward c's
    lower neighbour points at c, and the rest peels like a path.  Each edge
    component thus ends at one vertex with no edge left, which still owes
    exactly when the component's edges, fixed arcs into it and odd vertices
    add up odd.  A connected edge set meets every parity demand whose sum
    matches its edge count (Chevalier, Jaeger, Payan and Xuong 1983), so a
    vertex left owing is the one parity exit, exact per edge component.

    The parity orientation found is unique, except that a cycle of edges
    has a second one, its reverse; the reverse of a directed cycle is one
    too.  So the witness check's acyclicity verdict is the answer.
    ``propagations`` counts the edges oriented by a parity demand: every
    edge but the one cut from each cycle, or none on a parity refusal.
    """
    labels, edges = ix.labels, ix.edges
    n = len(labels)
    owe = [v in problem.odd_set for v in labels]   # odd in-degree still owed
    for _, h in ix.arcs:
        owe[h] = not owe[h]
    # The edges at a vertex are kept as their count, the XOR of their ids and
    # one of them: with one edge left the XOR is its id.
    deg, xor, one = [0] * n, [0] * n, [0] * n
    for li, (a, b) in zip(range(len(edges)), edges):
        deg[a] += 1
        deg[b] += 1
        xor[a] ^= li
        xor[b] ^= li
        one[a] = one[b] = li
    arcs = edges[:]   # the (tail, head) chosen for each edge

    steps = 0
    ready = [v for v in range(n) if deg[v] == 1]
    for c in range(n + 1):
        while ready:
            v = ready.pop()
            if deg[v] != 1:
                continue
            li = xor[v]
            a, b = edges[li]
            u = a + b - v
            head = v if owe[v] else u
            arcs[li] = (a + b - head, head)
            owe[head] = not owe[head]
            steps += 1
            deg[v] = 0
            deg[u] -= 1
            xor[u] ^= li
            if deg[u] == 1:
                ready.append(u)
        if c < n and deg[c] == 2:
            # the trees and every lower cycle are peeled, so c is the lowest
            # vertex of a cycle of edges; c is an end of both its edges
            li = one[c]
            if sum(edges[xor[c] ^ li]) < sum(edges[li]):
                li ^= xor[c]
            u = sum(edges[li]) - c
            arcs[li] = (u, c)
            owe[c] = not owe[c]
            deg[c] = deg[u] = 1
            xor[c] ^= li
            xor[u] ^= li
            ready = [c, u]

    if True in owe:
        detail = _PARITY_REFUSAL.format(labels[owe.index(True)])
        return SolveResult(INFEASIBLE, detail=detail)
    if not _check_witness(ix, arcs, problem.odd_set):
        return SolveResult(
            INFEASIBLE,
            propagations=steps,
            detail="every T-odd orientation holds a directed cycle",
        )
    return SolveResult(
        FEASIBLE, witness=_orientation(ix, arcs, problem.graph), propagations=steps
    )


@_gc_paused
def decide(problem: OrientationProblem, *, budget: int = 10_000_000) -> SolveResult:
    """Dispatcher over one integer index of the problem.  On a graph of
    maximum degree 2 or a forest it runs the linear pass behind
    ``solve_tree`` and ``solve_degree_two``, else ``solve_exact`` within
    ``budget`` decisions.  Both settle parity exactly per edge component
    before anything else can fail (the pass at its one parity exit, the
    search before it branches), so an odd |E|+|A|+|T| needs no gate of its
    own; either witness is checked on the same index."""
    ix = _Index(problem.graph)
    if max(ix.deg, default=0) <= 2 or _is_forest(ix):
        return _solve_sparse(problem, ix)
    return _solve_exact(problem, ix, budget)


# -- apex transform -----------------------------------------------------------------


def apex_transform(problem: OrientationProblem) -> OrientationProblem:
    """Join one new apex vertex to every vertex outside the odd set; the
    transformed instance demands odd in-degree at every original vertex.

    The input must be all-undirected.  The apex is the only vertex of the
    result allowed even in-degree.
    """
    g = problem.graph
    if g.arcs:
        raise GraphError("apex transform requires an all-undirected instance")
    apex = max(g.vertices) + 1 if g.vertices else 0
    new_edges = set(g.edges)
    for v in g.vertices - problem.odd_set:
        new_edges.add(canonical_edge(apex, v))
    g2 = PartiallyDirectedGraph(
        vertices=g.vertices | {apex},
        edges=frozenset(new_edges),
        arcs=frozenset(),
    )
    return OrientationProblem(graph=g2, odd_set=g.vertices)


def apex_feasible_variant(
    problem: OrientationProblem, *, budget: int = 10_000_000
) -> SolveResult:
    """Alternative reading of the apex equivalence: the transformed graph is
    feasible if SOME vertex w can serve as the unique even one.  Tries every
    w in ascending order and reports the first feasible choice.  Each
    choice leaves one vertex out of the odd set, so all share one
    |E|+|A|+|T|, and an odd total is one exit before the loop."""
    g2 = apex_transform(problem).graph
    order = sorted(g2.vertices)
    last = SolveResult(INFEASIBLE, detail="no vertex admits an all-but-one odd set")
    if not parity_feasible(OrientationProblem(g2, g2.vertices - {order[0]})):
        return last
    for w in order:
        outcome = decide(
            OrientationProblem(g2, g2.vertices - {w}), budget=budget
        )
        if outcome.feasible:
            return replace(outcome, detail=f"feasible with even vertex {w}")
        if outcome.status == ABORTED:
            return outcome
    return last


# -- T = ∅ normalization ---------------------------------------------------------------


@dataclass(frozen=True)
class ContractionStep:
    """One degree-2 vertex replaced by a single link between its neighbors."""

    vertex: Vertex
    left: Vertex
    right: Vertex


@dataclass(frozen=True)
class NormalizeBackMap:
    """Replays a witness of the normalized instance back onto the original.

    Restoration first reverses every arc (undoing the final flip), then
    expands the contractions newest-first: the direction of each merged link
    determines the pass-through directions of the two links it replaced.
    """

    steps: tuple[ContractionStep, ...]

    def restore(self, orientation: Orientation) -> Orientation:
        arcs = set(flip_all(orientation).arcs)
        for step in self.steps[::-1]:
            a, b, v = step.left, step.right, step.vertex
            if (a, b) in arcs:
                arcs.remove((a, b))
                arcs.add((a, v))
                arcs.add((v, b))
            elif (b, a) in arcs:
                arcs.remove((b, a))
                arcs.add((b, v))
                arcs.add((v, a))
            else:
                raise GraphError(
                    f"witness does not cover the merged link {a}-{b}"
                )
        return Orientation(arcs=frozenset(arcs))


def normalize_empty_T(
    problem: OrientationProblem,
) -> tuple[OrientationProblem, NormalizeBackMap]:
    """Rewrite an instance into an equivalent one with an empty odd set.

    Degree-2 vertices of the odd set are contracted away in ascending id
    order (each must pass its single in-arc through, so its two links merge
    into one).  The surviving odd set must then coincide with the odd-degree
    vertex set, at which point reversing every fixed arc yields an instance
    whose T-odd orientations are exactly the flips of the original's: the
    returned problem has odd_set = ∅ and the back-map restores witnesses.

    The links are kept in a dict with a neighbour set per vertex, not in an
    ``_Index``: each contraction rewrites the graph, merging two links into
    one and dropping a vertex, and an index is a fixed view of one graph.
    The neighbour map holds all the rest: its keys are the survivors, and
    on a simple graph a survivor's degree is the size of its set, since a
    contraction refuses a parallel link and so keeps every other vertex's
    degree.  The odd set left is the odd set minus the contracted vertices.
    """
    g = problem.graph
    links: dict[Edge, Optional[Arc]] = {}
    for u, v in g.edges:
        links[canonical_edge(u, v)] = None
    for t, h in g.arcs:
        links[canonical_edge(t, h)] = (t, h)
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in g.vertices}
    for u, v in links:
        adj[u].add(v)
        adj[v].add(u)

    steps: list[ContractionStep] = []
    for v in sorted(problem.odd_set):
        if len(adj[v]) != 2:
            continue
        a, b = sorted(adj.pop(v))
        pair = canonical_edge(a, b)
        if pair in links:
            raise NormalizeError(
                f"contracting {v} would create a parallel link {a}-{b}", vertex=v
            )
        la = links.pop(canonical_edge(a, v))
        lb = links.pop(canonical_edge(v, b))
        # the through-direction of each fixed link, True for a -> v -> b: v
        # passes its single in-arc through, so fixed links must agree on it
        through = {arc in ((a, v), (v, b)) for arc in (la, lb) if arc is not None}
        if len(through) == 2:
            raise NormalizeError(
                f"arcs at {v} do not compose (both point "
                f"{'in' if la[1] == v else 'out'})",
                vertex=v,
            )
        merged = None
        if through:
            merged = (a, b) if through.pop() else (b, a)
        links[pair] = merged
        adj[a].remove(v)
        adj[a].add(b)
        adj[b].remove(v)
        adj[b].add(a)
        steps.append(ContractionStep(vertex=v, left=a, right=b))

    odd_left = problem.odd_set.difference(step.vertex for step in steps)
    odd_degree = {v for v, nbrs in adj.items() if len(nbrs) % 2}
    if odd_left != odd_degree:
        off = sorted(odd_left ^ odd_degree)
        raise NormalizeError(
            "after contraction the odd set must equal the odd-degree set "
            f"(mismatch at {off[:4]})",
            vertex=off[0],
        )

    contracted = PartiallyDirectedGraph(
        vertices=frozenset(adj),
        edges=frozenset(p for p, d in links.items() if d is None),
        arcs=frozenset(d for d in links.values() if d is not None),
    )
    normalized = OrientationProblem(
        graph=reverse_graph(contracted), odd_set=frozenset()
    )
    return normalized, NormalizeBackMap(steps=tuple(steps))
