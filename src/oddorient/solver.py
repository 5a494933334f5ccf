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
vertices in ascending label order, link end pairs, link counts).  Its class
tests, the linear pass, the exact search's components and the witness
check all read that index, and the index lives only for the call.  Every
feasible answer passes ``_check_witness`` on the index before it is
returned.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from oddorient.pdgraph import (
    Arc,
    Edge,
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    Vertex,
    canonical_edge,
    flip_all,
    is_acyclic,
    parity_feasible,
    reverse_graph,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
ABORTED = "aborted"

# the detail of an infeasible answer for parity, exact per edge component
_PARITY_REFUSAL = "parity cannot be met in the edge component of vertex {}"


class BudgetError(RuntimeError):
    """Raised when an exhaustive operation would exceed its configured budget."""


class NormalizeError(GraphError):
    """Raised when the T=∅ normalization cannot be applied."""

    def __init__(self, message: str, vertex: Optional[Vertex] = None):
        super().__init__(message)
        self.vertex = vertex


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


@dataclass(frozen=True)
class EnumerationReport:
    """Exhaustive count of orientations matching the parity constraint on the
    requested scope (and acyclicity unless waived)."""

    total_valid: int
    witnesses: tuple[Orientation, ...]
    explored: int


# -- exhaustive oracle ----------------------------------------------------------

# A block of the bit-sliced sweep holds 2**_BLOCK_BITS parity solutions, one
# to a bit of a Python int, so each int operation covers 8 KB and the
# interpreter is paid once per 65,536 solutions; of 12 to 18 bits, 16 and 17
# swept d = 25 and 26 fastest.  A smaller space is swept in one block.
_BLOCK_BITS = 16


def enumerate(
    problem: OrientationProblem,
    scope: Optional[Iterable[Vertex]] = None,
    witness_cap: Optional[int] = 16,
    *,
    require_acyclic: bool = True,
    max_edges: int = 26,
) -> EnumerationReport:
    """Count the orientations of the k undirected edges that meet the parity
    constraint on ``scope`` (default: every vertex) and, unless
    ``require_acyclic=False``, are acyclic together with the fixed arcs.

    The sweep covers all 2^k direction choices, and ``explored`` is that
    2^k: it counts the choices covered, not the masks touched.  Only the
    parity solutions are generated, as an affine space over GF(2) of some
    dimension d, so the sweep touches 2^d of them.  Their acyclicity is
    checked bit-sliced in blocks of 2**_BLOCK_BITS solutions: bit r of a
    block's int stands for solution first + r, each edge direction is one
    such int, and sinks are peeled from a whole block per int operation.  With
    ``require_acyclic=False`` the count ignores directed cycles, which is
    how per-class completion counts are measured.  Witnesses come in
    ascending mask order (bit i set means ``sorted(edges)[i]`` runs from its
    first to its second endpoint), at most ``witness_cap`` of them (None =
    all).

    Raises BudgetError when d exceeds ``max_edges``; a partial count is
    never returned.  Raises ValueError on a negative ``witness_cap`` or
    ``max_edges``.
    """
    if witness_cap is not None and witness_cap < 0:
        raise ValueError(f"witness_cap must be None or non-negative, got {witness_cap}")
    if max_edges < 0:
        raise ValueError(f"max_edges must be non-negative, got {max_edges}")
    g = problem.graph
    edge_list = sorted(g.edges)
    k = len(edge_list)
    if scope is None:
        scoped = sorted(g.vertices)
    else:
        scoped = sorted(set(scope))
        stray = set(scoped) - g.vertices
        if stray:
            raise GraphError(f"scope contains non-vertices: {sorted(stray)}")

    explored = 1 << k
    space = _parity_space(problem, edge_list, scoped)
    order = is_acyclic(g.arcs).order if require_acyclic else ()
    if space is None or order is None:
        return EnumerationReport(total_valid=0, witnesses=(), explored=explored)
    offset, basis = space
    d = len(basis)
    if d > max_edges:
        raise BudgetError(
            f"enumeration over a 2**{d} parity space exceeds the 2**{max_edges} budget"
        )

    def orientation(c: int) -> Orientation:
        # solution c of the counter order: offset ^ XOR(basis[j] for bit j of c)
        m = offset
        for j in _bits(c):
            m ^= basis[j]
        chosen = [
            edge_list[i] if (m >> i) & 1 else (edge_list[i][1], edge_list[i][0])
            for i in range(k)
        ]
        return Orientation(arcs=frozenset(chosen) | g.arcs)

    if not require_acyclic:
        shown = 1 << d if witness_cap is None else min(witness_cap, 1 << d)
        return EnumerationReport(
            total_valid=1 << d,
            witnesses=tuple(orientation(c) for c in range(shown)),
            explored=explored,
        )

    total_valid = 0
    witnesses: list[Orientation] = []
    for first, ok in _acyclic_blocks(g.arcs, order, edge_list, offset, basis):
        total_valid += ok.bit_count()
        room = None if witness_cap is None else witness_cap - len(witnesses)
        witnesses += [orientation(first + r) for r in islice(_bits(ok), room)]
    return EnumerationReport(
        total_valid=total_valid, witnesses=tuple(witnesses), explored=explored
    )


def _parity_space(
    problem: OrientationProblem, edge_list: list[Edge], scoped: list[Vertex]
) -> Optional[tuple[int, list[int]]]:
    """The masks meeting the parity constraint on ``scoped``, as an affine
    space over GF(2): ``(offset, basis)`` with one basis vector per free edge,
    ascending, or None when the constraints are inconsistent.

    Each scoped vertex gives one row: the bitset of its incident edges and the
    parity its in-degree from them must have.  Gauss–Jordan elimination pivots
    each row on its lowest set bit, so a pivot bit depends only on free bits
    above it and each basis vector's highest bit is its free edge.  Hence
    ``offset ^ XOR(basis[j] for j in c)`` over counters c = 0, 1, ... runs
    through the solutions in ascending mask order.
    """
    row = {v: 0 for v in scoped}
    rhs = {v: int(v in problem.odd_set) for v in scoped}
    for bit, (u, v) in zip(range(len(edge_list)), edge_list):
        # bit set: u -> v, so v gains an in-arc; bit clear: u gains one
        if u in row:
            row[u] |= 1 << bit
            rhs[u] ^= 1
        if v in row:
            row[v] |= 1 << bit
    for _, h in problem.graph.arcs:
        if h in rhs:
            rhs[h] ^= 1

    pivots: dict[int, tuple[int, int]] = {}   # lowest bit -> (row, rhs)
    for v in scoped:
        r, c = row[v], rhs[v]
        for low, (pr, pc) in pivots.items():
            if r & low:
                r ^= pr
                c ^= pc
        if not r:
            if c:
                return None
            continue
        low = r & -r
        for plow, (pr, pc) in pivots.items():
            if pr & low:
                pivots[plow] = (pr ^ r, pc ^ c)
        pivots[low] = (r, c)

    offset = 0
    for low, (_, c) in pivots.items():
        if c:
            offset |= low
    basis = []
    for bit in range(len(edge_list)):
        free = 1 << bit
        if free in pivots:
            continue
        vec = free
        for low, (r, _) in pivots.items():
            if r & free:
                vec |= low
        basis.append(vec)
    return offset, basis


def _acyclic_blocks(
    arcs: frozenset[Arc],
    order: tuple[Vertex, ...],
    edge_list: list[Edge],
    offset: int,
    basis: list[int],
) -> Iterator[tuple[int, int]]:
    """Which parity solutions orient the edges acyclically, given acyclic
    fixed arcs, as ``(first, ok)`` blocks: bit r of ``ok`` is set when
    solution first + r of the counter order is acyclic.

    Every cycle passes through edge endpoints ("terminals"), so each
    solution is checked on a graph over the terminals alone: the first
    terminals each one meets along fixed arcs, plus its edges in their
    solved directions.  Bit-sliced, ``live[a]`` holds per solution whether
    terminal a is still unpeeled, and the slice of a pair (a, b) holds
    whether a -> b is an arc.  A sweep keeps a where some pair's slice and
    b's live bits are both set; sweeps run until nothing changes, and a
    solution is acyclic when no terminal is left in it.
    """
    d = len(basis)
    b = min(d, _BLOCK_BITS)
    ones = (1 << (1 << b)) - 1
    pats = _counter_bits(b)
    # Edge i runs forward in solution c = first + r when bit i of the offset
    # ⊕ parity(c & col_i) is 1, col_i being column i of the basis: its low b
    # bits give a fixed pattern over r, the rest a parity over q = first >> b.
    k = len(edge_list)
    low = [ones if (offset >> i) & 1 else 0 for i in range(k)]
    high = [0] * k
    for j, vec in zip(range(d), basis):
        for i in _bits(vec):
            if j < b:
                low[i] ^= pats[j]
            else:
                high[i] |= 1 << (j - b)
    terminals = sorted({x for e in edge_list for x in e})
    tidx = {v: i for i, v in zip(range(len(terminals)), terminals)}
    # (head, slice) per successor pair, the slice an index into the block's
    # edge slices: i forward, k + i backward, 2k the all-ones of a fixed pair
    succ: list[list[tuple[int, int]]] = [[] for _ in terminals]
    for a, h in _fixed_reach(arcs, order, tidx):
        succ[a].append((h, 2 * k))
    for i, (u, v) in zip(range(k), edge_list):
        succ[tidx[u]].append((tidx[v], i))
        succ[tidx[v]].append((tidx[u], k + i))

    for q in range(1 << (d - b)):
        fwd = [lo ^ ones if (q & hi).bit_count() & 1 else lo for lo, hi in zip(low, high)]
        slices = fwd + [f ^ ones for f in fwd] + [ones]
        pairs = [[(h, slices[s]) for h, s in out] for out in succ]
        live = [ones] * len(terminals)
        while True:
            before = live[:]
            for a, out in zip(range(len(terminals)), pairs):
                y = 0
                for h, s in out:
                    y |= s & live[h]
                live[a] &= y
            if live == before:
                break
        left = 0
        for x in live:
            left |= x
        yield q << b, left ^ ones


def _counter_bits(b: int) -> list[int]:
    """Bit r of pattern j is bit j of r, for the 2**b counters r of a block.
    From all ones, each pattern is the one above it XORed with itself
    shifted down by 2**j: the top half, then alternate quarters, and so on."""
    pats = [0] * b
    p = (1 << (1 << b)) - 1
    for j in reversed(range(b)):
        p ^= p >> (1 << j)
        pats[j] = p
    return pats


def _fixed_reach(
    arcs: Iterable[Arc], order: tuple[Vertex, ...], tidx: dict[Vertex, int]
) -> list[tuple[int, int]]:
    """The pairs (a, b) of terminal indices where a reaches b over one or
    more fixed arcs with no terminal inside the path; every terminal that a
    reaches over fixed arcs is reached through these.  ``order`` is a
    topological order of the arcs."""
    succ: dict[Vertex, list[Vertex]] = {}
    for t, h in arcs:
        succ.setdefault(t, []).append(h)
    reach: dict[Vertex, int] = {}
    for x in reversed(order):
        r = 0
        for y in succ.get(x, ()):
            r |= 1 << tidx[y] if y in tidx else reach[y]
        reach[x] = r
    return [(a, b) for v, a in tidx.items() for b in _bits(reach.get(v, 0))]


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# -- the integer index ------------------------------------------------------------


class _Index:
    """One integer view of a graph, built once per solve and read by every
    branch of ``decide`` and by its witness check.

    ``labels`` lists the vertices in ascending order; a vertex is known by
    its position there, so positions compare as labels do.  ``ends`` holds
    the position pair of every link, the ``k`` edges first in the graph's
    set order and then the fixed arcs as (tail, head).  ``deg`` counts the
    links at each vertex.
    """

    __slots__ = ("labels", "ends", "k", "deg")

    def __init__(self, graph: PartiallyDirectedGraph):
        self.labels = labels = sorted(graph.vertices)
        at = dict(zip(labels, range(len(labels))))
        self.ends = ends = [(at[u], at[v]) for u, v in graph.edges]
        self.k = len(ends)
        ends += [(at[t], at[h]) for t, h in graph.arcs]
        self.deg = deg = [0] * len(labels)
        for a, b in ends:
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
    if len(ix.ends) >= len(ix.labels) > 0:
        return False   # a forest has fewer links than vertices
    return not _union(list(range(len(ix.labels))), ix.ends)


def underlying_is_forest(graph: PartiallyDirectedGraph) -> bool:
    """True when edges and arcs together (direction ignored) contain no cycle."""
    if len(graph.edges) + len(graph.arcs) >= len(graph.vertices) > 0:
        return False   # as in _is_forest, before any index is built
    return _is_forest(_Index(graph))


def max_degree(graph: PartiallyDirectedGraph) -> int:
    """The most links (edges and arcs) at one vertex; 0 without links."""
    deg = Counter(chain.from_iterable(chain(graph.edges, graph.arcs)))
    return max(deg.values(), default=0)


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
    ends, k, n = ix.ends, ix.k, len(ix.labels)
    root = list(range(n))
    _union(root, islice(ends, k))
    odd = [0] * n
    for r, t in zip(root, target):
        if t:
            odd[r] ^= 1
    for a, _ in islice(ends, k):
        odd[root[a]] ^= 1
    for _, h in islice(ends, k, None):
        odd[root[h]] ^= 1
    if 1 in odd:
        return [], odd.index(1)
    _union(root, islice(ends, k, None))
    # ascending order of the edges' ends, (a, b) keyed as the int a * n + b
    ids = sorted(range(k), key=[a * n + b for a, b in ends[:k]].__getitem__)
    if not any(root):
        return [_Part(range(n), ids, [ends[i] for i in ids], ends[k:])], -1
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
        a, b = ends[i]
        part = parts[part_at[root[a]]]
        part.edge_ids.append(i)
        part.ends.append((pos[a], pos[b]))
    for t, h in islice(ends, k, None):
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
    labels, ends, k = ix.labels, ix.ends, ix.k
    n = len(labels)
    if len(arcs) != k:
        raise RuntimeError("solver produced a witness that misses an edge")
    for (t, h), (a, b) in zip(arcs, ends):
        if t + h != a + b or (t != a and t != b):
            raise RuntimeError(
                f"solver produced an arc {labels[t]}->{labels[h]} on no edge"
            )
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for t, h in chain(arcs, islice(ends, k, None)):
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
    problem's index, whose ``ends`` number the links.

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
    labels, ends, k = ix.labels, ix.ends, ix.k   # links k.. are the fixed arcs
    n = len(labels)
    owe = [v in problem.odd_set for v in labels]   # odd in-degree still owed
    for _, h in islice(ends, k, None):
        owe[h] = not owe[h]
    # The edges at a vertex are kept as their count, the XOR of their ids and
    # one of them: with one edge left the XOR is its id.
    deg, xor, one = [0] * n, [0] * n, [0] * n
    for li, (a, b) in zip(range(k), ends):
        deg[a] += 1
        deg[b] += 1
        xor[a] ^= li
        xor[b] ^= li
        one[a] = one[b] = li
    arcs = ends[:k]   # the (tail, head) chosen for each edge

    steps = 0
    ready = [v for v in range(n) if deg[v] == 1]
    for c in range(n + 1):
        while ready:
            v = ready.pop()
            if deg[v] != 1:
                continue
            li = xor[v]
            a, b = ends[li]
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
            if sum(ends[xor[c] ^ li]) < sum(ends[li]):
                li ^= xor[c]
            u = sum(ends[li]) - c
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


# -- complete backtracking solver ----------------------------------------------------


def _stays_acyclic(reach: dict[int, int], arcs: Iterable[Arc]) -> bool:
    """Whether the arcs, added one at a time to an acyclic closure, close
    no cycle.  ``reach[x]`` is the bitmask of the keys x reaches, x
    included, and every arc joins two keys.  Each arc grows a copy of it by
    ``apply_arc``'s rule: t->h closes a cycle iff h reaches t, and otherwise
    every vertex that reaches t gains what h reaches."""
    reach = dict(reach)
    for t, h in arcs:
        below = reach[h]
        if (below >> t) & 1:
            return False
        for x, got in reach.items():
            if (got >> t) & 1:
                reach[x] = got | below
    return True


class _ExactSearch:
    """Backtracking over undirected edges with parity forcing, cycle forcing,
    and a cycle-component probe.

    Parity forcing: a vertex with exactly one undecided link forces that
    link by the parity its in-degree still owes.  Cycle forcing: an edge
    with one direction closing a directed cycle among decided arcs is forced
    the other way.  The probe tests both directions of one edge in each pure cycle
    component of the undecided subgraph; if both fail the state is
    conflicting, if one fails the other is forced.  All three rules are
    sound, so exhausted search remains a proof of infeasibility.  They are
    also monotone (a rule that fires keeps firing as arcs are added), so the
    state ``quiesce`` reaches does not depend on the order in which they fire.

    State is indexed by part position, the index's own when the part spans
    a connected index; ``m - len(trail)`` edges are undecided.

    Reachability is kept exact at all times: ``desc[x]`` is the bitmask of
    vertices reachable from x (x included) over the fixed and decided arcs,
    so an arc t->h closes a cycle iff bit t of ``desc[h]`` is set.  Adding
    t->h walks the in-arcs backwards from t and ORs ``desc[h]`` into every
    vertex that does not reach h yet; the walk stops at vertices that already
    do, so only changed entries are touched.  ``apply_arc`` holds the one
    copy of the walk, and the fixed arcs go through it too, as edge -1.
    Undo makes one pass over the trail entries it drops, newest first: each
    pops the newest in-arc of its head, which is exactly the arc it added.
    Then it restores the ``desc`` snapshot of the search frame.  The in-arcs
    also give each vertex its in-parity so far, ``len(in_adj[x]) & 1``.

    Cycle forcing is driven by closure growth.  An edge u-v becomes forced
    exactly when bit v enters ``desc[u]`` or bit u enters ``desc[v]``, so
    the walk queues the edges at a vertex whose closure gains the edge's
    other endpoint (the arc's own edge, being decided, may be left out), and
    ``cycle_force_pass`` drains that queue against the live closure.
    Building the fixed arcs' closure queues the edges they force.  An undo
    clears the queue, because every backtrack point is a state that
    ``quiesce`` left with the queue drained.

    The probe makes no trial moves.  In a pure cycle, parity at a vertex
    fixes whether its two ring links point the same way around the ring.
    So the arc chosen on the probed edge forces every arc around the ring,
    and the opposite arc forces the reverse arcs.  The walk closes with a
    parity check at its start, which is the same for both directions.  A
    direction that passes it fails iff its arcs close a directed cycle with
    the closure restricted to the ring's vertices, which the probe grows
    arc by arc by ``apply_arc``'s rule on a copy of that restriction.
    Nothing is applied or undone; a forced direction is then committed like
    any other arc.

    The pure cycles are search state: ``rings`` maps each one's lowest edge
    id (its rep) to its vertices in ring order from the low end of that
    edge (ring[0]-ring[1] is the rep, ring[i] is joined to ring[i + 1] and
    ring[-1] to ring[0]), and ``ring_of``/``ring_mask`` give each ring
    vertex its rep and the ring's vertex bitmask.  Only the root walks every
    vertex.  After that a component can become a pure cycle only at an
    endpoint of a newly decided arc, so each probe pass walks from the
    endpoints of the arcs on the trail since the previous pass, and a ring
    leaves the set when one of its edges is decided (any undecided link at a
    ring vertex is a ring edge).  The in-parities of a ring's vertices
    cannot change while it stays a ring, so a probe that lets both
    directions through stays valid until the closure of a ring vertex gains
    another ring vertex, which the closure walk sees.  ``pending`` holds the
    rings not probed since they appeared or since that happened.  A pass
    probes each of them once, in ascending rep order; a ring that a forcing
    in the pass makes pending is probed in the next pass, which ``quiesce``
    runs whenever a pass grew the trail.  The trail is the one undo record of this state: each entry
    carries the ring its arc dropped, and ``undo_to`` links it again and
    unlinks the rings found at the arc's ends since.  Neither a probe nor
    closure growth leaves a record.  A ring that passes the probe also
    passes it on any earlier state where it is a ring, whose closure is
    smaller, so after an undo it needs no probe; a ring made pending by
    closure growth stays pending, which costs at most one probe, and
    ``run`` clears ``pending`` after each backjump, since every frame is
    pushed at a fixed point of ``quiesce``, where no ring waits.

    The branch edge has the fewest undecided links at its lower-count end,
    lowest id first.  ``quiesce`` forces the last undecided link at every
    vertex, so no undecided edge has fewer than two at either end, and the
    scan from the first undecided edge stops at the first edge on that floor.

    Every decided arc carries a dependency mask ``dep[e]``, an int with one
    bit per decision level: the decisions that force it.  A decision at
    level L gets bit L, and a forced arc the OR of its reason's masks; fixed
    arcs and the root's forcings rest on none.  The reasons: a parity
    forcing at x rests on the other links at x; a cycle forcing of u-v to
    v->u on the decided arcs of one v~>u path (``path_dep`` walks back over
    ``in_adj``, always to an in-neighbour v reaches); a probe forcing on the
    decided links at every ring vertex and one path for each ring vertex
    another one reaches.  A conflict gets its mask the same way, in
    ``conflict``: a parity dead end at x rests on all links at x, an arc
    t->h that would close a cycle on its own mask and a path h~>t, and a
    probe that fails both ways on its reason.

    Each conflict teaches a nogood: the decisions at the levels its mask
    names cannot all hold (the decision scheme of Zhang, Madigan, Moskewicz
    & Malik, ICCAD 2001).  A nogood is a list of edge literals 2e + (t < h),
    and ``occ`` lists the nogoods of each literal; no watched literals, since
    the nogoods are few and short.  ``apply_arc`` queues the literal it makes
    true on ``lit_q``, and ``nogood_pass`` checks every nogood of each queued
    literal: all literals true is a conflict on the OR of their masks, and
    all true but one undecided forces that edge the other way, on the OR of
    the others' masks.  ``undo_to`` queues both literals of each edge it
    makes undecided, because a nogood learned since then turns unit when its
    last decision is undone, with none of its literals made true.
    """

    def __init__(self, part: _Part, target: list[bool], budget: int):
        """Search ``part`` of an index; ``target`` flags each index position
        odd.  A part that spans the index is searched in place and reads
        ``target`` as it is."""
        self.budget = budget
        self.n = n = len(part.verts)
        self.ends = ends = part.ends
        self.m = m = len(ends)
        if n < len(target):
            target = [target[x] for x in part.verts]
        self.target = target

        self.edge_at = edge_at = [[] for _ in range(n)]
        # bitmask of the vertices joined to x by an edge
        self.nbr_bits = nbr_bits = [0] * n
        for i, (u, v) in zip(range(m), ends):
            edge_at[u].append(i)
            edge_at[v].append(i)
            nbr_bits[u] |= 1 << v
            nbr_bits[v] |= 1 << u
        self.und = list(map(len, edge_at))   # undecided links at x

        self.decided: list[Optional[Arc]] = [None] * m
        self.cycle_q: list[int] = []
        self.desc = [1 << x for x in range(n)]
        self.in_adj: list[list[int]] = [[] for _ in range(n)]
        # decision levels each decided arc rests on (0 while undecided)
        self.dep = [0] * m
        # decision levels the last conflict rests on
        self.conflict = 0
        # learned nogoods, each a list of literals 2e + (t < h) for the arc
        # t->h on edge e; ``occ`` maps a literal to the nogoods holding it,
        # and ``lit_q`` holds the literals whose nogoods need a check
        self.nogoods: list[list[int]] = []
        self.occ: dict[int, list[list[int]]] = {}
        self.lit_q: list[int] = []
        self.rings: dict[int, list[int]] = {}
        self.ring_of = [-1] * n
        self.ring_mask = [0] * n
        self.pending: set[int] = set()
        self.fixed_acyclic = all(self.apply_arc(-1, t, h) for t, h in part.arcs)

        # (edge, tail, head, dropped): dropped is the (rep, ring, bitmask) of
        # the pure cycle the arc's edge was on, None when it was on none
        self.trail: list[tuple[int, int, int, Optional[tuple[int, list[int], int]]]] = []
        self.seen = [0] * n   # the stamp of the last walk to reach x
        self.stamp = 0
        self._find_rings(range(n))
        self.scanned = 0   # trail entries whose endpoints have been walked
        self.force_q: deque[int] = deque()
        self.decisions = 0
        self.propagations = 0

    # -- state updates ------------------------------------------------------

    def apply_arc(
        self, e: int, t: int, h: int, mask: int = 0, decision: bool = False
    ) -> bool:
        """Decide edge e as t->h, resting on the decision levels ``mask``,
        or add a fixed arc t->h when e is -1; False on a conflict, whose
        levels go to ``conflict``.  An arc that closes a directed cycle
        changes nothing."""
        desc = self.desc
        below = desc[h]
        if (below >> t) & 1:
            self.conflict = mask | self.path_dep(h, t)
            return False
        in_adj, nbr_bits, ring_mask = self.in_adj, self.nbr_bits, self.ring_mask
        in_adj[h].append(t)
        stack = [t]
        while stack:
            y = stack.pop()
            old = desc[y]
            grown = old | below
            if grown == old:
                continue   # y reaches h already
            desc[y] = grown
            new = grown ^ old
            gained = new & nbr_bits[y]
            # at t a lone gained bit is h, across e itself; a fixed arc is on no edge
            if gained and (y != t or e < 0 or gained & (gained - 1)):
                ends, cycle_q = self.ends, self.cycle_q
                for i in self.edge_at[y]:
                    u, v = ends[i]
                    if (gained >> (u + v - y)) & 1:
                        cycle_q.append(i)
            if new & ring_mask[y]:
                # y now reaches another vertex of its ring: probe it again
                self.pending.add(self.ring_of[y])
            stack.extend(in_adj[y])
        if e < 0:
            return True

        if not decision:
            self.propagations += 1
        self.decided[e] = (t, h)
        self.dep[e] = mask
        r = self.ring_of[t]
        # e is an edge of t's ring, if t has one, so h is on it too
        self.trail.append((e, t, h, None if r < 0 else self._unlink_ring(r)))
        if self.occ:
            lit = 2 * e + (t < h)
            if lit in self.occ:
                self.lit_q.append(lit)
        und = self.und
        left = und[t] = und[t] - 1
        right = und[h] = und[h] - 1
        if left > 1 and right > 1:
            return True
        target = self.target
        if left < 2:
            if left:
                self.force_q.append(t)
            elif len(in_adj[t]) & 1 != target[t]:
                self.conflict = self.links_dep(t)
                return False
        if right < 2:
            if right:
                self.force_q.append(h)
            elif len(in_adj[h]) & 1 != target[h]:
                self.conflict = self.links_dep(h)
                return False
        return True

    def undo_to(self, mark: int, desc: list[int]) -> None:
        """Pop the trail back to ``mark``; ``desc`` is the closure snapshot
        taken when the trail had that length, and the rings must have been
        current then (``scanned`` equal to ``mark``), as at every frame
        ``run`` pushes.  The entries go newest first: a ring at either end
        of an entry's arc was found since ``mark`` (one there before would
        have been dropped by the arc) and is unlinked, and the ring the arc
        dropped is linked again, pending.  A ring that a closure walk made
        pending since ``mark`` stays pending, which costs at most one probe
        too many.  The queues are emptied, except that both literals of each
        edge made undecided are queued, newest edge first: a nogood learned
        since ``mark`` can be unit there, with its undecided literal the only
        one that moved."""
        trail = self.trail
        if len(trail) > mark:
            und, decided, dep = self.und, self.decided, self.dep
            in_adj, occ, lit_q = self.in_adj, self.occ, self.lit_q
            ring_of = self.ring_of
            for e, t, h, dropped in reversed(trail[mark:]):
                if occ:
                    lit = 2 * e
                    if lit in occ:
                        lit_q.append(lit)
                    if lit + 1 in occ:
                        lit_q.append(lit + 1)
                decided[e] = None
                dep[e] = 0
                in_adj[h].pop()
                und[t] += 1
                und[h] += 1
                for x in (t, h):
                    if ring_of[x] >= 0:
                        self._unlink_ring(ring_of[x])
                if dropped:
                    self._link_ring(*dropped)
            del trail[mark:]
            self.scanned = min(self.scanned, mark)
        self.desc[:] = desc
        self.force_q.clear()
        self.cycle_q.clear()

    # -- pure cycles ------------------------------------------------------------

    def _link_ring(self, rep: int, ring: list[int], bits: int) -> None:
        """Add a ring, pending."""
        self.rings[rep] = ring
        for x in ring:
            self.ring_of[x] = rep
            self.ring_mask[x] = bits
        self.pending.add(rep)

    def _unlink_ring(self, rep: int) -> tuple[int, list[int], int]:
        """Remove a ring, and return its (rep, ring, bitmask)."""
        ring = self.rings.pop(rep)
        bits = self.ring_mask[ring[0]]
        for x in ring:
            self.ring_of[x] = -1
            self.ring_mask[x] = 0
        self.pending.discard(rep)
        return rep, ring, bits

    def _find_rings(self, starts: Iterable[int]) -> None:
        """Add the pure cycle through each start vertex that is on one.

        A walk from x along two-link vertices comes back to x exactly when
        x's component is a pure cycle.  It stops at the first vertex with
        another link count or one an earlier walk of this call reached (which
        lies in the same component, so it is not pure), so each vertex is
        walked at most once per call.  A new ring is pending.
        """
        und, decided, ends, edge_at, seen = (
            self.und, self.decided, self.ends, self.edge_at, self.seen
        )
        self.stamp += 1
        stamp = self.stamp
        for x in starts:
            if und[x] != 2 or seen[x] == stamp:
                continue
            seen[x] = stamp
            # cyc[i] - cyc[i + 1] is edge es[i], and es[-1] closes the ring
            cyc, es, bits = [x], [], 1 << x
            f, y = -1, x
            while True:
                # leave y by its undecided link other than the one walked in
                for g in edge_at[y]:
                    if g != f and decided[g] is None:
                        break
                f = g
                es.append(f)
                a, b = ends[f]
                y = a + b - y
                if y == x:
                    break
                if und[y] != 2 or seen[y] == stamp:
                    cyc = []
                    break
                seen[y] = stamp
                cyc.append(y)
                bits |= 1 << y
            if not cyc:
                continue
            # start from the low end of the lowest edge, across that edge
            r = len(cyc)
            k = es.index(min(es))
            rep = es[k]
            if cyc[k] == ends[rep][0]:
                ring = cyc[k:] + cyc[:k]
            else:
                ring = [cyc[(k + 1 - i) % r] for i in range(r)]
            self._link_ring(rep, ring, bits)

    def _update_rings(self) -> None:
        """Walk from the endpoints of the arcs decided since the last call."""
        trail = self.trail
        if self.scanned == len(trail):
            return
        starts = [x for item in trail[self.scanned:] for x in item[1:3]]
        self.scanned = len(trail)
        self._find_rings(starts)

    # -- reasons -------------------------------------------------------------

    def links_dep(self, x: int) -> int:
        """The levels the decided links at x rest on, which fix its
        in-parity (fixed arcs rest on none, undecided edges count 0)."""
        dep, mask = self.dep, 0
        for f in self.edge_at[x]:
            mask |= dep[f]
        return mask

    def path_dep(self, a: int, b: int) -> int:
        """The levels the arcs of one a~>b path rest on; a reaches b.  The
        walk goes back from b, each time to the first in-neighbour that a
        reaches, so it ends at a.  The graph is simple, so an arc p->b is
        decided on the one edge at b that ends at p, or is fixed, with no
        edge there and no level."""
        reach, in_adj, dep = self.desc[a], self.in_adj, self.dep
        edge_at, ends = self.edge_at, self.ends
        mask = 0
        while b != a:
            for p in in_adj[b]:
                if (reach >> p) & 1:
                    break
            for f in edge_at[b]:
                if p in ends[f]:
                    mask |= dep[f]
            b = p
        return mask

    def ring_dep(self, ring: list[int]) -> int:
        """The levels a probe of ``ring`` rests on: the decided links at its
        vertices, which fix their in-parities and leave the ring a pure
        cycle, and one path for each ring vertex another one reaches."""
        desc, bits, mask = self.desc, self.ring_mask[ring[0]], 0
        for x in ring:
            mask |= self.links_dep(x)
            rest = (desc[x] & bits) ^ (1 << x)
            while rest:
                low = rest & -rest
                mask |= self.path_dep(x, low.bit_length() - 1)
                rest ^= low
        return mask

    # -- propagation rules ----------------------------------------------------

    def propagate(self) -> bool:
        """Force the last undecided link at each queued vertex by its
        parity; the arc rests on the other links there."""
        force_q, und, decided, ends, dep = (
            self.force_q, self.und, self.decided, self.ends, self.dep
        )
        edge_at, in_adj, target = self.edge_at, self.in_adj, self.target
        while force_q:
            x = force_q.popleft()
            if und[x] != 1:
                continue
            mask = 0
            for f in edge_at[x]:
                if decided[f] is None:
                    e = f
                else:
                    mask |= dep[f]
            u, v = ends[e]
            other = u + v - x
            t, h = (other, x) if len(in_adj[x]) & 1 != target[x] else (x, other)
            if not self.apply_arc(e, t, h, mask):
                return False
        return True

    def cycle_force_pass(self) -> bool:
        """Drain the cycle queue, forcing each queued undecided edge that has
        one direction closing a cycle; False on a conflict."""
        desc, ends, decided, queue = self.desc, self.ends, self.decided, self.cycle_q
        while queue:
            e = queue.pop()
            if decided[e] is not None:
                continue
            u, v = ends[e]
            # the closure is acyclic, so at most one direction closes a cycle
            if (desc[v] >> u) & 1:
                t, h = v, u
            elif (desc[u] >> v) & 1:
                t, h = u, v
            else:
                continue
            # the arc rests on one t~>h path, which h->t would close
            if not (self.apply_arc(e, t, h, self.path_dep(t, h)) and self.propagate()):
                return False
        return True

    def probe(self, ring: list[int]) -> tuple[bool, bool]:
        """Whether the arcs ring[1]->ring[0] and ring[0]->ring[1] each
        survive parity forcing around the pure cycle ``ring`` (a value of
        ``rings``) without a conflict.  Each forces every other ring arc,
        the second the reverse of the first's, so both fail when the ring's
        parities do not close.  A direction that closes them fails iff its
        arcs, added one at a time to the closure within the ring's vertices
        (whose bitmask ``ring_mask`` holds), close a cycle: every new path
        between two ring vertices alternates ring arcs with jumps along
        that closure."""
        r = len(ring)
        target, in_adj, desc = self.target, self.in_adj, self.desc
        # fwd[i]: edge ring[i]-ring[i+1] points ring[i] -> ring[i+1] (1) or
        # back (0) under the first direction.  x keeps the direction iff one
        # of its two ring links must enter it, i.e. iff its decided
        # in-parity misses its target.
        fwd = [0] * r   # the first direction, ring[1] -> ring[0]
        for i in range(1, r):
            x = ring[i]
            fwd[i] = fwd[i - 1] ^ 1 ^ target[x] ^ (len(in_adj[x]) & 1)
        # parity at ring[0] closes the walk, and reversing every arc keeps
        # each vertex's in-parity
        x = ring[0]
        if fwd[0] != fwd[-1] ^ 1 ^ target[x] ^ (len(in_adj[x]) & 1):
            return False, False

        bits = self.ring_mask[ring[0]]
        # the ring vertices each one reaches over fixed and decided arcs
        reach = {x: desc[x] & bits for x in ring}
        if all(reach[x] == 1 << x for x in ring):
            # the forced arcs alone close a cycle only by going all the way
            # round one way, and then so do the reverse arcs
            circular = len(set(fwd)) == 1
            return not circular, not circular
        links = zip(ring, ring[1:] + ring[:1], fwd)
        first = [(x, y) if f else (y, x) for x, y, f in links]
        second = [(y, x) for x, y in first]
        return _stays_acyclic(reach, first), _stays_acyclic(reach, second)

    def probe_pass(self) -> bool:
        """Probe the rep edge of each pending pure cycle once, in ascending
        rep order, and force the survivor when exactly one direction works;
        False on a conflict.  A forcing and the parity propagation after it
        decide only edges of the probed ring, so every other ring of the
        pass stays a ring.  A ring that a forcing makes pending waits for
        the next pass, which ``quiesce`` runs because the trail grew."""
        self._update_rings()
        pending, rings = self.pending, self.rings
        for e in sorted(pending):
            ring = rings[e]
            hi_lo, lo_hi = self.probe(ring)
            if hi_lo == lo_hi:
                if not hi_lo:
                    self.conflict = self.ring_dep(ring)
                    return False
                pending.discard(e)
                continue
            lo, hi = ring[0], ring[1]
            t, h = (hi, lo) if hi_lo else (lo, hi)
            if not (self.apply_arc(e, t, h, self.ring_dep(ring)) and self.propagate()):
                return False
        return True

    def add_nogood(self, lits: list[int]) -> None:
        """Store literals that cannot all hold; the next ``quiesce`` checks
        them."""
        self.nogoods.append(lits)
        for lit in lits:
            self.occ.setdefault(lit, []).append(lits)
        self.lit_q.append(lits[0])

    def nogood_pass(self) -> bool:
        """Check the nogoods of each queued literal.  One whose literals all
        hold is a conflict resting on their levels; one with a single
        undecided literal and the rest holding forces that edge the other
        way, resting on the levels of the rest.  False on a conflict."""
        queue, occ, decided, dep, ends = self.lit_q, self.occ, self.decided, self.dep, self.ends
        while queue:
            for lits in occ[queue.pop()]:
                free, mask = -1, 0
                for lit in lits:
                    arc = decided[lit >> 1]
                    if arc is None:
                        if free >= 0:
                            break
                        free = lit
                    elif (arc[0] < arc[1]) != (lit & 1):
                        break   # the opposite arc holds
                    else:
                        mask |= dep[lit >> 1]
                else:
                    if free < 0:
                        self.conflict = mask
                        return False
                    e = free >> 1
                    u, v = ends[e]
                    # the opposite of the literal: t < h iff its low bit is 0
                    t, h = (u, v) if (u < v) != (free & 1) else (v, u)
                    if not (self.apply_arc(e, t, h, mask) and self.propagate()):
                        return False
        return True

    def quiesce(self) -> bool:
        """Run the rules until none fires; False on a conflict.  At the fixed
        point no vertex has one undecided link, no undecided edge closes a
        cycle either way, no ring is pending, and every ring lets both
        directions of its rep edge through the probe."""
        while True:
            if not (self.propagate() and self.cycle_force_pass()):
                return False
            if self.lit_q:
                # arcs a nogood forces go through the other rules first
                if not self.nogood_pass():
                    return False
                continue
            size = len(self.trail)
            if not self.probe_pass():
                return False
            if len(self.trail) == size:
                return True

    # -- search ------------------------------------------------------------

    def pick_edge(self) -> int:
        """The undecided edge of least key, min(und[u], und[v]), lowest id
        first; some edge must be undecided, and no vertex may have exactly
        one undecided link, as after ``quiesce``."""
        decided, ends, und = self.decided, self.ends, self.und
        best, best_key = -1, self.m + 1
        for e in range(decided.index(None), self.m):
            if decided[e] is not None:
                continue
            u, v = ends[e]
            key = und[u] if und[u] < und[v] else und[v]
            if key < best_key:
                if key == 2:
                    return e
                best, best_key = e, key
        return best

    def learn(self, conflict: int, frames: list[list]) -> None:
        """Store the decisions at the levels ``conflict`` rests on, which
        cannot all hold, as a nogood."""
        lits = []
        while conflict:
            low = conflict & -conflict
            e = frames[low.bit_length() - 2][0]
            t, h = self.decided[e]
            lits.append(2 * e + (t < h))
            conflict ^= low
        self.add_nogood(lits)

    def run(self) -> tuple[str, str]:
        """Depth-first search with conflict-directed backjumping (Prosser,
        Comput. Intell. 1993); the status and its detail.  A feasible search
        returns with its solution in ``decided``, the (tail, head) of each
        edge as positions in the part.  Parity is settled before the search,
        per edge component, so the root only queues the vertices with one
        undecided link; a vertex with none is an edge component of its own,
        whose parity the fixed arcs into it already meet.

        Each frame is one decision level: its edge, the directions left to
        try, the trail mark and closure snapshot to return to, and the
        levels its failed branches rest on.  A new level pushes its frame
        with both directions, and every decision takes the next direction of
        the newest frame.  A conflict resting on levels D goes back to level
        max(D) in one undo: the frames above it are dropped untried, because
        the decisions in D fail under any choice of theirs.  The frame at
        max(D) adds the rest of D to its set and tries its other direction;
        with none left, its set is the next conflict.  A conflict resting on
        no level ends the search.  The branching rule is that of
        chronological backtracking, so the search visits a subset of its
        nodes and meets the same first solution, where it returns.

        Before the undo, each conflict, and each frame set that becomes one,
        is learned as a nogood over the decisions at its levels, and
        ``quiesce`` propagates the nogoods from then on.  A nogood follows
        from the constraints, so an arc it forces is one every solution
        under the current decisions has: an exhausted search is still a
        proof.  An arc forced earlier than without learning can change the
        branch edge chosen below it.
        """
        if not self.fixed_acyclic:
            return INFEASIBLE, "fixed arcs contain a directed cycle"
        self.force_q.extend(x for x in range(self.n) if self.und[x] == 1)
        ok = self.quiesce()
        frames: list[list] = []   # one per decision level, from 1
        while True:
            if ok:
                if len(self.trail) == self.m:
                    return FEASIBLE, ""
                e = self.pick_edge()
                u, v = self.ends[e]
                lo, hi = (u, v) if u < v else (v, u)
                frame = [e, [(lo, hi), (hi, lo)], len(self.trail), self.desc[:], 0]
                frames.append(frame)
            else:
                conflict = self.conflict
                while conflict:
                    self.learn(conflict, frames)
                    level = conflict.bit_length() - 1
                    del frames[level:]
                    frame = frames[-1]
                    frame[4] |= conflict ^ (1 << level)
                    if frame[1]:
                        self.undo_to(frame[2], frame[3])
                        # no ring waits at the quiesce fixed point the frame was pushed at
                        self.pending.clear()
                        break
                    # both directions failed: their levels below are the conflict
                    conflict = frame[4]
                    frames.pop()
                else:
                    return INFEASIBLE, "search space exhausted"
            if self.decisions >= self.budget:
                return ABORTED, "decision budget exceeded"
            self.decisions += 1
            t, h = frame[1].pop()
            ok = (
                self.apply_arc(frame[0], t, h, 1 << len(frames), decision=True)
                and self.quiesce()
            )


def solve_exact(problem: OrientationProblem, budget: int = 10_000_000) -> SolveResult:
    """Complete backtracking search; infeasible answers are proofs.

    Parity is settled first, exactly and before any search: an edge
    component whose parity cannot be met answers infeasible with 0
    decisions, naming one of its vertices (see ``_split``).  A directed
    cycle and an in-degree both stay inside one connected component of the
    links (direction ignored), so the components are then searched one at
    a time, in ascending order of their lowest vertex, and the first
    infeasible or aborted one ends the solve.  A connected instance, such
    as a reduction, is searched in place on its index.

    ``budget`` caps branch decisions over all components together: each gets
    what the earlier ones left.  Overruns return status "aborted", never a
    wrong answer.  ``decisions`` and ``propagations`` are summed over the
    components searched.  Each component's search returns at its first
    solution, and the witness is the union of theirs, checked for
    acyclicity and parity.
    """
    return _solve_exact(problem, _Index(problem.graph), budget)


def _solve_exact(problem: OrientationProblem, ix: _Index, budget: int) -> SolveResult:
    """``solve_exact`` over the problem's index.  A feasible ``run``
    returns at its solution, so each part's witness is read from its
    search's ``decided``."""
    labels = ix.labels
    target = [v in problem.odd_set for v in labels]
    parts, odd = _split(ix, target)
    status, detail = FEASIBLE, ""
    if odd >= 0:
        status, detail = INFEASIBLE, _PARITY_REFUSAL.format(labels[odd])
    decisions = propagations = 0
    arcs = ix.ends[: ix.k]   # each edge's (tail, head), filled in per part
    for part in parts:
        search = _ExactSearch(part, target, budget - decisions)
        status, detail = search.run()
        decisions += search.decisions
        propagations += search.propagations
        if status != FEASIBLE:
            break
        verts = part.verts
        for i, (t, h) in zip(part.edge_ids, search.decided):
            arcs[i] = (verts[t], verts[h])
    witness = None
    if status == FEASIBLE:
        if not _check_witness(ix, arcs, problem.odd_set):
            raise RuntimeError("solver produced a cyclic witness")
        witness = _orientation(ix, arcs, problem.graph)
    return SolveResult(status, witness, decisions, propagations, detail)


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
