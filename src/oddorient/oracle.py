"""The exhaustive oracle: ``enumerate`` counts the acyclic parity
orientations of an instance by sweeping every solution of its parity
constraints, and ``p3sat.sat_oracle`` shares its bit-sliced counters.

This module judges the exact search in the tests and the benchmark, so it
imports nothing of the package but ``pdgraph`` and reaches no search code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from oddorient.pdgraph import (
    Arc,
    Edge,
    GraphError,
    Orientation,
    OrientationProblem,
    Vertex,
    is_acyclic,
)


class BudgetError(RuntimeError):
    """Raised when an exhaustive operation would exceed its configured budget."""



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
