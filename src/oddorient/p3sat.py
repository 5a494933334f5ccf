"""Planar 3-SAT instances: formulas, incidence graphs, rotation systems,
embedding validation, a brute-force satisfiability oracle, and a planar
instance generator.

A literal is a pair (variable index, polarity); variables are 0-based.  The
incidence graph puts variable i at vertex i and clause j at vertex n + j.
Embeddings are combinatorial maps: a cyclic neighbor order per vertex,
validated against Euler's formula by face tracing (no coordinates anywhere).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from oddorient.pdgraph import GraphError, PartiallyDirectedGraph, Vertex, _gc_paused, validate
from oddorient.oracle import _BLOCK_BITS, BudgetError, _counter_bits

Literal = tuple[int, bool]
Clause = tuple[Literal, Literal, Literal]


class FormulaError(ValueError):
    """Raised for malformed formulas or rotation systems."""


class GenerationError(ValueError):
    """Raised when no planar layout satisfies the requested parameters."""


class SizeError(GenerationError):
    """Raised when the requested sizes admit no formula, whatever the seed."""


@dataclass(frozen=True)
class Formula:
    """A 3-CNF formula: every clause has three distinct variables."""

    variable_count: int
    clauses: tuple[Clause, ...]

    @classmethod
    def build(
        cls, variable_count: int, clauses: Iterable[Sequence[Literal]]
    ) -> "Formula":
        packed = []
        for idx, clause in enumerate(clauses):
            lits = tuple((int(v), bool(p)) for v, p in clause)
            if len(lits) != 3:
                raise FormulaError(f"clause {idx} must have exactly 3 literals")
            vars_seen = [v for v, _ in lits]
            if len(set(vars_seen)) != 3:
                raise FormulaError(
                    f"clause {idx} repeats a variable (complementary or equal"
                    " literals are not allowed)"
                )
            for v, _ in lits:
                if not 0 <= v < variable_count:
                    raise FormulaError(f"clause {idx} names variable {v} out of range")
            packed.append(lits)
        return cls(variable_count=variable_count, clauses=tuple(packed))

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def eval_formula(formula: Formula, assignment: Sequence[bool]) -> bool:
    """True iff every clause contains a true literal."""
    if len(assignment) != formula.variable_count:
        raise FormulaError("assignment must be total")
    return all(
        any(assignment[v] == pos for v, pos in clause) for clause in formula.clauses
    )


def sat_oracle(formula: Formula, budget: int = 24) -> Optional[tuple[bool, ...]]:
    """Exhaustive satisfiability check; returns the lowest-index witness.

    Sweeps all 2^n assignments (bit v of the sweep index is variable v) in
    bit-sliced blocks: bit r of a literal's int is its value in assignment
    first + r, and the AND of the clause ORs marks the satisfying ones.
    Raises BudgetError when n exceeds ``budget``, so a partial sweep is
    never mistaken for a proof of unsatisfiability.
    """
    n = formula.variable_count
    if n > budget:
        raise BudgetError(
            f"satisfiability sweep over {n} variables exceeds the 2**{budget} budget"
        )
    b = min(n, _BLOCK_BITS)
    ones = (1 << (1 << b)) - 1
    pats = _counter_bits(b)
    # literal (v, pos) is entry 2v + pos of a block's literal ints
    clauses = [[2 * v + pos for v, pos in clause] for clause in formula.clauses]
    for q in range(1 << (n - b)):
        val = pats + [ones if (q >> v) & 1 else 0 for v in range(n - b)]
        lit = [x ^ flip for x in val for flip in (ones, 0)]
        ok = ones
        for clause in clauses:
            hit = 0
            for i in clause:
                hit |= lit[i]
            ok &= hit
            if not ok:
                break
        if ok:
            m = (q << b) | ((ok & -ok).bit_length() - 1)
            return tuple(bool((m >> v) & 1) for v in range(n))
    return None


def incidence_graph(formula: Formula) -> PartiallyDirectedGraph:
    """Bipartite graph joining each variable vertex to the clauses using it."""
    n = formula.variable_count
    edges = set()
    for j, clause in enumerate(formula.clauses):
        for v, _ in clause:
            edges.add((v, n + j))
    return PartiallyDirectedGraph.build(
        range(n + len(formula.clauses)), edges, ()
    )


def variable_vertex(formula: Formula, i: int) -> Vertex:
    return i


def clause_vertex(formula: Formula, j: int) -> Vertex:
    return formula.variable_count + j


# -- rotation systems --------------------------------------------------------------


@dataclass(frozen=True)
class RotationSystem:
    """A cyclic order of neighbors at each vertex (a combinatorial map).

    Orders are stored rotated to start at the smallest neighbor, so equal
    embeddings compare equal and serialize identically.
    """

    orders: dict[Vertex, tuple[Vertex, ...]]

    @classmethod
    def build(cls, mapping: Mapping[Vertex, Sequence[Vertex]]) -> "RotationSystem":
        orders = {}
        for v in sorted(mapping):
            cycle = tuple(mapping[v])
            if len(set(cycle)) != len(cycle):
                raise FormulaError(f"rotation at {v} repeats a neighbor")
            if cycle:
                low = min(cycle)
                if cycle[0] != low:
                    shift = cycle.index(low)
                    cycle = cycle[shift:] + cycle[:shift]
            orders[v] = cycle
        return cls(orders=orders)

    def succ(self, v: Vertex, u: Vertex) -> Vertex:
        """Neighbor immediately after u in the cyclic order at v."""
        cycle = self.orders[v]
        return cycle[(cycle.index(u) + 1) % len(cycle)]

    def position(self, v: Vertex, u: Vertex) -> int:
        """Index of u in the stored order at v (an inverse rotation lookup,
        made concrete by the start-at-minimum normalization)."""
        return self.orders[v].index(u)


@dataclass(frozen=True)
class ComponentCheck:
    vertices: int
    edges: int
    faces: int

    @property
    def euler_ok(self) -> bool:
        return self.vertices - self.edges + self.faces == 2


@dataclass(frozen=True)
class EmbeddingReport:
    valid: bool
    components: tuple[ComponentCheck, ...]
    face_count: int
    darts_traced: int


def next_dart(
    rotation: RotationSystem, dart: tuple[Vertex, Vertex]
) -> tuple[Vertex, Vertex]:
    """Face-trace successor: from u->v continue to (v, successor of u at v)."""
    u, v = dart
    return (v, rotation.succ(v, u))


def _explain_rotation(graph: PartiallyDirectedGraph, rotation: RotationSystem) -> None:
    """Raise the error that names the first vertex, in ascending order,
    whose rotation does not list exactly its neighbors, else the vertices
    the rotation names outside the graph."""
    neighbors: dict[Vertex, set[Vertex]] = {v: set() for v in sorted(graph.vertices)}
    for u, v in graph.undirected_pairs():
        neighbors[u].add(v)
        neighbors[v].add(u)
    for v, nbrs in neighbors.items():
        order = rotation.orders.get(v)
        if order is None:
            raise FormulaError(f"rotation missing vertex {v}")
        if len(order) != len(nbrs) or set(order) != nbrs:
            raise FormulaError(
                f"rotation at {v} is not a permutation of its neighbors"
            )
    stray = rotation.orders.keys() - graph.vertices
    if stray:
        raise FormulaError(f"rotation names non-vertices: {sorted(stray)}")


def validate_embedding(
    graph: PartiallyDirectedGraph, rotation: RotationSystem
) -> EmbeddingReport:
    """Trace all faces and test Euler's formula on every component.

    The rotation must cover every vertex with exactly its neighbor set
    (direction of arcs is irrelevant here) and name no other vertex;
    genus-0 means each connected component satisfies V - E + F = 2, counting
    one face for an isolated vertex.  The trace follows ``next_dart``
    through a table that maps each dart u->v to its successor, so every dart
    costs one dict lookup.  The rotation is checked against the links in one
    pass: the table's darts must be the links' darts, compared as sets.  A
    neighbor-set table is built only to name a vertex whose rotation is
    wrong.  On that path a graph from the raw constructor that breaks its
    own invariants (a link endpoint outside its vertices, say) raises
    ``GraphError``.
    """
    orders = rotation.orders
    nxt: dict[tuple[Vertex, Vertex], tuple[Vertex, Vertex]] = {}
    listed = 0
    for v, order in orders.items():
        if order:
            listed += len(order)
            prev = order[-1]
            for w in order:
                nxt[(prev, v)] = (v, w)
                prev = w
    # no order repeats a neighbor, the orders cover exactly the vertices, and
    # their darts are the two darts of every link
    darts = set(chain(graph.edges, graph.arcs))
    for links in (graph.edges, graph.arcs):
        if links:
            tails, heads = zip(*links)
            darts.update(zip(heads, tails))
    if not (
        listed == len(nxt)
        and nxt.keys() == darts
        and orders.keys() == graph.vertices
    ):
        problems = validate(graph)
        if problems:
            raise GraphError("; ".join(problems))
        _explain_rotation(graph, rotation)

    # component labels (the smallest vertex) over the underlying graph, with
    # vertex and edge counts per component; each order is its vertex's
    # neighbor set now
    comp: dict[Vertex, Vertex] = {}
    counts: dict[Vertex, list[int]] = {}
    for v in sorted(graph.vertices):
        if v in comp:
            continue
        comp[v] = v
        stack = [v]
        n_c = degrees = 0
        while stack:
            x = stack.pop()
            n_c += 1
            degrees += len(orders[x])
            for y in orders[x]:
                if y not in comp:
                    comp[y] = v
                    stack.append(y)
        counts[v] = [n_c, degrees // 2, 0]

    # every rotation is a permutation of its neighbors, so the successor
    # table is a permutation of the darts: popping along each orbit visits
    # every dart exactly once
    traced = len(nxt)
    while nxt:
        start, d = nxt.popitem()
        counts[comp[start[0]]][2] += 1
        while d != start:
            d = nxt.pop(d)

    # ``counts`` is in label order, as vertices were visited in sorted order;
    # an isolated vertex has one face
    checks = [
        ComponentCheck(vertices=n_c, edges=e_c, faces=f_c if e_c else 1)
        for n_c, e_c, f_c in counts.values()
    ]
    return EmbeddingReport(
        valid=all(ch.euler_ok for ch in checks),
        components=tuple(checks),
        face_count=sum(ch.faces for ch in checks),
        darts_traced=traced,
    )


@dataclass(frozen=True)
class PlanarFormula:
    """A formula together with a genus-0 rotation system for its incidence
    graph."""

    formula: Formula
    rotation: RotationSystem

    @classmethod
    def build(cls, formula: Formula, rotation: RotationSystem) -> "PlanarFormula":
        report = validate_embedding(incidence_graph(formula), rotation)
        if not report.valid:
            raise FormulaError(
                "rotation system is not a planar embedding "
                f"(components: {report.components})"
            )
        return cls(formula=formula, rotation=rotation)


# -- planar instance generator --------------------------------------------------------

_LEFT = -1    # sentinel spine endpoints, never attached to a clause
_RIGHT = -2


@dataclass
class _FaceSide:
    """One side (upper or lower) of one face of the working map.

    ``walk`` is the face's dart cycle from its minimum dart, and ``corners``
    maps each spine position exposed on this side of the face to (index of
    its arrival dart in ``walk``, arrival neighbor).
    """

    up: bool
    positions: tuple[int, ...]
    corners: dict[int, tuple[int, Vertex]]
    walk: list[tuple[Vertex, Vertex]]


class _SpineMap:
    """Working combinatorial map for the generator: variables sit on a spine
    path (with sentinel ends), clause vertices are inserted one face at a
    time, and the scaffolding is removed at the end.

    The map keeps one entry per face that exposes a spine position, keyed by
    the face's minimum dart, with its walk starting at that dart.  Inserting
    a clause changes sigma only at the three arrival darts of the face it
    splits, and keeps the order of sigma between each position's west and
    east neighbours, so every other face keeps its walk and its corners:
    only the split face is traced again, into its three new faces.  Each
    clause attaches at three corners of a single face, which keeps the map
    planar by construction.
    """

    def __init__(self, n: int):
        self.n = n
        self.sigma: dict[Vertex, list[Vertex]] = {_LEFT: [0], _RIGHT: [n - 1]}
        for p in range(n):
            west = p - 1 if p > 0 else _LEFT
            east = p + 1 if p + 1 < n else _RIGHT
            self.sigma[p] = [west, east]
        self.darts = 2 * (n + 1)
        # face records by minimum dart, and those darts in ascending order
        self.faces: dict[tuple[Vertex, Vertex], list[_FaceSide]] = {}
        self.keys: list[tuple[Vertex, Vertex]] = []
        # the spine is a path, so the initial map has a single face
        self._add_faces([(_LEFT, 0)])

    def _trace(self, start: tuple[Vertex, Vertex]) -> list[tuple[Vertex, Vertex]]:
        """The face walk from dart ``start``, each dart followed by the one
        leaving its head after it in sigma; a walk longer than the map has
        darts means the map is broken."""
        sigma, guard = self.sigma, self.darts
        walk = [start]
        u, v = start
        while True:
            cycle = sigma[v]
            u, v = v, cycle[(cycle.index(u) + 1) % len(cycle)]
            if (u, v) == start:
                return walk
            walk.append((u, v))
            if len(walk) > guard:
                raise AssertionError("face trace failed to close")

    def _corner_is_up(self, p: int, arrival: Vertex) -> bool:
        # the corner entered via `arrival` lies above the spine iff `arrival`
        # sits in the stretch of sigma_p from the west neighbor to the east
        # one, the west one included
        cycle = self.sigma[p]
        west = cycle.index(p - 1 if p > 0 else _LEFT)
        east = cycle.index(p + 1 if p + 1 < self.n else _RIGHT)
        size = len(cycle)
        return (cycle.index(arrival) - west) % size < (east - west) % size

    def _add_faces(self, starts: Iterable[tuple[Vertex, Vertex]]) -> None:
        """Trace the faces through the given darts and record their sides."""
        seen: set[tuple[Vertex, Vertex]] = set()
        for start in starts:
            if start in seen:
                continue
            walk = self._trace(start)
            seen.update(walk)
            k = walk.index(min(walk))
            if k:
                walk = walk[k:] + walk[:k]
            sides: dict[bool, dict[int, tuple[int, Vertex]]] = {True: {}, False: {}}
            clean = {True: True, False: True}
            for idx, (a, b) in enumerate(walk):
                if 0 <= b < self.n:
                    up = self._corner_is_up(b, a)
                    if b in sides[up]:
                        clean[up] = False   # defensive: skip odd faces
                    sides[up][b] = (idx, a)
            records = [
                _FaceSide(up, tuple(sorted(sides[up])), sides[up], walk)
                for up in (True, False)
                if clean[up] and sides[up]
            ]
            if records:
                # a face without an exposed position is never split again
                self.faces[walk[0]] = records
                bisect.insort(self.keys, walk[0])

    def face_sides(self) -> list[_FaceSide]:
        """All (face, side) records with at least one exposed position, by
        the face's minimum dart, the upper side first."""
        return [r for key in self.keys for r in self.faces[key]]

    def insert_clause(self, c: Vertex, record: _FaceSide, triple: tuple[int, ...]):
        """Attach a fresh clause vertex at three corners of one face, and
        trace the three faces it splits that face into."""
        key = record.walk[0]
        del self.faces[key]
        del self.keys[bisect.bisect_left(self.keys, key)]
        by_walk = sorted(triple, key=lambda p: record.corners[p][0])
        # the new vertex sees its neighbors in reverse walk order
        self.sigma[c] = [by_walk[2], by_walk[1], by_walk[0]]
        for p in triple:
            _, arrival = record.corners[p]
            cycle = self.sigma[p]
            cycle.insert(cycle.index(arrival) + 1, c)
        self.darts += 6
        # each new face passes through one corner of c, so leaves c once
        self._add_faces([(c, p) for p in by_walk])

    def finish(self) -> dict[Vertex, list[Vertex]]:
        """Drop the spine scaffolding; only variable-clause edges remain."""
        final: dict[Vertex, list[Vertex]] = {}
        for v in sorted(self.sigma):
            if v in (_LEFT, _RIGHT):
                continue
            if v < self.n:
                final[v] = [w for w in self.sigma[v] if w >= self.n]
            else:
                final[v] = list(self.sigma[v])
        return final


# layouts `generate` tries before it gives up: 192/276 seed 1 needs 62, and
# an impossible size such as 3/3 is refused after all of them in about 0.04 s
_MAX_ATTEMPTS = 400


@_gc_paused
def generate(seed: int, n: int, m: int) -> PlanarFormula:
    """Deterministic planar formula: n variables on a spine, m clauses nested
    above and below it without crossings.

    Each clause claims three exposed spine positions on one side of a single
    face, so planarity holds by construction; the emitted rotation system is
    still pushed through validate_embedding before returning.  The face is
    drawn from the working map's records, which are kept per face and
    traced again only where a clause splits a face, so an attempt costs the
    faces it splits rather than a full trace per clause; no record outlives
    the attempt.  Raises SizeError when n < 3 or m < 1, and GenerationError
    when no layout covering every variable is found within
    ``_MAX_ATTEMPTS`` attempts.
    """
    if n < 3:
        raise SizeError("need at least 3 variables")
    if m < 1:
        raise SizeError("need at least 1 clause")
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        smap = _SpineMap(n)
        triples: list[tuple[int, ...]] = []
        for j in range(m):
            eligible = [r for r in smap.face_sides() if len(r.positions) >= 3]
            if not eligible:
                break
            record = rng.choice(eligible)
            triple = tuple(sorted(rng.sample(record.positions, 3)))
            smap.insert_clause(n + j, record, triple)
            triples.append(triple)
        if len(triples) < m:
            continue
        used = {p for t in triples for p in t}
        if used != set(range(n)):
            continue

        perm = list(range(n))
        rng.shuffle(perm)
        clauses = []
        for triple in triples:
            lits = sorted((perm[p], rng.random() < 0.5) for p in triple)
            clauses.append(tuple(lits))
        formula = Formula.build(n, clauses)

        final_sigma = smap.finish()
        orders: dict[Vertex, list[Vertex]] = {}
        for p in range(n):
            orders[perm[p]] = final_sigma[p]
        for j in range(m):
            orders[n + j] = [perm[p] for p in final_sigma[n + j]]
        rotation = RotationSystem.build(orders)
        return PlanarFormula.build(formula, rotation)
    raise GenerationError(
        f"no layout found for n={n}, m={m} after {_MAX_ATTEMPTS} attempts"
    )
