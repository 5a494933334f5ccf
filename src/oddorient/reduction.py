"""Reduction from planar 3-SAT to acyclic parity-constrained orientation.

Every variable becomes a ring of 10-vertex gadget copies, one copy per
clause slot in the variable's rotation; every clause becomes a hexagon with
six ports.  Crossed connector edges tie each copy's two outward vertices to
the matching port pair, so the assembled graph inherits a genus-0 embedding
from the formula's.  The decision transfer: the formula is satisfiable iff
the assembled instance admits an acyclic orientation with odd in-degree
exactly on its marked set.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from oddorient.p3sat import (
    Formula,
    FormulaError,
    PlanarFormula,
    RotationSystem,
    clause_vertex,
    eval_formula,
    sat_oracle,
    validate_embedding,
    variable_vertex,
)
from oddorient.pdgraph import (
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    Vertex,
    _gc_paused,
    is_acyclic,
    is_T_odd_on,
    parity_feasible,
)
from oddorient.solver import SolveResult, decide, enumerate as sweep


class GadgetError(ValueError):
    """Raised when an orientation does not decompose along gadget lines."""


# one gadget copy: two outward vertices (u, uh), a six-vertex chain between
# them, and a four-vertex return chain closing the parity plumbing
CORE_NAMES = ("u", "a", "b", "c", "d", "uh", "s", "e", "f", "t")
CORE_EDGES = (
    ("u", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "uh"),
    ("s", "e"), ("e", "f"), ("f", "t"),
)
CORE_ARCS = (("a", "s"), ("e", "b"), ("f", "c"), ("d", "t"))
CORE_ODD = ("u", "a", "b", "c", "d", "s", "e", "f", "t")   # everything but uh

HEX_NAMES = ("w1", "wh1", "w2", "wh2", "w3", "wh3")
PORT_NAMES = ("v1", "vh1", "v2", "vh2", "v3", "vh3")
HEX_EDGES = (
    ("w1", "wh1"), ("wh1", "w2"), ("w2", "wh2"),
    ("wh2", "w3"), ("w3", "wh3"), ("wh3", "w1"),
)
MATCH_EDGES = (
    ("v1", "w1"), ("vh1", "wh1"), ("v2", "w2"),
    ("vh2", "wh2"), ("v3", "w3"), ("vh3", "wh3"),
)


@dataclass(frozen=True)
class GadgetRegistry:
    """Bijective map between artifact vertex ids and human-readable labels."""

    to_label: dict[Vertex, str]
    to_vertex: dict[str, Vertex]

    @classmethod
    def build(cls, pairs: Iterable[tuple[Vertex, str]]) -> "GadgetRegistry":
        to_label: dict[Vertex, str] = {}
        to_vertex: dict[str, Vertex] = {}
        for v, s in pairs:
            if v in to_label or s in to_vertex:
                raise GadgetError(f"registry collision at {v} / {s}")
            to_label[v] = s
            to_vertex[s] = v
        return cls(to_label=to_label, to_vertex=to_vertex)

    def label(self, v: Vertex) -> str:
        return self.to_label[v]

    def vertex(self, label: str) -> Vertex:
        return self.to_vertex[label]

    def bijective(self) -> bool:
        return all(self.to_vertex[s] == v for v, s in self.to_label.items()) and len(
            self.to_label
        ) == len(self.to_vertex)


def _names_to_ids(names: Sequence[str], base: int) -> dict[str, Vertex]:
    return {name: base + i for i, name in enumerate(names)}


# -- layout: each gadget kind is laid by one routine, on the ids it is given,
# for the stand-alone builders and the assembly alike


def _lay_core(ids: dict[str, Vertex], edges: list, arcs: list, odd: list) -> None:
    """Append one copy core's edges, fixed arcs and marks."""
    edges.extend((ids[x], ids[y]) for x, y in CORE_EDGES)
    arcs.extend((ids[x], ids[y]) for x, y in CORE_ARCS)
    odd.extend(ids[x] for x in CORE_ODD)


def _lay_ring(
    copies: Sequence[dict[str, Vertex]], edges: list, arcs: list, odd: list
) -> tuple[tuple[Vertex, Vertex], ...]:
    """Append a ring of copy cores and its links t -> next s; return the links."""
    for ids in copies:
        _lay_core(ids, edges, arcs, odd)
    links = tuple(
        (c["t"], copies[(k + 1) % len(copies)]["s"]) for k, c in enumerate(copies)
    )
    edges.extend(links)
    return links


def _lay_clause(
    ids: dict[str, Vertex], polarities: Iterable[bool], edges: list, odd: list
) -> None:
    """Append a clause's hexagon and matching edges, and its marks: every
    hexagon vertex, and a slot's two ports iff its literal is positive."""
    edges.extend((ids[x], ids[y]) for x, y in HEX_EDGES + MATCH_EDGES)
    odd.extend(ids[x] for x in HEX_NAMES)
    for p, positive in zip((1, 2, 3), polarities):
        if positive:
            odd.extend((ids[f"v{p}"], ids[f"vh{p}"]))


def _port_arcs(
    ids: dict[str, Vertex], p: int
) -> tuple[tuple[Vertex, Vertex], tuple[Vertex, Vertex]]:
    """Slot p's port pair pointing into the hexagon: (v_p, w_p), (vh_p, wh_p)."""
    return ((ids[f"v{p}"], ids[f"w{p}"]), (ids[f"vh{p}"], ids[f"wh{p}"]))


def attach_stubs(
    problem: OrientationProblem, attach: Sequence[Vertex]
) -> tuple[OrientationProblem, tuple[Vertex, ...]]:
    """Add one fresh outside neighbor per listed vertex, as undirected edges.

    The outside vertices are not in the odd set; scoped enumeration over the
    result sweeps all boundary patterns of the original core.
    """
    g = problem.graph
    nxt = max(g.vertices) + 1
    outside = []
    edges = set(g.edges)
    for v in attach:
        if v not in g.vertices:
            raise GraphError(f"cannot attach a stub at missing vertex {v}")
        edges.add((v, nxt) if v < nxt else (nxt, v))
        outside.append(nxt)
        nxt += 1
    graph = PartiallyDirectedGraph.build(
        set(g.vertices) | set(outside), edges, g.arcs
    )
    return OrientationProblem.build(graph, problem.odd_set), tuple(outside)


@dataclass(frozen=True)
class BaseGadget:
    problem: OrientationProblem
    ids: dict[str, Vertex]
    # the outside vertex of the stub at each of u, uh, s and t
    stubs: dict[str, Vertex]
    # the two acyclic T-odd orientations of the core with those four stubs
    modes: tuple[Orientation, Orientation]


@functools.cache
def build_base_gadget() -> BaseGadget:
    """The 10-vertex core on ids 0..9, self-checked at first construction.

    The self-check attaches four stubs (at u, uh, s, t) and sweeps all 2^12
    orientations.  It asserts that exactly two are acyclic with odd
    in-degree on the core's marked set, that they are flips of each other on
    the core edges, and that in each the s and t stubs point opposite ways:
    a copy's t stub stands for the link into the next copy's s, so copies
    chain round a ring in one mode.  The gadget keeps the two orientations
    as its ``modes``.
    """
    ids = _names_to_ids(CORE_NAMES, 0)
    edges, arcs, odd = [], [], []
    _lay_core(ids, edges, arcs, odd)
    graph = PartiallyDirectedGraph.build(ids.values(), edges, arcs)
    problem = OrientationProblem.build(graph, odd)
    boundary = ("u", "uh", "s", "t")
    gamma, outside = attach_stubs(problem, [ids[x] for x in boundary])
    stubs = dict(zip(boundary, outside))
    report = sweep(gamma, scope=set(ids.values()), witness_cap=4)
    if report.total_valid != 2:
        raise AssertionError(
            f"base gadget sanity sweep found {report.total_valid} orientations"
        )
    first, second = report.witnesses
    for x, y in CORE_EDGES:
        arc = (ids[x], ids[y])
        if (arc in first.arcs) == (arc in second.arcs):
            raise AssertionError(f"base gadget modes agree at {x}-{y}")
    for mode in (first, second):
        s_out, t_out = ((ids[x], stubs[x]) in mode.arcs for x in ("s", "t"))
        if s_out == t_out:
            raise AssertionError("base gadget s and t stubs point the same way")
    return BaseGadget(problem=problem, ids=ids, stubs=stubs, modes=(first, second))


@dataclass(frozen=True)
class VariableGadget:
    problem: OrientationProblem
    copies: int
    # per copy: name -> vertex id
    ids: tuple[dict[str, Vertex], ...]
    link_edges: tuple[tuple[Vertex, Vertex], ...]

    @property
    def stub_pairs(self) -> tuple[tuple[Vertex, Vertex], ...]:
        return tuple((c["u"], c["uh"]) for c in self.ids)


def build_variable_gadget(copies: int) -> VariableGadget:
    """A ring of `copies` gadget cores, consecutive copies joined t -> next s.

    With one stub on every outward vertex, the ring has exactly two
    orientations that are acyclic and odd exactly on its marked set, and
    their boundaries are uniform and opposite: all stubs outward, or all
    inward.
    """
    if copies < 1:
        raise GadgetError("a variable gadget needs at least one copy")
    build_base_gadget()   # the copy core's self-check
    ids = tuple(_names_to_ids(CORE_NAMES, 10 * k) for k in range(copies))
    edges, arcs, odd = [], [], []
    links = _lay_ring(ids, edges, arcs, odd)
    graph = PartiallyDirectedGraph.build(
        [v for c in ids for v in c.values()], edges, arcs
    )
    return VariableGadget(
        problem=OrientationProblem.build(graph, odd),
        copies=copies,
        ids=ids,
        link_edges=links,
    )


@dataclass(frozen=True)
class ClauseGadget:
    problem: OrientationProblem
    polarities: tuple[bool, bool, bool]
    ids: dict[str, Vertex]

    @property
    def port_pairs(self) -> tuple[tuple[Vertex, Vertex], ...]:
        return tuple(
            (self.ids[f"v{p}"], self.ids[f"vh{p}"]) for p in (1, 2, 3)
        )

    @property
    def hexagon(self) -> tuple[Vertex, ...]:
        return tuple(self.ids[x] for x in HEX_NAMES)


def build_clause_gadget(polarities: Sequence[bool]) -> ClauseGadget:
    """A hexagon with a pendant port pair per slot, on ids 0..11.

    Hexagon vertices are always marked; a slot's two ports are marked iff its
    literal is positive.  A satisfied literal shows up as the port pair
    directing both matching edges into the hexagon.
    """
    pols = tuple(bool(p) for p in polarities)
    if len(pols) != 3:
        raise GadgetError("a clause gadget has exactly three slots")
    ids = _names_to_ids(HEX_NAMES + PORT_NAMES, 0)
    edges, odd = [], []
    _lay_clause(ids, pols, edges, odd)
    graph = PartiallyDirectedGraph.build(ids.values(), edges, [])
    return ClauseGadget(
        problem=OrientationProblem.build(graph, odd),
        polarities=pols,
        ids=ids,
    )


# -- assembly --------------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """The assembled instance, its embedding, and the naming needed to read
    orientations back as assignments."""

    formula: Formula
    source: PlanarFormula
    problem: OrientationProblem
    rotation: RotationSystem
    registry: GadgetRegistry
    # variable i -> copy k -> (name -> vertex)
    variable_ids: tuple[tuple[dict[str, Vertex], ...], ...]
    # clause j -> (name -> vertex)
    clause_ids: tuple[dict[str, Vertex], ...]
    # clause j -> slot p -> (variable, copy, polarity)
    slots: tuple[tuple[tuple[int, int, bool], ...], ...]


def _connectors(
    copy: dict[str, Vertex], ports: dict[str, Vertex], p: int
) -> tuple[tuple[Vertex, Vertex], tuple[Vertex, Vertex]]:
    """The two connector edges between a copy and slot p of its clause.

    They cross: u meets the hatted port and uh the plain one, which keeps
    the corridor between copy and clause planar.  Each pair is written copy
    side first, which is its direction when the copy runs in outward mode.
    The assembly lays the connectors and both back-maps read them through
    this one rule, walking the clause slots of the reduction.
    """
    return ((copy["u"], ports[f"vh{p}"]), (copy["uh"], ports[f"v{p}"]))


@_gc_paused
def assemble(planar: PlanarFormula) -> Reduction:
    """Build the orientation instance for a planar formula.

    Copy k of variable i serves the clause at position k of the variable's
    stored rotation; slot p of clause j serves the variable at position p of
    the clause's rotation.  Connectors are crossed (see `_connectors`) so
    the corridor between a copy and its clause stays planar.
    """
    formula = planar.formula
    rot = planar.rotation
    n = formula.variable_count
    m = formula.clause_count

    labels: list[tuple[Vertex, str]] = []
    edges: list[tuple[Vertex, Vertex]] = []
    arcs: list[tuple[Vertex, Vertex]] = []
    odd: list[Vertex] = []
    # rotation system: fixed chirality templates inside every gadget; all
    # cross-gadget junctions pass through degree-2 vertices
    orders: dict[Vertex, Sequence[Vertex]] = {}
    variable_ids: list[tuple[dict[str, Vertex], ...]] = []
    nxt = 0
    for i in range(n):
        d = len(rot.orders[variable_vertex(formula, i)])
        copies = tuple(_names_to_ids(CORE_NAMES, nxt + 10 * k) for k in range(d))
        nxt += 10 * d
        _lay_ring(copies, edges, arcs, odd)
        for k, c in enumerate(copies):
            labels.extend((c[name], f"x{i}.k{k}.{name}") for name in CORE_NAMES)
            prev_t = copies[(k - 1) % d]["t"]
            next_s = copies[(k + 1) % d]["s"]
            orders[c["a"]] = (c["b"], c["u"], c["s"])
            orders[c["b"]] = (c["c"], c["a"], c["e"])
            orders[c["c"]] = (c["d"], c["b"], c["f"])
            orders[c["d"]] = (c["uh"], c["c"], c["t"])
            orders[c["s"]] = (c["e"], c["a"], prev_t)
            orders[c["e"]] = (c["f"], c["b"], c["s"])
            orders[c["f"]] = (c["t"], c["c"], c["e"])
            orders[c["t"]] = (next_s, c["d"], c["f"])
        variable_ids.append(copies)

    # one slot per literal: the clause is laid from its slot row, then each
    # slot's connectors join the port pair to its copy
    clause_ids: list[dict[str, Vertex]] = []
    slots: list[tuple[tuple[int, int, bool], ...]] = []
    for j in range(m):
        ids = _names_to_ids(HEX_NAMES + PORT_NAMES, nxt)
        nxt += 12
        labels.extend(
            (ids[name], f"c{j}.{name}") for name in HEX_NAMES + PORT_NAMES
        )
        cv = clause_vertex(formula, j)
        polarity = dict(formula.clauses[j])
        row = tuple(
            (i, rot.position(variable_vertex(formula, i), cv), polarity[i])
            for i in rot.orders[cv]
        )
        _lay_clause(ids, (positive for _, _, positive in row), edges, odd)
        for p, (i, k, _) in zip((1, 2, 3), row):
            copy = variable_ids[i][k]
            (v, w), (vh, wh) = _port_arcs(ids, p)
            # the hexagon winds against the copy template's chirality; with
            # the crossed connectors this keeps every corridor twist-free
            orders[w] = (wh, v, ids[f"wh{(p - 2) % 3 + 1}"])
            orders[wh] = (ids[f"w{p % 3 + 1}"], vh, w)
            # each end of a connector has degree 2, its other link inside its
            # gadget; at degree 2 the rotation is immaterial
            inner = {copy["u"]: copy["a"], copy["uh"]: copy["d"], v: w, vh: wh}
            for a, b in _connectors(copy, ids, p):
                edges.append((a, b))
                orders[a], orders[b] = (inner[a], b), (inner[b], a)
        clause_ids.append(ids)
        slots.append(row)

    graph = PartiallyDirectedGraph.build(range(nxt), edges, arcs)
    problem = OrientationProblem.build(graph, odd)
    rotation = RotationSystem.build(orders)

    return Reduction(
        formula=formula,
        source=planar,
        problem=problem,
        rotation=rotation,
        registry=GadgetRegistry.build(labels),
        variable_ids=tuple(variable_ids),
        clause_ids=tuple(clause_ids),
        slots=tuple(slots),
    )


# -- structural validation ---------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    ok: bool
    problems: tuple[str, ...]
    vertices: int
    edges: int
    arcs: int
    marked: int
    faces: int


@_gc_paused
def structural_check(red: Reduction) -> StructuralReport:
    """Invariants every assembled instance must satisfy, reported not assumed.

    A rotation system that does not fit the graph is one more problem, and
    then no faces are counted."""
    problems: list[str] = []
    g = red.problem.graph
    m = red.formula.clause_count
    total_copies = sum(len(c) for c in red.variable_ids)

    if len(g.vertices) != 10 * total_copies + 12 * m:
        problems.append("vertex count off")
    if len(g.edges) != 9 * total_copies + 18 * m:
        problems.append("edge count off")
    if len(g.arcs) != 4 * total_copies:
        problems.append("arc count off")
    if total_copies != 3 * m:
        problems.append("copy count is not three per clause")

    if not parity_feasible(red.problem):
        problems.append("parity gate violated")

    degree = Counter(chain.from_iterable(chain(g.edges, g.arcs)))
    odd = red.problem.odd_set
    # a vertex the registry misses goes by its id
    label = red.registry.to_label.get
    for v in sorted(
        v for v in g.vertices if degree[v] > 3 or (degree[v] != 2 and v not in odd)
    ):
        deg = degree[v]
        if deg > 3:
            problems.append(f"degree {deg} at {label(v, v)}")
        if v not in odd and deg != 2:
            problems.append(f"unmarked vertex {label(v, v)} has degree {deg}")

    if not red.registry.bijective():
        problems.append("registry is not bijective")
    if red.registry.to_label.keys() != g.vertices:
        problems.append("registry does not cover the vertex set")

    faces = 0
    try:
        report = validate_embedding(g, red.rotation)
    except (FormulaError, GraphError) as exc:
        problems.append(f"rotation system does not fit the graph: {exc}")
    else:
        faces = report.face_count
        if not report.valid:
            problems.append("rotation system is not genus zero")

    # connectors may only join outward copy vertices to ports
    owner: dict[Vertex, tuple[str, int]] = {}
    for i, copies in enumerate(red.variable_ids):
        for ids in copies:
            owner.update(dict.fromkeys(ids.values(), ("x", i)))
    for j, ids in enumerate(red.clause_ids):
        owner.update(dict.fromkeys(ids.values(), ("c", j)))
    # an edge inside one gadget is never a problem
    for u, v in sorted(e for e in g.edges if owner.get(e[0]) != owner.get(e[1])):
        if u not in owner or v not in owner:
            problems.append(f"edge at a vertex of no gadget: {u}-{v}")
            continue
        ku, kv = owner[u][0], owner[v][0]
        if ku == kv == "c":
            problems.append(f"edge joins two clauses: {u}-{v}")
        if ku == kv == "x":
            problems.append(f"edge joins two variables: {u}-{v}")
        if ku != kv:
            lu, lv = red.registry.label(u), red.registry.label(v)
            names = {lu.rsplit(".", 1)[1], lv.rsplit(".", 1)[1]}
            if not (names <= {"u", "vh1", "vh2", "vh3"} or
                    names <= {"uh", "v1", "v2", "v3"}):
                problems.append(f"stray connector {lu}-{lv}")

    return StructuralReport(
        ok=not problems,
        problems=tuple(problems),
        vertices=len(g.vertices),
        edges=len(g.edges),
        arcs=len(g.arcs),
        marked=len(red.problem.odd_set),
        faces=faces,
    )


# -- orientations from assignments and back ----------------------------------


@functools.cache
def _mode_template() -> dict[str, tuple[str, str]]:
    """Arc directions inside one copy when every stub points outward.

    Read off the base gadget's mode whose u and uh stubs point out; the
    all-inward mode is its flip.  Keys are undirected name pairs plus "link"
    for the edge t - next s, which runs as the t stub does.
    """
    base = build_base_gadget()
    ids, stubs = base.ids, base.stubs
    (mode,) = [
        m for m in base.modes
        if {(ids["u"], stubs["u"]), (ids["uh"], stubs["uh"])} <= m.arcs
    ]
    template = {
        f"{x}-{y}": (x, y) if (ids[x], ids[y]) in mode.arcs else (y, x)
        for x, y in CORE_EDGES
    }
    template["link"] = ("t", "s") if (ids["t"], stubs["t"]) in mode.arcs else ("s", "t")
    return template


def _copy_arcs(ids: dict[str, Vertex], next_s: Vertex, out_mode: bool):
    """Directed core and link edges of one copy in the requested mode."""
    template = _mode_template()
    out = []
    for x, y in CORE_EDGES:
        a, b = template[f"{x}-{y}"]
        if not out_mode:
            a, b = b, a
        out.append((ids[a], ids[b]))
    a, b = template["link"]
    pair = (ids["t"], next_s) if (a, b) == ("t", "s") else (next_s, ids["t"])
    if not out_mode:
        pair = (pair[1], pair[0])
    out.append(pair)
    return out


def orientation_from_assignment(
    red: Reduction, assignment: Sequence[bool]
) -> Orientation:
    """The canonical witness orientation for a satisfying assignment.

    True variables run in outward mode, false ones inward, and each clause
    slot's port pair passes its literal's value to the hexagon: it points in
    when the literal is satisfied.  Every hexagon vertex is marked, so one
    whose port points in needs both or neither ring edge in, and the ring
    turns there; one whose port points out owes one ring in-arc, and the
    ring keeps its direction.  A hexagon is a cycle of edges, so these
    constraints leave exactly two completions, each the other's reverse
    (Chevalier, Jaeger, Payan and Xuong 1983).  Each slot turns the ring at
    both of its hexagon vertices or at neither, so the turns are even in
    number and both completions close; a satisfied slot turns it at least
    twice, so neither completion is a directed cycle.  The witness takes the
    completion whose sorted arcs come first.  Raises GadgetError when some
    clause is unsatisfied: its ring never turns, and both completions are
    cycles.
    """
    formula = red.formula
    if len(assignment) != formula.variable_count:
        raise GadgetError("assignment must be total")
    directed: list[tuple[Vertex, Vertex]] = []
    for i in range(formula.variable_count):
        copies = red.variable_ids[i]
        d = len(copies)
        for k in range(d):
            next_s = copies[(k + 1) % d]["s"]
            directed.extend(_copy_arcs(copies[k], next_s, bool(assignment[i])))

    for j, ids in enumerate(red.clause_ids):
        turns: set[Vertex] = set()
        for p, (i, k, positive) in zip((1, 2, 3), red.slots[j]):
            out_mode = bool(assignment[i])
            for a, b in _connectors(red.variable_ids[i][k], ids, p):
                directed.append((a, b) if out_mode else (b, a))
            pair = _port_arcs(ids, p)
            if out_mode == positive:
                directed.extend(pair)
                turns.update(w for _, w in pair)
            else:
                directed.extend((b, a) for a, b in pair)
        if not turns:
            raise GadgetError(f"assignment leaves clause {j} unsatisfied")
        hexagon = [ids[x] for x in HEX_NAMES]
        ring: list[tuple[Vertex, Vertex]] = []
        forward = True
        for q in range(6):
            # vertex q joins ring edges q-1 and q
            if q and hexagon[q] in turns:
                forward = not forward
            a, b = hexagon[q], hexagon[(q + 1) % 6]
            ring.append((a, b) if forward else (b, a))
        directed.extend(min(sorted(ring), sorted((b, a) for a, b in ring)))

    return Orientation.of(red.problem.graph, directed)


def assignment_from_orientation(
    red: Reduction, orientation: Orientation
) -> tuple[bool, ...]:
    """Read each variable's mode off the connectors of its clause slots.

    A variable votes True for each connector pointing from its copy into
    the port (outward mode) and False for each pointing back.  A variable
    in no clause has no copy and no vote, and reads False.  Raises
    GadgetError when a connector is left undirected or a variable's votes
    disagree, i.e. the orientation is not in gadget normal form.
    """
    directs = orientation.arcs
    votes: list[set[bool]] = [set() for _ in range(red.formula.variable_count)]
    for j, ids in enumerate(red.clause_ids):
        for p, (i, k, _) in zip((1, 2, 3), red.slots[j]):
            for a, b in _connectors(red.variable_ids[i][k], ids, p):
                if (a, b) in directs:
                    votes[i].add(True)
                elif (b, a) in directs:
                    votes[i].add(False)
                else:
                    raise GadgetError("connector left undirected in witness")
    for i, vote in enumerate(votes):
        if len(vote) > 1:
            raise GadgetError(
                f"variable {i} has mixed stub directions; not a gadget witness"
            )
    return tuple(vote == {True} for vote in votes)


def clause_boundary_class(
    red: Reduction, orientation: Orientation, j: int
) -> int:
    """How many of clause j's slots point their full port pair inward."""
    directs = set(orientation.arcs)
    ids = red.clause_ids[j]
    inward = 0
    for p in (1, 2, 3):
        a, b = (arc in directs for arc in _port_arcs(ids, p))
        if a != b:
            raise GadgetError(
                f"clause {j} slot {p} has a split port pair; not a gadget witness"
            )
        inward += 1 if a else 0
    return inward


def verify_equivalence(planar: PlanarFormula, *, budget: int = 10_000_000) -> dict:
    """Decide the formula twice: by assignment sweep and by orientation.

    Returns {"sat", "orientation_feasible", "agree"} plus witness detail.
    When both sides produce witnesses, each is checked in full: the
    assignment satisfies the formula, the orientation is acyclic, odd
    exactly on the marked set, and reads back to a satisfying assignment.
    """
    red = assemble(planar)
    witness = sat_oracle(planar.formula)
    res: SolveResult = decide(red.problem, budget=budget)
    sat = witness is not None
    feasible = res.feasible
    agree = sat == feasible

    if sat:
        built = orientation_from_assignment(red, witness)
        if not is_T_odd_on(red.problem, built):
            agree = False
        if not is_acyclic(built.arcs).acyclic:
            agree = False
    if feasible and res.witness is not None:
        back = assignment_from_orientation(red, res.witness)
        if not eval_formula(planar.formula, back):
            agree = False

    return {
        "sat": sat,
        "orientation_feasible": feasible,
        "agree": agree,
        "assignment": witness,
        "decisions": res.decisions,
    }
