"""Reading and writing instances, formulas, witnesses, and DOT exports.

Instances and witnesses travel as JSON documents with a canonical writer:
vertex records sorted by id, links in lexicographic order, keys sorted, and
one compact layout (no whitespace between tokens, one trailing newline), so
structurally equal problems serialize to identical bytes.  The readers take
any JSON layout of the same document, so an indented or pretty-printed copy
reads back to the same bundle.  Formulas travel as DIMACS CNF text extended
with ``r`` rotation lines (one per incidence vertex, neighbors in cyclic
order) that standard DIMACS consumers ignore.
"""

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Union

from .p3sat import (
    Formula,
    FormulaError,
    PlanarFormula,
    RotationSystem,
)
from .pdgraph import (
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    Vertex,
    _gc_paused,
    canonical_edge,
)
from .reduction import GadgetError, GadgetRegistry

INSTANCE_FORMAT = "oddorient-instance"
WITNESS_FORMAT = "oddorient-witness"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """A document failed to parse or validate."""


@dataclass(frozen=True)
class InstanceBundle:
    """An instance document's payload: the problem plus optional extras."""

    problem: OrientationProblem
    rotation: Optional[RotationSystem] = None
    registry: Optional[GadgetRegistry] = None
    formula: Optional[Formula] = None


def _text(data: Union[bytes, str]) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: byte {exc.start}") from exc


def _json(data: Union[bytes, str]):
    """The parsed JSON document; nesting deeper than the parser's recursion
    limit is refused like any other malformed text."""
    try:
        return json.loads(_text(data))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: line {exc.lineno} col {exc.colno}") from exc
    except RecursionError as exc:
        raise FormatError("not valid JSON: nested too deeply") from exc


# -- instance JSON ----------------------------------------------------------------


@_gc_paused
def write_instance(
    problem: OrientationProblem,
    *,
    rotation: Optional[RotationSystem] = None,
    registry: Optional[GadgetRegistry] = None,
    formula: Optional[Formula] = None,
) -> bytes:
    """Canonical JSON bytes for the problem and any attached sections.

    The layout is compact (keys sorted, no whitespace between tokens, one
    trailing newline); ``read_instance`` also reads indented copies.
    """
    g = problem.graph
    vertices = []
    for v in sorted(g.vertices):
        rec: dict = {"id": v, "in_T": v in problem.odd_set}
        if registry is not None and v in registry.to_label:
            rec["label"] = registry.to_label[v]
        vertices.append(rec)
    doc: dict = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "vertices": vertices,
        "edges": sorted(g.edges),
        "arcs": sorted(g.arcs),
    }
    if rotation is not None:
        doc["rotation"] = [[v, rotation.orders[v]] for v in sorted(rotation.orders)]
    if formula is not None:
        doc["formula"] = {
            "variables": formula.variable_count,
            "clauses": [
                [[var, bool(pol)] for var, pol in clause]
                for clause in formula.clauses
            ],
        }
    return _canonical_bytes(doc)


def _canonical_bytes(doc: dict) -> bytes:
    """The one canonical layout: sorted keys, no whitespace, one trailing
    newline.  ``json`` takes its C encoder only when ``indent`` is None.
    Every document is built fresh and no container in it holds itself, so
    the encoder's cycle check is skipped."""
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    ).encode()


def _check_version(doc: dict) -> None:
    """Turn away a document whose ``version`` is missing or not this one
    (``type(...) is int`` also turns away ``true`` and ``1.0``)."""
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unrecognized format version {version!r}")


def _vertex_pairs(raw, section: str) -> list[tuple[Vertex, Vertex]]:
    """The ``[u, v]`` entries of a link list as tuples of integer ids
    (``type(...) is int`` also turns away JSON booleans)."""
    if type(raw) is not list:
        raise FormatError(f"{section} must be a list of [u, v] pairs")
    pairs = []
    for item in raw:
        if (type(item) is not list or len(item) != 2
                or type(item[0]) is not int or type(item[1]) is not int):
            raise FormatError(
                f"malformed entry {item!r} in {section}: need [u, v] with integer ids"
            )
        pairs.append((item[0], item[1]))
    return pairs


def _normalize_links(raw_edges, raw_arcs):
    """Collapse parallel links per the multigraph reduction.

    An even bundle of parallel edges is parity-neutral and removable; an odd
    bundle collapses to a single edge.  Fixed arcs cannot be dropped, so only
    odd same-direction bundles collapse and an even one is refused, as is a
    pair that carries both an edge and an arc.  Loops are kept whatever their
    count, so that ``PartiallyDirectedGraph.build`` refuses them with every
    other broken link.
    """
    edge_count = Counter(canonical_edge(u, v) for u, v in raw_edges)
    arc_count = Counter(raw_arcs)
    mixed = {canonical_edge(u, v) for u, v in arc_count} & edge_count.keys()
    if mixed:
        u, v = min(mixed)
        raise FormatError(f"both an edge and an arc between {u} and {v}")
    even = [(u, v) for (u, v), k in arc_count.items() if k % 2 == 0 and u != v]
    if even:
        pair = min(even)
        raise FormatError(
            f"even bundle of {arc_count[pair]} fixed arcs {pair} has no simple equivalent"
        )
    edges = [(u, v) for (u, v), k in edge_count.items() if k % 2 == 1 or u == v]
    return edges, list(arc_count)


@_gc_paused
def read_instance(data: Union[bytes, str], *, normalize_multi: bool = False) -> InstanceBundle:
    """Parse and validate an instance document.

    Any JSON layout of the document reads, the canonical compact one as well
    as an indented one.  With ``normalize_multi`` the document may contain
    parallel links, which are collapsed to an equivalent simple instance
    before validation.  ``PartiallyDirectedGraph.build`` checks the graph
    rules, and every refusal is a ``FormatError``.
    """
    doc = _json(data)
    if not isinstance(doc, dict) or doc.get("format") != INSTANCE_FORMAT:
        raise FormatError("not an instance document")
    _check_version(doc)

    try:
        records = list(doc["vertices"])
        raw_edges = _vertex_pairs(doc["edges"], "edges")
        raw_arcs = _vertex_pairs(doc["arcs"], "arcs")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"missing or malformed section: {exc}") from exc

    ids = []
    odd = []
    labels = []
    for rec in records:
        if not isinstance(rec, dict) or "id" not in rec:
            raise FormatError(f"malformed vertex record {rec!r}")
        v = rec["id"]
        if type(v) is not int:
            raise FormatError(f"vertex id {v!r} is not an integer")
        ids.append(v)
        in_t = rec.get("in_T", False)
        if type(in_t) is not bool:
            raise FormatError(f"in_T of vertex {v} is not a boolean")
        if in_t:
            odd.append(v)
        if "label" in rec:
            if type(rec["label"]) is not str:
                raise FormatError(f"label of vertex {v} is not a string")
            labels.append((v, rec["label"]))
    vertices = frozenset(ids)
    if len(vertices) != len(ids):
        raise FormatError("duplicate vertex ids")

    if normalize_multi:
        raw_edges, raw_arcs = _normalize_links(raw_edges, raw_arcs)
    try:
        graph = PartiallyDirectedGraph.build(vertices, raw_edges, raw_arcs)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
    problem = OrientationProblem(graph=graph, odd_set=frozenset(odd))

    rotation = None
    if "rotation" in doc:
        rotation = _rotation_section(doc["rotation"], vertices)
    registry = None
    if labels:
        try:
            registry = GadgetRegistry.build(labels)
        except GadgetError as exc:
            raise FormatError(str(exc)) from exc
    formula = None
    if "formula" in doc:
        formula = _formula_section(doc["formula"])
    return InstanceBundle(problem, rotation, registry, formula)


def _rotation_section(raw, vertices: frozenset[Vertex]) -> RotationSystem:
    """The rotation system of a ``[v, [neighbors...]]`` list: each vertex at
    most once, every id a vertex of the graph, no neighbor repeated."""
    if type(raw) is not list:
        raise FormatError("rotation must be a list of [v, [neighbors...]] entries")
    orders: dict[Vertex, list[Vertex]] = {}
    for item in raw:
        if (type(item) is not list or len(item) != 2 or type(item[0]) is not int
                or type(item[1]) is not list or set(map(type, item[1])) - {int}):
            raise FormatError(
                f"malformed rotation entry {item!r}: need [v, [neighbors...]] "
                "with integer ids"
            )
        v, order = item
        if v in orders:
            raise FormatError(f"repeated rotation for vertex {v}")
        orders[v] = order
    if not (vertices.issuperset(orders)
            and vertices.issuperset(chain.from_iterable(orders.values()))):
        stray = set(orders).union(*orders.values()) - vertices
        raise FormatError(f"rotation names non-vertices: {sorted(stray)}")
    try:
        return RotationSystem.build(orders)
    except FormulaError as exc:
        raise FormatError(str(exc)) from exc


def _formula_section(raw) -> Formula:
    """The formula of a formula section, once its variable count is an
    integer and its literals are [integer, boolean] pairs; ``Formula.build``
    checks the rest."""
    if type(raw) is not dict or "variables" not in raw or "clauses" not in raw:
        raise FormatError("formula must have 'variables' and 'clauses'")
    variables, clauses = raw["variables"], raw["clauses"]
    if type(variables) is not int or variables < 0:
        raise FormatError(f"formula variable count {variables!r} is not a count")
    if type(clauses) is not list:
        raise FormatError("formula clauses must be a list")
    for clause in clauses:
        if type(clause) is not list or not all(
            type(lit) is list and len(lit) == 2
            and type(lit[0]) is int and type(lit[1]) is bool
            for lit in clause
        ):
            raise FormatError(
                f"malformed clause {clause!r}: need [variable, polarity] literals"
            )
    return _checked_formula(variables, clauses)


def _checked_formula(variable_count: int, clauses) -> Formula:
    try:
        return Formula.build(variable_count, clauses)
    except FormulaError as exc:
        raise FormatError(str(exc)) from exc


# -- witness JSON -----------------------------------------------------------------


@_gc_paused
def write_witness(orientation: Orientation) -> bytes:
    """Canonical JSON bytes of the orientation's arcs, in the instance layout."""
    doc = {
        "format": WITNESS_FORMAT,
        "version": FORMAT_VERSION,
        "arcs": sorted(orientation.arcs),
    }
    return _canonical_bytes(doc)


def read_witness(data: Union[bytes, str], problem: OrientationProblem) -> Orientation:
    """Parse a witness document and bind it to the problem's graph."""
    doc = _json(data)
    if not isinstance(doc, dict) or doc.get("format") != WITNESS_FORMAT:
        raise FormatError("not a witness document")
    _check_version(doc)
    arcs = set(_vertex_pairs(doc.get("arcs", []), "arcs"))
    directed = [a for a in arcs if a not in problem.graph.arcs]
    fixed = arcs - set(directed)
    if fixed != set(problem.graph.arcs):
        raise FormatError("witness does not include the instance's fixed arcs")
    return Orientation.of(problem.graph, directed)


# -- formula text -----------------------------------------------------------------


def write_formula(formula: Union[Formula, PlanarFormula]) -> bytes:
    """DIMACS body (1-based signed literals) plus ``r`` rotation lines.

    Rotation lines use incidence-graph vertex ids: variables are 0..n-1 and
    clause j is n+j, matching the embedding produced by the generator.
    """
    rotation = None
    if isinstance(formula, PlanarFormula):
        rotation = formula.rotation
        formula = formula.formula
    lines = [f"p cnf {formula.variable_count} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lits = " ".join(
            str(var + 1 if pol else -(var + 1)) for var, pol in clause
        )
        lines.append(f"{lits} 0")
    if rotation is not None:
        for v in sorted(rotation.orders):
            order = " ".join(str(w) for w in rotation.orders[v])
            lines.append(f"r {v} {order}")
    return ("\n".join(lines) + "\n").encode()


def read_formula(data: Union[bytes, str]) -> Union[Formula, PlanarFormula]:
    """Parse a formula document; with rotation lines, validate the embedding."""
    data = _text(data)
    header = None
    clauses = []
    orders: dict[Vertex, tuple[Vertex, ...]] = {}
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise FormatError(f"line {lineno}: second header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: malformed header {line!r}") from exc
            if min(header) < 0:
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            continue
        if line.startswith("r"):
            parts = line.split()
            try:
                v, order = int(parts[1]), tuple(int(w) for w in parts[2:])
            except (IndexError, ValueError) as exc:
                raise FormatError(f"line {lineno}: malformed rotation line") from exc
            if v in orders:
                raise FormatError(f"line {lineno}: repeated rotation for {v}")
            orders[v] = order
            continue
        if header is None:
            raise FormatError(f"line {lineno}: clause before header")
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: malformed literal") from exc
        if not lits or lits[-1] != 0:
            raise FormatError(f"line {lineno}: clause missing trailing 0")
        lits = lits[:-1]
        if len(lits) != 3:
            raise FormatError(f"line {lineno}: clause arity {len(lits)}, need 3")
        if 0 in lits:
            raise FormatError(f"line {lineno}: literal 0 inside clause")
        seen = {abs(l) for l in lits}
        if len(seen) != 3:
            if any(-l in lits for l in lits):
                raise FormatError(
                    f"line {lineno}: clause has a variable and its negation"
                )
            raise FormatError(f"line {lineno}: repeated variable in clause")
        clauses.append(tuple((abs(l) - 1, l > 0) for l in lits))
    if header is None:
        raise FormatError("no header line")
    n, m = header
    if len(clauses) != m:
        raise FormatError(f"header promises {m} clauses, found {len(clauses)}")
    formula = _checked_formula(n, clauses)
    if not orders:
        return formula
    # the incidence vertices are 0..n+m-1; a header count is not spelled out
    # as a set, since it may be far larger than the document
    if len(orders) != n + m or not all(0 <= v < n + m for v in orders):
        raise FormatError("rotation lines do not cover the incidence vertices")
    try:
        return PlanarFormula.build(formula, RotationSystem.build(orders))
    except FormulaError as exc:
        raise FormatError(str(exc)) from exc


# -- DOT export -------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    problem: OrientationProblem,
    orientation: Optional[Orientation] = None,
    registry: Optional[GadgetRegistry] = None,
) -> bytes:
    """Graphviz rendering: marked vertices filled black, others white.

    Fixed arcs are always drawn directed; undirected edges are drawn without
    arrowheads unless an orientation supplies their directions.  With a
    registry, vertices group into clusters by label prefix (up to the first
    dot), which separates the gadgets of an assembled artifact.
    """
    g = problem.graph
    lines = ["digraph oddorient {", " node [shape=circle];"]

    def node_line(v: Vertex) -> str:
        if v in problem.odd_set:
            style = "style=filled fillcolor=black fontcolor=white"
        else:
            style = "style=filled fillcolor=white"
        label = ""
        if registry is not None and v in registry.to_label:
            label = f" label={_dot_quote(registry.to_label[v])}"
        return f" {v} [{style}{label}];"

    if registry is None:
        for v in sorted(g.vertices):
            lines.append(node_line(v))
    else:
        groups: dict[str, list[Vertex]] = {}
        loose = []
        for v in sorted(g.vertices):
            if v in registry.to_label:
                prefix = registry.to_label[v].split(".", 1)[0]
                groups.setdefault(prefix, []).append(v)
            else:
                loose.append(v)
        for prefix in sorted(groups):
            lines.append(f" subgraph {_dot_quote('cluster_' + prefix)} {{")
            lines.append(f"  label={_dot_quote(prefix)};")
            for v in groups[prefix]:
                lines.append(" " + node_line(v))
            lines.append(" }")
        for v in loose:
            lines.append(node_line(v))

    for u, v in sorted(g.edges):
        if orientation is None:
            lines.append(f" {u} -> {v} [dir=none];")
        elif orientation.directs(u, v):
            lines.append(f" {u} -> {v};")
        else:
            lines.append(f" {v} -> {u};")
    for u, v in sorted(g.arcs):
        lines.append(f" {u} -> {v};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()
