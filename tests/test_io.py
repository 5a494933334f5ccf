"""Tests for document parsing, canonical writing, and DOT export."""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddorient.io import (
    FormatError,
    export_dot,
    read_formula,
    read_instance,
    read_witness,
    write_formula,
    write_instance,
    write_witness,
)
from oddorient.p3sat import Formula, PlanarFormula, RotationSystem, generate
from oddorient.pdgraph import (
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    extends,
    is_T_odd_on,
    validate,
)
from oddorient.reduction import (
    GadgetRegistry,
    assemble,
    build_base_gadget,
    build_clause_gadget,
    build_variable_gadget,
    orientation_from_assignment,
)
from oddorient.samples import sample_planar_formula
from oddorient.solver import decide

DATA = pathlib.Path(__file__).parent / "data"


def _layout(blob: bytes, **dumps_kwargs) -> bytes:
    """The same JSON document in another layout; ``indent=1, sort_keys=True``
    is the layout of earlier writers."""
    return (json.dumps(json.loads(blob), **dumps_kwargs) + "\n").encode()


def _problem(vertices, edges, arcs=(), odd=()):
    g = PartiallyDirectedGraph.build(vertices, edges, arcs)
    return OrientationProblem.build(g, odd)


class TestInstanceRoundTrip:
    def test_artifact_with_all_sections(self):
        red = assemble(sample_planar_formula())
        blob = write_instance(
            red.problem,
            rotation=red.rotation,
            registry=red.registry,
            formula=red.formula,
        )
        bundle = read_instance(blob)
        assert bundle.problem == red.problem
        assert bundle.rotation == red.rotation
        assert bundle.registry == red.registry
        assert bundle.formula == red.formula

    def test_indented_layout_reads_back(self):
        red = assemble(sample_planar_formula())
        blob = write_instance(
            red.problem, rotation=red.rotation, registry=red.registry,
            formula=red.formula,
        )
        assert blob == _layout(blob, sort_keys=True, separators=(",", ":"))
        bundle = read_instance(_layout(blob, indent=1, sort_keys=True))
        assert bundle == read_instance(blob)
        assert write_instance(
            bundle.problem, rotation=bundle.rotation, registry=bundle.registry,
            formula=bundle.formula,
        ) == blob

    def test_write_is_idempotent(self):
        p = _problem([0, 1, 2], [(0, 1)], [(1, 2)], [2])
        blob = write_instance(p)
        assert write_instance(read_instance(blob).problem) == blob

    def test_canonical_bytes_ignore_input_order(self):
        a = _problem([2, 0, 1], [(1, 0), (2, 1)], odd=[1, 0])
        b = _problem([0, 1, 2], [(1, 2), (0, 1)], odd=[0, 1])
        assert write_instance(a) == write_instance(b)

    def test_empty_document(self):
        p = _problem([], [])
        bundle = read_instance(write_instance(p))
        assert bundle.problem == p
        assert bundle.rotation is None
        assert bundle.registry is None

    def test_rejects_foreign_documents(self):
        with pytest.raises(FormatError):
            read_instance(b"{}")
        with pytest.raises(FormatError):
            read_instance(b"not json")
        with pytest.raises(FormatError, match="UTF-8"):
            read_instance(b'{"format": "\xff"}')
        doc = json.loads(write_instance(_problem([], [])))
        doc["version"] = 99
        with pytest.raises(FormatError):
            read_instance(json.dumps(doc))

    def test_rejects_duplicate_vertex_ids(self):
        doc = json.loads(write_instance(_problem([], [])))
        doc["vertices"] = [{"id": 0, "in_T": False}, {"id": 0, "in_T": True}]
        with pytest.raises(FormatError):
            read_instance(json.dumps(doc))


def _doc_with_links(edges, arcs):
    doc = json.loads(write_instance(_problem([], [])))
    ids = sorted({v for pair in list(edges) + list(arcs) for v in pair})
    doc["vertices"] = [{"id": v, "in_T": False} for v in ids]
    doc["edges"] = [list(e) for e in edges]
    doc["arcs"] = [list(a) for a in arcs]
    return json.dumps(doc)


class TestNormalizeMulti:
    def test_odd_bundle_collapses(self):
        b = read_instance(_doc_with_links([(0, 1)] * 3, []), normalize_multi=True)
        assert b.problem.graph.edges == frozenset({(0, 1)})

    def test_even_bundle_drops(self):
        b = read_instance(
            _doc_with_links([(0, 1), (1, 0), (1, 2)], []), normalize_multi=True
        )
        assert b.problem.graph.edges == frozenset({(1, 2)})

    def test_duplicates_rejected_without_flag(self):
        with pytest.raises(FormatError):
            read_instance(_doc_with_links([(0, 1), (0, 1)], []))

    def test_odd_arc_bundle_collapses(self):
        b = read_instance(_doc_with_links([], [(0, 1)] * 3), normalize_multi=True)
        assert b.problem.graph.arcs == frozenset({(0, 1)})

    def test_even_arc_bundle_rejected(self):
        with pytest.raises(FormatError):
            read_instance(_doc_with_links([], [(0, 1)] * 2), normalize_multi=True)

    def test_opposite_arcs_rejected(self):
        with pytest.raises(FormatError):
            read_instance(_doc_with_links([], [(0, 1), (1, 0)]), normalize_multi=True)

    def test_mixed_edge_and_arc_rejected(self):
        with pytest.raises(FormatError):
            read_instance(
                _doc_with_links([(0, 1)], [(1, 0)]), normalize_multi=True
            )

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError):
            read_instance(_doc_with_links([(0, 0)], []), normalize_multi=True)

    def test_even_bundle_of_loops_rejected(self):
        # a loop is refused at any count, not dropped as an even bundle
        with pytest.raises(FormatError, match="loop at 0"):
            read_instance(
                _doc_with_links([(0, 0), (0, 0), (0, 1)], []), normalize_multi=True
            )

    def test_edge_beside_an_arc_rejected_before_the_collapse(self):
        # the two edges are an even bundle, but an arc shares their pair
        with pytest.raises(FormatError, match="both an edge and an arc between 0 and 1"):
            read_instance(
                _doc_with_links([(0, 1), (1, 0)], [(0, 1)]), normalize_multi=True
            )


class TestStrictLinks:
    """Without ``normalize_multi``, every break of the graph rules is a
    ``FormatError`` worded by ``PartiallyDirectedGraph.build``."""

    @pytest.mark.parametrize("edges, arcs, message", [
        pytest.param([(0, 0), (0, 1)], [], "loop at 0", id="loop-edge"),
        pytest.param([(0, 1)], [(1, 1)], "loop at 1", id="loop-arc"),
        pytest.param([(0, 1), (1, 0)], [], "parallel links between 0 and 1, listed twice",
                     id="edge-twice"),
        pytest.param([], [(0, 1), (0, 1)], "parallel links between 0 and 1, listed twice",
                     id="arc-twice"),
        pytest.param([], [(0, 1), (1, 0)], "parallel links between 0 and 1",
                     id="opposite-arcs"),
        pytest.param([(0, 1)], [(1, 0)], "parallel links between 0 and 1",
                     id="edge-and-arc"),
    ])
    def test_rejected(self, edges, arcs, message):
        with pytest.raises(FormatError, match=message):
            read_instance(_doc_with_links(edges, arcs))

    @pytest.mark.parametrize("edges, arcs, message", [
        pytest.param([(0, 1), (1, 2)], [], "dangling endpoint 2 on edge 1-2", id="edge"),
        pytest.param([(0, 1)], [(2, 0)], "dangling endpoint 2 on arc 2->0", id="arc"),
    ])
    def test_dangling_endpoint_rejected(self, edges, arcs, message):
        doc = json.loads(_doc_with_links(edges, arcs))
        doc["vertices"] = [rec for rec in doc["vertices"] if rec["id"] != 2]
        with pytest.raises(FormatError, match=message):
            read_instance(json.dumps(doc))


class TestMalformedLinks:
    def test_edge_of_three_endpoints(self):
        doc = json.loads(_doc_with_links([(0, 1)], []))
        doc["edges"] = [[0, 1, 2]]
        with pytest.raises(FormatError, match="edges"):
            read_instance(json.dumps(doc))

    def test_string_vertex_ids(self):
        doc = json.loads(_doc_with_links([], []))
        doc["vertices"] = [{"id": "a", "in_T": False}, {"id": "b", "in_T": True}]
        with pytest.raises(FormatError, match="integer"):
            read_instance(json.dumps(doc))
        doc["edges"] = [["a", "b"]]
        with pytest.raises(FormatError, match="integer"):
            read_instance(json.dumps(doc))

    def test_witness_arc_not_a_pair(self):
        p = _problem([0, 1], [(0, 1)])
        with pytest.raises(FormatError, match="arcs"):
            read_witness(
                '{"format": "oddorient-witness", "version": 1, "arcs": [5]}', p
            )

    @pytest.mark.parametrize("version", [None, "x", 99, True, 1.0])
    def test_version_must_be_known(self, version):
        p = _problem([0, 1], [(0, 1)])
        docs = [
            json.loads(write_instance(p)),
            json.loads(write_witness(Orientation.of(p.graph, [(0, 1)]))),
        ]
        for doc in docs:
            if version is None:
                del doc["version"]
            else:
                doc["version"] = version
        with pytest.raises(FormatError, match="version"):
            read_instance(json.dumps(docs[0]))
        with pytest.raises(FormatError, match="version"):
            read_witness(json.dumps(docs[1]), p)


class TestMalformedSections:
    @pytest.mark.parametrize("section, value", [
        pytest.param("rotation", [5], id="rotation-entry-not-a-pair"),
        pytest.param("rotation", [[99, [0, 1]]], id="rotation-non-vertex"),
        pytest.param("formula", {}, id="formula-empty"),
        pytest.param("formula", {"variables": 2, "clauses": [5]}, id="formula-clause-not-a-list"),
        pytest.param("formula", {"variables": "x", "clauses": []}, id="formula-count-not-an-int"),
        pytest.param("label", [1], id="label-not-a-string"),
        pytest.param("in_T", "false", id="in-T-a-string"),
        pytest.param("in_T", 1, id="in-T-an-int"),
        pytest.param("labels", ["a", "a"], id="label-repeated"),
        pytest.param("rotation", [[0, [1, 1]], [1, [0]]], id="rotation-neighbor-repeated"),
        pytest.param("formula", {"variables": 2, "clauses": [[[0, True], [1, True], [2, False]]]},
                     id="formula-variable-out-of-range"),
        pytest.param("formula", {"variables": 3, "clauses": [[[0, True], [1, True]]]},
                     id="formula-clause-of-two-literals"),
    ])
    def test_rejected(self, section, value):
        doc = json.loads(_doc_with_links([(0, 1)], []))
        if section in ("label", "in_T"):
            doc["vertices"][0][section] = value
        elif section == "labels":
            for rec, label in zip(doc["vertices"], value):
                rec["label"] = label
        else:
            doc[section] = value
        with pytest.raises(FormatError):
            read_instance(json.dumps(doc))

    @pytest.mark.parametrize("section, value, message", [
        ("rotation", 5, "rotation must be a list of [v, [neighbors...]] entries"),
        ("formula", {"variables": 2, "clauses": 5}, "formula clauses must be a list"),
    ], ids=["rotation-not-a-list", "formula-clauses-not-a-list"])
    def test_non_list_section_named(self, section, value, message):
        doc = json.loads(_doc_with_links([(0, 1)], []))
        doc[section] = value
        with pytest.raises(FormatError) as err:
            read_instance(json.dumps(doc))
        assert str(err.value) == message


class TestWitness:
    def test_round_trip(self):
        red = assemble(sample_planar_formula())
        o = orientation_from_assignment(red, (False, False, True, False, False))
        blob = write_witness(o)
        assert read_witness(blob, red.problem) == o

    def test_indented_layout_reads_back(self):
        red = assemble(sample_planar_formula())
        o = orientation_from_assignment(red, (False, False, True, False, False))
        blob = write_witness(o)
        back = read_witness(_layout(blob, indent=1, sort_keys=True), red.problem)
        assert back == o
        assert write_witness(back) == blob

    def test_fixed_arcs_must_match(self):
        p = _problem([0, 1], [(0, 1)])
        o_doc = write_witness(
            orientation_from_assignment(
                assemble(sample_planar_formula()),
                (False, False, True, False, False),
            )
        )
        with pytest.raises((FormatError, GraphError)):
            read_witness(o_doc, p)


def _planted_tree(size: int, seed: int):
    """A random tree on ``size`` vertices with about a fifth of its links
    fixed, the odd set read off a random orientation of it, and that
    orientation."""
    rng = random.Random(seed)
    oriented = []
    for v in range(1, size):
        p = rng.randrange(v)
        oriented.append((v, p) if rng.random() < 0.5 else (p, v))
    fixed = [a for a in oriented if rng.random() < 0.2]
    edges = sorted(set(oriented) - set(fixed))
    odd: set = set()
    for _, h in oriented:
        odd ^= {h}
    graph = PartiallyDirectedGraph.build(range(size), edges, fixed)
    return OrientationProblem.build(graph, odd), Orientation.of(graph, edges)


def _gadget_blob(problem, ids) -> bytes:
    return write_instance(problem, registry=GadgetRegistry.build([(v, n) for n, v in ids]))


class TestCanonicalBytes:
    """Both writers give what ``json.dumps`` with sorted keys and compact
    separators gives for the document they write, cycle check included."""

    @staticmethod
    def _check(blob: bytes) -> None:
        assert blob == _layout(blob, sort_keys=True, separators=(",", ":"))

    def test_labelled_reduction_with_rotation(self):
        red = assemble(generate(0, 12, 17))
        self._check(write_instance(
            red.problem, rotation=red.rotation, registry=red.registry,
            formula=red.formula,
        ))
        self._check(write_witness(decide(red.problem).witness))

    def test_gadgets(self):
        base = build_base_gadget()
        self._check(_gadget_blob(base.problem, base.ids.items()))
        ring = build_variable_gadget(3)
        self._check(_gadget_blob(ring.problem, [
            (v, f"{i}.{n}") for i, ids in enumerate(ring.ids) for n, v in ids.items()
        ]))
        clause = build_clause_gadget((True, False, True))
        self._check(_gadget_blob(clause.problem, clause.ids.items()))

    def test_planted_2000_vertices(self):
        problem, witness = _planted_tree(2000, 7)
        assert extends(problem.graph, witness) and is_T_odd_on(problem, witness)
        self._check(write_instance(problem))
        self._check(write_witness(witness))


class TestFormulaText:
    def test_dimacs_semantics(self):
        f = read_formula(b"p cnf 3 1\n1 -2 3 0\n")
        assert f.variable_count == 3
        assert f.clauses == (((0, True), (1, False), (2, True)),)

    def test_comments_and_blanks_ignored(self):
        f = read_formula(b"c intro\n\np cnf 3 1\nc mid\n1 -2 3 0\n")
        assert len(f.clauses) == 1

    def test_complementary_pair_rejected(self):
        with pytest.raises(FormatError, match="negation"):
            read_formula(b"p cnf 2 1\n1 -1 2 0\n")

    def test_repeated_variable_rejected(self):
        with pytest.raises(FormatError, match="repeated"):
            read_formula(b"p cnf 2 1\n1 1 2 0\n")

    def test_literal_zero_inside_clause_rejected(self):
        with pytest.raises(FormatError) as err:
            read_formula(b"p cnf 3 1\n1 0 2 0\n")
        assert str(err.value) == "line 2: literal 0 inside clause"

    @pytest.mark.parametrize("body", ["1 2 0", "1 2 3 4 0", "1 2 3"])
    def test_bad_clause_shapes_rejected(self, body):
        with pytest.raises(FormatError):
            read_formula(f"p cnf 4 1\n{body}\n".encode())

    def test_header_required_and_counted(self):
        with pytest.raises(FormatError):
            read_formula(b"1 2 3 0\n")
        with pytest.raises(FormatError):
            read_formula(b"p cnf 3 2\n1 2 3 0\n")
        with pytest.raises(FormatError):
            read_formula(b"p cnf 3 1\np cnf 3 1\n1 2 3 0\n")

    @pytest.mark.parametrize(
        "header", ["p cnf x 4", "p cnf 4 r", "p cnf 3.0 1", "p cnf -3 1", "p cnf 3 -1"]
    )
    def test_non_integer_header_counts_rejected(self, header):
        with pytest.raises(FormatError, match="line 2: malformed header"):
            read_formula(f"c counts\n{header}\n1 2 3 0\n".encode())

    def test_round_trip_with_rotation(self):
        pf = sample_planar_formula()
        back = read_formula(write_formula(pf))
        assert isinstance(back, PlanarFormula)
        assert back.formula == pf.formula
        assert back.rotation == pf.rotation

    def test_round_trip_bare_formula(self):
        pf = sample_planar_formula()
        back = read_formula(write_formula(pf.formula))
        assert back == pf.formula

    def test_rotation_lines_must_cover_incidence(self):
        text = write_formula(sample_planar_formula()).decode()
        lines = [l for l in text.splitlines() if not l.startswith("r 9")]
        with pytest.raises(FormatError, match="cover"):
            read_formula("\n".join(lines).encode())

    def test_huge_header_count_with_rotation_lines(self):
        # the count is compared, never spelled out as a set of vertices
        text = b"p cnf 99999999999999999999 1\n1 -2 3 0\nr 0 3\nr 1 3\nr 2 3\nr 3 0 1 2\n"
        with pytest.raises(FormatError, match="cover"):
            read_formula(text)

    def test_malformed_rotation_line(self):
        with pytest.raises(FormatError):
            read_formula(b"p cnf 3 1\n1 2 3 0\nr zero 1 2\n")

    @pytest.mark.parametrize("lines, match", [
        pytest.param(b"r 0 3 3\nr 1 3\nr 2 3\nr 3 0 1 2\n", "repeats a neighbor",
                     id="neighbor-repeated"),
        pytest.param(b"r 0 3\nr 1 3\nr 2 3\nr 3 0 1\n", "not a permutation",
                     id="not-the-neighbors"),
    ])
    def test_bad_rotation_rejected(self, lines, match):
        with pytest.raises(FormatError, match=match):
            read_formula(b"p cnf 3 1\n1 2 3 0\n" + lines)

    def test_variable_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            read_formula(b"p cnf 2 1\n1 2 3 0\n")


class TestExportDot:
    def test_golden_base_gadget(self):
        gad = build_base_gadget()
        reg = GadgetRegistry.build(
            [(v, f"M.{name}") for name, v in gad.ids.items()]
        )
        golden = (DATA / "base_gadget.dot").read_bytes()
        assert export_dot(gad.problem, registry=reg) == golden

    def test_single_arc(self):
        p = _problem([0, 1], [], [(0, 1)], odd=[1])
        text = export_dot(p).decode()
        assert " 0 -> 1;" in text
        assert text.count("fillcolor=black") == 1
        assert "dir=none" not in text

    def test_orientation_directs_everything(self):
        red = assemble(sample_planar_formula())
        o = orientation_from_assignment(red, (False, False, True, False, False))
        text = export_dot(red.problem, orientation=o).decode()
        assert "dir=none" not in text
        undirected = export_dot(red.problem).decode()
        assert undirected.count("dir=none") == len(red.problem.graph.edges)

    def test_clusters_per_gadget(self):
        red = assemble(sample_planar_formula())
        text = export_dot(red.problem, registry=red.registry).decode()
        assert text.count("subgraph") == 5 + 5   # one per variable and clause
        assert 'label="x0"' in text
        assert 'label="c4"' in text


@st.composite
def _problems(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    vertices = list(range(n))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    rest = [p for p in pairs if p not in edges]
    arc_pairs = draw(st.sets(st.sampled_from(rest), max_size=len(rest))) if rest else set()
    arcs = {(v, u) if draw(st.booleans()) else (u, v) for u, v in arc_pairs}
    odd = draw(st.sets(st.sampled_from(vertices), max_size=n)) if n else set()
    return _problem(vertices, edges, arcs, odd)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(_problems())
    def test_read_write_inverse(self, p):
        blob = write_instance(p)
        assert read_instance(blob).problem == p
        assert write_instance(read_instance(blob).problem) == blob


_RETYPED = [None, "x", 1.5, True, [], {}]
_MUTATIONS = ["drop", "retype", "duplicate", "dangling", "self-loop", "opposite", "truncate"]


@st.composite
def _instance_documents(draw):
    """A small canonical instance document, with or without rotation, labels
    and formula sections."""
    p = draw(_problems())
    sections = {}
    if draw(st.booleans()):
        adj = p.graph.adjacency()
        sections["rotation"] = RotationSystem.build(
            {v: draw(st.permutations(adj[v])) for v in sorted(p.graph.vertices)}
        )
    if p.graph.vertices and draw(st.booleans()):
        labelled = draw(st.sets(st.sampled_from(sorted(p.graph.vertices)), min_size=1))
        sections["registry"] = GadgetRegistry.build((v, f"g.{v}") for v in labelled)
    if draw(st.booleans()):
        n = draw(st.integers(min_value=3, max_value=5))
        clause = st.tuples(st.permutations(range(n)), st.lists(st.booleans(), min_size=3, max_size=3))
        clauses = draw(st.lists(clause, max_size=3))
        sections["formula"] = Formula.build(n, [list(zip(vs[:3], pols)) for vs, pols in clauses])
    return json.loads(write_instance(p, **sections))


def _paths(node, path=()):
    """Every position in a JSON tree, as the keys and indices leading to it."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def _mutated_documents(draw):
    """A canonical document with exactly one mutation applied, as bytes."""
    doc = draw(_instance_documents())
    kind = draw(st.sampled_from(_MUTATIONS))
    ids = [rec["id"] for rec in doc["vertices"]]
    if kind == "drop":
        keyed = [p for p in _paths(doc) if p and isinstance(_parent(doc, p), dict)]
        path = draw(st.sampled_from(keyed))
        del _parent(doc, path)[path[-1]]
    elif kind == "retype":
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(st.sampled_from(_RETYPED))
        if not path:
            doc = value
        else:
            _parent(doc, path)[path[-1]] = value
    elif kind == "duplicate":
        labelled = [rec for rec in doc["vertices"] if "label" in rec]
        choices = [s for s in ("vertices", "edges", "arcs", "rotation") if doc.get(s)]
        if len(doc["vertices"]) > 1 and labelled:
            choices.append("label")
        if not choices:
            return json.dumps(doc).encode()
        section = draw(st.sampled_from(choices))
        if section == "label":
            source = draw(st.sampled_from(labelled))
            target = draw(st.sampled_from([r for r in doc["vertices"] if r is not source]))
            target["label"] = source["label"]
        else:
            doc[section].append(draw(st.sampled_from(doc[section])))
    elif kind in ("dangling", "self-loop"):
        u = draw(st.sampled_from(ids)) if ids else 0
        v = max(ids, default=0) + 1 if kind == "dangling" else u
        doc[draw(st.sampled_from(["edges", "arcs"]))].append([u, v])
    elif kind == "opposite":
        if doc["arcs"]:
            u, v = draw(st.sampled_from(doc["arcs"]))
            doc["arcs"].append([v, u])
        elif len(ids) > 1:
            u, v = draw(st.permutations(ids))[:2]
            doc["arcs"] += [[u, v], [v, u]]
    data = json.dumps(doc, sort_keys=True).encode()
    if kind == "truncate":
        data = data[:draw(st.integers(min_value=0, max_value=len(data) - 1))]
    return data


class TestReadInstanceFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_mutated_documents())
    def test_rejects_or_round_trips(self, data):
        """A mutated document is either rejected with a FormatError, or it
        reads to a valid instance that round-trips."""
        try:
            bundle = read_instance(data)
        except FormatError:
            return
        problem = bundle.problem
        assert validate(problem.graph) == []
        assert problem.odd_set <= problem.graph.vertices
        blob = write_instance(
            problem, rotation=bundle.rotation, registry=bundle.registry,
            formula=bundle.formula,
        )
        assert read_instance(blob) == bundle


@st.composite
def _mutated_witnesses(draw):
    """A problem and a witness document of one of its orientations, with
    exactly one mutation applied; a drop may also take out one arc."""
    p = draw(_problems())
    chosen = [(u, v) if draw(st.booleans()) else (v, u) for u, v in sorted(p.graph.edges)]
    doc = json.loads(write_witness(Orientation.of(p.graph, chosen)))
    ids = sorted(p.graph.vertices)
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "drop":
        path = draw(st.sampled_from([q for q in _paths(doc) if q]))
        del _parent(doc, path)[path[-1]]
    elif kind == "retype":
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(st.sampled_from(_RETYPED))
        if not path:
            doc = value
        else:
            _parent(doc, path)[path[-1]] = value
    elif kind == "duplicate" and doc["arcs"]:
        doc["arcs"].append(draw(st.sampled_from(doc["arcs"])))
    elif kind in ("dangling", "self-loop"):
        u = draw(st.sampled_from(ids)) if ids else 0
        doc["arcs"].append([u, max(ids, default=0) + 1 if kind == "dangling" else u])
    elif kind == "opposite" and doc["arcs"]:
        u, v = draw(st.sampled_from(doc["arcs"]))
        doc["arcs"].append([v, u])
    data = json.dumps(doc, sort_keys=True).encode()
    if kind == "truncate":
        data = data[:draw(st.integers(min_value=0, max_value=len(data) - 1))]
    return p, data


class TestReadWitnessFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_mutated_witnesses())
    def test_rejects_or_round_trips(self, case):
        """A mutated witness is either rejected with a FormatError or a
        GraphError, or it reads to an orientation of the problem's graph that
        round-trips."""
        p, data = case
        try:
            o = read_witness(data, p)
        except (FormatError, GraphError):
            return
        assert extends(p.graph, o)
        assert read_witness(write_witness(o), p) == o


# tokens a mutation puts into a formula line, and generator sizes that always
# find a layout
_TOKENS = ["0", "-1", "1", "7", "-0", "x", "1.5", "p", "r", "c", "cnf", "99999999999999999999"]
_SIZES = [(3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 5)]
_TEXT_MUTATIONS = ["drop", "duplicate", "swap", "token", "byte", "truncate"]


@st.composite
def _mutated_formula_texts(draw):
    """A written formula, with or without rotation lines, with exactly one
    line or byte mutation applied."""
    n, m = draw(st.sampled_from(_SIZES))
    pf = generate(draw(st.integers(0, 50)), n, m)
    lines = write_formula(pf if draw(st.booleans()) else pf.formula).split(b"\n")
    kind = draw(st.sampled_from(_TEXT_MUTATIONS))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        tokens = lines[i].split()
        at = draw(st.integers(0, len(tokens)))
        token = draw(st.sampled_from(_TOKENS)).encode()
        if at < len(tokens) and draw(st.booleans()):
            tokens[at] = token
        else:
            tokens.insert(at, token)
        lines[i] = b" ".join(tokens)
    data = b"\n".join(lines)
    if kind == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at:]
    elif kind == "truncate":
        data = data[:draw(st.integers(min_value=0, max_value=len(data) - 1))]
    return data


class TestReadFormulaFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_mutated_formula_texts())
    def test_rejects_or_round_trips(self, data):
        """A mutated formula text is either rejected with a FormatError or a
        GraphError, or it reads to a formula that round-trips."""
        try:
            f = read_formula(data)
        except (FormatError, GraphError):
            return
        assert read_formula(write_formula(f)) == f
