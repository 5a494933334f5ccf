"""Tests for formulas, rotation systems, embedding validation, and the
planar instance generator."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddorient import p3sat
from oddorient.p3sat import (
    ComponentCheck,
    EmbeddingReport,
    Formula,
    FormulaError,
    GenerationError,
    PlanarFormula,
    RotationSystem,
    _LEFT,
    _RIGHT,
    _SpineMap,
    clause_vertex,
    eval_formula,
    generate,
    incidence_graph,
    next_dart,
    sat_oracle,
    validate_embedding,
    variable_vertex,
)
from oddorient.io import write_formula
from oddorient.pdgraph import GraphError, PartiallyDirectedGraph
from oddorient.reduction import assemble
from oddorient.samples import (
    sample_formula,
    sample_planar_formula,
    sample_rotation,
    unsat_samples,
)
from oddorient.solver import BudgetError


def k4():
    return PartiallyDirectedGraph.build(
        range(4), itertools.combinations(range(4), 2), ()
    )


class TestFormula:
    def test_build_and_eval(self):
        f = Formula.build(3, [[(0, True), (1, False), (2, True)]])
        assert f.clause_count == 1
        assert eval_formula(f, [True, True, True])
        assert eval_formula(f, [False, False, False])   # negative literal fires
        assert not eval_formula(f, [False, True, False])

    def test_clause_must_have_three_literals(self):
        with pytest.raises(FormulaError):
            Formula.build(3, [[(0, True), (1, True)]])

    def test_repeated_variable_rejected(self):
        # covers both equal and complementary literal pairs
        with pytest.raises(FormulaError):
            Formula.build(3, [[(0, True), (0, False), (1, True)]])
        with pytest.raises(FormulaError):
            Formula.build(3, [[(2, True), (2, True), (1, True)]])

    def test_variable_out_of_range(self):
        with pytest.raises(FormulaError):
            Formula.build(2, [[(0, True), (1, True), (2, True)]])

    def test_partial_assignment_rejected(self):
        f = Formula.build(3, [[(0, True), (1, True), (2, True)]])
        with pytest.raises(FormulaError):
            eval_formula(f, [True, False])


class TestSatOracle:
    def test_returns_lowest_witness(self):
        f = Formula.build(3, [[(0, True), (1, True), (2, True)]])
        # sweep order makes variable 0 the cheapest way to satisfy
        assert sat_oracle(f) == (True, False, False)

    def test_unsat_all_sign_patterns(self):
        clauses = [
            tuple(sorted((v, bool((s >> v) & 1)) for v in range(3)))
            for s in range(8)
        ]
        assert sat_oracle(Formula.build(3, clauses)) is None

    def test_witness_satisfies(self):
        for seed in range(12):
            pf = generate(seed, 5, 5)
            w = sat_oracle(pf.formula)
            if w is not None:
                assert eval_formula(pf.formula, w)

    def test_matches_product_reference_across_blocks(self, monkeypatch):
        # blocks of 8 assignments, so the lowest witness may lie past the first
        monkeypatch.setattr(p3sat, "_BLOCK_BITS", 3)
        rng = random.Random(19)
        past_first = unsat = 0
        for n in range(15):
            for _ in range(8):
                m = rng.randint(0, 5 * n) if n >= 3 else 0
                f = Formula.build(n, [
                    [(v, rng.random() < 0.5) for v in rng.sample(range(n), 3)]
                    for _ in range(m)
                ])
                # product varies its last position fastest, so reversed, bit
                # v of the index is variable v
                ref = next((a[::-1] for a in itertools.product((False, True), repeat=n)
                            if eval_formula(f, a[::-1])), None)
                assert sat_oracle(f) == ref
                if ref is None:
                    unsat += 1
                else:
                    past_first += sum(x << v for v, x in enumerate(ref)) >= 8
        assert past_first >= 10 and unsat >= 3

    def test_budget_guard(self):
        f = Formula.build(30, [[(0, True), (1, True), (2, True)]])
        with pytest.raises(BudgetError):
            sat_oracle(f, budget=24)


class TestIncidenceGraph:
    def test_structure(self):
        f = sample_formula()
        g = incidence_graph(f)
        assert len(g.vertices) == 10
        assert len(g.edges) == 15 and not g.arcs
        assert g.degree(variable_vertex(f, 1)) == 5    # most shared variable
        for j in range(f.clause_count):
            assert g.degree(clause_vertex(f, j)) == 3

    def test_bipartite(self):
        f = sample_formula()
        n = f.variable_count
        for u, v in incidence_graph(f).edges:
            assert (u < n) != (v < n)


class TestRotationSystem:
    def test_normalized_to_smallest_start(self):
        rot = RotationSystem.build({0: (5, 3, 7)})
        assert rot.orders[0] == (3, 7, 5)

    def test_succ_and_position(self):
        rot = RotationSystem.build({0: (3, 7, 5)})
        assert rot.succ(0, 3) == 7
        assert rot.succ(0, 5) == 3
        assert rot.position(0, 7) == 1

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(FormulaError):
            RotationSystem.build({0: (1, 2, 1)})

    def test_next_dart(self):
        rot = RotationSystem.build({0: (1,), 1: (0, 2), 2: (1,)})
        assert next_dart(rot, (0, 1)) == (1, 2)
        assert next_dart(rot, (2, 1)) == (1, 0)


class TestValidateEmbedding:
    def test_planar_k4(self):
        rot = RotationSystem.build(
            {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (2, 0, 1)}
        )
        rep = validate_embedding(k4(), rot)
        assert rep.valid
        assert rep.face_count == 4
        assert rep.darts_traced == 12

    def test_twisted_k4_fails_euler(self):
        # one transposed rotation pushes the map onto the torus
        rot = RotationSystem.build(
            {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (2, 1, 0)}
        )
        rep = validate_embedding(k4(), rot)
        assert not rep.valid
        assert rep.face_count == 2

    def test_components_checked_separately(self):
        g = PartiallyDirectedGraph.build(
            range(7), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], ()
        )
        rot = RotationSystem.build(
            {0: (1, 2), 1: (0, 2), 2: (0, 1), 3: (4, 5), 4: (3, 5), 5: (3, 4), 6: ()}
        )
        rep = validate_embedding(g, rot)
        assert rep.valid
        # two triangles with two faces each, plus one face for the isolated vertex
        assert rep.face_count == 5
        assert len(rep.components) == 3

    def test_missing_vertex_rejected(self):
        with pytest.raises(FormulaError):
            validate_embedding(k4(), RotationSystem.build({0: (1, 2, 3)}))

    def test_wrong_neighbors_rejected(self):
        rot = RotationSystem.build(
            {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1)}
        )
        with pytest.raises(FormulaError):
            validate_embedding(k4(), rot)

    def test_stray_vertex_rejected(self):
        rot = RotationSystem.build(
            {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (2, 0, 1), 7: ()}
        )
        with pytest.raises(FormulaError, match=r"rotation names non-vertices: \[7\]"):
            validate_embedding(k4(), rot)

    def test_dangling_endpoint_of_a_raw_graph_rejected(self):
        # the raw constructor checks nothing; the neighbour table of the
        # error path is keyed by the vertices, so this raised a KeyError
        graph = PartiallyDirectedGraph(
            vertices=frozenset({0, 1}), edges=frozenset({(0, 5)}), arcs=frozenset()
        )
        rot = RotationSystem.build({0: [5], 1: []})
        with pytest.raises(GraphError, match="dangling endpoint 5"):
            validate_embedding(graph, rot)

    def test_stray_vertex_rejected_by_planar_formula(self):
        # its written form would fail to read back: the rotation lines would
        # not cover exactly the incidence vertices
        pf = generate(1, 4, 3)
        rot = RotationSystem.build({**pf.rotation.orders, 99: (0,)})
        with pytest.raises(FormulaError, match=r"non-vertices: \[99\]"):
            PlanarFormula.build(pf.formula, rot)


def reference_report(graph, rotation):
    """The face trace dart by dart through ``next_dart``: the reference that
    ``validate_embedding`` must agree with on every field.  A rotation
    entry for a vertex outside the graph is an error."""
    stray = set(rotation.orders) - graph.vertices
    if stray:
        raise FormulaError(f"rotation names non-vertices: {sorted(stray)}")
    adjacency = graph.adjacency()
    comp = {}
    for v in sorted(graph.vertices):
        if v in comp:
            continue
        stack = [v]
        comp[v] = v
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if y not in comp:
                    comp[y] = v
                    stack.append(y)
    pairs = graph.undirected_pairs()
    darts = sorted(d for u, v in pairs for d in ((u, v), (v, u)))
    faces = {c: 0 for c in set(comp.values())}
    seen = set()
    for start in darts:
        if start in seen:
            continue
        faces[comp[start[0]]] += 1
        d = start
        while True:
            seen.add(d)
            d = next_dart(rotation, d)
            if d == start:
                break
    checks = []
    for c in sorted(faces):
        n_c = sum(1 for v in comp if comp[v] == c)
        e_c = sum(1 for u, _ in pairs if comp[u] == c)
        checks.append(ComponentCheck(n_c, e_c, faces[c] if e_c else 1))
    return EmbeddingReport(
        valid=all(ch.euler_ok for ch in checks),
        components=tuple(checks),
        face_count=sum(ch.faces for ch in checks),
        darts_traced=len(seen),
    )


@st.composite
def embedded_graphs(draw):
    """A simple graph on scattered vertex ids (isolated vertices and several
    components are common), some links fixed as arcs, and a rotation that
    shuffles every vertex's neighbors."""
    ids = draw(st.lists(st.integers(-20, 40), min_size=1, max_size=10, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    arcs = [p[::-1] for p in links if draw(st.booleans())]
    edges = [p for p in links if p[::-1] not in arcs]
    graph = PartiallyDirectedGraph.build(ids, edges, arcs)
    adjacency = graph.adjacency()
    rotation = RotationSystem.build(
        {v: draw(st.permutations(adjacency[v])) for v in ids}
    )
    return graph, rotation


class TestFaceTraceReference:
    @settings(max_examples=300, deadline=None)
    @given(embedded_graphs())
    def test_matches_reference(self, case):
        graph, rotation = case
        assert validate_embedding(graph, rotation) == reference_report(graph, rotation)

    @settings(max_examples=200, deadline=None)
    @given(embedded_graphs(), st.booleans())
    def test_agrees_with_networkx(self, case, use_nx_embedding):
        """A valid report implies a planar graph, and the rotation of any
        planar embedding networkx finds is reported valid."""
        nx = pytest.importorskip("networkx")
        graph, rotation = case
        g = nx.Graph(list(graph.undirected_pairs()))
        g.add_nodes_from(graph.vertices)
        planar, embedding = nx.check_planarity(g)
        from_networkx = planar and use_nx_embedding
        if from_networkx:
            rotation = RotationSystem.build(
                {v: list(embedding.neighbors_cw_order(v)) for v in graph.vertices}
            )
        report = validate_embedding(graph, rotation)
        assert report == reference_report(graph, rotation)
        assert planar or not report.valid
        assert report.valid or not from_networkx

    @settings(max_examples=100, deadline=None)
    @given(embedded_graphs(), st.lists(st.integers(41, 60), min_size=1, max_size=3))
    def test_stray_entries_rejected_like_reference(self, case, extra):
        graph, rotation = case
        rotation = RotationSystem.build(
            {**rotation.orders, **{v: () for v in extra}}
        )
        with pytest.raises(FormulaError) as got:
            validate_embedding(graph, rotation)
        with pytest.raises(FormulaError) as want:
            reference_report(graph, rotation)
        assert str(got.value) == str(want.value)

    def test_generated_formulas_and_frozen_samples(self):
        cases = [(incidence_graph(pf.formula), pf.rotation)
                 for pf in (generate(seed, 6, 7) for seed in range(5))]
        for red in map(assemble, unsat_samples()):
            cases.append((red.problem.graph, red.rotation))
        for graph, rotation in cases:
            assert validate_embedding(graph, rotation) == reference_report(graph, rotation)


class TestGenerate:
    def test_deterministic(self):
        assert generate(99, 6, 7) == generate(99, 6, 7)

    def test_seed_changes_instance(self):
        outs = {generate(s, 6, 7).formula for s in range(6)}
        assert len(outs) > 1

    def test_sizes_and_coverage(self):
        for seed, n, m in [(1, 3, 1), (2, 4, 3), (3, 5, 4), (4, 7, 8), (5, 8, 10)]:
            pf = generate(seed, n, m)
            f = pf.formula
            assert f.variable_count == n and f.clause_count == m
            used = {v for cl in f.clauses for v, _ in cl}
            assert used == set(range(n))
            for cl in f.clauses:
                assert len({v for v, _ in cl}) == 3

    def test_embedding_always_valid(self):
        for seed in range(25):
            pf = generate(seed, 6, 6)
            rep = validate_embedding(incidence_graph(pf.formula), pf.rotation)
            assert rep.valid

    def test_rejects_tiny_parameters(self):
        with pytest.raises(GenerationError):
            generate(0, 2, 1)
        with pytest.raises(GenerationError):
            generate(0, 3, 0)

    def test_impossible_layout_raises(self):
        # three variables expose at most two clause slots (one per side)
        with pytest.raises(GenerationError, match="after 400 attempts"):
            generate(7, 3, 3)


def _digest(cases):
    """The first 16 hex digits of a SHA-256 over the written formulas."""
    h = hashlib.sha256()
    for seed, n, m in cases:
        try:
            h.update(write_formula(generate(seed, n, m)))
        except GenerationError:
            h.update(b"no layout\n")
    return h.hexdigest()[:16]


def _large_seeds():
    """Twenty seeds drawn as the benchmark draws its own, below 2**30."""
    rng = random.Random(15)
    return [rng.randrange(1 << 30) for _ in range(20)]


# digests of the generator's output before its face records were kept
# incrementally: seeds 0-199 plus the twenty large seeds, per size
_SWEEP_PINS = {
    (3, 1): "16397bbd752b7f15",
    (6, 7): "e56274f54b4c0a8c",
    (12, 17): "feeb43594a6cfd87",
    (4, 3): "68403af25fe08740",
    (5, 5): "4ae737cecb1eb837",
    (7, 9): "609967d57a3a22db",
    (8, 11): "35165ba5ea92edcf",
}
# and one digest per seed 0, 1, 2 on the size ladder
_LADDER_PINS = {
    (24, 34): ("df7f424003e63d4d", "39afe8c997d65edf", "2d81dff8ad1770c3"),
    (32, 46): ("b4b42c8ced3465b4", "caa3b42c55c9ab86", "558b43d2fda75d33"),
    (40, 57): ("643c7babd9b45e54", "d38a07fe3e47f069", "b1372c95baa13700"),
    (48, 69): ("76fa4a225d4f1307", "1420ee3a8aef57c6", "74c7e64b69616325"),
    (64, 92): ("df26daeeb902254c", "9593799bc3d7d7f2", "98dd926b82dd527e"),
}


class TestGeneratorPins:
    @pytest.mark.parametrize("size", list(_SWEEP_PINS), ids=str)
    def test_seed_sweep(self, size):
        n, m = size
        seeds = [*range(200), *_large_seeds()]
        assert _digest([(s, n, m) for s in seeds]) == _SWEEP_PINS[size]

    @pytest.mark.parametrize("size", list(_LADDER_PINS), ids=str)
    def test_ladder(self, size):
        n, m = size
        got = tuple(_digest([(s, n, m)]) for s in range(3))
        assert got == _LADDER_PINS[size]


def _records(smap):
    return [(r.up, r.positions, r.corners, r.walk) for r in smap.face_sides()]


def scratch_face_sides(smap):
    """Every (face, side) record of the working map, traced from scratch:
    faces in order of their minimum dart, each walk starting there, the
    upper side first.  The reference the kept records must equal."""
    sigma, n = smap.sigma, smap.n

    def succ(v, u):
        cycle = sigma[v]
        return cycle[(cycle.index(u) + 1) % len(cycle)]

    def is_up(p, arrival):
        # above the spine: met before the east neighbour, going round
        # sigma_p from the west neighbour
        west = p - 1 if p > 0 else _LEFT
        east = p + 1 if p + 1 < n else _RIGHT
        cycle = sigma[p]
        i = cycle.index(west)
        turned = cycle[i:] + cycle[:i]
        return turned.index(arrival) < turned.index(east)

    seen = set()
    records = []
    for start in sorted((u, v) for u in sigma for v in sigma[u]):
        if start in seen:
            continue
        walk = [start]
        while True:
            u, v = walk[-1]
            d = (v, succ(v, u))
            if d == start:
                break
            walk.append(d)
        seen.update(walk)
        for up in (True, False):
            corners = {}
            for idx, (a, b) in enumerate(walk):
                if 0 <= b < n and is_up(b, a) == up:
                    assert b not in corners
                    corners[b] = (idx, a)
            if corners:
                records.append((up, tuple(sorted(corners)), corners, walk))
    return records


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, (1 << 30) - 1),
    st.sampled_from([(3, 2), (4, 3), (6, 7), (9, 12), (12, 17), (20, 28)]),
)
def test_kept_face_records_equal_a_trace_from_scratch(seed, size):
    """Clause by clause, as ``generate`` draws them, the records the map
    keeps equal the records of a full trace."""
    n, m = size
    rng = random.Random(seed)
    smap = _SpineMap(n)
    for j in range(m):
        records = smap.face_sides()
        assert _records(smap) == scratch_face_sides(smap)
        eligible = [r for r in records if len(r.positions) >= 3]
        if not eligible:
            break
        record = rng.choice(eligible)
        smap.insert_clause(n + j, record, tuple(sorted(rng.sample(record.positions, 3))))
    assert _records(smap) == scratch_face_sides(smap)


class TestSample:
    def test_builds_and_counts(self):
        pf = sample_planar_formula()
        rep = validate_embedding(incidence_graph(pf.formula), pf.rotation)
        assert rep.valid
        assert rep.face_count == 7
        assert rep.components[0].vertices == 10
        assert rep.components[0].edges == 15

    def test_pinned_orders(self):
        rot = sample_rotation()
        assert rot.orders[8] == (1, 4, 3)
        assert rot.orders[4] == (6, 9, 7, 8)

    def test_satisfiable(self):
        w = sat_oracle(sample_formula())
        assert w == (False, False, True, False, False)
        assert eval_formula(sample_formula(), w)

    def test_embedding_is_rigid_given_pins(self):
        # any change to the degree-3 clause orders breaks planarity
        pf = sample_planar_formula()
        base = dict(pf.rotation.orders)
        flips = 0
        for v in (5, 6, 7, 9):
            alt = dict(base)
            alt[v] = tuple(reversed(base[v]))
            rep = validate_embedding(
                incidence_graph(pf.formula), RotationSystem.build(alt)
            )
            flips += 0 if rep.valid else 1
        assert flips == 4
