"""Graph type invariants, boundaries, acyclicity, parity checks, and the
collector pause of the calls that build instance-sized object graphs."""

import ast
import gc
import inspect
import random
from collections import Counter
from importlib.util import find_spec
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddorient.pdgraph import (
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    boundary,
    canonical_edge,
    extends,
    flip_all,
    gamma_subgraph,
    is_T_odd_on,
    is_acyclic,
    is_uniform,
    parity_feasible,
    reverse_graph,
    validate,
)
from oddorient import search, solver
from oddorient.io import FormatError, read_instance, write_instance, write_witness
from oddorient.p3sat import SizeError, generate
from oddorient.reduction import assemble, structural_check
from oddorient.solver import decide


def small_graph():
    return PartiallyDirectedGraph.build(
        vertices=[1, 2, 3, 4],
        edges=[(1, 2), (2, 3)],
        arcs=[(4, 1)],
    )


class TestConstruction:
    def test_build_canonicalizes_edges(self):
        g = PartiallyDirectedGraph.build([1, 2], edges=[(2, 1)])
        assert g.edges == frozenset({(1, 2)})

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            PartiallyDirectedGraph.build([1], edges=[(1, 1)])
        with pytest.raises(GraphError, match="loop"):
            PartiallyDirectedGraph.build([1], arcs=[(1, 1)])

    def test_parallel_links_rejected(self):
        # a repeated pair would collapse in a frozenset, so build counts
        # what it was given; validate sees edge+arc and arc+reversed-arc
        with pytest.raises(GraphError, match="parallel"):
            PartiallyDirectedGraph.build([0, 1], edges=[(0, 1), (0, 1)])
        with pytest.raises(GraphError, match="parallel"):
            PartiallyDirectedGraph.build([0, 1], edges=[(0, 1), (1, 0)])
        with pytest.raises(GraphError, match="parallel"):
            PartiallyDirectedGraph.build([0, 1], arcs=[(0, 1), (0, 1)])
        with pytest.raises(GraphError, match="parallel"):
            PartiallyDirectedGraph.build([1, 2], edges=[(1, 2)], arcs=[(1, 2)])
        with pytest.raises(GraphError, match="parallel"):
            PartiallyDirectedGraph.build([1, 2], edges=[(1, 2)], arcs=[(2, 1)])
        with pytest.raises(GraphError, match="parallel"):
            PartiallyDirectedGraph.build([1, 2], arcs=[(1, 2), (2, 1)])

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(GraphError, match="dangling"):
            PartiallyDirectedGraph.build([1], edges=[(1, 2)])

    def test_validate_reports_without_raising(self):
        raw = PartiallyDirectedGraph(
            vertices=frozenset({1}),
            edges=frozenset({(1, 1), (1, 2)}),
            arcs=frozenset(),
        )
        problems = validate(raw)
        assert any("loop" in p for p in problems)
        assert any("dangling" in p for p in problems)

    def test_degree_counts_both_kinds(self):
        g = small_graph()
        assert g.degree(1) == 2   # edge 1-2 and arc 4->1
        assert g.degree(2) == 2
        assert g.degree(4) == 1


class TestOrientation:
    def test_of_requires_total_cover(self):
        g = small_graph()
        with pytest.raises(GraphError, match="left over"):
            Orientation.of(g, [(1, 2)])

    def test_of_rejects_unknown_direction(self):
        g = small_graph()
        with pytest.raises(GraphError, match="does not match"):
            Orientation.of(g, [(1, 2), (1, 3)])

    def test_of_rejects_double_direction(self):
        g = small_graph()
        with pytest.raises(GraphError, match="twice"):
            Orientation.of(g, [(1, 2), (2, 1), (2, 3)])

    def test_extends(self):
        g = small_graph()
        o = Orientation.of(g, [(2, 1), (2, 3)])
        assert extends(g, o)
        assert o.directs(2, 1) and not o.directs(1, 2)
        assert o.directs(4, 1)
        # dropping the fixed arc breaks extension
        assert not extends(g, Orientation(arcs=o.arcs - {(4, 1)}))

    def test_in_degrees(self):
        g = small_graph()
        o = Orientation.of(g, [(2, 1), (2, 3)])
        assert o.in_degrees(g.vertices) == {1: 2, 2: 0, 3: 1, 4: 0}


class TestBoundary:
    def test_unoriented_boundary(self):
        g = small_graph()
        view = boundary(g, [1])
        assert view.edge_boundary == frozenset({(1, 2)})
        assert view.in_arcs == frozenset({(4, 1)})
        assert view.out_arcs == frozenset()
        assert not is_uniform(view)

    def test_oriented_boundary_uniform(self):
        g = small_graph()
        o = Orientation.of(g, [(2, 1), (2, 3)])
        view = boundary(g, [1], o)
        assert view.edge_boundary == frozenset()
        assert view.in_arcs == frozenset({(2, 1), (4, 1)})
        assert is_uniform(view)

    def test_oriented_boundary_mixed(self):
        g = small_graph()
        o = Orientation.of(g, [(1, 2), (2, 3)])
        view = boundary(g, [1], o)
        assert view.out_arcs == frozenset({(1, 2)})
        assert view.in_arcs == frozenset({(4, 1)})
        assert not is_uniform(view)

    def test_gamma_subgraph_keeps_external_endpoints(self):
        g = small_graph()
        sub = gamma_subgraph(g, [1])
        assert sub.vertices == frozenset({1, 2, 4})
        assert sub.edges == frozenset({(1, 2)})
        assert sub.arcs == frozenset({(4, 1)})

    def test_gamma_subgraph_keeps_isolated_core(self):
        g = PartiallyDirectedGraph.build([1, 2, 3], edges=[(2, 3)])
        sub = gamma_subgraph(g, [1])
        assert sub.vertices == frozenset({1})
        assert not sub.edges and not sub.arcs

    def test_non_vertex_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError) as err:
            boundary(g, [1, 9])
        assert str(err.value) == "boundary set contains non-vertices: [9]"
        with pytest.raises(GraphError) as err:
            gamma_subgraph(g, [9, 1])
        assert str(err.value) == "core set contains non-vertices: [9]"


class TestAcyclicity:
    def test_acyclic_order_is_deterministic_and_valid(self):
        rep = is_acyclic([(3, 1), (3, 2), (1, 2)])
        assert rep.acyclic
        assert rep.order == (3, 1, 2)

    def test_cycle_witness(self):
        rep = is_acyclic([(5, 6), (1, 2), (2, 3), (3, 1)])
        assert not rep.acyclic
        assert rep.cycle == (1, 2, 3)

    def test_cycle_witness_is_a_real_cycle(self):
        arcs = [(1, 2), (2, 3), (3, 4), (4, 2), (4, 5)]
        rep = is_acyclic(arcs)
        assert not rep.acyclic
        cyc = rep.cycle
        arcset = set(arcs)
        for i, v in enumerate(cyc):
            assert (v, cyc[(i + 1) % len(cyc)]) in arcset

    def test_empty_is_acyclic(self):
        assert is_acyclic([]).acyclic


class TestParity:
    def test_is_T_odd_on_full_scope(self):
        g = small_graph()
        prob = OrientationProblem.build(g, [1, 3])
        o = Orientation.of(g, [(2, 1), (2, 3)])
        # in-degrees: 1:2, 2:0, 3:1, 4:0 -> odd exactly at 3
        assert not is_T_odd_on(prob, o)
        assert is_T_odd_on(prob, o, scope=[2, 3, 4])

    def test_parity_feasible_counts_all_links(self):
        g = small_graph()   # 2 edges + 1 arc
        assert parity_feasible(OrientationProblem.build(g, [1]))
        assert not parity_feasible(OrientationProblem.build(g, [1, 2]))

    def test_odd_set_must_be_vertices(self):
        g = small_graph()
        with pytest.raises(GraphError, match="non-vertices"):
            OrientationProblem.build(g, [9])


class TestTransformsAndRestriction:
    def test_flip_all_reverses(self):
        o = Orientation(arcs=frozenset({(1, 2), (3, 1)}))
        assert flip_all(o).arcs == frozenset({(2, 1), (1, 3)})

    def test_reverse_graph(self):
        g = small_graph()
        r = reverse_graph(g)
        assert r.arcs == frozenset({(1, 4)})
        assert r.edges == g.edges


# -- property tests ------------------------------------------------------------


def graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        verts = list(range(n))
        pairs = [(u, v) for u in verts for v in verts if u < v]
        chosen = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
        as_arc = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        rev = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        edges, arcs = [], []
        for (u, v), is_arc, flip in zip(sorted(chosen), as_arc, rev):
            if is_arc:
                arcs.append((v, u) if flip else (u, v))
            else:
                edges.append((u, v))
        return PartiallyDirectedGraph.build(verts, edges, arcs)

    return build()


def orientations_of(g):
    picks = st.tuples(*(st.sampled_from([(u, v), (v, u)]) for u, v in sorted(g.edges)))
    return picks.map(lambda chosen: Orientation.of(g, list(chosen)))


@st.composite
def oriented_instances(draw):
    g = draw(graphs())
    o = draw(orientations_of(g))
    return g, o


@given(oriented_instances())
@settings(max_examples=120, deadline=None)
def test_total_in_degree_equals_link_count(inst):
    g, o = inst
    assert sum(o.in_degrees(g.vertices).values()) == len(g.edges) + len(g.arcs)


@given(oriented_instances())
@settings(max_examples=120, deadline=None)
def test_realized_odd_set_is_parity_feasible(inst):
    g, o = inst
    degs = o.in_degrees(g.vertices)
    odd = frozenset(v for v, d in degs.items() if d % 2 == 1)
    prob = OrientationProblem.build(g, odd)
    assert is_T_odd_on(prob, o)
    assert parity_feasible(prob)


@given(oriented_instances())
@settings(max_examples=120, deadline=None)
def test_flip_all_preserves_acyclicity(inst):
    g, o = inst
    assert is_acyclic(o.arcs).acyclic == is_acyclic(flip_all(o).arcs).acyclic


@given(oriented_instances(), st.data())
@settings(max_examples=120, deadline=None)
def test_boundary_partitions_crossing_links(inst, data):
    g, o = inst
    verts = sorted(g.vertices)
    inside = data.draw(st.sets(st.sampled_from(verts), max_size=len(verts)))
    view = boundary(g, inside, o)
    crossing = {
        canonical_edge(u, v)
        for u, v in g.links()
        if (u in inside) != (v in inside)
    }
    classified = {canonical_edge(u, v) for u, v in view.out_arcs | view.in_arcs}
    assert classified == crossing
    assert not view.edge_boundary


@given(oriented_instances())
@settings(max_examples=120, deadline=None)
def test_topo_order_respects_every_arc(inst):
    _, o = inst
    rep = is_acyclic(o.arcs)
    if rep.acyclic:
        pos = {v: i for i, v in enumerate(rep.order)}
        for t, h in o.arcs:
            assert pos[t] < pos[h]
    else:
        cyc = rep.cycle
        for i, v in enumerate(cyc):
            assert (v, cyc[(i + 1) % len(cyc)]) in o.arcs


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=20))
@settings(max_examples=300, deadline=None)
def test_is_acyclic_matches_networkx(arcs):
    """networkx as an independent oracle: the same verdict, the
    lexicographically least topological order, and a real cycle that starts
    at its lowest vertex (arc sets may repeat arcs and hold loops)."""
    nx = pytest.importorskip("networkx")
    digraph = nx.DiGraph(arcs)
    rep = is_acyclic(arcs)
    assert rep.acyclic == nx.is_directed_acyclic_graph(digraph)
    if rep.acyclic:
        assert list(rep.order) == list(nx.lexicographical_topological_sort(digraph))
        assert rep.cycle is None
    else:
        cyc = rep.cycle
        assert rep.order is None
        assert cyc[0] == min(cyc)
        assert len(set(cyc)) == len(cyc)
        assert set(zip(cyc, cyc[1:] + cyc[:1])) <= set(arcs)


def extends_by_loop(graph, orientation) -> bool:
    """Reference: every fixed arc kept, and each other arc on its own edge."""
    if any(a not in orientation.arcs for a in graph.arcs):
        return False
    covered = set()
    for u, v in orientation.arcs - graph.arcs:
        pair = canonical_edge(u, v)
        if pair not in graph.edges or pair in covered:
            return False
        covered.add(pair)
    return covered == set(graph.edges)


def odd_on_by_loop(problem, orientation, scope) -> bool:
    """Reference: each scoped vertex's in-degree counted arc by arc."""
    for v in problem.graph.vertices if scope is None else set(scope):
        in_degree = sum(1 for _, h in orientation.arcs if h == v)
        if (in_degree % 2 == 1) != (v in problem.odd_set):
            return False
    return True


# the ways a drawn orientation is spoiled before both checks read it
_SPOILS = ("none", "drop-fixed-arc", "both-directions", "stray-arc", "drop-edge-arc")


@given(oriented_instances(), st.data())
@example((small_graph(), Orientation(arcs=frozenset({(1, 2), (2, 3), (4, 1)}))), None)
@settings(max_examples=200, deadline=None)
def test_set_based_checks_match_loops(inst, data):
    """``extends`` and ``is_T_odd_on`` agree with plain loops on drawn
    orientations, whole or spoiled, with odd sets and scopes that may hold
    non-vertices."""
    g, o = inst
    verts = sorted(g.vertices)
    labels = st.integers(min(verts) - 2, max(verts) + 2)
    # the odd set the drawn orientation meets, changed at a few labels
    odd = frozenset(v for v, d in o.in_degrees(g.vertices).items() if d % 2)
    spoil, scope = "none", None
    if data is not None:
        spoil = data.draw(st.sampled_from(_SPOILS))
        odd ^= data.draw(st.frozensets(labels, max_size=2))
        scope = data.draw(st.none() | st.sets(labels))
    arcs = set(o.arcs)
    if spoil == "drop-fixed-arc" and g.arcs:
        arcs.discard(data.draw(st.sampled_from(sorted(g.arcs))))
    elif spoil == "both-directions" and g.edges:
        u, v = data.draw(st.sampled_from(sorted(g.edges)))
        arcs |= {(u, v), (v, u)}
    elif spoil == "stray-arc":
        arcs.add((data.draw(labels), data.draw(labels)))
    elif spoil == "drop-edge-arc" and g.edges:
        u, v = data.draw(st.sampled_from(sorted(g.edges)))
        arcs -= {(u, v), (v, u)}
    spoilt = Orientation(arcs=frozenset(arcs))
    # the raw constructor keeps odd labels that are not vertices
    prob = OrientationProblem(graph=g, odd_set=odd)
    assert extends(g, spoilt) == extends_by_loop(g, spoilt)
    assert is_T_odd_on(prob, spoilt, scope) == odd_on_by_loop(prob, spoilt, scope)
    if spoil == "none":
        assert extends(g, spoilt)
        if data is None:
            assert is_T_odd_on(prob, spoilt)


# -- the collector pause ------------------------------------------------------


def _planted_forest(size: int, seed: int) -> OrientationProblem:
    """A random tree on ``size`` vertices, each joined to an earlier one,
    with the odd set of one random orientation, so it is feasible."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, size)]
    heads = [v if rng.random() < 0.5 else u for u, v in edges]
    odd = [v for v, d in Counter(heads).items() if d % 2]
    return OrientationProblem.build(PartiallyDirectedGraph.build(range(size), edges), odd)


def _paused_calls(problem=None):
    """(function, arguments) of each call that pauses the collector, in
    pipeline order: on the 12/17 reduction of seed 0, or, given
    ``problem``, those that take an instance or its witness."""
    calls = []
    if problem is None:
        planar = generate(0, 12, 17)
        red = assemble(planar)
        problem = red.problem
        calls += [(generate, (0, 12, 17)), (assemble, (planar,)), (structural_check, (red,))]
    witness = decide(problem).witness
    return calls + [
        (write_instance, (problem,)),
        (read_instance, (write_instance(problem),)),
        (decide, (problem,)),
        (write_witness, (witness,)),
    ]


@pytest.fixture
def collector():
    """Give the collector back to the next test as this one found it."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def test_paused_calls_are_the_decorated_ones():
    """The calls below cover every function the package decorates."""
    package = Path(find_spec("oddorient").submodule_search_locations[0])
    decorated = {
        node.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "_gc_paused" for d in node.decorator_list)
    }
    assert decorated == {f.__name__ for f, _ in _paused_calls()}


def test_paused_calls_keep_the_callers_setting(collector):
    """On after the call when it was on before, off when the caller had
    turned it off, and the name and docstring are the function's own."""
    for f, args in _paused_calls():
        assert f.__doc__ == f.__wrapped__.__doc__
        gc.enable()
        f(*args)
        assert gc.isenabled(), f.__name__
        gc.disable()
        f(*args)
        assert not gc.isenabled(), f.__name__


def test_collector_is_on_after_a_raise(collector):
    gc.enable()
    with pytest.raises(FormatError):
        read_instance(b"{")
    assert gc.isenabled()
    with pytest.raises(SizeError):
        generate(0, 2, 3)
    assert gc.isenabled()


def test_decide_runs_with_the_collector_off(collector, monkeypatch):
    """The witness check inside ``decide``, on either branch, sees the
    collector off."""
    seen = []

    def spy(check):
        def check_witness(*args):
            seen.append(gc.isenabled())
            return check(*args)
        return check_witness

    for module in (search, solver):
        monkeypatch.setattr(module, "_check_witness", spy(module._check_witness))
    gc.enable()
    assert decide(assemble(generate(0, 12, 17)).problem).feasible
    assert decide(_planted_forest(50, 0)).feasible
    assert seen == [False, False]
    assert gc.isenabled()


def test_decide_keeps_its_signature():
    budget = inspect.signature(decide).parameters["budget"]
    assert budget.kind is inspect.Parameter.KEYWORD_ONLY
    assert budget.default == 10_000_000


@pytest.mark.parametrize("problem", [None, _planted_forest(300, 1)], ids=["12/17", "forest"])
def test_paused_calls_leave_no_cyclic_garbage(collector, problem):
    """Pausing holds no memory only while the paused calls make no
    reference cycles: each leaves nothing for the collector to find."""
    calls = _paused_calls(problem)
    gc.disable()
    for f, args in calls:
        gc.collect()
        f(*args)
        assert gc.collect() == 0, f.__name__
