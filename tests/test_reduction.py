"""Tests for the gadget builders, the assembly, and the semantic bridge."""

import dataclasses
import hashlib
import itertools

import pytest

from oddorient import reduction, solver
from oddorient.io import write_instance
from oddorient.p3sat import (
    Formula,
    PlanarFormula,
    RotationSystem,
    generate,
    sat_oracle,
    validate_embedding,
)
from oddorient.pdgraph import (
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    canonical_edge,
    gamma_subgraph,
    is_acyclic,
    is_T_odd_on,
)
from oddorient.reduction import (
    CORE_EDGES,
    CORE_NAMES,
    HEX_NAMES,
    MATCH_EDGES,
    GadgetError,
    GadgetRegistry,
    _mode_template,
    assemble,
    assignment_from_orientation,
    attach_stubs,
    build_base_gadget,
    build_clause_gadget,
    build_variable_gadget,
    clause_boundary_class,
    orientation_from_assignment,
    structural_check,
    verify_equivalence,
)
from oddorient.samples import sample_planar_formula, unsat_samples


class TestRegistry:
    def test_round_trip(self):
        reg = GadgetRegistry.build([(0, "x0.k0.u"), (1, "x0.k0.a")])
        assert reg.label(0) == "x0.k0.u"
        assert reg.vertex("x0.k0.a") == 1
        assert reg.bijective

    def test_collisions_rejected(self):
        with pytest.raises(GadgetError):
            GadgetRegistry.build([(0, "a"), (0, "b")])
        with pytest.raises(GadgetError):
            GadgetRegistry.build([(0, "a"), (1, "a")])


class TestBaseGadget:
    def test_shape(self):
        g = build_base_gadget()
        graph = g.problem.graph
        assert len(graph.vertices) == 10
        assert len(graph.edges) == 8
        assert len(graph.arcs) == 4
        # every vertex except uh carries the parity constraint
        assert len(g.problem.odd_set) == 9
        assert g.ids["uh"] not in g.problem.odd_set

    def test_two_orientations_mutual_flips(self):
        g = build_base_gadget()
        boundary = [g.ids[x] for x in ("u", "uh", "s", "t")]
        prob, _ = attach_stubs(g.problem, boundary)
        rep = solver.enumerate(prob, scope=set(g.ids.values()))
        assert rep.total_valid == 2
        first, second = rep.witnesses
        core = {
            (g.ids[x], g.ids[y]) for x, y in CORE_EDGES
        } | {(g.ids[y], g.ids[x]) for x, y in CORE_EDGES}
        flipped = {(b, a) for a, b in first.arcs if (a, b) in core}
        assert flipped == {d for d in second.arcs if d in core}

    def test_modes_kept_from_the_sweep(self):
        g = build_base_gadget()
        boundary = [g.ids[x] for x in ("u", "uh", "s", "t")]
        prob, outside = attach_stubs(g.problem, boundary)
        assert g.stubs == dict(zip(("u", "uh", "s", "t"), outside))
        assert g.modes == solver.enumerate(prob, scope=set(g.ids.values())).witnesses
        # the u and uh stubs point one way in each mode: out in one, in in
        # the other
        out = {
            x: [(g.ids[x], g.stubs[x]) in m.arcs for m in g.modes] for x in ("u", "uh")
        }
        assert out["u"] == out["uh"] and sorted(out["u"]) == [False, True]

    @pytest.mark.parametrize("damage, message", [
        ("same", "base gadget modes agree at u-a"),
        ("t-stub", "base gadget s and t stubs point the same way"),
    ], ids=["same", "t-stub"])
    def test_self_check_refuses_a_broken_sweep(self, monkeypatch, damage, message):
        g = build_base_gadget()
        t, stub = g.ids["t"], g.stubs["t"]
        first, second = g.modes
        if damage == "same":
            second = first
        else:
            flip = {(t, stub), (stub, t)}
            second = Orientation(arcs=frozenset(
                (b, a) if (a, b) in flip else (a, b) for a, b in second.arcs
            ))
        report = solver.EnumerationReport(2, (first, second), 2 ** 12)
        monkeypatch.setattr(reduction, "sweep", lambda *args, **kwargs: report)
        with pytest.raises(AssertionError, match=message):
            reduction.build_base_gadget.__wrapped__()

    def test_stub_at_missing_vertex(self):
        g = build_base_gadget()
        with pytest.raises(GraphError):
            attach_stubs(g.problem, [99])


class TestVariableGadget:
    @pytest.mark.parametrize("copies", [1, 2])
    def test_two_modes_uniform_opposite(self, copies):
        gad = build_variable_gadget(copies)
        stubs = [v for pair in gad.stub_pairs for v in pair]
        prob, outside = attach_stubs(gad.problem, stubs)
        scope = {v for c in gad.ids for v in c.values()}
        rep = solver.enumerate(prob, scope=scope)
        assert rep.total_valid == 2
        patterns = set()
        for w in rep.witnesses:
            outward = [w.directs(s, o) for s, o in zip(stubs, outside)]
            assert len(set(outward)) == 1   # uniform boundary
            patterns.add(outward[0])
        assert patterns == {True, False}    # and opposite between the two

    def test_counts(self):
        gad = build_variable_gadget(4)
        graph = gad.problem.graph
        assert len(graph.vertices) == 40
        assert len(graph.edges) == 8 * 4 + 4     # cores plus ring links
        assert len(graph.arcs) == 16
        assert len(gad.link_edges) == 4

    def test_zero_copies_rejected(self):
        with pytest.raises(GadgetError):
            build_variable_gadget(0)


class TestClauseGadget:
    def test_shape_and_marks(self):
        gad = build_clause_gadget((True, False, True))
        graph = gad.problem.graph
        assert len(graph.vertices) == 12
        assert len(graph.edges) == 12
        assert not graph.arcs
        assert set(gad.hexagon) <= gad.problem.odd_set
        v2, vh2 = gad.port_pairs[1]
        assert v2 not in gad.problem.odd_set
        assert vh2 not in gad.problem.odd_set
        v1, vh1 = gad.port_pairs[0]
        assert {v1, vh1} <= gad.problem.odd_set

    def test_bad_arity(self):
        with pytest.raises(GadgetError):
            build_clause_gadget((True, False))


class TestAssemble:
    def test_sample_counts(self):
        red = assemble(sample_planar_formula())
        graph = red.problem.graph
        copies = sum(len(red.variable_ids[i]) for i in range(5))
        assert copies == 15
        assert len(graph.vertices) == 10 * copies + 12 * 5
        assert len(graph.edges) == 9 * copies + 18 * 5
        assert len(graph.arcs) == 4 * copies
        assert len(red.problem.odd_set) == 185

    def test_sample_structural(self):
        red = assemble(sample_planar_formula())
        rep = structural_check(red)
        assert rep.ok, rep.problems
        assert rep.faces == 77

    def test_slots_match_formula(self):
        red = assemble(sample_planar_formula())
        for j, clause in enumerate(red.formula.clauses):
            got = sorted((var, pol) for var, _, pol in red.slots[j])
            assert got == sorted(clause)

    def test_generated_corpus_structural(self):
        for seed, n, m in [(3, 6, 7), (11, 7, 9), (19, 8, 11), (27, 6, 8)]:
            red = assemble(generate(seed, n, m))
            rep = structural_check(red)
            assert rep.ok, (seed, rep.problems)

    def test_unsat_samples_structural(self):
        for pf in unsat_samples():
            rep = structural_check(assemble(pf))
            assert rep.ok, rep.problems

    def test_stray_rotation_entry_rejected(self):
        # the canonical bytes of such a reduction would not read back: the
        # reader refuses rotation entries for non-vertices
        red = assemble(generate(3, 6, 7))
        rotation = RotationSystem.build({**red.rotation.orders, 10**6: ()})
        rep = structural_check(dataclasses.replace(red, rotation=rotation))
        assert not rep.ok and rep.faces == 0
        assert any("non-vertices: [1000000]" in p for p in rep.problems)


def _glued_formulas():
    """The sample, the three frozen UNSAT cores and 12/17 seeds 0-4."""
    return [sample_planar_formula(), *unsat_samples()] + [
        generate(seed, 12, 17) for seed in range(5)
    ]


def _glued_and_alone(red, names, alone, attach):
    """Γ of one gadget of the assembly and the stand-alone gadget with a stub
    at each of ``attach``, as (edges, arcs, marks).

    ``names`` maps each assembled vertex of the gadget to its vertex in
    ``alone``.  The far end of each link leaving the gadget is relabelled to
    the stub at the link's near end; marks are read on the gadget's own
    vertices only, since ``attach_stubs`` leaves its stubs unmarked.
    """
    stubbed, outside = attach_stubs(alone, attach)
    stub_at = dict(zip(attach, outside))
    gamma = gamma_subgraph(red.problem.graph, names)
    relabel = dict(names)
    for a, b in gamma.edges:
        for near, far in ((a, b), (b, a)):
            if near in names and far not in names:
                assert far not in relabel, f"two links leave for {far}"
                relabel[far] = stub_at[names[near]]
    assert sorted(relabel.values()) == sorted(stubbed.graph.vertices)
    glued = (
        {canonical_edge(relabel[a], relabel[b]) for a, b in gamma.edges},
        {(relabel[a], relabel[b]) for a, b in gamma.arcs},
        {names[v] for v in names if v in red.problem.odd_set},
    )
    return glued, (stubbed.graph.edges, stubbed.graph.arcs, alone.odd_set)


class TestGluing:
    def test_glued_gadgets_are_the_stand_alone_gadgets(self):
        """Γ of each ring and each clause of the assembly, relabelled, is the
        stand-alone gadget with a stub at each outward vertex or port: the
        same edges, fixed arcs and marks.  The gadget claims are checked on
        the stand-alone gadgets, so they hold for the glued ones."""
        for f, pf in enumerate(_glued_formulas()):
            red = assemble(pf)
            for i, copies in enumerate(red.variable_ids):
                if not copies:
                    continue
                gad = build_variable_gadget(len(copies))
                names = {
                    c[x]: g[x] for c, g in zip(copies, gad.ids) for x in CORE_NAMES
                }
                attach = [v for pair in gad.stub_pairs for v in pair]
                glued, alone = _glued_and_alone(red, names, gad.problem, attach)
                assert glued == alone, (f, f"x{i}")
            for j, ids in enumerate(red.clause_ids):
                gad = build_clause_gadget([pol for _, _, pol in red.slots[j]])
                names = {ids[x]: gad.ids[x] for x in ids}
                attach = [v for pair in gad.port_pairs for v in pair]
                glued, alone = _glued_and_alone(red, names, gad.problem, attach)
                assert glued == alone, (f, f"c{j}")

    def test_artifact_bytes_are_pinned(self):
        """The canonical bytes, with rotation, registry and formula, of the
        sample, the three frozen cores and 12/17 seeds 0-2: any change to
        the ids, labels, links, marks or rotation of an assembly shows."""
        digest = hashlib.sha256()
        for pf in _glued_formulas()[:7]:
            red = assemble(pf)
            digest.update(write_instance(
                red.problem, rotation=red.rotation, registry=red.registry,
                formula=red.formula,
            ))
        assert digest.hexdigest()[:16] == "d941af6fa2bcdac6"


def _corrupt(red, how: str):
    """``red`` with one fault of kind ``how`` put into its graph, odd set,
    rotation or registry; the raw constructors keep every other part as it
    was."""
    g, odd, orders = red.problem.graph, red.problem.odd_set, dict(red.rotation.orders)
    registry = red.registry
    vertices, edges, arcs = g.vertices, g.edges, g.arcs
    # a marked vertex of degree 3 in a variable copy
    x0 = red.variable_ids[0][0]["a"]
    if how == "drop an arc":
        arcs = arcs - {min(arcs)}
    elif how == "join two clauses":
        edges = edges | {(red.clause_ids[0]["w1"], red.clause_ids[1]["w1"])}
    elif how == "join two variables":
        edges = edges | {(x0, red.variable_ids[1][0]["a"])}
    elif how == "stray connector":
        edges = edges | {(x0, red.clause_ids[0]["w1"])}
    elif how == "extra vertex":
        vertices = vertices | {10**6}
        edges = edges | {(x0, 10**6)}
    elif how == "unmark a vertex":
        odd = odd - {x0}
    elif how == "swap a rotation":
        a, b, c = orders[x0]
        orders[x0] = (b, a, c)
    elif how == "break the registry":
        to_vertex = {**registry.to_vertex, registry.label(x0): x0 + 1}
        registry = GadgetRegistry(to_label=registry.to_label, to_vertex=to_vertex)
    graph = PartiallyDirectedGraph(vertices=vertices, edges=edges, arcs=arcs)
    return dataclasses.replace(
        red,
        problem=OrientationProblem(graph=graph, odd_set=odd),
        rotation=RotationSystem(orders=orders),
        registry=registry,
    )


_NO_FIT = "rotation system does not fit the graph"


@pytest.mark.parametrize("how, named", [
    ("drop an arc", ["arc count off", "parity gate violated", _NO_FIT]),
    ("join two clauses", ["edge count off", "degree 4 at c0.w1", _NO_FIT,
                          "edge joins two clauses"]),
    ("join two variables", ["degree 4 at x0.k0.a", "edge joins two variables"]),
    ("stray connector", ["stray connector x0.k0.a-c0.w1"]),
    ("extra vertex", ["vertex count off", "unmarked vertex 1000000 has degree 1",
                      "registry does not cover the vertex set", _NO_FIT,
                      "edge at a vertex of no gadget: 1-1000000"]),
    ("unmark a vertex", ["unmarked vertex x0.k0.a has degree 3"]),
    ("swap a rotation", ["rotation system is not genus zero"]),
    ("break the registry", ["registry is not bijective"]),
])
def test_structural_check_reports_a_corrupted_reduction(how, named):
    rep = structural_check(_corrupt(assemble(generate(3, 6, 7)), how))
    assert not rep.ok
    for text in named:
        assert any(p.startswith(text) for p in rep.problems), (text, rep.problems)
    # faces are counted only on a rotation that fits the graph
    assert (rep.faces == 0) == any(p.startswith(_NO_FIT) for p in rep.problems)


def _satisfying_assignments(formula):
    n = formula.variable_count
    for bits in itertools.product([False, True], repeat=n):
        if all(
            any(bits[v] == pol for v, pol in clause)
            for clause in formula.clauses
        ):
            yield bits


def _swept_completion(ids, arcs):
    """The hexagon completion of a clause by sweeping all 64 ring masks.

    The reference for the closed form in `orientation_from_assignment`: the
    smallest sorted arc list that is odd at every hexagon vertex, given the
    port arcs in ``arcs``, and is not a consistently directed ring.
    """
    hexagon = [ids[x] for x in HEX_NAMES]
    ring = [(hexagon[q], hexagon[(q + 1) % 6]) for q in range(6)]
    from_ports = {ids[w]: int((ids[v], ids[w]) in arcs) for v, w in MATCH_EDGES}
    best = None
    for mask in range(1, 63):   # masks 0 and 63 direct the ring as a cycle
        cand = sorted(
            (a, b) if (mask >> q) & 1 else (b, a) for q, (a, b) in enumerate(ring)
        )
        deg = dict(from_ports)
        for _, h in cand:
            deg[h] += 1
        if all(d % 2 == 1 for d in deg.values()) and (best is None or cand < best):
            best = cand
    return best


def _with_unused_variable(pf):
    """``pf`` with one more variable, in no clause: an isolated vertex."""
    n = pf.formula.variable_count

    def shift(v):
        return v + 1 if v >= n else v

    orders = {shift(v): [shift(w) for w in order]
              for v, order in pf.rotation.orders.items()}
    orders[n] = ()
    return PlanarFormula.build(
        Formula.build(n + 1, pf.formula.clauses), RotationSystem.build(orders)
    )


# The outward mode of one variable copy.  Marking the outside stub vertices
# odd gives the template that leaving them out of the parity constraint
# gave: each has one link, the fixed arc into it.
OUTWARD_MODE = {
    "a-b": ("b", "a"),
    "b-c": ("b", "c"),
    "c-d": ("d", "c"),
    "d-uh": ("uh", "d"),
    "e-f": ("f", "e"),
    "f-t": ("t", "f"),
    "link": ("t", "s"),
    "s-e": ("e", "s"),
    "u-a": ("a", "u"),
}


class TestOrientationBridge:
    def test_mode_template_is_pinned(self):
        assert _mode_template() == OUTWARD_MODE

    def test_round_trip_all_models(self):
        red = assemble(sample_planar_formula())
        models = list(_satisfying_assignments(red.formula))
        assert models
        for bits in models:
            o = orientation_from_assignment(red, bits)
            assert is_T_odd_on(red.problem, o)
            assert is_acyclic(o.arcs).acyclic
            assert assignment_from_orientation(red, o) == tuple(bits)

    def test_boundary_class_counts_satisfied_literals(self):
        red = assemble(sample_planar_formula())
        for bits in _satisfying_assignments(red.formula):
            o = orientation_from_assignment(red, bits)
            for j, clause in enumerate(red.formula.clauses):
                satisfied = sum(bits[v] == pol for v, pol in clause)
                assert clause_boundary_class(red, o, j) == satisfied

    def test_unsatisfied_assignment_rejected(self):
        red = assemble(sample_planar_formula())
        with pytest.raises(GadgetError):
            orientation_from_assignment(red, (False,) * 5)

    def test_short_assignment_rejected(self):
        red = assemble(sample_planar_formula())
        with pytest.raises(GadgetError, match="^assignment must be total$"):
            orientation_from_assignment(red, (True,))

    def test_flipped_connector_rejected(self):
        red = assemble(sample_planar_formula())
        bits = next(_satisfying_assignments(red.formula))
        o = orientation_from_assignment(red, bits)
        u = red.variable_ids[0][0]["u"]
        port = next(
            w for w in red.problem.graph.adjacency()[u]
            if red.registry.label(w).startswith("c")
        )
        directed = set(o.arcs) - red.problem.graph.arcs
        swap = (u, port) if (u, port) in directed else (port, u)
        directed.remove(swap)
        directed.add((swap[1], swap[0]))
        broken = Orientation.of(red.problem.graph, directed)
        with pytest.raises(GadgetError):
            assignment_from_orientation(red, broken)

    def test_hexagon_completion_matches_the_sweep(self):
        cases = [(sample_planar_formula(), None)]
        cases += [(generate(seed, 6, 7), None) for seed in range(10)]
        cases += [(pf, sat_oracle(pf.formula))
                  for pf in (generate(seed, 12, 17) for seed in range(10))]
        checked = 0
        for pf, model in cases:
            red = assemble(pf)
            models = [model] if model else _satisfying_assignments(red.formula)
            for bits in models:
                arcs = orientation_from_assignment(red, bits).arcs
                for ids in red.clause_ids:
                    hexagon = {ids[x] for x in HEX_NAMES}
                    got = sorted(a for a in arcs if set(a) <= hexagon)
                    assert got == _swept_completion(ids, arcs)
                    checked += 1
        assert checked > 1000

    def test_missing_connector_rejected(self):
        red = assemble(sample_planar_formula())
        bits = next(_satisfying_assignments(red.formula))
        o = orientation_from_assignment(red, bits)
        u = red.variable_ids[0][0]["u"]
        port = next(
            w for w in red.problem.graph.adjacency()[u]
            if red.registry.label(w).startswith("c")
        )
        arc = (u, port) if (u, port) in o.arcs else (port, u)
        # the raw constructor takes an arc set that leaves the edge undirected
        broken = Orientation(arcs=o.arcs - {arc})
        with pytest.raises(GadgetError, match="connector left undirected in witness"):
            assignment_from_orientation(red, broken)

    def test_variable_in_no_clause_reads_false(self):
        pf = _with_unused_variable(generate(3, 6, 7))
        red = assemble(pf)
        assert structural_check(red).ok
        assert len(red.variable_ids[6]) == 0
        for bits in _satisfying_assignments(red.formula):
            o = orientation_from_assignment(red, bits)
            assert assignment_from_orientation(red, o) == bits[:6] + (False,)
        assert verify_equivalence(pf)["agree"]

    def test_split_port_pair_rejected(self):
        red = assemble(sample_planar_formula())
        bits = next(_satisfying_assignments(red.formula))
        o = orientation_from_assignment(red, bits)
        ids = red.clause_ids[0]
        v1, w1 = ids["v1"], ids["w1"]
        directed = set(o.arcs) - red.problem.graph.arcs
        swap = (v1, w1) if (v1, w1) in directed else (w1, v1)
        directed.remove(swap)
        directed.add((swap[1], swap[0]))
        broken = Orientation.of(red.problem.graph, directed)
        with pytest.raises(GadgetError):
            clause_boundary_class(red, broken, 0)


class TestVerifyEquivalence:
    def test_sample_agrees_sat(self):
        out = verify_equivalence(sample_planar_formula())
        assert out["agree"]
        assert out["status"] == solver.FEASIBLE
        assert out["sat"] is True
        assert out["orientation_feasible"] is True
        assert out["assignment"] is not None

    def test_unsat_samples_agree(self):
        for pf in unsat_samples():
            assert sat_oracle(pf.formula) is None
            out = verify_equivalence(pf)
            assert out["agree"]
            assert out["status"] == solver.INFEASIBLE
            assert out["sat"] is False
            assert out["orientation_feasible"] is False

    def test_generated_instances_agree(self):
        for seed, n, m in [(5, 6, 7), (7, 7, 9), (13, 8, 11)]:
            out = verify_equivalence(generate(seed, n, m))
            assert out["agree"], (seed, n, m)

    @pytest.mark.parametrize("formula, sat", [
        (lambda: unsat_samples()[0], False),
        (lambda: generate(3, 6, 7), True),
    ], ids=["unsat-core0", "sat-6-7-seed3"])
    def test_an_aborted_search_is_no_verdict(self, formula, sat):
        # a search out of budget proves neither answer, so it neither
        # agrees nor disagrees with sat_oracle, whichever way the formula is
        out = verify_equivalence(formula(), budget=0)
        assert out["status"] == solver.ABORTED
        assert out["sat"] is sat
        assert out["orientation_feasible"] is None
        assert out["agree"] is None

    @pytest.mark.parametrize("name, broken", [
        ("is_T_odd_on", lambda problem, orientation: False),
        ("is_acyclic", lambda arcs: dataclasses.replace(is_acyclic(arcs), acyclic=False)),
        ("eval_formula", lambda formula, assignment: False),
    ], ids=["built-witness-not-T-odd", "built-witness-cyclic",
            "solver-witness-falsifies"])
    def test_a_failed_witness_check_disagrees(self, monkeypatch, name, broken):
        # sat and feasible agree, so only the failed check can clear agree
        monkeypatch.setattr(reduction, name, broken)
        out = verify_equivalence(sample_planar_formula())
        assert out["sat"] is True and out["orientation_feasible"] is True
        assert out["agree"] is False

    def test_a_failed_built_witness_disagrees_past_an_abort(self, monkeypatch):
        # the orientation built from the satisfying assignment fails its
        # check, which no answer of the search could mend
        monkeypatch.setattr(reduction, "is_T_odd_on", lambda problem, orientation: False)
        out = verify_equivalence(sample_planar_formula(), budget=0)
        assert out["status"] == solver.ABORTED and out["orientation_feasible"] is None
        assert out["agree"] is False


class TestEmbeddingOfArtifact:
    def test_rotation_covers_artifact(self):
        red = assemble(sample_planar_formula())
        rep = validate_embedding(red.problem.graph, red.rotation)
        assert rep.valid
        assert len(rep.components) == 1
