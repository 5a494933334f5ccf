"""Solver agreement with the exhaustive oracle, plus the two transforms."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddorient import oracle, solver
from oddorient.core import _check_witness, _Index
from oddorient.pdgraph import (
    GraphError,
    Orientation,
    OrientationProblem,
    PartiallyDirectedGraph,
    boundary,
    extends,
    is_T_odd_on,
    is_acyclic,
    is_uniform,
)
from oddorient.reduction import attach_stubs, build_variable_gadget
from oddorient.solver import (
    BudgetError,
    NormalizeError,
    apex_feasible_variant,
    apex_transform,
    decide,
    enumerate as enum,
    max_degree,
    normalize_empty_T,
    solve_degree_two,
    solve_exact,
    solve_tree,
    underlying_is_forest,
)


def problem(verts, edges=(), arcs=(), odd=()):
    return OrientationProblem.build(
        PartiallyDirectedGraph.build(verts, edges, arcs), odd
    )


def path3(odd, arcs=()):
    # u=0, v=1, w=2
    edges = [(0, 1), (1, 2)]
    if arcs:
        edges = [e for e in edges if e not in {tuple(sorted(a)) for a in arcs}]
    return problem([0, 1, 2], edges, arcs, odd)


def four_cycle(odd, arcs=()):
    links = [(0, 1), (1, 2), (2, 3), (0, 3)]
    arcset = {tuple(sorted(a)) for a in arcs}
    edges = [e for e in links if e not in arcset]
    return problem([0, 1, 2, 3], edges, arcs, odd)


class TestEnumerate:
    def test_triangle_empty_T_is_parity_impossible(self):
        rep = enum(problem([0, 1, 2], [(0, 1), (1, 2), (0, 2)]))
        assert rep.total_valid == 0
        assert rep.explored == 8

    def test_single_edge(self):
        rep = enum(problem([0, 1], [(0, 1)], odd=[1]))
        assert rep.total_valid == 1
        assert rep.witnesses[0].arcs == frozenset({(0, 1)})

    def test_witnesses_revalidate(self):
        prob = four_cycle(odd=[0, 2])
        rep = enum(prob)
        assert rep.total_valid == 2
        for w in rep.witnesses:
            assert is_acyclic(w.arcs).acyclic
            assert is_T_odd_on(prob, w)

    def test_require_acyclic_false_counts_cyclic(self):
        # directed 4-cycles are T-odd for T = all vertices but never acyclic
        prob = four_cycle(odd=[0, 1, 2, 3])
        assert enum(prob).total_valid == 0
        rep = enum(prob, require_acyclic=False)
        assert rep.total_valid == 2
        assert all(not is_acyclic(w.arcs).acyclic for w in rep.witnesses)

    def test_scope_relaxes_outside_vertices(self):
        prob = problem([0, 1], [(0, 1)], odd=[])
        assert enum(prob).total_valid == 0            # parity impossible
        assert enum(prob, scope=[0]).total_valid == 1  # only 0 constrained

    def test_budget_refuses_oversize(self):
        # the budget is on the parity space: a 29-edge path has one solution
        # when every vertex is scoped and 2^29 when none is
        n = 30
        path = problem(range(n), [(i, i + 1) for i in range(n - 1)], odd=range(1, n))
        assert enum(path, max_edges=26).total_valid == 1
        with pytest.raises(BudgetError, match="2\\*\\*29 parity space"):
            enum(path, scope=[], max_edges=26)

    def test_witness_cap(self):
        prob = problem([0, 1, 2, 3], [(0, 1), (2, 3)], odd=[1, 3])
        # wait: that's parity-forced unique; use free scope instead
        prob = OrientationProblem.build(
            PartiallyDirectedGraph.build([0, 1, 2, 3], [(0, 1), (2, 3)]),
            [],
        )
        rep = enum(prob, scope=[], witness_cap=2)
        assert rep.total_valid == 4
        assert len(rep.witnesses) == 2

    def test_scope_with_a_non_vertex_is_refused(self):
        with pytest.raises(GraphError) as err:
            enum(path3(odd=[1]), scope=[0, 7])
        assert str(err.value) == "scope contains non-vertices: [7]"

    @pytest.mark.parametrize("require_acyclic", [True, False])
    def test_negative_witness_cap_is_refused(self, require_acyclic):
        prob = problem([0, 1, 2, 3], [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="witness_cap"):
            enum(prob, scope=[], witness_cap=-1, require_acyclic=require_acyclic)

    @pytest.mark.parametrize("require_acyclic", [True, False])
    def test_negative_max_edges_is_refused(self, require_acyclic):
        prob = problem([0, 1, 2, 3], [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="max_edges"):
            enum(prob, scope=[], max_edges=-1, require_acyclic=require_acyclic)

    def test_sweeps_past_64_edges(self):
        # the 6-copy variable ring: 66 edges, more than one 64-bit word, and
        # a parity space of dimension 7; its two orientations are uniform
        # and opposite on the boundary
        gad = build_variable_gadget(6)
        stubs = [v for pair in gad.stub_pairs for v in pair]
        prob, outside = attach_stubs(gad.problem, stubs)
        assert len(prob.graph.edges) == 66
        scope = {v for c in gad.ids for v in c.values()}
        rep = enum(prob, scope=scope, max_edges=7)
        assert rep.total_valid == 2
        outward = [{w.directs(s, o) for s, o in zip(stubs, outside)} for w in rep.witnesses]
        assert sorted(outward, key=min) == [{False}, {True}]

    def test_terminals_past_one_word(self):
        # a 64-edge path has 65 terminals, more than one word of bits
        path = problem(range(65), [(i, i + 1) for i in range(64)], odd=range(1, 65))
        assert enum(path, max_edges=64).total_valid == 1
        # 64 disjoint edges (2i, 2i+1) have 128 terminals; the fixed arcs
        # 2i -> 2i-1 and 64 -> 127 close one cycle through the upper 64
        # exactly when each of their edges runs backward
        edges = [(2 * i, 2 * i + 1) for i in range(64)]
        arcs = [(2 * i, 2 * i - 1) for i in range(33, 64)] + [(64, 127)]
        lower = [(2 * i, 2 * i + 1) for i in range(32)]
        odd = set(range(1, 64, 2)) | set(range(64, 128))
        backward = problem(range(128), edges, arcs, odd=odd)
        rep = enum(backward, max_edges=64)
        assert (rep.total_valid, rep.explored) == (0, 2 ** 64)
        assert enum(backward, max_edges=64, require_acyclic=False).total_valid == 1
        last_forward = problem(range(128), edges, arcs, odd=odd - {126, 127})
        rep = enum(last_forward, max_edges=64)
        assert rep.total_valid == 1
        assert rep.witnesses[0].arcs == frozenset(
            arcs + lower + [(2 * i + 1, 2 * i) for i in range(32, 63)] + [(126, 127)]
        )

    def test_disjoint_union_count_is_the_product(self):
        rng = random.Random(8)
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        parts = []
        while len(parts) < 2:
            edges = rng.sample(pairs, 12)
            odd = set(rng.sample(range(8), 4))
            part = problem(range(8), edges, odd=odd)
            count = enum(part).total_valid
            if count:
                parts.append((edges, odd, count))
        (e1, t1, c1), (e2, t2, c2) = parts
        union = problem(
            range(16),
            e1 + [(u + 8, v + 8) for u, v in e2],
            odd=t1 | {v + 8 for v in t2},
        )
        rep = enum(union)
        assert rep.explored == 2 ** 24
        assert rep.total_valid == c1 * c2

    def test_sweep_memory_is_bounded(self):
        # an empty scope keeps all 2^20 masks; the 20-cycle has two cyclic ones
        prob = problem(range(20), [(i, (i + 1) % 20) for i in range(20)])
        tracemalloc.start()
        try:
            rep = enum(prob, scope=[])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.total_valid == 2 ** 20 - 2
        assert peak < 64 * 2 ** 20

    # (vertices, edges, seed): a connected edge graph with two fixed arcs and
    # full scope has a parity space of dimension edges - vertices + 1, from
    # 6 up to 14; the last is swept in blocks of 2**12 solutions, four blocks
    @pytest.mark.parametrize("n,k,seed", [
        (8, 13, 7), (9, 15, 6), (10, 18, 3), (12, 22, 0), (21, 34, 4),
    ])
    def test_sweep_across_words_and_blocks(self, n, k, seed, monkeypatch):
        rng = random.Random(seed)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in edges]
        extra = rng.sample(pairs, k - n + 3)
        edges += extra[2:]
        odd = set(rng.sample(range(n), n // 2))
        odd ^= {0} if (len(odd) + k) % 2 else set()
        prob = problem(range(n), edges, extra[:2], odd)
        d = k - n + 1
        if n == 21:
            monkeypatch.setattr(oracle, "_BLOCK_BITS", 12)
            assert d == 14
        # the reference does without the kernel: every parity solution,
        # filtered by is_acyclic
        every = enum(prob, witness_cap=None, require_acyclic=False)
        assert every.total_valid == 2 ** d
        valid = [w for w in every.witnesses if is_acyclic(w.arcs).acyclic]
        assert len(valid) > 1
        # the cap keeps all but the last hit: it cuts inside that hit's block
        for cap in (None, len(valid) - 1):
            rep = enum(prob, witness_cap=cap)
            assert (rep.total_valid, rep.witnesses) == (len(valid), tuple(valid[:cap]))


class TestSolveTree:
    def test_path_unique_witness(self):
        res = solve_tree(path3(odd=[0, 2]))
        assert res.feasible
        assert res.witness.arcs == frozenset({(1, 0), (1, 2)})

    def test_path_parity_infeasible(self):
        res = solve_tree(path3(odd=[1]))
        assert res.status == "infeasible"

    def test_fixed_arc_contradicts_unique_orientation(self):
        res = solve_tree(path3(odd=[0, 2], arcs=[(0, 1)]))
        assert res.status == "infeasible"

    def test_not_a_forest_rejected(self):
        with pytest.raises(GraphError, match="forest"):
            solve_tree(four_cycle(odd=[]))

    def test_isolated_odd_vertex(self):
        res = solve_tree(problem([0], odd=[0]))
        assert res.status == "infeasible"

    def test_uniqueness_on_forests(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 9)
            edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
            odd = [v for v in range(n) if rng.random() < 0.5]
            prob = problem(range(n), edges, odd=odd)
            rep = enum(prob)
            assert rep.total_valid <= 1
            assert solve_tree(prob).feasible == (rep.total_valid == 1)


class TestSolveDegreeTwo:
    def test_four_cycle_all_odd_infeasible(self):
        # both T-odd orientations are the two directed rotations
        prob = four_cycle(odd=[0, 1, 2, 3])
        assert solve_degree_two(prob).status == "infeasible"
        assert enum(prob).total_valid == 0

    def test_four_cycle_opposite_pair_feasible(self):
        prob = four_cycle(odd=[0, 2])
        rep = enum(prob)
        assert rep.total_valid == 2
        res = solve_degree_two(prob)
        assert res.feasible
        assert res.witness.arcs in {w.arcs for w in rep.witnesses}

    def test_fixed_arcs_against_both_candidates(self):
        # the two T-odd candidates are mutual flips, so a single fixed arc
        # always sides with one of them; fixing arcs from BOTH candidates
        # excludes the pair and the instance turns infeasible
        base = four_cycle(odd=[0, 2])
        first, second = (w.arcs for w in enum(base).witnesses)
        arc_a = next(a for a in first if a not in second)
        arc_b = next(a for a in second if a not in first and
                     tuple(sorted(a)) != tuple(sorted(arc_a)))
        pinned_one = four_cycle(odd=[0, 2], arcs=[arc_a])
        assert solve_degree_two(pinned_one).feasible
        pinned_both = four_cycle(odd=[0, 2], arcs=[arc_a, arc_b])
        assert solve_degree_two(pinned_both).status == "infeasible"
        assert enum(pinned_both).total_valid == 0

    def test_degree_precondition(self):
        star = problem([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)], odd=[0])
        with pytest.raises(GraphError, match="degree"):
            solve_degree_two(star)

    def test_mixed_components(self):
        # one cycle, one path, one isolated vertex
        prob = problem(
            range(8),
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)],
            odd=[2, 3, 6],
        )
        res = solve_degree_two(prob)
        assert res.feasible == (enum(prob).total_valid > 0)

    def test_two_orientation_property_on_cycles(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(3, 10)
            edges = [(i, (i + 1) % n) for i in range(n)]
            odd = [v for v in range(n) if rng.random() < 0.5]
            prob = problem(range(n), edges, odd=odd)
            total = enum(prob).total_valid
            if (len(edges) + len(odd)) % 2 == 0:
                assert total in (0, 2)
            else:
                assert total == 0


class TestSolveExact:
    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
            rng.shuffle(pairs)
            edges, arcs = [], []
            for u, v in pairs[: rng.randint(0, 10)]:
                if rng.random() < 0.3:
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
                else:
                    edges.append((u, v))
            odd = [v for v in range(n) if rng.random() < 0.5]
            prob = problem(range(n), edges, arcs, odd)
            rep = enum(prob)
            res = solve_exact(prob)
            assert res.feasible == (rep.total_valid > 0)

    def test_cyclic_fixed_arcs_infeasible(self):
        # every edge component meets parity ({0, 3} has the edge and the arc
        # 2->0, {1} and {2} an arc into each and odd), so the fixed cycle is
        # the one defect
        prob = problem(
            [0, 1, 2, 3], [(0, 3)], [(0, 1), (1, 2), (2, 0)], odd=[1, 2]
        )
        res = solve_exact(prob)
        assert res.status == "infeasible"
        assert "cycle" in res.detail

    def test_budget_abort(self):
        n = 16
        edges = [(u, v) for u in range(n) for v in range(n) if u < v]
        odd = list(range(0, n, 2))
        prob = problem(range(n), edges, odd=odd)
        res = solve_exact(prob, budget=3)
        assert res.status == "aborted"


class TestDecide:
    def test_parity_gate_short_circuits(self):
        res = decide(path3(odd=[1]))
        assert res.status == "infeasible"
        assert "parity" in res.detail
        assert res.decisions == 0

    def test_forest_dispatch_identity(self):
        prob = path3(odd=[0, 2])
        assert decide(prob).witness.arcs == solve_tree(prob).witness.arcs

    def test_general_dispatch_matches_oracle(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(3, 7)
            pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
            rng.shuffle(pairs)
            edges = pairs[: rng.randint(2, 10)]
            odd = [v for v in range(n) if rng.random() < 0.5]
            prob = problem(range(n), edges, odd=odd)
            assert decide(prob).feasible == (enum(prob).total_valid > 0)


def indexed(prob, witness):
    """The index of ``prob`` and the witness's (tail, head) position pair for
    each of its edges, in link order: the form ``_check_witness`` reads."""
    ix = _Index(prob.graph)
    labels = ix.labels
    arcs = [
        (a, b) if (labels[a], labels[b]) in witness.arcs else (b, a)
        for a, b in ix.edges
    ]
    return ix, arcs


class TestWitnessCheck:
    def test_flipped_edge_breaks_parity(self):
        # a forest stays acyclic under any flip, so only parity can catch it;
        # a flip moves one in-arc between the edge's two ends
        prob = problem(
            range(6), [(0, 1), (1, 2), (1, 3), (3, 4)], [(5, 4)], odd=[1, 2, 3]
        )
        res = decide(prob)
        assert res.feasible
        ix, arcs = indexed(prob, res.witness)
        _check_witness(ix, arcs, prob.odd_set)
        for i in range(len(arcs)):
            flipped = arcs[:]
            flipped[i] = arcs[i][::-1]
            with pytest.raises(RuntimeError, match="parity"):
                _check_witness(ix, flipped, prob.odd_set)

    def test_directed_cycle_that_keeps_parity_is_caught(self):
        # a 4-cycle with the chord 0-2 and only 1 odd: two of the four parity
        # solutions are acyclic, and the other two hold a directed cycle
        prob = problem(range(4), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], odd=[1])
        res = decide(prob)
        assert res.feasible
        assert _check_witness(*indexed(prob, res.witness), prob.odd_set) is True
        parity_only = enum(prob, witness_cap=None, require_acyclic=False).witnesses
        cyclic = [w for w in parity_only if not is_acyclic(w.arcs).acyclic]
        assert len(cyclic) == 2
        for w in cyclic:
            assert _check_witness(*indexed(prob, w), prob.odd_set) is False

    def test_arc_off_its_edge_is_caught(self):
        prob = path3(odd=[0, 2])
        ix, arcs = indexed(prob, decide(prob).witness)
        arcs[0] = (0, 2)
        with pytest.raises(RuntimeError, match="no edge"):
            _check_witness(ix, arcs, prob.odd_set)


class TestApexTransform:
    def test_single_vertex_empty_T(self):
        prob = problem([7], odd=[])
        apexed = apex_transform(prob)
        assert apexed.graph.vertices == frozenset({7, 8})
        assert apexed.graph.edges == frozenset({(7, 8)})
        assert apexed.odd_set == frozenset({7})
        assert decide(apexed).feasible and decide(prob).feasible

    def test_full_T_adds_isolated_apex(self):
        prob = problem([0, 1], [(0, 1)], odd=[0, 1])
        apexed = apex_transform(prob)
        assert apexed.graph.edges == prob.graph.edges
        assert 2 in apexed.graph.vertices
        assert decide(apexed).feasible == decide(prob).feasible

    def test_rejects_arcs(self):
        with pytest.raises(GraphError, match="undirected"):
            apex_transform(problem([0, 1], arcs=[(0, 1)]))

    def test_two_sided_equivalence_sample(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u < v and rng.random() < 0.4
            ]
            odd = [v for v in range(n) if rng.random() < 0.5]
            prob = problem(range(n), edges, odd=odd)
            base = enum(prob).total_valid > 0
            assert (enum(apex_transform(prob)).total_valid > 0) == base
            assert apex_feasible_variant(prob).feasible == base

    def test_variant_passes_an_abort_through(self):
        # on this 4-cycle's apex graph the first even vertex tried already
        # needs a decision: its abort is the answer, not "no vertex admits"
        prob = problem(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)], odd=[2, 3])
        result = apex_feasible_variant(prob, budget=0)
        assert result.status == solver.ABORTED
        assert result.detail == "decision budget exceeded"


@st.composite
def contractible_problems(draw):
    """Small instances with fixed arcs whose odd set is the odd-degree
    vertices plus some of degree 2, so that normalization often contracts
    and reaches each of its refusals."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    kinds = draw(st.lists(st.integers(0, 2), min_size=len(chosen), max_size=len(chosen)))
    edges, arcs = [], []
    for (u, v), kind in zip(chosen, kinds):
        if kind == 0:
            edges.append((u, v))
        else:
            arcs.append((u, v) if kind == 1 else (v, u))
    degree = [0] * n
    for u, v in chosen:
        degree[u] += 1
        degree[v] += 1
    odd = {v for v in range(n) if degree[v] % 2}
    two = [v for v in range(n) if degree[v] == 2]
    if two:
        odd |= draw(st.sets(st.sampled_from(two)))
    if draw(st.integers(0, 4)) == 4:
        # one vertex off, which only the odd-degree check can refuse
        odd ^= {draw(st.integers(0, n - 1))}
    return problem(range(n), edges, arcs, odd)


class TestNormalizeEmptyT:
    def test_edge_edge_contraction(self):
        # contract 1 out of the 4-cycle: its two edges merge into edge {0,2}
        prob = four_cycle(odd=[1])
        norm, back = normalize_empty_T(prob)
        assert norm.odd_set == frozenset()
        assert norm.graph.vertices == frozenset({0, 2, 3})
        assert norm.graph.edges == frozenset({(0, 2), (2, 3), (0, 3)})
        assert not norm.graph.arcs
        # both sides are parity-infeasible (odd edge counts), status agrees
        assert decide(prob).status == decide(norm).status == "infeasible"

    def test_parallel_block_reported(self):
        prob = problem([0, 1, 2], [(0, 1), (1, 2), (0, 2)], odd=[1])
        with pytest.raises(NormalizeError, match="parallel") as err:
            normalize_empty_T(prob)
        assert err.value.vertex == 1

    def test_arc_composition(self):
        # 1 in T with arcs 0->1, 1->2; vertices 0,2 joined to keep degrees even
        prob = problem(
            [0, 1, 2, 3],
            [(0, 3), (2, 3)],
            [(0, 1), (1, 2)],
            odd=[1],
        )
        norm, back = normalize_empty_T(prob)
        # contraction gives arc 0->2; final flip reverses it
        assert norm.graph.arcs == frozenset({(2, 0)})
        assert norm.odd_set == frozenset()
        res = decide(norm)
        assert res.feasible == decide(prob).feasible
        if res.feasible:
            restored = back.restore(res.witness)
            assert is_acyclic(restored.arcs).acyclic
            assert is_T_odd_on(prob, restored)

    def test_incompatible_arcs_blocked(self):
        prob = problem([0, 1, 2], [], [(0, 1), (2, 1)], odd=[1])
        with pytest.raises(NormalizeError, match="compose"):
            normalize_empty_T(prob)

    def test_odd_set_mismatch_reported(self):
        # T vertex of degree 3 stays; a non-T vertex with odd degree trips the check
        prob = problem([0, 1], [(0, 1)], odd=[])
        with pytest.raises(NormalizeError, match="odd-degree"):
            normalize_empty_T(prob)

    def test_status_preserved_and_witness_restores(self):
        rng = random.Random(31)
        done = 0
        for _ in range(200):
            if done >= 25:
                break
            n = rng.randint(4, 8)
            pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
            rng.shuffle(pairs)
            edges = pairs[: rng.randint(3, 10)]
            g = PartiallyDirectedGraph.build(range(n), edges)
            deg = {v: g.degree(v) for v in range(n)}
            odd = frozenset(v for v in range(n) if deg[v] % 2 == 1)
            # choose T = odd-degree vertices so no contraction is needed,
            # or add the degree-2 vertices of even parity as contractables
            prob = OrientationProblem.build(g, odd)
            try:
                norm, back = normalize_empty_T(prob)
            except NormalizeError:
                continue
            done += 1
            a = decide(prob)
            b = decide(norm)
            assert a.status == b.status
            if b.feasible:
                restored = back.restore(b.witness)
                assert is_acyclic(restored.arcs).acyclic
                assert is_T_odd_on(prob, restored)
        assert done >= 10

    @given(contractible_problems())
    @settings(max_examples=400, deadline=None)
    def test_contraction_preserves_status_and_restores(self, prob):
        try:
            norm, back = normalize_empty_T(prob)
        except NormalizeError:
            return
        a, b = decide(prob), decide(norm)
        assert a.status == b.status
        if b.feasible:
            restored = back.restore(b.witness)
            assert extends(prob.graph, restored)
            assert is_acyclic(restored.arcs).acyclic
            assert is_T_odd_on(prob, restored)

    def test_restore_needs_every_merged_link(self):
        # 1 is contracted into the edge 0-2, which this witness leaves out
        _, back = normalize_empty_T(four_cycle(odd=[1]))
        witness = Orientation(arcs=frozenset({(2, 3), (3, 0)}))
        with pytest.raises(GraphError, match="merged link 0-2"):
            back.restore(witness)


# -- property tests ---------------------------------------------------------------


@st.composite
def small_problems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=8) if pairs else st.just(set()))
    kinds = draw(st.lists(st.integers(0, 2), min_size=len(chosen), max_size=len(chosen)))
    edges, arcs = [], []
    for (u, v), kind in zip(sorted(chosen), kinds):
        if kind == 0:
            edges.append((u, v))
        elif kind == 1:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    odd = draw(st.sets(st.integers(0, n - 1)))
    return problem(range(n), edges, arcs, odd)


def brute_force_sweep(prob, scope, witness_cap, require_acyclic):
    """Every direction choice in ascending mask order, checked one by one."""
    g = prob.graph
    edges = sorted(g.edges)
    valid = []
    # product varies its last position fastest, so edge i takes position
    # k-1-i and bit i of the mask
    for bits in itertools.product((False, True), repeat=len(edges)):
        chosen = [(u, v) if fwd else (v, u) for (u, v), fwd in zip(edges, bits[::-1])]
        w = Orientation(arcs=frozenset(chosen) | g.arcs)
        if is_T_odd_on(prob, w, scope) and (
            not require_acyclic or is_acyclic(w.arcs).acyclic
        ):
            valid.append(w)
    shown = valid if witness_cap is None else valid[:witness_cap]
    return len(valid), tuple(shown), 2 ** len(edges)


@st.composite
def sweep_cases(draw):
    prob = draw(small_problems())
    scope = draw(st.none() | st.sets(st.sampled_from(sorted(prob.graph.vertices))))
    return prob, scope, draw(st.sampled_from([None, 0, 1, 4])), draw(st.booleans())


@given(sweep_cases())
@example((  # a cycle closed by fixed arcs through edge-free vertices
    problem(range(4), [(0, 3)], [(0, 1), (1, 2), (2, 3)]), set(), None, True))
@example((  # fixed arcs cyclic on their own
    problem(range(4), [(0, 3), (1, 3)], [(0, 1), (1, 2), (2, 0)]), set(), None, True))
@example((  # inconsistent parity system
    problem(range(3), [(0, 1), (1, 2), (0, 2)]), None, None, False))
@example((  # witness order: the two solutions are masks 01 and 10
    problem(range(3), [(0, 1), (1, 2)]), {1}, None, True))
@example((  # empty scope
    problem(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)]), set(), 4, True))
@settings(max_examples=150, deadline=None)
def test_enumerate_matches_brute_force(case):
    prob, scope, witness_cap, require_acyclic = case
    rep = enum(prob, scope=scope, witness_cap=witness_cap,
               require_acyclic=require_acyclic)
    assert (rep.total_valid, rep.witnesses, rep.explored) == brute_force_sweep(
        prob, scope, witness_cap, require_acyclic
    )


@given(sweep_cases())
@example((  # 3 of the first block's 4 solutions are valid: the cap of 4 ends
    # inside the second block
    problem(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)]), set(), 4, True))
@settings(max_examples=150, deadline=None)
def test_enumerate_matches_brute_force_across_blocks(case):
    """The same comparison with blocks of 4 solutions, so that a draw
    spans several blocks and a witness cap can end inside a later one."""
    prob, scope, witness_cap, require_acyclic = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK_BITS", 2)
        rep = enum(prob, scope=scope, witness_cap=witness_cap,
                   require_acyclic=require_acyclic)
    assert (rep.total_valid, rep.witnesses, rep.explored) == brute_force_sweep(
        prob, scope, witness_cap, require_acyclic
    )


@given(small_problems())
@settings(max_examples=80, deadline=None)
def test_oracle_bounds_and_witness_validity(prob):
    rep = enum(prob, witness_cap=None)
    assert rep.total_valid <= rep.explored
    assert len(rep.witnesses) == rep.total_valid
    for w in rep.witnesses:
        assert is_acyclic(w.arcs).acyclic
        assert is_T_odd_on(prob, w)


@given(small_problems())
@settings(max_examples=80, deadline=None)
def test_decide_matches_oracle(prob):
    rep = enum(prob)
    res = decide(prob)
    assert res.status in ("feasible", "infeasible")
    assert res.feasible == (rep.total_valid > 0)
    if res.feasible:
        assert is_acyclic(res.witness.arcs).acyclic
        assert is_T_odd_on(prob, res.witness)


@st.composite
def sparse_problems(draw):
    """A forest, or a union of paths and cycles, on scattered and partly
    negative labels, with some links fixed as arcs (or, in one draw of
    four, none, so that cycles made only of edges are common) and a random
    odd set."""
    n = draw(st.integers(min_value=0, max_value=10))
    labels = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    links = []
    if draw(st.booleans()):
        # a forest: each vertex joins an earlier one or starts a new tree
        for i in range(1, n):
            if draw(st.integers(0, 4)):
                links.append((labels[draw(st.integers(0, i - 1))], labels[i]))
    else:
        i = 0
        while i < n:
            seg = labels[i:i + draw(st.integers(1, 6))]
            i += len(seg)
            links += zip(seg, seg[1:])
            if len(seg) >= 3 and draw(st.booleans()):
                links.append((seg[-1], seg[0]))
    edges, arcs = [], []
    all_edges = draw(st.integers(0, 3)) == 0
    for u, v in links:
        kind = 0 if all_edges else draw(st.integers(0, 3))
        if kind < 2:
            edges.append((u, v))
        else:
            arcs.append((u, v) if kind == 2 else (v, u))
    odd = draw(st.sets(st.sampled_from(labels))) if labels else set()
    return problem(labels, edges, arcs, odd)


# a four-cycle on scattered labels whose two parity solutions are
# {4->-2, 4->10, 10->7, -2->7} and its flip
_RING = ([7, -2, 4, 10], [(-2, 4), (4, 10), (10, 7), (7, -2)])


@given(sparse_problems())
@example(problem([-7, 0, 5], [(0, 5)], odd=[-7, 0, 5]))   # isolated odd vertex
@example(problem([-4, 2, 9], arcs=[(-4, 2), (2, 9), (9, -4)], odd=[-4, 2, 9]))
@example(problem(   # both parity solutions each cross a fixed arc
    [-5, 3, 11, 40], [(-5, 3), (-5, 40)], [(3, 11), (40, 11)], odd=[-5, 11]))
@example(problem(   # a feasible ring next to a path its fixed arc blocks
    [-5, 3, 11, 40, 100, 101], [(-5, 3), (3, 11), (11, 40), (-5, 40)],
    [(101, 100)], odd=[-5, 11, 101]))
@example(problem([]))
@example(problem(*_RING, odd=[-2, 10]))
@example(problem(   # the path of edges a fixed arc closes can only run round
    [-3, 5, 8, 20], [(-3, 5), (5, 8), (8, 20)], [(20, -3)], odd=[-3, 5, 8, 20]))
@example(problem(*_RING, odd=_RING[0]))   # the cut runs round, so does its reverse
@example(problem(   # -6 has only fixed arcs into it, two of them, and is odd
    [-6, 1, 9, 30], [(9, 30)], [(1, -6), (9, -6)], odd=[-6]))
@example(problem(   # the edge tree -9 - -1 is odd, though |E|+|A|+|T| is even
    [-9, -1, 4, 12, 33], [(-9, -1), (4, 12), (12, 33)], [(-1, 4)], odd=[4, 33]))
@settings(max_examples=300, deadline=None)
def test_sparse_pass_matches_enumerate(prob):
    """``decide`` and the special-case solvers that accept the graph agree
    with the exhaustive oracle, and each witness is one of its witnesses."""
    rep = enum(prob, witness_cap=None)
    witnesses = {w.arcs for w in rep.witnesses}
    solvers = [decide]
    if underlying_is_forest(prob.graph):
        solvers.append(solve_tree)
    if max_degree(prob.graph) <= 2:
        solvers.append(solve_degree_two)
    for solve in solvers:
        res = solve(prob)
        assert res.feasible == (rep.total_valid > 0)
        assert res.decisions == 0
        if res.feasible:
            assert is_acyclic(res.witness.arcs).acyclic
            assert is_T_odd_on(prob, res.witness)
            assert res.witness.arcs in witnesses


def edge_component_counts(prob):
    """The edge components (fixed arcs ignored), each mapped to its count of
    edges, fixed arcs into it and odd vertices; by a plain search."""
    g = prob.graph
    counts = {}
    for start in sorted(g.vertices):
        if any(start in comp for comp in counts):
            continue
        comp, todo = {start}, [start]
        while todo:
            x = todo.pop()
            for a, b in g.edges:
                for y, z in ((a, b), (b, a)):
                    if y == x and z not in comp:
                        comp.add(z)
                        todo.append(z)
        comp = frozenset(comp)
        counts[comp] = (
            sum(1 for a, _ in g.edges if a in comp)
            + sum(1 for _, h in g.arcs if h in comp)
            + sum(1 for v in comp if v in prob.odd_set)
        )
    return counts


@given(sparse_problems())
@example(problem(*_RING, odd=[-2, 10]))   # an even cycle of edges, cut at -2
@example(problem(*_RING, odd=[-2]))
@settings(max_examples=300, deadline=None)
def test_parity_refusal_names_an_odd_edge_component(prob):
    """The pass refuses on parity exactly when some edge component has an
    odd count, and the vertex it names lies in such a component."""
    solve = solve_tree if underlying_is_forest(prob.graph) else solve_degree_two
    res = solve(prob)
    counts = edge_component_counts(prob)
    odd_comps = [comp for comp, c in counts.items() if c % 2]
    refused = res.detail.startswith("parity cannot be met")
    assert refused == bool(odd_comps)
    if refused:
        named = int(res.detail.rsplit(" ", 1)[1])
        assert any(named in comp for comp in odd_comps)


@st.composite
def link_graphs(draw):
    """Graphs on scattered labels, the empty graph and isolated vertices
    included, whose links are each an edge or a fixed arc either way."""
    labels = draw(st.lists(st.integers(-20, 20), max_size=9, unique=True))
    pairs = list(itertools.combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    edges, arcs = [], []
    for u, v in chosen:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            edges.append((u, v))
        else:
            arcs.append((u, v) if kind == 1 else (v, u))
    return PartiallyDirectedGraph.build(labels, edges, arcs)


@given(link_graphs())
@example(PartiallyDirectedGraph.build([], [], []))
@example(PartiallyDirectedGraph.build([4, -3, 11], [], []))   # isolated vertices only
@example(PartiallyDirectedGraph.build([0, 1, 2, 9], [(0, 1), (1, 2)], [(2, 0)]))
@example(PartiallyDirectedGraph.build([-5, 0, 6, 7], [(-5, 0)], [(7, 0), (0, 6)]))
@settings(max_examples=300, deadline=None)
def test_class_helpers_match_networkx(graph):
    """``max_degree`` and ``underlying_is_forest``, which the benchmark's
    branch labels read, agree with networkx on the links taken undirected:
    a forest is a graph with no cycle basis."""
    nx = pytest.importorskip("networkx")
    links = nx.Graph()
    links.add_nodes_from(graph.vertices)
    links.add_edges_from(graph.edges | graph.arcs)
    assert max_degree(graph) == max((d for _, d in links.degree), default=0)
    assert underlying_is_forest(graph) == (not nx.cycle_basis(links))


def test_ring_seed_points_at_the_lowest_vertex_first():
    # the cycle is cut at -2 on its edge to 4, its lower neighbour, pointing
    # 4->-2; the reverse, seeded -2->4, is the other witness.  The three
    # edges peeled after the cut are the propagations
    prob = problem(*_RING, odd=[-2, 10])
    assert enum(prob).total_valid == 2
    res = solve_degree_two(prob)
    assert res.witness.arcs == frozenset({(4, -2), (4, 10), (10, 7), (-2, 7)})
    assert res.propagations == 3
    assert decide(prob).witness == res.witness
