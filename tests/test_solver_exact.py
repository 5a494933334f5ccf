"""The exact search against the exhaustive oracle, its reachability closure
and pure-cycle scan against references recomputed from scratch, and its
component-by-component search of disconnected instances."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddorient.pdgraph import OrientationProblem, PartiallyDirectedGraph
from oddorient.reduction import assemble
from oddorient.samples import sample_planar_formula, unsat_samples
from oddorient.solver import (
    ABORTED,
    INFEASIBLE,
    _ExactSearch,
    decide,
    enumerate as enum,
    solve_exact,
)


def problem(verts, edges=(), arcs=(), odd=()):
    return OrientationProblem.build(
        PartiallyDirectedGraph.build(verts, edges, arcs), odd
    )


# all three undirected, all three odd: the parity gate passes (3 + 3 is
# even), but the only all-odd orientation is a directed triangle
TRIANGLE_ALL_ODD = problem([0, 1, 2], [(0, 1), (1, 2), (0, 2)], odd=[0, 1, 2])
# the fixed path 0->1->2 plus the edge 0-2, all three odd: the gate passes
# (1 + 2 + 3 is even), but parity at 0 needs 2->0, which closes the path
PATH_CLOSED_BY_PARITY = problem([0, 1, 2], [(0, 2)], [(0, 1), (1, 2)], odd=[0, 1, 2])


@st.composite
def instances(draw):
    """Small partially directed graphs whose odd set passes the global parity
    gate, so infeasible draws are infeasible for want of an acyclic
    orientation, not by parity alone."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    kinds = draw(st.lists(st.integers(0, 3), min_size=len(chosen), max_size=len(chosen)))
    edges, arcs = [], []
    for (u, v), kind in zip(chosen, kinds):
        if kind == 2:
            arcs.append((u, v))
        elif kind == 3:
            arcs.append((v, u))
        else:
            edges.append((u, v))
    odd = draw(st.sets(st.integers(0, n - 1)))
    if (len(edges) + len(arcs) + len(odd)) % 2:
        odd ^= {0}
    return problem(range(n), edges, arcs, odd)


@given(instances(), st.data())
@example(TRIANGLE_ALL_ODD, None)
@example(PATH_CLOSED_BY_PARITY, None)
@settings(max_examples=150, deadline=None)
def test_counting_search_matches_oracle(prob, data):
    scopes = [None]
    if data is not None:
        scopes.append(data.draw(st.sets(st.sampled_from(sorted(prob.graph.vertices)))))
    for scope in scopes:
        res = solve_exact(prob, scope=scope, count_all=True)
        rep = enum(prob, scope=scope)
        assert res.enumerated == rep.total_valid
        assert res.feasible == (rep.total_valid > 0)


def test_examples_are_parity_feasible_but_infeasible():
    for prob in (TRIANGLE_ALL_ODD, PATH_CLOSED_BY_PARITY):
        g = prob.graph
        assert (len(g.edges) + len(g.arcs) + len(prob.odd_set)) % 2 == 0
        assert enum(prob).total_valid == 0


def reach_by_bfs(search: _ExactSearch) -> list[int]:
    """desc recomputed from scratch over the fixed and decided arcs."""
    index = {v: i for i, v in zip(range(search.n), search.verts)}
    out = [[] for _ in range(search.n)]
    for t, h in search.graph.arcs:
        out[index[t]].append(index[h])
    for arc in search.decided:
        if arc is not None:
            out[arc[0]].append(arc[1])
    reach = []
    for x in range(search.n):
        seen, frontier = {x}, [x]
        while frontier:
            frontier = [y for z in frontier for y in out[z] if y not in seen]
            seen.update(frontier)
        reach.append(sum(1 << y for y in seen))
    return reach


@given(instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_closure_tracks_apply_and_undo(prob, seed):
    rng = random.Random(seed)
    search = _ExactSearch(prob, budget=0, scope=None, count_all=False)
    if not search.fixed_acyclic:
        return
    assert search.desc == reach_by_bfs(search)
    checkpoints = []
    for _ in range(40):
        undecided = [e for e in range(search.m) if search.decided[e] is None]
        roll = rng.random()
        if roll < 0.3:
            checkpoints.append((len(search.trail), search.desc[:]))
        elif roll < 0.5 and checkpoints:
            # any checkpoint still on the stack; the later ones become stale
            i = rng.randrange(len(checkpoints))
            search.undo_to(*checkpoints[i])
            del checkpoints[i:]
        elif undecided:
            e = rng.choice(undecided)
            u, v = search.ends[e]
            t, h = (u, v) if rng.random() < 0.5 else (v, u)
            before = search.desc[:]
            ok = search.apply_arc(e, t, h)
            # an arc closing a cycle is refused and changes nothing; one that
            # breaks parity stays applied until the search backtracks
            if search.decided[e] is None:
                assert not ok and search.desc == before
        assert search.desc == reach_by_bfs(search)


def pure_cycle_reps_by_bfs(search: _ExactSearch) -> list[int]:
    """Lowest edge id of each undecided component whose vertices all have
    two undecided links, by a search over every undecided component."""
    live_at = [
        [i for i in search.edge_at[x] if search.decided[i] is None]
        for x in range(search.n)
    ]
    seen: set[int] = set()
    reps = []
    for e in range(search.m):
        u = search.ends[e][0]
        if search.decided[e] is not None or u in seen:
            continue
        comp_v, comp_e, stack = {u}, set(), [u]
        while stack:
            x = stack.pop()
            for i in live_at[x]:
                comp_e.add(i)
                for y in search.ends[i]:
                    if y not in comp_v:
                        comp_v.add(y)
                        stack.append(y)
        seen |= comp_v
        if all(len(live_at[x]) == 2 for x in comp_v):
            reps.append(min(comp_e))
    return sorted(reps)


@st.composite
def low_degree_instances(draw):
    """Undirected graphs of average degree 2 to 3 on random vertex ids, so
    that once a few edges are decided the undecided components are often
    paths and cycles."""
    n = draw(st.integers(min_value=3, max_value=12))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    pairs = [(ids[u], ids[v]) for u in range(n) for v in range(u + 1, n)]
    k = min(len(pairs), draw(st.integers(n, 3 * n // 2)))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=k, max_size=k))
    return problem(ids, edges)


@given(low_degree_instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_pure_cycle_walk_matches_bfs(prob, seed):
    rng = random.Random(seed)
    search = _ExactSearch(prob, budget=0, scope=None, count_all=False)
    for _ in range(search.m + 1):
        assert search._pure_cycle_reps() == pure_cycle_reps_by_bfs(search)
        undecided = [e for e in range(search.m) if search.decided[e] is None]
        if not undecided:
            break
        e = rng.choice(undecided)
        u, v = search.ends[e]
        # a refused arc changes nothing, so try the other direction
        search.apply_arc(e, u, v) or search.apply_arc(e, v, u)


def disjoint_union(first: OrientationProblem, second: OrientationProblem):
    """Both problems side by side; ``second`` is shifted above ``first``."""
    shift = max(first.graph.vertices) + 1
    g1, g2 = first.graph, second.graph
    return problem(
        list(g1.vertices) + [v + shift for v in g2.vertices],
        list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges],
        list(g1.arcs) + [(u + shift, v + shift) for u, v in g2.arcs],
        list(first.odd_set) + [v + shift for v in second.odd_set],
    )


def feasible_then_unsat():
    """A feasible reduction with the reduction of a frozen UNSAT core placed
    after it, and the two parts."""
    pad = assemble(sample_planar_formula()).problem
    core = assemble(unsat_samples()[0]).problem
    return disjoint_union(pad, core), pad, core


def test_infeasible_component_is_proved_once():
    union, pad, core = feasible_then_unsat()
    d_pad, d_core = decide(pad), decide(core)
    assert d_pad.feasible and not d_core.feasible
    res = decide(union)
    assert res.status == INFEASIBLE
    # a single search over both parts re-proves the core under each pad branch
    assert res.decisions <= d_pad.decisions + d_core.decisions


def test_components_share_the_decision_budget():
    union, pad, core = feasible_then_unsat()
    need = solve_exact(pad).decisions + solve_exact(core).decisions
    assert solve_exact(union, budget=need - 1).status == ABORTED
    assert solve_exact(union, budget=need).status == INFEASIBLE
