"""The exact search against the exhaustive oracle, its reachability
closure, pure-cycle state and branch choice against references recomputed
from scratch, its ring probe against trial propagation, the completeness of
its cycle forcing, the soundness of the decision levels each forced arc and
conflict rests on and of the nogoods it learns, its completeness through a
count by self-reduction, its verdicts against the oracle, against
sat_oracle on a fixed corpus of reductions and on renamed UNSAT cores, and
against the closed form on complete graphs, its parity refusal per edge
component before any search, the split into components against
networkx, its component-by-component search of disconnected instances, and
its decision and propagation counts on the frozen UNSAT samples, on small
seeded draws and on generated reductions, with the witnesses of the
latter."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddorient.core import _Index, _Part, _split
from oddorient.p3sat import Formula, PlanarFormula, eval_formula, generate, sat_oracle
from oddorient.pdgraph import (
    OrientationProblem,
    PartiallyDirectedGraph,
    extends,
    is_T_odd_on,
    is_acyclic,
    parity_feasible,
)
from oddorient.reduction import assemble, assignment_from_orientation
from oddorient.samples import sample_planar_formula, unsat_samples
from oddorient.search import _ExactSearch
from oddorient.solver import (
    ABORTED,
    FEASIBLE,
    INFEASIBLE,
    decide,
    enumerate as enum,
    solve_exact,
)
from test_solver import edge_component_counts


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
# three solutions, and the search reaches its first only by backtracking at
# level 2: it decides 2->0, then 3->1, which fails, then 1->3 and 2->1
BACKTRACKS_AT_LEVEL_TWO = problem(
    range(5), [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], odd=[4]
)


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


def test_examples_are_parity_feasible_but_infeasible():
    for prob in (TRIANGLE_ALL_ODD, PATH_CLOSED_BY_PARITY):
        g = prob.graph
        assert (len(g.edges) + len(g.arcs) + len(prob.odd_set)) % 2 == 0
        assert enum(prob).total_valid == 0


def search_on(prob, budget=0) -> _ExactSearch:
    """An exact search over the whole of ``prob`` as one part, connected or
    not, built as ``_split`` builds the part of a connected index: in place,
    with only the edges sorted by their ends.  ``solve_exact`` runs one
    search per connected component."""
    ix = _Index(prob.graph)
    ids = sorted(range(len(ix.edges)), key=ix.edges.__getitem__)
    whole = _Part(range(len(ix.labels)), ids, [ix.edges[i] for i in ids], ix.arcs)
    target = [v in prob.odd_set for v in ix.labels]
    return _ExactSearch(whole, target, budget)


def reach_by_bfs(search: _ExactSearch, prob: OrientationProblem) -> list[int]:
    """desc recomputed from scratch over the fixed and decided arcs."""
    index = {v: i for i, v in enumerate(sorted(prob.graph.vertices))}
    out = [[] for _ in range(search.n)]
    for t, h in prob.graph.arcs:
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
    search = search_on(prob)
    if not search.fixed_acyclic:
        return
    assert search.desc == reach_by_bfs(search, prob)
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
        assert search.desc == reach_by_bfs(search, prob)


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


@st.composite
def rings_with_ears(draw):
    """A cycle of undecided edges plus a few outer vertices, each tied to
    one or two cycle vertices by fixed arcs and to other outer vertices by
    undecided edges: the cycle is a pure cycle from the start, and as the
    outer edges get decided its vertices come to reach each other."""
    k = draw(st.integers(min_value=3, max_value=8))
    j = draw(st.integers(min_value=2, max_value=6))
    ids = draw(st.lists(st.integers(0, 99), min_size=k + j, max_size=k + j, unique=True))
    edges = [(ids[i], ids[(i + 1) % k]) for i in range(k)]
    arcs = []
    for w in range(k, k + j):
        for x in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2, unique=True)):
            arcs.append((ids[x], ids[w]) if draw(st.booleans()) else (ids[w], ids[x]))
        for x in draw(st.lists(st.integers(k, w), max_size=3, unique=True)):
            if x != w:
                edges.append((ids[x], ids[w]))
    return problem(ids, edges, arcs)


def pure_cycle_reps_by_scan(search: _ExactSearch) -> list[tuple[int, list[int]]]:
    """The pure cycles as ``rings`` holds them, in ascending rep order,
    found by one walk from the low end of every undecided edge.  The first
    undecided edge met of a component is its lowest, and a walk from its low
    end along two-link vertices comes back to the start exactly when the
    component is a pure cycle."""
    decided, ends, und, edge_at = search.decided, search.ends, search.und, search.edge_at
    reached = set()
    reps = []
    for e in range(search.m):
        start = ends[e][0]
        if decided[e] is not None or start in reached:
            continue
        reached.add(start)
        if und[start] != 2:
            continue
        f, x, ring = e, start, [start]
        while True:
            a, b = ends[f]
            y = b if a == x else a
            if y == start:
                reps.append((e, ring))
                break
            if y in reached or und[y] != 2:
                break
            reached.add(y)
            ring.append(y)
            f = next(i for i in edge_at[y] if i != f and decided[i] is None)
            x = y
    return reps


def assert_rings_match_references(search: _ExactSearch) -> None:
    search._update_rings()
    reps = sorted(search.rings.items())
    assert [e for e, _ in reps] == pure_cycle_reps_by_bfs(search)
    assert reps == pure_cycle_reps_by_scan(search)
    live = {search.ends[i] for i in range(search.m) if search.decided[i] is None}
    for e, ring in reps:
        # the rep edge first, then undecided edges once around the ring
        assert search.ends[e] == (ring[0], ring[1])
        assert len(set(ring)) == len(ring) == sum(search.und[x] for x in ring) // 2
        for x, y in zip(ring, ring[1:] + ring[:1]):
            assert (min(x, y), max(x, y)) in live


@given(low_degree_instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_pure_cycle_walk_matches_bfs(prob, seed):
    rng = random.Random(seed)
    search = search_on(prob)
    for _ in range(search.m + 1):
        assert_rings_match_references(search)
        undecided = [e for e in range(search.m) if search.decided[e] is None]
        if not undecided:
            break
        e = rng.choice(undecided)
        u, v = search.ends[e]
        # a refused arc changes nothing, so try the other direction
        search.apply_arc(e, u, v) or search.apply_arc(e, v, u)


def random_search_state(prob: OrientationProblem, rng: random.Random):
    """A search on ``prob`` with about a fifth of its edges turned into fixed
    arcs besides its own, a random odd set, and a few arcs applied; None
    when the fixed arcs close a cycle."""
    verts = sorted(prob.graph.vertices)
    edges, arcs = [], sorted(prob.graph.arcs)
    for u, v in sorted(prob.graph.edges):
        if rng.random() < 0.2:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        else:
            edges.append((u, v))
    odd = [v for v in verts if rng.random() < 0.5]
    search = search_on(problem(verts, edges, arcs, odd))
    if not search.fixed_acyclic:
        return None
    for _ in range(rng.randrange(len(edges) // 2 + 1)):
        apply_random_arc(search, rng)
    return search


def apply_random_arc(search: _ExactSearch, rng: random.Random) -> None:
    undecided = [e for e in range(search.m) if search.decided[e] is None]
    if undecided:
        e = rng.choice(undecided)
        u, v = search.ends[e]
        # a refused arc changes nothing, so try the other direction
        search.apply_arc(e, u, v) or search.apply_arc(e, v, u)


def probe_by_trial(search: _ExactSearch, e: int) -> tuple[bool, bool]:
    """Each direction of edge e, high end to low end first: applied,
    propagated by parity, and undone."""
    lo, hi = search.ends[e]
    mark, desc = len(search.trail), search.desc[:]
    outcomes = []
    for t, h in ((hi, lo), (lo, hi)):
        outcomes.append(search.apply_arc(e, t, h) and search.propagate())
        search.undo_to(mark, desc)
    return outcomes[0], outcomes[1]


@given(low_degree_instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_probe_matches_trial_propagation(prob, seed):
    rng = random.Random(seed)
    search = random_search_state(prob, rng)
    if search is None:
        return
    for _ in range(search.m + 1):
        # the search probes only once parity propagation has drained
        search.force_q.clear()
        search._update_rings()
        # the trial applies and undoes arcs, which rewinds ``rings``
        for e, ring in sorted(search.rings.items()):
            assert search.probe(ring) == probe_by_trial(search, e)
        apply_random_arc(search, rng)


# Two states on the probe's general path, where ring vertices already reach
# one another, so that the property test above is not the only one to reach
# it.  Both were drawn by ``random_search_state`` and are written out here,
# the decided arcs made fixed and the vertices that play no part dropped.


def test_probe_keeps_the_one_direction_that_survives():
    # the ring 0-2-3 and the fixed path 2->1->3, no odd vertex: 2 reaches 3,
    # and 0->2 makes 2 owe another in-arc, 3->2, which closes that path
    search = search_on(problem(range(4), [(0, 2), (0, 3), (2, 3)], [(2, 1), (1, 3)]))
    ring = search.rings[0]
    assert ring == [0, 2, 3]
    assert search.probe(ring) == probe_by_trial(search, 0) == (True, False)


def test_probe_finds_a_cycle_through_two_closure_jumps():
    # the ring 0-1-2-3-4-5 with fixed arcs 1->3 and 4->0, odd at 1 and 3:
    # 0->1 forces 1->2, 3->2, 3->4, 5->4 and 5->0.  No one of those arcs
    # t->h has h reaching t, but 0->1, the jump 1~>3, 3->4 and the jump
    # 4~>0 close a cycle
    ring_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    search = search_on(problem(range(6), ring_edges, [(1, 3), (4, 0)], [1, 3]))
    ring = search.rings[0]
    assert ring == [0, 1, 2, 3, 4, 5]
    forced = [(0, 1), (1, 2), (3, 2), (3, 4), (5, 4), (5, 0)]
    assert not any((search.desc[h] >> t) & 1 for t, h in forced)
    assert search.probe(ring) == probe_by_trial(search, 0) == (True, False)


@given(st.one_of(low_degree_instances(), rings_with_ears()), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_quiesce_leaves_no_edge_closing_a_cycle(prob, seed):
    rng = random.Random(seed)
    search = random_search_state(prob, rng)
    if search is None:
        return
    # decide and backtrack the way the search does, with random choices,
    # from a root that queues every vertex with one undecided link
    search.force_q.extend(x for x in range(search.n) if search.und[x] == 1)
    frames = []
    for _ in range(2 * search.m + 1):
        if not search.quiesce():
            if not frames:
                return
            search.undo_to(*frames.pop())
            continue
        desc = search.desc
        undecided = [e for e in range(search.m) if search.decided[e] is None]
        for e in undecided:
            u, v = search.ends[e]
            assert not (desc[u] >> v) & 1 and not (desc[v] >> u) & 1
        # the probe is at its fixed point too: the rings are current, none
        # waits, and every one lets both directions of its rep edge through
        assert sorted(search.rings.items()) == pure_cycle_reps_by_scan(search)
        assert not search.pending
        for ring in search.rings.values():
            assert search.probe(ring) == (True, True)
        # no vertex is left with one undecided link, so pick_edge may stop
        # at the first edge with two at its lower-count end
        assert 1 not in search.und
        if not undecided:
            return
        assert search.pick_edge() == pick_edge_by_scan(search)
        frames.append((len(search.trail), desc[:]))
        e = rng.choice(undecided)
        u, v = search.ends[e]
        t, h = (u, v) if rng.random() < 0.5 else (v, u)
        if not search.apply_arc(e, t, h):
            search.undo_to(*frames.pop())


def pick_edge_by_scan(search: _ExactSearch) -> int:
    """The undecided edge of least (min(und[u], und[v]), edge id)."""
    return min(
        (min(search.und[u], search.und[v]), e)
        for e, (u, v) in enumerate(search.ends)
        if search.decided[e] is None
    )[1]


def apply_arc_off_rings(search: _ExactSearch, rng: random.Random) -> None:
    """A random arc, four times in five on an edge outside the pure cycles
    when there is one, so that the cycles live on while the closure grows."""
    on_rings = {x for _, ring in pure_cycle_reps_by_scan(search) for x in ring}
    undecided = [e for e in range(search.m) if search.decided[e] is None]
    off = [e for e in undecided if search.ends[e][0] not in on_rings]
    if off and rng.random() < 0.8:
        undecided = off
    if undecided:
        e = rng.choice(undecided)
        u, v = search.ends[e]
        search.apply_arc(e, u, v) or search.apply_arc(e, v, u)


@given(st.one_of(low_degree_instances(), rings_with_ears()), st.integers(0, 2**32 - 1))
# the 5-cycle 0-1-2-3-4 with the edge 5-6 hung off 0 by the fixed arcs 5->0
# and 6->0.  Seed 0 rewinds to a state that is not a quiesce fixed point,
# where a ring that undo_to relinks must wait for its probe; the example
# reports such a fault even where Hypothesis's shrinker fails on it
@example(problem(range(7), [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (5, 6)], [(5, 0), (6, 0)]), 0)
@settings(max_examples=200, deadline=None)
def test_ring_state_tracks_apply_undo_and_probe(prob, seed):
    rng = random.Random(seed)
    verts = sorted(prob.graph.vertices)
    odd = [v for v in verts if rng.random() < 0.5]
    g = prob.graph
    search = search_on(problem(verts, g.edges, g.arcs, odd))
    if not search.fixed_acyclic:
        return
    checkpoints = []
    clean_reach = {}
    for _ in range(40):
        roll = rng.random()
        if roll < 0.15:
            checkpoints.append((len(search.trail), search.desc[:]))
        elif roll < 0.3 and checkpoints:
            # any checkpoint still on the stack; the later ones become stale
            i = rng.randrange(len(checkpoints))
            search.undo_to(*checkpoints[i])
            del checkpoints[i:]
        elif roll < 0.6:
            search.probe_pass()
        else:
            apply_arc_off_rings(search, rng)
        assert_rings_match_references(search)
        # a ring not waiting for a probe would let both directions through,
        # and the reach among its vertices has not grown since the last step
        # (it shrinks on undo)
        seen_clean = {}
        for e, ring in search.rings.items():
            if e in search.pending:
                continue
            assert search.probe(ring) == (True, True)
            bits = sum(1 << x for x in ring)
            reach = [search.desc[x] & bits for x in ring]
            before = clean_reach.get((e, tuple(ring)), reach)
            assert all(now & ~then == 0 for now, then in zip(reach, before))
            seen_clean[e, tuple(ring)] = reach
        clean_reach = seen_clean


def test_undo_below_the_walked_trail_walks_the_new_arcs():
    # the triangle 0-1-2 with the path 0-3-4-5 hanging off 0: the arcs 3->4
    # and 4->5 are walked, then undone, and 0->3 alone leaves the triangle a
    # pure cycle, which only a walk from 0 finds.  The property tests walk
    # after every step, so a rewind that leaves the walked count past the
    # end of the trail shows only here
    search = search_on(problem(
        range(6), [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5)], odd=[3, 4, 5]
    ))
    edge = search.ends.index
    search._update_rings()
    assert not search.rings
    mark, desc = len(search.trail), search.desc[:]
    assert search.apply_arc(edge((3, 4)), 3, 4) and search.apply_arc(edge((4, 5)), 4, 5)
    search._update_rings()
    search.undo_to(mark, desc)
    assert search.apply_arc(edge((0, 3)), 0, 3)
    search._update_rings()
    assert sorted(search.rings.items()) == pure_cycle_reps_by_scan(search) == [(0, [0, 1, 2])]
    assert search.pending == {0}


def start(search: _ExactSearch) -> bool:
    """The root of ``run``: queue every vertex with one undecided link, then
    quiesce; False on a conflict."""
    search.force_q.extend(x for x in range(search.n) if search.und[x] == 1)
    return search.quiesce()


def replay(prob, decisions, mask) -> tuple[bool, _ExactSearch]:
    """A fresh search that takes only the decisions at the levels in
    ``mask`` (``decisions[i]`` is level i + 1), each followed by quiesce,
    and whether it stayed free of conflict."""
    search = search_on(prob)
    ok = start(search)
    for level, (e, t, h) in zip(range(1, len(decisions) + 1), decisions):
        if not ok:
            break
        if not (mask >> level) & 1:
            continue
        if search.decided[e] is None:
            ok = search.apply_arc(e, t, h, 1 << level) and search.quiesce()
        else:
            # forced already: the other way contradicts this decision
            ok = search.decided[e] == (t, h)
    return ok, search


def assert_masks_sound(prob, search, decisions, ok) -> None:
    """The decisions in a forced arc's mask alone force it (or conflict),
    and those in the conflict's mask alone conflict (``ok`` False)."""
    chosen = {e for e, _, _ in decisions}
    replays = {}
    for e, t, h, _ in search.trail:
        if e in chosen:
            continue
        mask = search.dep[e]
        assert mask >> (len(decisions) + 1) == 0 and not mask & 1
        if mask not in replays:
            replays[mask] = replay(prob, decisions, mask)
        still_ok, replayed = replays[mask]
        assert not still_ok or replayed.decided[e] == (t, h)
    if not ok:
        assert not replay(prob, decisions, search.conflict)[0]


@given(st.one_of(low_degree_instances(), rings_with_ears()), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_dependency_masks_are_sound(prob, seed):
    # random decisions until a conflict or a full orientation, mostly off
    # the pure cycles so that their vertices come to reach each other
    rng = random.Random(seed)
    verts = sorted(prob.graph.vertices)
    odd = [v for v in verts if rng.random() < 0.5]
    prob = problem(verts, prob.graph.edges, prob.graph.arcs, odd)
    search = search_on(prob)
    if not search.fixed_acyclic:
        return
    ok = start(search)
    decisions = []
    while ok and len(search.trail) < search.m:
        undecided = [f for f in range(search.m) if search.decided[f] is None]
        off = [f for f in undecided if search.ring_of[search.ends[f][0]] < 0]
        e = rng.choice(off if off and rng.random() < 0.8 else undecided)
        u, v = search.ends[e]
        t, h = (u, v) if rng.random() < 0.5 else (v, u)
        decisions.append((e, t, h))
        ok = search.apply_arc(e, t, h, 1 << len(decisions)) and search.quiesce()
    assert_masks_sound(prob, search, decisions, ok)


def test_probe_reason_holds_the_path_between_ring_vertices():
    # the ring 0-1-2-3 with fixed arcs 0->4 and 5->2 to the ring 4-5-7-6,
    # where parity leaves both directions open: deciding 4->5 lets 0 reach
    # 2 and no other vertex of the first ring, and the probe then rejects
    # the direction whose arcs lead from 2 back to 0
    prob = problem(
        range(8),
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (4, 6), (5, 7), (6, 7)],
        [(0, 4), (5, 2)],
        [1, 4],
    )
    search = search_on(prob)
    assert start(search) and search.m - len(search.trail) == 8
    decisions = [(4, 4, 5)]
    assert search.apply_arc(4, 4, 5, 1 << 1) and search.quiesce()
    assert search.decided[:4] == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert search.dep[:4] == [1 << 1] * 4
    assert_masks_sound(prob, search, decisions, True)


def literal_arc(search: _ExactSearch, lit: int) -> tuple[int, int, int]:
    """The edge and arc t->h of a nogood literal 2e + (t < h)."""
    e = lit >> 1
    u, v = search.ends[e]
    return (e, u, v) if (u < v) == (lit & 1) else (e, v, u)


def replay_nogood(prob, earlier, lits) -> bool:
    """Whether a fresh search holding the nogoods ``earlier`` reaches a
    conflict when it takes the literals ``lits`` as decisions, each followed
    by quiesce."""
    search = search_on(prob)
    for old in earlier:
        search.add_nogood(old)
    ok = start(search)
    for level, lit in zip(range(1, len(lits) + 1), lits):
        if not ok:
            break
        e, t, h = literal_arc(search, lit)
        if search.decided[e] is None:
            ok = search.apply_arc(e, t, h, 1 << level) and search.quiesce()
        else:
            # forced already: the other way contradicts this literal
            ok = search.decided[e] == (t, h)
    return not ok


def frozen_reduction(index: int) -> OrientationProblem:
    return assemble(unsat_samples()[index]).problem


@given(st.one_of(low_degree_instances(), rings_with_ears()), st.integers(0, 2**32 - 1))
@example(frozen_reduction(0), None)
@example(frozen_reduction(1), None)
@example(frozen_reduction(2), None)
@settings(max_examples=200, deadline=None)
def test_learned_nogoods_are_sound(prob, seed):
    # a seed draws an odd set; None keeps the problem
    if seed is not None:
        rng = random.Random(seed)
        verts = sorted(prob.graph.vertices)
        odd = [v for v in verts if rng.random() < 0.5]
        prob = problem(verts, prob.graph.edges, prob.graph.arcs, odd)
    search = search_on(prob, 10**6)
    search.run()
    if seed is None:
        assert search.nogoods
    # each nogood follows from the constraints and the nogoods before it
    for i, lits in enumerate(search.nogoods):
        assert replay_nogood(prob, search.nogoods[:i], lits)


def test_decide_matches_oracle_and_learns():
    learned = []

    @given(low_degree_instances(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def check(prob, seed):
        rng = random.Random(seed)
        verts = sorted(prob.graph.vertices)
        odd = [v for v in verts if rng.random() < 0.5]
        prob = problem(verts, prob.graph.edges, prob.graph.arcs, odd)
        feasible = enum(prob).total_valid > 0
        assert decide(prob).feasible == feasible
        if any(c % 2 for c in edge_component_counts(prob).values()):
            return   # refused on parity before any search, as _solve_exact does
        search = search_on(prob, 10**6)
        assert (search.run()[0] == FEASIBLE) == feasible
        learned.append(bool(search.nogoods))

    check()
    # the draws exercise learning, not only the search without it
    assert sum(learned) > 0


def count_by_self_reduction(prob: OrientationProblem, solutions) -> int:
    """The solutions of ``prob``, counted with ``solve_exact`` as a yes/no
    oracle: a feasible problem with an edge left splits on its lowest edge,
    fixed as an arc each way.  ``solutions`` holds the arc sets of the
    solutions of ``prob`` that ``enumerate`` found for the problem the count
    started from; each verdict is checked against them where it is made, so
    a wrong one fails at its own node, not after the whole count.  Each
    witness is checked."""
    res = solve_exact(prob)
    assert res.feasible == bool(solutions)
    if not res.feasible:
        return 0
    g, w = prob.graph, res.witness
    assert extends(g, w) and is_acyclic(w.arcs).acyclic
    assert is_T_odd_on(prob, w)
    if not g.edges:
        return 1
    u, v = min(g.edges)
    return sum(
        count_by_self_reduction(
            problem(g.vertices, g.edges - {(u, v)}, g.arcs | {arc}, prob.odd_set),
            [arcs for arcs in solutions if arc in arcs],
        )
        for arc in ((u, v), (v, u))
    )


@given(
    st.one_of(instances(), low_degree_instances(), rings_with_ears()),
    st.integers(0, 2**32 - 1),
)
@example(TRIANGLE_ALL_ODD, None)
@example(PATH_CLOSED_BY_PARITY, None)
@example(BACKTRACKS_AT_LEVEL_TWO, None)
@settings(max_examples=150, deadline=None)
def test_self_reduction_count_matches_oracle(prob, seed):
    """The search is complete: an infeasible answer where a solution exists
    fails where it is given, and the count must match the oracle's.
    Low-degree graphs and rings with ears make it backtrack past the first
    levels, where a skipped alternative hides.  A seed draws three odd sets
    that pass the parity gate: parity at every vertex prunes the search so
    hard that one draw in about 75 catches an alternative dropped below
    level 1, and three in about 25."""
    if seed is None:
        probs = [prob]
    else:
        rng = random.Random(seed)
        g, verts = prob.graph, sorted(prob.graph.vertices)
        probs = []
        for _ in range(3):
            odd = {v for v in verts if rng.random() < 0.5}
            if (len(g.edges) + len(g.arcs) + len(odd)) % 2:
                odd ^= {verts[0]}
            probs.append(problem(verts, g.edges, g.arcs, odd))
    for prob in probs:
        solutions = [w.arcs for w in enum(prob, witness_cap=None).witnesses]
        assert count_by_self_reduction(prob, solutions) == len(solutions)


def rename(pf, flips):
    """The formula with the polarity of each variable v with flips[v] set
    reversed: satisfiability and the embedding stay as they were."""
    f = pf.formula
    clauses = [tuple((v, p != flips[v]) for v, p in c) for c in f.clauses]
    return PlanarFormula.build(Formula.build(f.variable_count, clauses), pf.rotation)


def test_verdicts_match_sat_oracle():
    """Every reduction of a fixed corpus is decided as ``sat_oracle``
    decides its formula: the 12/17 formulas of seeds 0-199 and the frozen
    UNSAT cores.  Each core is also decided side by side with the
    reduction of the satisfiable 3/1 formula of seed 0, once placed before
    it and once after: the union is infeasible as the core is.  All 200
    12/17 formulas are satisfiable, so the cores and their unions are the
    infeasible side.  This checks verdicts, not decision counts, so a
    search change that loses solutions fails here even where its pins are
    derived again."""
    pad = generate(0, 3, 1)
    assert sat_oracle(pad.formula) is not None
    pad_problem = assemble(pad).problem
    corpus = [(f"12/17 seed {seed}", generate(seed, 12, 17)) for seed in range(200)]
    corpus += [(f"core {i}", core) for i, core in enumerate(unsat_samples())]
    wrong = []
    for name, pf in corpus:
        expected = FEASIBLE if sat_oracle(pf.formula) is not None else INFEASIBLE
        reduced = assemble(pf).problem
        cases = [(name, reduced)]
        if name.startswith("core"):
            cases += [
                (f"3/1 pad, {name}", disjoint_union(pad_problem, reduced)),
                (f"{name}, 3/1 pad", disjoint_union(reduced, pad_problem)),
            ]
        for label, prob in cases:
            status = decide(prob).status
            if status != expected:
                wrong.append((label, status, expected))
    assert not wrong


def dense_draw(rng: random.Random) -> OrientationProblem:
    """A seeded instance on 6 to 9 vertices with n+2 to 3n edges, up to 3
    fixed arcs, and an odd set that passes the parity gate."""
    n = rng.randint(6, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    a = rng.randint(0, 3)
    k = rng.randint(n + 2, min(3 * n, len(pairs) - a))
    chosen = rng.sample(pairs, k + a)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen[k:]]
    odd = {v for v in range(n) if rng.random() < 0.5}
    if (k + a + len(odd)) % 2:
        odd ^= {rng.randrange(n)}
    return problem(range(n), chosen[:k], arcs, odd)


# an edge on every pair of 0-7 but 0-7, 1-3, 2-6 and 2-7, and the fixed arcs
# 1->3, 6->2 and 7->2: 46 acyclic T-odd orientations.  A nogood conflict
# that rests on no level ended this search at 37 decisions, infeasible
DENSE_FEASIBLE = problem(
    range(8),
    [(u, v) for u in range(8) for v in range(u + 1, 8)
     if (u, v) not in {(0, 7), (1, 3), (2, 6), (2, 7)}],
    [(1, 3), (6, 2), (7, 2)],
    {1, 2, 4, 6, 7},
)


def test_dense_verdicts_match_enumerate():
    """Every status of ``decide`` on 2,500 dense draws of ``random.Random(0)``
    and on ``DENSE_FEASIBLE`` is the one ``enumerate`` counts.  Dense graphs
    learn nogoods that conflict outright, which the reductions of
    ``test_verdicts_match_sat_oracle`` rarely do (about 1.5 s)."""
    assert enum(DENSE_FEASIBLE, witness_cap=0).total_valid == 46
    rng = random.Random(0)
    cases = [("DENSE_FEASIBLE", DENSE_FEASIBLE)]
    cases += [(f"draw {i}", dense_draw(rng)) for i in range(2500)]
    wrong = []
    for name, prob in cases:
        expected = FEASIBLE if enum(prob, witness_cap=0).total_valid else INFEASIBLE
        status = decide(prob).status
        if status != expected:
            wrong.append((name, status, expected))
    assert not wrong


def complete_graph(n: int, odd_size: int, seed: int) -> OrientationProblem:
    """K_n, odd on ``odd_size`` vertices, under a relabelling drawn from
    ``random.Random(seed)``.

    An acyclic orientation of K_n is a transitive tournament, with in-degrees
    0 to n-1, so exactly n // 2 vertices are odd: the instance is feasible
    iff ``odd_size == n // 2``.  n // 2 and n(n-1)/2 have the same parity,
    so every size n // 2 +- 2k passes the global parity gate.
    """
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges = [(label[u], label[v]) for u in range(n) for v in range(u + 1, n)]
    return problem(range(n), edges, odd=label[:odd_size])


@pytest.mark.parametrize("solve", [decide, solve_exact])
def test_complete_graphs_off_the_closed_form_are_infeasible(solve):
    """K6-K8 with n // 2 - 2 or n // 2 + 2 odd vertices: the parity gate
    passes, so each answer is a complete search (50 to 833 decisions, about
    0.5 s for the six)."""
    for n in (6, 7, 8):
        for odd_size in (n // 2 - 2, n // 2 + 2):
            prob = complete_graph(n, odd_size, seed=n)
            assert parity_feasible(prob)
            assert solve(prob).status == INFEASIBLE, (n, odd_size)


@pytest.mark.parametrize("solve", [decide, solve_exact])
def test_complete_graphs_on_the_closed_form_are_feasible(solve):
    """K4-K18 with n // 2 odd vertices, each witness checked in full."""
    for n in range(4, 19):
        prob = complete_graph(n, n // 2, seed=n)
        res = solve(prob)
        assert res.status == FEASIBLE, n
        assert extends(prob.graph, res.witness)
        assert is_T_odd_on(prob, res.witness)
        assert is_acyclic(res.witness.arcs).acyclic


@pytest.mark.parametrize("solve", [decide, solve_exact])
def test_complete_graphs_beside_a_pad(solve):
    """The complete graphs above side by side with the reduction of the
    satisfiable 3/1 formula of seed 0, once placed before it and once
    after, so the search meets the clique after other work: K6-K8 off the
    closed form stay infeasible, and K8 on it stays feasible, its witness
    checked in full."""
    pad = generate(0, 3, 1)
    assert sat_oracle(pad.formula) is not None
    pad_problem = assemble(pad).problem
    for n in (6, 7, 8):
        for odd_size in (n // 2 - 2, n // 2 + 2):
            clique = complete_graph(n, odd_size, seed=n)
            for prob in (disjoint_union(pad_problem, clique),
                         disjoint_union(clique, pad_problem)):
                assert parity_feasible(prob)
                assert solve(prob).status == INFEASIBLE, (n, odd_size)
    prob = disjoint_union(pad_problem, complete_graph(8, 4, seed=8))
    res = solve(prob)
    assert res.status == FEASIBLE
    assert extends(prob.graph, res.witness)
    assert is_T_odd_on(prob, res.witness)
    assert is_acyclic(res.witness.arcs).acyclic


# three 4-rings, 0-3, 4-7 and 8-11, joined only by fixed arcs.  Deciding
# 1->0 orients the first ring so that 4->0~>2->6 joins two opposite vertices
# of the second, whose probe forces it; its arcs then force the third ring
# into a conflict.  Only that path rests on the decision, so a probe reason
# without its paths makes the conflict rest on no level, and the search
# answered 5 feasible odd sets, {3, 4, 5, 6} among them, infeasible
RING_CHAIN = PartiallyDirectedGraph.build(
    range(12),
    [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
     (8, 9), (9, 10), (10, 11), (8, 11)],
    [(4, 0), (2, 6), (8, 4), (5, 10), (9, 6), (7, 11)],
)


def test_ring_chain_verdicts_match_enumerate():
    """Every odd set of ``RING_CHAIN`` that passes the parity gate gets the
    status ``enumerate`` counts (2,048 sets, about 0.2 s)."""
    wrong = []
    for bits in range(1 << 12):
        odd = [v for v in range(12) if (bits >> v) & 1]
        if len(odd) % 2:
            continue
        prob = OrientationProblem.build(RING_CHAIN, odd)
        expected = FEASIBLE if enum(prob, witness_cap=0).total_valid else INFEASIBLE
        status = decide(prob).status
        if status != expected:
            wrong.append((odd, status, expected))
    assert not wrong


@pytest.mark.parametrize("index", range(3))
def test_renamed_unsat_cores_stay_infeasible(index):
    rng = random.Random(index)
    core = unsat_samples()[index]
    for _ in range(20):
        flips = [rng.random() < 0.5 for _ in range(core.formula.variable_count)]
        assert decide(assemble(rename(core, flips)).problem).status == INFEASIBLE


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


def prisms(rungs: int, odd=(), copies: int = 2) -> OrientationProblem:
    """``copies`` disjoint prisms C_rungs x K2, no arcs: copy c has the
    cycles 2rc + i and 2rc + rungs + i (i < rungs) and the rungs between
    them, so each is one edge component of 3 * rungs edges."""
    edges = []
    for c in range(copies):
        s = 2 * rungs * c
        for i in range(rungs):
            j = (i + 1) % rungs
            edges += [(s + i, s + j), (s + rungs + i, s + rungs + j), (s + i, s + rungs + i)]
    return problem(range(2 * rungs * copies), edges, odd=odd)


# Two prisms whose counts are odd, though |E|+|A|+|T| is even: 30 edges and
# one odd vertex in each 10-rung prism, and 45 edges in each 15-rung prism
# with no odd vertex.  The search alone took 488 and 3,376 decisions to
# exhaust them
@given(instances(), st.data())
@example(prisms(10, odd=[0, 20]), None)
@example(prisms(15), None)
@settings(max_examples=300, deadline=None)
def test_parity_refusal_is_exact_per_edge_component(prob, data):
    """``decide`` and ``solve_exact`` refuse on parity, with no decision
    and no propagation, exactly when some edge component has an odd count,
    and the vertex they name lies in such a component.  The odd set is
    drawn afresh, free of the global parity gate."""
    if data is not None:
        verts = sorted(prob.graph.vertices)
        odd = data.draw(st.sets(st.sampled_from(verts)))
        prob = problem(verts, prob.graph.edges, prob.graph.arcs, odd)
    odd_comps = [comp for comp, c in edge_component_counts(prob).items() if c % 2]
    for solve in (decide, solve_exact):
        res = solve(prob)
        refused = res.detail.startswith("parity cannot be met in the edge component")
        assert refused == bool(odd_comps)
        if refused:
            assert (res.status, res.decisions, res.propagations) == (INFEASIBLE, 0, 0)
            named = int(res.detail.rsplit(" ", 1)[1])
            assert any(named in comp for comp in odd_comps)


@st.composite
def connected_instances(draw):
    """Graphs on 1 to 7 vertices connected by their links: a random
    spanning tree plus further links, each an edge or a fixed arc either
    way, with a random odd set."""
    n = draw(st.integers(min_value=1, max_value=7))
    links = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    more = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in links]
    if more:
        links += draw(st.lists(st.sampled_from(more), unique=True, max_size=8))
    edges, arcs = [], []
    for u, v in links:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            edges.append((u, v))
        else:
            arcs.append((u, v) if kind == 1 else (v, u))
    return problem(range(n), edges, arcs, draw(st.sets(st.integers(0, n - 1))))


def scattered(prob: OrientationProblem) -> OrientationProblem:
    """``prob`` with vertex v renamed 3v - 5, so positions differ from labels
    but keep their order."""
    g, name = prob.graph, (lambda v: 3 * v - 5)
    return problem(
        map(name, g.vertices),
        [(name(u), name(v)) for u, v in g.edges],
        [(name(t), name(h)) for t, h in g.arcs],
        map(name, prob.odd_set),
    )


def edge_tallies(ix: _Index, target: list[bool]) -> dict[int, int]:
    """Each edge component of ``ix`` (fixed arcs ignored), keyed by its
    lowest position, mapped to its count of edges, fixed arcs into it and
    odd vertices; by networkx."""
    nx = pytest.importorskip("networkx")
    edge_graph = nx.Graph()
    edge_graph.add_nodes_from(range(len(ix.labels)))
    edge_graph.add_edges_from(ix.edges)
    return {
        min(comp): sum(a in comp for a, _ in ix.edges)
        + sum(h in comp for _, h in ix.arcs)
        + sum(target[v] for v in comp)
        for comp in nx.connected_components(edge_graph)
    }


def even_target(ix: _Index, target: list[bool]) -> list[bool]:
    """``target`` flipped at the lowest vertex of each edge component whose
    count is odd, so that every count is even."""
    target = target[:]
    for low, count in edge_tallies(ix, target).items():
        target[low] ^= count % 2
    return target


@given(st.one_of(instances(), connected_instances()), st.booleans())
@example(prisms(10, odd=[0, 20]), False)   # both prisms odd: the lower is named
@example(problem([0, 1, 2, 3], [(2, 3)], [(1, 0)]), True)   # an arc joins two parts
@settings(max_examples=300, deadline=None)
def test_split_cuts_the_links_into_components(prob, even):
    """``_split`` on connected and disconnected indices: a parity refusal
    names the lowest vertex of the lowest edge component whose count is
    odd; otherwise the parts are the components of the links, in order of
    their lowest vertex, each part's edges ascend by their ends and map back
    through ``edge_ids``, and each fixed arc lands in the part of its ends."""
    nx = pytest.importorskip("networkx")
    ix = _Index(scattered(prob).graph)
    target = [v in prob.odd_set for v in sorted(prob.graph.vertices)]
    if even:
        target = even_target(ix, target)
    parts, odd = _split(ix, target)
    odd_lows = [low for low, count in edge_tallies(ix, target).items() if count % 2]
    if odd_lows:
        assert (parts, odd) == ([], min(odd_lows))
        return
    assert odd == -1
    link_graph = nx.Graph()
    link_graph.add_nodes_from(range(len(ix.labels)))
    link_graph.add_edges_from(ix.edges + ix.arcs)
    components = sorted(sorted(comp) for comp in nx.connected_components(link_graph))
    assert [list(part.verts) for part in parts] == components
    edge_ids, arcs = [], []
    for part in parts:
        verts = part.verts
        assert part.ends == sorted(part.ends)
        assert [(verts[a], verts[b]) for a, b in part.ends] == [
            ix.edges[i] for i in part.edge_ids
        ]
        edge_ids += part.edge_ids
        arcs += [(verts[t], verts[h]) for t, h in part.arcs]
    assert sorted(edge_ids) == list(range(len(ix.edges)))
    assert sorted(arcs) == sorted(ix.arcs)


@given(connected_instances())
@example(problem([0]))
@settings(max_examples=200, deadline=None)
def test_split_in_place_part_matches_the_general_path(prob):
    """A connected index is its one part, in place; adding an isolated
    vertex with a higher label sends the same links down the general path,
    which builds the same part and a part of the new vertex alone."""
    g = prob.graph
    ix = _Index(g)
    target = even_target(ix, [v in prob.odd_set for v in ix.labels])
    lone = max(g.vertices) + 1
    wide = _Index(PartiallyDirectedGraph(g.vertices | {lone}, g.edges, g.arcs))
    assert wide.edges == ix.edges and wide.arcs == ix.arcs
    (part,), odd = _split(ix, target)
    assert odd == -1 and part.verts == range(len(ix.labels))
    (general, alone), odd = _split(wide, target + [False])
    assert odd == -1
    assert isinstance(general.verts, list)
    assert (list(part.verts), *part[1:]) == tuple(general)
    assert alone == _Part([len(ix.labels)], [], [], [])


def test_components_share_the_decision_budget():
    union, pad, core = feasible_then_unsat()
    need = solve_exact(pad).decisions + solve_exact(core).decisions
    assert solve_exact(union, budget=need - 1).status == ABORTED
    assert solve_exact(union, budget=need).status == INFEASIBLE


# The decision and propagation counts the search needs on the frozen UNSAT
# samples.  The propagation rules only prune, a backjump only skips, and a
# learned nogood only forces, so a change that loses a forcing, widens a
# dependency mask or drops a nogood shows up here as more decisions.  The
# propagations pin the forcing itself: a change to which arcs are forced, or
# in which order, can move them even where the decisions stay.  The counts
# are not in the test ids, so a pin can move.  Without nogoods the
# decisions were 84/180/84.
FROZEN_UNSAT_DECISIONS = {0: (14, 1026), 1: (18, 1490), 2: (14, 1026)}


@pytest.mark.parametrize("index", sorted(FROZEN_UNSAT_DECISIONS))
def test_frozen_unsat_decision_counts(index):
    res = decide(assemble(unsat_samples()[index]).problem)
    assert res.status == INFEASIBLE
    assert (res.decisions, res.propagations) == FROZEN_UNSAT_DECISIONS[index]


# The same beside the reduction of the satisfiable 3/1 formula of seed 0,
# the two-part shape of the unsat-proof workload's padded instances, keyed
# by (core, pad placement).  These take ``_split``'s path that builds one
# part per component, where a connected core is searched in place.  Placed
# first, the pad is solved once (4 decisions, 41 propagations) before the
# core is exhausted; placed last, it is never reached.
PADDED_UNSAT_DECISIONS = {
    (0, "first"): (18, 1067),
    (1, "first"): (22, 1531),
    (2, "first"): (18, 1067),
    (0, "last"): (14, 1026),
    (1, "last"): (18, 1490),
    (2, "last"): (14, 1026),
}


@pytest.mark.parametrize("index, placement", list(PADDED_UNSAT_DECISIONS))
def test_padded_unsat_decision_counts(index, placement):
    pad = assemble(generate(0, 3, 1)).problem
    core = assemble(unsat_samples()[index]).problem
    prob = disjoint_union(pad, core) if placement == "first" else disjoint_union(core, pad)
    res = decide(prob)
    assert res.status == INFEASIBLE
    assert (res.decisions, res.propagations) == PADDED_UNSAT_DECISIONS[index, placement]


def small_draw(seed: int) -> OrientationProblem:
    """A seeded instance on 7 to 9 vertices with n to 16 links, a quarter
    of them fixed arcs, and an odd set that passes the parity gate."""
    rng = random.Random(seed)
    n = rng.randint(7, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges, arcs = [], []
    for u, v in rng.sample(pairs, rng.randint(n, 16)):
        if rng.random() < 0.25:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        else:
            edges.append((u, v))
    odd = {v for v in range(n) if rng.random() < 0.5}
    if (len(edges) + len(arcs) + len(odd)) % 2:
        odd ^= {0}
    return problem(range(n), edges, arcs, odd)


# (decisions, propagations) of ``solve_exact`` on small draws where the
# order in which the cycle queue drains shows: draining it oldest first
# moves the propagations of each, and at seed 965 the decisions too
# (17, 33 becomes 16, 34).  The pins of the frozen UNSAT samples and of the
# generated reductions do not move with that order.  Seed 13 has an edge
# component whose parity cannot be met, so it is refused before any search
# (the search took 3 decisions and 10 propagations to exhaust it).
SMALL_DRAW_COUNTS = {
    13: (0, 0),
    51: (11, 22),
    130: (5, 13),
    145: (8, 21),
    403: (20, 50),
    965: (17, 33),
}


@pytest.mark.parametrize("seed", sorted(SMALL_DRAW_COUNTS))
def test_small_draw_counts(seed):
    res = solve_exact(small_draw(seed))
    assert (res.decisions, res.propagations) == SMALL_DRAW_COUNTS[seed]


def witness_digest(witness) -> str:
    """The first 16 hex digits of the sha256 of the sorted arcs."""
    return hashlib.sha256(repr(sorted(witness.arcs)).encode()).hexdigest()[:16]


# The same on generated reductions, where the pure-cycle state changes most
# between decisions, with a digest of the witness found: (decisions,
# propagations, witness digest).  Under chronological backtracking 24/34
# seed 0 took 716 decisions, and 40/57 seed 0 and 64/92 seed 0 aborted at
# 20,000; with backjumping alone the four took 72, 176, 119 and 677.
GENERATED_DECISIONS = {
    (0, 24, 34): (69, 2215, "947594a2f8a5bac5"),
    (1, 64, 92): (172, 5021, "51a20271fda0a97c"),
    (0, 40, 57): (116, 3593, "ebd47ecde631d823"),
    (0, 64, 92): (297, 15023, "ec8cbda887a86037"),
}


@pytest.mark.parametrize("seed, n, m", list(GENERATED_DECISIONS))
def test_generated_decision_counts(seed, n, m):
    pf = generate(seed, n, m)
    red = assemble(pf)
    res = decide(red.problem, budget=20000)
    assert res.feasible
    w = res.witness
    assert (res.decisions, res.propagations, witness_digest(w)) == GENERATED_DECISIONS[
        seed, n, m
    ]
    assert extends(red.problem.graph, w) and is_acyclic(w.arcs).acyclic
    assert is_T_odd_on(red.problem, w)
    assert eval_formula(pf.formula, assignment_from_orientation(red, w))
