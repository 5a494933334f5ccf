"""The exact search: ``solve_exact`` splits an instance into the connected
components of its links and runs ``_ExactSearch`` on each, a complete
backtracking search with parity and cycle propagation, conflict-directed
backjumping and learned nogoods.

It reads the index and the decision contract from ``core``, and every
feasible answer passes ``core._check_witness``; the check and the oracle
import nothing from here.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from oddorient.core import (
    ABORTED,
    FEASIBLE,
    INFEASIBLE,
    _PARITY_REFUSAL,
    SolveResult,
    _check_witness,
    _Index,
    _orientation,
    _Part,
    _split,
)
from oddorient.pdgraph import Arc, OrientationProblem


# -- complete backtracking solver ----------------------------------------------------


def _stays_acyclic(reach: dict[int, int], arcs: Iterable[Arc]) -> bool:
    """Whether the arcs, added one at a time to an acyclic closure, close
    no cycle.  ``reach[x]`` is the bitmask of the keys x reaches, x
    included, and every arc joins two keys.  Each arc grows a copy of it by
    ``apply_arc``'s rule: t->h closes a cycle iff h reaches t, and otherwise
    every vertex that reaches t gains what h reaches."""
    reach = dict(reach)
    for t, h in arcs:
        below = reach[h]
        if (below >> t) & 1:
            return False
        for x, got in reach.items():
            if (got >> t) & 1:
                reach[x] = got | below
    return True


class _ExactSearch:
    """Backtracking over undirected edges with parity forcing, cycle forcing,
    and a cycle-component probe.

    Parity forcing: a vertex with exactly one undecided link forces that
    link by the parity its in-degree still owes.  Cycle forcing: an edge
    with one direction closing a directed cycle among decided arcs is forced
    the other way.  The probe tests both directions of one edge in each pure cycle
    component of the undecided subgraph; if both fail the state is
    conflicting, if one fails the other is forced.  All three rules are
    sound, so exhausted search remains a proof of infeasibility.  They are
    also monotone (a rule that fires keeps firing as arcs are added), so the
    state ``quiesce`` reaches does not depend on the order in which they fire.

    State is indexed by part position, the index's own when the part spans
    a connected index; ``m - len(trail)`` edges are undecided.

    Reachability is kept exact at all times: ``desc[x]`` is the bitmask of
    vertices reachable from x (x included) over the fixed and decided arcs,
    so an arc t->h closes a cycle iff bit t of ``desc[h]`` is set.  Adding
    t->h walks the in-arcs backwards from t and ORs ``desc[h]`` into every
    vertex that does not reach h yet; the walk stops at vertices that already
    do, so only changed entries are touched.  ``apply_arc`` holds the one
    copy of the walk, and the fixed arcs go through it too, as edge -1.
    Undo makes one pass over the trail entries it drops, newest first: each
    pops the newest in-arc of its head, which is exactly the arc it added.
    Then it restores the ``desc`` snapshot of the search frame.  The in-arcs
    also give each vertex its in-parity so far, ``len(in_adj[x]) & 1``.

    Cycle forcing is driven by closure growth.  An edge u-v becomes forced
    exactly when bit v enters ``desc[u]`` or bit u enters ``desc[v]``, so
    the walk queues the edges at a vertex whose closure gains the edge's
    other endpoint (the arc's own edge, being decided, may be left out), and
    ``cycle_force_pass`` drains that queue against the live closure.
    Building the fixed arcs' closure queues the edges they force.  An undo
    clears the queue, because every backtrack point is a state that
    ``quiesce`` left with the queue drained.

    The probe makes no trial moves.  In a pure cycle, parity at a vertex
    fixes whether its two ring links point the same way around the ring.
    So the arc chosen on the probed edge forces every arc around the ring,
    and the opposite arc forces the reverse arcs.  The walk closes with a
    parity check at its start, which is the same for both directions.  A
    direction that passes it fails iff its arcs close a directed cycle with
    the closure restricted to the ring's vertices, which the probe grows
    arc by arc by ``apply_arc``'s rule on a copy of that restriction.
    Nothing is applied or undone; a forced direction is then committed like
    any other arc.

    The pure cycles are search state: ``rings`` maps each one's lowest edge
    id (its rep) to its vertices in ring order from the low end of that
    edge (ring[0]-ring[1] is the rep, ring[i] is joined to ring[i + 1] and
    ring[-1] to ring[0]), and ``ring_of``/``ring_mask`` give each ring
    vertex its rep and the ring's vertex bitmask.  Only the root walks every
    vertex.  After that a component can become a pure cycle only at an
    endpoint of a newly decided arc, so each probe pass walks from the
    endpoints of the arcs on the trail since the previous pass, and a ring
    leaves the set when one of its edges is decided (any undecided link at a
    ring vertex is a ring edge).  The in-parities of a ring's vertices
    cannot change while it stays a ring, so a probe that lets both
    directions through stays valid until the closure of a ring vertex gains
    another ring vertex, which the closure walk sees.  ``pending`` holds the
    rings not probed since they appeared or since that happened.  A pass
    probes each of them once, in ascending rep order; a ring that a forcing
    in the pass makes pending is probed in the next pass, which ``quiesce``
    runs whenever a pass grew the trail.  The trail is the one undo record of this state: each entry
    carries the ring its arc dropped, and ``undo_to`` links it again and
    unlinks the rings found at the arc's ends since.  Neither a probe nor
    closure growth leaves a record.  A ring that passes the probe also
    passes it on any earlier state where it is a ring, whose closure is
    smaller, so after an undo it needs no probe; a ring made pending by
    closure growth stays pending, which costs at most one probe, and
    ``run`` clears ``pending`` after each backjump, since every frame is
    pushed at a fixed point of ``quiesce``, where no ring waits.

    The branch edge has the fewest undecided links at its lower-count end,
    lowest id first.  ``quiesce`` forces the last undecided link at every
    vertex, so no undecided edge has fewer than two at either end, and the
    scan from the first undecided edge stops at the first edge on that floor.
    No edge below ``low`` is undecided: ``pick_edge`` moves it up to the
    first undecided edge, and ``undo_to`` down to each edge it undecides.

    Every decided arc carries a dependency mask ``dep[e]``, an int with one
    bit per decision level: the decisions that force it.  A decision at
    level L gets bit L, and a forced arc the OR of its reason's masks; fixed
    arcs and the root's forcings rest on none.  The reasons: a parity
    forcing at x rests on the other links at x; a cycle forcing of u-v to
    v->u on the decided arcs of one v~>u path (``path_dep`` walks back over
    ``in_adj``, always to an in-neighbour v reaches); a probe forcing on the
    decided links at every ring vertex and one path for each ring vertex
    another one reaches.  A conflict gets its mask the same way, in
    ``conflict``: a parity dead end at x rests on all links at x, an arc
    t->h that would close a cycle on its own mask and a path h~>t, and a
    probe that fails both ways on its reason.

    Each conflict teaches a nogood: the decisions at the levels its mask
    names cannot all hold (the decision scheme of Zhang, Madigan, Moskewicz
    & Malik, ICCAD 2001).  A nogood is a list of edge literals 2e + (t < h),
    and ``occ`` lists the nogoods of each literal; no watched literals, since
    the nogoods are few and short.  ``apply_arc`` queues the literal it makes
    true on ``lit_q``, and ``nogood_pass`` checks every nogood of each queued
    literal: all literals true is a conflict on the OR of their masks, and
    all true but one undecided forces that edge the other way, on the OR of
    the others' masks.  ``undo_to`` queues both literals of each edge it
    makes undecided, because a nogood learned since then turns unit when its
    last decision is undone, with none of its literals made true.
    """

    def __init__(self, part: _Part, target: list[bool], budget: int):
        """Search ``part`` of an index; ``target`` flags each index position
        odd.  A part that spans the index is searched in place and reads
        ``target`` as it is."""
        self.budget = budget
        self.n = n = len(part.verts)
        self.ends = ends = part.ends
        self.m = m = len(ends)
        if n < len(target):
            target = [target[x] for x in part.verts]
        self.target = target

        self.edge_at = edge_at = [[] for _ in range(n)]
        # bitmask of the vertices joined to x by an edge
        self.nbr_bits = nbr_bits = [0] * n
        for i, (u, v) in zip(range(m), ends):
            edge_at[u].append(i)
            edge_at[v].append(i)
            nbr_bits[u] |= 1 << v
            nbr_bits[v] |= 1 << u
        self.und = list(map(len, edge_at))   # undecided links at x

        self.decided: list[Optional[Arc]] = [None] * m
        self.low = 0   # every edge below it is decided
        self.cycle_q: list[int] = []
        self.desc = [1 << x for x in range(n)]
        self.in_adj: list[list[int]] = [[] for _ in range(n)]
        # decision levels each decided arc rests on (0 while undecided)
        self.dep = [0] * m
        # decision levels the last conflict rests on
        self.conflict = 0
        # learned nogoods, each a list of literals 2e + (t < h) for the arc
        # t->h on edge e; ``occ`` maps a literal to the nogoods holding it,
        # and ``lit_q`` holds the literals whose nogoods need a check
        self.nogoods: list[list[int]] = []
        self.occ: dict[int, list[list[int]]] = {}
        self.lit_q: list[int] = []
        self.rings: dict[int, list[int]] = {}
        self.ring_of = [-1] * n
        self.ring_mask = [0] * n
        self.pending: set[int] = set()
        self.fixed_acyclic = all(self.apply_arc(-1, t, h) for t, h in part.arcs)

        # (edge, tail, head, dropped): dropped is the (rep, ring, bitmask) of
        # the pure cycle the arc's edge was on, None when it was on none
        self.trail: list[tuple[int, int, int, Optional[tuple[int, list[int], int]]]] = []
        self.seen = [0] * n   # the stamp of the last walk to reach x
        self.stamp = 0
        self._find_rings(range(n))
        self.scanned = 0   # trail entries whose endpoints have been walked
        self.force_q: deque[int] = deque()
        self.decisions = 0
        self.propagations = 0

    # -- state updates ------------------------------------------------------

    def apply_arc(
        self, e: int, t: int, h: int, mask: int = 0, decision: bool = False
    ) -> bool:
        """Decide edge e as t->h, resting on the decision levels ``mask``,
        or add a fixed arc t->h when e is -1; False on a conflict, whose
        levels go to ``conflict``.  An arc that closes a directed cycle
        changes nothing."""
        desc = self.desc
        below = desc[h]
        if (below >> t) & 1:
            self.conflict = mask | self.path_dep(h, t)
            return False
        in_adj, nbr_bits, ring_mask = self.in_adj, self.nbr_bits, self.ring_mask
        in_adj[h].append(t)
        stack = [t]
        while stack:
            y = stack.pop()
            old = desc[y]
            grown = old | below
            if grown == old:
                continue   # y reaches h already
            desc[y] = grown
            new = grown ^ old
            gained = new & nbr_bits[y]
            # at t a lone gained bit is h, across e itself; a fixed arc is on no edge
            if gained and (y != t or e < 0 or gained & (gained - 1)):
                ends, cycle_q = self.ends, self.cycle_q
                for i in self.edge_at[y]:
                    u, v = ends[i]
                    if (gained >> (u + v - y)) & 1:
                        cycle_q.append(i)
            if new & ring_mask[y]:
                # y now reaches another vertex of its ring: probe it again
                self.pending.add(self.ring_of[y])
            stack.extend(in_adj[y])
        if e < 0:
            return True

        if not decision:
            self.propagations += 1
        self.decided[e] = (t, h)
        self.dep[e] = mask
        r = self.ring_of[t]
        # e is an edge of t's ring, if t has one, so h is on it too
        self.trail.append((e, t, h, None if r < 0 else self._unlink_ring(r)))
        if self.occ:
            lit = 2 * e + (t < h)
            if lit in self.occ:
                self.lit_q.append(lit)
        und = self.und
        left = und[t] = und[t] - 1
        right = und[h] = und[h] - 1
        if left > 1 and right > 1:
            return True
        target = self.target
        if left < 2:
            if left:
                self.force_q.append(t)
            elif len(in_adj[t]) & 1 != target[t]:
                self.conflict = self.links_dep(t)
                return False
        if right < 2:
            if right:
                self.force_q.append(h)
            elif len(in_adj[h]) & 1 != target[h]:
                self.conflict = self.links_dep(h)
                return False
        return True

    def undo_to(self, mark: int, desc: list[int]) -> None:
        """Pop the trail back to ``mark``; ``desc`` is the closure snapshot
        taken when the trail had that length, and the rings must have been
        current then (``scanned`` equal to ``mark``), as at every frame
        ``run`` pushes.  The entries go newest first: a ring at either end
        of an entry's arc was found since ``mark`` (one there before would
        have been dropped by the arc) and is unlinked, and the ring the arc
        dropped is linked again, pending: a rewind to a state that is not a
        ``quiesce`` fixed point needs its probe, and ``run`` clears
        ``pending`` after the call only because it rewinds to fixed points
        alone.  A ring that a closure walk made pending since ``mark`` stays
        pending, which costs at most one probe too many.  The queues are
        emptied, except that both literals of each edge made undecided are
        queued, newest edge first: a nogood learned since ``mark`` can be unit
        there, with its undecided literal the only one that moved."""
        trail = self.trail
        if len(trail) > mark:
            und, decided, dep = self.und, self.decided, self.dep
            in_adj, occ, lit_q = self.in_adj, self.occ, self.lit_q
            ring_of, low = self.ring_of, self.low
            for e, t, h, dropped in reversed(trail[mark:]):
                if occ:
                    lit = 2 * e
                    if lit in occ:
                        lit_q.append(lit)
                    if lit + 1 in occ:
                        lit_q.append(lit + 1)
                decided[e] = None
                if e < low:
                    low = e
                dep[e] = 0
                in_adj[h].pop()
                und[t] += 1
                und[h] += 1
                for x in (t, h):
                    if ring_of[x] >= 0:
                        self._unlink_ring(ring_of[x])
                if dropped:
                    self._link_ring(*dropped)
            del trail[mark:]
            self.low = low
            self.scanned = min(self.scanned, mark)
        self.desc[:] = desc
        self.force_q.clear()
        self.cycle_q.clear()

    # -- pure cycles ------------------------------------------------------------

    def _link_ring(self, rep: int, ring: list[int], bits: int) -> None:
        """Add a ring, pending."""
        self.rings[rep] = ring
        for x in ring:
            self.ring_of[x] = rep
            self.ring_mask[x] = bits
        self.pending.add(rep)

    def _unlink_ring(self, rep: int) -> tuple[int, list[int], int]:
        """Remove a ring, and return its (rep, ring, bitmask)."""
        ring = self.rings.pop(rep)
        bits = self.ring_mask[ring[0]]
        for x in ring:
            self.ring_of[x] = -1
            self.ring_mask[x] = 0
        self.pending.discard(rep)
        return rep, ring, bits

    def _find_rings(self, starts: Iterable[int]) -> None:
        """Add the pure cycle through each start vertex that is on one.

        A walk from x along two-link vertices comes back to x exactly when
        x's component is a pure cycle.  It stops at the first vertex with
        another link count or one an earlier walk of this call reached (which
        lies in the same component, so it is not pure), so each vertex is
        walked at most once per call.  A new ring is pending.
        """
        und, decided, ends, edge_at, seen = (
            self.und, self.decided, self.ends, self.edge_at, self.seen
        )
        self.stamp += 1
        stamp = self.stamp
        for x in starts:
            if und[x] != 2 or seen[x] == stamp:
                continue
            seen[x] = stamp
            # cyc[i] - cyc[i + 1] is edge es[i], and es[-1] closes the ring
            cyc, es, bits = [x], [], 1 << x
            f, y = -1, x
            while True:
                # leave y by its undecided link other than the one walked in
                for g in edge_at[y]:
                    if g != f and decided[g] is None:
                        break
                f = g
                es.append(f)
                a, b = ends[f]
                y = a + b - y
                if y == x:
                    break
                if und[y] != 2 or seen[y] == stamp:
                    cyc = []
                    break
                seen[y] = stamp
                cyc.append(y)
                bits |= 1 << y
            if not cyc:
                continue
            # start from the low end of the lowest edge, across that edge
            r = len(cyc)
            k = es.index(min(es))
            rep = es[k]
            if cyc[k] == ends[rep][0]:
                ring = cyc[k:] + cyc[:k]
            else:
                ring = [cyc[(k + 1 - i) % r] for i in range(r)]
            self._link_ring(rep, ring, bits)

    def _update_rings(self) -> None:
        """Walk from the endpoints of the arcs decided since the last call."""
        trail = self.trail
        if self.scanned == len(trail):
            return
        starts = [x for item in trail[self.scanned:] for x in item[1:3]]
        self.scanned = len(trail)
        self._find_rings(starts)

    # -- reasons -------------------------------------------------------------

    def links_dep(self, x: int) -> int:
        """The levels the decided links at x rest on, which fix its
        in-parity (fixed arcs rest on none, undecided edges count 0)."""
        dep, mask = self.dep, 0
        for f in self.edge_at[x]:
            mask |= dep[f]
        return mask

    def path_dep(self, a: int, b: int) -> int:
        """The levels the arcs of one a~>b path rest on; a reaches b.  The
        walk goes back from b, each time to the first in-neighbour that a
        reaches, so it ends at a.  The graph is simple, so an arc p->b is
        decided on the one edge at b that ends at p, or is fixed, with no
        edge there and no level."""
        reach, in_adj, dep = self.desc[a], self.in_adj, self.dep
        edge_at, ends = self.edge_at, self.ends
        mask = 0
        while b != a:
            for p in in_adj[b]:
                if (reach >> p) & 1:
                    break
            for f in edge_at[b]:
                if p in ends[f]:
                    mask |= dep[f]
            b = p
        return mask

    def ring_dep(self, ring: list[int]) -> int:
        """The levels a probe of ``ring`` rests on: the decided links at its
        vertices, which fix their in-parities and leave the ring a pure
        cycle, and one path for each ring vertex another one reaches."""
        desc, bits, mask = self.desc, self.ring_mask[ring[0]], 0
        for x in ring:
            mask |= self.links_dep(x)
            rest = (desc[x] & bits) ^ (1 << x)
            while rest:
                low = rest & -rest
                mask |= self.path_dep(x, low.bit_length() - 1)
                rest ^= low
        return mask

    # -- propagation rules ----------------------------------------------------

    def propagate(self) -> bool:
        """Force the last undecided link at each queued vertex by its
        parity; the arc rests on the other links there."""
        force_q, und, decided, ends, dep = (
            self.force_q, self.und, self.decided, self.ends, self.dep
        )
        edge_at, in_adj, target = self.edge_at, self.in_adj, self.target
        while force_q:
            x = force_q.popleft()
            if und[x] != 1:
                continue
            mask = 0
            for f in edge_at[x]:
                if decided[f] is None:
                    e = f
                else:
                    mask |= dep[f]
            u, v = ends[e]
            other = u + v - x
            t, h = (other, x) if len(in_adj[x]) & 1 != target[x] else (x, other)
            if not self.apply_arc(e, t, h, mask):
                return False
        return True

    def cycle_force_pass(self) -> bool:
        """Drain the cycle queue, forcing each queued undecided edge that has
        one direction closing a cycle; False on a conflict."""
        desc, ends, decided, queue = self.desc, self.ends, self.decided, self.cycle_q
        while queue:
            e = queue.pop()
            if decided[e] is not None:
                continue
            u, v = ends[e]
            # the closure is acyclic, so at most one direction closes a cycle
            if (desc[v] >> u) & 1:
                t, h = v, u
            elif (desc[u] >> v) & 1:
                t, h = u, v
            else:
                continue
            # the arc rests on one t~>h path, which h->t would close
            if not (self.apply_arc(e, t, h, self.path_dep(t, h)) and self.propagate()):
                return False
        return True

    def probe(self, ring: list[int]) -> tuple[bool, bool]:
        """Whether the arcs ring[1]->ring[0] and ring[0]->ring[1] each
        survive parity forcing around the pure cycle ``ring`` (a value of
        ``rings``) without a conflict.  Each forces every other ring arc,
        the second the reverse of the first's, so both fail when the ring's
        parities do not close.  A direction that closes them fails iff its
        arcs, added one at a time to the closure within the ring's vertices
        (whose bitmask ``ring_mask`` holds), close a cycle: every new path
        between two ring vertices alternates ring arcs with jumps along
        that closure."""
        r = len(ring)
        target, in_adj, desc = self.target, self.in_adj, self.desc
        # fwd[i]: edge ring[i]-ring[i+1] points ring[i] -> ring[i+1] (1) or
        # back (0) under the first direction.  x keeps the direction iff one
        # of its two ring links must enter it, i.e. iff its decided
        # in-parity misses its target.
        fwd = [0] * r   # the first direction, ring[1] -> ring[0]
        for i in range(1, r):
            x = ring[i]
            fwd[i] = fwd[i - 1] ^ 1 ^ target[x] ^ (len(in_adj[x]) & 1)
        # parity at ring[0] closes the walk, and reversing every arc keeps
        # each vertex's in-parity
        x = ring[0]
        if fwd[0] != fwd[-1] ^ 1 ^ target[x] ^ (len(in_adj[x]) & 1):
            return False, False

        bits = self.ring_mask[ring[0]]
        # the ring vertices each one reaches over fixed and decided arcs
        reach = {x: desc[x] & bits for x in ring}
        if all(reach[x] == 1 << x for x in ring):
            # the forced arcs alone close a cycle only by going all the way
            # round one way, and then so do the reverse arcs
            circular = len(set(fwd)) == 1
            return not circular, not circular
        links = zip(ring, ring[1:] + ring[:1], fwd)
        first = [(x, y) if f else (y, x) for x, y, f in links]
        second = [(y, x) for x, y in first]
        return _stays_acyclic(reach, first), _stays_acyclic(reach, second)

    def probe_pass(self) -> bool:
        """Probe the rep edge of each pending pure cycle once, in ascending
        rep order, and force the survivor when exactly one direction works;
        False on a conflict.  A forcing and the parity propagation after it
        decide only edges of the probed ring, so every other ring of the
        pass stays a ring.  A ring that a forcing makes pending waits for
        the next pass, which ``quiesce`` runs because the trail grew."""
        self._update_rings()
        pending, rings = self.pending, self.rings
        for e in sorted(pending):
            ring = rings[e]
            hi_lo, lo_hi = self.probe(ring)
            if hi_lo == lo_hi:
                if not hi_lo:
                    self.conflict = self.ring_dep(ring)
                    return False
                pending.discard(e)
                continue
            lo, hi = ring[0], ring[1]
            t, h = (hi, lo) if hi_lo else (lo, hi)
            if not (self.apply_arc(e, t, h, self.ring_dep(ring)) and self.propagate()):
                return False
        return True

    def add_nogood(self, lits: list[int]) -> None:
        """Store literals that cannot all hold; the next ``quiesce`` checks
        them."""
        self.nogoods.append(lits)
        for lit in lits:
            self.occ.setdefault(lit, []).append(lits)
        self.lit_q.append(lits[0])

    def nogood_pass(self) -> bool:
        """Check the nogoods of each queued literal.  One whose literals all
        hold is a conflict resting on their levels; one with a single
        undecided literal and the rest holding forces that edge the other
        way, resting on the levels of the rest.  False on a conflict."""
        queue, occ, decided, dep, ends = self.lit_q, self.occ, self.decided, self.dep, self.ends
        while queue:
            for lits in occ[queue.pop()]:
                free, mask = -1, 0
                for lit in lits:
                    arc = decided[lit >> 1]
                    if arc is None:
                        if free >= 0:
                            break
                        free = lit
                    elif (arc[0] < arc[1]) != (lit & 1):
                        break   # the opposite arc holds
                    else:
                        mask |= dep[lit >> 1]
                else:
                    if free < 0:
                        self.conflict = mask
                        return False
                    e = free >> 1
                    u, v = ends[e]
                    # the opposite of the literal: t < h iff its low bit is 0
                    t, h = (u, v) if (u < v) != (free & 1) else (v, u)
                    if not (self.apply_arc(e, t, h, mask) and self.propagate()):
                        return False
        return True

    def quiesce(self) -> bool:
        """Run the rules until none fires; False on a conflict.  At the fixed
        point no vertex has one undecided link, no undecided edge closes a
        cycle either way, no ring is pending, and every ring lets both
        directions of its rep edge through the probe."""
        while True:
            if not (self.propagate() and self.cycle_force_pass()):
                return False
            if self.lit_q:
                # arcs a nogood forces go through the other rules first
                if not self.nogood_pass():
                    return False
                continue
            size = len(self.trail)
            if not self.probe_pass():
                return False
            if len(self.trail) == size:
                return True

    # -- search ------------------------------------------------------------

    def pick_edge(self) -> int:
        """The undecided edge of least key, min(und[u], und[v]), lowest id
        first; some edge must be undecided, and no vertex may have exactly
        one undecided link, as after ``quiesce``."""
        decided, ends, und = self.decided, self.ends, self.und
        low = self.low
        while decided[low] is not None:
            low += 1
        self.low = low
        best, best_key = -1, self.m + 1
        for e in range(low, self.m):
            if decided[e] is not None:
                continue
            u, v = ends[e]
            key = und[u] if und[u] < und[v] else und[v]
            if key < best_key:
                if key == 2:
                    return e
                best, best_key = e, key
        return best

    def learn(self, conflict: int, frames: list[list]) -> None:
        """Store the decisions at the levels ``conflict`` rests on, which
        cannot all hold, as a nogood."""
        lits = []
        while conflict:
            low = conflict & -conflict
            e = frames[low.bit_length() - 2][0]
            t, h = self.decided[e]
            lits.append(2 * e + (t < h))
            conflict ^= low
        self.add_nogood(lits)

    def run(self) -> tuple[str, str]:
        """Depth-first search with conflict-directed backjumping (Prosser,
        Comput. Intell. 1993); the status and its detail.  A feasible search
        returns with its solution in ``decided``, the (tail, head) of each
        edge as positions in the part.  Parity is settled before the search,
        per edge component, so the root only queues the vertices with one
        undecided link; a vertex with none is an edge component of its own,
        whose parity the fixed arcs into it already meet.

        Each frame is one decision level: its edge, the directions left to
        try, the trail mark and closure snapshot to return to, and the
        levels its failed branches rest on.  A new level pushes its frame
        with both directions, and every decision takes the next direction of
        the newest frame.  A conflict resting on levels D goes back to level
        max(D) in one undo: the frames above it are dropped untried, because
        the decisions in D fail under any choice of theirs.  The frame at
        max(D) adds the rest of D to its set and tries its other direction;
        with none left, its set is the next conflict.  A conflict resting on
        no level ends the search.  The branching rule is that of
        chronological backtracking, so the search visits a subset of its
        nodes and meets the same first solution, where it returns.

        Before the undo, each conflict, and each frame set that becomes one,
        is learned as a nogood over the decisions at its levels, and
        ``quiesce`` propagates the nogoods from then on.  A nogood follows
        from the constraints, so an arc it forces is one every solution
        under the current decisions has: an exhausted search is still a
        proof.  An arc forced earlier than without learning can change the
        branch edge chosen below it.
        """
        if not self.fixed_acyclic:
            return INFEASIBLE, "fixed arcs contain a directed cycle"
        self.force_q.extend(x for x in range(self.n) if self.und[x] == 1)
        ok = self.quiesce()
        frames: list[list] = []   # one per decision level, from 1
        while True:
            if ok:
                if len(self.trail) == self.m:
                    return FEASIBLE, ""
                e = self.pick_edge()
                u, v = self.ends[e]
                lo, hi = (u, v) if u < v else (v, u)
                frame = [e, [(lo, hi), (hi, lo)], len(self.trail), self.desc[:], 0]
                frames.append(frame)
            else:
                conflict = self.conflict
                while conflict:
                    self.learn(conflict, frames)
                    level = conflict.bit_length() - 1
                    del frames[level:]
                    frame = frames[-1]
                    frame[4] |= conflict ^ (1 << level)
                    if frame[1]:
                        self.undo_to(frame[2], frame[3])
                        # no ring waits at the quiesce fixed point the frame was pushed at
                        self.pending.clear()
                        break
                    # both directions failed: their levels below are the conflict
                    conflict = frame[4]
                    frames.pop()
                else:
                    return INFEASIBLE, "search space exhausted"
            if self.decisions >= self.budget:
                return ABORTED, "decision budget exceeded"
            self.decisions += 1
            t, h = frame[1].pop()
            ok = (
                self.apply_arc(frame[0], t, h, 1 << len(frames), decision=True)
                and self.quiesce()
            )


def solve_exact(problem: OrientationProblem, budget: int = 10_000_000) -> SolveResult:
    """Complete backtracking search; infeasible answers are proofs.

    Parity is settled first, exactly and before any search: an edge
    component whose parity cannot be met answers infeasible with 0
    decisions, naming one of its vertices (see ``_split``).  A directed
    cycle and an in-degree both stay inside one connected component of the
    links (direction ignored), so the components are then searched one at
    a time, in ascending order of their lowest vertex, and the first
    infeasible or aborted one ends the solve.  A connected instance, such
    as a reduction, is searched in place on its index.

    ``budget`` caps branch decisions over all components together: each gets
    what the earlier ones left.  Overruns return status "aborted", never a
    wrong answer.  ``decisions`` and ``propagations`` are summed over the
    components searched.  Each component's search returns at its first
    solution, and the witness is the union of theirs, checked for
    acyclicity and parity.
    """
    return _solve_exact(problem, _Index(problem.graph), budget)


def _solve_exact(problem: OrientationProblem, ix: _Index, budget: int) -> SolveResult:
    """``solve_exact`` over the problem's index.  A feasible ``run``
    returns at its solution, so each part's witness is read from its
    search's ``decided``."""
    labels = ix.labels
    target = [v in problem.odd_set for v in labels]
    parts, odd = _split(ix, target)
    status, detail = FEASIBLE, ""
    if odd >= 0:
        status, detail = INFEASIBLE, _PARITY_REFUSAL.format(labels[odd])
    decisions = propagations = 0
    arcs = ix.edges[:]   # each edge's (tail, head), filled in per part
    for part in parts:
        search = _ExactSearch(part, target, budget - decisions)
        status, detail = search.run()
        decisions += search.decisions
        propagations += search.propagations
        if status != FEASIBLE:
            break
        verts = part.verts
        for i, (t, h) in zip(part.edge_ids, search.decided):
            arcs[i] = (verts[t], verts[h])
    witness = None
    if status == FEASIBLE:
        if not _check_witness(ix, arcs, problem.odd_set):
            raise RuntimeError("solver produced a cyclic witness")
        witness = _orientation(ix, arcs, problem.graph)
    return SolveResult(status, witness, decisions, propagations, detail)
