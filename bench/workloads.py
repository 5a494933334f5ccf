"""The benchmark's workloads: seeded inputs and the flow each instance runs.

Every instance flow calls the public functions of the oddorient modules
directly and wraps each call in a tracer span named ``<module>.<call>``.
Every verdict is checked against a source other than ``decide``; a mismatch
raises ``InstanceFailure``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from oddorient import (
    Formula,
    GenerationError,
    OrientationProblem,
    PartiallyDirectedGraph,
    PlanarFormula,
    RotationSystem,
    assemble,
    assignment_from_orientation,
    build_variable_gadget,
    decide,
    extends,
    generate,
    is_T_odd_on,
    is_acyclic,
    parity_feasible,
    read_instance,
    sat_oracle,
    structural_check,
    unsat_samples,
    write_instance,
    write_witness,
)
from oddorient.p3sat import eval_formula
from oddorient.reduction import attach_stubs
from oddorient.solver import ABORTED, enumerate as sweep, max_degree, underlying_is_forest


class InstanceFailure(Exception):
    """An instance aborted, disagreed with its known answer, or returned a
    witness that failed its check."""


@dataclass(frozen=True)
class Instance:
    kind: str                    # composition class, recorded per run
    payload: object
    feasible: Optional[bool]     # known by construction; None: an oracle decides


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, bool], list[Instance]]   # (rng, tiny) -> one pass
    run: Callable[[Instance, object], Optional[bool]]        # returns the verdict
    # Instances run in whole passes and at least `min_instances` of them, so
    # every run has the same mix and the same tail percentile (see run.py).
    min_instances: int
    # True when every instance is an independent draw, so a run may end
    # after any instance instead of after a whole pass
    stream: bool = False


# -- shared steps ----------------------------------------------------------------


def classify(problem: OrientationProblem) -> str:
    """The branch ``decide`` will take, by the dispatcher's own tests."""
    if not parity_feasible(problem):
        return "parity_gate"
    if underlying_is_forest(problem.graph):
        return "tree"
    if max_degree(problem.graph) <= 2:
        return "degree_two"
    return "exact"


def _decide(tr, problem: OrientationProblem):
    branch = None
    if tr.enabled:
        with tr.span("bench.classify"):
            branch = classify(problem)
    with tr.span("solver.decide", branch=branch):
        res = decide(problem)
    tr.count("solver.decide.decisions", res.decisions)
    tr.count("solver.decide.propagations", res.propagations)
    if res.status == ABORTED:
        tr.count("solver.decide.aborted")
        raise InstanceFailure(f"decide aborted: {res.detail}")
    return res


def _expect(res, feasible: bool) -> None:
    if res.feasible != feasible:
        raise InstanceFailure(
            f"decide says {res.status}, known answer is "
            f"{'feasible' if feasible else 'infeasible'}"
        )


def _check_witness(tr, problem: OrientationProblem, witness) -> None:
    with tr.span("pdgraph.witness_check"):
        ok = (
            extends(problem.graph, witness)
            and is_acyclic(witness.arcs).acyclic
            and is_T_odd_on(problem, witness)
        )
    if not ok:
        raise InstanceFailure("witness fails its check")


def _sweep(tr, problem, **kwargs):
    with tr.span("solver.enumerate"):
        rep = sweep(problem, **kwargs)
    tr.count("solver.enumerate.explored", rep.explored)
    tr.count("solver.enumerate.valid", rep.total_valid)
    return rep


# -- sat-pipeline ----------------------------------------------------------------

SAT_SIZE = (12, 17)
SAT_SIZE_TINY = (6, 7)
MAX_REJECTED = 50


def build_sat(rng: random.Random, tiny: bool) -> list[Instance]:
    n, m = SAT_SIZE_TINY if tiny else SAT_SIZE
    # a long stream of generator seeds; each instance is one formula
    return [
        Instance(f"generated-{n}x{m}", (rng.randrange(1 << 30), n, m), None)
        for _ in range(4 if tiny else 4096)
    ]


def run_sat(inst: Instance, tr) -> bool:
    """The ``oddorient verify`` flow, with the artifact round-tripped through
    its canonical bytes and the verdict checked against ``sat_oracle``."""
    seed, n, m = inst.payload
    for offset in range(MAX_REJECTED):
        try:
            with tr.span("p3sat.generate"):
                pf = generate(seed + offset, n, m)
            break
        except GenerationError:
            tr.count("p3sat.generate.rejected")
    else:
        raise InstanceFailure(f"no formula from {MAX_REJECTED} seeds at {seed}")
    with tr.span("reduction.assemble"):
        red = assemble(pf)
    with tr.span("reduction.structural_check"):
        report = structural_check(red)
    if not report.ok:
        raise InstanceFailure(f"structural check: {report.problems[:2]}")
    with tr.span("io.write_instance"):
        blob = write_instance(
            red.problem, rotation=red.rotation, registry=red.registry,
            formula=red.formula,
        )
    with tr.span("io.read_instance"):
        bundle = read_instance(blob)
    tr.count("io.instance_bytes", len(blob))
    if bundle.problem != red.problem:
        raise InstanceFailure("instance bytes do not read back to the same problem")
    res = _decide(tr, bundle.problem)
    with tr.span("p3sat.sat_oracle"):
        truth = sat_oracle(pf.formula)
    _expect(res, truth is not None)
    if res.feasible:
        _check_witness(tr, bundle.problem, res.witness)
        with tr.span("reduction.assignment_from_orientation"):
            back = assignment_from_orientation(red, res.witness)
        if not eval_formula(pf.formula, back):
            raise InstanceFailure("back-mapped assignment does not satisfy the formula")
    return res.feasible


# -- unsat-proof -----------------------------------------------------------------

# (frozen core, pad placement).  Pad-first instances make the search re-prove
# the core once per satisfying assignment of the pad (7 for a one-clause
# pad), so they set the tail; core 1 pad-first (about 5 s) is left out to keep
# a pass short.
UNSAT_PLAN = (
    (0, "pad-first"), (2, "pad-first"),
    (0, "unpadded"), (2, "pad-last"), (1, "unpadded"),
)
UNSAT_PLAN_TINY = ((0, "unpadded"), (2, "pad-last"))
PAD_SIZE = (3, 1)


def rename(pf: PlanarFormula, flips) -> PlanarFormula:
    """Flip the polarity of every variable v with flips[v] set.

    Renaming maps assignments one to one, so satisfiability is unchanged, and
    it leaves the incidence graph and so the embedding as they were.
    """
    f = pf.formula
    clauses = [tuple((v, p != bool(flips[v])) for v, p in c) for c in f.clauses]
    return PlanarFormula.build(Formula.build(f.variable_count, clauses), pf.rotation)


def disjoint_union(first: PlanarFormula, second: PlanarFormula) -> PlanarFormula:
    """Both formulas side by side, ``first`` lower in variable and clause order.

    Each component keeps its own rotation, so the union is planar, and it is
    satisfiable exactly when both parts are.
    """
    fa, fb = first.formula, second.formula
    na, ma = fa.variable_count, fa.clause_count
    n = na + fb.variable_count

    def in_first(v):
        return v if v < na else n + (v - na)

    def in_second(v):
        nb = fb.variable_count
        return na + v if v < nb else n + ma + (v - nb)

    clauses = list(fa.clauses) + [
        tuple((na + v, p) for v, p in c) for c in fb.clauses
    ]
    orders = {in_first(v): [in_first(w) for w in o] for v, o in first.rotation.orders.items()}
    orders.update(
        {in_second(v): [in_second(w) for w in o] for v, o in second.rotation.orders.items()}
    )
    return PlanarFormula.build(Formula.build(n, clauses), RotationSystem.build(orders))


def _pad(rng: random.Random) -> PlanarFormula:
    n, m = PAD_SIZE
    for _ in range(MAX_REJECTED):
        try:
            return generate(rng.randrange(1 << 30), n, m)
        except GenerationError:
            continue
    raise GenerationError("no pad formula found")


def build_unsat(rng: random.Random, tiny: bool) -> list[Instance]:
    cores = unsat_samples()
    out = []
    for ci, placement in UNSAT_PLAN_TINY if tiny else UNSAT_PLAN:
        core = cores[ci]
        core = rename(core, [rng.random() < 0.5 for _ in range(core.formula.variable_count)])
        if placement == "pad-first":
            core = disjoint_union(_pad(rng), core)
        elif placement == "pad-last":
            core = disjoint_union(core, _pad(rng))
        out.append(Instance(f"{placement}-core{ci}", core, False))
    return out


def run_unsat(inst: Instance, tr) -> bool:
    pf = inst.payload
    with tr.span("reduction.assemble"):
        red = assemble(pf)
    with tr.span("reduction.structural_check"):
        report = structural_check(red)
    if not report.ok:
        raise InstanceFailure(f"structural check: {report.problems[:2]}")
    res = _decide(tr, red.problem)
    with tr.span("p3sat.sat_oracle"):
        truth = sat_oracle(pf.formula)
    if truth is not None:
        raise InstanceFailure("sat_oracle found a renamed core satisfiable")
    _expect(res, inst.feasible)
    return res.feasible


# -- oracle-sweep ----------------------------------------------------------------

# (vertices, undirected edges, fixed arcs) per random instance of one pass.
# With a connected edge graph, 2^(edges - vertices + 1) masks pass the parity
# filter, so each shape has a steady cost: 2^8, 2^10 and 2^12 survivors.
# The ring gadget, the slowest instance, is one in 13 and sets the tail.
SWEEP_PLAN = (
    *[(8, 15, 2)] * 4,
    *[(9, 18, 2)] * 5,
    *[(10, 21, 2)] * 3,
)
SWEEP_PLAN_TINY = ((6, 9, 1), (7, 10, 2))
GADGET_COPIES = 2          # 22 edges: 2^22 masks, exactly 2 valid
GADGET_COPIES_TINY = 1


def random_problem(rng: random.Random, n: int, k: int, a: int) -> OrientationProblem:
    """k random undirected edges, connected, and a random fixed arcs on n
    vertices, with an odd set chosen so the global parity gate passes."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.sample(pairs, k + a)
    while not _connected(n, chosen[:k]):
        chosen = rng.sample(pairs, k + a)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen[k:]]
    odd = {v for v in range(n) if rng.random() < 0.5}
    if (k + a + len(odd)) % 2:
        odd ^= {rng.randrange(n)}
    graph = PartiallyDirectedGraph.build(range(n), chosen[:k], arcs)
    return OrientationProblem.build(graph, odd)


def _connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def ring_gadget(copies: int):
    """The variable ring with one stub per outward vertex, as swept by
    ``oddorient gadget variable``: (problem, scope, stubs, outside)."""
    gad = build_variable_gadget(copies)
    stubs = [v for pair in gad.stub_pairs for v in pair]
    prob, outside = attach_stubs(gad.problem, stubs)
    scope = frozenset(v for c in gad.ids for v in c.values())
    return prob, scope, tuple(stubs), outside


def build_sweep(rng: random.Random, tiny: bool) -> list[Instance]:
    out = [
        Instance(f"random-{n}v{k}e{a}a", random_problem(rng, n, k, a), None)
        for n, k, a in (SWEEP_PLAN_TINY if tiny else SWEEP_PLAN)
    ]
    copies = GADGET_COPIES_TINY if tiny else GADGET_COPIES
    out.append(Instance(f"gadget-{copies}copies", ring_gadget(copies), True))
    return out


def run_sweep(inst: Instance, tr) -> bool:
    if inst.kind.startswith("gadget"):
        prob, scope, stubs, outside = inst.payload
        rep = _sweep(tr, prob, scope=scope, witness_cap=None)
        modes = set()
        for w in rep.witnesses:
            outward = {w.directs(s, o) for s, o in zip(stubs, outside)}
            if len(outward) != 1:
                raise InstanceFailure("ring gadget boundary is not uniform")
            modes |= outward
        if rep.total_valid != 2 or modes != {True, False}:
            raise InstanceFailure(
                f"ring gadget: {rep.total_valid} orientations, modes {sorted(modes)}"
            )
        return True
    problem = inst.payload
    res = _decide(tr, problem)
    rep = _sweep(tr, problem, witness_cap=1)
    _expect(res, rep.total_valid > 0)
    if res.feasible:
        _check_witness(tr, problem, res.witness)
    return res.feasible


# -- special-cases ---------------------------------------------------------------

SPECIAL_VERTICES = 2000
SPECIAL_VERTICES_TINY = 60
SPECIAL_REPEATS = 4
# Three feasible instances to one infeasible per shape and repeat: an
# infeasible one stops at its first contradiction, so its time depends on
# where the flipped vertex sits, and this mix keeps the median among the
# feasible ones, which always do the whole solve.
SPECIAL_MIX = (True, True, True, False)
ARC_SHARE = 0.25           # share of links given as fixed arcs


def _forest_components(rng: random.Random, labels: list[int], parts: int):
    cuts = sorted(rng.sample(range(1, len(labels)), parts - 1))
    comps, links = [], []
    for lo, hi in zip([0] + cuts, cuts + [len(labels)]):
        comp = labels[lo:hi]
        comps.append(comp)
        links += [(comp[rng.randrange(i)], comp[i]) for i in range(1, len(comp))]
    return comps, links


def _degree_two_components(rng: random.Random, labels: list[int]):
    comps, links = [], []
    i = 0
    while i < len(labels):
        size = min(rng.randint(3, 60), len(labels) - i)
        comp = labels[i:i + size]
        i += size
        comps.append(comp)
        path = list(zip(comp, comp[1:]))
        # the first component is always a cycle so the cycle branch runs
        if size >= 3 and (len(comps) == 1 or rng.random() < 0.5):
            closing = (comp[-1], comp[0])
            links += path + [closing]
            # a cycle oriented all one way is cyclic; the planted orientation
            # below flips the closing link when that happens
        else:
            links += path
    return comps, links


def planted_problem(rng: random.Random, shape: str, size: int, feasible: bool):
    """A forest or a max-degree-2 graph with an odd set read off a random
    acyclic orientation.  For an infeasible instance the odd-set membership
    of one vertex in each of two components is flipped: both components lose
    their parity while the global parity gate still passes."""
    labels = list(range(size))
    rng.shuffle(labels)
    if shape == "forest":
        comps, links = _forest_components(rng, labels, 8)
    else:
        comps, links = _degree_two_components(rng, labels)
    oriented = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in links]
    if shape == "degree-two":
        oriented = _break_directed_cycles(comps, links, oriented)
    edges, arcs, odd = [], [], set()
    for arc in oriented:
        (arcs if rng.random() < ARC_SHARE else edges).append(arc)
        odd ^= {arc[1]}
    if not feasible:
        a, b = rng.sample(range(len(comps)), 2)
        odd ^= {rng.choice(comps[a]), rng.choice(comps[b])}
    graph = PartiallyDirectedGraph.build(labels, edges, arcs)
    return OrientationProblem.build(graph, odd)


def _break_directed_cycles(comps, links, oriented):
    out = list(oriented)
    index = {link: i for i, link in enumerate(links)}
    for comp in comps:
        closing = (comp[-1], comp[0])
        if len(comp) < 3 or closing not in index:
            continue
        ring = [index[(x, y)] for x, y in zip(comp, comp[1:])] + [index[closing]]
        forward = sum(out[i] == links[i] for i in ring)
        if forward in (0, len(ring)):
            t, h = out[ring[-1]]
            out[ring[-1]] = (h, t)
    return out


def build_special(rng: random.Random, tiny: bool) -> list[Instance]:
    size = SPECIAL_VERTICES_TINY if tiny else SPECIAL_VERTICES
    out = []
    for _ in range(1 if tiny else SPECIAL_REPEATS):
        for shape in ("forest", "degree-two"):
            for feasible in SPECIAL_MIX:
                problem = planted_problem(rng, shape, size, feasible)
                kind = f"{shape}-{size}v-{'feasible' if feasible else 'infeasible'}"
                out.append(Instance(kind, write_instance(problem), feasible))
    return out


def run_special(inst: Instance, tr) -> bool:
    """The ``oddorient solve --witness`` flow on canonical instance bytes."""
    with tr.span("io.read_instance"):
        bundle = read_instance(inst.payload)
    tr.count("io.instance_bytes", len(inst.payload))
    res = _decide(tr, bundle.problem)
    _expect(res, inst.feasible)
    if res.feasible:
        _check_witness(tr, bundle.problem, res.witness)
        with tr.span("io.write_witness"):
            write_witness(res.witness)
    return res.feasible


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sat-pipeline",
            "the paper's main use: the planar 3-SAT reduction plus a feasible "
            "search, end to end through io, checked against sat_oracle",
            build_sat, run_sat, 40, stream=True,
        ),
        Workload(
            "unsat-proof",
            "infeasible reductions need complete search; pad-first instances "
            "show search-order, backjumping and propagation gains",
            build_unsat, run_unsat, 30,
        ),
        Workload(
            "oracle-sweep",
            "small general instances checked by the exhaustive enumerate, plus "
            "the 2-copy ring gadget sweep bound by the numpy parity filter",
            build_sweep, run_sweep, 200,
        ),
        Workload(
            "special-cases",
            "2000-vertex planted forests and degree-2 graphs measure the "
            "linear-time branches, about 1% of every other workload",
            build_special, run_special, 200,
        ),
    )
}
