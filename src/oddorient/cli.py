"""Command-line front end: solving, reduction, generation, verification, export.

Exit codes are a function of the semantic outcome only: 0 for feasible /
valid / agree, 1 for infeasible / invalid / disagree, 2 for aborts and
errors.  All output files use the canonical writers, so reruns with the same
inputs produce byte-identical results.  A command whose artifact goes to
standard output prints its report on standard error, so a redirect
captures the artifact alone.
"""

import argparse
import json
import sys
from typing import Optional, Sequence

from . import io as oio
from . import solver
from .p3sat import (
    FormulaError,
    GenerationError,
    PlanarFormula,
    SizeError,
    generate,
)
from .pdgraph import (
    GraphError,
    OrientationProblem,
    PartiallyDirectedGraph,
    boundary,
    is_T_odd_on,
    is_acyclic,
    is_uniform,
)
from .reduction import (
    GadgetError,
    GadgetRegistry,
    assemble,
    attach_stubs,
    build_base_gadget,
    build_clause_gadget,
    build_variable_gadget,
    structural_check,
    verify_equivalence,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _emit(report: dict, as_json: bool, piped: bool = False) -> None:
    """Print the report, on standard error when ``piped``: an artifact went
    to standard output."""
    out = sys.stderr if piped else sys.stdout
    if as_json:
        print(json.dumps(report, sort_keys=True), file=out)
        return
    for key, value in report.items():
        print(f"{key}: {value}", file=out)


def _write_out(data: bytes, path: Optional[str]) -> bool:
    """Write an artifact to ``path``, or to standard output for None or "-";
    whether it went to standard output."""
    if path is None or path == "-":
        sys.stdout.write(data.decode())
        return True
    with open(path, "wb") as fh:
        fh.write(data)
    return False


def _read_in(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_instance(path: str, normalize_multi: bool) -> oio.InstanceBundle:
    return oio.read_instance(_read_in(path), normalize_multi=normalize_multi)


def non_negative_int(text: str) -> int:
    """An argparse type: an int of at least 0, refused at its flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _verdict_exit(result: solver.SolveResult) -> int:
    """0 for feasible, 1 for infeasible, 2 for an aborted search."""
    if result.feasible:
        return EXIT_OK
    return EXIT_NEGATIVE if result.status == solver.INFEASIBLE else EXIT_ERROR


# -- solve ------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    bundle = _load_instance(args.instance, args.normalize_multi)
    problem = bundle.problem

    if args.check_witness:
        witness = oio.read_witness(_read_in(args.check_witness), problem)
        parity_ok = is_T_odd_on(problem, witness)
        order_ok = is_acyclic(witness.arcs).acyclic
        valid = parity_ok and order_ok
        _emit(
            {"witness": args.check_witness, "parity": parity_ok,
             "acyclic": order_ok, "valid": valid},
            args.json,
        )
        return EXIT_OK if valid else EXIT_NEGATIVE

    result = solver.decide(problem, budget=args.budget)
    report = {
        "status": result.status,
        "decisions": result.decisions,
        "propagations": result.propagations,
    }
    if result.detail:
        report["detail"] = result.detail
    piped = False
    if result.feasible and args.witness:
        piped = _write_out(oio.write_witness(result.witness), args.witness)
        report["witness"] = args.witness
    _emit(report, args.json, piped)
    return _verdict_exit(result)


# -- reduce -----------------------------------------------------------------------


def cmd_reduce(args: argparse.Namespace) -> int:
    parsed = oio.read_formula(_read_in(args.formula))
    if not isinstance(parsed, PlanarFormula):
        raise oio.FormatError("embedding required: formula has no rotation lines")
    red = assemble(parsed)
    check = structural_check(red)
    blob = oio.write_instance(
        red.problem,
        rotation=red.rotation,
        registry=red.registry,
        formula=red.formula,
    )
    piped = _write_out(blob, args.out)
    _emit(
        {
            "vertices": check.vertices,
            "edges": check.edges,
            "arcs": check.arcs,
            "marked": check.marked,
            "faces": check.faces,
            "structural": "ok" if check.ok else "; ".join(check.problems),
        },
        args.json,
        piped,
    )
    return EXIT_OK if check.ok else EXIT_NEGATIVE


# -- verify -----------------------------------------------------------------------


def _batch_formulas(args: argparse.Namespace):
    made = 0
    offset = 0
    last: Optional[GenerationError] = None
    while made < args.batch:
        if offset >= 3 * args.batch + 20:
            raise GenerationError(
                f"could not generate {args.batch} formulas from seed {args.seed}"
                f" (last failure: {last})"
            )
        try:
            yield f"seed {args.seed + offset}", generate(
                args.seed + offset, args.variables, args.clauses
            )
        except SizeError:
            raise   # no other seed can help
        except GenerationError as exc:
            last = exc
            offset += 1
            continue
        made += 1
        offset += 1


def cmd_verify(args: argparse.Namespace) -> int:
    jobs = []
    if args.batch:
        if args.seed is None:
            raise ValueError("--batch needs --seed")
        jobs = list(_batch_formulas(args))
    for path in args.formulas:
        parsed = oio.read_formula(_read_in(path))
        if not isinstance(parsed, PlanarFormula):
            raise oio.FormatError(f"{path}: embedding required for verification")
        jobs.append((path, parsed))
    if not jobs:
        raise ValueError("nothing to verify: pass formula paths or --batch")

    agreed = 0
    rows = []
    for name, pf in jobs:
        out = verify_equivalence(pf, budget=args.budget)
        agreed += bool(out["agree"])
        rows.append(
            {"name": name, "sat": out["sat"],
             "orientation_feasible": out["orientation_feasible"],
             "agree": out["agree"]}
        )
    if args.json:
        print(json.dumps({"results": rows, "agree": f"{agreed}/{len(jobs)}"},
                         sort_keys=True))
    else:
        for row in rows:
            print(f"{row['name']}: sat={row['sat']} "
                  f"feasible={row['orientation_feasible']} agree={row['agree']}")
        print(f"agree: {agreed}/{len(jobs)}")
    if any(row["agree"] is None for row in rows):
        return EXIT_ERROR   # an abort is neither agreement nor disagreement
    return EXIT_OK if agreed == len(jobs) else EXIT_NEGATIVE


# -- gadget -----------------------------------------------------------------------


def _parse_polarities(text: str) -> tuple[bool, bool, bool]:
    if len(text) != 3 or set(text) - set("+-"):
        raise ValueError(f"polarities must be three of +/-, got {text!r}")
    return tuple(c == "+" for c in text)


def _with_stubs(problem: OrientationProblem, attach, labels: list):
    """``attach_stubs``, with the labels extended by ``stub.o<i>`` for each
    outside vertex."""
    prob, outside = attach_stubs(problem, attach)
    return prob, labels + [(o, f"stub.o{i}") for i, o in enumerate(outside)]


def _gadget_done(args: argparse.Namespace, report: dict,
                 problem: OrientationProblem, labels: list) -> int:
    """Write the labelled gadget instance to ``-o``, if given, then print
    the report."""
    if args.out:
        blob = oio.write_instance(problem, registry=GadgetRegistry.build(labels))
        _write_out(blob, args.out)
    _emit(report, args.json, args.out == "-")
    return EXIT_OK


def cmd_gadget_base(args: argparse.Namespace) -> int:
    # build_base_gadget swept these stubs at construction and kept the two
    # orientations it found, so nothing is swept again here
    gad = build_base_gadget()
    prob, labels = _with_stubs(
        gad.problem, [gad.ids[x] for x in gad.stubs],
        [(v, f"M.{name}") for name, v in gad.ids.items()],
    )
    report = {
        "gadget": "base",
        "orientations": len(gad.modes),
        "explored": 2 ** len(prob.graph.edges),
    }
    return _gadget_done(args, report, prob, labels)


def cmd_gadget_variable(args: argparse.Namespace) -> int:
    gad = build_variable_gadget(args.copies)
    prob, labels = _with_stubs(
        gad.problem, [v for pair in gad.stub_pairs for v in pair],
        [(v, f"k{k}.{name}") for k, ids in enumerate(gad.ids)
         for name, v in ids.items()],
    )
    core = {v for c in gad.ids for v in c.values()}
    rep = solver.enumerate(prob, scope=core, max_edges=args.enum_cap)
    views = [boundary(prob.graph, core, w) for w in rep.witnesses]
    # uniform: every stub runs one way; opposite: one mode all outward, the
    # other all inward
    opposite = rep.total_valid == 2 and all(map(is_uniform, views)) \
        and {bool(v.out_arcs) for v in views} == {False, True}
    report = {
        "gadget": f"variable d={args.copies}",
        "orientations": rep.total_valid,
        "boundaries": "uniform and opposite" if opposite else "unexpected",
    }
    return _gadget_done(args, report, prob, labels)


def _clause_class(gad, inward: int, enum_cap: int) -> str:
    """Fix a boundary with `inward` port pairs pointing in and count the
    ring's completions, first ignoring cycles, then acyclic ones."""
    g = gad.problem.graph
    arcs = []
    for p, (v, vh) in enumerate(gad.port_pairs, start=1):
        w, wh = gad.ids[f"w{p}"], gad.ids[f"wh{p}"]
        if p <= inward:
            arcs += [(v, w), (vh, wh)]
        else:
            arcs += [(w, v), (wh, vh)]
    ring = {e for e in g.edges} - {tuple(sorted(a)) for a in arcs}
    graph = PartiallyDirectedGraph.build(g.vertices, ring, arcs)
    prob = OrientationProblem.build(graph, gad.problem.odd_set)
    total, acyclic = (
        solver.enumerate(
            prob, scope=set(gad.hexagon), witness_cap=0,
            require_acyclic=flag, max_edges=enum_cap,
        ).total_valid
        for flag in (False, True)
    )
    return f"{total} completions, {acyclic} acyclic"


def cmd_gadget_clause(args: argparse.Namespace) -> int:
    gad = build_clause_gadget(_parse_polarities(args.polarities))
    classes = [args.boundary_class] if args.boundary_class is not None else range(4)
    report = {"gadget": "clause", "polarities": args.polarities}
    for i in classes:
        report[f"a_{i}"] = _clause_class(gad, i, args.enum_cap)
    labels = [(v, name) for name, v in gad.ids.items()]
    return _gadget_done(args, report, gad.problem, labels)


# -- gen --------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    pf = generate(args.seed, args.variables, args.clauses)
    piped = _write_out(oio.write_formula(pf), args.out)
    if args.json:
        _emit({"seed": args.seed, "variables": args.variables,
               "clauses": args.clauses}, True, piped)
    return EXIT_OK


# -- export-dot -------------------------------------------------------------------


def cmd_export_dot(args: argparse.Namespace) -> int:
    bundle = _load_instance(args.instance, args.normalize_multi)
    orientation = None
    if args.witness:
        orientation = oio.read_witness(_read_in(args.witness), bundle.problem)
    blob = oio.export_dot(
        bundle.problem, orientation=orientation, registry=bundle.registry
    )
    _write_out(blob, args.out)
    return EXIT_OK


# -- normalize --------------------------------------------------------------------


def cmd_normalize(args: argparse.Namespace) -> int:
    bundle = _load_instance(args.instance, args.normalize_multi)
    normalized, back = solver.normalize_empty_T(bundle.problem)
    piped = _write_out(oio.write_instance(normalized), args.out)
    _emit(
        {
            "contractions": len(back.steps),
            "vertices": len(normalized.graph.vertices),
            "marked": len(normalized.odd_set),
        },
        args.json,
        piped,
    )
    return EXIT_OK


# -- apex -------------------------------------------------------------------------


def cmd_apex(args: argparse.Namespace) -> int:
    bundle = _load_instance(args.instance, args.normalize_multi)
    transformed = solver.apex_transform(bundle.problem)
    if args.out:
        _write_out(oio.write_instance(transformed), args.out)
    if args.variant:
        result = solver.apex_feasible_variant(bundle.problem, budget=args.budget)
    else:
        result = solver.decide(transformed, budget=args.budget)
    report = {
        "status": result.status,
        "apex_vertices": len(transformed.graph.vertices),
        "reading": "per-vertex" if args.variant else "default",
    }
    if result.detail:
        report["detail"] = result.detail
    _emit(report, args.json, args.out == "-")
    return _verdict_exit(result)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddorient",
        description="Acyclic parity-constrained orientations: solvers, "
                    "gadgets, reductions, and instance tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=False, budget=False, json_flag=True):
        # the command's own parser reports a flag it does not take
        p.set_defaults(parser=p)
        if json_flag:
            p.add_argument("--json", action="store_true",
                           help="machine-readable report on stdout")
        if budget:
            p.add_argument("--budget", type=non_negative_int, default=10_000_000,
                           help="search node budget (default 10^7)")
        if instance:
            p.add_argument("--normalize-multi", action="store_true",
                           help="collapse parallel links while reading")

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("instance")
    p.add_argument("--witness", help="write a witness document here")
    p.add_argument("--check-witness", metavar="PATH",
                   help="validate an existing witness instead of solving")
    common(p, instance=True, budget=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="assemble the artifact for a formula")
    p.add_argument("formula")
    p.add_argument("-o", "--out", help="artifact path (default stdout)")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="check formula/artifact agreement")
    p.add_argument("formulas", nargs="*", help="formula files with rotation lines")
    p.add_argument("--batch", type=non_negative_int, default=0,
                   help="also verify this many generated formulas")
    p.add_argument("--seed", type=int, help="generator seed for --batch")
    p.add_argument("-n", "--variables", type=int, default=6)
    p.add_argument("-m", "--clauses", type=int, default=7)
    common(p, budget=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gadget", help="build a gadget and check its claim")
    kinds = p.add_subparsers(dest="kind", required=True)

    def gadget(kind, func, about, enum_cap=True):
        k = kinds.add_parser(kind, help=about)
        if enum_cap:
            k.add_argument("--enum-cap", type=non_negative_int, default=26,
                           help="exhaustive sweep cap: the largest dimension d "
                                "of the parity solution space, which the sweep "
                                "walks in 2^d steps (default 26)")
        k.add_argument("-o", "--out", help="write the gadget instance here")
        common(k)
        k.set_defaults(func=func)
        return k

    gadget("base", cmd_gadget_base, "the rigid base block: two orientations",
           enum_cap=False)
    k = gadget("variable", cmd_gadget_variable,
               "a ring of base blocks: one bit on a uniform boundary")
    k.add_argument("--copies", type=int, default=1, help="ring size")
    k = gadget("clause", cmd_gadget_clause,
               "a clause hexagon: acyclic iff some port pair points in")
    k.add_argument("--polarities", default="+++",
                   help="clause slot signs, e.g. ++-; a value that starts "
                        "with - needs the = form, --polarities=-+-")
    k.add_argument("--boundary-class", type=int, choices=range(4),
                   help="fix this many inward port pairs")

    p = sub.add_parser("gen", help="generate a planar formula")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-n", "--variables", type=int, required=True)
    p.add_argument("-m", "--clauses", type=int, required=True)
    p.add_argument("-o", "--out", help="formula path (default stdout)")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="render an instance to DOT")
    p.add_argument("instance")
    p.add_argument("--witness", help="orient all links per this witness")
    p.add_argument("-o", "--out", help="DOT path (default stdout)")
    common(p, instance=True, json_flag=False)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("normalize", help="rewrite to an empty odd set")
    p.add_argument("instance")
    p.add_argument("-o", "--out", help="normalized instance path (default stdout)")
    common(p, instance=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("apex", help="decide via the all-odd apex transform")
    p.add_argument("instance")
    p.add_argument("--variant", action="store_true",
                   help="per-vertex reading of the transform")
    p.add_argument("-o", "--out", help="write the transformed instance here")
    common(p, instance=True, budget=True)
    p.set_defaults(func=cmd_apex)

    return parser


_USER_ERRORS = (
    GraphError,
    GadgetError,
    FormulaError,
    GenerationError,
    oio.FormatError,
    solver.BudgetError,
    ValueError,
    OSError,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
