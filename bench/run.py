"""The oddorient benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One process, one caller, no threads: each instance starts after the previous
one has been checked (a closed loop).  The inputs are built from ``--seed``
and handed to the program's public functions; every verdict is checked
against a known answer.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A run
with a failed instance still prints it, then exits with code 1.

Instances run in whole passes over the workload's instance list, for at
least ``--seconds`` seconds and at least the workload's ``min_instances``
instances, so every run has the same mix.  The tail percentile is fixed per
workload from ``min_instances``: the highest whole percentile with at least
10 samples beyond it in the smallest run.  Commits are thus compared at the
same percentile.  End-to-end times are quoted at a nominal host speed,
measured by the reference computation in ``reference.py``; the record also
gives them unscaled.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import oddorient  # noqa: E402

if not Path(oddorient.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"oddorient must be imported from {SRC}, got {oddorient.__file__}")

from oddorient import build_base_gadget  # noqa: E402
from oddorient.reduction import _mode_template  # noqa: E402

import reference  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, InstanceFailure  # noqa: E402

IMPORT_S = perf_counter() - T0
SETUP_REPEATS = 3
OUT_DIR = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# the public calls the flows wrap in spans; bench.classify is the traced
# run's own work (the dispatcher branch test), not the program's
CALLS = (
    "solver.decide",
    "solver.enumerate",
    "reduction.assemble",
    "reduction.structural_check",
    "reduction.assignment_from_orientation",
    "io.read_instance",
    "io.write_instance",
    "io.write_witness",
    "p3sat.generate",
    "p3sat.sat_oracle",
    "pdgraph.witness_check",
    "bench.classify",
)
BRANCHES = ("parity_gate", "tree", "degree_two", "exact")
COUNTS = (
    ("solver.decide.aborted", "count"),
    ("solver.decide.decisions", "count"),
    ("solver.decide.propagations", "count"),
    ("solver.enumerate.explored", "count"),
    ("solver.enumerate.valid", "count"),
    ("p3sat.generate.rejected", "count"),
    ("io.instance_bytes", "bytes"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for call in CALLS:
        units[f"{call}.busy_s"] = "s"
        units[f"{call}.busy_share"] = "share"
        units[f"{call}.calls"] = "count"
    for b in BRANCHES:
        units[f"solver.branch.{b}.busy_s"] = "s"
        units[f"solver.branch.{b}.calls"] = "count"
    units.update(dict(COUNTS))
    units["solver.decide.propagations_per_s"] = "1/s"
    units["solver.enumerate.valid_ratio"] = "share"
    units["bench.instance.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "share"
    return units


def tail_percentile(min_instances: int) -> int:
    return math.floor(100 * (1 - 10 / min_instances))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# -- running ---------------------------------------------------------------------


def setup(workload, seed: int, tiny: bool):
    """Warm the program's cached gadgets and build the inputs from the seed.

    Repeated ``SETUP_REPEATS`` times from cold caches.  Returns the last
    inputs, the import time plus the median repetition in seconds, and the
    median reference time around the repetitions.
    """
    times, refs = [], [reference.sample()]
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        build_base_gadget.cache_clear()
        _mode_template.cache_clear()
        build_base_gadget()
        _mode_template()
        pool = workload.build(random.Random(f"{workload.name}:{seed}"), tiny)
        times.append(perf_counter() - t)
        refs.append(reference.sample())
    return pool, IMPORT_S + statistics.median(times), statistics.median(refs)


def run_instance(workload, inst, tracer, i: int):
    """One instance; returns (seconds, verdict, error or None)."""
    t = perf_counter()
    verdict, error = None, None
    with tracer.instance(i):
        try:
            verdict = workload.run(inst, tracer)
        except InstanceFailure as exc:
            error = str(exc)
        except Exception:   # a raise is a failed instance; keep measuring
            error = traceback.format_exc()
    elapsed = perf_counter() - t
    if error is not None:
        print(f"instance {i} ({inst.kind}) failed: {error}", file=sys.stderr)
    return elapsed, verdict, error


def _finished(workload, pool, i: int, min_instances: int, start: float,
              seconds: float) -> bool:
    return ((workload.stream or i % len(pool) == 0) and i >= min_instances
            and perf_counter() - start >= seconds)


def run_loop(workload, pool, seconds: float, min_instances: int):
    """Run instances untraced, in whole passes.

    The reference is re-measured between instances at most every
    ``reference.INTERVAL_S``.  Returns (rows, timed wall seconds); a row is
    (kind, seconds, reference seconds, verdict, error).
    """
    rows = []
    start = perf_counter()
    ref_at, ref = start - reference.INTERVAL_S, 0.0
    i = 0
    while not _finished(workload, pool, i, min_instances, start, seconds):
        inst = pool[i % len(pool)]
        if perf_counter() - ref_at >= reference.INTERVAL_S:
            ref = reference.sample()
            ref_at = perf_counter()
        elapsed, verdict, error = run_instance(workload, inst, NullTracer(), i)
        rows.append((inst.kind, elapsed, ref, verdict, error))
        i += 1
    return rows, perf_counter() - start


def run_traced(workload, pool, seconds: float):
    """Run every instance twice back to back, traced and untraced, in
    alternating order, so host speed drift hits both alike.

    Returns (rows, tracer, traced seconds, untraced seconds); a row is
    (kind, seconds, None, verdict, error).
    """
    tracer, plain = Tracer(), NullTracer()
    rows, spent = [], {True: 0.0, False: 0.0}
    start = perf_counter()
    i = 0
    while not _finished(workload, pool, i, 1, start, seconds):
        inst = pool[i % len(pool)]
        for tr in (tracer, plain) if i % 2 == 0 else (plain, tracer):
            elapsed, verdict, error = run_instance(workload, inst, tr, i)
            spent[tr.enabled] += elapsed
            rows.append((inst.kind, elapsed, None, verdict, error))
        i += 1
    return rows, tracer, spent[True], spent[False]


def composition(workload, pool, rows) -> dict:
    """Instances run, by kind (which names the size and, on unsat-proof,
    the pad placement), and verdicts by kind."""
    run_kinds = Counter(row[0] for row in rows)
    verdicts = Counter(
        f"{kind}:{'feasible' if v else 'infeasible'}"
        for kind, _, _, v, err in rows if err is None
    )
    return {
        "pass_length": 1 if workload.stream else len(pool),
        "instances": len(rows),
        "kinds": dict(sorted(run_kinds.items())),
        "verdicts": dict(sorted(verdicts.items())),
    }


def timings(times: list[float], busy: float, tail_pct: int) -> dict:
    times = sorted(times)
    return {
        "instance_p50_s": statistics.median(times),
        "instance_tail_s": nearest_rank(times, tail_pct),
        "instances_per_s": len(times) / busy,
    }


def end_to_end(rows, setup_s: float, tail_pct: int) -> dict:
    """Every time at the nominal reference speed (see reference.py)."""
    scaled = [reference.scale(t, ref) for _, t, ref, _, _ in rows]
    return {
        "setup_s": setup_s,
        **timings(scaled, sum(scaled), tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def span_totals(spans) -> dict[str, list]:
    """[busy seconds, self seconds, calls] per span name; each decide span
    also counts under the solver.branch name of the branch it took."""
    totals: dict[str, list] = {}
    for s, self_s in zip(spans, self_times(spans)):
        names = [s.name]
        if s.name == "solver.decide":
            names.append(f"solver.branch.{s.attrs['branch']}")
        for name in names:
            row = totals.setdefault(name, [0.0, 0.0, 0])
            row[0] += s.duration
            row[1] += self_s
            row[2] += 1
    return totals


def per_layer(tracer: Tracer, wall: float, untraced_wall: float) -> dict:
    totals = span_totals(tracer.spans)

    def get(name):
        return totals.get(name, [0.0, 0.0, 0])

    out = {}
    for call in CALLS:
        busy, _, calls = get(call)
        out[f"{call}.busy_s"] = busy
        out[f"{call}.busy_share"] = busy / wall
        out[f"{call}.calls"] = calls
    for b in BRANCHES:
        busy, _, calls = get(f"solver.branch.{b}")
        out[f"solver.branch.{b}.busy_s"] = busy
        out[f"solver.branch.{b}.calls"] = calls
    for name, _ in COUNTS:
        out[name] = tracer.counts[name]
    decide_s = get("solver.decide")[0]
    out["solver.decide.propagations_per_s"] = (
        tracer.counts["solver.decide.propagations"] / decide_s if decide_s else 0.0
    )
    explored = tracer.counts["solver.enumerate.explored"]
    out["solver.enumerate.valid_ratio"] = (
        tracer.counts["solver.enumerate.valid"] / explored if explored else 0.0
    )
    out["bench.instance.self_s"] = get("bench.instance")[1]
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.overhead_share"] = (wall - untraced_wall) / untraced_wall
    return out


def layer_table(tracer: Tracer, wall: float) -> list[str]:
    """Busy time, self time, calls and share of the timed wall per span
    name; the solver.branch rows split the solver.decide row."""
    totals = span_totals(tracer.spans)
    lines = [f"{'span':40} {'busy_s':>10} {'self_s':>10} {'calls':>7} {'share':>7}"]
    for name, (b, t, c) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:40} {b:10.4f} {t:10.4f} {c:7d} {t / wall:7.1%}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """One run; returns the result object and the record of the run."""
    workload = WORKLOADS[name]
    min_instances = 1 if tiny else workload.min_instances
    pool, setup_raw, setup_ref = setup(workload, seed, tiny)
    tail_pct = tail_percentile(workload.min_instances)
    if trace:
        rows, tracer, wall, untraced_wall = run_traced(workload, pool, seconds)
        metrics = per_layer(tracer, wall, untraced_wall)
        units = per_layer_units()
    else:
        tracer = None
        rows, wall = run_loop(workload, pool, seconds, min_instances)
        metrics = end_to_end(rows, reference.scale(setup_raw, setup_ref), tail_pct)
        units = END_TO_END
    failed = sum(row[4] is not None for row in rows)
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "composition": composition(workload, pool, rows),
        "timed_wall_s": wall,
        "failed_share": failed / len(rows),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    if not trace:
        record["tail"] = {"percentile": tail_pct, "samples": len(rows)}
        # the same figures in wall-clock seconds, before scaling
        record["unscaled"] = {
            "setup_s": setup_raw,
            **timings([row[1] for row in rows], wall, tail_pct),
            "reference_s": statistics.median(row[2] for row in rows),
        }
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return {"result": result, "record": record, "tracer": tracer, "wall": wall}


def report(run: dict) -> None:
    record, result = run["record"], run["result"]
    print("record: " + json.dumps(record, sort_keys=True))
    print(f"failed_share = {record['failed_share']} "
          f"({result['failed']} of {result['attempted']})")
    if run["tracer"] is not None:
        for line in layer_table(run["tracer"], run["wall"]):
            print(line)
    for k, m in result["metrics"].items():
        extra = ""
        if k == "instance_tail_s":
            extra = (f"  (p{record['tail']['percentile']} of "
                     f"{record['tail']['samples']} instances)")
        print(f"{k} = {m['value']} {m['unit']}{extra}")
    write_out(run)
    print(json.dumps(result))


def write_out(run: dict) -> None:
    """Record, result and (traced runs) every span, written after the run."""
    record = run["record"]
    doc = {"record": record, "result": run["result"]}
    if run["tracer"] is not None:
        doc["spans"] = [
            {"name": s.name, "start": s.start, "end": s.end,
             "instance": s.instance, "parent": s.parent, **s.attrs}
            for s in run["tracer"].spans
        ]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(doc) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return 2
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"] and proc.returncode == 0
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for k, m in last["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(run)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
