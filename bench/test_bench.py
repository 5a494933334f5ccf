"""Tests of the benchmark itself: every workload at a tiny size, the metric
names against BENCHMARK.json, the known-answer gate, and the instance
transforms of unsat-proof.

    python3 -m pytest bench -q
"""

import io
import json
import math
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, self_times  # noqa: E402

from oddorient import incidence_graph, sat_oracle, unsat_samples, validate_embedding  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_tiny(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = run.run_workload(name, 7, 0, trace, tiny=True)
    out = io.StringIO()
    with redirect_stdout(out):
        run.report(result)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert result["record"]["failed_share"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    saved = json.loads((tmp_path / f"{name}-seed7-trace{int(trace)}.json").read_text())
    assert saved["record"]["seed"] == 7
    assert ("spans" in saved) == trace


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == wl.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_unsat_proof_traced_run_uses_the_exact_branch(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    metrics = run.run_workload("unsat-proof", 3, 0, True, tiny=True)["result"]["metrics"]
    assert metrics["solver.branch.exact.calls"]["value"] == metrics["solver.decide.calls"]["value"]
    assert metrics["solver.decide.decisions"]["value"] > 0
    assert metrics["solver.branch.exact.busy_s"]["value"] > 0.5 * metrics["trace.wall_s"]["value"]


def test_same_seed_same_inputs():
    for w in wl.WORKLOADS.values():
        a = w.build(random.Random(f"{w.name}:5"), True)
        b = w.build(random.Random(f"{w.name}:5"), True)
        assert a == b


def test_wrong_known_answer_fails_the_instance():
    inst = wl.build_special(random.Random(1), True)[0]
    flipped = wl.Instance(inst.kind, inst.payload, not inst.feasible)
    with pytest.raises(wl.InstanceFailure):
        wl.run_special(flipped, run.NullTracer())


def test_renaming_and_union_keep_cores_unsat_and_planar():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    pad = wl._pad(rng)
    for core in unsat_samples():
        flips = [rng.random() < 0.5 for _ in range(core.formula.variable_count)]
        renamed = wl.rename(core, flips)
        for pf in (renamed, wl.disjoint_union(pad, renamed), wl.disjoint_union(renamed, pad)):
            assert sat_oracle(pf.formula) is None
            graph = incidence_graph(pf.formula)
            assert validate_embedding(graph, pf.rotation).valid
            g = nx.Graph(list(graph.undirected_pairs()))
            assert nx.check_planarity(g)[0]
    first = wl.disjoint_union(pad, unsat_samples()[0])
    assert first.formula.clauses[0] == pad.formula.clauses[0]


def test_tail_percentile_leaves_ten_samples_beyond():
    for w in wl.WORKLOADS.values():
        pct = run.tail_percentile(w.min_instances)
        values = list(range(w.min_instances))
        tail = run.nearest_rank(values, pct)
        assert sum(v > tail for v in values) >= 10


def test_self_time_subtracts_children():
    spans = [
        Span("bench.instance", 0.0, 10.0, 0, None),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 3.0])
