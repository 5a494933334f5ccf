"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddorient import cli, solver
from oddorient.cli import main
from oddorient.io import write_formula, write_instance
from oddorient.p3sat import generate
from oddorient.pdgraph import OrientationProblem, PartiallyDirectedGraph
from oddorient.samples import unsat_samples


def run(*argv):
    return main([str(a) for a in argv])


def _instance_file(tmp_path, name, vertices, edges, arcs=(), odd=()):
    g = PartiallyDirectedGraph.build(vertices, edges, arcs)
    p = OrientationProblem.build(g, odd)
    path = tmp_path / name
    path.write_bytes(write_instance(p))
    return path


class TestPipeline:
    def test_gen_reduce_solve_check(self, tmp_path):
        f = tmp_path / "f.cnf"
        art = tmp_path / "art.json"
        wit = tmp_path / "w.json"
        assert run("gen", "--seed", 3, "-n", 6, "-m", 7, "-o", f) == 0
        assert run("reduce", f, "-o", art) == 0
        assert run("solve", art, "--witness", wit) == 0
        assert run("solve", art, "--check-witness", wit) == 0

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        assert run("gen", "--seed", 11, "-n", 7, "-m", 9, "-o", a) == 0
        assert run("gen", "--seed", 11, "-n", 7, "-m", 9, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_minimal(self, tmp_path):
        f = tmp_path / "tiny.cnf"
        assert run("gen", "--seed", 1, "-n", 3, "-m", 1, "-o", f) == 0
        assert run("verify", f) == 0

    def test_gen_infeasible_layout(self, tmp_path):
        assert run("gen", "--seed", 1, "-n", 3, "-m", 9,
                   "-o", tmp_path / "x.cnf") == 2


class TestSolve:
    def test_parity_infeasible(self, tmp_path, capsys):
        inst = _instance_file(tmp_path, "p.json", [0, 1, 2],
                              [(0, 1), (1, 2)], odd=[1])
        assert run("solve", inst) == 1
        assert "parity" in capsys.readouterr().out

    def test_tree_feasible_with_witness(self, tmp_path):
        inst = _instance_file(tmp_path, "t.json", [0, 1, 2],
                              [(0, 1), (1, 2)], odd=[0, 1])
        wit = tmp_path / "w.json"
        assert run("solve", inst, "--witness", wit) == 0
        assert run("solve", inst, "--check-witness", wit) == 0

    def test_malformed_witness_is_an_error(self, tmp_path, capsys):
        inst = _instance_file(tmp_path, "t.json", [0, 1], [(0, 1)], odd=[1])
        wit = tmp_path / "w.json"
        wit.write_text('{"format": "oddorient-witness", "version": 1, "arcs": [5]}')
        assert run("solve", inst, "--check-witness", wit) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_rotation_is_an_error(self, tmp_path, capsys):
        inst = _instance_file(tmp_path, "t.json", [0, 1], [(0, 1)], odd=[1])
        doc = json.loads(inst.read_text())
        doc["rotation"] = [5]
        inst.write_text(json.dumps(doc))
        assert run("solve", inst) == 2
        assert "error" in capsys.readouterr().err

    def test_non_boolean_in_T_is_an_error(self, tmp_path, capsys):
        inst = _instance_file(tmp_path, "t.json", [0, 1], [(0, 1)], odd=[1])
        doc = json.loads(inst.read_text())
        doc["vertices"][0]["in_T"] = "false"
        inst.write_text(json.dumps(doc))
        assert run("solve", inst) == 2
        assert "in_T" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run("solve", tmp_path / "nope.json") == 2
        assert "error" in capsys.readouterr().err

    def test_json_report(self, tmp_path, capsys):
        inst = _instance_file(tmp_path, "t.json", [0, 1], [(0, 1)], odd=[0])
        assert run("solve", inst, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "feasible"


class TestReduce:
    def test_requires_rotation_lines(self, tmp_path, capsys):
        f = tmp_path / "bare.cnf"
        f.write_bytes(b"p cnf 3 1\n1 2 3 0\n")
        assert run("reduce", f) == 2
        assert "embedding required" in capsys.readouterr().err

    def test_negative_header_count_exits_2(self, tmp_path, capsys):
        f = tmp_path / "neg.cnf"
        f.write_bytes(b"p cnf -3 0\n")
        assert run("reduce", f) == 2
        assert "malformed header" in capsys.readouterr().err

    def test_artifact_reloads(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        art = tmp_path / "art.json"
        run("gen", "--seed", 5, "-n", 6, "-m", 7, "-o", f)
        assert run("reduce", f, "-o", art, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structural"] == "ok"
        assert run("solve", art) == 0


class TestVerify:
    def test_batch_agreement(self, capsys):
        assert run("verify", "--batch", 3, "--seed", 40, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] == "3/3"

    def test_needs_input(self):
        assert run("verify") == 2

    def test_batch_needs_a_seed(self, capsys):
        assert run("verify", "--batch", 1) == 2
        # -n and -m have defaults, so the seed is all --batch lacks
        assert capsys.readouterr().err == "error: --batch needs --seed\n"

    def test_needs_rotation_lines(self, tmp_path, capsys):
        f = tmp_path / "bare.cnf"
        f.write_bytes(b"p cnf 3 1\n1 2 3 0\n")
        assert run("verify", f) == 2
        assert "embedding required" in capsys.readouterr().err

    def test_variables_in_no_clause_read_false(self, tmp_path, capsys):
        # three isolated variables: no gadget copy, no vote, read False
        f = tmp_path / "empty.cnf"
        f.write_bytes(b"p cnf 3 0\nr 0\nr 1\nr 2\n")
        assert run("verify", f) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "agree: 1/1"

    def test_an_aborted_search_exits_2(self, tmp_path, capsys):
        # with no decision to spend, the search aborts on frozen UNSAT core 0
        # and on the satisfiable 6/7 seed 3 formula alike: neither agrees
        # nor disagrees, and an abort exits 2
        core, sat = tmp_path / "core0.cnf", tmp_path / "f.cnf"
        core.write_bytes(write_formula(unsat_samples()[0]))
        sat.write_bytes(write_formula(generate(3, 6, 7)))
        for f in (core, sat):
            assert run("verify", f, "--budget", 0) == 2
            row, total = capsys.readouterr().out.splitlines()
            assert row.endswith(" feasible=None agree=None")
            assert total == "agree: 0/1"
        # one abort beside an agreeing formula still exits 2: a formula with
        # no clause reduces to an empty instance, decided with no decision
        empty = tmp_path / "empty.cnf"
        empty.write_bytes(b"p cnf 3 0\nr 0\nr 1\nr 2\n")
        assert run("verify", empty, core, "--budget", 0, "--json") == 2
        report = json.loads(capsys.readouterr().out)
        assert [r["agree"] for r in report["results"]] == [True, None]
        assert report["agree"] == "1/2"
        assert run("verify", core, sat, "--json") == 0
        assert json.loads(capsys.readouterr().out)["agree"] == "2/2"

    def test_negative_batch_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run("verify", "--batch", -1)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "argument --batch: must be non-negative, got -1" in err

    def test_batch_names_the_generation_failure(self, capsys):
        # three variables expose at most two clause slots, so every seed
        # fails its layout and the batch gives up after 3N+20 seeds
        assert run("verify", "--batch", 1, "--seed", 1, "-n", 3, "-m", 3) == 2
        err = capsys.readouterr().err
        assert "could not generate 1 formulas from seed 1" in err
        assert "no layout found for n=3, m=3 after 400 attempts" in err

    @pytest.mark.parametrize("n, m, message", [
        (2, 3, "need at least 3 variables"),
        (-3, 3, "need at least 3 variables"),
        (6, 0, "need at least 1 clause"),
        (6, -1, "need at least 1 clause"),
    ], ids=["n2", "n-3", "m0", "m-1"])
    @pytest.mark.parametrize(
        "batch", [("verify", "--batch", 3), ("gen",)], ids=["verify", "gen"]
    )
    def test_size_refusal_calls_generate_once(
        self, monkeypatch, capsys, batch, n, m, message
    ):
        # a size refusal holds at every seed, so no other seed is tried
        calls = []

        def counted(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(cli, "generate", counted)
        assert run(*batch, "--seed", 1, "-n", n, "-m", m) == 2
        assert calls == [(1, n, m)]
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "could not generate" not in err


class TestGadget:
    def test_base_counts(self, monkeypatch, capsys):
        # build_base_gadget's own sweep found the two modes, so the command
        # sweeps nothing
        calls = []
        monkeypatch.setattr(solver, "enumerate", lambda *a, **k: calls.append(a))
        assert run("gadget", "base", "--json") == 0
        assert calls == []
        report = json.loads(capsys.readouterr().out)
        assert report["orientations"] == 2
        assert report["explored"] == 2 ** 12

    def test_variable_ring(self, capsys):
        assert run("gadget", "variable", "--copies", 2, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["orientations"] == 2
        assert report["boundaries"] == "uniform and opposite"

    def test_variable_verdict_checks_opposite(self, monkeypatch, capsys):
        # two witnesses of one mode: each boundary uniform, but not opposite
        sweep = solver.enumerate

        def one_mode_twice(*args, **kwargs):
            rep = sweep(*args, **kwargs)
            return dataclasses.replace(rep, witnesses=rep.witnesses[:1] * 2)

        monkeypatch.setattr(solver, "enumerate", one_mode_twice)
        assert run("gadget", "variable", "--json") == 0
        assert json.loads(capsys.readouterr().out)["boundaries"] == "unexpected"

    def test_variable_over_budget(self, capsys):
        # three copies: 33 edges, but a parity space of dimension 4
        assert run("gadget", "variable", "--copies", 3, "--enum-cap", 3) == 2
        assert "2**4 parity space" in capsys.readouterr().err
        assert run("gadget", "variable", "--copies", 3) == 0

    def test_negative_cap_is_refused(self, capsys):
        # a misuse of the flag, refused at the flag it was given, not a
        # parity space over a 2**-1 budget
        for kind in ("variable", "clause"):
            with pytest.raises(SystemExit) as exit_:
                run("gadget", kind, "--enum-cap", -1)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert "argument --enum-cap: must be non-negative, got -1" in err
            assert "max_edges" not in err and "budget" not in err

    def test_variable_past_64_edges(self, capsys):
        # six copies: 66 edges, but a parity space of dimension 7, so the
        # sweep finds the two modes however many edges there are
        assert run("gadget", "variable", "--copies", 6, "--enum-cap", 100) == 0
        out = capsys.readouterr().out
        assert "orientations: 2" in out
        assert "boundaries: uniform and opposite" in out

    def test_clause_classes(self, capsys):
        assert run("gadget", "clause", "--polarities", "++-", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["a_0"] == "2 completions, 0 acyclic"
        for key in ("a_1", "a_2", "a_3"):
            assert report[key] == "2 completions, 2 acyclic"

    def test_clause_single_class(self, capsys):
        assert run("gadget", "clause", "--boundary-class", 0, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["a_0"] == "2 completions, 0 acyclic"
        assert "a_1" not in report

    def test_unknown_flag_names_the_kind(self, capsys):
        # the base gadget has no copies: its own parser refuses the flag
        with pytest.raises(SystemExit) as exit_:
            run("gadget", "base", "--copies", 2)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "usage: oddorient gadget base" in err
        assert "oddorient gadget base: error: unrecognized arguments: --copies 2" in err

    def test_bad_polarities(self):
        assert run("gadget", "clause", "--polarities", "+*-") == 2

    def test_polarities_starting_with_minus(self, capsys):
        # argparse reads a separate "-+-" as a flag, so the = form is needed
        assert run("gadget", "clause", "--polarities=-+-", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["polarities"] == "-+-"
        assert report["a_0"] == "2 completions, 0 acyclic"
        for key in ("a_1", "a_2", "a_3"):
            assert report[key] == "2 completions, 2 acyclic"
        with pytest.raises(SystemExit) as exit_:
            run("gadget", "clause", "--polarities", "-+-")
        assert exit_.value.code == 2
        assert "argument --polarities: expected one argument" in capsys.readouterr().err

    def test_gadget_file_output(self, tmp_path):
        out = tmp_path / "base.json"
        assert run("gadget", "base", "-o", out) == 0
        from oddorient.io import read_instance

        bundle = read_instance(out.read_bytes())
        # ten core vertices plus the four boundary stubs
        assert len(bundle.problem.graph.vertices) == 14
        assert bundle.registry is not None
        assert bundle.registry.to_vertex["M.u"] in bundle.problem.graph.vertices

    @pytest.mark.parametrize("kind", ["variable", "clause"])
    def test_gadget_file_solves(self, tmp_path, kind):
        out = tmp_path / f"{kind}.json"
        assert run("gadget", kind, "-o", out) == 0
        assert run("solve", out) in (0, 1)


class TestExportDot:
    def test_oriented_export(self, tmp_path):
        f, art = tmp_path / "f.cnf", tmp_path / "a.json"
        wit, dot = tmp_path / "w.json", tmp_path / "a.dot"
        run("gen", "--seed", 7, "-n", 6, "-m", 7, "-o", f)
        run("reduce", f, "-o", art)
        run("solve", art, "--witness", wit)
        assert run("export-dot", art, "--witness", wit, "-o", dot) == 0
        text = dot.read_text()
        assert "dir=none" not in text
        assert "subgraph" in text

    def test_undirected_export(self, tmp_path):
        inst = _instance_file(tmp_path, "i.json", [0, 1, 2],
                              [(0, 1)], [(1, 2)], odd=[2])
        dot = tmp_path / "i.dot"
        assert run("export-dot", inst, "-o", dot) == 0
        text = dot.read_text()
        assert " 0 -> 1 [dir=none];" in text
        assert " 1 -> 2;" in text


class TestTransforms:
    def test_normalize_then_solve(self, tmp_path, capsys):
        inst = _instance_file(
            tmp_path, "six.json", range(6),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], odd=[1, 4],
        )
        norm = tmp_path / "norm.json"
        assert run("normalize", inst, "-o", norm, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["contractions"] == 2
        assert report["marked"] == 0
        assert run("solve", norm) == 0

    def test_normalize_rejects_parallel_collision(self, tmp_path):
        inst = _instance_file(
            tmp_path, "cyc.json", [0, 1, 2, 3],
            [(0, 1), (1, 2), (2, 3), (0, 3)], odd=[0, 2],
        )
        assert run("normalize", inst, "-o", tmp_path / "n.json") == 2

    def test_apex_default_and_variant(self, tmp_path):
        inst = _instance_file(
            tmp_path, "cyc.json", [0, 1, 2, 3],
            [(0, 1), (1, 2), (2, 3), (0, 3)], odd=[0, 2],
        )
        assert run("apex", inst) in (0, 1)
        assert run("apex", inst, "--variant") == 0

    def test_apex_rejects_fixed_arcs(self, tmp_path):
        inst = _instance_file(tmp_path, "a.json", [0, 1], [], [(0, 1)])
        assert run("apex", inst) == 2


class TestArtifactOnStdout:
    """A command whose artifact goes to standard output, by ``-o -`` or by
    default, prints its report on standard error, so that what a redirect
    captures reads back as the artifact."""

    def split(self, capsys, path):
        """Standard output into ``path``; standard error as text."""
        out, err = capsys.readouterr()
        path.write_text(out)
        return err

    def test_reduce(self, tmp_path, capsys):
        f = tmp_path / "f.cnf"
        run("gen", "--seed", 3, "-n", 6, "-m", 7, "-o", f)
        capsys.readouterr()
        assert run("reduce", f) == 0
        err = self.split(capsys, tmp_path / "a.json")
        assert "structural: ok" in err.splitlines()
        assert run("solve", tmp_path / "a.json") == 0

    def test_gen_json(self, tmp_path, capsys):
        assert run("gen", "--seed", 1, "-n", 6, "-m", 7, "--json") == 0
        err = self.split(capsys, tmp_path / "f.cnf")
        assert json.loads(err) == {"clauses": 7, "seed": 1, "variables": 6}
        assert run("verify", tmp_path / "f.cnf") == 0

    def test_normalize(self, tmp_path, capsys):
        # 1 is odd with two links, so it is contracted into the edge 0-2
        inst = _instance_file(tmp_path, "i.json", range(4),
                              [(0, 1), (1, 2), (2, 3), (0, 3)], odd=[1])
        assert run("normalize", inst) == 0
        err = self.split(capsys, tmp_path / "n.json")
        assert "contractions: 1" in err.splitlines()
        assert run("solve", tmp_path / "n.json") == run("solve", inst)

    def test_apex(self, tmp_path, capsys):
        inst = _instance_file(tmp_path, "i.json", range(4),
                              [(0, 1), (1, 2), (2, 3), (0, 3)], odd=[0, 2])
        code = run("apex", inst, "-o", "-")
        err = self.split(capsys, tmp_path / "apex.json")
        assert f"status: {'feasible' if code == 0 else 'infeasible'}" in err.splitlines()
        assert run("solve", tmp_path / "apex.json") == code

    @pytest.mark.parametrize("kind", ["base", "variable", "clause"])
    def test_gadget(self, tmp_path, capsys, kind):
        assert run("gadget", kind, "-o", "-", "--json") == 0
        err = self.split(capsys, tmp_path / "g.json")
        assert json.loads(err)["gadget"].startswith(kind)
        assert run("solve", tmp_path / "g.json") in (0, 1)

    def test_solve_witness(self, tmp_path, capsys):
        inst = _instance_file(tmp_path, "i.json", [0, 1, 2], [(0, 1), (1, 2)], odd=[1, 2])
        assert run("solve", inst, "--witness", "-") == 0
        err = self.split(capsys, tmp_path / "w.json")
        assert "status: feasible" in err.splitlines()
        assert run("solve", inst, "--check-witness", tmp_path / "w.json") == 0


class TestAbortExits:
    def test_solve_budget_zero_on_a_reduction(self, tmp_path, capsys):
        f, art = tmp_path / "f.cnf", tmp_path / "a.json"
        run("gen", "--seed", 3, "-n", 6, "-m", 7, "-o", f)
        run("reduce", f, "-o", art)
        capsys.readouterr()
        assert run("solve", art, "--budget", 0) == 2
        assert "status: aborted" in capsys.readouterr().out.splitlines()

    def test_apex_budget_zero_when_a_decision_is_needed(self, tmp_path, capsys):
        # the apex instance of this 4-cycle is decided only by branching
        inst = _instance_file(tmp_path, "i.json", range(4),
                              [(0, 1), (0, 2), (1, 3), (2, 3)], odd=[2, 3])
        assert run("apex", inst, "--budget", 0) == 2
        assert "status: aborted" in capsys.readouterr().out.splitlines()


# the flags a subcommand never read, each dropped from its parser
_UNREAD_FLAGS = [
    (("solve", "i.json"), "--enum-cap"),
    (("reduce", "f.cnf"), "--budget"),
    (("reduce", "f.cnf"), "--enum-cap"),
    (("verify",), "--enum-cap"),
    (("gadget", "base"), "--budget"),
    (("gadget", "base"), "--copies"),
    (("gadget", "base"), "--polarities"),
    (("gadget", "base"), "--boundary-class"),
    (("gadget", "base"), "--enum-cap"),
    (("gadget", "variable"), "--polarities"),
    (("gadget", "variable"), "--boundary-class"),
    (("gadget", "clause"), "--copies"),
    (("gen", "--seed", "1", "-n", "3", "-m", "1"), "--budget"),
    (("gen", "--seed", "1", "-n", "3", "-m", "1"), "--enum-cap"),
    (("export-dot", "i.json"), "--budget"),
    (("export-dot", "i.json"), "--enum-cap"),
    (("export-dot", "i.json"), "--json"),
    (("normalize", "i.json"), "--budget"),
    (("normalize", "i.json"), "--enum-cap"),
    (("apex", "i.json"), "--enum-cap"),
]


@pytest.mark.parametrize(
    "command, flag", _UNREAD_FLAGS,
    ids=[f"{' '.join(c[:2]) if c[0] == 'gadget' else c[0]} {f}"
         for c, f in _UNREAD_FLAGS],
)
def test_unread_flag_exits_2(command, flag, capsys):
    argv = [*command, flag] if flag == "--json" else [*command, flag, "5"]
    with pytest.raises(SystemExit) as exit_:
        run(*argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_negative_budget_is_refused(capsys):
    # refused at the flag, not run and reported as an aborted search
    for command in (("solve", "i.json"), ("verify", "f.cnf"), ("apex", "i.json")):
        with pytest.raises(SystemExit) as exit_:
            run(*command, "--budget", -1)
        assert exit_.value.code == 2
        assert "argument --budget: must be non-negative, got -1" in capsys.readouterr().err


# tokens an edit puts into a formula line, and generator sizes that always
# find a layout
_FUZZ_TOKENS = ["0", "1", "-1", "2", "-3", "7", "-0", "x", "1.5", "p", "r", "c",
                "cnf", "99999999999999999999"]
_FUZZ_SIZES = [(3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 5)]


@st.composite
def _mutated_formula_files(draw):
    """A written planar formula with one to three line or token mutations:
    a line dropped or duplicated, or a token replaced, inserted or dropped."""
    n, m = draw(st.sampled_from(_FUZZ_SIZES))
    lines = write_formula(generate(draw(st.integers(0, 50)), n, m)).decode().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "replace", "insert", "delete"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            tokens = lines[i].split()
            at = draw(st.integers(0, len(tokens)))
            if kind == "insert":
                tokens.insert(at, draw(st.sampled_from(_FUZZ_TOKENS)))
            elif at < len(tokens):
                if kind == "replace":
                    tokens[at] = draw(st.sampled_from(_FUZZ_TOKENS))
                else:
                    del tokens[at]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


# values an edit puts into an instance document; tuples write as JSON lists
# and cannot be edited in place by a later mutation
_FUZZ_VALUES = [0, 1, -1, 7, 10**20, 1.5, "x", None, True, (), {}, (0,), (0, 0),
                (1, 0), (0, 1, 2)]


@st.composite
def _mutated_instance_files(draw):
    """A written instance of up to six vertices with up to three mutations
    of its JSON: a section dropped or replaced, a list entry dropped,
    duplicated or replaced, or one field of a pair or vertex record
    replaced or dropped; sometimes the text is cut short as well.  An
    unmutated draw keeps the solvers' own paths in the mix."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    arcs = [p[::-1] for p in links if draw(st.booleans())]
    edges = [p for p in links if p[::-1] not in arcs]
    odd = draw(st.sets(st.integers(0, n - 1)))
    prob = OrientationProblem.build(PartiallyDirectedGraph.build(range(n), edges, arcs), odd)
    doc = json.loads(write_instance(prob))
    for _ in range(draw(st.integers(0, 3))):
        if not doc:
            break
        key = draw(st.sampled_from(sorted(doc)))
        kind = draw(st.sampled_from(["drop", "replace", "entry"]))
        entries = doc[key]
        if kind == "drop":
            del doc[key]
        elif kind == "replace" or not isinstance(entries, list) or not entries:
            doc[key] = draw(st.sampled_from(_FUZZ_VALUES))
        else:
            i = draw(st.integers(0, len(entries) - 1))
            op = draw(st.sampled_from(["drop", "duplicate", "replace", "field"]))
            if op == "drop":
                del entries[i]
            elif op == "duplicate":
                entries.insert(draw(st.integers(0, len(entries))), entries[i])
            elif op == "replace" or not entries[i]:
                entries[i] = draw(st.sampled_from(_FUZZ_VALUES))
            elif isinstance(entries[i], list):
                entries[i] = list(entries[i])
                entries[i][draw(st.integers(0, len(entries[i]) - 1))] = draw(
                    st.sampled_from(_FUZZ_VALUES)
                )
            elif isinstance(entries[i], dict):
                record = dict(entries[i])
                field = draw(st.sampled_from(["id", "in_T", "label"]))
                if draw(st.booleans()):
                    record.pop(field, None)
                else:
                    record[field] = draw(st.sampled_from(_FUZZ_VALUES))
                entries[i] = record
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestMainFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_mutated_formula_files())
    def test_reduce_and_verify_exit_with_a_code(self, text):
        """On a mutated formula document, ``reduce`` and ``verify`` end with
        exit code 0, 1 or 2; an exception escaping ``main`` fails."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.cnf")
            with open(path, "w") as fh:
                fh.write(text)
            assert run("reduce", path, "-o", os.path.join(tmp, "f.json")) in (0, 1, 2)
            assert run("verify", path) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(_mutated_instance_files(), st.booleans())
    def test_solve_normalize_and_apex_exit_with_a_code(self, text, multi):
        """On a mutated instance document, ``solve``, ``normalize`` and
        ``apex`` (both readings) end with exit code 0, 1 or 2; an exception
        escaping ``main`` fails."""
        flags = ["--normalize-multi"] if multi else []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "i.json")
            with open(path, "w") as fh:
                fh.write(text)
            out = os.path.join(tmp, "o.json")
            assert run("solve", path, *flags) in (0, 1, 2)
            assert run("normalize", path, "-o", out, *flags) in (0, 1, 2)
            assert run("apex", path, "-o", out, *flags) in (0, 1, 2)
            assert run("apex", path, "--variant", *flags) in (0, 1, 2)


class TestDeeplyNested:
    """JSON nested past the parser's recursion limit is malformed input,
    exit 2, not a traceback, whose exit 1 would read as infeasible."""

    # 3,000 nested objects: about 15 KB
    NESTED = '{"a": ' * 3000 + "0" + "}" * 3000

    @pytest.mark.parametrize("command, output", [
        ("solve", None), ("normalize", "o.json"), ("apex", "o.json"),
        ("export-dot", "o.dot"),
    ])
    def test_instance_document(self, tmp_path, capsys, command, output):
        inst = tmp_path / "i.json"
        inst.write_text(self.NESTED)
        out = ("-o", tmp_path / output) if output else ()
        assert run(command, inst, *out) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, output", [
        ("solve", "--check-witness", None), ("export-dot", "--witness", "t.dot"),
    ])
    def test_witness_document(self, tmp_path, capsys, command, flag, output):
        inst = _instance_file(tmp_path, "t.json", [0, 1], [(0, 1)], odd=[1])
        wit = tmp_path / "w.json"
        wit.write_text("[" * 100_000 + "]" * 100_000)
        out = ("-o", tmp_path / output) if output else ()
        assert run(command, inst, flag, wit, *out) == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "oddorient.cli", "gadget", "base", "--json"],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["orientations"] == 2
