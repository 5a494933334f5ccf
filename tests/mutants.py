"""Committed mutants of the exact search, each killed by a verdict test.

A mutant is one text replacement in ``src/oddorient/search.py``, made in a
copy of ``src/``.  The script refuses a pattern that does not occur exactly
once.  It runs each mutant's test against the copy, first unmutated, where
the test must pass, then mutated, where it must fail (pytest exit 1).  The
test checks statuses against an oracle, not pins or counts, so a search
change that gives wrong answers fails it even where its pins are derived
again.

    python tests/mutants.py

Exit 0 when every mutant is killed, 1 otherwise.  Standard library only,
apart from the pytest it runs.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("oddorient", "search.py")

# (name, pattern, replacement, the test that must fail on the mutant)
MUTANTS = [
    # nogood_pass drops the levels that a nogood's true literals rest on, so
    # its conflicts and forcings backjump past decisions they need
    (
        "nogood_pass mask",
        "mask |= dep[lit >> 1]",
        "mask |= 0",
        "tests/test_solver_exact.py::test_verdicts_match_sat_oracle",
    ),
    # links_dep rests on no level, so a parity dead end ends the search as
    # if no decision caused it, and probe reasons lose their ring's links
    (
        "links_dep",
        "        return mask\n\n    def path_dep",
        "        return 0\n\n    def path_dep",
        "tests/test_solver_exact.py::test_verdicts_match_sat_oracle",
    ),
    # path_dep drops the decided arcs of the path, so cycle forcings and
    # cycle conflicts rest on too few levels
    (
        "path_dep masks",
        "                if p in ends[f]:\n                    mask |= dep[f]",
        "                if p in ends[f]:\n                    mask |= 0",
        "tests/test_acceptance.py::TestCriterion5::test_end_to_end_equivalence",
    ),
    # a frame drops the lower levels its failed branches rest on, so once
    # both have failed the conflict it passes on rests on none and ends the
    # search
    (
        "failed-branch set",
        "frame[4] |= conflict ^ (1 << level)",
        "frame[4] |= 0",
        "tests/test_solver_exact.py::test_verdicts_match_sat_oracle",
    ),
    # parity forcing rests on no level, so a conflict on an arc it forced
    # misses the decisions behind it and backjumps past them
    (
        "parity forcing mask",
        "if not self.apply_arc(e, t, h, mask):",
        "if not self.apply_arc(e, t, h, 0):",
        "tests/test_acceptance.py::TestCriterion5::test_end_to_end_equivalence",
    ),
    # ring_dep leaves out the paths between ring vertices, so a probe
    # forcing rests only on the links at the ring, not on the decisions
    # that let one ring vertex reach another
    (
        "ring_dep paths",
        "rest = (desc[x] & bits) ^ (1 << x)",
        "rest = 0",
        "tests/test_solver_exact.py::test_ring_chain_verdicts_match_enumerate",
    ),
    # a nogood's conflict rests on no level, so it ends the search as if the
    # decisions under its literals had not caused it
    (
        "nogood_pass conflict mask",
        "                    if free < 0:\n                        self.conflict = mask",
        "                    if free < 0:\n                        self.conflict = 0",
        "tests/test_solver_exact.py::test_dense_verdicts_match_enumerate",
    ),
    # an arc a nogood forces rests on no level, so a conflict on it
    # backjumps past the decisions under the nogood's other literals
    (
        "nogood_pass forcing mask",
        "self.apply_arc(e, t, h, mask) and self.propagate()",
        "self.apply_arc(e, t, h, 0) and self.propagate()",
        "tests/test_solver_exact.py::test_verdicts_match_sat_oracle",
    ),
    # learn stores the opposite of each decision, a nogood that does not
    # follow from the constraints, so it forces arcs no solution needs
    (
        "learn opposite literal",
        "lits.append(2 * e + (t < h))",
        "lits.append(2 * e + (t > h))",
        "tests/test_acceptance.py::TestCriterion6::test_three_way_agreement_on_500",
    ),
    # undo_to leaves linked the rings found since the mark, so the ring
    # state goes stale and decide raises on a vertex whose ring is gone
    (
        "undo_to keeps new rings",
        "for x in (t, h):",
        "for x in ():",
        "tests/test_solver.py::TestApexTransform::test_two_sided_equivalence_sample",
    ),
]


def run_test(src: Path, test: str) -> int:
    """pytest's exit code for ``test`` with the package imported from
    ``src``; raise unless that is where it comes from."""
    env = dict(os.environ, PYTHONPATH=str(src))
    where = subprocess.run(
        [sys.executable, "-c", "import oddorient.search as m; print(m.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(where) != src / TARGET:
        raise RuntimeError(f"the copy is not imported: oddorient.search is {where}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    survived = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(
            ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
        )
        path = src / TARGET
        original = path.read_text()
        for name, pattern, replacement, test in MUTANTS:
            found = original.count(pattern)
            if found != 1:
                raise SystemExit(f"{name}: {pattern!r} occurs {found} times in {TARGET}")
            path.write_text(original)
            status = run_test(src, test)
            if status != 0:
                raise SystemExit(f"{name}: {test} exits {status} on the unmutated copy")
            path.write_text(original.replace(pattern, replacement))
            start = time.perf_counter()
            status = run_test(src, test)
            seconds = time.perf_counter() - start
            verdict = "killed" if status == 1 else f"survived (pytest exit {status})"
            print(f"{name}: {verdict} by {test} in {seconds:.1f} s")
            if status != 1:
                survived.append(name)
    print(f"{len(MUTANTS) - len(survived)}/{len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
