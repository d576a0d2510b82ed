"""The answer self-checks of the subdivision finders and the planted
generators raise AssertionError with their message even under ``python -O``,
which strips ``assert`` statements: each entry point runs in a subprocess
with its verifier patched to fail.  The command line, run under ``-O``,
plants, finds and verifies a witness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import dichromate.generators as generators
import dichromate.search as search
from dichromate import (PatternArc, SubdivisionPattern, UndirectedPattern,
                        UndirectedPatternEdge, VerificationReport, find_subdivision,
                        find_subdivision_undirected, gen_planted, gen_planted_undirected)

pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
upattern = UndirectedPattern(2, (UndirectedPatternEdge(0, 1, 1, 1, 1, 2),))
D = gen_planted(pattern, extra_vertices=3, extra_arcs=6, seed=1).digraph
G, _ = gen_planted_undirected(upattern, extra_vertices=3, extra_edges=6, seed=1)
print("optimize", sys.flags.optimize)
for name, module, verifier, call in [
        ("find_subdivision", search, "verify_witness", lambda: find_subdivision(D, pattern)),
        ("find_subdivision_undirected", search, "verify_witness",
         lambda: find_subdivision_undirected(G, upattern)),
        ("gen_planted", generators, "verify_witness", lambda: gen_planted(pattern, seed=1)),
        ("gen_planted_undirected", generators, "verify_undirected_witness",
         lambda: gen_planted_undirected(upattern, seed=1))]:
    saved = getattr(module, verifier)
    setattr(module, verifier, lambda *args: VerificationReport(False, "forced"))
    try:
        call()
    except AssertionError as exc:
        print(name, "raised", exc)
    else:
        print(name, "returned")
    finally:
        setattr(module, verifier, saved)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_self_checks_raise_when_the_verifier_fails(flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"optimize {len(flags)}",
        "find_subdivision raised search produced an invalid witness: forced",
        "find_subdivision_undirected raised search produced an invalid witness: forced",
        "gen_planted raised planted witness failed its self-check: forced",
        "gen_planted_undirected raised planted witness failed its self-check: forced",
    ]


def test_the_cli_plants_finds_and_verifies_under_python_o(tmp_path):
    (tmp_path / "pat.txt").write_text("pattern 1\nn 3\ne 0 1 1 1 1 3\ne 1 2 1 1 2 3\n"
                                      "e 2 0 1 1 0 3\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, out in [
            ("gen planted --pattern pat.txt --extra-vertices 4 --extra-arcs 12 --seed 3 "
             "--out inst.txt", ""),
            ("find-subdivision inst.txt pat.txt --mode direct --out w.txt", ""),
            ("verify inst.txt pat.txt w.txt", "pass\n")]:
        proc = subprocess.run([sys.executable, "-O", "-m", "dichromate.cli", *argv.split()],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (argv, proc.returncode, proc.stdout, proc.stderr) == (argv, 0, out, "")
