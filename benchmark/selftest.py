"""The benchmark's own tests.

    python3 benchmark/selftest.py

Smoke: every workload runs on tiny inputs, untraced and traced, and its
result line must match the schema and the metric names in BENCHMARK.json.
Mutation: the benchmark's checkers must reject a corrupted certificate
block, a non-simple path and a wrong residue.  Bare copy: without src/ the
benchmark must exit non-zero and print no result.  Scaling: a measured block
leaves the signal state as it found it, and its calibration chunks are not
counted in its wall time.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import dichromate as lib  # noqa: E402
from checkers import Graph, check_mu, check_witness  # noqa: E402
from speed import TICK_S, Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class Smoke(unittest.TestCase):
    def test_schema_and_metric_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = _bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
                                  "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True, proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    if name in ("mu-random", "direct"):
                        self.assertIn("were not checked", proc.stdout)

    def test_bare_copy_fails(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = _bench(bare, "--workload", "mu-random", "--seed", "1", "--seconds", "1",
                          "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class Mutations(unittest.TestCase):
    def test_corrupted_certificate_block(self):
        inst = lib.gen_random(10, .5, .5, .5, seed=3)
        g = Graph.from_text(lib.emit_instance(inst))
        res = lib.mu_exact(inst.digraph)
        blocks = [set(b) for b in res.certificate.blocks]
        self.assertGreater(res.value, 1)
        self.assertIsNone(check_mu(g, res.value, blocks))
        merged = set().union(*blocks)
        self.assertIn("unbalanced", check_mu(g, 1, [merged]))
        # Move a vertex between blocks until one block turns unbalanced.
        rejected = False
        for i, src in enumerate(blocks):
            for v in sorted(src):
                for j in range(len(blocks)):
                    if j == i or len(src) == 1:
                        continue
                    moved = [set(b) for b in blocks]
                    moved[i].discard(v)
                    moved[j].add(v)
                    rejected |= check_mu(g, res.value, moved) is not None
        self.assertTrue(rejected)
        self.assertIn("blocks for value", check_mu(g, res.value + 1, blocks))

    def _found(self):
        arcs = ((0, 1, 1, 1, 1, 3), (1, 2, 1, 1, 0, 2), (2, 0, 1, 1, 1, 2))
        pattern = lib.SubdivisionPattern(3, tuple(lib.PatternArc(*a) for a in arcs))
        inst = lib.gen_planted(pattern, extra_vertices=3, extra_arcs=8, seed=2)
        out = lib.find_subdivision(inst.digraph, pattern)
        self.assertEqual(out.status, lib.FOUND)
        g = Graph.from_text(lib.emit_instance(inst))
        paths = {k: p.vertices for k, p in out.witness.paths.items()}
        self.assertIsNone(check_witness(g, arcs, out.witness.branch, paths))
        return g, arcs, out.witness.branch, paths

    def test_non_simple_path(self):
        g, arcs, branch, paths = self._found()
        key = next(k for k, seq in paths.items() if len(seq) >= 3)
        seq = paths[key]
        paths[key] = seq[:2] + seq[:2] + seq[2:]   # walk back and forth once
        self.assertIn("not a simple path", check_witness(g, arcs, branch, paths))

    def test_wrong_residue(self):
        g, arcs, branch, paths = self._found()
        t, h, a, b, r, q = arcs[0]
        wrong = ((t, h, a, b, (r + 1) % q, q),) + arcs[1:]
        self.assertIn("residue", check_witness(g, wrong, branch, paths))


class Scaling(unittest.TestCase):
    def test_measure_restores_signals_and_leaves_chunks_out(self):
        handler = signal.getsignal(signal.SIGALRM)
        busy = 10 * TICK_S
        with self.assertRaises(ZeroDivisionError):
            with Clock().measure() as m:
                end = time.perf_counter() + busy
                while time.perf_counter() < end:
                    pass
                1 / 0
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(m.wall, busy / 2)
        self.assertLess(m.wall, busy)   # the ticks' chunks ran inside and were taken out
        self.assertGreater(m.scaled, 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
