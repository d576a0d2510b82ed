"""Seeded benchmark for the dichromate library.

    python3 benchmark/run.py --workload mu-random --seed 1 --seconds 12 --trace 0

Runs one workload as a single-process, single-thread closed loop: solve one
instance through the library's public calls, check it, then start the next.
The seed draws a batch of instances; the batch is solved in whole passes,
``round(seconds / nominal pass time)`` of them, so every run of a seed does
the same work.  Times are scaled to a steady machine speed (speed.py), the
nominal pass times too, so on a slow host a run takes longer than
``seconds`` but does the same passes.  Every output is checked by the
benchmark's own checkers and against the seed code's reference values.  The
last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See benchmark/README.md.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

from checkers import Graph  # noqa: E402
from speed import Clock  # noqa: E402
from tracing import SETUP, SOLVE, Spans, Summary, install, uninstall  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
TIME_GUARD_S = 150.0   # no pass may be expected to end later than this into the run
TAIL_BEYOND = 10


class LibraryMissing(Exception):
    pass


def import_library():
    """Fresh import of the package from src/ (dropping any earlier import)."""
    init = SRC / "dichromate" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"library source not found at {init}")
    for name in [n for n in sys.modules if n == "dichromate" or n.startswith("dichromate.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("dichromate")
    if Path(lib.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"imported {lib.__file__}, expected {init}")
    return lib


def prepare(workload, seed: int, smoke: bool, clock: Clock,
            spans: Spans | None = None, lib=None):
    """One full set-up: import, generation, instance and pattern text emit
    and parse, reference load.  Returns (lib, items, parsed, measurement).
    With ``lib`` given the import is skipped (the traced set-up)."""
    with clock.measure() as m:
        root = spans.open(spans.name_id(SETUP)) if spans else None
        if lib is None:
            lib = import_library()
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        items = workload.build(lib, seed, reference, smoke)
        parsed = [parse(lib, item) for item in items]
        if spans:
            spans.close(root)
    return lib, items, parsed, m


def parse(lib, item):
    pattern = lib.parse_pattern(item.pattern) if item.pattern else None
    return lib.parse_instance(item.text).digraph, pattern


class Loop:
    """Runs whole passes over a batch and keeps samples, failures and the
    first pass's output digests.  ``samples`` are scaled solve times (see
    speed.py), ``walls`` the same solves' wall times."""

    def __init__(self, workload, lib, items, parsed, graphs, clock: Clock):
        self.workload, self.lib, self.items = workload, lib, items
        self.fresh = list(parsed)   # consumed by the first pass
        self.graphs = graphs
        self.clock = clock
        self.samples: list[float] = []
        self.walls: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.digests: list[str | None] = [None] * len(items)
        self.statuses: dict[int, str] = {}

    def run(self, passes: int, deadline: float, spans: Spans | None = None) -> int:
        done, last = 0, 0.0
        while done < passes and time.perf_counter() + last < deadline:
            t0 = time.perf_counter()
            for idx in range(len(self.items)):
                self.solve_one(idx, spans)
            last = time.perf_counter() - t0
            done += 1
        return done

    def solve_one(self, idx: int, spans: Spans | None) -> None:
        item = self.items[idx]
        D, pattern = self.fresh[idx] if self.fresh[idx] else parse(self.lib, item)
        self.fresh[idx] = None
        sample = len(self.samples)
        root = None
        if spans:
            spans.instance = sample
        error = None
        with self.clock.measure() as m:
            if spans:
                root = spans.open(spans.name_id(SOLVE))
            try:
                result = self.workload.solve(self.lib, D, pattern, item)
            except Exception as exc:  # a failed instance is recorded, the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            if spans:
                spans.close(root)
        self.samples.append(m.scaled)
        self.walls.append(m.wall)
        if error is None:
            reason, digest = self.workload.check(self.graphs[idx], item, result)
            if self.workload.search_status:
                status, kept = self.workload.search_status(result)
                self.statuses[sample] = status
                if spans:
                    spans.counters[(sample, "search.residue_paths.kept")] += kept
        else:
            reason, digest = error, "error"
        if self.digests[idx] is None:
            self.digests[idx] = digest
        elif reason is None and digest != self.digests[idx]:
            reason = "output differs from the first pass"
        if reason is not None:
            self.failures.append((item.label, reason))

    def instances_per_s(self, times=None) -> float:
        return (len(self.samples) - len(self.failures)) / sum(times or self.samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile, samples beyond); with too few samples, the maximum."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


def digest_of(items, digests) -> str:
    h = hashlib.sha256()
    for item, d in zip(items, digests):
        h.update(f"{item.label}\t{d}\n".encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs without reference values, one pass")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + TIME_GUARD_S
    workload = WORKLOADS[args.workload]
    clock = Clock()

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            lib, items, parsed, m = prepare(workload, args.seed, args.smoke, clock)
            setups.append(m)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graphs = [Graph.from_text(item.text) for item in items]
    passes = 1 if args.smoke else max(1, round(args.seconds / workload.nominal_pass_s))
    loop = Loop(workload, lib, items, parsed, graphs, clock)
    done = loop.run(passes, deadline)
    samples = loop.samples
    ips = loop.instances_per_s()
    tail_s, tail_pct, beyond = tail(samples)
    ref_digest = None
    if not args.smoke:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref_digest = json.load(fh)["digests"].get(args.workload, {}).get(str(args.seed))
    digest = digest_of(items, loop.digests)
    end_to_end = {
        "instances_per_s": (ips, "1/s"),
        "solve_p50_s": (statistics.median(samples), "s"),
        "solve_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(m.scaled for m in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    n = len(samples)
    print(f"workload {args.workload} seed {args.seed} instances {len(items)} "
          f"passes {done} of {passes} samples {n}")
    print("times are scaled to a steady machine speed (speed.py); wall times in brackets")
    print(f"instances_per_s {ips:.6g} 1/s (checked instances per second of solve time) "
          f"[{loop.instances_per_s(loop.walls):.6g}]")
    print(f"solve_p50_s {end_to_end['solve_p50_s'][0]:.6g} s (median of {n} samples) "
          f"[{statistics.median(loop.walls):.6g}]")
    print(f"solve_tail_s {tail_s:.6g} s (p{tail_pct:.1f} of {n} samples, {beyond} beyond) "
          f"[{tail(loop.walls)[0]:.6g}]")
    print(f"failed_frac {len(loop.failures) / n:.6g} ratio ({len(loop.failures)} of {n})")
    print(f"setup_s {end_to_end['setup_s'][0]:.6g} s (median of {SETUP_REPEATS} set-ups) "
          f"[{statistics.median(m.wall for m in setups):.6g}]")
    print(f"peak_rss_mb {end_to_end['peak_rss_mb'][0]:.6g} MB")
    unreferenced = sum(1 for item in items if item.expected is None)
    if unreferenced:
        print(f"note: {unreferenced} of {len(items)} instances have no reference: "
              "their lower bound (mu) and ABSENT answers were not checked")
    if ref_digest is None:
        print(f"digest {digest} (no reference digest for this seed)")
    elif ref_digest == digest:
        print(f"digest {digest} (matches the reference)")
    else:
        print(f"digest {digest} (differs from the reference {ref_digest}; not a failure)")

    attempted, failures = n, list(loop.failures)
    if args.trace:
        metrics, extra = traced_phase(workload, lib, args, passes, loop, deadline)
        attempted += extra[0]
        failures += extra[1]
    else:
        metrics = end_to_end
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_phase(workload, lib, args, passes, untraced: Loop, deadline):
    """Same passes again with wrappers installed; returns the per-layer
    metrics and (attempted, failures) of the traced passes.  The traced
    outputs must equal the untraced ones."""
    spans = Spans()
    clock = Clock(ticks=False)  # chunks only around each solve, outside its span
    undo = install(lib, spans)
    try:
        lib, items, parsed, _ = prepare(workload, args.seed, args.smoke, clock,
                                        spans=spans, lib=lib)
        graphs = [Graph.from_text(item.text) for item in items]
        loop = Loop(workload, lib, items, parsed, graphs, clock)
        done = loop.run(passes, deadline, spans=spans)
    finally:
        uninstall(undo)
    ips, untraced_ips = loop.instances_per_s(), untraced.instances_per_s()
    if loop.digests != untraced.digests:
        loop.failures.append(("traced run", "output differs from the untraced passes"))
    ratio = ips / untraced_ips if untraced_ips else 0.0
    summary = Summary(spans, loop.statuses)
    metrics = summary.metrics(ratio)
    print(f"traced passes {done} of {passes}; instances_per_s {ips:.6g} 1/s traced "
          f"against {untraced_ips:.6g} untraced (ratio {ratio:.4f})")
    for line in summary.report_lines():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    spans.write(f"{stem}.spans.gz")
    with open(f"{stem}.layers.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary.report_lines()) + "\n")
    print(f"spans written to {os.path.relpath(stem, ROOT)}.spans.gz "
          f"({summary.spans} spans)")
    return metrics, (len(loop.samples), loop.failures)


if __name__ == "__main__":
    sys.exit(main())
