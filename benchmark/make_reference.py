"""Rebuild benchmark/reference.json from the library as it stands.

    python3 benchmark/make_reference.py [--retime]

The reference holds the instance pools that the mu-random and direct
workloads draw their batches from, each instance with the answer the library
gave when the reference was made (mu value, FOUND/ABSENT status), its search
effort (nodes, expansions) and its best-of-three solve time, scaled to a
steady machine speed (speed.py), by which the pool is sorted.  It also holds
each workload's output digest for the default seeds.  Run it only on code
whose answers are trusted: every benchmark run compares against these
values.  It takes about 15 minutes on a 2-core box.

With ``--retime`` the pools keep their members and answers; only their
solve times, their order and the digests are made again (about 8 minutes).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import run
from speed import Clock
from workloads import K4_TRANSITIVE, WORKLOADS

MU_POOL = {"n": 22, "size": 192}
DIRECT_KINDS = {
    # name: host size, arc probability, hosts kept, expansion cap
    "dense": {"n": 14, "p": 0.25, "hosts": 64, "cap": 12000},
    "sparse": {"n": 12, "p": 0.18, "hosts": 64, "cap": 4000},
}
SCREEN_SECONDS = 6        # a host slower than this is left out of the pool
TIMING_REPEATS = 3        # pool members are ordered by their best of this many solves
CLOCK = Clock()
DEFAULT_SEEDS = range(0, 11)


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow


def _best_of(repeats: int, fn, *args, **kwargs) -> float:
    """Fastest scaled time of ``repeats`` calls: the pool order should
    reflect each instance's cost, not the machine's mood."""
    times = []
    for _ in range(repeats):
        with CLOCK.measure() as m:
            fn(*args, **kwargs)
        times.append(m.scaled)
    return round(min(times), 4)


def _pattern(lib):
    return lib.SubdivisionPattern(4, tuple(lib.PatternArc(*a) for a in K4_TRANSITIVE))


def mu_pool(lib) -> dict:
    rows = []
    for s in range(MU_POOL["size"]):
        D = lib.gen_random(MU_POOL["n"], .5, .5, .5, seed=s).digraph
        res = lib.mu_exact(D)
        nodes = sum(nodes for t in res.lower_bound_trace for _k, nodes in t.attempts)
        rows.append([s, res.value, nodes, _best_of(TIMING_REPEATS, lib.mu_exact, D)])
    rows.sort(key=lambda r: (r[3], r[0]))
    return {"n": MU_POOL["n"], "pool": rows}


def direct_pools(lib) -> dict:
    """Screen seeds in order.  A host is kept when its search ends FOUND or
    ABSENT within the expansion cap and SCREEN_SECONDS; the rest are
    counted as left out, so one instance cannot outlast a run."""
    pattern = _pattern(lib)
    signal.signal(signal.SIGALRM, _alarm)
    pools = {}
    for name, kind in DIRECT_KINDS.items():
        rows, left_out, s = [], 0, 0
        while len(rows) < kind["hosts"]:
            D = lib.gen_random(kind["n"], kind["p"], .5, .5, seed=s).digraph
            signal.alarm(SCREEN_SECONDS)
            try:
                out = lib.find_subdivision(D, pattern, budget=kind["cap"])
            except _Slow:
                out = None
            finally:
                signal.alarm(0)
            if out is not None and out.status in ("found", "absent"):
                best = _best_of(TIMING_REPEATS, lib.find_subdivision, D, pattern,
                                budget=kind["cap"])
                rows.append([s, out.status, out.expansions, best])
            else:
                left_out += 1
            s += 1
        rows.sort(key=lambda r: (r[3], r[0]))
        pools[name] = {"n": kind["n"], "p": kind["p"], "cap": kind["cap"],
                       "screen_seconds": SCREEN_SECONDS, "screened": s,
                       "left_out": left_out, "hosts": rows}
        print(f"direct {name}: kept {len(rows)} of {s} hosts", file=sys.stderr)
    return pools


def retime(lib, reference: dict) -> dict:
    """Times the existing pools again and re-sorts them; members and answers
    stay, and every answer must come out the same."""
    for row in reference["mu-random"]["pool"]:
        D = lib.gen_random(reference["mu-random"]["n"], .5, .5, .5, seed=row[0]).digraph
        if lib.mu_exact(D).value != row[1]:
            raise SystemExit(f"mu-random host {row[0]}: mu differs from the reference")
        row[3] = _best_of(TIMING_REPEATS, lib.mu_exact, D)
    reference["mu-random"]["pool"].sort(key=lambda r: (r[3], r[0]))
    pattern = _pattern(lib)
    for name, kind in reference["direct"].items():
        for row in kind["hosts"]:
            D = lib.gen_random(kind["n"], kind["p"], .5, .5, seed=row[0]).digraph
            if lib.find_subdivision(D, pattern, budget=kind["cap"]).status != row[1]:
                raise SystemExit(f"direct {name} host {row[0]}: status differs from the reference")
            row[3] = _best_of(TIMING_REPEATS, lib.find_subdivision, D, pattern, budget=kind["cap"])
        kind["hosts"].sort(key=lambda r: (r[3], r[0]))
    return reference


def digests() -> dict:
    out = {}
    for name, workload in WORKLOADS.items():
        out[name] = {}
        for seed in DEFAULT_SEEDS:
            lib, items, parsed, _ = run.prepare(workload, seed, False, CLOCK)
            graphs = [run.Graph.from_text(item.text) for item in items]
            loop = run.Loop(workload, lib, items, parsed, graphs, CLOCK)
            loop.run(1, float("inf"))
            if loop.failures:
                raise SystemExit(f"{name} seed {seed}: {loop.failures[0]}")
            out[name][str(seed)] = run.digest_of(items, loop.digests)
            print(f"{name} seed {seed}: {sum(loop.samples):.2f} s", file=sys.stderr)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--retime", action="store_true",
                    help="keep the pools' members and answers; time and sort them again")
    args = ap.parse_args()
    t0 = time.perf_counter()
    lib = run.import_library()
    if args.retime:
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = retime(lib, json.load(fh))
    else:
        reference = {"mu-random": mu_pool(lib), "direct": direct_pools(lib), "digests": {}}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)   # the digest runs below draw from these pools
    reference["digests"] = digests()
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"reference written in {time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
