"""Command-line surface.

Subcommands: mu, check-balanced, find-cycles, find-subdivision, verify, gen.
Exit codes: 0 success/pass, 1 negative result (fail / none found),
2 usage error or malformed input, 3 budget-indeterminate.  An exit 2 writes
one stderr line, ``<prefix>: <message>``, whose prefix names the fault:
``parse error``, ``oracle unavailable``, ``precondition violated``, or
``error`` for any other OSError or ValueError, such as an option of the
find-subdivision mode not run.  All file output is written
atomically; everything is deterministic given the input files, flags, and
seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .balance import disjoint_unbalanced_cycles
from .constructive import CORE_FLOOR, extract_subdivision
from .digraph import DirectedPath, LabeledDigraph, _check_count
from .errors import (ConstructionFailed, MuBoundExceeded, OracleUnavailable,
                     ParseError, PreconditionViolation)
from .formats import (Instance, emit_instance, emit_witness, instance_to_dot,
                      parse_instance, parse_pattern, parse_witness,
                      write_text_atomic)
from .generators import (BIORIENTED_CLIQUE, gen_bioriented_clique, gen_planted,
                         gen_random)
from .mu import VertexPartition, mu_exact, mu_greedy_upper
from .oracles import BiorientedCliqueOracle, ExactMuOracle, HintMuOracle, MuOracle
from .search import ABSENT, INDETERMINATE, SearchOutcome, find_subdivision
from .subdivision import SubdivisionPattern, SubdivisionWitness, verify_witness

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

# Each find-subdivision mode's own options, with the defaults it applies;
# the parser leaves them None, so one given in the other mode is seen.
_MODE_OPTIONS = {"direct": {"budget": 10 ** 7, "seed": None},
                 "constructive": {"oracle": "auto", "floor": CORE_FLOOR, "start": None}}

# The stderr prefix of each fault that exits 2; the first match wins, so
# the library's ValueError subclasses stand ahead of ValueError.
_USAGE_FAULTS = ((ParseError, "parse error"), (OracleUnavailable, "oracle unavailable"),
                 (PreconditionViolation, "precondition violated"), ((OSError, ValueError), "error"))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _emit_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(out, text)


def _make_oracle(kind: str, instance: Instance) -> MuOracle:
    if kind == "exact":
        return ExactMuOracle(instance.digraph)
    if kind == "analytic":
        if instance.family != BIORIENTED_CLIQUE:
            raise ValueError("--oracle analytic requires a bioriented_clique family tag")
        return BiorientedCliqueOracle(instance.digraph)
    if kind.startswith("hints:"):
        try:
            with open(kind.split(":", 1)[1], encoding="utf-8") as fh:
                # an object reads as its (key, value) pairs, so a repeated key is seen
                pairs = json.load(fh, object_pairs_hook=tuple)
            if not isinstance(pairs, tuple):
                raise TypeError
            for _, value in pairs:
                _check_count(value, "hint")
        except (TypeError, RecursionError):  # RecursionError: JSON nested too deep to read
            raise ValueError("a hints file must hold a JSON object with integer values") from None
        table, keys = {}, {}
        for key, value in pairs:
            subset = frozenset(int(t) for t in key.split(",") if t)
            unknown = sorted(v for v in subset if not instance.digraph.has_vertex(v))
            if unknown:
                raise ValueError(f"hints key {key!r} names vertices not in the instance: {unknown}")
            lo, hi = min(1, len(subset)), len(subset)
            if not lo <= value <= hi:
                raise ValueError(f"hint {value} for key {key!r} lies outside [{lo}, {hi}], "
                                 f"the range of mu on {hi} vertices")
            if subset in keys:
                raise ValueError(f"hints keys {keys[subset]!r} and {key!r} name one vertex set")
            table[subset], keys[subset] = value, key
        return HintMuOracle(table)
    raise ValueError(f"unknown oracle {kind!r} (use exact, analytic, or hints:FILE)")


def _cmd_mu(args) -> int:
    if args.limit is not None:
        _check_count(args.limit, "--limit", 0)
    instance = _load_instance(args.instance)
    D = instance.digraph
    if args.oracle == "exact":
        provenance = "exact"
        try:
            result = mu_exact(D, limit=args.limit)
        except MuBoundExceeded as exc:
            lower, upper, cert = exc.lower_bound, mu_greedy_upper(D).num_blocks, None
        else:
            lower = upper = result.value
            cert = result.certificate
    else:
        oracle = _make_oracle(args.oracle, instance)
        lower = upper = oracle.mu(D.vertices)
        cert = (VertexPartition.from_blocks([v] for v in D.vertices)
                if args.oracle == "analytic" and D.n else None)
        provenance = oracle.name
    if args.limit is not None and lower > args.limit:
        print(f"mu > {args.limit}")
        print(f"bounds {lower} {upper}")
        print(f"oracle {provenance}")
        return EXIT_INDETERMINATE
    print(f"mu {lower}")
    print(f"oracle {provenance}")
    if cert is not None:
        for i, block in enumerate(cert.blocks):
            print(f"block {i} " + " ".join(str(v) for v in sorted(block)))
    return EXIT_OK


def _cmd_check_balanced(args) -> int:
    instance = _load_instance(args.instance)
    cycles = disjoint_unbalanced_cycles(instance.digraph, 1, host=args.subset).cycles
    if not cycles:
        print("balanced")
        return EXIT_OK
    print("unbalanced")
    print("cycle " + " ".join(str(v) for v in cycles[0].vertices))
    print(f"weight {cycles[0].weight}")
    return EXIT_NEGATIVE


def _cmd_find_cycles(args) -> int:
    _check_count(args.count, "--count", 1)
    instance = _load_instance(args.instance)
    packing = disjoint_unbalanced_cycles(instance.digraph, args.count)
    print(f"found {len(packing.cycles)} of {packing.requested}")
    for cycle in packing.cycles:
        print("cycle " + " ".join(str(v) for v in cycle.vertices))
    return EXIT_OK if packing.complete else EXIT_NEGATIVE


def _direct_search(D: LabeledDigraph, pattern: SubdivisionPattern, budget: int,
                   seed: int | None) -> SearchOutcome:
    """``find_subdivision`` on D or, given a seed, on D relabelled by the
    seeded permutation of its vertices; a witness comes back in D's ids."""
    if seed is None:
        return find_subdivision(D, pattern, budget=budget)
    perm = list(D.vertices)
    random.Random(seed).shuffle(perm)
    fwd, back = dict(zip(D.vertices, perm)), dict(zip(perm, D.vertices))

    def moved(pairs):
        return [(fwd[u], fwd[v]) for u, v in pairs]

    outcome = find_subdivision(LabeledDigraph(perm, moved(D.arcs), moved(D.z1), moved(D.z2)),
                               pattern, budget=budget)
    if outcome.witness is None:
        return outcome
    witness = SubdivisionWitness(
        (back[v] for v in outcome.witness.branch),
        {key: DirectedPath(back[v] for v in p.vertices)
         for key, p in outcome.witness.paths.items()})
    return SearchOutcome(outcome.status, witness, outcome.expansions)


def _cmd_find_subdivision(args) -> int:
    for mode, defaults in _MODE_OPTIONS.items():
        for name, default in defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif args.mode != mode:
                raise ValueError(f"--{name} applies to --mode {mode} only")
    instance = _load_instance(args.instance)
    pattern = parse_pattern(_read(args.pattern))
    D = instance.digraph
    if args.mode == "direct":
        outcome = _direct_search(D, pattern, args.budget, args.seed)
        if outcome.status == INDETERMINATE:
            print(f"indeterminate after {outcome.expansions} expansions", file=sys.stderr)
            return EXIT_INDETERMINATE
        if outcome.status == ABSENT:
            print("none", file=sys.stderr)
            return EXIT_NEGATIVE
        witness = outcome.witness
    else:
        choice = args.oracle
        if choice == "auto":
            choice = "analytic" if instance.family == BIORIENTED_CLIQUE else "exact"
        oracle = _make_oracle(choice, instance)
        try:
            witness = extract_subdivision(D, pattern, oracle, floor=args.floor,
                                          start=args.start)
        except ConstructionFailed as exc:
            print(f"construction failed at {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
    report = verify_witness(D, pattern, witness)
    if not report.ok:
        print(f"internal error: witness failed verification ({report.failure})",
              file=sys.stderr)
        return EXIT_NEGATIVE
    _emit_output(emit_witness(witness), args.out)
    if args.dot:
        write_text_atomic(args.dot, instance_to_dot(instance, witness=witness))
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    pattern = parse_pattern(_read(args.pattern))
    witness = parse_witness(_read(args.witness))
    report = verify_witness(instance.digraph, pattern, witness)
    if args.dot:
        write_text_atomic(args.dot, instance_to_dot(instance, witness=witness))
    if report.ok:
        print("pass")
        return EXIT_OK
    print(f"fail {report.failure}: {report.detail}")
    return EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    if args.kind == "clique":
        instance = gen_bioriented_clique(args.n)
    elif args.kind == "random":
        instance = gen_random(args.n, args.arc_p, args.z1_p, args.z2_p, seed=args.seed)
    else:
        pattern = parse_pattern(_read(args.pattern))
        instance = gen_planted(pattern, extra_vertices=args.extra_vertices,
                               extra_arcs=args.extra_arcs, z1_probability=args.z1_p,
                               z2_probability=args.z2_p, seed=args.seed)
    _emit_output(emit_instance(instance), args.out)
    if args.dot:
        write_text_atomic(args.dot, instance_to_dot(instance))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dichromate",
        description="Unbalanced dichromatic numbers and congruence-constrained "
                    "subdivisions in arc-labeled digraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu", help="exact mu with certificate partition")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=None,
                   help="abandon once the answer is provably above this")
    p.add_argument("--oracle", default="exact",
                   help="exact (default), analytic, or hints:FILE")
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("check-balanced", help="unbalanced-cycle decision with witness")
    p.add_argument("instance")
    p.add_argument("--subset", type=int, nargs="+", default=None,
                   help="restrict to the induced subdigraph on these vertices")
    p.set_defaults(func=_cmd_check_balanced)

    p = sub.add_parser("find-cycles", help="greedy disjoint unbalanced cycle packing")
    p.add_argument("instance")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_find_cycles)

    p = sub.add_parser("find-subdivision",
                       help="search or construct a congruence-constrained subdivision")
    p.add_argument("instance")
    p.add_argument("pattern")
    p.add_argument("--mode", choices=("direct", "constructive"), default="direct")
    p.add_argument("--budget", type=int, default=None,
                   help="direct mode only: node-expansion budget (default 10**7); an "
                        "exhausted budget exits with code 3")
    p.add_argument("--seed", type=int, default=None,
                   help="direct mode only: search under a seeded vertex relabeling")
    p.add_argument("--oracle", default=None,
                   help="constructive mode only: auto (default), exact, analytic, "
                        "or hints:FILE")
    p.add_argument("--floor", type=int, default=None,
                   help=f"constructive mode only: mu floor for the core-shrinking stage "
                        f"(default {CORE_FLOOR})")
    p.add_argument("--start", type=int, default=None,
                   help="constructive mode only: override the entry-leveling start vertex "
                        "(must be a vertex of the instance; one outside the strong "
                        "component of largest oracle mu, unknown values last and ties "
                        "to the smallest vertex, falls back to the default)")
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_find_subdivision)

    p = sub.add_parser("verify", help="check a witness file against instance and pattern")
    p.add_argument("instance")
    p.add_argument("pattern")
    p.add_argument("witness")
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a generated instance")
    gensub = p.add_subparsers(dest="kind", required=True)
    g = gensub.add_parser("clique", help="fully z1-labeled bioriented clique")
    g.add_argument("--n", type=int, required=True)
    g = gensub.add_parser("random", help="independent-arc random digraph")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--arc-p", type=float, default=0.3)
    g.add_argument("--z1-p", type=float, default=0.5)
    g.add_argument("--z2-p", type=float, default=0.3)
    g.add_argument("--seed", type=int, default=0)
    g = gensub.add_parser("planted", help="instance with a planted subdivision")
    g.add_argument("--pattern", required=True)
    g.add_argument("--extra-vertices", type=int, default=0)
    g.add_argument("--extra-arcs", type=int, default=0)
    g.add_argument("--z1-p", type=float, default=0.3)
    g.add_argument("--z2-p", type=float, default=0.3)
    g.add_argument("--seed", type=int, default=0)
    for kind_parser in gensub.choices.values():
        kind_parser.add_argument("--out", default=None)
        kind_parser.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, OracleUnavailable) as exc:
        prefix = next(p for kinds, p in _USAGE_FAULTS if isinstance(exc, kinds))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
