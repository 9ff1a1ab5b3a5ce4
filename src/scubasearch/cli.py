"""Command-line front end: landscape generation, single runs, sweeps,
neutral-degree grids and path-graph export.

Exit codes: 0 success, 1 usage error (bad flag or parameter range, named in
the diagnostic), 2 runtime or I/O error. All randomness flows from --seed;
without it a seed is drawn from system entropy and printed to stderr so the
invocation can be replayed. Identical argv plus seed produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments as ex
from . import heuristics as hx
from . import pathgraph as pg
from .landscape import (
    MODES,
    RANDOM,
    LandscapeError,
    LandscapeFormatError,
    check_params,
    generate,
    load_landscape,
    save_landscape,
)

USAGE_EXIT = 1
RUNTIME_EXIT = 2

_LANDSCAPE_FORMAT_HELP = (
    "Landscape files are plain text: a header of 'key value' lines "
    "(format, n, k, q, mode, seed) followed by one line per locus holding "
    "the locus index, its k link loci, then its 2**(k+1) table entries."
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _check_params(n: int, k_values, q_values, mode) -> None:
    """Check every (k, q) pair before a seed is drawn or anything is written."""
    for k in k_values:
        for q in q_values:
            check_params(n, k, q, mode)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        return args.seed
    seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    print(f"seed {seed} (drawn from system entropy; pass --seed {seed} to replay)",
          file=sys.stderr)
    return seed


def _add_landscape_params(parser, lists: bool):
    kind = _int_list if lists else int
    plural = " (comma-separated list)" if lists else ""
    parser.add_argument("--n", type=int, required=True, help="number of loci")
    parser.add_argument("--k", type=kind, required=True,
                        help=f"epistatic degree, 0 <= k <= n-1{plural}")
    parser.add_argument("--q", type=kind, required=True,
                        help=f"neutrality parameter, q >= 2{plural}")
    parser.add_argument("--mode", choices=MODES, default=RANDOM,
                        help="epistatic link layout (default: random)")


def _add_landscape_source(parser):
    """--n/--k/--q/--mode to generate a landscape, or --landscape to load one."""
    parser.add_argument("--n", type=int, help="number of loci (when generating)")
    parser.add_argument("--k", type=int, help="epistatic degree (when generating)")
    parser.add_argument("--q", type=int, help="neutrality parameter (when generating)")
    parser.add_argument("--mode", choices=MODES, default=RANDOM,
                        help="epistatic link layout (default: random)")
    parser.add_argument("--landscape", default=None,
                        help="landscape file to load instead of generating")


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed; drawn from system entropy and printed if omitted")


def _cmd_gen(args) -> int:
    _check_params(args.n, [args.k], [args.q], args.mode)
    seed = _resolve_seed(args)
    landscape = generate(args.n, args.k, args.q, args.mode, seed=seed)
    save_landscape(landscape, args.out)
    return 0


def _load_or_generate(args, seed_of):
    """The landscape of ``--landscape``, or one generated from ``--n/--k/--q``
    with seed ``seed_of(args)``; ``seed_of`` is called only when generating."""
    if args.landscape is not None:
        if args.n is not None or args.k is not None or args.q is not None:
            raise UsageError("--landscape conflicts with --n/--k/--q")
        return load_landscape(args.landscape)
    if args.n is None or args.k is None or args.q is None:
        raise UsageError("provide either --landscape or all of --n/--k/--q")
    _check_params(args.n, [args.k], [args.q], args.mode)
    return generate(args.n, args.k, args.q, args.mode, seed=seed_of(args))


def _cmd_run(args) -> int:
    if args.step_max < 1:
        raise UsageError(f"--step-max must be >= 1, got {args.step_max}")
    seed = _resolve_seed(args)
    landscape = _load_or_generate(
        args, lambda a: ex.landscape_seed(seed, a.k, a.q, 0))
    rs = ex.run_seed(seed, landscape.k, landscape.q, args.heuristic, 0, 0)
    rng = np.random.default_rng(rs)
    result = ex.run_heuristic(landscape, args.heuristic, rng, args.step_max,
                              trace=args.trace)
    fv = result.fitness
    print(f"heuristic: {args.heuristic}")
    print(f"landscape: n={landscape.n} k={landscape.k} q={landscape.q} "
          f"mode={landscape.mode} seed={landscape.seed}")
    print(f"run seed: {rs}")
    print(f"terminal: {''.join(str(b) for b in result.terminal)}")
    print(f"fitness: {fv.total}/{landscape.max_total} = {fv.normalized:.6f}")
    print(f"steps: {result.steps}")
    print(f"flat: {result.flat_count}")
    print(f"gate: {result.gate_count}")
    print(f"evaluations: {result.evaluations}")
    if args.trace:
        for i, step in enumerate(result.trace):
            bits = "".join(str(b) for b in step.genotype)
            print(f"trace: {i} {step.kind} {step.fitness.total} {bits}")
    return 0


def _cmd_sweep(args) -> int:
    _check_params(args.n, args.k, args.q, args.mode)
    seed = _resolve_seed(args)
    try:
        config = ex.SweepConfig(
            n=args.n, k_values=args.k, q_values=args.q, base_seed=seed,
            heuristics=tuple(args.heuristics.split(",")), runs=args.runs,
            instances=args.instances, step_max=args.step_max, mode=args.mode,
            keep_traces=args.profile_out is not None,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    report = ex.run_sweep(config)
    ex.write_csv(report, args.out)
    if args.records_out is not None:
        ex.write_records(report, args.records_out)
    if args.profile_out is not None:
        ex.write_profile_csv(ex.neutral_mutation_profile(report), args.profile_out)
    if args.stepstats_out is not None:
        ex.write_step_stats_csv(ex.step_stats(report), args.stepstats_out)
    return 0


def _cmd_degn(args) -> int:
    _check_params(args.n, args.k, args.q, args.mode)
    if args.samples < 1 or args.instances < 1:
        raise UsageError("--samples and --instances must be >= 1")
    seed = _resolve_seed(args)
    lines = ["n,k,q,mode,instances,samples,mean_degn,se_degn"]
    for k in args.k:
        for q in args.q:
            means = ex.neutral_degree_instance_means(
                args.n, k, q, args.samples, args.instances, seed, args.mode)
            se = float(means.std(ddof=1) / np.sqrt(len(means))) if len(means) > 1 else 0.0
            lines.append(
                f"{args.n},{k},{q},{args.mode},{args.instances},{args.samples},"
                f"{means.mean():.6f},{se:.6f}"
            )
    with open(args.out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_graph(args) -> int:
    landscape = _load_or_generate(args, _resolve_seed)
    try:
        graph = pg.build_graph(landscape)
    except pg.GraphSizeError as exc:
        raise UsageError(str(exc))
    dot = pg.to_dot(pg.annotate(graph, args.heuristic))
    with open(args.out, "w", newline="\n") as fh:
        fh.write(dot)
    if args.census is not None:
        row = pg.census(landscape).csv_row(landscape)
        with open(args.census, "w", newline="\n") as fh:
            fh.write(pg.CENSUS_HEADER + "\n" + row + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="scubasearch",
        description="NKq landscapes and neutrality-aware local search heuristics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a landscape and write its file",
                       description="Generate an NKq landscape file. " + _LANDSCAPE_FORMAT_HELP)
    _add_landscape_params(p, lists=False)
    _add_seed(p)
    p.add_argument("--out", required=True, help="output landscape file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one heuristic and print the result",
                       description="Run one heuristic on a generated or loaded landscape "
                                   "and print terminal fitness and counters. "
                                   + _LANDSCAPE_FORMAT_HELP)
    p.add_argument("--heuristic", required=True, choices=hx.HEURISTICS,
                   help="hc, nc, hc2, or ss")
    _add_landscape_source(p)
    p.add_argument("--step-max", type=int, default=300,
                   help="netcrawler proposal budget (default: 300)")
    p.add_argument("--trace", action="store_true", help="print the full move trace")
    _add_seed(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a (K, q, heuristic) grid and write CSV",
                       description="Run every heuristic over a (K, q) grid and write "
                                   "per-cell statistics as CSV with header "
                                   f"'{ex.SWEEP_HEADER}'. Optional outputs: per-run "
                                   "records, neutral-mutation profile, scuba step curves.")
    _add_landscape_params(p, lists=True)
    names = ",".join(hx.HEURISTICS)
    p.add_argument("--heuristics", default=names,
                   help=f"comma-separated subset of {names} (default: all)")
    p.add_argument("--runs", type=int, default=100, help="runs per cell (default: 100)")
    p.add_argument("--instances", type=int, default=10,
                   help="landscape instances per cell (default: 10)")
    p.add_argument("--step-max", type=int, default=300,
                   help="netcrawler proposal budget (default: 300)")
    _add_seed(p)
    p.add_argument("--out", required=True, help="per-cell statistics CSV")
    p.add_argument("--records-out", default=None, help="per-run record CSV")
    p.add_argument("--profile-out", default=None,
                   help="neutral-mutation profile CSV (retains run traces)")
    p.add_argument("--stepstats-out", default=None, help="scuba step-count CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("degn", help="sample mean neutral degrees over a grid",
                       description="Sample the mean neutral degree of uniform-random "
                                   "genotypes for each (K, q) cell and write CSV with "
                                   "header 'n,k,q,mode,instances,samples,mean_degn,se_degn'.")
    _add_landscape_params(p, lists=True)
    p.add_argument("--samples", type=int, default=1000,
                   help="genotypes sampled per instance (default: 1000)")
    p.add_argument("--instances", type=int, default=10,
                   help="landscape instances per cell (default: 10)")
    _add_seed(p)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_degn)

    p = sub.add_parser("graph", help="export a small landscape as annotated DOT",
                       description="Enumerate a landscape with n <= 12, annotate the "
                                   "hypercube graph with one heuristic's moves and write "
                                   "DOT text. " + _LANDSCAPE_FORMAT_HELP)
    p.add_argument("--heuristic", required=True, choices=pg.GRAPH_KINDS,
                   help="annotation to draw: hc, ss, nc, or hc2")
    _add_landscape_source(p)
    _add_seed(p)
    p.add_argument("--out", required=True, help="output DOT file")
    p.add_argument("--census", default=None,
                   help="also write an exhaustive census CSV to this path")
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"scubasearch: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"scubasearch: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except LandscapeFormatError as exc:
        print(f"scubasearch: error: malformed landscape file: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except LandscapeError as exc:
        print(f"scubasearch: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"scubasearch: error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
