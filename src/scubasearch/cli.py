"""Command-line front end: landscape generation, single runs, sweeps,
neutral-degree grids and path-graph export.

Every command first resolves its landscape source (loads --landscape or
checks --n/--k/--q) and runs every check, then draws its seed, then
generates and works, so a refusal comes before any seed is drawn or printed.
All randomness flows from --seed; without it a seed is drawn from system
entropy and printed to stderr so the invocation can be replayed. Identical
argv plus seed produce byte-identical output files.

Exit codes, mapped in :func:`main` alone: 0 success; 1 for any ValueError
(a bad flag, parameter range or path, named in the diagnostic); 2 for a
malformed landscape file, an I/O error, running out of memory or Ctrl-C.
Either failure prints one line and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments as ex
from . import heuristics as hx
from . import pathgraph as pg
from .landscape import (
    MODES,
    RANDOM,
    LandscapeFormatError,
    check_params,
    check_seed,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


_int_list.__name__ = "comma-separated integer list"  # argparse's name for a bad value


def _path(text: str) -> str:
    """A path that ``open`` can take, refused while parsing, before a seed."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"path holds a NUL byte: {text!r}")
    try:
        os.fsencode(text)
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"path cannot be encoded: {text!r}") from None
    return text


def _resolve_seed(args) -> int:
    if args.seed is not None:
        check_seed(args.seed, "--seed")
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
    parser.add_argument("--landscape", type=_path, default=None,
                        help="landscape file to load instead of generating")


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed; drawn from system entropy and printed if omitted")


def _cmd_gen(args) -> int:
    check_params(args.n, args.k, args.q, args.mode)
    seed = _resolve_seed(args)
    landscape = generate(args.n, args.k, args.q, args.mode, seed=seed)
    save_landscape(landscape, args.out)
    return 0


def _load_landscape(args):
    """The landscape of ``--landscape``, or ``None`` once ``--n/--k/--q``
    pass :func:`check_params`, for the caller to generate after its seed."""
    if args.landscape is not None:
        if args.n is not None or args.k is not None or args.q is not None:
            raise ValueError("--landscape conflicts with --n/--k/--q")
        return load_landscape(args.landscape)
    if args.n is None or args.k is None or args.q is None:
        raise ValueError("provide either --landscape or all of --n/--k/--q")
    check_params(args.n, args.k, args.q, args.mode)
    return None


def _cmd_run(args) -> int:
    hx.check_step_max(args.step_max, "--step-max")
    landscape = _load_landscape(args)
    if args.heuristic == "hc2":
        hx.check_pair_totals(args.n if landscape is None else landscape.n)
    seed = _resolve_seed(args)
    if landscape is None:
        landscape = generate(args.n, args.k, args.q, args.mode,
                             seed=ex.landscape_seed(seed, args.k, args.q, 0))
    (rs,), rngs, starts = next(ex._run_streams(seed, landscape.n, landscape.k,
                                               [(landscape.q, args.heuristic, 0, 0)], 1))
    result = hx.search(landscape, args.heuristic, starts, rngs, args.step_max, args.trace)[0]
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
        trace = result.trace
        for i, (row, kind, total) in enumerate(zip(
                trace.genotypes().tolist(), trace.kinds.tolist(), trace.totals.tolist())):
            print(f"trace: {i} {hx.MOVE_KINDS[kind]} {total} {''.join(map(str, row))}")
    return 0


def _cmd_sweep(args) -> int:
    heuristics = tuple(args.heuristics.split(","))
    config = ex.SweepConfig(
        n=args.n, k_values=args.k, q_values=args.q, base_seed=0,
        heuristics=heuristics, runs=args.runs,
        instances=args.instances, step_max=args.step_max, mode=args.mode,
        profile=() if args.profile_out is None
        else tuple(h for h in heuristics if h in ex.PROFILE_HEURISTICS),
    )
    config.base_seed = _resolve_seed(args)
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
    ex.check_grid(args.n, args.k, args.q, args.mode)
    hx.check_counts({"--samples": args.samples, "--instances": args.instances},
                    len(args.k) * len(args.q))
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
    landscape = _load_landscape(args)
    pg.check_graph_size(args.n if landscape is None else landscape.n)
    if landscape is None:
        landscape = generate(args.n, args.k, args.q, args.mode, seed=_resolve_seed(args))
    dot = pg.to_dot(pg.annotate(pg.build_graph(landscape), args.heuristic))
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
    p.add_argument("--out", type=_path, required=True, help="output landscape file")
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
    p.add_argument("--out", type=_path, required=True, help="per-cell statistics CSV")
    p.add_argument("--records-out", type=_path, default=None, help="per-run record CSV")
    p.add_argument("--profile-out", type=_path, default=None,
                   help="neutral-mutation profile CSV")
    p.add_argument("--stepstats-out", type=_path, default=None, help="scuba step-count CSV")
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
    p.add_argument("--out", type=_path, required=True, help="output CSV")
    p.set_defaults(func=_cmd_degn)

    p = sub.add_parser("graph", help="export a small landscape as annotated DOT",
                       description="Enumerate a landscape with n <= 12, annotate the "
                                   "hypercube graph with one heuristic's moves and write "
                                   "DOT text. " + _LANDSCAPE_FORMAT_HELP)
    p.add_argument("--heuristic", required=True, choices=hx.HEURISTICS,
                   help="annotation to draw: hc, ss, nc, or hc2")
    _add_landscape_source(p)
    _add_seed(p)
    p.add_argument("--out", type=_path, required=True, help="output DOT file")
    p.add_argument("--census", type=_path, default=None,
                   help="also write an exhaustive census CSV to this path")
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except LandscapeFormatError as exc:
        message, code = f"malformed landscape file: {exc}", RUNTIME_EXIT
    except ValueError as exc:
        message, code = str(exc), USAGE_EXIT
    except OSError as exc:
        message, code = str(exc), RUNTIME_EXIT
    except MemoryError as exc:
        message, code = "out of memory" + (f": {exc}" if str(exc) else ""), RUNTIME_EXIT
    except KeyboardInterrupt:
        message, code = "interrupted", RUNTIME_EXIT
    # Escaped, so a stray newline or a lone surrogate keeps the one line.
    line = "".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in message)
    print(f"scubasearch: error: {line}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
