"""scubasearch benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 40] [--trace 0|1]

Each repeat runs ``scubasearch.cli.main(argv)`` once in a fresh,
single-threaded interpreter (``perfbench/child.py``). The host this runs on
changes speed by up to 1.7 times, within seconds and over minutes, so with
``--trace 0`` every repeat of the program (``src/`` of the checkout) runs at
the same time as a repeat of the same argv on ``perfbench/reference/``, a
frozen copy of the package as it was when the benchmark was defined, both
pinned to one CPU. The time metrics are medians of the program's CPU time
over the reference's, so the drift cancels and a change to ``src/`` shows.
Rounds continue while the next one is expected to end within ``--seconds``,
with a minimum of two (one when traced).

Every output file is checked: per-row counter laws, byte identity with every
other repeat of the run (the reference's included) and, where
``golden.json`` has the seed, the recorded sha256 digests.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced repeats of the program alternate; traced repeats wrap
the public functions of each layer from outside and give the per-layer
metrics, as medians, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (raw samples, tail percentiles, digests, versions).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from child import IMPORT_EXIT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
PROGRAM_SRC = ROOT / "src"
REFERENCE_SRC = HERE / "reference"
# A fixed scale near the reference's set-up CPU time on the 2-vCPU host the
# benchmark was defined on. setup_s is the program's set-up CPU time over
# the reference's, measured in children that share a CPU, times this.
REFERENCE_SETUP_S = 0.18

STEP_MAX = 300
GRID_K = (0, 2, 4, 8, 12, 16)
HEURISTIC_FUNCS = {"hc": "hill_climb", "nc": "netcrawler", "hc2": "hill_climb2",
                   "ss": "scuba"}

# Why each workload is here is recorded in BENCHMARK.json; the argv omits
# --seed and the output paths, which each repeat adds.
WORKLOADS = {
    "sweep-grid": {
        "argv": ["sweep", "--n", "64", "--k", "0,2,4,8,12,16", "--q", "2,3,4,100",
                 "--heuristics", "hc,nc,hc2,ss", "--runs", "10", "--instances", "2",
                 "--step-max", str(STEP_MAX)],
        "outputs": {"--out": "out.csv", "--records-out": "records.csv",
                    "--stepstats-out": "stepstats.csv"},
    },
    "sweep-traced": {
        "argv": ["sweep", "--n", "64", "--k", "0,2,4", "--q", "2,3",
                 "--heuristics", "nc,ss", "--runs", "50", "--instances", "4",
                 "--step-max", str(STEP_MAX)],
        "outputs": {"--out": "out.csv", "--records-out": "records.csv",
                    "--profile-out": "profile.csv"},
    },
    "degn-grid": {
        "argv": ["degn", "--n", "64", "--k", "0,2,4,8,12,16", "--q", "2,3,4,100",
                 "--samples", "2000", "--instances", "2"],
        "outputs": {"--out": "out.csv"},
    },
}

WARMUP_ARGV = ["degn", "--n", "8", "--k", "0", "--q", "2", "--samples", "1",
               "--instances", "1", "--seed", "0"]
MIN_ROUNDS = {0: 2, 1: 1}
# Pairs of set-up-only children, program and reference sharing a CPU, run
# after each untraced round, so that set-up time has enough pairs in a run
# for a steady median.
SETUP_PROBE_PAIRS = 2
# Every run must end within 180 s, whatever --seconds asks for.
HARD_LIMIT_S = 150.0
CHILD_SETUP_TIMEOUT_S = 10.0


class BenchError(Exception):
    """The benchmark cannot run here (program missing or not importable)."""


# -- one repeat ----------------------------------------------------------------

def _child_env():
    """One thread, fixed hashing, and no bytecode cache: every repeat compiles
    ``src/``, so set-up time counts the program's size and writes nothing."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    return env


def run_children(jobs, timeout: float, cpu=None):
    """Run children (warm-ups, repeats or set-up probes) at once.

    ``jobs`` holds ``(result_dir, traced, argv, src)`` tuples; each child
    imports the package from ``src``. With ``cpu`` set, every child is
    pinned to that CPU, so the kernel time-slices them against each other.
    Returns each child's result, or None for a child that failed, and ends
    every child before it returns.
    """
    env = _child_env()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    procs = []
    try:
        for result_dir, traced, argv, src in jobs:
            result_dir.mkdir(parents=True)
            cmd = [sys.executable, str(HERE / "child.py"), str(time.monotonic_ns()),
                   str(src), str(result_dir), "1" if traced else "0", *argv]
            with open(result_dir / "stderr.txt", "w") as err:
                procs.append(subprocess.Popen(cmd, env=env, cwd=ROOT, preexec_fn=pin,
                                              stdout=subprocess.DEVNULL, stderr=err))
        deadline = time.monotonic() + timeout
        timed_out = []
        for proc in procs:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
                timed_out.append(False)
            except subprocess.TimeoutExpired:
                proc.kill()
                timed_out.append(True)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for proc, late, (result_dir, *_) in zip(procs, timed_out, jobs):
        if late:
            print(f"perfbench: repeat timed out after {timeout:.0f} s", file=sys.stderr)
        results.append(None if late else _child_result(proc.returncode, result_dir))
    return results


def run_child(result_dir: Path, traced: bool, argv, timeout: float,
              src: Path = PROGRAM_SRC):
    """Run one child alone; its result, or None."""
    return run_children([(result_dir, traced, argv, src)], timeout)[0]


def _child_result(returncode: int, result_dir: Path):
    """The result a finished child wrote, or None if it failed."""
    stderr = (result_dir / "stderr.txt").read_text().strip()
    if returncode == IMPORT_EXIT:
        raise BenchError(stderr)
    result_file = result_dir / "result.json"
    if returncode != 0 or not result_file.exists():
        print(f"perfbench: repeat failed (exit {returncode}): {stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(result_file.read_text())
    if result.get("rc", 0) != 0:
        print(f"perfbench: scubasearch exited {result['rc']}: {stderr}", file=sys.stderr)
        return None
    return result


# -- output checks ---------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_records(path: Path, expected_rows: int):
    """(rows, violations) of the seed-independent counter laws, per run."""
    rows = bad = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            h = row["heuristic"]
            n, q = int(row["n"]), int(row["q"])
            steps, flat, gate = int(row["steps"]), int(row["flat"]), int(row["gate"])
            evals, fit = int(row["evaluations"]), int(row["fitness_total"])
            ok = 0 <= fit <= n * (q - 1)
            if h == "hc":
                ok = ok and evals == n * (steps + 1)
            elif h == "hc2":
                ok = ok and evals == (n + n * (n - 1) // 2) * (steps + 1)
            elif h == "nc":
                ok = ok and steps == evals == STEP_MAX
            elif h == "ss":
                ok = ok and steps == flat + gate
            else:
                ok = False
            bad += not ok
    return rows, bad + (rows != expected_rows)


def check_degn(path: Path, expected_rows: int):
    """(rows, violations, genotypes sampled): every mean_degn lies in [0, n]."""
    rows = bad = sampled = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            n = int(row["n"])
            bad += not 0.0 <= float(row["mean_degn"]) <= n
            sampled += int(row["samples"]) * int(row["instances"])
    return rows, bad + (rows != expected_rows), sampled


def _grid_size(argv):
    value = dict(zip(argv[1::2], argv[2::2]))
    cells = len(value["--k"].split(",")) * len(value["--q"].split(","))
    return value, cells


def check_outputs(workload: str, result_dir: Path, reference: dict):
    """(attempted, failed, items, digests) for one repeat's output files."""
    spec = WORKLOADS[workload]
    value, cells = _grid_size(spec["argv"])
    digests = {name: sha256(result_dir / name) for name in spec["outputs"].values()}
    attempted = len(digests)
    failed = sum(digests[name] != reference.get(name, digests[name]) for name in digests)
    if spec["argv"][0] == "sweep":
        expected = len(value["--heuristics"].split(",")) * cells * int(value["--runs"])
        rows, bad = check_records(result_dir / "records.csv", expected)
        items = rows
    else:
        rows, bad, items = check_degn(result_dir / "out.csv", cells)
    return attempted + rows, failed + bad, items, digests


# -- per-layer metrics from spans ------------------------------------------------

def _nearest(mask, parent):
    """Id of each span's nearest ancestor-or-self in ``mask``, else -1."""
    own = np.where(mask, np.arange(mask.size), -1)
    has_parent = parent >= 0
    while True:
        inherited = np.where(has_parent, own[np.maximum(parent, 0)], -1)
        new = np.where(own >= 0, own, inherited)
        if np.array_equal(new, own):
            return own
        own = new


def layer_metrics(spans_path: Path, names):
    """(per-layer metrics, details) of one traced repeat."""
    with np.load(spans_path) as spans:
        name, parent = spans["name"], spans["parent"]
        busy = spans["t1"] - spans["t0"]
        aux = spans["aux"]
    has_parent = parent >= 0
    self_t = busy - np.bincount(parent[has_parent], weights=busy[has_parent],
                                minlength=busy.size)
    ids = {n: i for i, n in enumerate(names)}

    def sel(n):
        return name == ids.get(n, -1)

    def total(mask, values=busy):
        return float(values[mask].sum())

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    gen = sel("landscape.generate")
    m["landscape.generate.calls"] = int(gen.sum())
    m["landscape.generate.busy_s"] = total(gen)
    m["landscape.table_mb"] = total(gen, aux[:, 0]) / 2**20

    bs = sel("landscape.batch_scan")
    rows, kk = aux[:, 0], aux[:, 1]
    m["landscape.batch_scan.calls"] = int(bs.sum())
    m["landscape.batch_scan.rows"] = int(rows[bs].sum())
    m["landscape.batch_scan.busy_s"] = total(bs)
    buckets = {"b1": bs & (rows == 1), "b2-64": bs & (rows >= 2) & (rows <= 64),
               "b65up": bs & (rows >= 65)}
    for label, mask in buckets.items():
        m[f"landscape.batch_scan.us_per_row.{label}"] = per(
            total(mask), rows[mask].sum(), 1e6)
        for k in GRID_K:
            sub = mask & (kk == k)
            m[f"landscape.batch_scan.us_per_row.{label}.k{k}"] = per(
                total(sub), rows[sub].sum(), 1e6)

    dt = sel("landscape.delta_total")
    m["landscape.delta_total.calls"] = int(dt.sum())
    m["landscape.delta_total.us_per_call"] = per(total(dt), dt.sum(), 1e6)

    ext = sel("neighborhood.extended_scan")
    m["neighborhood.extended_scan.calls"] = int(ext.sum())
    m["neighborhood.extended_scan.busy_s"] = total(ext)
    m["neighborhood.extended_scan.self_s"] = total(ext, self_t)

    run_mask = np.zeros(name.size, dtype=bool)
    for func in HEURISTIC_FUNCS.values():
        run_mask |= sel(f"heuristics.{func}")
    owner = _nearest(run_mask, parent)
    run_ms_k4q3 = {}
    for h, func in HEURISTIC_FUNCS.items():
        hm = sel(f"heuristics.{func}")
        under = np.isin(owner, np.flatnonzero(hm))
        scanned = int(rows[bs & under].sum() + (dt & under).sum())
        steps = int(aux[hm, 1].sum())
        busy_h = total(hm)
        evals = int(aux[hm, 0].sum())
        run_ms = busy[hm] * 1e3
        p50, p99 = np.percentile(run_ms, [50, 99]) if run_ms.size else (0.0, 0.0)
        m[f"heuristics.{h}.runs"] = int(hm.sum())
        m[f"heuristics.{h}.busy_s"] = busy_h
        m[f"heuristics.{h}.self_s"] = total(hm, self_t)
        m[f"heuristics.{h}.run_ms.p50"] = float(p50)
        m[f"heuristics.{h}.run_ms.p99"] = float(p99)
        m[f"heuristics.{h}.evals"] = evals
        m[f"heuristics.{h}.evals_per_s"] = per(evals, busy_h)
        m[f"heuristics.{h}.rows_per_step"] = per(scanned, steps)
        cell = hm & (aux[:, 4] == 4) & (aux[:, 5] == 3)
        if cell.any():
            run_ms_k4q3[h] = float(np.median(busy[cell]) * 1e3)
    m["heuristics.trace_steps"] = int(aux[run_mask, 2].sum())
    m["heuristics.trace_mb"] = total(run_mask, aux[:, 3]) / 2**20

    for func in ("run_sweep", "neutral_degree_instance_means"):
        mask = sel(f"experiments.{func}")
        m[f"experiments.{func}.busy_s"] = total(mask)
        m[f"experiments.{func}.self_s"] = total(mask, self_t)
    ds = sel("experiments.derive_seed")
    m["experiments.derive_seed.calls"] = int(ds.sum())
    m["experiments.derive_seed.us_per_call"] = per(total(ds), ds.sum(), 1e6)
    nmp = sel("experiments.neutral_mutation_profile")
    m["experiments.neutral_mutation_profile.busy_s"] = total(nmp)
    m["experiments.neutral_mutation_profile.regenerated"] = int(
        (gen & (_nearest(nmp, parent) >= 0)).sum())
    for func in ("write_csv", "write_records", "write_step_stats_csv",
                 "write_profile_csv"):
        m[f"experiments.{func}.busy_s"] = total(sel(f"experiments.{func}"))
    m["cli.main.self_s"] = total(sel("cli.main"), self_t)

    roots = ~has_parent
    details = {
        "spans": int(name.size),
        "root_spans": int(roots.sum()),
        "self_sum_s": float(self_t.sum()),
        "root_busy_s": total(roots),
        "run_ms_k4q3": run_ms_k4q3,
    }
    return m, details


# -- summaries -------------------------------------------------------------------

def summarize(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered), "samples": samples}
    if len(ordered) > 20:
        idx = len(ordered) - 11
        out["tail_pct"] = round(100.0 * (idx + 1) / len(ordered), 1)
        out["tail"] = ordered[idx]
    return out


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_golden(seed: int, workload: str) -> dict:
    golden = json.loads((HERE / "golden.json").read_text())
    return golden.get(str(seed), {}).get(workload, {})


def check_repeat(workload, result, result_dir: Path, traced: bool, reference):
    """(result or None, attempted, failed) of one finished repeat's outputs."""
    if result is None:
        return None, 1, 1
    try:
        attempted, failed, items, digests = check_outputs(workload, result_dir, reference)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: unreadable output: {exc!r}", file=sys.stderr)
        return None, 1, 1
    result.update(items=items, digests=digests)
    if traced:
        layers, details = layer_metrics(result_dir / "spans.npz", result["span_names"])
        # Self times telescope to the root span, which is the timed call.
        attempted += 1
        failed += not (details["root_spans"] == 1 and abs(
            details["self_sum_s"] - result["wall_s"]) <= 0.01 * result["wall_s"])
        result.update(layers=layers, trace_details=details)
    return result, attempted, failed


def run_repeats(workload, seed, repeats, reference: dict, timeout, cpu=None):
    """Run ``repeats`` (``(result_dir, traced, src)`` tuples) at once and
    check their outputs; (results, attempted, failed), with None for a
    repeat that failed. ``reference`` is filled from the first good repeat
    when it is empty."""
    spec = WORKLOADS[workload]
    jobs = []
    for result_dir, traced, src in repeats:
        argv = list(spec["argv"]) + ["--seed", str(seed)]
        for flag, fname in spec["outputs"].items():
            argv += [flag, str(result_dir / fname)]
        jobs.append((result_dir, traced, argv, src))
    try:
        finished = run_children(jobs, max(timeout, 1.0), cpu)
        results, attempted, failed = [], 0, 0
        for result, (result_dir, traced, _) in zip(finished, repeats):
            result, a, f = check_repeat(workload, result, result_dir, traced, reference)
            if result is not None and not reference:
                reference.update(result["digests"])
            results.append(result)
            attempted += a
            failed += f
        return results, attempted, failed
    finally:
        for result_dir, _, _ in repeats:
            shutil.rmtree(result_dir, ignore_errors=True)


def probe_setups(probe_dirs, sources, cpu):
    """Set-up CPU time of children that import from ``sources`` and run
    nothing, run at once on ``cpu``; None if any failed."""
    try:
        probed = run_children([(d, False, [], src) for d, src in zip(probe_dirs, sources)],
                              CHILD_SETUP_TIMEOUT_S, cpu)
    finally:
        for d in probe_dirs:
            shutil.rmtree(d, ignore_errors=True)
    if None in probed:
        return None
    return [r["setup_cpu_s"] for r in probed]


def balanced_median(ratios):
    """Program-over-reference ratio from (ratio, program started first) pairs.

    The geometric mean of the medians of the two start orders, so that an
    advantage of starting first or second cancels; the plain median when
    only one order is present.
    """
    by_order = [[r for r, first in ratios if first == order] for order in (True, False)]
    if not all(by_order):
        return statistics.median(r for r, _ in ratios)
    return math.sqrt(statistics.median(by_order[0]) * statistics.median(by_order[1]))


def bench(workload: str, seed: int, seconds: float, trace: int):
    spec = WORKLOADS[workload]
    sources = (PROGRAM_SRC, REFERENCE_SRC) if trace == 0 else (PROGRAM_SRC,)
    for src in sources:
        if not (src / "scubasearch" / "cli.py").is_file():
            raise BenchError(f"no scubasearch sources under {src}")
    cpus = sorted(os.sched_getaffinity(0))
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for src in sources:
            warm = work / f"warmup-{src.name}"
            if run_child(warm, False, WARMUP_ARGV + ["--out", str(warm / "out.csv")],
                         CHILD_SETUP_TIMEOUT_S, src) is None:
                raise BenchError("warm-up repeat failed")
        golden = load_golden(seed, workload)
        reference = dict(golden)
        attempted = failed = 0
        rounds, setup_pairs = [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            index = len(rounds)
            left = HARD_LIMIT_S - (began - start)
            if trace == 0:
                # Program and reference share one CPU, so both see the same
                # host at every moment; the CPU and the start order alternate.
                cpu = cpus[index % len(cpus)]
                program_first = index % 2 == 1
                order = sources if program_first else sources[::-1]
                labels = {PROGRAM_SRC: "program", REFERENCE_SRC: "reference"}
                results, a, f = run_repeats(
                    workload, seed, [(work / f"r{index}-{labels[src]}", False, src)
                                     for src in order], reference, left, cpu)
                results = dict(zip((labels[src] for src in order), results))
                for probe in range(SETUP_PROBE_PAIRS):
                    probe_order = order if probe % 2 else order[::-1]
                    setups = probe_setups([work / f"r{index}-setup{probe}-{src.name}"
                                           for src in probe_order], probe_order, cpu)
                    if setups is not None:
                        setups = dict(zip(probe_order, setups))
                        setup_pairs.append((setups[PROGRAM_SRC] / setups[REFERENCE_SRC],
                                            probe_order[0] == PROGRAM_SRC))
            else:
                results, a, f = {}, 0, 0
                for label, traced in (("program", False), ("traced", True)):
                    (result,), ra, rf = run_repeats(
                        workload, seed, [(work / f"r{index}-{label}", traced, PROGRAM_SRC)],
                        reference, HARD_LIMIT_S - (time.monotonic() - start))
                    results[label] = result
                    a, f = a + ra, f + rf
            attempted += a
            failed += f
            rounds.append({k: v for k, v in results.items() if v is not None})
            # Stop before a round that would run past --seconds, once the
            # minimum number of rounds is in.
            last = time.monotonic() - began
            elapsed = time.monotonic() - start
            if elapsed + last > HARD_LIMIT_S:
                break
            if len(rounds) >= MIN_ROUNDS[trace] and elapsed + last > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    programs = [r["program"] for r in rounds if "program" in r]
    if not programs:
        raise BenchError("no repeat completed")
    first = programs[0]
    unit = "genotypes" if spec["argv"][0] == "degn" else "runs"
    details = {
        "workload": workload, "seed": seed, "trace": trace,
        "argv": spec["argv"] + ["--seed", str(seed)],
        "env": {"git_sha": git_sha(), "python": first["python"],
                "numpy": first["numpy"], "nproc": os.cpu_count(),
                "cpus_allowed": len(cpus)},
        "items_per_repeat": first["items"], "item": unit,
        "program": {
            "wall_s": summarize([r["wall_s"] for r in programs]),
            "cpu_s": summarize([r["cpu_s"] for r in programs]),
            "peak_rss_mb": summarize([r["peak_rss_mb"] for r in programs]),
        },
        "digests": first["digests"],
        "golden_checked": bool(golden),
    }
    if trace == 0:
        pairs = [(r["program"], r["reference"], i % 2 == 1)
                 for i, r in enumerate(rounds) if len(r) == 2]
        if not pairs or not setup_pairs:
            raise BenchError("no round completed")
        cpu_ratios = [(p["cpu_s"] / q["cpu_s"], first) for p, q, first in pairs]
        values = {
            "cpu_ratio": balanced_median(cpu_ratios),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in programs),
            "setup_s": REFERENCE_SETUP_S * balanced_median(setup_pairs),
        }
        details.update(
            cpu_ratio=summarize([r for r, _ in cpu_ratios]),
            setup_ratio=summarize([r for r, _ in setup_pairs]),
            program_first=[first for _, first in cpu_ratios],
            reference={"cpu_s": summarize([q["cpu_s"] for _, q, _ in pairs]),
                       "setup_cpu_s": summarize([q["setup_cpu_s"] for _, q, _ in pairs])})
    else:
        traced = [r["traced"] for r in rounds if "traced" in r]
        if not traced:
            raise BenchError("no traced repeat completed")
        values = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in programs))
        details["traced"] = {
            "wall_s": summarize([r["wall_s"] for r in traced]),
            "trace_details": [r["trace_details"] for r in traced],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = labelled(values, declared["end_to_end" if trace == 0 else "per_layer"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def labelled(values: dict, declared: list) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception, so every child is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, details = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
