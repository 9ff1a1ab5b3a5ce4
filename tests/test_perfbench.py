"""Smoke tests of the traced benchmark child (``perfbench/child.py``).

With tracing on, the child wraps a fixed list of library names before it
calls the CLI, so a rename or deletion of any of them fails here rather than
only when the benchmark runs. Each workload command is traced once. The
child would also index the ``Trace`` of a run made through a wrapped per-run
searcher, but the CLI runs every search through ``heuristics.search``, so
that read never happens: every traced command here checks that no per-run
searcher span was recorded. ``run --trace`` prints its trace from the
trace's arrays.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_traced_child(tmp_path, *cli_argv):
    """Run ``cli_argv`` through the traced child; require rc 0 from the
    process and in its ``result.json`` and no span of a wrapped per-run
    searcher, and return the process."""
    child = os.path.join(ROOT, "perfbench", "child.py")
    src = os.path.join(ROOT, "src")
    argv = [sys.executable, child, str(time.monotonic_ns()), src, str(tmp_path), "1",
            *cli_argv]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "result.json") as fh:
        result = json.load(fh)
    assert result["rc"] == 0
    with np.load(tmp_path / "spans.npz") as spans:
        recorded = {result["span_names"][i] for i in np.unique(spans["name"]).tolist()}
    assert "cli.main" in recorded
    assert not recorded & {f"heuristics.{name}" for name in
                           ("hill_climb", "netcrawler", "hill_climb2", "scuba")}
    return proc


def test_traced_child_runs_gen(tmp_path):
    run_traced_child(tmp_path, "gen", "--n", "4", "--k", "1", "--q", "2", "--seed", "1",
                     "--out", str(tmp_path / "l.txt"))
    assert (tmp_path / "l.txt").exists()


def test_traced_child_runs_traced_sweep(tmp_path):
    run_traced_child(tmp_path, "sweep", "--n", "6", "--k", "0,2", "--q", "2",
                     "--heuristics", "hc,nc,hc2,ss", "--runs", "2", "--instances", "1",
                     "--step-max", "20", "--seed", "1", "--out", str(tmp_path / "out.csv"),
                     "--profile-out", str(tmp_path / "profile.csv"))
    assert (tmp_path / "spans.npz").exists()
    assert (tmp_path / "profile.csv").exists()


def test_traced_child_runs_degn(tmp_path):
    run_traced_child(tmp_path, "degn", "--n", "8", "--k", "0,2", "--q", "2",
                     "--samples", "50", "--instances", "2", "--seed", "1",
                     "--out", str(tmp_path / "degn.csv"))
    assert (tmp_path / "spans.npz").exists()
    assert (tmp_path / "degn.csv").exists()


def test_traced_child_runs_traced_run(tmp_path):
    proc = run_traced_child(tmp_path, "run", "--heuristic", "ss", "--n", "8", "--k", "2",
                            "--q", "2", "--trace", "--seed", "1")
    assert (tmp_path / "spans.npz").exists()
    assert "trace: 0 init " in proc.stdout
