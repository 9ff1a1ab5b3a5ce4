"""Smoke test of the traced benchmark child (``perfbench/child.py``).

With tracing on, the child wraps a fixed list of library names before it
calls the CLI, so a rename or deletion of any of them fails here rather
than only when the benchmark runs.
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_child_runs_gen(tmp_path):
    child = os.path.join(ROOT, "perfbench", "child.py")
    src = os.path.join(ROOT, "src")
    argv = [sys.executable, child, str(time.monotonic_ns()), src, str(tmp_path), "1",
            "gen", "--n", "4", "--k", "1", "--q", "2", "--seed", "1",
            "--out", str(tmp_path / "l.txt")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "result.json") as fh:
        result = json.load(fh)
    assert result["rc"] == 0
    assert (tmp_path / "l.txt").exists()
