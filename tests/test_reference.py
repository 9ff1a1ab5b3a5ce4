"""Random CLI invocations against the frozen reference package.

``perfbench/reference/scubasearch/`` is the package as it was when the
benchmark was defined, the yardstick for every output byte. It is loaded
in-process under another name and only read (no bytecode is written). Each
test draws invocations both versions accept and compares their exit codes,
standard output and every output file, byte for byte. The draws reach the
corners fixed configurations miss: q from 2 to 2**40 (int8 to int64
tables), both link modes, base seeds above 2**32 and 2**64 (two- and
three-word seed entropy), n with an odd number of start halves
(``ceil(n/4)``) and ``--step-max`` at and past the netcrawler's windows and
chunks. Each of our invocations runs under a time limit, so a search that
spins instead of finishing fails the test rather than hanging the suite.
"""

import contextlib
import importlib
import importlib.util
import io
import os
import signal
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scubasearch import cli
from scubasearch import landscape

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "scubasearch"
REFERENCE_NAME = "scubasearch_reference"

Q_VALUES = (2, 3, 4, 5, 100, 129, 300, 70000, 2**32, 2**32 + 1, 2**40)
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 + 2**33))
STEP_MAX = (1, 7, 31, 32, 33, 300, 513)
# Seconds one of our invocations may take, about 100 times the slowest
# drawn here.
TIME_LIMIT = 10


def reference_main():
    """The reference's ``cli.main``, imported once under another package name."""
    if REFERENCE_NAME not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            REFERENCE_NAME, REFERENCE / "__init__.py",
            submodule_search_locations=[str(REFERENCE)])
        package = importlib.util.module_from_spec(spec)
        writes = sys.dont_write_bytecode
        sys.dont_write_bytecode = True
        sys.modules[REFERENCE_NAME] = package
        try:
            spec.loader.exec_module(package)
        except BaseException:
            del sys.modules[REFERENCE_NAME]
            raise
        finally:
            sys.dont_write_bytecode = writes
    return importlib.import_module(REFERENCE_NAME + ".cli").main


def invoke(main, argv, outputs):
    """``main``'s exit code, standard output and the bytes of each output
    file (None if not written) for ``argv`` plus each ``outputs`` flag
    naming a file in a fresh directory."""
    with tempfile.TemporaryDirectory() as directory:
        paths = {flag: os.path.join(directory, flag.strip("-")) for flag in outputs}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + [part for item in paths.items() for part in item])
        files = {}
        for flag, path in paths.items():
            files[flag] = Path(path).read_bytes() if os.path.exists(path) else None
    return code, stdout.getvalue(), files


class Spin(BaseException):
    """An invocation ran past its time limit. Not an ``Exception``, so
    neither ``cli.main`` nor hypothesis catches it: the test fails at once
    with the argv, where shrinking would wait out the limit at every step."""


@contextlib.contextmanager
def time_limit(seconds, argv):
    """Raise :class:`Spin` from inside the block once ``seconds`` pass."""
    def expire(signum, frame):
        raise Spin(f"no result within {seconds} s: {argv}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_same(argv, outputs):
    with time_limit(TIME_LIMIT, argv):
        ours = invoke(cli.main, argv, outputs)
    assert ours == invoke(reference_main(), argv, outputs), argv
    assert ours[0] == 0, argv


@st.composite
def grids(draw, max_n=14, max_k=5):
    n = draw(st.integers(1, max_n))
    k_values = draw(st.lists(st.integers(0, min(n - 1, max_k)), min_size=1, max_size=2,
                             unique=True))
    q_values = draw(st.lists(st.sampled_from(Q_VALUES), min_size=1, max_size=2, unique=True))
    return ["--n", str(n), "--k", ",".join(map(str, k_values)),
            "--q", ",".join(map(str, q_values)),
            "--mode", draw(st.sampled_from(("random", "adjacent")))]


@settings(max_examples=100)
@given(grid=grids(), seed=SEEDS, runs=st.integers(1, 5), instances=st.integers(1, 3),
       step_max=st.sampled_from(STEP_MAX),
       heuristics=st.lists(st.sampled_from(("hc", "nc", "hc2", "ss")), min_size=1,
                           unique=True))
@example(grid=["--n", "10", "--k", "0,2", "--q", "2,2147483649", "--mode", "random"],
         seed=2**32 + 1, runs=4, instances=2, step_max=33, heuristics=["hc", "nc", "hc2", "ss"])
@example(grid=["--n", "3", "--k", "0", "--q", "2", "--mode", "adjacent"],
         seed=5, runs=5, instances=1, step_max=7, heuristics=["ss", "hc"])
def test_sweep_matches_reference(grid, seed, runs, instances, step_max, heuristics):
    assert_same(["sweep", *grid, "--heuristics", ",".join(heuristics), "--runs", str(runs),
                 "--instances", str(instances), "--step-max", str(step_max),
                 "--seed", str(seed)],
                ("--out", "--records-out", "--profile-out", "--stepstats-out"))


@settings(max_examples=80)
@given(n=st.integers(1, 14), k=st.integers(0, 5), q=st.sampled_from(Q_VALUES), seed=SEEDS,
       heuristic=st.sampled_from(("hc", "nc", "hc2", "ss")),
       step_max=st.sampled_from(STEP_MAX), mode=st.sampled_from(("random", "adjacent")))
@example(n=9, k=1, q=2, seed=2**64 + 3, heuristic="ss", step_max=300, mode="random")
def test_run_matches_reference(n, k, q, seed, heuristic, step_max, mode):
    assert_same(["run", "--heuristic", heuristic, "--n", str(n), "--k", str(min(k, n - 1)),
                 "--q", str(q), "--mode", mode, "--step-max", str(step_max), "--trace",
                 "--seed", str(seed)], ())


@settings(max_examples=20)
@given(grid=grids(), seed=SEEDS, samples=st.integers(1, 40), instances=st.integers(1, 3))
def test_degn_matches_reference(grid, seed, samples, instances):
    assert_same(["degn", *grid, "--samples", str(samples), "--instances", str(instances),
                 "--seed", str(seed)], ("--out",))


@settings(max_examples=40)
@given(grid=grids(), seed=SEEDS, entries=st.integers(1, 2**9), runs=st.integers(1, 5),
       instances=st.integers(1, 3), samples=st.integers(1, 40),
       heuristics=st.lists(st.sampled_from(("hc", "nc", "hc2", "ss")), min_size=1,
                           unique=True))
@example(grid=["--n", "12", "--k", "0,5", "--q", "2,300", "--mode", "random"], seed=3,
         entries=1, runs=5, instances=3, samples=40, heuristics=["hc", "nc", "hc2", "ss"])
def test_small_blocks_match_reference(grid, seed, entries, runs, instances, samples,
                                      heuristics):
    # Our kernels' blocks shrunk to `entries` int64 words (_SCAN_ENTRIES),
    # down to one row, component or segment entry a block, while the
    # reference keeps its own: every scan, guard, flip term and ball block
    # is crossed, and no byte may depend on where the blocks end.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landscape, "_SCAN_ENTRIES", entries)
        assert_same(["sweep", *grid, "--heuristics", ",".join(heuristics), "--runs", str(runs),
                     "--instances", str(instances), "--seed", str(seed)],
                    ("--out", "--records-out", "--profile-out", "--stepstats-out"))
        assert_same(["degn", *grid, "--samples", str(samples), "--instances", str(instances),
                     "--seed", str(seed)], ("--out",))


@settings(max_examples=100)
@given(n=st.integers(1, 10), k=st.integers(0, 9), q=st.sampled_from(Q_VALUES), seed=SEEDS,
       heuristic=st.sampled_from(("hc", "nc", "hc2", "ss")),
       mode=st.sampled_from(("random", "adjacent")))
@example(n=10, k=9, q=2**40, seed=2**64 + 3, heuristic="ss", mode="random")
def test_graph_matches_reference(n, k, q, seed, heuristic, mode):
    assert_same(["graph", "--heuristic", heuristic, "--n", str(n), "--k", str(min(k, n - 1)),
                 "--q", str(q), "--mode", mode, "--seed", str(seed)], ("--out", "--census"))


@settings(max_examples=60)
@given(n=st.integers(1, 14), k=st.integers(0, 9), q=st.sampled_from(Q_VALUES), seed=SEEDS,
       mode=st.sampled_from(("random", "adjacent")))
@example(n=14, k=9, q=2**32 + 1, seed=2**32, mode="random")
def test_gen_matches_reference(n, k, q, seed, mode):
    assert_same(["gen", "--n", str(n), "--k", str(min(k, n - 1)), "--q", str(q),
                 "--mode", mode, "--seed", str(seed)], ("--out",))
