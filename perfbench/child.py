"""One benchmark repeat in a fresh, single-threaded interpreter.

    python3 perfbench/child.py <spawn_ns> <src_dir> <result_dir> <trace 0|1> <cli argv...>

``spawn_ns`` is ``time.monotonic_ns()`` read by the parent just before it
started this process; set-up time runs from there until
``scubasearch.cli`` is imported from ``src_dir`` (the program's ``src/`` or
the frozen reference copy) and the argv is built; the process's CPU time
at that point is its set-up CPU time. The repeat then calls
``scubasearch.cli.main(argv)`` once, timing it in wall and CPU time, and
writes ``result.json`` (and, when traced, ``spans.npz``) into
``result_dir``. With no cli argv it only measures set-up.

Tracing wraps the public functions of the landscape, neighborhood,
heuristics, experiments and cli modules from outside, at the names their
callers look up, and keeps one span per call in memory: name, parent span,
start, end and up to six integer facts about the call.
"""

# Only these modules load before set-up is measured; the rest are imported
# where they are used, so that set-up time is the program's own.
import os
import sys
import time

IMPORT_EXIT = 3


def _import_cli(src):
    """Import ``scubasearch.cli`` from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    try:
        import scubasearch.cli as cli
    except ImportError as exc:
        print(f"perfbench: cannot import scubasearch from {src}: {exc}", file=sys.stderr)
        sys.exit(IMPORT_EXIT)
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"perfbench: scubasearch imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(IMPORT_EXIT)
    return cli


class SpanRecorder:
    """In-memory spans of wrapped calls, written out once the repeat ends."""

    AUX = 6

    def __init__(self):
        from array import array

        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.aux = array("q")
        self._stack = [-1]

    def wrap(self, name, fn, facts=None):
        """Return ``fn`` recording one span named ``name`` per call.

        ``facts(args, result)`` may return up to ``AUX`` integers to keep
        with the span; it runs after the span has ended.
        """
        import functools
        from time import perf_counter

        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, t0s, t1s, aux, stack = (
            self.name, self.parent, self.t0, self.t1, self.aux, self._stack)
        zeros = [0] * self.AUX

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            aux.extend(zeros)
            stack.append(sid)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = perf_counter()
                stack.pop()
            if facts is not None:
                for i, value in enumerate(facts(args, result)):
                    aux[sid * self.AUX + i] = int(value)
            return result

        return wrapper

    def save(self, path):
        import numpy as np

        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 t0=np.frombuffer(self.t0), t1=np.frombuffer(self.t1),
                 aux=np.frombuffer(self.aux, dtype=np.int64).reshape(-1, self.AUX))


def _batch_facts(args, result):
    landscape, states = args[0], args[1]
    return (states.shape[0] if states.ndim == 2 else 1, landscape.k)


def _generate_facts(args, result):
    return (result.tables.nbytes, result.k)


def _run_facts(args, result):
    """Evaluations, steps, trace length, computed trace bytes, K and q."""
    landscape = args[0]
    steps = len(result.trace) if result.trace else 0
    trace_bytes = 0
    if steps:
        # Every step holds the same objects as the first: the TraceStep, its
        # attribute dict, a genotype copy, a FitnessValue and a list slot.
        first = result.trace[0]
        per_step = (sys.getsizeof(first) + sys.getsizeof(vars(first))
                    + sys.getsizeof(first.genotype) + sys.getsizeof(first.fitness)
                    + 8)
        trace_bytes = sys.getsizeof(result.trace) + steps * per_step
    return (result.evaluations, result.steps, steps, trace_bytes,
            landscape.k, landscape.q)


def install_tracing(cli, recorder):
    """Wrap every traced name in place; return the wrapped ``cli.main``."""
    from scubasearch import experiments as ex
    from scubasearch import heuristics as hx
    from scubasearch import neighborhood as nb
    from scubasearch.landscape import NkqLandscape

    wrap = recorder.wrap
    L = NkqLandscape
    L.batch_scan = wrap("landscape.batch_scan", L.batch_scan, _batch_facts)
    L.delta_total = wrap("landscape.delta_total", L.delta_total)
    L.total = wrap("landscape.total", L.total)
    L.generate = classmethod(wrap("landscape.generate", L.__dict__["generate"].__func__,
                                  _generate_facts))

    scan = wrap("neighborhood.extended_scan", nb.extended_scan)
    nb.extended_scan = scan
    hx.extended_scan = scan
    for name in ("hill_climb", "netcrawler", "hill_climb2", "scuba"):
        setattr(hx, name, wrap(f"heuristics.{name}", getattr(hx, name), _run_facts))

    for name in ("derive_seed", "landscape_seed", "run_seed", "run_sweep",
                 "neutral_degree_instance_means", "neutral_degree_stats",
                 "neutral_mutation_profile", "step_stats", "write_csv",
                 "write_records", "write_profile_csv", "write_step_stats_csv"):
        setattr(ex, name, wrap(f"experiments.{name}", getattr(ex, name)))
    return wrap("cli.main", cli.main)


def _run(cli, argv, traced, result_dir):
    """Call ``cli.main(argv)`` once; return its exit code, wall and CPU time
    and peak RSS."""
    import resource

    entry = cli.main
    recorder = None
    if traced:
        recorder = SpanRecorder()
        entry = install_tracing(cli, recorder)
    cpu_start = time.process_time()
    start = time.perf_counter()
    rc = entry(argv)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.save(os.path.join(result_dir, "spans.npz"))
    return {"rc": rc, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
            "span_names": recorder.names if recorder is not None else []}


def main():
    spawn_ns = int(sys.argv[1])
    result_dir = sys.argv[3]
    traced = sys.argv[4] == "1"
    cli = _import_cli(os.path.abspath(sys.argv[2]))
    argv = list(sys.argv[5:])
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    setup_cpu_s = time.process_time()

    import json

    import numpy as np

    result = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
              "python": sys.version.split()[0],
              "numpy": np.__version__}
    if argv:
        result.update(_run(cli, argv, traced, result_dir))
    with open(os.path.join(result_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
