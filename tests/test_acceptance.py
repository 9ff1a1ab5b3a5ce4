"""Acceptance suite: one check (A1-A8) per stated criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every check is expected to pass. Two of them state both the advantage and the
limit of scuba search, as the README's "Acceptance status" section explains:
at q=2, K in {2,4,8}, scuba ties with the two-step climber in fitness while
spending fewer evaluations (A3b), and scuba's mean step count at q=3 falls
strictly from K=2 on, while at K=0 every run is a pure gate climb with no
flat move (A6b).
"""

import numpy as np
import pytest
from scipy import stats

import oracles
from dotgrammar import validate_dot
from scubasearch import (
    RANDOM,
    SweepConfig,
    annotate,
    build_graph,
    census,
    derive_seed,
    extended_scan,
    generate,
    landscape_seed,
    neutral_degree_instance_means,
    run_sweep,
    scuba,
    step_stats,
)
from scubasearch.cli import main as cli_main

N = 64


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    return ok


# -- shared sweeps (module-scoped so several checks reuse them) ---------------

@pytest.fixture(scope="module")
def q2_report():
    config = SweepConfig(n=N, k_values=(2, 4, 8), q_values=(2,), base_seed=2,
                         heuristics=("hc", "nc", "hc2", "ss"), runs=200,
                         instances=10)
    return run_sweep(config)


@pytest.fixture(scope="module")
def q100_report():
    config = SweepConfig(n=N, k_values=(4, 8), q_values=(100,), base_seed=1,
                         heuristics=("hc", "nc", "ss"), runs=200, instances=10)
    return run_sweep(config)


@pytest.fixture(scope="module")
def q3_ss_report():
    config = SweepConfig(n=N, k_values=(0, 2, 4, 8, 12, 16), q_values=(3,),
                         base_seed=7, heuristics=("ss",), runs=200, instances=10)
    return run_sweep(config)


@pytest.fixture(scope="module")
def table_report():
    config = SweepConfig(n=N, k_values=(0,), q_values=(2,), base_seed=777,
                         heuristics=("hc", "ss"), runs=1000, instances=10)
    return run_sweep(config)


def norms(report_, heuristic, k, q):
    return np.array([r.fitness_norm
                     for r in report_.records_by_cell()[(heuristic, k, q)]])


def evals(report_, heuristic, k, q):
    return np.array([r.evaluations
                     for r in report_.records_by_cell()[(heuristic, k, q)]])


def one_sided_p(a, b) -> float:
    """Welch two-sample test of mean(a) > mean(b)."""
    return float(stats.ttest_ind(a, b, equal_var=False,
                                 alternative="greater").pvalue)


# -- A1: exhaustive oracle equivalence ----------------------------------------

def test_a1_oracle_equivalence():
    """On 20 small instances, exhaustive enumeration must agree with the
    library on totals, one-bit deltas, neutral degrees, evol and evol2 at
    every genotype, with the census on all six locality predicates at every
    node, and every scuba terminal must be a true local maximum. Zero
    mismatches allowed."""
    rng = np.random.default_rng(20250101)
    mismatches = 0
    for index in range(20):
        n = 5 + index % 6
        k = int(rng.integers(0, min(4, n - 1) + 1))
        q = int(rng.choice([2, 3, 4, 100]))
        landscape = generate(n, k, q, RANDOM, seed=int(rng.integers(1 << 40)))
        fm = oracles.fitness_map(landscape)
        genotypes = oracles.all_genotypes(n)
        evol_map = {s: oracles.evol(fm, s) for s in genotypes}
        census_local = census(landscape).local_nodes

        for node, s in enumerate(genotypes):
            arr = np.array(s, dtype=np.uint8)
            total = landscape.total(arr)
            if total != fm[s]:
                mismatches += 1
            _, totals, d = landscape._group._row_deltas(arr[None])
            scanned, d = int(totals[0]), d[0]
            if max(scanned, scanned + int(d.max())) != evol_map[s]:
                mismatches += 1
            expected_evol2 = max(evol_map[m] for m in oracles.neighborhood(s))
            pairs = extended_scan(landscape, arr)
            if max(scanned + int(d.max()), int(pairs.max())) != expected_evol2:
                mismatches += 1
            if int(np.count_nonzero(d == 0)) != oracles.degn(fm, s):
                mismatches += 1
            for locus in range(n):
                flipped = fm[oracles.flip(s, locus)]
                if landscape.delta_total(arr, total, locus) != flipped:
                    mismatches += 1
                if scanned + int(d[locus]) != flipped:
                    mismatches += 1
            # all_genotypes runs in node order: locus 0 is the top bit.
            for (guide, structure), nodes in census_local.items():
                if (node in nodes) != oracles.is_local(fm, s, guide, structure):
                    mismatches += 1

        local = oracles.v_local_set(fm)
        starts = genotypes if n <= 8 else [
            tuple(rng.integers(0, 2, n).tolist()) for _ in range(64)]
        for start in starts:
            result = scuba(landscape, np.array(start, dtype=np.uint8),
                           np.random.default_rng(derive_seed(1, index, fm[start])))
            if tuple(result.terminal.tolist()) not in local:
                mismatches += 1

    ok = report("A1 oracle equivalence (20 exhaustive instances)",
                mismatches == 0, f"mismatches={mismatches}")
    assert ok


# -- A2: neutral-degree statistics --------------------------------------------

def _trend_violations(means, ses, keys):
    """Count increases along ``keys``; flag any larger than 2 std-errors."""
    soft = hard = 0
    for a, b in zip(keys, keys[1:]):
        gap = means[b] - means[a]
        if gap > 0:
            tolerance = 2 * float(np.hypot(ses[a], ses[b]))
            if gap > tolerance:
                hard += 1
            else:
                soft += 1
    return soft, hard


def test_a2_neutral_degree():
    """K=0 sampled means sit within 5% of n/q, and the sampled (K, q) grid
    is monotone non-increasing in both K and q (at most one small violation
    per line, never beyond 2 std-errors)."""
    ok = True
    for q in (2, 3, 4):
        mean = float(neutral_degree_instance_means(
            N, 0, q, samples=1000, instances=200, seed=11).mean())
        target = N / q
        ok &= abs(mean - target) <= 0.05 * target

    ks = (0, 2, 4, 8, 12, 16)
    qs = (2, 3, 4, 100)
    means, ses = {}, {}
    for q in qs:
        for k in ks:
            per_instance = neutral_degree_instance_means(
                N, k, q, samples=1000, instances=30, seed=12)
            means[(k, q)] = float(per_instance.mean())
            ses[(k, q)] = float(per_instance.std(ddof=1) / np.sqrt(len(per_instance)))
    for q in qs:
        soft, hard = _trend_violations({k: means[(k, q)] for k in ks},
                                       {k: ses[(k, q)] for k in ks}, ks)
        ok &= hard == 0 and soft <= 1
    for k in ks:
        soft, hard = _trend_violations({q: means[(k, q)] for q in qs},
                                       {q: ses[(k, q)] for q in qs}, qs)
        ok &= hard == 0 and soft <= 1

    assert report("A2 neutral-degree oracle and grid trends", ok)


# -- A3: fitness ordering ------------------------------------------------------

def test_a3_fitness_ordering(q2_report, q100_report):
    """At q=2 scuba beats hill climbing and the netcrawler (one-sided 0.01);
    at q=100 scuba and hill climbing coincide within 0.01 normalized
    fitness and the netcrawler trails."""
    ok = True
    for k in (2, 4, 8):
        ss = norms(q2_report, "ss", k, 2)
        ok &= one_sided_p(ss, norms(q2_report, "hc", k, 2)) < 0.01
        ok &= one_sided_p(ss, norms(q2_report, "nc", k, 2)) < 0.01
    for k in (4, 8):
        ss = norms(q100_report, "ss", k, 100)
        hc = norms(q100_report, "hc", k, 100)
        nc = norms(q100_report, "nc", k, 100)
        ok &= abs(float(ss.mean()) - float(hc.mean())) < 0.01
        ok &= float(nc.mean()) < float(hc.mean())
    assert report("A3a fitness ordering (scuba > hc, nc at q=2; q=100 parity)", ok)


def test_a3_scuba_vs_two_step(q2_report):
    """At q=2 scuba matches the two-step climber within 0.01 normalized
    fitness (the parity bound of A3a) and spends fewer evaluations.

    Neither heuristic is promised to beat the other. ``hill_climb2`` stops
    only where no point within distance 2 is strictly fitter; scuba stops
    where no neighbor is strictly fitter and no neutral neighbor has a
    strictly fitter neighbor, so it looks at distance 2 only through neutral
    steps. Every state where hc2 stops is therefore one where scuba may stop.
    Hill climbing trails both by about 0.045, so a regression of either
    heuristic to hill-climbing level breaks the bound.
    """
    ok = True
    details = []
    for k in (2, 4, 8):
        ss = float(norms(q2_report, "ss", k, 2).mean())
        hc2 = float(norms(q2_report, "hc2", k, 2).mean())
        ss_evals = float(evals(q2_report, "ss", k, 2).mean())
        hc2_evals = float(evals(q2_report, "hc2", k, 2).mean())
        details.append(f"K={k}: ss={ss:.4f} hc2={hc2:.4f} diff={ss - hc2:+.4f} "
                       f"evals ss={ss_evals:.0f} hc2={hc2_evals:.0f}")
        ok &= abs(ss - hc2) < 0.01
        ok &= ss_evals < hc2_evals
    assert report("A3b scuba vs hc2 at q=2 (fitness parity, fewer evaluations)",
                  ok, "; ".join(details))


# -- A4: evaluation accounting --------------------------------------------------

def test_a4_evaluation_accounting(q2_report, table_report):
    """Per-run exact accounting (hill climbing n*(steps+1); two-step scan
    cost inside its window; scuba inner-guard cost (1+Degn)*n), plus
    magnitude windows for the mean evaluation counts at K=0, q=2."""
    ok = True

    hc_records = [r for r in q2_report.records + table_report.records
                  if r.heuristic == "hc"]
    assert len(hc_records) >= 1000
    ok &= all(r.evaluations == N * (r.steps + 1) for r in hc_records)

    pair_cost = N * (N - 1) // 2
    hc2_records = [r for r in q2_report.records if r.heuristic == "hc2"]
    assert len(hc2_records) == 600
    for r in hc2_records:
        per_step = r.evaluations / (r.steps + 1)
        ok &= pair_cost <= per_step <= pair_cost + N

    for index in range(12):
        landscape = generate(N, 0, 2, seed=landscape_seed(777, 0, 2, index))
        rng = np.random.default_rng(derive_seed(4, index))
        result = scuba(landscape, rng.integers(0, 2, N, dtype=np.uint8), rng,
                       trace=True)
        totals, flips = landscape.batch_scan(result.trace.genotypes())
        degns = (flips == totals[:, None]).sum(axis=1)
        ok &= result.evaluations == int(((1 + degns) * N).sum())

    mean_hc = float(np.mean([r.evaluations for r in table_report.records
                             if r.heuristic == "hc"]))
    mean_ss = float(np.mean([r.evaluations for r in table_report.records
                             if r.heuristic == "ss"]))
    ok &= 700 <= mean_hc <= 1300
    ok &= 20000 <= mean_ss <= 55000
    assert report("A4 evaluation accounting", ok,
                  f"mean_hc={mean_hc:.0f}, mean_ss={mean_ss:.0f}")


# -- A5: netcrawler neutrality law ----------------------------------------------

def test_a5_netcrawler_neutrality_law():
    """At 20 fixed states the frequency of neutral one-bit proposals over
    10^5 uniform draws sits within 3 binomial sigma of Degn(s)/n. The flip
    totals behind the neutrality test are cross-checked against the
    incremental evaluator first."""
    ok = True
    cases = [(q, k) for q in (2, 3) for k in (0, 4)] * 5
    for index, (q, k) in enumerate(cases):
        landscape = generate(N, k, q, seed=landscape_seed(5150, k, q, index))
        rng = np.random.default_rng(derive_seed(5, index))
        s = rng.integers(0, 2, N, dtype=np.uint8)
        totals, flips = landscape.batch_scan(s[None, :])
        total, flips = int(totals[0]), flips[0]
        ok &= all(landscape.delta_total(s, total, locus) == flips[locus]
                  for locus in range(N))
        d = int((flips == total).sum())
        proposals = rng.integers(0, N, size=100_000)
        freq = float((flips[proposals] == total).mean())
        p = d / N
        if d == 0:
            ok &= freq == 0.0
        else:
            sigma = float(np.sqrt(p * (1 - p) / 100_000))
            ok &= abs(freq - p) <= 3 * sigma
    assert report("A5 netcrawler neutral-proposal law", ok)


# -- A6: scuba step profile ------------------------------------------------------

def test_a6_flat_count_peaks_interior(q3_ss_report):
    """Mean flat-move count at q=3 peaks at an interior K of the grid."""
    rows = step_stats(q3_ss_report)
    flats = [r.mean_flat for r in rows]
    peak = int(np.argmax(flats))
    ok = 0 < peak < len(rows) - 1
    assert report("A6a flat-count peak at interior K", ok,
                  f"peak at K={rows[peak].k}")


def test_a6_steps_strictly_decreasing(q3_ss_report):
    """Mean total steps at q=3 decrease strictly over K=2..16, and at K=0
    every scuba run is a pure gate climb (no flat move).

    At K=0 the components are independent: a neutral flip at locus l leaves
    every other locus's flip delta unchanged and the delta at l stays 0, so
    each neutral neighbor has exactly the current evolvability and the inner
    guard never fires. steps(K=0) is then the gate count alone (about 21) and
    sits below steps(K=2) (about 22, six of them flat), so the K=0 edge is
    checked by that exact property instead of by the decrease.
    """
    rows = step_stats(q3_ss_report)
    steps = [r.mean_steps for r in rows if r.k > 0]
    ok = all(a > b for a, b in zip(steps, steps[1:]))
    k0 = q3_ss_report.records_by_cell().get(("ss", 0, 3), [])
    ok &= bool(k0) and all(r.flat == 0 and r.steps == r.gate for r in k0)
    detail = ", ".join(f"K={r.k}: {r.mean_steps:.1f}" for r in rows)
    assert report("A6b total steps strictly decreasing from K=2, "
                  "no flat move at K=0", ok, detail)


# -- A7: path-graph structural suite ----------------------------------------------

def test_a7_path_graph_suite():
    """Ten (n=5, k=2, q=2) instances: 32 nodes; hill-climbing arrows absent
    exactly at true local maxima; no more distance-2-local than local
    maxima; netcrawler components equal true neutral networks; DOT output
    parses under the DOT grammar."""
    ok = True
    for seed in range(100, 110):
        landscape = generate(5, 2, 2, seed=seed)
        graph = build_graph(landscape)
        ok &= graph.node_count == 32

        fm = oracles.fitness_map(landscape)
        to_tuple = {node: oracles.node_genotype(graph.n, node) for node in range(32)}
        hc = annotate(graph, "hc")
        sources = [u for u, _ in hc.solid]
        ok &= len(sources) == len(set(sources))
        local = {node for node in range(32)
                 if to_tuple[node] in oracles.v_local_set(fm)}
        ok &= set(sources) == set(range(32)) - local

        summary = census(landscape)
        ok &= summary.v2_local_count <= summary.v_local_count
        ok &= summary.local_nodes["f", "V"] == local

        nc = annotate(graph, "nc")
        parent = list(range(32))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in nc.dotted:
            parent[find(u)] = find(v)
        got = {frozenset(to_tuple[node] for node in range(32)
                         if find(node) == root)
               for root in {find(node) for node in range(32)}}
        expected = {frozenset(c) for c in oracles.neutral_networks(fm)}
        ok &= got == expected

        from scubasearch import to_dot
        for kind in ("hc", "ss", "nc", "hc2"):
            try:
                validate_dot(to_dot(annotate(graph, kind)))
            except Exception:
                ok = False
    assert report("A7 path-graph structural suite", ok)


# -- A8: CLI determinism -------------------------------------------------------------

def test_a8_cli_determinism(tmp_path, capsys):
    """Every subcommand repeated with identical flags and seed produces
    byte-identical files (landscape file, CSVs, DOT) and identical stdout."""
    ok = True

    def run(argv):
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    outputs = []
    for tag in ("x", "y"):
        base = tmp_path / tag
        base.mkdir()
        run(["gen", "--n", "10", "--k", "3", "--q", "4", "--mode", "adjacent",
             "--seed", "21", "--out", str(base / "land.txt")])
        stdout = run(["run", "--heuristic", "ss", "--n", "16", "--k", "2",
                      "--q", "2", "--seed", "7", "--trace"])
        run(["sweep", "--n", "16", "--k", "0,2", "--q", "2,3",
             "--heuristics", "hc,nc,hc2,ss", "--runs", "4", "--instances", "2",
             "--seed", "42", "--out", str(base / "sweep.csv"),
             "--records-out", str(base / "records.csv"),
             "--profile-out", str(base / "profile.csv"),
             "--stepstats-out", str(base / "steps.csv")])
        run(["degn", "--n", "16", "--k", "0,2", "--q", "2", "--samples", "100",
             "--instances", "3", "--seed", "5", "--out", str(base / "degn.csv")])
        run(["graph", "--n", "5", "--k", "2", "--q", "2", "--seed", "3",
             "--heuristic", "ss", "--out", str(base / "graph.dot"),
             "--census", str(base / "census.csv")])
        files = ["land.txt", "sweep.csv", "records.csv", "profile.csv",
                 "steps.csv", "degn.csv", "graph.dot", "census.csv"]
        outputs.append((stdout, [(base / f).read_bytes() for f in files]))

    ok &= outputs[0][0] == outputs[1][0]
    ok &= outputs[0][1] == outputs[1][1]
    assert report("A8 CLI determinism", ok)
