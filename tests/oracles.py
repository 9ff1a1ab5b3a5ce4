"""Brute-force reference implementations for verifying the library.

Everything here works on genotypes as plain tuples of 0/1 and recomputes
fitness straight from the landscape definition (per-locus table lookups in
pure Python). Nothing is shared with the library's vectorized evaluation
or scan paths, so agreement between the two is a real check.
"""

from __future__ import annotations

import itertools

import numpy as np


def table_index(landscape, s, i) -> int:
    """Index of the entry component i reads in its own table: the allele at
    locus i is bit 0, the allele at ``links[i][m]`` bit m+1."""
    idx = int(s[i])
    for m in range(landscape.k):
        idx += int(s[int(landscape.links[i][m])]) * (2 ** (m + 1))
    return idx


def naive_total(landscape, s) -> int:
    """Fitness total straight from the definition, one locus at a time."""
    return sum(int(landscape.tables[i][table_index(landscape, s, i)])
               for i in range(landscape.n))


def table_positions(landscape, s) -> list[int]:
    """Position of each component's entry in the row-major flattened
    tables: component i's table starts at ``i * 2**(k+1)``."""
    width = 2 ** (landscape.k + 1)
    return [i * width + table_index(landscape, s, i) for i in range(landscape.n)]


def all_genotypes(n):
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=n)]


def node_genotype(n, node) -> tuple:
    """Genotype of path-graph node ``node``: the n bits of its value, locus
    0 most significant."""
    return tuple((node >> (n - 1 - locus)) & 1 for locus in range(n))


def fitness_map(landscape) -> dict:
    """total of every genotype, keyed by tuple."""
    return {s: naive_total(landscape, s) for s in all_genotypes(landscape.n)}


def flip(s: tuple, locus: int) -> tuple:
    out = list(s)
    out[locus] = 1 - out[locus]
    return tuple(out)


def neighbors(s: tuple) -> list[tuple]:
    return [flip(s, locus) for locus in range(len(s))]


def neighborhood(s: tuple) -> list[tuple]:
    """V(s): the point itself plus its one-bit mutants."""
    return [s] + neighbors(s)


def extended_neighborhood(s: tuple) -> set[tuple]:
    """V2(s): union of the neighborhoods of all members of V(s)."""
    out = set()
    for member in neighborhood(s):
        out.update(neighborhood(member))
    return out


def neutral_neighborhood(fm: dict, s: tuple) -> list[tuple]:
    """Vn(s): members of V(s) with equal total (s included)."""
    return [m for m in neighborhood(s) if fm[m] == fm[s]]


def degn(fm: dict, s: tuple) -> int:
    return len(neutral_neighborhood(fm, s)) - 1


def evol(fm: dict, s: tuple) -> int:
    return max(fm[m] for m in neighborhood(s))


def evol2(fm: dict, s: tuple) -> int:
    return max(fm[m] for m in extended_neighborhood(s))


def is_local(fm: dict, s: tuple, guide: str, structure: str) -> bool:
    g = {"f": fm.__getitem__, "evol": lambda x: evol(fm, x)}[guide]
    members = {
        "V": lambda: neighborhood(s),
        "Vn": lambda: neutral_neighborhood(fm, s),
        "V2": lambda: extended_neighborhood(s),
    }[structure]()
    gs = g(s)
    return all(g(m) <= gs for m in members)


def v_local_set(fm: dict) -> set[tuple]:
    return {s for s in fm if is_local(fm, s, "f", "V")}


def v2_local_set(fm: dict) -> set[tuple]:
    return {s for s in fm if is_local(fm, s, "f", "V2")}


def neutral_networks(fm: dict) -> list[set[tuple]]:
    """Connected components of the equal-fitness Hamming-1 relation."""
    seen = set()
    components = []
    for start in fm:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for nbr in neighbors(current):
                if nbr not in component and fm[nbr] == fm[current]:
                    component.add(nbr)
                    frontier.append(nbr)
        seen |= component
        components.append(component)
    return components


def random_links(n, k, rng):
    """Random-mode links, one locus at a time: ``k`` distinct loci drawn by
    ``rng.choice`` from the list of the n-1 loci other than i."""
    links = np.empty((n, k), dtype=np.int64)
    everyone = np.arange(n)
    for i in range(n):
        links[i] = rng.choice(np.delete(everyone, i), size=k, replace=False)
    return links


def generated_tables(n, k, q, mode, seed):
    """The table ``generate`` draws, as int64: after the links (random mode
    only; adjacent links draw nothing), every entry in one draw."""
    rng = np.random.default_rng(seed)
    if mode == "random":
        random_links(n, k, rng)
    return rng.integers(0, q, size=(n, 2 ** (k + 1)), dtype=np.int64)


# -- searchers ----------------------------------------------------------------
#
# Pure-Python runs of the library's searchers, step by step, with the
# library's draw order: ties go to ``rng.integers(len(candidates))`` over the
# candidate loci in ascending order, and the netcrawler draws one scalar
# ``rng.integers(n)`` per step. Each returns the terminal, its total, the
# step and move counts, the evaluations charged (n per scan of a point's
# neighbors, n + n*(n-1)/2 per scan of its distance-2 ball) and the trace as
# (kind, total) pairs.


def _memo_totals(landscape):
    memo = {}

    def total(s):
        if s not in memo:
            memo[s] = naive_total(landscape, s)
        return memo[s]

    return total


def _run(s, total, steps, flat, gate, evaluations, trace):
    return {"terminal": s, "total": total, "steps": steps, "flat": flat,
            "gate": gate, "evaluations": evaluations, "trace": trace}


def _climb(landscape, s0, rng, neutral_phase):
    """Hill climbing, or scuba when ``neutral_phase``: while some neutral
    neighbor has a strictly higher evolvability than the current point, move
    to one of highest evolvability (flat move), else jump to a fittest
    strictly fitter neighbor (gate move)."""
    f = _memo_totals(landscape)
    s = tuple(int(b) for b in s0)
    total = f(s)
    flat = gate = evaluations = 0
    trace = [("init", total)]
    while True:
        flips = [f(flip(s, locus)) for locus in range(len(s))]
        evaluations += len(s)
        if neutral_phase:
            neutral = [locus for locus in range(len(s)) if flips[locus] == total]
            evols = [max(f(m) for m in neighborhood(flip(s, locus))) for locus in neutral]
            evaluations += len(s) * len(neutral)
            if evols and max(evols) > max([total] + flips):
                best = max(evols)
                candidates = [locus for locus, e in zip(neutral, evols) if e == best]
                s = flip(s, candidates[int(rng.integers(len(candidates)))])
                flat += 1
                trace.append(("neutral", total))
                continue
        best = max(flips)
        if best <= total:
            return _run(s, total, flat + gate, flat, gate, evaluations, trace)
        candidates = [locus for locus in range(len(s)) if flips[locus] == best]
        s = flip(s, candidates[int(rng.integers(len(candidates)))])
        total = best
        gate += 1
        trace.append(("improve", total))


def hill_climb(landscape, s0, rng):
    return _climb(landscape, s0, rng, neutral_phase=False)


def scuba(landscape, s0, rng):
    return _climb(landscape, s0, rng, neutral_phase=True)


def hill_climb2(landscape, s0, rng):
    """Two-step hill climbing over the distance-2 ball: while some point
    within distance 2 is strictly fitter, move to a neighbor attaining the
    best such total if one does, else to a neighbor whose own neighborhood
    attains it (a lookahead move, which may lower the total). Each point
    visited is charged ``n + n*(n-1)/2`` queries."""
    f = _memo_totals(landscape)
    s = tuple(int(b) for b in s0)
    n = len(s)
    total = f(s)
    flat = gate = steps = 0
    trace = [("init", total)]
    while True:
        flips = [f(flip(s, locus)) for locus in range(n)]
        reach = [max(f(m) for m in neighborhood(flip(s, locus))) for locus in range(n)]
        best = max([total] + reach)
        if best <= total:
            return _run(s, total, steps, flat, gate, (n + n * (n - 1) // 2) * (steps + 1),
                        trace)
        guide = flips if best in flips else reach
        candidates = [locus for locus in range(n) if guide[locus] == best]
        locus = candidates[int(rng.integers(len(candidates)))]
        s = flip(s, locus)
        kind = "improve" if flips[locus] > total else (
            "neutral" if flips[locus] == total else "descend")
        flat += kind == "neutral"
        gate += kind == "improve"
        steps += 1
        total = flips[locus]
        trace.append((kind, total))


def netcrawler(landscape, s0, rng, step_max):
    """``step_max`` uniform proposals, each one query; a proposal that does
    not lower the total is taken."""
    f = _memo_totals(landscape)
    s = tuple(int(b) for b in s0)
    total = f(s)
    flat = gate = 0
    trace = [("init", total)]
    for _ in range(step_max):
        locus = int(rng.integers(len(s)))
        proposal = f(flip(s, locus))
        if proposal >= total:
            s = flip(s, locus)
            kind = "neutral" if proposal == total else "improve"
            flat += proposal == total
            gate += proposal > total
            total = proposal
        else:
            kind = "reject"
        trace.append((kind, total))
    return _run(s, total, step_max, flat, gate, step_max, trace)


def memo_degn(landscape):
    """Neutral degree of a genotype from naive totals, memoized per landscape."""
    f = _memo_totals(landscape)
    return lambda s: sum(f(m) == f(s) for m in neighbors(s))


# -- neutral-mutation profile -------------------------------------------------


def replay(landscape, config, rec):
    """The trace of one sweep record's run on its ``landscape``, rebuilt from
    its run seed as the sweep draws it: ``default_rng(run_seed)``, the start
    genotype, then a traced ``search``; the replay must give the record."""
    from scubasearch import search

    rng = np.random.default_rng(rec.run_seed)
    s0 = rng.integers(0, 2, size=config.n, dtype=np.uint8)
    result, = search(landscape, rec.heuristic, [s0], [rng], config.step_max, trace=True)
    assert (result.fitness.total, result.steps, result.flat_count, result.gate_count,
            result.evaluations) == (rec.fitness_total, rec.steps, rec.flat, rec.gate,
                                    rec.evaluations)
    return result.trace


def replays(report):
    """``(record, landscape, trace)`` of each record of ``report``, each
    record's landscape regenerated from its seed once and its run replayed
    (:func:`replay`)."""
    from scubasearch import generate

    landscapes = {}
    config = report.config
    for rec in report.records:
        key = (rec.k, rec.q, rec.landscape_seed)
        if key not in landscapes:
            landscapes[key] = generate(config.n, rec.k, rec.q, config.mode,
                                       seed=rec.landscape_seed)
        yield rec, landscapes[key], replay(landscapes[key], config, rec)


def trace_counts(trace, n):
    """(4, n+1) counts of one traced run by the neutral degree of each
    step's source, read off the trace's ``degns`` and ``kinds``: steps,
    neutral steps, visits closed (steps that are not rejections) and
    neutral visits closed."""
    from scubasearch import MOVE_KINDS

    sources = trace.degns[:-1]
    kinds = trace.kinds[1:]
    neutral = kinds == MOVE_KINDS.index("neutral")
    closes = kinds != MOVE_KINDS.index("reject")
    return np.stack([np.bincount(binned, minlength=n + 1) for binned in
                     (sources, sources[neutral], sources[closes], sources[closes & neutral])])


def neutral_mutation_profile(report, heuristics=("nc", "ss")):
    """The profile by rescanning: replay each record's run (:func:`replays`),
    scan every source state of its trace for its neutral degree, then walk
    the steps, closing a visit on each step that is not a rejection. Rows
    are ``(heuristic, degn, steps, p_neutral_step, visits,
    p_neutral_state)``, sorted by heuristic and degree."""
    from scubasearch import MOVE_KINDS

    acc = {}
    for rec, landscape, trace in replays(report):
        if rec.heuristic not in heuristics or len(trace) < 2:
            continue
        totals, flips = landscape.batch_scan(trace.genotypes()[:-1])
        degns = (flips == totals[:, None]).sum(axis=1)
        kinds = [MOVE_KINDS[kind] for kind in trace.kinds[1:].tolist()]
        visit_degn = None
        for d, kind in zip(degns.tolist(), kinds):
            entry = acc.setdefault((rec.heuristic, d), [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += kind == "neutral"
            if visit_degn is None:
                visit_degn = d
            if kind != "reject":
                visit = acc[(rec.heuristic, visit_degn)]
                visit[2] += 1
                visit[3] += kind == "neutral"
                visit_degn = None
    return [(h, d, steps, neutral / steps, visits,
             neutral_visits / visits if visits else 0.0)
            for (h, d), (steps, neutral, visits, neutral_visits) in sorted(acc.items())]
