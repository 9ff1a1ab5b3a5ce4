"""Scuba search and comparison heuristics on NKq fitness landscapes.

Core pieces: exact-integer NKq landscapes (:mod:`.landscape`), the
distance-2 scan (:mod:`.neighborhood`), the heuristics themselves and
their query charges (:mod:`.heuristics`), a seeded sweep harness
(:mod:`.experiments`), and exhaustive path-graph export for small landscapes
(:mod:`.pathgraph`). The ``scubasearch`` CLI fronts all of it.
"""

from .experiments import (
    PROFILE_HEADER,
    RECORDS_HEADER,
    STEP_STATS_HEADER,
    SWEEP_HEADER,
    CellStats,
    ProfileRow,
    RunRecord,
    SweepConfig,
    SweepReport,
    derive_seed,
    landscape_seed,
    neutral_degree_instance_means,
    neutral_degree_stats,
    neutral_mutation_profile,
    run_seed,
    run_sweep,
    step_stats,
    write_csv,
    write_profile_csv,
    write_records,
    write_step_stats_csv,
)
from .heuristics import (
    HEURISTICS,
    MOVE_KINDS,
    RunResult,
    Trace,
    hill_climb,
    hill_climb2,
    netcrawler,
    scuba,
    search,
)
from .landscape import (
    ADJACENT,
    MAX_TABLE_ENTRIES,
    MODES,
    RANDOM,
    FitnessValue,
    LandscapeError,
    LandscapeFormatError,
    NkqLandscape,
    adjacent_links,
    as_genotype,
    check_params,
    deserialize,
    generate,
    load_landscape,
    save_landscape,
    serialize,
)
from .neighborhood import extended_scan
from .pathgraph import (
    CENSUS_HEADER,
    MAX_GRAPH_N,
    AnnotatedGraph,
    Census,
    GraphSizeError,
    LandscapeGraph,
    annotate,
    build_graph,
    census,
    to_dot,
)

__version__ = "0.1.0"
