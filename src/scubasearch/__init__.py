"""Scuba search and comparison heuristics on NKq fitness landscapes.

Core pieces: exact-integer NKq landscapes (:mod:`.landscape`), one-bit
neighborhood scans with strict evaluation accounting (:mod:`.neighborhood`),
the heuristics themselves (:mod:`.heuristics`), a seeded sweep harness
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
    StepStatsRow,
    SweepConfig,
    SweepReport,
    derive_seed,
    landscape_seed,
    neutral_degree_instance_means,
    neutral_degree_stats,
    neutral_mutation_profile,
    run_heuristic,
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
    TraceStep,
    hill_climb,
    hill_climb2,
    netcrawler,
    scuba,
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
    ScoreVector,
    adjacent_links,
    as_genotype,
    check_params,
    deserialize,
    generate,
    load_landscape,
    save_landscape,
    serialize,
)
from .neighborhood import (
    EVOLVABILITY,
    FITNESS,
    GUIDES,
    STRUCTURES,
    V,
    V2,
    VN,
    EvalCounter,
    PlateauScan,
    evol,
    evol2,
    extended_scan,
    is_local,
    neutral_degree,
)
from .pathgraph import (
    CENSUS_HEADER,
    GRAPH_KINDS,
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
