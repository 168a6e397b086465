"""Deterministic integer-state spiking network simulator and sweep harness.

Networks hold bounded-integer membrane potentials updated by a
shift-leak rule with integer synaptic weights and thresholds, making
every run an exact finite-state computation: trajectories can be
replayed bit for bit, recurrences detected exactly, and small networks
enumerated exhaustively.
"""

__version__ = "0.1.0"

from .arith import SATURATE, SIGNED, UNSIGNED, WRAP, IntegerDomain, clamp, leak_shift
from .network import (
    RESET_NONE,
    RESET_SUBTRACT,
    Network,
    NetworkState,
    generate_topology,
    initial_state,
    network_from_json,
    network_to_json,
    sample_thresholds,
    step,
)
from .dynamics import (
    CENSORED,
    DETECTED,
    Attractor,
    CycleReport,
    StateGraphReport,
    Trajectory,
    decode_state,
    detect_cycle,
    detection_mismatches,
    encode_state,
    enumerate_state_graph,
    oracle_json,
    simulate,
    state_space_size,
    write_trajectory_csv,
)
from .metrics import (
    BitsSummary,
    MetricsRecord,
    active_fraction,
    default_window,
    delay_embed,
    firing_rate,
    pseudo_rank,
    read_records_csv,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from .sweep import (
    DEFAULT_MASTER_SEED,
    CellError,
    SweepGrid,
    build_manifest,
    build_network,
    cell_seeds,
    run_cell,
    run_focused,
    run_grid,
    top_recurrent,
    write_manifest,
)
from .rng import Xoshiro256StarStar, derive_seed, splitmix64

__all__ = [
    "__version__",
    "IntegerDomain", "clamp", "leak_shift",
    "UNSIGNED", "SIGNED", "SATURATE", "WRAP",
    "Network", "NetworkState", "RESET_NONE", "RESET_SUBTRACT",
    "generate_topology", "sample_thresholds", "step", "initial_state",
    "network_to_json", "network_from_json",
    "Trajectory", "CycleReport", "Attractor", "StateGraphReport",
    "DETECTED", "CENSORED",
    "simulate", "detect_cycle", "enumerate_state_graph",
    "state_space_size", "decode_state", "encode_state",
    "detection_mismatches", "oracle_json", "write_trajectory_csv",
    "MetricsRecord", "BitsSummary",
    "firing_rate", "active_fraction", "pseudo_rank", "delay_embed",
    "summarize", "default_window",
    "read_records_csv", "write_records_csv", "write_summary_csv",
    "SweepGrid", "DEFAULT_MASTER_SEED", "CellError",
    "run_grid", "run_focused", "run_cell", "top_recurrent",
    "build_network", "cell_seeds", "build_manifest", "write_manifest",
    "Xoshiro256StarStar", "splitmix64", "derive_seed",
]
