"""Deterministic experiment grids over size, density, and bit width."""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .arith import SATURATE, SIGNED, UNSIGNED, WRAP, IntegerDomain
from .dynamics import DETECTED, CycleReport, first_revisit
from .metrics import (
    BitsSummary,
    MetricsRecord,
    default_window,
    pseudo_rank,
    summarize,
)
from .network import (
    RESET_NONE,
    RESET_SUBTRACT,
    Network,
    NetworkState,
    generate_topology,
    initial_state,
    sample_thresholds,
)
from .rng import (
    STREAM_INITIAL,
    STREAM_THRESHOLDS,
    STREAM_TOPOLOGY,
    derive_seed,
    float_key,
)
from .textio import write_text

# Default seed calibrated once alongside the weight range: the topology
# instances it draws put the shipped focused cells in the active firing
# band with detected cycles well inside the horizon.
DEFAULT_MASTER_SEED = 2
DEFAULT_SIZES = list(range(30, 131, 2))
DEFAULT_DENSITIES = [i / 10 for i in range(1, 10)]
DEFAULT_BITS = list(range(1, 17))
DEFAULT_THRESHOLD_RANGE = (4, 8)

# Weight range chosen by one-time calibration so the focused cells sit in
# the active firing band; excitatory-only ranges drive the rate to the
# saturation ceiling instead. Recorded in every manifest.
DEFAULT_WEIGHT_RANGE = (-4, 4)

FOCUSED_SIZE = 64
FOCUSED_DENSITY = 0.5
FOCUSED_SEEDS = 5

VARIANT_PRESETS: dict[str, dict] = {
    "variant-k8": {"leak_k": 8, "densities": [0.2]},
}

# The allowed values of each mode key, which `validate` and the
# command-line choices both read.
_MODES = {
    "signedness": (UNSIGNED, SIGNED),
    "overflow_mode": (SATURATE, WRAP),
    "reset_mode": (RESET_NONE, RESET_SUBTRACT),
}


@dataclass
class SweepGrid:
    """Cartesian experiment grid plus everything a cell needs to run."""

    sizes: list[int] = field(default_factory=lambda: list(DEFAULT_SIZES))
    densities: list[float] = field(
        default_factory=lambda: list(DEFAULT_DENSITIES)
    )
    bit_widths: list[int] = field(default_factory=lambda: list(DEFAULT_BITS))
    horizon: int = 1000
    threshold_range: tuple[int, int] = DEFAULT_THRESHOLD_RANGE
    leak_k: int = 1
    seeds_per_cell: int = 1
    master_seed: int = DEFAULT_MASTER_SEED
    weight_range: tuple[int, int] = DEFAULT_WEIGHT_RANGE
    signedness: str = "unsigned"
    overflow_mode: str = "saturate"
    reset_mode: str = "none"

    def validate(self) -> None:
        """Reject a grid that could not run, before any cell starts.
        Messages name the config key (`bits`, `threshold_lo`, ...)."""
        axes = (
            ("sizes", self.sizes),
            ("densities", self.densities),
            ("bits", self.bit_widths),
        )
        for key, values in axes:
            if not values:
                raise ValueError(f"{key} must be nonempty")
            # Equal values would emit duplicate run_ids.
            if len(set(values)) != len(values):
                raise ValueError(f"{key} has duplicate values: {values}")
        for n in self.sizes:
            if n < 1:
                raise ValueError(f"sizes must be >= 1, got {n}")
        for density in self.densities:
            # -0.0 would key different seeds than 0.0 and format as "-0".
            if not 0.0 <= density <= 1.0 or math.copysign(1.0, density) < 0:
                raise ValueError(f"densities must lie in [0, 1], got {density}")
        for a, b in itertools.combinations(self.densities, 2):
            if f"{a:g}" == f"{b:g}":
                raise ValueError(f"densities {a} and {b} share run_id label d{a:g}")
        for bits in self.bit_widths:
            if not 1 <= bits <= 64:
                raise ValueError(f"bits must lie in 1..64, got {bits}")
        # Seeds are folded modulo 2^64, so -1 would alias 2^64 - 1.
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(
                f"master_seed must lie in 0..2^64 - 1, got {self.master_seed}"
            )
        # Step indices are int64 in _measure_run.
        if not 1 <= self.horizon < 1 << 63:
            raise ValueError(f"horizon must lie in 1..2^63 - 1, got {self.horizon}")
        if self.seeds_per_cell < 1:
            raise ValueError(
                f"seeds_per_cell must be >= 1, got {self.seeds_per_cell}"
            )
        if self.leak_k < 1:
            raise ValueError(f"leak_k must be >= 1, got {self.leak_k}")
        t_lo, t_hi = self.threshold_range
        if t_lo < 1:
            raise ValueError(f"threshold_lo must be >= 1, got {t_lo}")
        if t_lo > t_hi:
            raise ValueError(
                f"threshold_lo {t_lo} exceeds threshold_hi {t_hi}"
            )
        # Exact uniform draws map one 64-bit output onto the range.
        if t_hi - t_lo + 1 > 1 << 64:
            raise ValueError(
                f"threshold_hi - threshold_lo + 1 must be at most 2^64, "
                f"got {t_hi - t_lo + 1}"
            )
        w_lo, w_hi = self.weight_range
        if w_lo > w_hi:
            raise ValueError(f"weight_lo {w_lo} exceeds weight_hi {w_hi}")
        # Weights are stored as int64.
        if w_lo < -(1 << 63):
            raise ValueError(f"weight_lo must be >= -2^63, got {w_lo}")
        if w_hi > (1 << 63) - 1:
            raise ValueError(f"weight_hi must be <= 2^63 - 1, got {w_hi}")
        if w_lo == w_hi == 0:
            raise ValueError("weight_lo = weight_hi = 0 leaves no nonzero weight")
        for key, allowed in _MODES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(
                    f"{key} must be one of {', '.join(allowed)}, got {value!r}"
                )

    def cells(self) -> list[tuple[int, float, int, int]]:
        return [
            (n, density, bits, seed_idx)
            for n in self.sizes
            for density in self.densities
            for bits in self.bit_widths
            for seed_idx in range(self.seeds_per_cell)
        ]

    def run_count(self) -> int:
        return (
            len(self.sizes)
            * len(self.densities)
            * len(self.bit_widths)
            * self.seeds_per_cell
        )


def format_run_id(n: int, density: float, bits: int, seed_idx: int) -> str:
    return f"N{n:03d}-d{density:g}-b{bits:02d}-s{seed_idx}"


def cell_seeds(
    master_seed: int, n: int, density: float, bits: int, seed_idx: int
) -> tuple[int, int, int]:
    """Stream seeds for one cell, keyed by parameter values.

    Topology and thresholds ignore seed_idx, so repeated-run cells share
    one network while the initial state varies. Standalone reruns need
    only the parameter values, never a position inside some grid.
    `master_seed` and `seed_idx` must lie in 0..2^64 - 1, or each would
    alias another.
    """
    if not 0 <= master_seed < 1 << 64:
        raise ValueError(f"master_seed must lie in 0..2^64 - 1, got {master_seed}")
    if not 0 <= seed_idx < 1 << 64:
        raise ValueError(f"seed must lie in 0..2^64 - 1, got {seed_idx}")
    dkey = float_key(density)
    topology = derive_seed(master_seed, STREAM_TOPOLOGY, n, dkey, bits)
    thresholds = derive_seed(master_seed, STREAM_THRESHOLDS, n, dkey, bits)
    initial = derive_seed(master_seed, STREAM_INITIAL, n, dkey, bits, seed_idx)
    return topology, thresholds, initial


def build_network(grid: SweepGrid, n: int, density: float, bits: int) -> Network:
    """Network for one parameter cell of the grid."""
    topology_seed, threshold_seed, _ = cell_seeds(
        grid.master_seed, n, density, bits, 0
    )
    domain = IntegerDomain(bits, grid.signedness, grid.overflow_mode)
    weights = generate_topology(
        n, density, grid.weight_range[0], grid.weight_range[1], topology_seed
    )
    thresholds = sample_thresholds(
        n, grid.threshold_range[0], grid.threshold_range[1], threshold_seed
    )
    return Network(
        n=n,
        weights=weights,
        thresholds=thresholds,
        leak_k=grid.leak_k,
        domain=domain,
        reset_mode=grid.reset_mode,
        seed_provenance={
            "master_seed": grid.master_seed,
            "topology_seed": topology_seed,
            "threshold_seed": threshold_seed,
            "n": n,
            "density": density,
            "bits": bits,
        },
    )


def _measure_run(
    net: Network, init: NetworkState, horizon: int, window: int
) -> tuple[float, float, int, CycleReport]:
    """Full-horizon metrics from the rows stepped to the first revisit.

    A censored run is all transient (mu = horizon, period 1). Recorded
    row i stands for one step before mu and for (horizon - 1 - i) //
    period + 1 from mu on; spike counts are weighted by that in Python
    ints, so the total is exact past 2^63. Only the last `window` step
    rows s are folded onto recorded rows, s >= mu onto mu + (s - mu) %
    period."""
    raster, cycle = first_revisit(net, init, horizon)
    detected = cycle.status == DETECTED
    mu, period = (cycle.transient, cycle.period) if detected else (horizon, 1)
    i = np.arange(len(raster))
    steps = np.where(i < mu, 1, (horizon - 1 - i) // period + 1).astype(object)
    rate = int(raster.sum(axis=1, dtype=np.int64) @ steps) / (horizon * net.n)
    active = float(np.count_nonzero(raster.any(axis=0))) / net.n
    s = np.arange(horizon - window, horizon)
    tail = raster[np.where(s < mu, s, mu + (s - mu) % period)]
    rank = pseudo_rank(tail, window=window) if window > 0 else 0
    return rate, active, rank, cycle


def run_cell(
    grid: SweepGrid,
    n: int,
    density: float,
    bits: int,
    seed_idx: int,
    *,
    net: Network | None = None,
) -> MetricsRecord:
    """One record, reproducible in isolation from the grid parameters.

    `net`, when given, must be `build_network(grid, n, density, bits)`;
    it lets the seeds of one cell share a network built once.
    """
    if net is None:
        net = build_network(grid, n, density, bits)
    _, _, init_seed = cell_seeds(grid.master_seed, n, density, bits, seed_idx)
    init = initial_state(net, init_seed)
    rate, active, rank, cycle = _measure_run(
        net, init, grid.horizon, default_window(grid.horizon)
    )
    return MetricsRecord(
        run_id=format_run_id(n, density, bits, seed_idx),
        n=n,
        density=density,
        bits=bits,
        seed=seed_idx,
        mean_firing_rate=rate,
        active_fraction=active,
        pseudo_rank=rank,
        cycle=cycle,
    )


class CellError(RuntimeError):
    """A grid cell raised; the message names the cell's run_id."""


def _run_cell_args(args) -> list[MetricsRecord]:
    """The records of one network: every seed index of an `(n, density,
    bits)` cell, run on that network built once."""
    grid, n, density, bits, seed_idxs = args
    run_id = format_run_id(n, density, bits, seed_idxs[0])
    try:
        net = build_network(grid, n, density, bits)
        records = []
        for seed_idx in seed_idxs:
            run_id = format_run_id(n, density, bits, seed_idx)
            records.append(run_cell(grid, n, density, bits, seed_idx, net=net))
        return records
    except Exception as exc:
        raise CellError(
            f"cell {run_id} failed: {type(exc).__name__}: {exc}"
        ) from exc


def run_grid(grid: SweepGrid, workers: int | None = None) -> list[MetricsRecord]:
    """Every cell of the grid, sorted by run_id.

    One job builds one `(n, density, bits)` network and runs all its
    seed indices. Records are independent of worker count and
    scheduling: each cell derives its own seeds from the master seed,
    and aggregation sorts by run_id before returning. A cell that
    raises, in this process or in a pool worker, is raised again as a
    CellError naming its run_id (seed 0's if the build raised).
    `workers` must be at least 1; the pool never has more processes
    than there are jobs.
    """
    grid.validate()
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [
        (grid, *key, [cell[3] for cell in cells])
        for key, cells in itertools.groupby(grid.cells(), key=lambda c: c[:3])
    ]
    if workers is not None and workers > 1 and len(jobs) > 1:
        chunk = max(1, len(jobs) // (workers * 8))
        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            groups = pool.map(_run_cell_args, jobs, chunksize=chunk)
    else:
        groups = [_run_cell_args(job) for job in jobs]
    records = [record for group in groups for record in group]
    records.sort(key=lambda r: r.run_id)
    return records


def focused_grid(
    base: SweepGrid,
    bit_widths: list[int] | None = None,
    n: int = FOCUSED_SIZE,
    density: float = FOCUSED_DENSITY,
    seeds: int = FOCUSED_SEEDS,
) -> SweepGrid:
    """`base` narrowed to one size and density, with `seeds` initial
    conditions per bit width; `bit_widths` defaults to the base's.
    Validated, and refused for fewer than 2 seeds."""
    if seeds < 2:
        raise ValueError(f"need at least 2 seeds for spread, got {seeds}")
    grid = replace(
        base,
        sizes=[n],
        densities=[density],
        bit_widths=list(base.bit_widths if bit_widths is None else bit_widths),
        seeds_per_cell=seeds,
    )
    grid.validate()
    return grid


def run_focused(
    bit_widths: list[int] | None = None,
    n: int = FOCUSED_SIZE,
    density: float = FOCUSED_DENSITY,
    seeds: int = FOCUSED_SEEDS,
    master_seed: int = DEFAULT_MASTER_SEED,
    horizon: int = 1000,
    workers: int | None = None,
) -> tuple[list[MetricsRecord], list[BitsSummary]]:
    """Repeated runs on one topology per bit width.

    All `seeds` initial conditions of a cell see the same network; only
    the starting state stream varies. Needs seeds >= 2 so the reported
    firing-rate spread is meaningful.
    """
    base = SweepGrid(horizon=horizon, master_seed=master_seed)
    grid = focused_grid(base, bit_widths, n, density, seeds)
    records = run_grid(grid, workers=workers)
    return records, summarize(records)


def top_recurrent(records: list[MetricsRecord], count: int) -> list[MetricsRecord]:
    """Records ranked by pseudo-rank, descending; ties fall back to
    firing rate (descending), then run_id (ascending)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not records:
        raise ValueError("no records to rank")
    ranked = sorted(
        records,
        key=lambda r: (-r.pseudo_rank, -r.mean_firing_rate, r.run_id),
    )
    return ranked[:count]


def build_manifest(grid: SweepGrid) -> dict:
    """Everything needed to reproduce a sweep byte for byte."""
    return {
        "version": __version__,
        "master_seed": grid.master_seed,
        "grid": {
            "sizes": list(grid.sizes),
            "densities": list(grid.densities),
            "bit_widths": list(grid.bit_widths),
            "horizon": grid.horizon,
            "threshold_range": list(grid.threshold_range),
            "leak_k": grid.leak_k,
            "seeds_per_cell": grid.seeds_per_cell,
        },
        "model": {
            "signedness": grid.signedness,
            "overflow_mode": grid.overflow_mode,
            "reset_mode": grid.reset_mode,
            "weight_range": list(grid.weight_range),
            "weights_exclude_zero": True,
        },
        "seed_tree": {
            "mixer": "splitmix64-xor-fold",
            "streams": {
                "topology": STREAM_TOPOLOGY,
                "thresholds": STREAM_THRESHOLDS,
                "initial_state": STREAM_INITIAL,
            },
            "float_keying": "ieee754-bits-little-endian",
            "cell_key": ["stream", "n", "density", "bits", "seed_index"],
        },
    }


def write_manifest(grid: SweepGrid, path) -> None:
    text = json.dumps(build_manifest(grid), indent=2, sort_keys=True)
    write_text(path, text + "\n")
