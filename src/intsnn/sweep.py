"""Deterministic experiment grids over size, density, and bit width."""

from __future__ import annotations

import contextlib
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
    LaneStack,
    Network,
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

# Cells per cohort, the unit of sweep work. Its live lanes step in one
# kernel call per tick, and each lane holds its visited states until it
# retires, so memory grows with the width. On a 2-core Xeon, 8 focused
# sweeps took 1.98 s with one network a job, and 1.54, 1.42 and 1.36 s
# with cohorts of 8, 16 and 32 lanes; at 8 the benchmark's focused peak
# RSS stays within 7% of one network a job, at 16 it read 7-10% above.
LANES = 8

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
    rows: np.ndarray,
    cycle: CycleReport,
    horizon: int,
    window: int,
    memo: dict | None = None,
) -> tuple[float, float, int]:
    """Full-horizon metrics from the spike rows of steps 1..t2 (all
    `horizon` rows when censored) that first_revisit yields.

    A censored run is all transient (mu = horizon, period 1). Recorded
    row i stands for one step before mu and for (horizon - 1 - i) //
    period + 1 from mu on; spike counts are weighted by that in Python
    ints, so the total is exact past 2^63. Only the last `window` step
    rows s are folded onto recorded rows, s >= mu onto mu + (s - mu) %
    period. `memo` goes to `pseudo_rank`, which ranks a window once per
    distinct row set it holds."""
    n = rows.shape[1]
    detected = cycle.status == DETECTED
    mu, period = (cycle.transient, cycle.period) if detected else (horizon, 1)
    i = np.arange(len(rows))
    steps = np.where(i < mu, 1, (horizon - 1 - i) // period + 1).astype(object)
    rate = int(rows.sum(axis=1, dtype=np.int64) @ steps) / (horizon * n)
    active = float(np.count_nonzero(rows.any(axis=0))) / n
    s = np.arange(horizon - window, horizon)
    tail = rows[np.where(s < mu, s, mu + (s - mu) % period)]
    rank = pseudo_rank(tail, window=window, memo=memo) if window > 0 else 0
    return rate, active, rank


def run_cell(
    grid: SweepGrid,
    n: int,
    density: float,
    bits: int,
    seed_idx: int,
    *,
    revisit: tuple[np.ndarray, CycleReport] | None = None,
    memo: dict | None = None,
) -> MetricsRecord:
    """One record, reproducible in isolation from the grid parameters.

    A cohort passes `revisit`, the (rows, report) that first_revisit
    yielded for this cell's lane, and the record is read from it.
    Without it the cell builds its own network and steps as a cohort of
    one lane. A cohort also passes its rank `memo` (see `_measure_run`);
    a lone cell passes none.
    """
    if revisit is None:
        net = build_network(grid, n, density, bits)
        _, _, init_seed = cell_seeds(grid.master_seed, n, density, bits, seed_idx)
        init = initial_state(net, init_seed)
        _, *revisit = next(
            first_revisit(net, init.v[None], init.s[None], grid.horizon)
        )
    rows, cycle = revisit
    rate, active, rank = _measure_run(
        rows, cycle, grid.horizon, default_window(grid.horizon), memo
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


@contextlib.contextmanager
def _failures_name(cell):
    """Raise what the block raises as a CellError naming `cell`, unless
    it already names one."""
    try:
        yield
    except CellError:
        raise
    except Exception as exc:
        raise CellError(
            f"cell {format_run_id(*cell)} failed: {type(exc).__name__}: {exc}"
        ) from exc


def _cohorts(grid: SweepGrid) -> list[list[tuple[int, float, int, int]]]:
    """The grid's cells in cohorts: runs of up to LANES consecutive
    cells that share n, each `(n, density, bits)` network in one
    cohort, unless it has more than LANES seeds (then LANES a cohort)."""
    out: list[list] = []
    for _, group in itertools.groupby(grid.cells(), key=lambda c: c[:3]):
        group = list(group)
        for i in range(0, len(group), LANES):
            part = group[i : i + LANES]
            last = out[-1] if out else []
            if last and last[0][0] == part[0][0] and len(last) + len(part) <= LANES:
                last.extend(part)
            else:
                out.append(part)
    return out


def _cohort_scans(grid: SweepGrid, cells) -> list[tuple]:
    """(network, cells, v, s) for each batch of a cohort to scan: its
    int64 networks, then each object-mode network with its own seeds as
    lanes. One int64 network steps its lanes itself; two or more step
    as one LaneStack, built in one call once all of them are. Each
    network lives until then: the traced build peak of a full cohort
    (density 0.9, bits 9..16) read 0.96 MB at n=74 and 2.90 MB at
    n=130, below the 1.50 and 3.18 MB of the whole cohort job."""
    # (network, cells, initial states) of each int64 network, and of
    # each object-mode one
    int64, alone = [], []
    for key, group in itertools.groupby(cells, key=lambda c: c[:3]):
        group = list(group)
        with _failures_name(group[0]):
            net = build_network(grid, *key)
            starts = [
                initial_state(net, cell_seeds(grid.master_seed, *cell)[2])
                for cell in group
            ]
        (alone if net.state_dtype is object else int64).append((net, group, starts))
    if len(int64) > 1:
        nets, groups, inits = zip(*int64)
        stack = LaneStack(zip(nets, map(len, groups)))
        int64 = [(stack, sum(groups, []), sum(inits, []))]
    return [
        (net, group, np.stack([x.v for x in starts]), np.stack([x.s for x in starts]))
        for net, group, starts in int64 + alone
    ]


def _run_cohort(job) -> list[MetricsRecord]:
    """The records of one cohort of cells that share n.

    Each tick steps the cohort's live lanes in one kernel call. A lane's
    record is made by `run_cell` when the lane retires, so a failure
    there names the lane's run_id, a failed build names the network's
    first cell, and a failure in the shared stepping names the cohort's
    first cell. The cohort's lanes share one rank memo, so seeds that
    settle on one attractor rank its rows once; it holds at most LANES
    entries and is dropped with the cohort.
    """
    grid, cells = job
    records = []
    memo: dict = {}
    with _failures_name(cells[0]):
        for net, group, v, s in _cohort_scans(grid, cells):
            for lane, rows, cycle in first_revisit(net, v, s, grid.horizon):
                with _failures_name(group[lane]):
                    records.append(
                        run_cell(grid, *group[lane], revisit=(rows, cycle), memo=memo)
                    )
    return records


def run_grid(grid: SweepGrid, workers: int | None = None) -> list[MetricsRecord]:
    """Every cell of the grid, sorted by run_id.

    One job runs one cohort (see `_cohorts`), building each network
    once. Records are independent of worker count and scheduling: each
    cell derives its own seeds from the master seed, lanes step
    independently, and aggregation sorts by run_id before returning. A
    cell that raises, in this process or in a pool worker, is raised
    again as a CellError naming its run_id (see `_run_cohort`).
    `workers` must be at least 1; the pool never has more processes
    than there are jobs.
    """
    grid.validate()
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [(grid, cells) for cells in _cohorts(grid)]
    if workers is not None and workers > 1 and len(jobs) > 1:
        chunk = max(1, len(jobs) // (workers * 8))
        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            groups = pool.map(_run_cohort, jobs, chunksize=chunk)
    else:
        groups = [_run_cohort(job) for job in jobs]
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
