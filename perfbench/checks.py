"""Output checks, written independently of the program's own metric code.

- Byte digests of sweep outputs, compared with digests recorded from a
  known-good commit (digests.json).
- A naive recomputation of sampled sweep records through the plain
  full-history pipeline (`simulate` + `detect_cycle`), with the spike
  statistics and the rank computed here. The rank uses elimination
  over `fractions.Fraction`, not the program's `pseudo_rank`.
- For the oracle: basins partition the state space and the detector
  agrees with the enumeration from every start state.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

RECORD_COLUMNS = (
    "run_id", "n", "density", "bits", "seed", "mean_firing_rate",
    "active_fraction", "pseudo_rank", "cycle_status", "transient", "period",
)


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(table: dict, family: str, seed: int, index: int):
    """Recorded digest for unit `index` of a pinned seed, else None."""
    entries = table.get(family, {}).get(str(seed))
    if entries is None or index >= len(entries):
        return None
    return entries[index]


def files_digest(out: Path, names) -> str:
    """sha256 over the named files' names and bytes, in the given order."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def oracle_digest(report) -> str:
    """sha256 over everything an enumeration reports."""
    h = hashlib.sha256()
    h.update(str(report.state_count).encode())
    for arr in (report.transients, report.periods, report.attractor_ids):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    for a in report.attractors:
        h.update(f"|{a.period},{a.basin_size},{a.representative}".encode())
    return h.hexdigest()


def basins_partition(report) -> bool:
    """Every state belongs to exactly one attractor's basin, and the
    reported basin sizes are the counts of those memberships."""
    ids = np.asarray(report.attractor_ids)
    count = len(report.attractors)
    if ids.shape != (report.state_count,) or count == 0:
        return False
    if ids.min() < 0 or ids.max() >= count:
        return False
    sizes = np.bincount(ids, minlength=count)
    return [int(x) for x in sizes] == [a.basin_size for a in report.attractors]


def read_records(path: Path) -> list[dict]:
    """records.csv rows as dicts of strings."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != RECORD_COLUMNS:
        raise ValueError(f"unexpected records header in {path}")
    return [dict(zip(RECORD_COLUMNS, line.split(","))) for line in lines[1:]]


def fraction_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank over the rationals by incremental row reduction in Fractions.

    Each row is reduced against the basis found so far; a nonzero
    remainder joins the basis with its pivot scaled to 1.
    """
    if not rows:
        return 0
    ncols = len(rows[0])
    basis: dict[int, list[Fraction]] = {}
    for row in rows:
        vec = [Fraction(x) for x in row]
        for col in sorted(basis):
            f = vec[col]
            if f:
                b = basis[col]
                for j in range(col, ncols):
                    if b[j]:
                        vec[j] -= f * b[j]
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is None:
            continue
        inv = 1 / vec[pivot]
        basis[pivot] = [x * inv for x in vec]
        if len(basis) == ncols:
            break
    return len(basis)


def naive_record(master_seed: int, n: int, density: float, bits: int,
                 seed_idx: int, horizon: int) -> dict:
    """One cell through the full-history pipeline, as record strings are
    compared: numbers as Python values, cycle fields as in the CSV."""
    from intsnn.dynamics import detect_cycle, simulate
    from intsnn.network import initial_state
    from intsnn.sweep import SweepGrid, build_network, cell_seeds

    grid = SweepGrid(sizes=[n], densities=[density], bit_widths=[bits],
                     horizon=horizon, master_seed=master_seed)
    net = build_network(grid, n, density, bits)
    _, _, init_seed = cell_seeds(master_seed, n, density, bits, seed_idx)
    init = initial_state(net, init_seed)
    raster = simulate(net, init, horizon).raster
    cycle = detect_cycle(net, init, horizon)

    window = min(500, horizon // 2)
    tail = [tuple(int(x) for x in row) for row in raster[horizon - window:]]
    distinct = [r for r in dict.fromkeys(tail) if any(r)]
    live = [j for j in range(n) if any(r[j] for r in distinct)]
    rank = fraction_rank([tuple(r[j] for j in live) for r in distinct])
    return {
        "mean_firing_rate": int(np.count_nonzero(raster)) / (horizon * n),
        "active_fraction": int(np.count_nonzero(raster.any(axis=0))) / n,
        "pseudo_rank": rank,
        "cycle_status": cycle.status,
        "transient": "" if cycle.transient is None else str(cycle.transient),
        "period": "" if cycle.period is None else str(cycle.period),
    }


def record_matches(row: dict, master_seed: int, horizon: int) -> bool:
    """Whether a records.csv row equals its naive recomputation."""
    expect = naive_record(master_seed, int(row["n"]), float(row["density"]),
                          int(row["bits"]), int(row["seed"]), horizon)
    return (
        float(row["mean_firing_rate"]) == expect["mean_firing_rate"]
        and float(row["active_fraction"]) == expect["active_fraction"]
        and int(row["pseudo_rank"]) == expect["pseudo_rank"]
        and row["cycle_status"] == expect["cycle_status"]
        and row["transient"] == expect["transient"]
        and row["period"] == expect["period"]
    )
