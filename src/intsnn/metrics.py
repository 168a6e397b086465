"""Per-run statistics and grouped summaries over spike rasters."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .dynamics import CENSORED, DETECTED, CycleReport
from .textio import write_text

WINDOW_CAP = 500

RECORD_COLUMNS = [
    "run_id",
    "n",
    "density",
    "bits",
    "seed",
    "mean_firing_rate",
    "active_fraction",
    "pseudo_rank",
    "cycle_status",
    "transient",
    "period",
]

SUMMARY_COLUMNS = [
    "bits",
    "mean_firing_rate",
    "mean_active_fraction",
    "mean_pseudo_rank",
    "median_cycle",
    "censor_fraction",
    "run_count",
]

FOCUSED_COLUMNS = ["bits", "mean_firing_rate", "std_firing_rate", "run_count"]


@dataclass
class MetricsRecord:
    """Statistics and provenance of a single run."""

    run_id: str
    n: int
    density: float
    bits: int
    seed: int
    mean_firing_rate: float
    active_fraction: float
    pseudo_rank: int
    cycle: CycleReport


@dataclass
class BitsSummary:
    """Aggregate over all records sharing one bit width."""

    bits: int
    mean_firing_rate: float
    mean_active_fraction: float
    mean_pseudo_rank: float
    median_cycle: float | None
    censor_fraction: float
    run_count: int
    std_firing_rate: float


def default_window(horizon: int) -> int:
    """Tail window length used by the rank surrogate."""
    return min(WINDOW_CAP, horizon // 2)


def firing_rate(raster: np.ndarray) -> float:
    """Fraction of (step, neuron) slots carrying a spike."""
    r = np.asarray(raster)
    if r.size == 0:
        raise ValueError("empty raster")
    return float(np.count_nonzero(r)) / r.size


def active_fraction(raster: np.ndarray) -> float:
    """Fraction of neurons that spike at least once."""
    r = np.asarray(raster)
    if r.size == 0:
        raise ValueError("empty raster")
    return float(np.count_nonzero(r.any(axis=0))) / r.shape[1]


def pseudo_rank(
    raster: np.ndarray, window: int | None = None, memo: dict | None = None
) -> int:
    """Exact rank over the rationals of the last `window` raster rows.

    Duplicate rows (one pass over the window's bytes), the zero row and
    all-zero columns are discarded first; none changes the rank. What
    is left, A, is eliminated modulo a prime through its Gram matrix
    AᵀA, which has the rank of A over Q (|Ax|² = xᵀAᵀAx), or as it is
    when a sum of AᵀA could pass 2^53. A kernel certificate checked
    against A proves that rank exact; when it fails, fraction-free
    (Bareiss) elimination gives the rank instead. There is no
    floating-point tolerance anywhere; a raster holding anything but
    integers in int64 range is refused. `window` defaults to
    min(500, T // 2).

    A caller ranking many windows may pass one `memo` dict to them all.
    It maps (dtype, row width in bytes, set of distinct nonzero rows) to
    the rank, so a window whose rows, in any order and with any repeats,
    form a set ranked before is not eliminated again. The key holds the
    rows themselves, not a hash of them, so a hit is exact.
    """
    r = np.asarray(raster)
    if r.ndim != 2 or r.size == 0:
        raise ValueError("raster must be a nonempty 2-d matrix")
    horizon = r.shape[0]
    if window is None:
        window = default_window(horizon)
    if not 0 <= window <= horizon:
        raise ValueError(f"window must lie in 0..{horizon}, got {window}")
    if window == 0:
        return 0
    tail = r[horizon - window :]
    # Rows are deduplicated in their own dtype (uint8 for sweep rasters)
    # and cast to int64 after; a safe cast keeps distinct rows distinct.
    # Any other dtype is cast only when it holds integers in int64 range.
    if not np.can_cast(tail.dtype, np.int64):
        values = tail.ravel().tolist()
        if not all(isinstance(x, (int, np.integer)) for x in values) or not (
            -(2**63) <= min(values) <= max(values) < 2**63
        ):
            raise ValueError(
                f"raster of dtype {r.dtype} holds a value that is not an "
                "integer in int64 range"
            )
        tail = tail.astype(np.int64)
    width = tail.shape[1] * tail.itemsize
    rows = np.ascontiguousarray(tail).view(f"V{width}")[:, 0].tolist()
    kept = dict.fromkeys(rows)
    kept.pop(bytes(width), None)
    if memo is not None:
        key = (tail.dtype.str, width, frozenset(kept))
        if key in memo:
            return memo[key]
    mat = np.frombuffer(b"".join(kept), dtype=tail.dtype).reshape(-1, tail.shape[1])
    rank = _modular_rank(mat[:, mat.any(axis=0)])
    if memo is not None:
        memo[key] = rank
    return rank


# A prime below 2^31, so the product of two residues fits in int64.
_P = 2**31 - 1
# Rows per block in the elimination and the kernel check. Small blocks
# keep the temporaries, and the heap the allocator retains, small.
_BLOCK = 64


def _modular_rank(mat: np.ndarray) -> int:
    """Rank over the rationals of an integer matrix A (m x c), certified.

    The c x c Gram matrix G = AᵀA is eliminated in place of A when
    float64 forms it exactly, that is when max|A|² * m < 2^53, as for
    every 0/1 window of fewer than 2^53 rows. G has the rank
    of A over Q: xᵀAᵀAx = |Ax|², so Gx = 0 forces Ax = 0, and G has
    A's column dependencies. Otherwise A itself is eliminated.

    Elimination mod _P gives r = rank_p(G) (or rank_p(A)), and
    rank_p(G) <= rank_Q(G) = rank_Q(A), since a minor that is nonzero
    mod _P is nonzero. So r is exact when it equals min(m, c). Otherwise each free column's
    kernel vector is read from the reduced echelon form as integers
    and checked exactly against A, never against G; c - r independent
    kernel vectors prove the rank over Q is at most r. When the check
    fails, Bareiss elimination decides.
    """
    # initial=0: the 0 x 0 window left when every row is zero has no max.
    largest = max(int(mat.max(initial=0)), -int(mat.min(initial=0)))
    if largest * largest * len(mat) < 2**53:
        # Every partial sum is an integer below 2^53, so the float64
        # BLAS product is exact in any summation order.
        a = mat.astype(np.float64)
        work = (a.T @ a).astype(np.int64)
        del a  # the m x c copy need not outlive the product
    else:
        work = mat.astype(np.int64)
    rank = _certified_rank(work, mat)
    if rank is None:
        rank = _fraction_free_rank(mat.tolist())
    return rank


def _certified_rank(work: np.ndarray, mat: np.ndarray) -> int | None:
    """Rank over Q of `mat` read from the int64 matrix `work`, which is
    `mat` or its Gram matrix; None when the rank mod _P is not proved.
    `work` is overwritten."""
    work %= _P
    pivots = _echelon(work)
    rank = len(pivots)
    if rank == min(mat.shape):
        return rank
    # Reduce the echelon block alone; the rows below it are zero.
    echelon = work[:rank]
    for i in range(rank - 1, 0, -1):
        col = pivots[i]
        above = echelon[:i, col].nonzero()[0]
        _eliminate(echelon, above, col, echelon[i, col:])
    if _annihilates(mat, _kernel_basis(echelon, pivots)):
        return rank
    return None


def _echelon(work: np.ndarray) -> list[int]:
    """Forward elimination mod _P of the residue matrix `work`, in
    place, to row echelon form with pivots 1; returns the pivot
    columns."""
    rows, cols = work.shape
    pivots = []
    for col in range(cols):
        top = len(pivots)
        below = work[top:, col].nonzero()[0] + top
        if below.size == 0:
            continue
        if below[0] != top:
            work[[top, below[0]]] = work[[below[0], top]]
        prow = work[top, col:]
        prow *= pow(int(prow[0]), -1, _P)
        prow %= _P
        _eliminate(work, below[1:], col, prow)
        pivots.append(col)
        if len(pivots) == rows:
            break
    return pivots


def _eliminate(work: np.ndarray, targets, col: int, prow: np.ndarray) -> None:
    """Clear column `col` of the rows `targets` mod _P by subtracting
    multiples of `prow`, the pivot row from `col` on with pivot 1."""
    for start in range(0, len(targets), _BLOCK):
        part = targets[start : start + _BLOCK]
        block = work[part, col:]
        # Both factors are residues below 2^31, so the difference stays
        # above -2^62 and one reduction suffices.
        block -= np.multiply.outer(block[:, 0], prow)
        block %= _P
        work[part, col:] = block


def _kernel_basis(echelon: np.ndarray, pivots: list[int]) -> np.ndarray:
    """int64 matrix whose columns are kernel vectors mod _P of the
    matrix with reduced echelon form `echelon`, one per free column.

    The vector of free column f is 1 at f and, at pivots[i], the residue
    of -echelon[i, f] nearest 0. It is 1 at f and 0 at the other free
    columns, so the vectors are independent whatever their other
    entries; whether they are kernel vectors over Q is for the exact
    check to decide.
    """
    cols = echelon.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    entries = (-echelon[:, free]) % _P
    entries[entries > _P // 2] -= _P
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = entries
    return basis


def _annihilates(mat: np.ndarray, basis: np.ndarray) -> bool:
    """Whether mat @ basis == 0 exactly, checked in int64; False when
    the bound below does not show that no partial sum can overflow."""
    largest = max(int(mat.max()), -int(mat.min()))
    # Summed in Python ints: an int64 sum could wrap below the bound.
    norm = int(np.abs(basis).sum(axis=0, dtype=object).max())
    if largest * norm >= 2**63:
        return False
    return not any(
        (mat[start : start + _BLOCK].astype(np.int64) @ basis).any()
        for start in range(0, len(mat), _BLOCK)
    )


def _fraction_free_rank(work: list[list[int]]) -> int:
    """Bareiss elimination on exact integers; returns the matrix rank."""
    m = len(work)
    ncols = len(work[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        pivot = None
        for i in range(rank, m):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        p = prow[c]
        for i in range(rank + 1, m):
            row = work[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - f * prow[j]) // prev
            row[c] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def delay_embed(trace, tau: int) -> list[tuple[int, int]]:
    """Pairs (x(t), x(t + tau)) for t = 0..len - tau - 1."""
    values = [int(x) for x in trace]
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if tau >= len(values):
        raise ValueError(f"tau {tau} must be below trace length {len(values)}")
    return [(values[t], values[t + tau]) for t in range(len(values) - tau)]


def summarize(records: list[MetricsRecord]) -> list[BitsSummary]:
    """Per-bit-width aggregates, ordered by bits.

    Means run over every record in the group. The cycle median covers
    detected runs only; an even count averages the two central values,
    so half-integral medians are expected. Censored runs are counted in
    censor_fraction instead. Standard deviation is the population form.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[int, list[MetricsRecord]] = {}
    for record in records:
        groups.setdefault(record.bits, []).append(record)
    out = []
    for bits in sorted(groups):
        group = groups[bits]
        rates = [r.mean_firing_rate for r in group]
        periods = [
            r.cycle.period for r in group if r.cycle.status == DETECTED
        ]
        censored = sum(1 for r in group if r.cycle.status == CENSORED)
        out.append(
            BitsSummary(
                bits=bits,
                mean_firing_rate=statistics.fmean(rates),
                mean_active_fraction=statistics.fmean(
                    r.active_fraction for r in group
                ),
                mean_pseudo_rank=statistics.fmean(
                    r.pseudo_rank for r in group
                ),
                median_cycle=(
                    float(statistics.median(periods)) if periods else None
                ),
                censor_fraction=censored / len(group),
                run_count=len(group),
                std_firing_rate=statistics.pstdev(rates),
            )
        )
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path, columns, rows) -> None:
    """CSV with header `columns` and one line per row of values."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def write_records_csv(records: list[MetricsRecord], path) -> None:
    # The last three columns are the fields of the record's CycleReport.
    _write_table(
        path,
        RECORD_COLUMNS,
        (
            [getattr(r, c) for c in RECORD_COLUMNS[:-3]]
            + [r.cycle.status, r.cycle.transient, r.cycle.period]
            for r in records
        ),
    )


def read_records_csv(path) -> list[MetricsRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(RECORD_COLUMNS):
        raise ValueError(f"unrecognized records header in {path}")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(RECORD_COLUMNS):
            raise ValueError(f"malformed records row: {line!r}")
        row = dict(zip(RECORD_COLUMNS, parts))
        cycle = CycleReport(
            status=row["cycle_status"],
            transient=int(row["transient"]) if row["transient"] else None,
            period=int(row["period"]) if row["period"] else None,
        )
        records.append(
            MetricsRecord(
                run_id=row["run_id"],
                n=int(row["n"]),
                density=float(row["density"]),
                bits=int(row["bits"]),
                seed=int(row["seed"]),
                mean_firing_rate=float(row["mean_firing_rate"]),
                active_fraction=float(row["active_fraction"]),
                pseudo_rank=int(row["pseudo_rank"]),
                cycle=cycle,
            )
        )
    return records


def write_summary_csv(summaries: list[BitsSummary], path) -> None:
    _write_table(
        path,
        SUMMARY_COLUMNS,
        ([getattr(s, c) for c in SUMMARY_COLUMNS] for s in summaries),
    )


def write_focused_csv(summaries: list[BitsSummary], path) -> None:
    """Companion table for repeated-run cells: firing-rate spread."""
    _write_table(
        path,
        FOCUSED_COLUMNS,
        ([getattr(s, c) for c in FOCUSED_COLUMNS] for s in summaries),
    )
