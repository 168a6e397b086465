"""Raster statistics, the exact rank surrogate, and CSV round trips."""

from fractions import Fraction

import numpy as np
import pytest

from intsnn import metrics
from intsnn.dynamics import CycleReport
from intsnn.metrics import (
    FOCUSED_COLUMNS,
    RECORD_COLUMNS,
    SUMMARY_COLUMNS,
    MetricsRecord,
    active_fraction,
    default_window,
    delay_embed,
    firing_rate,
    pseudo_rank,
    read_records_csv,
    summarize,
    write_focused_csv,
    write_records_csv,
    write_summary_csv,
)


def fraction_rank(matrix) -> int:
    """Gauss-Jordan elimination over exact rationals; the independent
    check for the fraction-free integer elimination."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix)]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / prow[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def make_record(bits, rate=0.4, rank=3, status="detected", transient=2,
                period=5, run_id="r", seed=0):
    if status != "detected":
        transient = period = None
    return MetricsRecord(
        run_id=run_id,
        n=8,
        density=0.5,
        bits=bits,
        seed=seed,
        mean_firing_rate=rate,
        active_fraction=0.5,
        pseudo_rank=rank,
        cycle=CycleReport(status=status, transient=transient, period=period),
    )


def test_firing_rate_and_active_fraction():
    raster = np.array([[1, 0], [0, 0]])
    assert firing_rate(raster) == 0.25
    assert firing_rate(np.ones((3, 4))) == 1.0
    assert active_fraction(np.array([[1, 0], [1, 0]])) == 0.5
    assert active_fraction(np.zeros((4, 3))) == 0.0
    with pytest.raises(ValueError):
        firing_rate(np.empty((0, 4)))
    with pytest.raises(ValueError):
        active_fraction(np.empty((0, 4)))


def test_default_window():
    assert default_window(1000) == 500
    assert default_window(2000) == 500
    assert default_window(7) == 3
    assert default_window(1) == 0


def test_pseudo_rank_examples():
    assert pseudo_rank(np.eye(3, dtype=np.int64), window=3) == 3
    assert pseudo_rank(np.array([[1, 1], [1, 1]]), window=2) == 1
    # all rows and columns dropped: the 0 x 0 window ranks 0
    assert pseudo_rank(np.zeros((4, 3), dtype=np.int64), window=4) == 0
    assert pseudo_rank(np.array([[1, 1], [1, 1], [0, 1]]), window=3) == 2


def test_pseudo_rank_window_semantics():
    raster = np.array([[1, 0], [0, 1], [0, 1]])
    assert pseudo_rank(raster, window=3) == 2
    assert pseudo_rank(raster, window=2) == 1  # tail rows are duplicates
    assert pseudo_rank(raster) == 1  # default window is 3 // 2 == 1
    assert pseudo_rank(raster, window=0) == 0
    with pytest.raises(ValueError, match="window"):
        pseudo_rank(np.ones((4, 2), dtype=np.uint8), window=-3)
    with pytest.raises(ValueError):
        pseudo_rank(raster, window=4)
    with pytest.raises(ValueError):
        pseudo_rank(np.empty((0, 2)))


def test_pseudo_rank_matches_fraction_elimination():
    rng = np.random.default_rng(12)
    for _ in range(600):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 11))
        mat = rng.integers(0, 2, size=(rows, cols))
        rank = pseudo_rank(mat, window=rows)
        assert rank == fraction_rank(mat)
        assert 0 <= rank <= min(rows, cols)


def test_pseudo_rank_memo_gives_the_same_ranks():
    # Windows whose rows come from small pools, so row sets repeat,
    # ranked with one shared memo and each without one.
    rng = np.random.default_rng(31)
    pools = [rng.integers(0, 2, size=(6, int(rng.integers(1, 9))), dtype=np.uint8)
             for _ in range(4)]
    memo = {}
    for _ in range(300):
        pool = pools[int(rng.integers(0, 4))]
        rows = int(rng.integers(1, 13))
        window = pool[rng.integers(0, len(pool), size=rows)]
        assert pseudo_rank(window, window=rows, memo=memo) == pseudo_rank(
            window, window=rows
        )
    # at most 4 * 2^6 row sets, so many windows hit the memo
    assert len(memo) < 150


def test_pseudo_rank_memo_eliminates_each_row_set_once(monkeypatch):
    eliminated = []
    modular_rank = metrics._modular_rank

    def counted(mat):
        eliminated.append(mat.shape)
        return modular_rank(mat)

    monkeypatch.setattr(metrics, "_modular_rank", counted)
    rng = np.random.default_rng(8)
    memo = {}
    for case in range(20):
        base = rng.integers(0, 2, size=(12, 9), dtype=np.uint8)
        rank = pseudo_rank(base, window=12, memo=memo)
        assert rank == fraction_rank(base)
        # permuted rows, repeated rows and an added zero row: one set
        for copy in (
            base[rng.permutation(12)],
            np.concatenate([base, base[::-1], base[:3]]),
            np.concatenate([np.zeros((2, 9), dtype=np.uint8), base]),
        ):
            assert pseudo_rank(copy, window=len(copy), memo=memo) == rank
        assert len(eliminated) == len(memo) == case + 1
    # a window of a subset of the rows is a new set
    assert pseudo_rank(base[:4], window=4, memo=memo) == fraction_rank(base[:4])
    assert len(eliminated) == len(memo) == 21


def test_pseudo_rank_memo_keys_on_dtype_and_width():
    # The same bytes as two uint8 rows of width 8 (rank 2), as two int64
    # rows of width 1 (1 and 256, rank 1) and as two int16 rows of width
    # 4 (rank 1): three matrices, so three entries.
    as_bytes = np.zeros((2, 8), dtype=np.uint8)
    as_bytes[0, 0] = as_bytes[1, 1] = 1
    as_int64 = as_bytes.view("<i8")
    as_int16 = as_bytes.view("<i2")
    assert as_int64.tolist() == [[1], [256]]
    memo = {}
    assert pseudo_rank(as_bytes, window=2, memo=memo) == 2
    assert pseudo_rank(as_int64, window=2, memo=memo) == 1
    assert pseudo_rank(as_int16, window=2, memo=memo) == 1
    assert len(memo) == 3
    assert pseudo_rank(as_int64, window=2, memo=memo) == 1


@pytest.fixture
def rank_paths(monkeypatch):
    """Counts, while the test runs, of full ranks proved by the inverse
    check, of ranks decided by elimination of the Gram matrix AᵀA, of
    kernel checks run and passed, and of Bareiss fallbacks."""
    counts = {"inverse": 0, "gram": 0, "checked": 0, "certified": 0,
              "fallback": 0}
    proves_nonsingular = metrics._proves_nonsingular
    certified_rank = metrics._certified_rank
    annihilates = metrics._annihilates
    fraction_free_rank = metrics._fraction_free_rank

    def proved(gram):
        nonsingular = proves_nonsingular(gram)
        counts["inverse"] += nonsingular
        return nonsingular

    def certified(work, mat):
        # A matrix equal to its own Gram matrix takes either path alike.
        a = mat.astype(np.int64)
        gram = np.array_equal(work, a.T @ a)
        rank = certified_rank(work, mat)
        counts["gram"] += gram and rank is not None
        return rank

    def check(mat, basis):
        passed = annihilates(mat, basis)
        counts["checked"] += 1
        counts["certified"] += passed
        return passed

    def fallback(work):
        counts["fallback"] += 1
        return fraction_free_rank(work)

    monkeypatch.setattr(metrics, "_proves_nonsingular", proved)
    monkeypatch.setattr(metrics, "_certified_rank", certified)
    monkeypatch.setattr(metrics, "_annihilates", check)
    monkeypatch.setattr(metrics, "_fraction_free_rank", fallback)
    return counts


def planted_matrix(rng, rows, cols):
    """Random 0/1 matrix with some columns copied or summed from others
    and some rows summed from pairs with disjoint supports."""
    mat = (rng.random((rows, cols)) < rng.uniform(0.1, 0.6)).astype(np.int64)
    for _ in range(int(rng.integers(0, cols // 3 + 1))):
        a, b, c = rng.integers(0, cols, size=3)
        mat[:, c] = mat[:, a]
        if a != b and a != c and b != c:
            mat[:, b] &= 1 - mat[:, a]  # keep the sum 0/1
            mat[:, c] = mat[:, a] + mat[:, b]
    for _ in range(int(rng.integers(0, rows // 3 + 1))):
        a, b, c = rng.integers(0, rows, size=3)
        if len({a, b, c}) == 3:
            mat[b] &= 1 - mat[a]
            mat[c] = mat[a] + mat[b]
    return mat


def test_pseudo_rank_certified_on_planted_dependencies(rank_paths):
    """Each planted window is ranked as it is, through the inverse check
    or its Gram matrix, and scaled by 2^41, which the exactness guard
    keeps on the window itself with the same rank and kernel."""
    rng = np.random.default_rng(2024)
    decided = {}
    fallbacks = {}
    for case in range(60):
        rows = int(rng.integers(1, 201 if case % 4 == 0 else 41))
        cols = int(rng.integers(1, 61 if case % 4 == 0 else 21))
        mat = planted_matrix(rng, rows, cols)
        rank = fraction_rank(mat)
        for scale in (1, 2**41):
            before = dict(rank_paths)
            assert pseudo_rank(mat * scale, window=rows) == rank
            step = {k: rank_paths[k] - before[k] for k in rank_paths}
            if step["fallback"]:
                fallbacks[scale] = fallbacks.get(scale, 0) + 1
                continue
            if step["inverse"]:
                key = "inverse"
            else:
                key = ("gram" if step["gram"] else "plain",
                       "certified" if step["certified"] else "shortcut")
            decided[key] = decided.get(key, 0) + 1
            assert step["inverse"] + step["gram"] == (scale == 1)
    # At scale 1 the inverse check proved every full-rank window, so the
    # Gram matrix was eliminated only to certify a lower rank. At 2^41
    # the shortcut and the kernel certificate each decided many cases
    # on the window itself. A dense near-square matrix can have a
    # kernel vector with rational entries, which the integer check
    # refuses; it falls back by design.
    assert decided.get("inverse", 0) >= 20
    assert ("gram", "shortcut") not in decided
    assert decided.get(("gram", "certified"), 0) >= 20
    assert decided.get(("plain", "shortcut"), 0) >= 10
    assert decided.get(("plain", "certified"), 0) >= 20
    assert all(count <= 3 for count in fallbacks.values())


def tall_planted(rng, rows, cols):
    """Random tall 0/1 matrix with some columns set to the sum of two
    others, so its kernel holds small integer vectors."""
    mat = (rng.random((rows, cols)) < 0.4).astype(np.int64)
    for _ in range(int(rng.integers(1, cols // 3 + 2))):
        a, b, c = rng.choice(cols, size=3, replace=False)
        mat[:, c] = mat[:, a] + mat[:, b]
    return mat


def test_tall_full_column_rank_returns_without_a_kernel_check(rank_paths):
    rng = np.random.default_rng(31)
    for _ in range(30):
        rows, cols = int(rng.integers(40, 121)), int(rng.integers(2, 25))
        mat = rng.integers(0, 2, size=(rows, cols))
        assert metrics._modular_rank(mat) == cols == fraction_rank(mat)
    assert rank_paths == {"inverse": 30, "gram": 0, "checked": 0,
                          "certified": 0, "fallback": 0}


def test_tall_rank_deficient_windows_are_certified_against_the_window(
    rank_paths, monkeypatch
):
    checked_shapes = []
    check = metrics._annihilates

    def record(mat, basis):
        checked_shapes.append(mat.shape)
        return check(mat, basis)

    monkeypatch.setattr(metrics, "_annihilates", record)
    rng = np.random.default_rng(32)
    shapes = []
    for _ in range(30):
        rows, cols = int(rng.integers(30, 121)), int(rng.integers(3, 25))
        mat = tall_planted(rng, rows, cols)
        rank = fraction_rank(mat)
        assert rank < cols
        assert metrics._modular_rank(mat) == rank
        shapes.append(mat.shape)
    # One check per window, made against the tall window A itself and
    # never against its c x c Gram matrix.
    assert checked_shapes == shapes
    assert rank_paths == {"inverse": 0, "gram": 30, "checked": 30,
                          "certified": 30, "fallback": 0}


def test_exactness_guard_forms_the_gram_matrix_below_2_53(rank_paths):
    # max|A|^2 * m must stay below 2^53, where float64 sums integers
    # exactly: with 8 rows, entries up to 2^25 - 1 go through AᵀA and an
    # entry of -2^25 does not. Column 2 is the sum of the others, so each
    # rank is certified by the check.
    rng = np.random.default_rng(34)
    mat = rng.integers(-(1 << 23), 1 << 23, size=(8, 3))
    for x, y in (((1 << 25) - 6, 5), (-(1 << 25) + 6, -6)):
        mat[0, :2] = x, y
        mat[:, 2] = mat[:, 0] + mat[:, 1]
        assert int(np.abs(mat).max()) == (1 << 25) - (x > 0)
        before = rank_paths["gram"]
        assert metrics._modular_rank(mat) == 2 == fraction_rank(mat)
        assert rank_paths["gram"] - before == (x > 0)
    assert rank_paths == {"inverse": 0, "gram": 1, "checked": 2,
                          "certified": 2, "fallback": 0}


def test_wide_window_is_certified_on_its_right_kernel(rank_paths):
    # The right kernel, (-2, 1, 0) and (-3, 0, 1), is integral; the left
    # kernel normalised at the first row, (-1/2, 1), is not. AᵀA keeps
    # the right kernel, so the check passes without Bareiss.
    mat = np.array([[2, 4, 6], [1, 2, 3]])
    assert pseudo_rank(mat, window=2) == 1 == fraction_rank(mat)
    assert rank_paths == {"inverse": 0, "gram": 1, "checked": 1,
                          "certified": 1, "fallback": 0}


def test_wide_full_row_rank_is_proved_on_the_row_gram_matrix(
    rank_paths, monkeypatch
):
    gram_shapes = []
    proves_nonsingular = metrics._proves_nonsingular

    def record(gram):
        gram_shapes.append(gram.shape)
        return proves_nonsingular(gram)

    monkeypatch.setattr(metrics, "_proves_nonsingular", record)
    rng = np.random.default_rng(35)
    rows_seen = []
    for _ in range(30):
        rows, cols = int(rng.integers(2, 25)), int(rng.integers(40, 121))
        mat = rng.integers(0, 2, size=(rows, cols))
        assert metrics._modular_rank(mat) == rows == fraction_rank(mat)
        rows_seen.append(rows)
    # The m x m matrix AAᵀ, not the c x c matrix AᵀA.
    assert gram_shapes == [(r, r) for r in rows_seen]
    assert rank_paths == {"inverse": 30, "gram": 0, "checked": 0,
                          "certified": 0, "fallback": 0}


def test_pseudo_rank_drops_planted_duplicate_and_zero_columns(
    rank_paths, monkeypatch
):
    reduced = []
    modular_rank = metrics._modular_rank

    def record(mat):
        reduced.append(mat)
        return modular_rank(mat)

    monkeypatch.setattr(metrics, "_modular_rank", record)
    rng = np.random.default_rng(36)
    full = 0
    for case in range(60):
        if case % 2:
            rows, distinct = int(rng.integers(30, 121)), int(rng.integers(2, 20))
        else:
            rows, distinct = int(rng.integers(2, 20)), int(rng.integers(20, 61))
        if case % 3:
            base = rng.integers(0, 2, size=(rows, distinct), dtype=np.uint8)
        else:
            base = planted_matrix(rng, rows, distinct).astype(np.uint8)
        # Every column of base once, then copies of some and zero
        # columns, in a shuffled order.
        picks = np.concatenate([np.arange(distinct),
                                rng.integers(0, distinct, size=distinct // 2)])
        window = np.concatenate(
            [base[:, picks], np.zeros((rows, 1 + case % 4), dtype=np.uint8)],
            axis=1,
        )[:, rng.permutation(len(picks) + 1 + case % 4)]
        rank = fraction_rank(window)
        assert pseudo_rank(window, window=rows) == rank
        # One row per distinct nonzero row of the window and one column
        # per distinct nonzero column, so none is zero or repeated.
        mat = reduced[-1]
        assert mat.shape == (len({tuple(r) for r in window if r.any()}),
                             len({tuple(c) for c in window.T if c.any()}))
        assert len({tuple(c) for c in mat.T}) == mat.shape[1]
        assert mat.any(axis=0).all()
        full += rank == min(mat.shape)
    # The inverse check proved every full-rank window and no other.
    assert full >= 20
    assert rank_paths["inverse"] == full


def test_inverse_check_never_proves_a_rank_deficient_window():
    rng = np.random.default_rng(37)
    for case in range(200):
        rows, cols = int(rng.integers(2, 31)), int(rng.integers(2, 31))
        if case % 2:
            mat = planted_matrix(rng, rows, cols)
        else:
            # Rank at most min(rows, cols) - 1: one factor is too narrow.
            inner = int(rng.integers(1, min(rows, cols)))
            mat = (rng.integers(-3, 4, size=(rows, inner))
                   @ rng.integers(-3, 4, size=(inner, cols)))
        rank = fraction_rank(mat)
        a = mat.astype(np.float64)
        for gram in (a.T @ a, a @ a.T):
            assert metrics._proves_nonsingular(gram) == (rank == len(gram))
        assert metrics._modular_rank(mat) == rank


def refuse(gram):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize(
    "forged",
    [
        lambda g: np.eye(len(g)),
        lambda g: np.ones_like(g),
        lambda g: np.random.default_rng(len(g)).standard_normal(g.shape),
        lambda g: np.random.default_rng(1).integers(-9, 10, g.shape) * 1e12,
        lambda g: np.full(g.shape, np.nan),
        lambda g: np.full(g.shape, np.inf),
        refuse,
    ],
    ids=["identity", "ones", "normal", "large", "nan", "inf", "raises"],
)
def test_forged_inverse_cannot_prove_a_singular_gram(
    forged, rank_paths, monkeypatch
):
    calls = []

    def inv(gram):
        calls.append(gram.shape)
        return forged(gram)

    monkeypatch.setattr(metrics.np.linalg, "inv", inv)
    rng = np.random.default_rng(38)
    for _ in range(20):
        rows, cols = int(rng.integers(8, 41)), int(rng.integers(3, 9))
        mat = tall_planted(rng, rows, cols)
        for window in (mat, mat.T):
            a = window.astype(np.float64)
            for gram in (a.T @ a, a @ a.T):
                assert not metrics._proves_nonsingular(gram)
            assert pseudo_rank(window, window=len(window)) == fraction_rank(
                window
            )
    assert calls
    assert rank_paths["inverse"] == 0
    # A nonsingular Gram matrix that the forged inverse does not prove
    # is ranked by elimination, whose full-rank shortcut decides it.
    before = dict(rank_paths)
    mat = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert metrics._modular_rank(mat) == 3 == fraction_rank(mat)
    step = {k: rank_paths[k] - before[k] for k in rank_paths}
    assert step == {"inverse": 0, "gram": 1, "checked": 0, "certified": 0,
                    "fallback": 0}


@pytest.mark.parametrize("density", [0.05, 0.5, 0.95])
def test_inverse_scale_keeps_the_largest_window_exact(density):
    # The largest window a sweep can produce: 500 rows of n = 130
    # neurons, 0/1. Every row of |X| · |G| must sum below 2^53, summed
    # here in Python ints.
    rng = np.random.default_rng(39)
    mat = (rng.random((500, 130)) < density).astype(np.float64)
    gram = mat.T @ mat
    x = metrics._scaled_inverse(gram)
    assert x is not None
    norms = np.abs(gram).astype(np.int64).sum(axis=1).tolist()
    sums = [sum(abs(int(v)) * w for v, w in zip(row, norms))
            for row in x.tolist()]
    assert max(sums) < 2**53
    assert metrics._proves_nonsingular(gram)


def test_pseudo_rank_falls_back_when_certificate_fails(rank_paths, monkeypatch):
    # The kernel vector (-40000, 1) is read as an integer vector and
    # passes the exact check.
    mat = np.array([[1, 40000], [2, 80000], [3, 120000]])
    assert pseudo_rank(mat, window=3) == 1
    assert rank_paths["certified"] == 1
    assert rank_paths["fallback"] == 0

    # A wrong kernel vector must fail the exact check, not pass as a
    # rank: (1, 1, 1) is no kernel vector of this rank-2 matrix.
    mat = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    monkeypatch.setattr(
        metrics, "_kernel_basis", lambda echelon, pivots: np.ones((3, 1), np.int64)
    )
    assert pseudo_rank(mat, window=3) == 2 == fraction_rank(mat)
    assert rank_paths["fallback"] == 1

    # Nor may a product that is nonzero only beyond int64: here
    # mat @ (2^62, 2^62) = (3 * 2^64, 6 * 2^64), which wraps to 0 in
    # int64. The basis norm 2^63 itself wraps in an int64 sum. The
    # columns differ, so the column dedup leaves the kernel in place.
    mat = np.array([[4, 8], [8, 16]])
    monkeypatch.setattr(
        metrics, "_kernel_basis", lambda echelon, pivots: np.full((2, 1), 1 << 62)
    )
    assert pseudo_rank(mat, window=2) == 1
    assert rank_paths["fallback"] == 2
    assert rank_paths["certified"] == 1


def test_pseudo_rank_negative_and_large_entries(rank_paths):
    rng = np.random.default_rng(5)
    big = 1 << 60
    base = rng.integers(-big, big, size=(6, 2))
    # Column 2 = column 0 + 2 * column 1: the kernel (1, 2, -1) is
    # small, but entries times its norm pass 2^63, so int64 cannot
    # check it and Bareiss decides.
    mat = np.column_stack([base, base[:, 0] + 2 * base[:, 1]])
    assert int(np.abs(mat).max()) * 4 >= 2**63
    assert pseudo_rank(mat, window=6) == 2 == fraction_rank(mat)
    # Rational kernel (1/2, 1) over negative entries: its integer
    # read-off is no kernel vector over Q, so Bareiss decides.
    half = np.array([[2, -1], [-4, 2], [6, -3], [-8, 4]])
    assert pseudo_rank(half, window=4) == 1 == fraction_rank(half)
    rand = rng.integers(-(1 << 40), 1 << 40, size=(5, 4))
    assert pseudo_rank(rand, window=5) == fraction_rank(rand)
    assert rank_paths["certified"] == 0
    assert rank_paths["fallback"] == 2


def test_pseudo_rank_refuses_rasters_it_cannot_hold_exactly():
    # 0.5 would truncate to 0, though the rank is 1.
    with pytest.raises(ValueError, match="float64"):
        pseudo_rank(np.array([[0.5, 0.0]]), window=1)
    # The determinant is -2^64, so the rank is 2; an int64 cast wraps
    # the entries and reads rank 1.
    wide = np.array([[2**64 - 2, 2**64 - 1], [2, 1]], dtype=np.uint64)
    with pytest.raises(ValueError, match="uint64"):
        pseudo_rank(wide, window=2)
    with pytest.raises(ValueError, match="object"):
        pseudo_rank(np.array([[2**70, 1]], dtype=object), window=1)
    # Integer values in int64 range pass in either dtype.
    fits = np.array([[2**63 - 1, 1], [2, 1]], dtype=np.uint64)
    assert pseudo_rank(fits, window=2) == 2 == fraction_rank(fits)
    assert pseudo_rank(np.array([[3, 1], [6, 2]], dtype=object), window=2) == 1


def test_delay_embed():
    assert delay_embed([1, 2, 3, 4], 1) == [(1, 2), (2, 3), (3, 4)]
    assert delay_embed([1, 2, 3, 4], 3) == [(1, 4)]
    with pytest.raises(ValueError):
        delay_embed([1, 2, 3], 0)
    with pytest.raises(ValueError):
        delay_embed([1, 2, 3], 3)


def test_summarize_even_count_median_is_half_integral():
    records = [
        make_record(4, rate=0.2, period=4, run_id="a"),
        make_record(4, rate=0.4, period=5, run_id="b", seed=1),
    ]
    (summary,) = summarize(records)
    assert summary.median_cycle == 4.5
    assert summary.mean_firing_rate == pytest.approx(0.3)
    assert summary.std_firing_rate == pytest.approx(0.1)  # population form
    assert summary.censor_fraction == 0.0
    assert summary.run_count == 2


def test_summarize_censoring_and_grouping():
    records = [
        make_record(8, period=3, run_id="a"),
        make_record(8, status="censored", run_id="b", seed=1),
        make_record(8, period=5, run_id="c", seed=2),
        make_record(2, status="censored", run_id="d"),
        make_record(4, period=7, run_id="e"),
    ]
    summaries = summarize(records)
    assert [s.bits for s in summaries] == [2, 4, 8]
    by_bits = {s.bits: s for s in summaries}
    assert by_bits[8].median_cycle == 4.0  # censored runs excluded
    assert by_bits[8].censor_fraction == pytest.approx(1 / 3)
    assert by_bits[2].median_cycle is None
    assert by_bits[2].censor_fraction == 1.0
    assert by_bits[4].median_cycle == 7.0
    # grouping is order independent
    reordered = summarize(list(reversed(records)))
    assert reordered == summaries


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_records_csv_round_trip(tmp_path):
    records = [
        make_record(4, rate=0.125, rank=2, period=6, run_id="N008-d0.5-b04-s0"),
        make_record(8, status="censored", run_id="N008-d0.5-b08-s0"),
    ]
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(RECORD_COLUMNS)
    # censored rows leave the transient and period cells empty
    assert text.splitlines()[2].endswith("censored,,")
    assert read_records_csv(path) == records


def test_records_csv_write_is_all_or_nothing(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv([make_record(4, run_id="a")], path)
    written = path.read_bytes()
    # The second write fails while encoding; the first file stays whole
    # and no temporary file is left beside it.
    with pytest.raises(UnicodeEncodeError):
        write_records_csv([make_record(4, run_id="b\udc80")], path)
    assert path.read_bytes() == written
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


def test_records_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("run_id,n\nx,1\n")
    with pytest.raises(ValueError):
        read_records_csv(path)


def test_summary_and_focused_csv_format(tmp_path):
    records = [
        make_record(4, rate=0.2, period=4, run_id="a"),
        make_record(4, rate=0.4, period=5, run_id="b", seed=1),
    ]
    summaries = summarize(records)
    spath = tmp_path / "summary.csv"
    write_summary_csv(summaries, spath)
    lines = spath.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "4"
    assert float(cells[1]) == pytest.approx(0.3)
    assert cells[4] == "4.5"
    assert cells[6] == "2"

    fpath = tmp_path / "focused.csv"
    write_focused_csv(summaries, fpath)
    flines = fpath.read_text().splitlines()
    assert flines[0] == ",".join(FOCUSED_COLUMNS)
    fcells = flines[1].split(",")
    assert fcells[0] == "4"
    assert float(fcells[2]) == pytest.approx(0.1)
    assert fcells[3] == "2"


def test_summary_csv_blank_median_when_all_censored(tmp_path):
    records = [make_record(2, status="censored", run_id="a")]
    path = tmp_path / "summary.csv"
    write_summary_csv(summarize(records), path)
    row = path.read_text().splitlines()[1]
    assert row.split(",")[4] == ""
