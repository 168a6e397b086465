"""Grid orchestration: seed tree, cell isolation, fused measurement."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from intsnn.arith import IntegerDomain
from intsnn.dynamics import (
    CENSORED,
    DETECTED,
    CycleReport,
    decode_state,
    detect_cycle,
    enumerate_state_graph,
    first_revisit,
    simulate,
)
from intsnn.metrics import (
    active_fraction,
    default_window,
    firing_rate,
    pseudo_rank,
)
from intsnn import metrics, sweep
from intsnn.network import LaneStack, Network, NetworkState, initial_state
from intsnn.sweep import (
    DEFAULT_MASTER_SEED,
    CellError,
    VARIANT_PRESETS,
    SweepGrid,
    _measure_run,
    build_manifest,
    build_network,
    cell_seeds,
    focused_grid,
    format_run_id,
    run_cell,
    run_focused,
    run_grid,
    top_recurrent,
    write_manifest,
)


def tiny_grid(**kwargs):
    params = dict(
        sizes=[3, 5],
        densities=[0.5],
        bit_widths=[2, 4],
        horizon=40,
        seeds_per_cell=2,
    )
    params.update(kwargs)
    return SweepGrid(**params)


def naive_measurements(grid, n, density, bits, seed_idx):
    """Recompute one cell through the plain full-history pipeline."""
    net = build_network(grid, n, density, bits)
    _, _, init_seed = cell_seeds(grid.master_seed, n, density, bits, seed_idx)
    init = initial_state(net, init_seed)
    traj = simulate(net, init, grid.horizon)
    window = default_window(grid.horizon)
    # First revisit over the recorded (v, s) rows, independent of the
    # scan that detect_cycle and the sweep share.
    spikes = [traj.s0, *traj.raster]
    seen = {}
    cycle = CycleReport(CENSORED)
    for t, (v, s) in enumerate(zip(traj.states, spikes)):
        key = (tuple(int(x) for x in v), tuple(int(x) for x in s))
        if key in seen:
            cycle = CycleReport(DETECTED, transient=seen[key], period=t - seen[key])
            break
        seen[key] = t
    return (
        firing_rate(traj.raster),
        active_fraction(traj.raster),
        pseudo_rank(traj.raster, window) if window else 0,
        cycle,
    )


def measure(net, init, horizon, window):
    """_measure_run's metrics and the cycle report of one state's lane."""
    (_, rows, cycle), = first_revisit(net, init.v[None], init.s[None], horizon)
    return (*_measure_run(rows, cycle, horizon, window), cycle)


def test_default_grid_arithmetic():
    grid = SweepGrid()
    assert len(grid.sizes) == 51
    assert len(grid.densities) == 9
    assert len(grid.bit_widths) == 16
    assert grid.run_count() == 7344
    assert len(grid.cells()) == 7344


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(sizes=[]).validate()
    with pytest.raises(ValueError):
        SweepGrid(horizon=0).validate()
    # step indices are int64: a longer horizon is refused, not overflowed
    with pytest.raises(ValueError, match=r"horizon must lie in 1\.\.2\^63 - 1"):
        SweepGrid(horizon=2**63 + 5).validate()
    with pytest.raises(ValueError):
        SweepGrid(seeds_per_cell=0).validate()
    # the boundary values themselves are accepted
    tiny_grid(sizes=[1], densities=[0.0, 1.0], bit_widths=[1, 64]).validate()
    tiny_grid(weight_range=(-(1 << 63), (1 << 63) - 1)).validate()
    tiny_grid(threshold_range=(1, 1 << 64)).validate()
    tiny_grid(horizon=(1 << 63) - 1).validate()
    # and the builder samples them: int64 weights, a 2^64 threshold span
    for kwargs in ({"weight_range": (-(1 << 63), (1 << 63) - 1)},
                   {"threshold_range": (1 << 70, (1 << 70) + (1 << 64) - 1)}):
        assert len(run_grid(tiny_grid(sizes=[3], **kwargs))) == 4


@pytest.mark.parametrize(
    "field, values, message",
    [
        ("sizes", [3, 3], "sizes has duplicate"),
        ("densities", [0.5, 0.5], "densities has duplicate"),
        ("densities", [0.0, -0.0], "densities has duplicate"),
        ("bit_widths", [2, 4, 2], "bits has duplicate"),
        ("sizes", [0], "sizes must be >= 1"),
        ("densities", [-0.0], "densities must lie in"),
        ("densities", [1.5], "densities must lie in"),
        ("densities", [float("nan")], "densities must lie in"),
        ("bit_widths", [0], "bits must lie in"),
        ("bit_widths", [65], "bits must lie in"),
        ("leak_k", 0, "leak_k must be >= 1"),
        ("threshold_range", (0, 8), "threshold_lo must be >= 1"),
        ("threshold_range", (9, 8), "threshold_lo 9 exceeds threshold_hi 8"),
        ("weight_range", (4, -4), "weight_lo 4 exceeds weight_hi -4"),
        ("weight_range", (0, 0), "leaves no nonzero weight"),
        ("signedness", "twos", "signedness must be one of"),
        ("overflow_mode", "clip", "overflow_mode must be one of"),
        ("reset_mode", "zero", "reset_mode must be one of"),
        ("weight_range", (-(1 << 63) - 1, 4), r"weight_lo must be >= -2\^63"),
        ("weight_range", (1 << 63, (1 << 63) + 2), r"weight_hi must be <= 2\^63 - 1"),
        ("threshold_range", (1, (1 << 64) + 1),
         r"threshold_hi - threshold_lo \+ 1 must be at most 2\^64"),
        ("threshold_range", (4, 1 << 70),
         r"threshold_hi - threshold_lo \+ 1 must be at most 2\^64"),
        # Seeds fold modulo 2^64: -1 would run the cells of 2^64 - 1.
        ("master_seed", -1, r"master_seed must lie in 0\.\.2\^64 - 1, got -1"),
        ("master_seed", 1 << 64, r"master_seed must lie in 0\.\.2\^64 - 1"),
        # both write d0.123457 into the run_id
        ("densities", [0.1234567, 0.1234568],
         r"densities 0\.1234567 and 0\.1234568 share run_id label d0\.123457"),
    ],
)
def test_grid_validation_rejects_bad_axes_before_any_cell(field, values, message):
    grid = tiny_grid(**{field: values})
    with pytest.raises(ValueError, match=message):
        grid.validate()
    with pytest.raises(ValueError, match=message):
        run_grid(grid)


@pytest.mark.parametrize(
    "bits, signedness, dtype",
    [(8, "unsigned", np.int64), (62, "signed", np.int64),
     (64, "signed", object), (64, "unsigned", object)],
)
def test_leak_shift_of_64_or_more_acts_as_64(bits, signedness, dtype):
    # Potentials lie below 2^64 in magnitude, so such a shift leaves 0 or -1.
    def grid(leak_k):
        return SweepGrid(sizes=[6], densities=[0.5], bit_widths=[bits], horizon=60,
                         master_seed=3, leak_k=leak_k, signedness=signedness)

    assert build_network(grid(1 << 63), 6, 0.5, bits).state_dtype is dtype
    expected = run_grid(grid(64))
    for leak_k in (65, 1 << 63, 1 << 70):
        assert run_grid(grid(leak_k)) == expected, leak_k


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_names_the_failing_cell(monkeypatch, workers):
    real_run_cell = sweep.run_cell

    def run_cell(grid, n, density, bits, seed_idx, **kwargs):
        if (n, bits, seed_idx) == (5, 4, 1):
            raise ZeroDivisionError("planted failure")
        return real_run_cell(grid, n, density, bits, seed_idx, **kwargs)

    # Pool workers are forked, so they see the patched module too. The
    # failing lane is the last of its cohort's four and names itself.
    monkeypatch.setattr(sweep, "run_cell", run_cell)
    message = r"cell N005-d0\.5-b04-s1 failed: ZeroDivisionError: planted failure"
    with pytest.raises(CellError, match=message):
        run_grid(tiny_grid(), workers=workers)
    monkeypatch.undo()

    # A failure in the stepping that the lanes share names the cohort's
    # first cell.
    real_step = Network.step_arrays

    def step_arrays(self, v, s):
        if self.n == 5:
            raise FloatingPointError("planted step failure")
        return real_step(self, v, s)

    monkeypatch.setattr(Network, "step_arrays", step_arrays)
    message = r"cell N005-d0\.5-b02-s0 failed: FloatingPointError: planted step failure"
    with pytest.raises(CellError, match=message):
        run_grid(tiny_grid(), workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_names_seed_zero_when_the_build_fails(monkeypatch, workers):
    real_build = sweep.build_network

    def build_network(grid, n, density, bits):
        if (n, bits) == (5, 2):
            raise MemoryError("planted build failure")
        return real_build(grid, n, density, bits)

    monkeypatch.setattr(sweep, "build_network", build_network)
    message = r"cell N005-d0\.5-b02-s0 failed: MemoryError: planted build failure"
    with pytest.raises(CellError, match=message):
        run_grid(tiny_grid(), workers=workers)


def test_run_grid_builds_each_network_once(monkeypatch):
    grid = tiny_grid(seeds_per_cell=3)
    built = []
    real_build = sweep.build_network

    def build_network(grid, n, density, bits):
        built.append((n, density, bits))
        return real_build(grid, n, density, bits)

    monkeypatch.setattr(sweep, "build_network", build_network)
    records = run_grid(grid, workers=1)
    assert sorted(built) == [(3, 0.5, 2), (3, 0.5, 4), (5, 0.5, 2), (5, 0.5, 4)]
    monkeypatch.undo()
    alone = [run_cell(grid, r.n, r.density, r.bits, r.seed) for r in records]
    assert len(records) == 12
    assert records == alone
    assert run_grid(grid, workers=2) == alone

    # One-seed cells share cohorts too: run_cell reads each record from
    # the lane its cohort stepped, and neither builds nor steps.
    lone = tiny_grid(seeds_per_cell=1)
    real_run_cell = sweep.run_cell

    def run_cell_given_revisit(
        grid, n, density, bits, seed_idx, *, revisit=None, memo=None
    ):
        assert revisit is not None, "run_cell was left to step"
        assert memo is not None, "the cohort passed no rank memo"
        return real_run_cell(
            grid, n, density, bits, seed_idx, revisit=revisit, memo=memo
        )

    # Pool workers are forked, so they see the patched module too, and
    # a failed assertion there comes back as a CellError.
    monkeypatch.setattr(sweep, "run_cell", run_cell_given_revisit)
    for workers in (1, 2):
        records = run_grid(lone, workers=workers)
        assert records == [
            real_run_cell(lone, r.n, r.density, r.bits, r.seed) for r in records
        ]
        assert len(records) == 4


@pytest.mark.parametrize("workers", [0, -3])
def test_run_grid_refuses_workers_below_one(monkeypatch, workers):
    def run_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep, "run_cell", run_cell)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_grid(tiny_grid(), workers=workers)


def test_run_grid_caps_the_pool_at_the_job_count(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for multiprocessing.Pool without starting a process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(sweep.multiprocessing, "Pool", SerialPool)
    grid = tiny_grid()
    records = run_grid(grid, workers=10**6)
    assert sizes == [2]  # one cohort per size: 2 bit widths x 2 seeds
    monkeypatch.undo()
    assert records == run_grid(grid)


def test_format_run_id():
    assert format_run_id(64, 0.5, 4, 0) == "N064-d0.5-b04-s0"
    assert format_run_id(8, 0.25, 16, 3) == "N008-d0.25-b16-s3"
    assert format_run_id(130, 0.9, 1, 0) == "N130-d0.9-b01-s0"


def test_cell_seeds_share_topology_across_seed_indices():
    t0, th0, i0 = cell_seeds(7, 64, 0.5, 8, 0)
    t1, th1, i1 = cell_seeds(7, 64, 0.5, 8, 1)
    assert (t0, th0) == (t1, th1)
    assert i0 != i1
    # any parameter change moves every stream
    for other in (cell_seeds(7, 66, 0.5, 8, 0), cell_seeds(7, 64, 0.6, 8, 0),
                  cell_seeds(7, 64, 0.5, 9, 0), cell_seeds(8, 64, 0.5, 8, 0)):
        assert other[0] != t0
    assert len({t0, th0, i0}) == 3


@pytest.mark.parametrize(
    "master_seed, seed_idx, key",
    [(7, -1, "seed"), (7, 1 << 64, "seed"), (-1, 0, "master_seed"),
     ((1 << 64) + 5, 0, "master_seed")],
)
def test_cell_seeds_refuse_aliasing_seeds(master_seed, seed_idx, key):
    # seed derivation folds both modulo 2^64, so these would alias
    got = master_seed if key == "master_seed" else seed_idx
    message = rf"^{key} must lie in 0\.\.2\^64 - 1, got {got}$"
    with pytest.raises(ValueError, match=message):
        cell_seeds(master_seed, 4, 0.5, 3, seed_idx)
    if key == "master_seed":
        grid = SweepGrid(master_seed=master_seed, horizon=50)
        with pytest.raises(ValueError, match=message):
            build_network(grid, 4, 0.5, 3)
        with pytest.raises(ValueError, match=message):
            run_cell(grid, 4, 0.5, 3, 0)


def test_build_network_provenance_and_determinism():
    grid = tiny_grid()
    net1 = build_network(grid, 5, 0.5, 4)
    net2 = build_network(grid, 5, 0.5, 4)
    assert np.array_equal(net1.weights, net2.weights)
    assert np.array_equal(net1.thresholds, net2.thresholds)
    prov = net1.seed_provenance
    assert prov["master_seed"] == grid.master_seed
    assert (prov["n"], prov["density"], prov["bits"]) == (5, 0.5, 4)
    assert prov["topology_seed"] == cell_seeds(grid.master_seed, 5, 0.5, 4, 0)[0]


def test_run_grid_sorted_deterministic_and_cell_isolated():
    grid = tiny_grid()
    records = run_grid(grid)
    assert len(records) == grid.run_count()
    ids = [r.run_id for r in records]
    assert ids == sorted(ids)
    assert records == run_grid(tiny_grid())
    # any single record is reproducible without running the rest
    probe = records[5]
    alone = run_cell(tiny_grid(), probe.n, probe.density, probe.bits, probe.seed)
    assert alone == probe


def test_run_grid_worker_count_does_not_change_records():
    serial = run_grid(tiny_grid())
    pooled = run_grid(tiny_grid(), workers=2)
    assert pooled == serial


def test_quiescent_cell_measures_zero():
    record = run_cell(tiny_grid(), 5, 0.5, 2, 0)
    # max potential 3 sits below the threshold floor 4: nothing can fire
    assert record.mean_firing_rate == 0.0
    assert record.active_fraction == 0.0
    assert record.pseudo_rank == 0
    assert record.cycle.status == "detected"
    assert record.cycle.period == 1


def test_run_cell_matches_naive_pipeline():
    case = 0
    for horizon in (1, 7, 40, 160):
        for reset in ("none", "subtract_threshold"):
            for overflow in ("saturate", "wrap"):
                case += 1
                grid = SweepGrid(
                    sizes=[2 + case % 7],
                    densities=[0.3 + 0.1 * (case % 5)],
                    bit_widths=[1 + case % 8],
                    horizon=horizon,
                    seeds_per_cell=1,
                    master_seed=100 + case,
                    threshold_range=(1, 6),
                    reset_mode=reset,
                    overflow_mode=overflow,
                    signedness="signed" if case % 3 == 0 else "unsigned",
                )
                n, bits = grid.sizes[0], grid.bit_widths[0]
                record = run_cell(grid, n, grid.densities[0], bits, 0)
                rate, active, rank, cycle = naive_measurements(
                    grid, n, grid.densities[0], bits, 0
                )
                assert record.mean_firing_rate == rate
                assert record.active_fraction == active
                assert record.pseudo_rank == rank
                assert record.cycle == cycle


def test_cohorts_pack_whole_networks_of_one_size():
    def shape(grid):
        cohorts = sweep._cohorts(grid)
        assert [c for cohort in cohorts for c in cohort] == grid.cells()
        for cohort in cohorts:
            assert len({c[0] for c in cohort}) == 1
        return [len(cohort) for cohort in cohorts]

    assert sweep.LANES == 8
    assert shape(tiny_grid(seeds_per_cell=3)) == [6, 6]
    # the focused sweep: one network of 5 seeds a cohort
    assert shape(focused_grid(SweepGrid(), list(range(1, 17)))) == [5] * 16
    # one seed a cell: 8 bit widths a cohort, never across sizes
    assert shape(tiny_grid(sizes=[3, 5], bit_widths=list(range(1, 13)),
                           seeds_per_cell=1)) == [8, 4, 8, 4]
    # a network with more than 8 seeds takes 8 lanes a cohort
    assert shape(tiny_grid(sizes=[3], seeds_per_cell=9)) == [8, 1, 8, 1]


def test_cohort_records_match_naive_pipeline_and_lone_cells():
    # Every mode, bit widths 1..16 with 63 and 64 (object mode), n = 1,
    # horizons 1, 2, 7 and 1000. With 3 seeds a network, cohorts of 6
    # lanes mix bit widths on a lane stack, and a last one (bits 63 and
    # 64) can mix stacked and object-mode networks. With 5 seeds every
    # cohort holds one network, which steps its lanes itself.
    modes = itertools.product(
        ("unsigned", "signed"), ("saturate", "wrap"), ("none", "subtract_threshold")
    )
    t2s, mixed = set(), 0
    for case, (signedness, overflow, reset) in enumerate(modes):
        for seeds in (3, 5):
            grid = SweepGrid(
                sizes=[1, 6],
                densities=[0.6],
                bit_widths=[*range(1, 17), 63, 64],
                horizon=(1, 2, 7, 1000)[case % 4],
                seeds_per_cell=seeds,
                master_seed=40 + case,
                threshold_range=(1, 6),
                signedness=signedness,
                overflow_mode=overflow,
                reset_mode=reset,
            )
            stepped_by = {
                type(net)
                for cells in sweep._cohorts(grid)
                for net, *_ in sweep._cohort_scans(grid, cells)
            }
            assert stepped_by == ({Network} if seeds == 5 else {Network, LaneStack})
            records = run_grid(grid, workers=1)
            assert len(records) == 36 * seeds
            assert run_grid(grid, workers=2) == records
            for r in records:
                assert r == run_cell(grid, r.n, r.density, r.bits, r.seed), r.run_id
                rate, active, rank, cycle = naive_measurements(
                    grid, r.n, r.density, r.bits, r.seed
                )
                assert (r.mean_firing_rate, r.active_fraction, r.pseudo_rank) == (
                    rate, active, rank
                ), r.run_id
                assert r.cycle == cycle, r.run_id
                t2s.add(r.cycle.transient + r.cycle.period if cycle.period else None)
        dtypes = [build_network(grid, 6, 0.6, bits).state_dtype for bits in (63, 64)]
        mixed += dtypes == [np.int64, object]
    # lanes retired at step 1 and at the horizon, censored lanes, and a
    # cohort of a lane stack and an object-mode network
    assert {1, 2, 7, None} <= t2s
    assert max(t for t in t2s if t) > 50
    assert mixed


def test_cohort_ranks_each_distinct_row_set_once(monkeypatch):
    # One cohort of two networks with 4 seeds each: at bits 4 every seed
    # settles on one period-23 attractor, at bits 6 on one fixed point.
    grid = SweepGrid(sizes=[16], densities=[0.6], bit_widths=[4, 6],
                     seeds_per_cell=4, horizon=100, master_seed=1,
                     threshold_range=(1, 6))
    (cells,) = sweep._cohorts(grid)
    row_sets, eliminations = [], []
    real_pseudo_rank, real_modular_rank = sweep.pseudo_rank, metrics._modular_rank

    def pseudo_rank(tail, window=None, memo=None):
        row_sets.append(frozenset(row.tobytes() for row in tail) - {bytes(16)})
        return real_pseudo_rank(tail, window, memo)

    def modular_rank(mat):
        eliminations.append(mat.shape)
        return real_modular_rank(mat)

    monkeypatch.setattr(sweep, "pseudo_rank", pseudo_rank)
    monkeypatch.setattr(metrics, "_modular_rank", modular_rank)
    records = sweep._run_cohort((grid, cells))
    # every window is still ranked through pseudo_rank, but each
    # distinct row set is eliminated once
    assert len(row_sets) == 8
    assert len(eliminations) == len(set(row_sets)) == 2
    assert {(r.bits, r.cycle.period, r.pseudo_rank) for r in records} == {
        (4, 23, 9), (6, 1, 1)
    }
    # a lone cell ranks its own window, with no memo
    for r in records:
        assert r == run_cell(grid, r.n, r.density, r.bits, r.seed), r.run_id
        assert naive_measurements(grid, r.n, r.density, r.bits, r.seed)[2] == (
            r.pseudo_rank
        )
    assert len(eliminations) == 2 + 2 * 8


def test_cohort_job_memory_is_bounded():
    # One full cohort at n = 74, bits 9..16, with 4 of its 8 lanes
    # censored at horizon 1000: its traced peak measured 1.54 MB (2^20 B).
    grid = SweepGrid(sizes=[74], densities=[0.9], bit_widths=list(range(9, 17)),
                     master_seed=13)
    (cells,) = sweep._cohorts(grid)
    tracemalloc.start()
    try:
        records = sweep._run_cohort((grid, cells))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == sweep.LANES
    assert sum(r.cycle.status == CENSORED for r in records) == 4
    assert peak < 2 * 2**20


def test_measure_run_from_cycle_entry():
    # start on a fixed point: revisit at t=1, so mu == 0 everywhere
    net = Network(
        n=2,
        weights=np.array([[0, 4], [4, 0]]),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(3),
    )
    v = np.array([7, 7])
    init = NetworkState(v=v, s=net.spikes_of(v))
    rate, active, rank, cycle = measure(net, init, horizon=10, window=5)
    assert (rate, active, rank) == (1.0, 1.0, 1)
    assert (cycle.transient, cycle.period) == (0, 1)

    # period-2 orbit: v=(3,4) sits on the cycle, v=(3,6) enters after one
    # step, so both arms of the wrap-around row mapping are used
    pair = Network(
        n=2,
        weights=np.array([[0, 4], [3, 0]]),
        thresholds=np.array([5, 4]),
        leak_k=1,
        domain=IntegerDomain(3),
    )
    for v0, expected in (([3, 4], (0, 2)), ([3, 6], (1, 2))):
        start = NetworkState(v=np.array(v0), s=pair.spikes_of(np.array(v0)))
        got = measure(pair, start, horizon=9, window=4)
        traj = simulate(pair, start, 9)
        assert got[0] == firing_rate(traj.raster)
        assert got[1] == active_fraction(traj.raster)
        assert got[2] == pseudo_rank(traj.raster, window=4)
        assert got[3] == detect_cycle(pair, start, 9)
        assert (got[3].transient, got[3].period) == expected

    # the boundaries of the step->row map, from the enumerated start with
    # the longest transient: mu = 13, period 4, first revisit t2 = 17;
    # row 12 is the cycle entry, row 11 the last transient row
    net = Network(
        n=5,
        weights=np.array(
            [
                [0, 3, -1, -2, 1],
                [-2, 0, 2, 2, -2],
                [2, 3, 0, -3, -3],
                [3, 0, -3, 0, 3],
                [-2, -2, 3, -1, 0],
            ]
        ),
        thresholds=np.array([1, 2, 1, 2, 1]),
        leak_k=1,
        domain=IntegerDomain(2),
    )
    report = enumerate_state_graph(net)
    index = int(report.transients.argmax())
    start = decode_state(net, index)
    assert (report.transients[index], report.periods[index]) == (13, 4)
    cases = (
        (17, 8, DETECTED, 5),  # the first revisit falls on the horizon
        (16, 8, CENSORED, 5),  # it falls one tick past: censored
        (20, 8, DETECTED, 4),  # the window starts on the cycle entry
        (20, 9, DETECTED, 5),  # the window reaches a transient row
        (51, 40, DETECTED, 5),  # ... across several laps of the cycle
    )
    for horizon, window, status, rank in cases:
        got = measure(net, start, horizon=horizon, window=window)
        traj = simulate(net, start, horizon)
        assert got[0] == firing_rate(traj.raster)
        assert got[1] == active_fraction(traj.raster)
        assert got[2] == pseudo_rank(traj.raster, window=window) == rank
        assert got[3] == detect_cycle(net, start, horizon)
        assert got[3].status == status

    # horizons far past the revisit: the spike total is the transient
    # rows, `laps` whole cycles and `rest` rows of one more, exact where
    # horizon x n passes 2^63; the window and active set are those of a
    # short horizon congruent to the long one modulo the period that
    # still holds the transient and a window
    mu, period, window = 13, 4, 500
    counts = simulate(net, start, mu + period).raster.sum(axis=1).tolist()
    for horizon in (10**6, 10**6 + 3, 2**62 + 1):
        laps, rest = divmod(horizon - mu, period)
        total = sum(counts[:mu]) + laps * sum(counts[mu:])
        total += sum(counts[mu : mu + rest])
        short = mu + window + (horizon - mu - window) % period
        traj = simulate(net, start, short)
        got = measure(net, start, horizon=horizon, window=window)
        assert got[0] == total / (horizon * net.n)
        assert got[1] == active_fraction(traj.raster)
        assert got[2] == pseudo_rank(traj.raster, window=window)
        assert got[3] == detect_cycle(net, start, short) == detect_cycle(
            net, start, horizon
        )


def test_run_cell_memory_follows_the_run_not_the_horizon():
    # this cell first revisits at step 34; a raster or step index of
    # horizon rows would trace 64 MB or more
    grid = SweepGrid(horizon=10**6, master_seed=DEFAULT_MASTER_SEED)
    tracemalloc.start()
    try:
        record = run_cell(grid, 64, 0.5, 8, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (record.cycle.status, record.cycle.transient, record.cycle.period) == (
        DETECTED, 24, 10
    )
    assert peak < 2 * 2**20


def test_focused_runs_share_one_topology_per_bits():
    records, summaries = run_focused(
        bit_widths=[3], n=8, density=0.5, seeds=3, horizon=30
    )
    assert len(records) == 3
    assert {r.run_id for r in records} == {
        "N008-d0.5-b03-s0", "N008-d0.5-b03-s1", "N008-d0.5-b03-s2",
    }
    (summary,) = summaries
    assert summary.run_count == 3
    grid = focused_grid(SweepGrid(horizon=30), [3], n=8, density=0.5, seeds=3)
    assert grid.seeds_per_cell == 3
    assert (grid.sizes, grid.densities, grid.bit_widths) == ([8], [0.5], [3])
    with pytest.raises(ValueError):
        focused_grid(SweepGrid(), [3], n=8, seeds=1)
    with pytest.raises(ValueError, match="bits must be nonempty"):
        focused_grid(SweepGrid(), [], n=8, seeds=3)
    net0 = build_network(grid, 8, 0.5, 3)
    net1 = build_network(grid, 8, 0.5, 3)
    assert np.array_equal(net0.weights, net1.weights)
    with pytest.raises(ValueError):
        run_focused(bit_widths=[3], n=8, seeds=1, horizon=30)


def test_top_recurrent_ordering():
    def rec(run_id, rank, rate):
        r = run_cell(tiny_grid(), 3, 0.5, 2, 0)
        r.run_id, r.pseudo_rank, r.mean_firing_rate = run_id, rank, rate
        return r

    records = [rec("b", 3, 0.5), rec("a", 5, 0.1), rec("c", 3, 0.9), rec("d", 3, 0.5)]
    top = top_recurrent(records, 3)
    assert [r.run_id for r in top] == ["a", "c", "b"]
    assert len(top_recurrent(records, 99)) == 4
    with pytest.raises(ValueError):
        top_recurrent([], 3)


def test_manifest_content_and_determinism(tmp_path):
    grid = tiny_grid()
    doc = build_manifest(grid)
    assert doc["master_seed"] == DEFAULT_MASTER_SEED
    assert doc["grid"]["sizes"] == [3, 5]
    assert doc["grid"]["threshold_range"] == [4, 8]
    assert doc["model"]["weight_range"] == [-4, 4]
    assert doc["model"]["weights_exclude_zero"] is True
    assert doc["seed_tree"]["streams"] == {
        "topology": 1, "thresholds": 2, "initial_state": 3,
    }
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(grid, p1)
    write_manifest(tiny_grid(), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == doc


def test_variant_presets():
    assert VARIANT_PRESETS["variant-k8"] == {"leak_k": 8, "densities": [0.2]}
