"""Trajectories, recurrence detection, and exhaustive enumeration."""

import json
import tracemalloc

import numpy as np
import pytest

from intsnn import dynamics
from intsnn.arith import SATURATE, SIGNED, UNSIGNED, IntegerDomain
from intsnn.dynamics import (
    CENSORED,
    DETECTED,
    REPLAY_LANES,
    Attractor,
    StateGraphReport,
    _decode_indices,
    _lattice_codes,
    _successor_indices,
    decode_state,
    detect_cycle,
    detection_mismatches,
    encode_state,
    enumerate_state_graph,
    oracle_json,
    resolve_successors,
    simulate,
    state_space_size,
    write_trajectory_csv,
)
from intsnn.network import (
    RESET_NONE,
    RESET_SUBTRACT,
    LaneStack,
    Network,
    NetworkState,
    generate_topology,
    initial_state,
    sample_thresholds,
    step,
)
from intsnn.rng import derive_seed


def single_neuron(bits, theta, reset_mode="none"):
    return Network(
        n=1,
        weights=np.zeros((1, 1), dtype=np.int64),
        thresholds=np.array([theta]),
        leak_k=1,
        domain=IntegerDomain(bits),
        reset_mode=reset_mode,
    )


def decay_start(net, v0):
    v = np.array([v0])
    return NetworkState(v=v, s=net.spikes_of(v))


def test_simulate_decay_trace():
    net = single_neuron(bits=3, theta=7)
    traj = simulate(net, decay_start(net, 5), horizon=6)
    assert traj.states[:, 0].tolist() == [5, 3, 2, 1, 1, 1, 1]
    assert not traj.raster.any()
    assert traj.horizon == 6
    assert traj.s0.tolist() == [0]


def test_simulate_validation():
    net = single_neuron(bits=3, theta=7)
    with pytest.raises(ValueError):
        simulate(net, decay_start(net, 5), horizon=0)


def test_detect_cycle_on_decay_trace():
    net = single_neuron(bits=3, theta=7)
    report = detect_cycle(net, decay_start(net, 5), horizon=6)
    assert (report.status, report.transient, report.period) == (DETECTED, 3, 1)
    # the first revisit happens at t=4; horizon 3 cannot see it
    censored = detect_cycle(net, decay_start(net, 5), horizon=3)
    assert (censored.status, censored.transient, censored.period) == (
        CENSORED, None, None,
    )


def test_detect_cycle_saturated_fixed_point():
    net = Network(
        n=2,
        weights=np.array([[0, 4], [4, 0]]),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(3),
    )
    v = np.array([7, 7])
    init = NetworkState(v=v, s=net.spikes_of(v))
    traj = simulate(net, init, horizon=4)
    assert (traj.states == 7).all()
    assert traj.raster.all()
    report = detect_cycle(net, init, horizon=4)
    assert (report.transient, report.period) == (0, 1)


def test_state_space_size_and_codec():
    plain = single_neuron(bits=2, theta=2)
    assert state_space_size(plain) == 4
    reset = single_neuron(bits=2, theta=1, reset_mode=RESET_SUBTRACT)
    assert state_space_size(reset) == 8

    pair = Network(
        n=2,
        weights=np.zeros((2, 2), dtype=np.int64),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(2),
        reset_mode=RESET_SUBTRACT,
    )
    assert state_space_size(pair) == 64
    # neuron 0 is the most significant digit; spike bits trail
    state = decode_state(pair, 30)
    assert state.v.tolist() == [1, 3]
    assert state.s.tolist() == [1, 0]
    assert encode_state(pair, state) == 30
    for idx in range(64):
        assert encode_state(pair, decode_state(pair, idx)) == idx


def test_enumerate_single_neuron_decay():
    net = single_neuron(bits=2, theta=2)
    report = enumerate_state_graph(net)
    assert report.state_count == 4
    # map: 0 -> 0, 1 -> 1, 2 -> 1, 3 -> 2
    assert report.transients.tolist() == [0, 0, 1, 2]
    assert report.periods.tolist() == [1, 1, 1, 1]
    assert [(a.period, a.basin_size, a.representative) for a in report.attractors] == [
        (1, 1, 0),
        (1, 3, 1),
    ]
    assert report.attractor_ids.tolist() == [0, 1, 1, 1]


def test_enumerate_single_neuron_with_reset():
    net = single_neuron(bits=2, theta=1, reset_mode=RESET_SUBTRACT)
    report = enumerate_state_graph(net)
    assert report.state_count == 8
    # every (v, s) drains into the quiescent state (0, 0) at index 0
    assert [(a.period, a.basin_size, a.representative) for a in report.attractors] == [
        (1, 8, 0),
    ]
    assert report.transients.tolist() == [0, 1, 2, 2, 2, 2, 3, 3]
    assert (report.periods == 1).all()


FROZEN_PAIR_SEED = 32  # found by scanning seeds for a period-2 attractor


def frozen_pair():
    weights = generate_topology(2, 1.0, -4, 4, derive_seed(FROZEN_PAIR_SEED, 1))
    thresholds = sample_thresholds(2, 1, 7, derive_seed(FROZEN_PAIR_SEED, 2))
    return Network(
        n=2,
        weights=weights,
        thresholds=thresholds,
        leak_k=1,
        domain=IntegerDomain(3),
    )


def test_enumerate_frozen_pair_has_period_two():
    net = frozen_pair()
    assert net.weights.tolist() == [[0, 4], [3, 0]]
    assert net.thresholds.tolist() == [5, 4]
    report = enumerate_state_graph(net)
    assert report.state_count == 64
    summary = [(a.period, a.basin_size, a.representative) for a in report.attractors]
    assert summary == [
        (1, 1, 0),
        (1, 3, 1),
        (1, 4, 8),
        (1, 18, 9),
        (2, 11, 28),
        (2, 11, 29),
        (1, 13, 62),
        (1, 3, 63),
    ]
    assert sum(a.basin_size for a in report.attractors) == 64


def walk_successors(succ):
    """Reference resolver for the map x -> succ[x]: walks the functional
    graph one state at a time with memoization, so each state is
    visited a constant number of times."""
    total = len(succ)
    succ = succ.tolist()
    transients = [0] * total
    periods = [0] * total
    attractor_ids = [0] * total
    color = bytearray(total)  # 0 new, 1 on path, 2 resolved
    cycles = []
    for root in range(total):
        if color[root] == 2:
            continue
        path = []
        node = root
        while color[node] == 0:
            color[node] = 1
            path.append(node)
            node = succ[node]
        if color[node] == 1:
            entry = path.index(node)
            cycle = path[entry:]
            aid = len(cycles)
            cycles.append(cycle)
            p = len(cycle)
            for member in cycle:
                color[member] = 2
                transients[member] = 0
                periods[member] = p
                attractor_ids[member] = aid
            tail = path[:entry]
            base = 0
        else:
            tail = path
            p = periods[node]
            aid = attractor_ids[node]
            base = transients[node]
        for dist, member in enumerate(reversed(tail)):
            color[member] = 2
            transients[member] = base + dist + 1
            periods[member] = p
            attractor_ids[member] = aid
    del succ, color

    # Canonical order: by smallest member index; remap ids to match.
    order = sorted(range(len(cycles)), key=lambda a: min(cycles[a]))
    remap = np.empty(len(cycles), dtype=np.int64)
    for new_id, old_id in enumerate(order):
        remap[old_id] = new_id
    attractor_ids = remap[np.array(attractor_ids, dtype=np.int64)]
    basin_sizes = np.bincount(attractor_ids, minlength=len(cycles))
    return StateGraphReport(
        state_count=total,
        transients=np.array(transients, dtype=np.int64),
        periods=np.array(periods, dtype=np.int64),
        attractor_ids=attractor_ids,
        attractors=[
            Attractor(
                period=len(cycles[old_id]),
                basin_size=int(basin_sizes[new_id]),
                representative=min(cycles[old_id]),
            )
            for new_id, old_id in enumerate(order)
        ],
    )


def assert_same_report(got, want):
    assert got.state_count == want.state_count
    for field in ("transients", "periods", "attractor_ids"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.int64, field
        assert a.tolist() == b.tolist(), field
    assert got.attractors == want.attractors
    for a in got.attractors:
        assert {type(a.period), type(a.basin_size), type(a.representative)} == {int}


def functional_maps(total):
    """Named successor arrays on 0..total-1: the identity, one cycle
    through every state, a chain of total-1 steps into a fixed point
    (the longest transient, which needs all (total-1).bit_length()
    rounds), the same chain and cycle under a random relabelling, random
    maps, and a random permutation with some states redirected."""
    rng = np.random.default_rng(total)
    idx = np.arange(total, dtype=np.int64)
    chain = np.minimum(idx + 1, total - 1)
    cycle = (idx + 1) % total
    perm = rng.permutation(total)
    relabel = np.empty_like(perm)
    relabel[perm] = idx  # conjugate: state perm[i] steps to perm[map[i]]
    yield "identity", idx
    yield "cycle", cycle
    yield "chain", chain
    yield "chain relabelled", perm[chain][relabel]
    yield "cycle relabelled", perm[cycle][relabel]
    for k in range(3):
        yield f"random {k}", rng.integers(0, total, size=total, dtype=np.int64)
    # long cycles of a random permutation, with 30% of states redirected
    tails = rng.integers(0, total, size=total, dtype=np.int64)
    yield "permutation with tails", np.where(rng.random(total) < 0.3, tails, perm)


@pytest.mark.parametrize("total", [2, 3, 7, 8, 9, 1000, 4097])
def test_resolve_successors_matches_walk(total):
    for name, succ in functional_maps(total):
        got = resolve_successors(succ)
        want = walk_successors(succ)
        assert_same_report(got, want)
        if name == "chain":
            assert got.transients.tolist() == list(range(total - 1, -1, -1))
        if name.startswith("cycle"):
            assert got.attractors == [Attractor(total, total, 0)]
        if name == "identity":
            assert len(got.attractors) == total


def test_detector_agrees_with_enumeration():
    for net in (
        single_neuron(bits=2, theta=2),
        single_neuron(bits=2, theta=1, reset_mode=RESET_SUBTRACT),
        frozen_pair(),
    ):
        report = enumerate_state_graph(net)
        assert detection_mismatches(net, report) == []
        # eventual periodicity: the tail plus one cycle fits in the space
        assert int((report.transients + report.periods).max()) <= report.state_count


def test_basins_partition_randomized_networks():
    for case in range(8):
        n = 1 + case % 3
        bits = 1 + case % 4
        weights = generate_topology(n, 0.8, -2, 2, seed=derive_seed(50, case))
        hi = max(1, min(4, (1 << bits) - 1))
        thresholds = sample_thresholds(n, 1, hi, seed=derive_seed(51, case))
        net = Network(
            n=n,
            weights=weights,
            thresholds=thresholds,
            leak_k=1,
            domain=IntegerDomain(bits),
            reset_mode=RESET_SUBTRACT if case % 2 else "none",
        )
        report = enumerate_state_graph(net)
        assert sum(a.basin_size for a in report.attractors) == report.state_count
        assert int(np.bincount(report.attractor_ids).min()) >= 1


def object_mode_networks():
    # A weight of 2^63 - 1 or a threshold of 2^63 forces Python-int
    # stepping on a 3-bit lattice small enough to enumerate.
    variants = [
        ("signed", [[0, (1 << 63) - 1], [-3, 0]], np.array([3, 2])),
        ("unsigned", [[0, 2], [-3, 0]], np.array([3, 1 << 63], dtype=object)),
    ]
    for signedness, weights, thresholds in variants:
        for overflow in ("saturate", "wrap"):
            for reset in ("none", RESET_SUBTRACT):
                net = Network(
                    n=2,
                    weights=np.array(weights, dtype=np.int64),
                    thresholds=thresholds,
                    leak_k=1,
                    domain=IntegerDomain(3, signedness, overflow),
                    reset_mode=reset,
                )
                assert net.state_dtype is object
                yield net


def test_enumerate_object_mode_networks():
    for net in object_mode_networks():
        report = enumerate_state_graph(net)
        basins = sum(a.basin_size for a in report.attractors)
        assert basins == report.state_count == state_space_size(net)
        assert detection_mismatches(net, report) == []
        # successors agree with stepping one decoded state at a time
        succ = _successor_indices(net, report.state_count)
        assert succ.tolist() == stepped_successors(net).tolist()


MODES = [
    (signedness, overflow, reset)
    for signedness in ("unsigned", "signed")
    for overflow in ("saturate", "wrap")
    for reset in ("none", RESET_SUBTRACT)
]


def mode_network(case, signedness, overflow, reset):
    domain = IntegerDomain(3, signedness, overflow)
    return Network(
        n=3,
        weights=generate_topology(3, 0.8, -2, 2, seed=derive_seed(60, case)),
        thresholds=sample_thresholds(
            3, 1, max(1, min(4, domain.max_value)), seed=derive_seed(61, case)
        ),
        leak_k=1,
        domain=domain,
        reset_mode=reset,
    )


def stepped_successors(net):
    """Successor array built one state at a time from the scalar codec."""
    succ = []
    for idx in range(state_space_size(net)):
        state = decode_state(net, idx)
        v, s = net.step_arrays(state.v, state.s)
        succ.append(encode_state(net, NetworkState(v=v, s=s)))
    return np.array(succ, dtype=np.int64)


def test_enumerate_matches_walk_on_mode_networks():
    nets = [mode_network(case, *mode) for case, mode in enumerate(MODES)]
    for net in nets + list(object_mode_networks()):
        succ = stepped_successors(net)
        assert _successor_indices(net, len(succ)).tolist() == succ.tolist()
        assert_same_report(enumerate_state_graph(net), walk_successors(succ))


def one_state_scans(net, v, s, horizon):
    """(transient, period) of each row scanned alone, -1s when censored."""
    out = []
    for lane_v, lane_s in zip(v, s):
        r = detect_cycle(net, NetworkState(v=lane_v, s=lane_s), horizon)
        out.append((r.transient, r.period) if r.status == DETECTED else (-1, -1))
    return out


def batch_scan(net, starts, horizon):
    transients, periods = detect_cycle(net, starts, horizon)
    assert transients.dtype == periods.dtype == np.int64
    return list(zip(transients.tolist(), periods.tolist()))


def assert_batch_matches_lanes(net, horizon):
    """Scan every state of the space as one batch and each state alone;
    returns the one-state (transient, period) pairs."""
    total = state_space_size(net)
    idx = np.arange(total, dtype=np.int64)
    v, s = _decode_indices(net, idx)
    codes = _lattice_codes(net, v, s)
    # the chunk decoder agrees with the scalar reference, and the chunk
    # encoder inverts it and agrees with encode_state
    assert codes.dtype == np.int64 and codes.tolist() == idx.tolist()
    for i in range(total):
        state = decode_state(net, i)
        assert v[i].tolist() == state.v.tolist()
        assert s[i].tolist() == state.s.tolist()
        assert encode_state(net, state) == codes[i]
    lanes = one_state_scans(net, v, s, horizon)
    assert batch_scan(net, idx, horizon) == lanes
    return lanes


@pytest.mark.parametrize("case", range(len(MODES)))
def test_batch_scan_matches_one_state_scans(case):
    net = mode_network(case, *MODES[case])
    report = enumerate_state_graph(net)
    full = int((report.transients + report.periods).max())
    lanes = assert_batch_matches_lanes(net, full)
    # lanes retire at different steps, and all of them within the horizon
    assert len({mu + p for mu, p in lanes}) > 1
    assert all(p >= 1 for _, p in lanes)
    # a short horizon censors the slow lanes and still detects the rest
    short = assert_batch_matches_lanes(net, max(1, full // 2))
    assert {p >= 1 for _, p in short} == {True, False}


def test_lane_stack_scan_keeps_its_keys_when_the_widest_lane_retires():
    # A 16-bit lane that starts on its attractor retires at tick 1; the
    # 4-bit lanes beside it revisit at ticks 9 to 12. The keys of every
    # lane keep the 16-bit width the scan started with, so each lane
    # reports and rebuilds its rows as it does when scanned alone.
    def lane(bits, signedness, seed):
        domain = IntegerDomain(bits, signedness, SATURATE)
        return Network(
            n=6,
            weights=generate_topology(6, 0.6, -4, 4, seed=derive_seed(51, seed)),
            thresholds=sample_thresholds(
                6, 1, min(6, domain.max_value), seed=derive_seed(52, seed)
            ),
            leak_k=1,
            domain=domain,
        )

    wide = lane(16, SIGNED, 15)
    settled = simulate(wide, initial_state(wide, derive_seed(53, 15)), 60)
    nets = [lane(4, UNSIGNED, 100), wide, lane(4, UNSIGNED, 108),
            lane(4, UNSIGNED, 111)]
    starts = [initial_state(net, derive_seed(54, seed))
              for net, seed in zip(nets, (0, 0, 8, 11))]
    starts[1] = NetworkState(settled.states[-1], settled.raster[-1].astype(np.int64))
    alone = [
        next(dynamics.first_revisit(net, st.v[None], st.s[None], 100))[1:]
        for net, st in zip(nets, starts)
    ]
    stack = LaneStack((net, 1) for net in nets)
    v = np.stack([st.v for st in starts])
    s = np.stack([st.s for st in starts])
    scanned = list(dynamics.first_revisit(stack, v, s, 100))
    # lanes in retirement order, with (transient, period)
    assert [(b, r.transient, r.period) for b, _, r in scanned] == [
        (1, 0, 1), (0, 8, 1), (3, 10, 1), (2, 11, 1)
    ]
    assert scanned[0][1].any()  # the wide lane fires on its attractor
    for b, rows, report in scanned:
        assert report == alone[b][1]
        assert rows.dtype == np.uint8 and rows.tolist() == alone[b][0].tolist()


def walk_first_revisit(net, state, horizon):
    """(transient, period) of the first revisit of a full (v, s) state,
    walked one step at a time."""
    seen = {}
    for t in range(horizon + 1):
        key = (tuple(map(int, state.v)), tuple(map(int, state.s)))
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
        state = step(state, net)
    return None


@pytest.mark.parametrize("bits", [8, 64])
def test_reset_free_start_off_the_threshold_rule_is_never_revisited(bits):
    # Without reset the scan keys a state on v alone. A start whose
    # spikes are not spikes_of(v0) shares v with its successor here,
    # (0, 1) -> (0, 0) -> (0, 0), yet is a different state: the scan
    # reads transient 1, as the walk over full (v, s) states does.
    net = Network(
        n=3,
        weights=np.zeros((3, 3), dtype=np.int64),
        thresholds=np.array([4, 5, 6]),
        leak_k=1,
        domain=IntegerDomain(bits),
    )
    assert net.state_dtype is (np.int64 if bits == 8 else object)
    v = np.zeros((2, 3), dtype=net.state_dtype)
    s = np.array([[1, 1, 1], net.spikes_of(v[1])])
    scanned = sorted(dynamics.first_revisit(net, v, s, 10), key=lambda x: x[0])
    for (lane, rows, report), lane_v, lane_s in zip(scanned, v, s):
        want = walk_first_revisit(net, NetworkState(lane_v, lane_s), 10)
        assert (report.status, report.transient, report.period) == (
            DETECTED, *want
        )
        assert rows.dtype == np.uint8 and rows.shape == (sum(want), 3)
        assert not rows.any()
    assert [r.transient for _, _, r in scanned] == [1, 0]


def test_batch_scan_object_mode_networks():
    for net in object_mode_networks():
        report = enumerate_state_graph(net)
        full = int((report.transients + report.periods).max())
        for horizon in (full, max(1, full - 1)):
            assert_batch_matches_lanes(net, horizon)


def test_batch_scan_refuses_bad_starts_and_spaces_beyond_int64():
    net = mode_network(0, *MODES[0])
    total = state_space_size(net)
    for bad in (-1, total):
        message = rf"start index {bad} lies outside 0\.\.{total - 1}"
        with pytest.raises(ValueError, match=message):
            detect_cycle(net, np.array([0, bad], dtype=np.int64), 10)
    # 2^64 states: no int64 code exists
    big = Network(
        n=8,
        weights=generate_topology(8, 0.8, -2, 2, seed=derive_seed(85, 0)),
        thresholds=sample_thresholds(8, 1, 4, seed=derive_seed(85, 1)),
        leak_k=1,
        domain=IntegerDomain(8),
    )
    assert state_space_size(big) == 1 << 64
    with pytest.raises(ValueError, match=f"{1 << 64} states.*int64"):
        detect_cycle(big, np.arange(6, dtype=np.int64), 11)


def checkpoint_network():
    # every first revisit time 7, 8, 9, 15, 16, 17, 31, 32, 33 occurs,
    # with periods 4 and 15
    domain = IntegerDomain(4, "unsigned", "wrap")
    return Network(
        n=3,
        weights=generate_topology(3, 0.8, -2, 2, seed=derive_seed(90, 3)),
        thresholds=sample_thresholds(3, 1, 4, seed=derive_seed(91, 3)),
        leak_k=1,
        domain=domain,
    )


@pytest.mark.parametrize(
    "revisits, ticks",
    [
        ((7,), 8), ((8,), 8), ((7, 8), 8), ((9,), 16), ((8, 9), 16),
        ((15,), 16), ((16,), 16), ((17,), 32), ((15, 16, 17), 32),
        ((31,), 32), ((32,), 32), ((33,), 64), ((7, 9, 17, 33), 64),
    ],
)
def test_batch_scan_around_checkpoints(monkeypatch, revisits, ticks):
    # Lanes are searched at ticks 8, 16, 32, ... and at the horizon, so a
    # first revisit one tick before, on, or after a checkpoint is found
    # there or at the next one, and the batch steps exactly that long.
    net = checkpoint_network()
    report = enumerate_state_graph(net)
    sums = report.transients + report.periods
    picked = np.concatenate([np.flatnonzero(sums == t2)[:5] for t2 in revisits])
    assert len(picked) == 5 * len(revisits)
    expected = list(
        zip(report.transients[picked].tolist(), report.periods[picked].tolist())
    )
    assert {p for _, p in expected} <= {4, 15} and min(p for _, p in expected) > 1
    stepped = count_steps(monkeypatch, net)
    assert batch_scan(net, picked, 100) == expected
    assert len(stepped) == ticks
    # a horizon between checkpoints is itself searched: a lane revisiting
    # there is detected, one revisiting a tick later is censored
    last = max(revisits)
    assert batch_scan(net, picked, last) == expected
    cut = [pair if sum(pair) < last else (-1, -1) for pair in expected]
    assert batch_scan(net, picked, last - 1) == cut


def oracle_network(reset_mode=RESET_NONE):
    # n=3 at 4 bits: 4096 states without reset, 32768 with it
    return Network(
        n=3,
        weights=generate_topology(3, 0.8, -2, 2, seed=derive_seed(70, 0)),
        thresholds=sample_thresholds(3, 1, 4, seed=derive_seed(70, 1)),
        leak_k=1,
        domain=IntegerDomain(4),
        reset_mode=reset_mode,
    )


def replay_chunk(report, index):
    """The chunk of the sorted replay schedule that replays `index`."""
    order = np.argsort(report.transients + report.periods, kind="stable")
    return int(np.flatnonzero(order == index)[0]) // REPLAY_LANES


def test_detection_mismatches_finds_planted_errors():
    net = oracle_network()
    report = enumerate_state_graph(net)
    assert report.state_count > 2 * REPLAY_LANES
    assert detection_mismatches(net, report) == []
    sums = report.transients + report.periods
    # errors on both sides of the first chunk boundary in index order,
    # and at the last index
    planted = [REPLAY_LANES - 2, REPLAY_LANES - 1, REPLAY_LANES, REPLAY_LANES + 3,
               report.state_count - 1]
    report.transients[REPLAY_LANES - 2] += 1
    report.periods[REPLAY_LANES - 1] *= 2
    report.transients[REPLAY_LANES] += 5
    report.periods[REPLAY_LANES + 3] += 1
    report.transients[report.state_count - 1] += 1
    report.periods[report.state_count - 1] += 1
    # errors whose reported transient + period moves them to another
    # chunk of the sorted schedule: a first-chunk start raised past the
    # largest sum, and a last-chunk start brought down to a sum of 1
    last = (report.state_count - 1) // REPLAY_LANES
    early = int(np.flatnonzero(sums == 1)[-1])
    late = int(np.flatnonzero(sums == sums.max())[0])
    assert (replay_chunk(report, early), replay_chunk(report, late)) == (0, last)
    report.transients[early] = sums.max() + 1
    report.periods[late] = 1 - report.transients[late]
    assert (replay_chunk(report, early), replay_chunk(report, late)) == (last, 0)
    planted += [early, late]
    assert detection_mismatches(net, report) == sorted(planted)


def count_steps(monkeypatch, net):
    stepped = []
    step = net.step_arrays

    def counted(*args):
        stepped.append(1)
        return step(*args)

    monkeypatch.setattr(net, "step_arrays", counted)
    return stepped


def test_detection_mismatches_replays_sorted_chunks(monkeypatch):
    # Every start here revisits by step 7, so each of the 4 chunks in
    # index order replays 7 ticks (28). Sorted by transient + period,
    # the chunks' largest sums are 5, 6, 6 and 7.
    net = oracle_network()
    report = enumerate_state_graph(net)
    sums = report.transients + report.periods
    assert (report.state_count, sums.max()) == (4096, 7)
    stepped = count_steps(monkeypatch, net)
    assert detection_mismatches(net, report) == []
    assert len(stepped) == 24 < 4 * 7


def test_detection_mismatches_peak_memory():
    # 32 chunks of 1024 lanes; each live lane holds one int64 code per
    # tick up to the next checkpoint, and a checkpoint's sort a few
    # arrays of that size. It traces about 0.7 MB.
    net = oracle_network(RESET_SUBTRACT)
    report = enumerate_state_graph(net)
    assert report.state_count == 32768
    assert traced_peak(lambda: detection_mismatches(net, report)) < 2_000_000


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_peak_memory_below_walk():
    # A few N-sized arrays against the walk's Python lists of N; both
    # sides include the successor step and the report.
    net = oracle_network(RESET_SUBTRACT)
    total = state_space_size(net)
    assert total == 32768
    enum_peak = traced_peak(lambda: enumerate_state_graph(net))
    walk_peak = traced_peak(lambda: walk_successors(_successor_indices(net, total)))
    assert enum_peak < walk_peak
    succ = _successor_indices(net, total)
    assert traced_peak(lambda: resolve_successors(succ)) < traced_peak(
        lambda: walk_successors(succ)
    )


def test_enumerate_budget_refusal():
    big = Network(
        n=3,
        weights=np.zeros((3, 3), dtype=np.int64),
        thresholds=np.array([4, 4, 4]),
        leak_k=1,
        domain=IntegerDomain(8),
    )
    with pytest.raises(ValueError, match="16777216"):
        enumerate_state_graph(big)
    small = single_neuron(bits=6, theta=4)
    with pytest.raises(ValueError, match="pass budget=64"):
        enumerate_state_graph(small, budget=32)
    assert enumerate_state_graph(small, budget=64).state_count == 64


@pytest.mark.parametrize(
    "n, bits, reset, reason",
    [
        (8, 8, "none", "int64"),  # 2^64 states: codes overflow int64
        (4, 16, "none", "int64"),
        (2, 32, RESET_SUBTRACT, "int64"),  # 2^64 * 2^2
        (60, 1, "none", "size limit"),  # 2^60 codes, 2^63 bytes
        (31, 1, RESET_SUBTRACT, "size limit"),  # 2^62 states
    ],
)
def test_enumerate_refuses_unrepresentable_space(monkeypatch, n, bits, reset, reason):
    net = Network(
        n=n,
        weights=generate_topology(n, 0.5, -2, 2, seed=derive_seed(80, n)),
        thresholds=sample_thresholds(n, 1, 1, seed=derive_seed(81, n)),
        leak_k=1,
        domain=IntegerDomain(bits),
        reset_mode=reset,
    )

    def allocate(*args):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(dynamics, "_successor_indices", allocate)
    with pytest.raises(ValueError, match=f"{reason}.*no budget") as err:
        enumerate_state_graph(net, budget=1 << 70)
    assert str(state_space_size(net)) in str(err.value)


def test_oracle_json_shape_and_determinism():
    net = frozen_pair()
    report = enumerate_state_graph(net)
    doc = oracle_json(net, report)
    assert doc["state_count"] == 64
    assert len(doc["attractors"]) == len(report.attractors)
    first = doc["attractors"][0]
    assert set(first) == {"period", "basin_size", "representative_state"}
    assert set(first["representative_state"]) == {"v", "s"}
    again = oracle_json(net, enumerate_state_graph(net))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_trajectory_csv_golden(tmp_path):
    net = single_neuron(bits=3, theta=7)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(simulate(net, decay_start(net, 5), horizon=3), path)
    assert path.read_bytes() == b"t,neuron_id,v,s\n0,0,5,0\n1,0,3,0\n2,0,2,0\n3,0,1,0\n"


def test_trajectory_csv_interleaves_neurons(tmp_path):
    net = Network(
        n=2,
        weights=np.array([[0, 4], [4, 0]]),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(3),
    )
    v = np.array([7, 7])
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(simulate(net, NetworkState(v=v, s=net.spikes_of(v)), 2), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,neuron_id,v,s"
    assert lines[1:3] == ["0,0,7,1", "0,1,7,1"]
    assert lines[3:5] == ["1,0,7,1", "1,1,7,1"]
    assert len(lines) == 1 + 2 * 3
