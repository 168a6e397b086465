"""Topology sampling, threshold sampling, and the one-step update map."""

import numpy as np
import pytest

from intsnn import dynamics
from intsnn.arith import SATURATE, SIGNED, UNSIGNED, WRAP, IntegerDomain, clamp
from intsnn.network import (
    LaneStack,
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
from intsnn.rng import derive_seed


def reference_step(net, v, s):
    """Pure-Python restatement of the update rule, one neuron at a time."""
    out_v, out_s = [], []
    for i in range(net.n):
        acc = sum(int(net.weights[i, j]) * int(s[j]) for j in range(net.n))
        raw = int(v[i]) - (int(v[i]) >> net.leak_k) + acc
        nv = clamp(raw, net.domain)
        fired = nv >= int(net.thresholds[i])
        if fired and net.reset_mode == RESET_SUBTRACT:
            nv = clamp(nv - int(net.thresholds[i]), net.domain)
        out_v.append(nv)
        out_s.append(1 if fired else 0)
    return out_v, out_s


def test_topology_density_extremes():
    zero = generate_topology(6, 0.0, -4, 4, seed=1)
    assert not zero.any()
    full = generate_topology(6, 1.0, -4, 4, seed=1)
    offdiag = ~np.eye(6, dtype=bool)
    assert (full[offdiag] != 0).all()
    assert (np.diag(full) == 0).all()


def test_topology_values_and_determinism():
    w1 = generate_topology(20, 0.5, -4, 4, seed=9)
    w2 = generate_topology(20, 0.5, -4, 4, seed=9)
    w3 = generate_topology(20, 0.5, -4, 4, seed=10)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, w3)
    present = w1[w1 != 0]
    assert present.size > 0
    assert ((present >= -4) & (present <= 4)).all()
    positive_only = generate_topology(20, 1.0, 1, 3, seed=4)
    vals = positive_only[~np.eye(20, dtype=bool)]
    assert set(vals.tolist()) <= {1, 2, 3}


def test_topology_straddling_range_uniform_over_nonzero():
    w = generate_topology(100, 1.0, -4, 4, seed=6)
    vals = w[~np.eye(100, dtype=bool)]
    assert 0 not in set(vals.tolist())
    total = vals.size
    for value in (-4, -3, -2, -1, 1, 2, 3, 4):
        freq = np.count_nonzero(vals == value) / total
        assert abs(freq - 0.125) < 0.02


def test_topology_edge_fraction_matches_density():
    # 512 networks x 4032 off-diagonal cells puts a +-0.01 band at ~29 sigma
    total = hits = 0
    for idx in range(512):
        w = generate_topology(64, 0.5, -4, 4, seed=derive_seed(77, idx))
        offdiag = ~np.eye(64, dtype=bool)
        hits += int(np.count_nonzero(w[offdiag]))
        total += int(offdiag.sum())
    assert abs(hits / total - 0.5) < 0.01


def test_topology_validation():
    with pytest.raises(ValueError):
        generate_topology(0, 0.5, -4, 4, seed=1)
    with pytest.raises(ValueError):
        generate_topology(4, -0.1, -4, 4, seed=1)
    with pytest.raises(ValueError):
        generate_topology(4, 1.1, -4, 4, seed=1)
    with pytest.raises(ValueError):
        generate_topology(4, 0.5, 3, 1, seed=1)
    with pytest.raises(ValueError):
        generate_topology(4, 0.5, 0, 0, seed=1)


def test_thresholds_containment_and_degenerate_range():
    th = sample_thresholds(50, 4, 8, seed=3)
    assert ((th >= 4) & (th <= 8)).all()
    assert np.array_equal(th, sample_thresholds(50, 4, 8, seed=3))
    assert (sample_thresholds(10, 6, 6, seed=0) == 6).all()


def test_thresholds_frequency():
    th = sample_thresholds(100000, 4, 8, seed=11)
    for value in range(4, 9):
        freq = np.count_nonzero(th == value) / th.size
        assert abs(freq - 0.2) < 0.01


def test_thresholds_validation():
    with pytest.raises(ValueError):
        sample_thresholds(4, 0, 8, seed=1)
    with pytest.raises(ValueError):
        sample_thresholds(4, 8, 4, seed=1)


def test_network_validation():
    ok = dict(
        n=2,
        weights=np.array([[0, 1], [1, 0]]),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(8),
    )
    Network(**ok)
    with pytest.raises(ValueError):
        Network(**{**ok, "weights": np.zeros((3, 3), dtype=np.int64)})
    with pytest.raises(ValueError):
        Network(**{**ok, "weights": np.array([[1, 1], [1, 0]])})
    with pytest.raises(ValueError):
        Network(**{**ok, "thresholds": np.array([0, 4])})
    with pytest.raises(ValueError):
        Network(**{**ok, "leak_k": 0})
    with pytest.raises(ValueError):
        Network(**{**ok, "reset_mode": "zero"})


def test_step_threshold_subtraction():
    net = Network(
        n=1,
        weights=np.zeros((1, 1), dtype=np.int64),
        thresholds=np.array([4]),
        leak_k=1,
        domain=IntegerDomain(8),
        reset_mode=RESET_SUBTRACT,
    )
    # 10 leaks to 5, fires against threshold 4, then subtracts down to 1
    out = step(NetworkState(v=np.array([10]), s=np.array([0])), net)
    assert out.v.tolist() == [1]
    assert out.s.tolist() == [1]


def test_step_overflow_modes():
    weights = np.array([[0, 0], [200, 0]])
    thresholds = np.array([4, 4])
    start = NetworkState(v=np.array([0, 200]), s=np.array([1, 0]))
    wrap_net = Network(
        n=2, weights=weights, thresholds=thresholds, leak_k=1,
        domain=IntegerDomain(8, UNSIGNED, WRAP),
    )
    out = step(start, wrap_net)
    assert out.v.tolist() == [0, 44]  # 200 - 100 + 200 = 300 wraps mod 256
    assert out.s.tolist() == [0, 1]
    sat_net = Network(
        n=2, weights=weights, thresholds=thresholds, leak_k=1,
        domain=IntegerDomain(8, UNSIGNED, SATURATE),
    )
    out = step(start, sat_net)
    assert out.v.tolist() == [0, 255]
    assert out.s.tolist() == [0, 1]


def test_step_signed_arithmetic_shift():
    net = Network(
        n=1,
        weights=np.zeros((1, 1), dtype=np.int64),
        thresholds=np.array([1]),
        leak_k=1,
        domain=IntegerDomain(4, SIGNED),
    )
    out = step(NetworkState(v=np.array([-5]), s=np.array([0])), net)
    assert out.v.tolist() == [-2]  # -5 - (-5 >> 1) = -5 + 3
    assert out.s.tolist() == [0]


def test_step_dimension_mismatch():
    net = Network(
        n=2,
        weights=np.zeros((2, 2), dtype=np.int64),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(8),
    )
    with pytest.raises(ValueError):
        step(NetworkState(v=np.array([1]), s=np.array([0])), net)


def test_initial_state_covers_domain_and_matches_threshold_rule():
    net = Network(
        n=64,
        weights=np.zeros((64, 64), dtype=np.int64),
        thresholds=np.full(64, 1),
        leak_k=1,
        domain=IntegerDomain(1),
    )
    init = initial_state(net, seed=5)
    assert set(init.v.tolist()) == {0, 1}
    assert np.array_equal(init.s, net.spikes_of(init.v))
    again = initial_state(net, seed=5)
    assert np.array_equal(init.v, again.v)

    quiet = Network(
        n=16,
        weights=np.zeros((16, 16), dtype=np.int64),
        thresholds=np.full(16, 4),
        leak_k=1,
        domain=IntegerDomain(2),
    )
    init = initial_state(quiet, seed=1)
    assert not init.s.any()  # max potential 3 cannot reach threshold 4


def test_step_matches_reference_across_modes():
    case = 0
    for bits in (3, 8, 64):
        for signedness in (UNSIGNED, SIGNED):
            for overflow in (SATURATE, WRAP):
                for reset in (RESET_NONE, RESET_SUBTRACT):
                    case += 1
                    n = 2 + case % 5
                    domain = IntegerDomain(bits, signedness, overflow)
                    weights = generate_topology(
                        n, 0.7, -4, 4, seed=derive_seed(31, case)
                    )
                    hi = max(1, min(8, domain.max_value))
                    thresholds = sample_thresholds(
                        n, 1, hi, seed=derive_seed(32, case)
                    )
                    net = Network(
                        n=n, weights=weights, thresholds=thresholds,
                        leak_k=1 + case % 3, domain=domain, reset_mode=reset,
                    )
                    state = initial_state(net, seed=derive_seed(33, case))
                    for _ in range(4):
                        ref_v, ref_s = reference_step(net, state.v, state.s)
                        state = step(state, net)
                        assert [int(x) for x in state.v] == ref_v
                        assert [int(x) for x in state.s] == ref_s
                    # a (B, n) batch steps every row as a single state
                    # would; both sum in float32, or in Python ints
                    starts = [
                        initial_state(net, seed=derive_seed(34, case, b))
                        for b in range(64)
                    ]
                    assert net._wt_exec.dtype == (
                        object if bits == 64 else np.float32
                    )
                    batch_v = np.stack([st.v for st in starts])
                    batch_s = np.stack([st.s for st in starts])
                    for _ in range(4):
                        rows = [
                            net.step_arrays(v, s) for v, s in zip(batch_v, batch_s)
                        ]
                        batch_v, batch_s = net.step_arrays(batch_v, batch_s)
                        assert batch_v.shape == batch_s.shape == (64, n)
                        assert batch_v.dtype == net.state_dtype
                        for (v, s), bv, bs in zip(rows, batch_v, batch_s):
                            assert [int(x) for x in bv] == [int(x) for x in v]
                            assert [int(x) for x in bs] == [int(x) for x in s]


@pytest.mark.parametrize("overflow", [SATURATE, WRAP])
@pytest.mark.parametrize("reset", [RESET_NONE, RESET_SUBTRACT])
def test_lane_stack_steps_each_lane_by_its_network(overflow, reset):
    # Weight scales whose row sums need float32, float64 and int64; the
    # stack takes the widest its lanes need and stays exact.
    nets = [
        Network(
            n=4,
            weights=generate_topology(4, 0.9, -scale, scale, seed=derive_seed(41, i)),
            thresholds=sample_thresholds(4, 1, 9, seed=derive_seed(42, i)),
            leak_k=2,
            domain=IntegerDomain(bits, SIGNED, overflow),
            reset_mode=reset,
        )
        for i, (scale, bits) in enumerate(
            [(4, 3), (1 << 30, 12), (4, 16), (1 << 58, 5), (9, 1)]
        )
    ]
    assert [n._wt_exec.dtype for n in nets] == [
        np.float32, np.float64, np.float32, np.int64, np.float32
    ]
    stack = LaneStack([(nets[0], 1), (nets[1], 2), (nets[2], 1), (nets[3], 1),
                       (nets[4], 2)])
    lanes = [0, 1, 1, 2, 3, 4, 4]
    assert stack._wt_exec.dtype == np.int64
    starts = [initial_state(nets[i], seed=derive_seed(43, b)) for b, i in enumerate(lanes)]
    v = np.stack([st.v for st in starts])
    s = np.stack([st.s for st in starts])
    for tick in range(6):
        want = [nets[i].step_arrays(v[b], s[b]) for b, i in enumerate(lanes)]
        v, s = stack.step_arrays(v, s)
        assert [r.tolist() for r in v] == [w[0].tolist() for w in want]
        assert [r.tolist() for r in s] == [w[1].tolist() for w in want]
        if tick == 2:  # drop lanes as a scan retires them
            keep = [6, 0, 3]
            stack, v, s, lanes = (
                stack.take_lanes(keep), v[keep], s[keep], [lanes[k] for k in keep]
            )


def lane_net(n=4, leak_k=2, overflow=SATURATE, reset=RESET_NONE, bits=8):
    return Network(
        n=n,
        weights=generate_topology(n, 0.9, -4, 4, seed=derive_seed(44, n)),
        thresholds=sample_thresholds(n, 1, 9, seed=derive_seed(45, n)),
        leak_k=leak_k,
        domain=IntegerDomain(bits, SIGNED, overflow),
        reset_mode=reset,
    )


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize(
    "other, message",
    [
        ({"n": 5}, "lanes must share n, leak_k and the modes"),
        ({"leak_k": 3}, "lanes must share n, leak_k and the modes"),
        ({"overflow": WRAP}, "lanes must share n, leak_k and the modes"),
        ({"reset": RESET_SUBTRACT}, "lanes must share n, leak_k and the modes"),
        # signed 64-bit saturation steps in object mode
        ({"bits": 64}, "an object-mode network cannot join a lane stack"),
    ],
)
def test_lane_stack_refuses_networks_it_cannot_step_together(other, message, first):
    pair = [(lane_net(), 2), (lane_net(**other), 1)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        LaneStack(pair if first else pair[::-1])


@pytest.mark.parametrize("reset", [RESET_NONE, RESET_SUBTRACT])
@pytest.mark.parametrize("signedness", [UNSIGNED, SIGNED])
@pytest.mark.parametrize("bits", [3, 16, 63, 64])
def test_wrap_step_matches_scalar_clamp_far_outside_domain(bits, signedness, reset):
    # Weights of several cardinalities (up to the int64 limit) push the
    # raw potential laps below and above the lattice; the vector wrap must
    # agree with arith.clamp, in int64 and in object mode alike.
    domain = IntegerDomain(bits, signedness, WRAP)
    big = min(5 * domain.cardinality + 3, (1 << 63) - 1)
    net = Network(
        n=3,
        weights=np.array([[0, big, big], [-big, 0, -big], [big, -big, 0]]),
        thresholds=np.array([1, 2, 3]),
        leak_k=1,
        domain=domain,
        reset_mode=reset,
    )
    assert net.state_dtype == (object if bits >= 63 else np.int64)
    gen = np.random.default_rng(bits)
    lo, hi = domain.min_value, domain.max_value
    v = np.array(
        [[lo, hi, 0], [hi, lo, hi]]
        + [[lo + int(gen.integers(0, 1 << 62)) % (hi - lo) for _ in range(3)]
           for _ in range(14)],
        dtype=net.state_dtype,
    )
    s = np.ones((16, 3), dtype=np.int64)
    s[2:] = gen.integers(0, 2, size=(14, 3))
    raws = [
        int(x) - (int(x) >> 1) + sum(int(w) * int(b) for w, b in zip(row, bits_))
        for vrow, bits_ in zip(v, s)
        for x, row in zip(vrow, net.weights)
    ]
    # at least a quarter lap out on both sides; many laps below 63 bits
    assert min(raws) < lo - domain.cardinality // 4
    assert max(raws) > hi + domain.cardinality // 4
    for _ in range(3):
        want = [reference_step(net, rv, rs) for rv, rs in zip(v, s)]
        v, s = net.step_arrays(v, s)
        assert [[int(x) for x in row] for row in v] == [w[0] for w in want]
        assert [[int(x) for x in row] for row in s] == [w[1] for w in want]


def test_network_refuses_non_integer_weights_and_thresholds():
    ok = dict(
        n=2,
        weights=[[0, 1], [1, 0]],
        thresholds=[2, 2],
        leak_k=1,
        domain=IntegerDomain(4),
    )
    # An int64 cast would step with weights [[0, 0], [1, 0]] and
    # threshold 1, so v = 1 would fire below the threshold 1.5.
    with pytest.raises(ValueError, match="weights"):
        Network(**{**ok, "weights": [[0, 0.5], [1.5, 0]]})
    with pytest.raises(ValueError, match="thresholds"):
        Network(**{**ok, "thresholds": [1.5, 2]})
    with pytest.raises(ValueError, match="thresholds"):
        Network(**{**ok, "thresholds": np.array([2, 2.5], dtype=object)})
    with pytest.raises(ValueError, match="weights"):
        Network(**{**ok, "weights": np.array([[False, True], [True, False]])})
    # Object-mode thresholds hold Python ints beyond int64 and pass.
    wide = sample_thresholds(2, 1, 2**64, seed=3)
    assert wide.dtype == object
    net = Network(**{**ok, "thresholds": wide, "domain": IntegerDomain(64)})
    assert net.state_dtype is object


def test_object_mode_only_when_int64_could_overflow():
    small = Network(
        n=2,
        weights=np.array([[0, 3], [2, 0]]),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(8),
    )
    assert small.state_dtype == np.int64
    wide = Network(
        n=2,
        weights=np.array([[0, 3], [2, 0]]),
        thresholds=np.array([4, 4]),
        leak_k=1,
        domain=IntegerDomain(64),
    )
    assert wide.state_dtype is object
    # the top of the 64-bit unsigned lattice survives a saturating step
    top = NetworkState(
        v=np.array([wide.domain.max_value] * 2, dtype=object),
        s=np.array([1, 1]),
    )
    out = step(top, wide)
    assert all(0 <= int(x) <= wide.domain.max_value for x in out.v)
    assert out.s.tolist() == [1, 1]


@pytest.mark.parametrize(
    "scale, bits, dtype",
    [(4, 3, np.float32), (1 << 30, 12, np.float64), (1 << 58, 5, np.int64),
     (4, 64, object)],
)
def test_single_state_steps_exactly_in_every_sum_dtype(scale, bits, dtype):
    # One state sums in the network's one weight array, as a batch does:
    # the narrowest exact type for its row sums, or Python ints.
    net = Network(
        n=4,
        weights=generate_topology(4, 0.9, -scale, scale, seed=derive_seed(44, bits)),
        thresholds=sample_thresholds(4, 1, 3, seed=derive_seed(45, bits)),
        leak_k=2,
        domain=IntegerDomain(bits, SIGNED, WRAP),
        reset_mode=RESET_SUBTRACT,
    )
    assert net._wt_exec.dtype == dtype
    state = initial_state(net, seed=derive_seed(46, bits))
    fired = 0
    for _ in range(6):
        ref_v, ref_s = reference_step(net, state.v, state.s)
        state = step(state, net)
        assert state.v.dtype == net.state_dtype
        assert [int(x) for x in state.v] == ref_v
        assert [int(x) for x in state.s] == ref_s
        fired += sum(ref_s)
    assert fired  # the weights took part in the sums


def test_state_key_distinguishes_states(monkeypatch):
    real = dynamics._state_keys
    for bits, signedness, want in [
        (8, UNSIGNED, np.uint8), (8, SIGNED, np.int8),
        (64, UNSIGNED, np.uint64), (64, SIGNED, np.int64),
    ]:
        nets = [
            Network(
                n=2,
                weights=np.zeros((2, 2), dtype=np.int64),
                thresholds=np.array([4, 4]),
                leak_k=1,
                domain=IntegerDomain(bits, signedness),
                reset_mode=reset,
            )
            for reset in (RESET_NONE, RESET_SUBTRACT)
        ]
        for net in nets:
            # the scan keys potentials in the narrowest dtype of the
            # domain, and packs spikes only where reset makes them part
            # of the state
            used = []
            monkeypatch.setattr(
                dynamics, "_state_keys",
                lambda v, s, dtype: used.append((dtype, s is None))
                or real(v, s, dtype),
            )
            init = initial_state(net, seed=7)
            next(dynamics.first_revisit(net, init.v[None], init.s[None], 4))
            monkeypatch.undo()
            assert set(used) == {(want, net.reset_mode == RESET_NONE)}
        top, bottom = nets[0].domain.max_value, nets[0].domain.min_value
        v = np.array([[1, 2], [2, 1], [1, 2], [top, 1], [top - 1, 1], [bottom, 1]],
                     dtype=nets[0].state_dtype)
        s = np.array([[0, 0], [0, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
        # without reset, v alone in the narrowest dtype of the domain
        keys = real(v, None, want)
        assert len(set(keys)) == 5 and keys[0] == keys[2]
        assert {len(k) for k in keys} == {2 * bits // 8}
        assert real(v[:1], None, want) == keys[:1]
        # with reset, v and then one byte of spikes: rows 0 and 2 differ
        # in their spikes alone
        keys = real(v, s, want)
        assert len(set(keys)) == 6
        assert {len(k) for k in keys} == {2 * bits // 8 + 1}
        assert real(v[:1], s[:1], want) == keys[:1]


def test_json_round_trip():
    weights = generate_topology(5, 0.6, -4, 4, seed=8)
    net = Network(
        n=5,
        weights=weights,
        thresholds=sample_thresholds(5, 4, 8, seed=9),
        leak_k=2,
        domain=IntegerDomain(6, SIGNED, WRAP),
        reset_mode=RESET_SUBTRACT,
        seed_provenance={"topology_seed": 8, "threshold_seed": 9},
    )
    doc = network_to_json(net)
    back = network_from_json(doc)
    assert np.array_equal(back.weights, net.weights)
    assert np.array_equal(back.thresholds, net.thresholds)
    assert back.domain == net.domain
    assert back.leak_k == net.leak_k
    assert back.reset_mode == net.reset_mode
    assert back.seed_provenance == net.seed_provenance
    state = initial_state(net, seed=3)
    v1, s1 = net.step_arrays(state.v, state.s)
    v2, s2 = back.step_arrays(state.v, state.s)
    assert np.array_equal(v1, v2) and np.array_equal(s1, s2)


def test_json_round_trip_empty_topology():
    net = Network(
        n=3,
        weights=np.zeros((3, 3), dtype=np.int64),
        thresholds=np.array([4, 5, 6]),
        leak_k=1,
        domain=IntegerDomain(8),
    )
    back = network_from_json(network_to_json(net))
    assert np.array_equal(back.weights, net.weights)
