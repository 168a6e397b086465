"""Trajectory iteration, exact recurrence detection, exhaustive enumeration.

The update map is deterministic on a finite state space, so every
trajectory is eventually periodic. detect_cycle finds the entry point
and period of one trajectory by hashing visited states, or of the
trajectories from a batch of start indices by sorting exact state
codes; for small networks enumerate_state_graph resolves the entire map
instead and serves as the ground truth the detector is tested against.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .network import RESET_NONE, Network, NetworkState
from .textio import write_text

DETECTED = "detected"
CENSORED = "censored"

DEFAULT_STATE_BUDGET = 1 << 20

# Start states per batched detector replay. Between checkpoints a live
# lane holds one int64 state code per tick, up to the next checkpoint,
# and its current (v, s) row; at a checkpoint its sort takes a few more
# int64s per tick. So the chunk bounds the replay's memory: a traced
# peak of at most 1.6 MB on the eight 32768-state oracle networks of
# seed 7919, where 2048 lanes took 2.8 MB and replayed about 9% faster.
REPLAY_LANES = 1024

# Candidate dtypes of a state key's potentials, narrowest first, with
# their ranges.
_KEY_DTYPES = tuple(
    (d, int(np.iinfo(d).min), int(np.iinfo(d).max))
    for d in (np.uint8, np.int8, np.uint16, np.int16,
              np.uint32, np.int32, np.uint64, np.int64)
)


@dataclass
class Trajectory:
    """Recorded evolution: membrane rows for t = 0..horizon, spike rows
    for t = 1..horizon, plus the spike vector of the start state."""

    states: np.ndarray
    raster: np.ndarray
    horizon: int
    s0: np.ndarray


@dataclass
class CycleReport:
    """Outcome of a recurrence scan.

    status is "detected" with the transient length and period filled in,
    or "censored" when no state repeated within the horizon.
    """

    status: str
    transient: int | None = None
    period: int | None = None


def simulate(net: Network, init: NetworkState, horizon: int) -> Trajectory:
    """Iterate the map `horizon` steps, recording everything."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    v = np.asarray(init.v)
    s = np.asarray(init.s)
    states = np.empty((horizon + 1, net.n), dtype=net.state_dtype)
    raster = np.empty((horizon, net.n), dtype=np.uint8)
    states[0] = v
    for t in range(horizon):
        v, s = net.step_arrays(v, s)
        states[t + 1] = v
        raster[t] = s
    return Trajectory(
        states=states,
        raster=raster,
        horizon=horizon,
        s0=np.asarray(init.s, dtype=np.uint8).copy(),
    )


def first_revisit(
    net: Network, v: np.ndarray, s: np.ndarray, horizon: int
) -> Iterator[tuple[int, np.ndarray, CycleReport]]:
    """First-visit recurrence scan of the trajectories of a batch of
    lanes, v and s of shape (B, n): row b steps by `net`, or by lane b of
    a LaneStack. One state is a batch of one lane.

    Each tick steps the live lanes in one step_arrays call. Each lane
    keeps a map from visited state to first-visit time, keyed on the
    exact bytes of _state_keys. Their potentials take the narrowest
    integer dtype that holds every lane's domain, picked at the start
    and kept for the whole scan. Without reset every stepped state has
    s = spikes_of(v), so the key is v alone; a start whose s0 differs
    can never recur and is keyed None, which no later key matches. On
    the first revisit at time t2 of a state first seen at t1 the lane
    reports transient t1 and period t2 - t1. The first repeat of a
    deterministic map is always the cycle entry state, so the transient
    is exact. The lane then retires: the scan yields (b, rows, report),
    where rows are its uint8 spike rows of steps 1..t2, rebuilt from the
    map's keys in insertion order (the row at t2 is the row at t1), and
    drops the map. Lanes with no repeat within `horizon` steps are
    yielded censored after the last tick, with all `horizon` rows. So
    time and memory follow t2, not the horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    v, s = np.asarray(v), np.asarray(s)
    lanes = list(range(len(v)))  # input lane of each live row
    # Picked once: lanes that retire never narrow the keys of the rest.
    lo, hi = int(np.min(net._lo)), int(np.max(net._hi))
    dtype = next(d for d, d_lo, d_hi in _KEY_DTYPES if d_lo <= lo and hi <= d_hi)
    spiked = net.reset_mode != RESET_NONE  # whether a key holds the spikes
    # Each live lane's thresholds, from which _retire rebuilds v-only rows.
    th = np.broadcast_to(net._th_exec, v.shape)
    keys = _state_keys(v, s if spiked else None, dtype)
    if not spiked:
        recurs = (s == (v >= th)).all(axis=1).tolist()
        keys = [key if ok else None for key, ok in zip(keys, recurs)]
    # Insertion order is visit order, so a map needs no times.
    seen = [{key: None} for key in keys]
    for t in range(1, horizon + 1):
        v, s = net.step_arrays(v, s)
        retired = {}
        for i, key in enumerate(_state_keys(v, s if spiked else None, dtype)):
            if key not in seen[i]:
                seen[i][key] = None
            else:
                retired[i] = _retire(seen[i], key, t, dtype, th[i], spiked)
                seen[i] = None
        if not retired:
            continue
        for i, (rows, report) in retired.items():
            yield lanes[i], rows, report
        keep = [i for i in range(len(lanes)) if i not in retired]
        if not keep:
            return
        net, v, s, th = net.take_lanes(keep), v[keep], s[keep], th[keep]
        lanes, seen = [lanes[i] for i in keep], [seen[i] for i in keep]
    for i, lane in enumerate(lanes):
        rows, report = _retire(seen[i], None, horizon, dtype, th[i], spiked)
        seen[i] = None
        yield lane, rows, report


def _state_keys(v: np.ndarray, s: np.ndarray | None, dtype) -> list[bytes]:
    """Exact bytes of each row of a (B, n) batch: v in `dtype`, which
    must hold every potential, then, unless s is None, the spikes packed
    eight to a byte."""
    buf = v.astype(dtype).view(np.uint8)
    if s is not None:
        buf = np.concatenate((buf, np.packbits(s, axis=-1)), axis=-1)
    return buf.view(f"V{buf.shape[-1]}")[:, 0].tolist()


def _retire(
    visits: dict, key: bytes | None, t: int, dtype, th: np.ndarray, spiked: bool
) -> tuple[np.ndarray, CycleReport]:
    """The uint8 spike rows of steps 1..t and the report of a lane whose
    map holds its states at times 0..t - 1, keyed by _state_keys in
    `dtype`, and whose state at t has `key`, a revisit; None for a lane
    censored at horizon t. Keys that hold the spikes (`spiked`) are
    unpacked; v-only keys are compared with the lane's thresholds `th`,
    as spikes_of does."""
    keys = list(visits)
    if key is None:
        report = CycleReport(CENSORED)
    else:
        first = keys.index(key)
        report = CycleReport(DETECTED, first, t - first)
        keys.append(key)
    del keys[0]
    n = len(th)
    flat = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
    skip = n * np.dtype(dtype).itemsize
    if spiked:
        return np.unpackbits(flat[:, skip:], axis=1, count=n), report
    v = flat.view(dtype)
    if not np.can_cast(v.dtype, th.dtype):  # uint64 keys, int64 thresholds
        v = v.astype(th.dtype)
    return (v >= th).astype(np.uint8), report


def _batch_revisits(
    net: Network, starts: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """First revisit of the trajectory from each start state of an int64
    array of enumeration indices, one lane per start.

    The indices are the tick-0 codes. Each tick steps the live lanes
    once through step_arrays and writes their new states' codes (the
    vectorised encode_state, shifted by one constant) as one int64 column
    of a table sized to the next checkpoint; no (v, s) rows are kept. At
    ticks 8, 16, 32, ... and at `horizon` each lane's codes are sorted
    stably, so equal codes sit in time order: the smallest time that
    follows an equal code is the first revisit t2, and the entry before
    it the first visit t1, since every state before t2 occurs once.
    Lanes found there retire, and the rest move to a table sized to the
    next checkpoint. Refuses a space of 2^63 or more states, which has
    no int64 codes, and a start outside 0..N-1.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    total = state_space_size(net)
    if total >= 1 << 63:
        raise ValueError(
            f"state space has {total} states, whose codes do not fit int64"
        )
    outside = starts[(starts < 0) | (starts >= total)]
    if outside.size:
        raise ValueError(f"start index {outside[0]} lies outside 0..{total - 1}")
    found_at = np.full((2, len(starts)), -1, dtype=np.int64)
    lanes = np.arange(len(starts))  # input lane of each live row
    v, s = _decode_indices(net, starts)
    wv, ws, base = _code_weights(net)
    # Column t: each live lane's state code at tick t, plus base.
    codes = np.empty((len(starts), min(8, horizon) + 1), dtype=np.int64)
    codes[:, 0] = starts + base
    checkpoint = 8
    for t in range(1, horizon + 1):
        v, s = net.step_arrays(v, s)
        code = codes[:, t]
        np.matmul(v.astype(np.int64, copy=False), wv, out=code)
        if ws is not None:
            code += s @ ws
        if t < checkpoint and t < horizon:
            continue
        checkpoint *= 2
        rows = np.arange(len(lanes))
        order = codes.argsort(axis=1, kind="stable")
        ranked = codes[rows[:, None], order]
        repeats = np.where(ranked[:, 1:] == ranked[:, :-1], order[:, 1:], t + 1)
        pick = repeats.argmin(axis=1)
        t1, t2 = order[rows, pick], repeats[rows, pick]
        live = t2 > t
        done = ~live
        found_at[:, lanes[done]] = t1[done], t2[done] - t1[done]
        if t == horizon or not live.any():
            break
        lanes, v, s = lanes[live], v[live], s[live]
        grown = np.empty((len(lanes), min(checkpoint, horizon) + 1), dtype=np.int64)
        grown[:, :t + 1] = codes[live]
        codes = grown
    return found_at[0], found_at[1]


def detect_cycle(
    net: Network, init: NetworkState | np.ndarray, horizon: int
) -> CycleReport | tuple[np.ndarray, np.ndarray]:
    """Transient and period of the trajectory from `init`, or censored
    when no state repeats within `horizon` steps. Given an int64 array
    of start-state indices instead, two int64 arrays (transients,
    periods) with -1 for censored lanes."""
    if isinstance(init, NetworkState):
        v, s = np.asarray(init.v)[None], np.asarray(init.s)[None]
        return next(first_revisit(net, v, s, horizon))[2]
    return _batch_revisits(net, init, horizon)


@dataclass
class Attractor:
    """One terminal cycle: its length, basin size, and the encoded index
    of its canonical (smallest-index) member."""

    period: int
    basin_size: int
    representative: int


@dataclass
class StateGraphReport:
    """Exhaustive resolution of the update map over the whole lattice."""

    state_count: int
    transients: np.ndarray
    periods: np.ndarray
    attractor_ids: np.ndarray
    attractors: list[Attractor]


def state_space_size(net: Network) -> int:
    """Number of distinct states the map acts on.

    Without reset the spike vector is a function of the membrane vector,
    so the space is the membrane lattice alone; with threshold
    subtraction the pair (v, s) is the state and the spike bits multiply
    the count by 2^n.
    """
    total = net.domain.cardinality**net.n
    if net.reset_mode != RESET_NONE:
        total *= 2**net.n
    return total


def decode_state(net: Network, index: int) -> NetworkState:
    """State for an enumeration index; inverse of encode_state."""
    card = net.domain.cardinality
    lo = net.domain.min_value
    n = net.n
    if net.reset_mode != RESET_NONE:
        index, s_bits = divmod(index, 2**n)
        s = np.array(
            [(s_bits >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.int64
        )
    else:
        s = None
    digits = []
    for _ in range(n):
        index, d = divmod(index, card)
        digits.append(d + lo)
    digits.reverse()
    v = np.array(digits, dtype=net.state_dtype)
    if s is None:
        s = net.spikes_of(v)
    return NetworkState(v=v, s=s)


def encode_state(net: Network, state: NetworkState) -> int:
    """Enumeration index of a state; inverse of decode_state."""
    card = net.domain.cardinality
    lo = net.domain.min_value
    index = 0
    for x in state.v:
        index = index * card + (int(x) - lo)
    if net.reset_mode != RESET_NONE:
        for b in state.s:
            index = index * 2 + int(b)
    return index


def _decode_indices(net: Network, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States for an int64 array of enumeration indices, as (v, s) rows
    of shape (len(idx), n); the vectorised decode_state."""
    n = net.n
    reset = net.reset_mode != RESET_NONE
    rem = idx
    if reset:
        rem, s_bits = np.divmod(rem, 1 << n)
        s = (s_bits[:, None] >> np.arange(n - 1, -1, -1)) & 1
    v = np.empty((idx.size, n), dtype=np.int64)
    for col in range(n - 1, -1, -1):
        rem, digit = np.divmod(rem, net.domain.cardinality)
        v[:, col] = digit + net.domain.min_value
    v = v.astype(net.state_dtype, copy=False)
    if not reset:
        s = net.spikes_of(v)
    return v, s


def _code_weights(net: Network) -> tuple[np.ndarray, np.ndarray | None, int]:
    """(wv, ws, base): a lattice state (v, s) has enumeration index
    v @ wv + s @ ws - base, with no s term (ws None) without reset."""
    powers = np.arange(net.n - 1, -1, -1, dtype=np.int64)
    wv = net.domain.cardinality**powers
    ws = None
    if net.reset_mode != RESET_NONE:
        wv, ws = wv << net.n, 1 << powers
    return wv, ws, int(wv.sum()) * net.domain.min_value


def _lattice_codes(net: Network, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """int64 enumeration index of each (v, s) row of a batch; the
    vectorised encode_state and the inverse of _decode_indices.

    Every row must be a lattice state, as every row step_arrays returns
    is: clamp puts v in the domain and s is the fired mask. The space
    must hold fewer than 2^63 states.
    """
    wv, ws, base = _code_weights(net)
    codes = v.astype(np.int64, copy=False) @ wv - base
    if ws is not None:
        codes += s.astype(np.int64, copy=False) @ ws
    return codes


def _successor_indices(net: Network, total: int) -> np.ndarray:
    """Successor index for every state, stepped in vectorized chunks.

    The enumeration guard keeps codes within int64, so digits and codes
    fit even when the network steps in object mode. A chunk of 4096
    states needs about 1 MB of temporaries; 32768 took 6.6 MB and ran
    slower.
    """
    succ = np.empty(total, dtype=np.int64)
    chunk = 1 << 12
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        v, s = _decode_indices(net, np.arange(start, stop, dtype=np.int64))
        succ[start:stop] = _lattice_codes(net, *net.step_arrays(v, s))
    return succ


def enumerate_state_graph(
    net: Network, budget: int = DEFAULT_STATE_BUDGET
) -> StateGraphReport:
    """Resolve transient, period, and attractor for every state.

    Steps every state once (_successor_indices) and resolves the
    successor array with resolve_successors, O(N log N) array work and
    no per-state Python loop. Refuses to start when the space exceeds
    `budget`, and at any budget when its int64 codes or successor array
    cannot exist.
    """
    total = state_space_size(net)
    if total >= 1 << 63:
        raise ValueError(
            f"state space has {total} states, whose codes do not fit int64; "
            f"no budget can enumerate it"
        )
    if total * 8 > np.iinfo(np.intp).max:
        raise ValueError(
            f"state space has {total} states, over numpy's array size limit "
            f"for the successor array; no budget can enumerate it"
        )
    if total > budget:
        raise ValueError(
            f"state space has {total} states, over the budget of {budget}; "
            f"pass budget={total} or more to enumerate anyway"
        )
    return resolve_successors(_successor_indices(net, total))


def resolve_successors(succ: np.ndarray) -> StateGraphReport:
    """Transient, period and attractor of every state of the map
    x -> succ[x] on 0..N-1, by pointer jumping (JaJa, An Introduction to
    Parallel Algorithms, 1992, ch. 3).

    After K = (N-1).bit_length() rounds of jumping, y = succ^(2^K) with
    2^K >= N lies on the cycle of every start, and lab[y], the smallest
    state among the 2^K successors of y, is that cycle's smallest
    member. Attractors are numbered in the order of those members.
    Transients come from Wyllie's list ranking on the in-forest.
    """
    total = len(succ)
    lab = np.arange(total, dtype=np.int64)
    y = succ
    for _ in range((total - 1).bit_length()):
        np.minimum(lab, lab[y], out=lab)
        y = y[y]
    on_cycle = np.zeros(total, dtype=bool)
    on_cycle[y] = True
    roots = lab[y]
    del lab, y
    # A representative is the one state that is its own root; numbering
    # them in index order is the canonical attractor order.
    is_rep = roots == np.arange(total)
    attractor_ids = np.cumsum(is_rep)[roots] - 1
    reps = np.flatnonzero(is_rep)
    del roots, is_rep
    cycle_lengths = np.bincount(attractor_ids[on_cycle], minlength=len(reps))
    basin_sizes = np.bincount(attractor_ids, minlength=len(reps))

    # d[x] counts the steps from x to p[x]; a cycle state points at itself.
    d = (~on_cycle).astype(np.int64)
    p = np.where(on_cycle, np.arange(total), succ)
    while not on_cycle[p].all():
        d += d[p]
        p = p[p]
    return StateGraphReport(
        state_count=total,
        transients=d,
        periods=cycle_lengths[attractor_ids],
        attractor_ids=attractor_ids,
        attractors=[
            Attractor(period=period, basin_size=size, representative=rep)
            for period, size, rep in zip(
                cycle_lengths.tolist(), basin_sizes.tolist(), reps.tolist()
            )
        ],
    )


def detection_mismatches(net: Network, report: StateGraphReport) -> list[int]:
    """Indices of start states where detect_cycle disagrees with the
    exhaustive report, in ascending order; empty means full agreement.

    The start indices are sorted stably by their reported transient +
    period and replayed as the lanes of one detect_cycle call per chunk
    of REPLAY_LANES of that order, with the chunk's largest sum as the
    horizon. A chunk's lanes then retire at about the same checkpoint,
    so few ticks step stragglers. Each lane's answer is compared with
    the report in one vectorised test, where a censored lane (period -1)
    always disagrees, and a wrong lane is named by its own start index.
    The order only schedules lanes, and a longer horizon than a lane's
    own hides no wrong answer: a lane whose transient and period are
    both right first revisits at step transient + period exactly, and
    any other lane returns another answer or is censored.
    """
    order = (report.transients + report.periods).argsort(kind="stable")
    bad = []
    for start in range(0, report.state_count, REPLAY_LANES):
        starts = order[start:start + REPLAY_LANES]
        mus, periods = report.transients[starts], report.periods[starts]
        horizon = max(1, int(mus[-1] + periods[-1]))
        got_mus, got_periods = detect_cycle(net, starts, horizon)
        wrong = (got_periods < 1) | (got_mus != mus) | (got_periods != periods)
        bad.append(starts[wrong])
    return np.sort(np.concatenate(bad)).tolist()


def oracle_json(net: Network, report: StateGraphReport) -> dict:
    """JSON-ready document for an exhaustive enumeration."""
    attractors = []
    for a in report.attractors:
        rep = decode_state(net, a.representative)
        attractors.append(
            {
                "period": a.period,
                "basin_size": a.basin_size,
                "representative_state": {
                    "v": [int(x) for x in rep.v],
                    "s": [int(x) for x in rep.s],
                },
            }
        )
    return {"state_count": report.state_count, "attractors": attractors}


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Long-format export: one row per (t, neuron) with columns t,
    neuron_id, v, s, covering t = 0..horizon."""
    lines = ["t,neuron_id,v,s"]
    spikes = np.vstack([traj.s0, traj.raster]).tolist()
    for t, (row_v, row_s) in enumerate(zip(traj.states.tolist(), spikes)):
        for i, (v, s) in enumerate(zip(row_v, row_s)):
            lines.append(f"{t},{i},{v},{s}")
    write_text(path, "\n".join(lines) + "\n")
