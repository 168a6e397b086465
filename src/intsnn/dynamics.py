"""Trajectory iteration, exact recurrence detection, exhaustive enumeration.

The update map is deterministic on a finite state space, so every
trajectory is eventually periodic. detect_cycle finds the entry point
and period of one trajectory, or of a batch of lanes, by hashing
visited states; for small networks enumerate_state_graph resolves the
entire map instead and serves as the ground truth the detector is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .network import RESET_NONE, Network, NetworkState
from .textio import write_text

DETECTED = "detected"
CENSORED = "censored"

DEFAULT_STATE_BUDGET = 1 << 20

# Start states per batched detector replay. Each live lane holds its
# own visited-state map, so the chunk bounds the replay's memory.
REPLAY_LANES = 512


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
    net: Network, init: NetworkState, horizon: int
) -> tuple[list[np.ndarray] | None, CycleReport | list[CycleReport]]:
    """First-visit recurrence scan over the full (v, s) state.

    `init` holds one state, v and s of shape (n,), or a batch of lanes
    of shape (B, n); a batch steps once per tick through step_arrays.
    Each lane keeps a map from visited state to first-visit time; on its
    first revisit at time t2 of a state first seen at t1 it reports
    transient t1 and period t2 - t1 and retires: it stops stepping and
    its map is dropped. The first repeat of a deterministic map is
    always the cycle entry state, so the transient is exact. The scan
    ends when every lane has retired or at `horizon`; a lane still live
    then is censored.

    For one state it returns the spike vectors of steps 1..t2, or of all
    `horizon` steps when censored, as uint8, and the CycleReport. For a
    batch it returns None and one CycleReport per lane.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    v = np.asarray(init.v)
    s = np.asarray(init.s)
    # Spikes are 0 or 1, so uint8 encodes them exactly; keys and rows
    # then hold one byte per neuron for them, not eight.
    spikes = s.astype(np.uint8)
    if v.ndim == 1:
        # One state skips the lane bookkeeping, which would add about
        # 4% to every step of the sweep.
        lanes = None
        seen = {net.state_key(v, spikes): 0}
        rows = []
    else:
        lanes = list(range(len(v)))  # input lane of each live row
        seen = [{key: 0} for key in _lane_keys(net, v, spikes)]
        reports = [CycleReport(CENSORED) for _ in lanes]
    for t in range(1, horizon + 1):
        v, s = net.step_arrays(v, s)
        spikes = s.astype(np.uint8)
        if lanes is None:
            rows.append(spikes)
            key = net.state_key(v, spikes)
            first = seen.get(key)
            if first is not None:
                return rows, CycleReport(DETECTED, transient=first, period=t - first)
            seen[key] = t
            continue
        # setdefault returns t only for a state new to its lane, and the
        # first-visit time of the revisited state otherwise.
        keys = _lane_keys(net, v, spikes)
        firsts = list(map(dict.setdefault, seen, keys, repeat(t)))
        if firsts.count(t) == len(firsts):
            continue
        live = []
        for pos, first in enumerate(firsts):
            if first == t:
                live.append(pos)
            else:
                reports[lanes[pos]] = CycleReport(
                    DETECTED, transient=first, period=t - first
                )
        if not live:
            return None, reports
        v, s = v[live], s[live]
        seen = [seen[pos] for pos in live]
        lanes = [lanes[pos] for pos in live]
    if lanes is None:
        return rows, CycleReport(CENSORED)
    return None, reports


def _lane_keys(net: Network, v: np.ndarray, spikes: np.ndarray) -> list:
    """Exact (v, s) key of each lane of a batch, equal to the lane's
    one-state `net.state_key`."""
    if net.state_dtype is object:
        return [net.state_key(lane_v, lane_s) for lane_v, lane_s in zip(v, spikes)]
    rows = np.concatenate((v.view(np.uint8), spikes), axis=1)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()


def detect_cycle(
    net: Network, init: NetworkState, horizon: int
) -> CycleReport | list[CycleReport]:
    """Transient and period of the trajectory from `init`, or censored
    when no state repeats within `horizon` steps; one report per lane
    when `init` is a (B, n) batch."""
    return first_revisit(net, init, horizon)[1]


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


def _successor_indices(net: Network, total: int) -> np.ndarray:
    """Successor index for every state, stepped in vectorized chunks.

    The enumeration guard keeps codes within int64, so digits and codes
    fit even when the network steps in object mode.
    """
    n = net.n
    card = net.domain.cardinality
    lo = net.domain.min_value
    reset = net.reset_mode != RESET_NONE
    succ = np.empty(total, dtype=np.int64)
    v_radix = card ** np.arange(n - 1, -1, -1, dtype=np.int64)
    s_radix = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    chunk = 1 << 15
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        v, s = _decode_indices(net, np.arange(start, stop, dtype=np.int64))
        v_next, s_next = net.step_arrays(v, s)
        out = (v_next - lo).astype(np.int64, copy=False) @ v_radix
        if reset:
            out = out * (1 << n) + s_next @ s_radix
        succ[start:stop] = out
    return succ


def enumerate_state_graph(
    net: Network, budget: int = DEFAULT_STATE_BUDGET
) -> StateGraphReport:
    """Resolve transient, period, and attractor for every state.

    Walks the functional graph of the map with memoization: each state
    is visited a constant number of times, so the cost is linear in the
    state count. Refuses to start when the space exceeds `budget`, and
    at any budget when its int64 codes or successor array cannot exist.
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
    succ = _successor_indices(net, total).tolist()

    # The walk reads and writes one element at a time, which lists and a
    # bytearray do faster than numpy arrays; the report arrays are built
    # once at the end.
    transients = [0] * total
    periods = [0] * total
    attractor_ids = [0] * total
    color = bytearray(total)  # 0 new, 1 on path, 2 resolved
    cycles: list[list[int]] = []

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
    transients = np.array(transients, dtype=np.int64)
    periods = np.array(periods, dtype=np.int64)
    attractor_ids = remap[np.array(attractor_ids, dtype=np.int64)]
    basin_sizes = np.bincount(attractor_ids, minlength=len(cycles))
    attractors = [
        Attractor(
            period=len(cycles[old_id]),
            basin_size=int(basin_sizes[new_id]),
            representative=min(cycles[old_id]),
        )
        for new_id, old_id in enumerate(order)
    ]
    return StateGraphReport(
        state_count=total,
        transients=transients,
        periods=periods,
        attractor_ids=attractor_ids,
        attractors=attractors,
    )


def detection_mismatches(net: Network, report: StateGraphReport) -> list[int]:
    """Indices of start states where detect_cycle disagrees with the
    exhaustive report; empty means full agreement.

    Start states are replayed as the lanes of one detect_cycle call per
    chunk of REPLAY_LANES, with the chunk's largest transient + period
    as the horizon. A horizon longer than a lane's own hides no wrong
    answer: a lane whose reported transient and period are both right
    first revisits at step transient + period exactly.
    """
    bad = []
    for start in range(0, report.state_count, REPLAY_LANES):
        stop = min(start + REPLAY_LANES, report.state_count)
        v, s = _decode_indices(net, np.arange(start, stop, dtype=np.int64))
        mus = report.transients[start:stop]
        periods = report.periods[start:stop]
        horizon = max(1, int((mus + periods).max()))
        outcomes = detect_cycle(net, NetworkState(v=v, s=s), horizon)
        expected = zip(mus.tolist(), periods.tolist())
        for offset, (outcome, (mu, p)) in enumerate(zip(outcomes, expected)):
            if (
                outcome.status != DETECTED
                or outcome.transient != mu
                or outcome.period != p
            ):
                bad.append(start + offset)
    return bad


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
    n = traj.states.shape[1]
    lines = ["t,neuron_id,v,s"]
    for i in range(n):
        lines.append(f"0,{i},{int(traj.states[0, i])},{int(traj.s0[i])}")
    for t in range(1, traj.horizon + 1):
        row_v = traj.states[t]
        row_s = traj.raster[t - 1]
        for i in range(n):
            lines.append(f"{t},{i},{int(row_v[i])},{int(row_s[i])}")
    write_text(path, "\n".join(lines) + "\n")
