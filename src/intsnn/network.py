"""Seeded network construction and the synchronous one-step update map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .arith import SATURATE, WRAP, IntegerDomain, leak_shift
from .rng import Xoshiro256StarStar, bernoulli_threshold

RESET_NONE = "none"
RESET_SUBTRACT = "subtract_threshold"

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Types a kernel sums synapses in, narrowest first, each exact for
# integer sums below its bound; a network steps in the first that holds
# its largest row sum, and a lane stack in the widest its lanes need.
_SUM_DTYPES = ((np.float32, 1 << 24), (np.float64, 1 << 53), (np.int64, 1 << 63))


def generate_topology(
    n: int, density: float, weight_lo: int, weight_hi: int, seed: int
) -> np.ndarray:
    """Random sparse weight matrix with entry [i, j] acting from j to i.

    Every off-diagonal cell is independently nonzero with probability
    `density`; present weights are uniform over the nonzero integers of
    [weight_lo, weight_hi]. The diagonal is zero. Deterministic in
    `seed`: one raw draw per off-diagonal cell in row-major order
    decides presence, then one uniform draw per present edge, also in
    row-major order, picks its weight.
    """
    if n < 1:
        raise ValueError(f"need at least one neuron, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    if weight_lo > weight_hi:
        raise ValueError(f"empty weight range [{weight_lo}, {weight_hi}]")
    if weight_lo == 0 and weight_hi == 0:
        raise ValueError("weight range contains no nonzero value")

    gen = Xoshiro256StarStar(seed)
    weights = np.zeros((n, n), dtype=np.int64)
    cells = np.arange(n * n, dtype=np.int64)
    offdiag = cells[cells % (n + 1) != 0]
    raw = np.fromiter(
        gen.raw_block(offdiag.size), dtype=np.uint64, count=offdiag.size
    )
    threshold = bernoulli_threshold(density)
    if threshold >= 1 << 64:
        mask = np.ones(offdiag.size, dtype=bool)
    else:
        mask = raw < np.uint64(threshold)
    picked = offdiag[mask]
    values = _sample_nonzero_weights(gen, weight_lo, weight_hi, picked.size)
    weights.flat[picked] = values
    return weights


def _sample_nonzero_weights(
    gen: Xoshiro256StarStar, lo: int, hi: int, count: int
) -> list[int]:
    """Uniform draws over the nonzero integers of [lo, hi]."""
    if lo <= 0 <= hi:
        base = gen.uniform_ints(0, hi - lo - 1, count)
        return [lo + b + 1 if lo + b >= 0 else lo + b for b in base]
    return gen.uniform_ints(lo, hi, count)


def sample_thresholds(n: int, lo: int, hi: int, seed: int) -> np.ndarray:
    """n firing thresholds, each uniform on [lo, hi] inclusive."""
    if lo < 1:
        raise ValueError(f"thresholds must be >= 1, got lower bound {lo}")
    if lo > hi:
        raise ValueError(f"empty threshold range [{lo}, {hi}]")
    gen = Xoshiro256StarStar(seed)
    values = gen.uniform_ints(lo, hi, n)
    dtype = object if hi > _I64_MAX else np.int64
    return np.array(values, dtype=dtype)


@dataclass
class NetworkState:
    """Membrane potentials and the matching spike indicator vector."""

    v: np.ndarray
    s: np.ndarray


@dataclass
class Network:
    """Fixed weighted network plus update-rule parameters.

    Treated as immutable once constructed; step_arrays never mutates it,
    so one instance may be shared freely across threads or processes.
    """

    n: int
    weights: np.ndarray
    thresholds: np.ndarray
    leak_k: int
    domain: IntegerDomain
    reset_mode: str = RESET_NONE
    seed_provenance: dict | None = None

    def __post_init__(self) -> None:
        weights = _integer_array("weights", self.weights)
        if weights.shape != (self.n, self.n):
            raise ValueError(
                f"weights shape {weights.shape} does not match n={self.n}"
            )
        if np.diagonal(weights).any():
            raise ValueError("self-connections are not allowed")
        thresholds = _integer_array("thresholds", self.thresholds)
        if thresholds.shape != (self.n,):
            raise ValueError(
                f"thresholds shape {thresholds.shape} does not match n={self.n}"
            )
        if (thresholds < 1).any():
            raise ValueError("thresholds must all be >= 1")
        if self.leak_k < 1:
            raise ValueError(f"leak_k must be >= 1, got {self.leak_k}")
        if self.reset_mode not in (RESET_NONE, RESET_SUBTRACT):
            raise ValueError(f"unknown reset_mode {self.reset_mode!r}")
        self.weights = weights
        self.thresholds = thresholds
        self._plan_execution()

    def _plan_execution(self) -> None:
        """Pick the array dtypes for stepping.

        int64 is used only when every intermediate (leak term, synaptic
        accumulation, their sum, wrap offsets, reset subtraction) provably
        fits; otherwise arrays hold Python ints, which are exact at any
        width. Bounds are computed once here with exact integer math.
        """
        d = self.domain
        w = self.weights
        # Row sums of int64 weights within +-2^32 cannot overflow; any
        # other weights are summed as Python ints.
        if not (
            w.dtype == np.int64 and -(1 << 32) < w.min() and w.max() < (1 << 32)
        ):
            w = w.astype(object)
        pos_hi = int(w.clip(min=0).sum(axis=1).max())
        neg_lo = int(w.clip(max=0).sum(axis=1).min())
        abs_hi = int(np.abs(w).sum(axis=1).max())

        leak_lo = leak_shift(d.min_value, self.leak_k)
        leak_hi = leak_shift(d.max_value, self.leak_k)
        thr_hi = max(int(t) for t in self.thresholds)
        raw_lo = leak_lo + neg_lo
        raw_hi = leak_hi + pos_hi
        reach = [
            d.min_value,
            d.max_value,
            raw_lo,
            raw_hi,
            -abs_hi,
            abs_hi,
            thr_hi,
            d.min_value - thr_hi,
        ]
        if d.overflow_mode == WRAP:
            reach += [d.cardinality, raw_lo - d.min_value, raw_hi - d.min_value]
        int64_ok = all(_I64_MIN <= x <= _I64_MAX for x in reach)

        # Every partial sum of s . W^T row i is an integer no larger in
        # magnitude than abs_hi, so the first sum type that holds abs_hi
        # sums it exactly, and BLAS sums floats faster than an int64 loop
        # (float32 faster still). Python ints when int64 could overflow.
        # Stored transposed once: the kernel's s.dot(W^T) serves one
        # state and a batch alike without a transposed view per call.
        sum_dtype = next(
            (dtype for dtype, bound in _SUM_DTYPES if int64_ok and abs_hi < bound),
            object,
        )
        self._wt_exec = np.ascontiguousarray(self.weights.T, dtype=sum_dtype)
        self._th_exec = np.asarray(self.thresholds, dtype=self.state_dtype)
        self._lo = d.min_value
        self._hi = d.max_value
        # The cardinality is 2^bits, so wrapping is a mask of the offset.
        self._mask = d.cardinality - 1
        self._saturate = d.overflow_mode == SATURATE
        # Potentials lie below 2^64 in magnitude, so any shift of 64 or
        # more leaves 0 or -1; capped, an int64 array can take it.
        self._shift = min(self.leak_k, 64)

    @property
    def state_dtype(self):
        return object if self._wt_exec.dtype == object else np.int64

    def take_lanes(self, keep) -> Network:
        """The network that steps lanes `keep` of a batch: all of them
        step by this one network, so it is itself."""
        return self

    def _accumulate(self, s):
        """s . W^T, in the state dtype."""
        wt = self._wt_exec
        return s.astype(wt.dtype, copy=False).dot(wt).astype(
            self.state_dtype, copy=False
        )

    def _clamp_vec(self, raw):
        if self._saturate:
            return np.minimum(np.maximum(raw, self._lo), self._hi)
        return ((raw - self._lo) & self._mask) + self._lo

    def step_arrays(self, v: np.ndarray, s: np.ndarray):
        """One update on raw arrays; returns the new (v, s) pair.

        v and s have shape (n,) for one state or (..., n) for a batch;
        every leading index is stepped independently. A LaneStack steps
        row b of a (B, n) batch by its lane b.
        """
        raw = (v - (v >> self._shift)) + self._accumulate(s)
        v_next = self._clamp_vec(raw)
        fired = v_next >= self._th_exec
        s_next = fired.astype(np.int64)
        if self.reset_mode == RESET_SUBTRACT:
            v_next = np.where(
                fired, self._clamp_vec(v_next - self._th_exec), v_next
            )
        return v_next, s_next

    def spikes_of(self, v: np.ndarray) -> np.ndarray:
        """Spike vector the threshold rule assigns to membrane vector v."""
        return (np.asarray(v) >= self._th_exec).astype(np.int64)


# The execution arrays a LaneStack holds one row of per lane.
_LANE_ARRAYS = ("_wt_exec", "_th_exec", "_lo", "_hi", "_mask")


class LaneStack(Network):
    """Networks of one size, leak shift, overflow mode and reset mode,
    stepped as the lanes of one (B, n) batch: row b by lane b's network.

    Built in one call from (network, lane count) pairs in lane order.
    Only the execution arrays carry the lane axis: transposed weights
    (B, n, n), in the widest sum dtype its networks need, thresholds
    (B, n), and lo, hi and mask (B, 1). The inherited step_arrays
    broadcasts over them, so the update equation stays in one place.
    Every lane steps in int64: an object-mode network cannot join.
    """

    def __init__(self, lanes) -> None:
        lanes = list(lanes)
        first = lanes[0][0]
        shared = (first.n, first.leak_k, first._saturate, first.reset_mode)
        for net, _ in lanes:
            if net.state_dtype is object:
                raise ValueError("an object-mode network cannot join a lane stack")
            if (net.n, net.leak_k, net._saturate, net.reset_mode) != shared:
                raise ValueError("lanes must share n, leak_k and the modes")
        self.n, self.leak_k, self.reset_mode = first.n, first.leak_k, first.reset_mode
        self.weights = self.thresholds = self.domain = None
        self.seed_provenance = None
        self._shift, self._saturate = first._shift, first._saturate
        # Exact: every lane's weights are integers the widest dtype holds.
        wider = max(
            (net._wt_exec.dtype.type for net, _ in lanes), key=dict(_SUM_DTYPES).get
        )
        per_lane = [net for net, count in lanes for _ in range(count)]
        for name in _LANE_ARRAYS:
            rows = [np.atleast_1d(getattr(net, name)) for net in per_lane]
            dtype = wider if name == "_wt_exec" else np.int64
            setattr(self, name, np.array(rows, dtype=dtype))

    def take_lanes(self, keep) -> LaneStack:
        """A stack of lanes `keep` only, in that order."""
        part = object.__new__(LaneStack)
        part.__dict__.update(self.__dict__)
        for name in _LANE_ARRAYS:
            setattr(part, name, getattr(self, name)[keep])
        return part

    def _accumulate(self, s):
        wt = self._wt_exec
        acc = np.matmul(s[..., None, :].astype(wt.dtype), wt)[..., 0, :]
        return acc.astype(np.int64, copy=False)


def _integer_array(name: str, values) -> np.ndarray:
    """`values` as an array, refused unless every entry is an integer:
    the cast to the stepping dtype would truncate a float silently."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind not in "iuO" or (
        kind == "O" and not all(isinstance(x, int) for x in arr.flat)
    ):
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr


def step(state: NetworkState, net: Network) -> NetworkState:
    """Advance the network one tick from `state`."""
    v = np.asarray(state.v)
    s = np.asarray(state.s)
    if v.shape != (net.n,) or s.shape != (net.n,):
        raise ValueError(
            f"state shape {v.shape}/{s.shape} does not match n={net.n}"
        )
    v_next, s_next = net.step_arrays(v, s)
    return NetworkState(v=v_next, s=s_next)


def initial_state(net: Network, seed: int) -> NetworkState:
    """Membrane potentials uniform over the full domain range; spikes
    assigned by the threshold rule. Deterministic in `seed`."""
    gen = Xoshiro256StarStar(seed)
    d = net.domain
    values = gen.uniform_ints(d.min_value, d.max_value, net.n)
    v = np.array(values, dtype=net.state_dtype)
    return NetworkState(v=v, s=net.spikes_of(v))


def network_to_json(net: Network) -> dict[str, Any]:
    """Lossless JSON-ready document for a network."""
    rows, cols = np.nonzero(net.weights)
    triplets = [
        [int(i), int(j), int(net.weights[i, j])] for i, j in zip(rows, cols)
    ]
    return {
        "n": net.n,
        "bits": net.domain.bits,
        "signedness": net.domain.signedness,
        "overflow_mode": net.domain.overflow_mode,
        "leak_k": net.leak_k,
        "reset_mode": net.reset_mode,
        "thresholds": [int(t) for t in net.thresholds],
        "weights": triplets,
        "seed_provenance": net.seed_provenance,
    }


def network_from_json(doc: dict[str, Any]) -> Network:
    """Inverse of network_to_json."""
    n = int(doc["n"])
    domain = IntegerDomain(
        int(doc["bits"]), doc["signedness"], doc["overflow_mode"]
    )
    weights = np.zeros((n, n), dtype=np.int64)
    for i, j, value in doc["weights"]:
        weights[int(i), int(j)] = int(value)
    return Network(
        n=n,
        weights=weights,
        thresholds=np.array(doc["thresholds"], dtype=np.int64),
        leak_k=int(doc["leak_k"]),
        domain=domain,
        reset_mode=doc["reset_mode"],
        seed_provenance=doc.get("seed_provenance"),
    )
