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
        """Pick the array dtype for stepping.

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

        self._object_mode = not int64_ok
        # Stored transposed once: the kernel's s.dot(W^T) serves one
        # state and a batch alike without a transposed view per call.
        self._wt_exec = np.ascontiguousarray(
            self.weights.T, dtype=self.state_dtype
        )
        self._th_exec = np.asarray(self.thresholds, dtype=self.state_dtype)
        self._lo = d.min_value
        self._hi = d.max_value
        # The cardinality is 2^bits, so wrapping is a mask of the offset.
        self._mask = d.cardinality - 1
        # Potentials lie below 2^64 in magnitude, so any shift of 64 or
        # more leaves 0 or -1; capped, an int64 array can take it.
        self._shift = min(self.leak_k, 64)

    @property
    def state_dtype(self):
        return object if self._object_mode else np.int64

    def _clamp_vec(self, raw):
        if self.domain.overflow_mode == SATURATE:
            return np.minimum(np.maximum(raw, self._lo), self._hi)
        return ((raw - self._lo) & self._mask) + self._lo

    def step_arrays(self, v: np.ndarray, s: np.ndarray):
        """One update on raw arrays; returns the new (v, s) pair.

        v and s have shape (n,) for one state or (..., n) for a batch;
        every leading index is stepped independently.
        """
        acc = s.dot(self._wt_exec)
        raw = (v - (v >> self._shift)) + acc
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

    def state_key(self, v: np.ndarray, s: np.ndarray):
        """Hashable exact encoding of a (v, s) pair."""
        if self._object_mode:
            return (tuple(v.tolist()), s.tobytes())
        return v.tobytes() + s.tobytes()


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
