"""Inputs and the timed unit of work for each benchmark workload.

Every input is a function of the workload seed. This module imports
neither intsnn nor numpy at load time; `setup` does, so that the
set-up time it is measured by includes those imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("grid", "grid_pool", "focused", "oracle")
POOL_WORKERS = {"grid_pool": 2}

# Each grid unit is one `intsnn sweep` over one small and one large size
# with all 9 densities and all 16 bit widths: 144 cells per size, as in
# the default grid. Successive units step through these strata, so every
# run covers the same mix of sizes whatever its seed; the seed picks the
# starting point and each unit's master seed. Cell cost grows steeply
# with n (about 3 ms at n=30, 70 ms at n=90, 250 ms at n=130 on a 2-core
# Xeon), so the large stratum is kept narrow to hold the cost per unit
# steady across seeds.
SMALL_SIZES = (32, 36, 40)
LARGE_SIZES = (70, 72, 74)
GRID_UNITS = 24
FOCUSED_UNITS = 96
HORIZON = 1000

# The oracle's cost per network swings with its cycle structure, and a
# few 32768-state networks dominate, so a run stops only at the end of
# a pass. A pass of 24 networks holds every (n, bits) pair twice and
# every mode three times, so each pass has the same composition.
ORACLE_PASS = 24
ORACLE_NETWORKS = 4 * ORACLE_PASS
ORACLE_BUDGET = 1 << 16

# The sweep outputs whose bytes the digest covers.
SWEEP_FILES = ("records.csv", "summary.csv", "manifest.json")
FOCUSED_FILES = SWEEP_FILES + ("focused_summary.csv",)


def seed_int(*parts) -> int:
    """Non-negative 63-bit integer derived from the parts, stable across
    platforms and Python versions."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Unit:
    """One timed call into the program and what it should produce."""

    index: int
    argv: list[str] = field(default_factory=list)  # sweep kinds: cli.main args
    out: Path | None = None
    master_seed: int | None = None
    expected_ops: int = 0
    net: object = None  # oracle: the network to enumerate
    label: str = ""


@dataclass
class Plan:
    seed: int
    units: list[Unit]
    digest_family: str  # grid_pool shares grid's digests
    pass_len: int = 1  # a run ends only after a whole number of passes


def setup(workload: str, seed: int, workdir: Path) -> Plan:
    """Import the program and generate every input of the workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    from intsnn import cli  # noqa: F401  (the import is part of set-up)

    if workload in ("grid", "grid_pool"):
        workers = POOL_WORKERS.get(workload, 1)
        return Plan(seed, _grid_units(seed, workdir, workers), "grid")
    if workload == "focused":
        return Plan(seed, _focused_units(seed, workdir), "focused")
    return Plan(seed, _oracle_units(seed), "oracle", ORACLE_PASS)


def _grid_units(seed: int, workdir: Path, workers: int) -> list[Unit]:
    cfg_dir = workdir / "config"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    small0 = seed_int("grid-small", seed) % len(SMALL_SIZES)
    large0 = seed_int("grid-large", seed) % len(LARGE_SIZES)
    units = []
    for u in range(GRID_UNITS):
        sizes = (
            SMALL_SIZES[(small0 + u) % len(SMALL_SIZES)],
            LARGE_SIZES[(large0 + u) % len(LARGE_SIZES)],
        )
        master = seed_int("grid-master", seed, u)
        cfg = cfg_dir / f"unit{u:03d}.cfg"
        cfg.write_text(
            f"sizes = {sizes[0]},{sizes[1]}\n"
            "densities = 0.1..0.9:0.1\n"
            "bits = 1..16\n"
            f"horizon = {HORIZON}\n"
            f"master_seed = {master}\n"
            "figures = on\n",
            encoding="utf-8",
        )
        out = workdir / f"u{u:03d}"
        units.append(
            Unit(
                index=u,
                argv=["sweep", "--config", str(cfg), "--out", str(out),
                      "--workers", str(workers)],
                out=out,
                master_seed=master,
                expected_ops=len(sizes) * 9 * 16,
                label=f"sizes={sizes[0]},{sizes[1]} master_seed={master}",
            )
        )
    return units


def _focused_units(seed: int, workdir: Path) -> list[Unit]:
    units = []
    for u in range(FOCUSED_UNITS):
        master = seed_int("focused-master", seed, u)
        out = workdir / f"u{u:03d}"
        units.append(
            Unit(
                index=u,
                argv=["focused", "--bits", "1..16", "--seeds", "5",
                      "--master-seed", str(master), "--out", str(out),
                      "--workers", "1"],
                out=out,
                master_seed=master,
                expected_ops=16 * 5,
                label=f"master_seed={master}",
            )
        )
    return units


def _oracle_units(seed: int) -> list[Unit]:
    """Networks in the style of acceptance criterion 4: n in {1, 2, 3},
    bits in 1..4, and all 8 signedness/overflow/reset combinations."""
    from intsnn.arith import IntegerDomain
    from intsnn.dynamics import state_space_size
    from intsnn.network import Network, generate_topology, sample_thresholds

    combos = [(n, bits) for n in (1, 2, 3) for bits in (1, 2, 3, 4)]
    modes = [
        (sgn, ovf, rst)
        for sgn in ("unsigned", "signed")
        for ovf in ("saturate", "wrap")
        for rst in ("none", "subtract_threshold")
    ]
    units = []
    for idx in range(ORACLE_NETWORKS):
        n, bits = combos[idx % len(combos)]
        signedness, overflow, reset = modes[idx % len(modes)]
        domain = IntegerDomain(bits, signedness, overflow)
        net = Network(
            n=n,
            weights=generate_topology(
                n, 0.8, -2, 2, seed_int("oracle-topology", seed, idx)
            ),
            thresholds=sample_thresholds(
                n, 1, max(1, min(4, domain.max_value)),
                seed_int("oracle-thresholds", seed, idx),
            ),
            leak_k=1,
            domain=domain,
            reset_mode=reset,
        )
        units.append(
            Unit(
                index=idx,
                net=net,
                expected_ops=state_space_size(net),
                label=f"n={n} bits={bits} {signedness} {overflow} {reset}",
            )
        )
    return units


def run_sweep_unit(unit: Unit) -> int:
    """The timed call for sweep workloads: the CLI, in process. Returns
    its exit code; its stdout is captured so the benchmark's stays clean."""
    from intsnn import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(unit.argv))


def run_oracle_unit(unit: Unit):
    """The timed call for the oracle: enumerate, then replay the
    detector from every start state."""
    from intsnn import dynamics

    report = dynamics.enumerate_state_graph(unit.net, budget=ORACLE_BUDGET)
    return report, dynamics.detection_mismatches(unit.net, report)
