"""intsnn benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each was chosen):
grid, grid_pool (the same sweep at workers=2), focused and oracle. A
run sets the workload up from its seed, then repeats units of work
until the timed units add up to --seconds, checks every output, and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run installs layer wrappers (layertrace.py) and reports per-layer metrics
instead, and writes its spans under .perfbench_out/. Run it from the
root of an intsnn checkout; it uses the checkout's src/ and nothing
installed, and exits with status 2 where there is no src/intsnn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

# A later change that claims a gain must also hold on this seed, which
# was not used while the benchmark was tuned.
HELD_OUT_SEED = 7919

SETUP_PROBES = 8  # extra set-ups, each in a fresh interpreter
NAIVE_SAMPLES = 3  # sweep records recomputed naively per run
UNIT_START_CAP_S = 110.0  # no unit starts later, so a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "runs_per_s": "1/s",
    "states_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "metrics.rank_s": "s",
    "metrics.rank_calls": "count",
    "metrics.rank_ms_p50": "ms",
    "metrics.rank_ms_tail": "ms",
    "metrics.rank_tail_pct": "%",
    "metrics.rank_entries": "count",
    "network.steps": "count",
    "network.step_s": "s",
    "network.step_us": "us",
    "network.build_s": "s",
    "network.builds": "count",
    "network.build_unique_share": "ratio",
    "network.object_mode_share": "ratio",
    "rng.draws": "count",
    "rng.draw_s": "s",
    "dynamics.detect_s": "s",
    "dynamics.detect_calls": "count",
    "dynamics.enumerate_s": "s",
    "dynamics.states_enumerated": "count",
    "sweep.cells": "count",
    "sweep.cell_ms_p50": "ms",
    "sweep.cell_ms_tail": "ms",
    "sweep.cell_tail_pct": "%",
    "sweep.cell_self_s": "s",
    "sweep.steps_per_run": "count",
    "sweep.censored_share": "ratio",
    "sweep.pool_busy_share": "ratio",
    "cli.write_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


@dataclass
class UnitResult:
    index: int
    wall: float
    ops: int  # records, or oracle start states
    failed: int
    runs: int  # records written, or oracle start states checked
    states: int  # network states stepped
    digest: str | None = None
    rows: list = field(default_factory=list)
    error: str | None = None


def thread_caps(workers: int) -> int:
    """BLAS/OpenMP threads per process so that workers x threads fits
    the CPUs this process may run on."""
    return max(1, len(os.sched_getaffinity(0)) // workers)


def run_unit(plan, unit, digests, seen: dict) -> UnitResult:
    """Time one unit, then check what it produced."""
    from checks import (basins_partition, expected_digest, files_digest,
                        oracle_digest, read_records)

    oracle = plan.digest_family == "oracle"
    if unit.out is not None and unit.out.exists():
        shutil.rmtree(unit.out)
    t0 = perf_counter()
    try:
        if oracle:
            report, mismatches = workloads.run_oracle_unit(unit)
        else:
            status = workloads.run_sweep_unit(unit)
    except Exception:  # a unit that raises counts as failed, run goes on
        wall = perf_counter() - t0
        return UnitResult(unit.index, wall, unit.expected_ops,
                          unit.expected_ops, 0, 0,
                          error=traceback.format_exc(limit=3))
    wall = perf_counter() - t0

    if oracle:
        ops = report.state_count
        failed = len(mismatches)
        digest = oracle_digest(report)
        if not basins_partition(report) or ops != unit.expected_ops:
            failed = ops
        # detect_cycle from a start state steps transient + period times.
        steps = int(report.transients.sum() + report.periods.sum())
        res = UnitResult(unit.index, wall, ops, failed, ops, steps, digest)
    else:
        if status != 0:
            return UnitResult(unit.index, wall, unit.expected_ops,
                              unit.expected_ops, 0, 0,
                              error=f"cli exit status {status}")
        names = (workloads.FOCUSED_FILES if plan.digest_family == "focused"
                 else workloads.SWEEP_FILES)
        digest = files_digest(unit.out, names)
        rows = read_records(unit.out / "records.csv")
        states = sum(
            int(r["transient"]) + int(r["period"])
            if r["cycle_status"] == "detected" else workloads.HORIZON
            for r in rows
        )
        ops = max(len(rows), unit.expected_ops)
        failed = ops - len(rows)
        res = UnitResult(unit.index, wall, ops, failed, len(rows), states,
                         digest, rows)
        shutil.rmtree(unit.out)

    want = expected_digest(digests, plan.digest_family, plan.seed, unit.index)
    want = seen.setdefault(unit.index, want or digest)
    if digest != want:
        res.failed = res.ops
        res.error = f"digest {digest} != expected {want}"
    return res


def run_units(plan, seconds: float, digests, started: float,
              tracer=None) -> list[UnitResult]:
    """Units in schedule order until their timed walls reach `seconds`
    at the end of a pass."""
    results: list[UnitResult] = []
    seen: dict[int, str] = {}
    timed = 0.0
    i = 0
    while not results or (
        (timed < seconds or i % plan.pass_len)
        and perf_counter() - started < UNIT_START_CAP_S
    ):
        unit = plan.units[i % len(plan.units)]
        if tracer is not None:
            tracer.unit = unit.index
        res = run_unit(plan, unit, digests, seen)
        if tracer is not None:
            tracer.merge_workers(unit.index)
        results.append(res)
        timed += res.wall
        i += 1
    return results


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest listed percentile with at
    least ten samples beyond it; the median when there are too few."""
    xs = sorted(samples)
    if not xs:
        return 0.0, 0.0
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(xs))
        if len(xs) - rank >= 10:
            return pct, xs[rank - 1]
    return 50.0, statistics.median(xs)


def layer_metrics(tracer, wall: float, workers: int, overhead: float) -> dict:
    st, counts = tracer.stats, tracer.counts

    def total(name):
        return st[name].total if name in st else 0.0

    def calls(name):
        return st[name].calls if name in st else 0

    rank_ms = [d * 1e3 for d in tracer.durations.get("metrics.rank", [])]
    cell_ms = [d * 1e3 for d in tracer.durations.get("sweep.run_cell", [])]
    rank_pct, rank_tail = tail(rank_ms)
    cell_pct, cell_tail = tail(cell_ms)
    steps = calls("network.step")
    builds = calls("network.build")
    cells = calls("sweep.run_cell")
    return {
        "metrics.rank_s": total("metrics.rank"),
        "metrics.rank_calls": calls("metrics.rank"),
        "metrics.rank_ms_p50": statistics.median(rank_ms) if rank_ms else 0.0,
        "metrics.rank_ms_tail": rank_tail,
        "metrics.rank_tail_pct": rank_pct,
        "metrics.rank_entries": int(counts["rank_entries"]),
        "network.steps": steps,
        "network.step_s": total("network.step"),
        "network.step_us": total("network.step") / steps * 1e6 if steps else 0.0,
        "network.build_s": total("network.build"),
        "network.builds": builds,
        "network.build_unique_share":
            len(tracer.build_keys) / builds if builds else 0.0,
        "network.object_mode_share":
            counts["object_mode_builds"] / builds if builds else 0.0,
        "rng.draws": int(counts["draws"]),
        "rng.draw_s": total("rng.raw_block") + total("rng.next_u64"),
        "dynamics.detect_s": total("dynamics.detect"),
        "dynamics.detect_calls": calls("dynamics.detect"),
        "dynamics.enumerate_s": total("dynamics.enumerate"),
        "dynamics.states_enumerated": int(counts["states_enumerated"]),
        "sweep.cells": cells,
        "sweep.cell_ms_p50": statistics.median(cell_ms) if cell_ms else 0.0,
        "sweep.cell_ms_tail": cell_tail,
        "sweep.cell_tail_pct": cell_pct,
        "sweep.cell_self_s":
            st["sweep.run_cell"].self_time if cells else 0.0,
        "sweep.steps_per_run": steps / cells if cells else 0.0,
        "sweep.censored_share": counts["censored_cells"] / cells if cells else 0.0,
        "sweep.pool_busy_share": total("sweep.run_cell") / (workers * wall),
        "cli.write_s": sum(s.total for k, s in st.items() if k.startswith("cli.")),
        "trace.wall_s": wall,
        "trace.overhead_s": overhead,
    }


def naive_check(plan, results: list[UnitResult]) -> tuple[int, list[str]]:
    """Recompute sampled sweep records naively; returns (failures, notes)."""
    from checks import record_matches

    rows = [(res.index, row) for res in results for row in res.rows]
    if not rows:
        return 0, []
    failures, notes = 0, []
    for k in range(NAIVE_SAMPLES):
        index, row = rows[workloads.seed_int("naive", plan.seed, k) % len(rows)]
        unit = plan.units[index]
        if not record_matches(row, unit.master_seed, workloads.HORIZON):
            failures += 1
            notes.append(f"unit {index} ({unit.label}) {row['run_id']}: "
                         "naive recomputation differs")
    return failures, notes


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment(workers: int, threads: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workers": workers,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    if not (SRC / "intsnn" / "__init__.py").is_file():
        print(f"error: no intsnn sources under {SRC}", file=sys.stderr)
        return 2
    workers = workloads.POOL_WORKERS.get(args.workload, 1)
    threads = thread_caps(workers)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    workdir = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        t0 = perf_counter()
        plan = workloads.setup(args.workload, args.seed, workdir)
        setup_s = perf_counter() - t0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return measure(args, plan, setup_s, started, workdir, workers, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, plan, setup_s, started, workdir, workers, threads) -> int:
    from checks import load_digests
    from layertrace import Tracer

    digests = load_digests()
    overhead = 0.0
    if args.trace:
        reference = run_units(plan, 0.0, digests, started)
        tracer = Tracer(workdir / "trace")
        tracer.worker_dir.mkdir()
        tracer.install()
        try:
            results = run_units(plan, args.seconds, digests, started, tracer)
        finally:
            tracer.uninstall()
        first = results[:len(reference)]
        overhead = sum(r.wall for r in first) - sum(r.wall for r in reference)
        for ref, res in zip(reference, first):
            if res.digest != ref.digest:
                res.failed = res.ops
                res.error = "traced and untraced digests differ"
        timed = results
        results = reference + results
    else:
        results = timed = run_units(plan, args.seconds, digests, started)
    peak = peak_rss_mb()
    wall = sum(r.wall for r in timed)

    naive_failed, notes = naive_check(plan, results)
    attempted = sum(r.ops for r in results)
    failed = min(attempted, sum(r.failed for r in results) + naive_failed)
    notes += [f"unit {r.index} ({plan.units[r.index].label}): {r.error}"
              for r in results if r.error]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "units": len(results),
        "timed_wall_s": wall,
        "failed_share": failed / attempted,
        "naive_samples": NAIVE_SAMPLES if any(r.rows for r in results) else 0,
        "environment": environment(workers, threads),
        "problems": notes,
    }
    if args.trace:
        layers = layer_metrics(tracer, wall, workers, overhead)
        OUT_ROOT.mkdir(exist_ok=True)
        trace_path = OUT_ROOT / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(trace_path, {"info": info, "layers": layers})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["dropped_layers"] = tracer.dropped
        info["tail_samples"] = {"metrics.rank": layers["metrics.rank_calls"],
                                "sweep.run_cell": layers["sweep.cells"]}
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        info["setup_samples_s"] = setups
        values = {
            "runs_per_s": statistics.median(r.runs / r.wall for r in timed),
            "states_per_s": sum(r.states for r in timed) / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    for note in notes:
        print(f"problem: {note}", file=sys.stderr)
    print(f"failed_share {failed / attempted!r} ({failed}/{attempted}) "
          f"workload={args.workload} seed={args.seed}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
