"""Layer tracing from outside the program.

`Tracer.install` replaces public functions of the intsnn modules with
wrappers that time each call. A wrapper records a span (name, start,
end, parent span, unit) for calls made a few hundred times per run, and
only a count and a summed time for the hot calls (`step_arrays`, the
xoshiro draws, `detect_cycle`). Self time is a call's duration minus
that of the wrapped calls it made. Pool workers forked during a traced
unit inherit the wrappers; each dumps its totals to a file after every
cell, and the parent merges them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (layer name, module, attribute path, hot). Names are the ones the
# callers look up: sweep's own `build_network`, `initial_state` and
# `pseudo_rank`, and the writers as cli imports them.
TARGETS = (
    ("sweep.run_cell", "intsnn.sweep", "run_cell", False),
    ("network.build", "intsnn.sweep", "build_network", False),
    ("network.initial_state", "intsnn.sweep", "initial_state", False),
    ("network.step", "intsnn.network", "Network.step_arrays", True),
    ("metrics.rank", "intsnn.sweep", "pseudo_rank", False),
    ("rng.raw_block", "intsnn.rng", "Xoshiro256StarStar.raw_block", True),
    ("rng.next_u64", "intsnn.rng", "Xoshiro256StarStar.next_u64", True),
    ("dynamics.detect", "intsnn.dynamics", "detect_cycle", True),
    ("dynamics.enumerate", "intsnn.dynamics", "enumerate_state_graph", False),
    ("dynamics.mismatches", "intsnn.dynamics", "detection_mismatches", False),
    ("cli.write_records", "intsnn.cli", "write_records_csv", False),
    ("cli.write_summary", "intsnn.cli", "write_summary_csv", False),
    ("cli.write_focused", "intsnn.cli", "write_focused_csv", False),
    ("cli.write_manifest", "intsnn.cli", "write_manifest", False),
    ("cli.write_figures", "intsnn.cli", "_write_sweep_figures", False),
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.parent_pid = self.pid = os.getpid()
        self.unit = 0
        self.installed: list[tuple[object, str, object]] = []
        self.dropped: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.build_keys: set[str] = set()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for name, module, path, hot in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.dropped.append(f"{name} ({module}.{path} not found)")
                continue
            setattr(owner, attr, self._wrap(name, original, hot))
            self.installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # -- the wrapper --------------------------------------------------

    def _wrap(self, name: str, fn, hot: bool):
        note = _NOTES.get(name)
        is_cell = name == "sweep.run_cell"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_cell and os.getpid() != self.pid:
                # First cell in a forked pool worker: start from zero.
                self.reset()
                self.pid = os.getpid()
            stack = self._stack
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat = self.stats[name]
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not hot:
                    self.durations[name].append(dur)
                    self.spans.append(
                        (span_id, parent, name, t0, t1, self.unit, self.pid)
                    )
            if note is not None:
                note(self, args, result)
            if is_cell and self.pid != self.parent_pid:
                self._dump_worker()
            return result

        return wrapper

    # -- pool workers -------------------------------------------------

    def _dump_worker(self) -> None:
        path = self.worker_dir / f"w{self.unit:03d}-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._snapshot()), encoding="utf-8")
        os.replace(tmp, path)

    def _snapshot(self) -> dict:
        return {
            "stats": {k: [s.calls, s.total, s.self_time]
                      for k, s in self.stats.items()},
            "durations": self.durations,
            "counts": self.counts,
            "build_keys": sorted(self.build_keys),
            "spans": self.spans,
        }

    def merge_workers(self, unit: int) -> float:
        """Fold the dumps of unit `unit`'s workers into this tracer;
        returns their summed `run_cell` time."""
        busy = 0.0
        for path in sorted(self.worker_dir.glob(f"w{unit:03d}-*.json")):
            snap = json.loads(path.read_text(encoding="utf-8"))
            for k, (calls, total, self_time) in snap["stats"].items():
                stat = self.stats[k]
                stat.calls += calls
                stat.total += total
                stat.self_time += self_time
            for k, values in snap["durations"].items():
                self.durations[k].extend(values)
            for k, value in snap["counts"].items():
                self.counts[k] += value
            self.build_keys.update(snap["build_keys"])
            self.spans.extend(tuple(s) for s in snap["spans"])
            busy += snap["stats"].get("sweep.run_cell", [0, 0.0])[1]
            path.unlink()
        return busy

    def write(self, path: Path, extra: dict) -> None:
        doc = dict(extra)
        doc.update(self._snapshot())
        doc["span_fields"] = ["id", "parent", "name", "start", "end",
                              "unit", "pid"]
        doc["dropped"] = self.dropped
        path.write_text(json.dumps(doc), encoding="utf-8")


def _note_build(tracer: Tracer, args, net) -> None:
    grid, n, density, bits = args[:4]
    tracer.build_keys.add(f"{grid.master_seed}:{n}:{density!r}:{bits}")
    if net.state_dtype is object:
        tracer.counts["object_mode_builds"] += 1


def _note_rank(tracer: Tracer, args, result) -> None:
    shape = getattr(args[0], "shape", (0, 0))
    tracer.counts["rank_entries"] += shape[0] * shape[1]


def _note_raw_block(tracer: Tracer, args, result) -> None:
    tracer.counts["draws"] += len(result)


def _note_next_u64(tracer: Tracer, args, result) -> None:
    tracer.counts["draws"] += 1


def _note_enumerate(tracer: Tracer, args, report) -> None:
    tracer.counts["states_enumerated"] += report.state_count


def _note_cell(tracer: Tracer, args, record) -> None:
    if record.cycle.status == "censored":
        tracer.counts["censored_cells"] += 1


_NOTES = {
    "network.build": _note_build,
    "metrics.rank": _note_rank,
    "rng.raw_block": _note_raw_block,
    "rng.next_u64": _note_next_u64,
    "dynamics.enumerate": _note_enumerate,
    "sweep.run_cell": _note_cell,
}
