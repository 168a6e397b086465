"""Record the expected output digests of the pinned workload seeds.

    python3 perfbench/record_digests.py [family ...]

Runs the first units of each workload family (grid, focused, oracle;
all three by default) at workers=1 for every pinned seed and writes
their digests to digests.json, which run.py compares each unit's
outputs against. Only rerun it for a change that declares and versions
a change of output bytes; a performance change must leave every digest
as it is. grid_pool is checked against the grid family's digests.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads
from checks import DIGESTS_PATH, load_digests, oracle_digest

PINNED_SEEDS = list(range(11)) + [run.HELD_OUT_SEED]
UNITS = {"grid": 8, "focused": 16, "oracle": workloads.ORACLE_NETWORKS}


def record(plan, unit) -> str:
    """Digest of one unit's outputs. An oracle digest covers only the
    enumeration, so the detector replay is left to the benchmark runs."""
    if plan.digest_family == "oracle":
        from intsnn.dynamics import enumerate_state_graph

        return oracle_digest(
            enumerate_state_graph(unit.net, budget=workloads.ORACLE_BUDGET)
        )
    res = run.run_unit(plan, unit, {}, {})
    if res.error or res.failed:
        raise RuntimeError(f"seed {plan.seed} unit {unit.index}: {res.error}")
    return res.digest


def main(families: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    table = load_digests() if DIGESTS_PATH.exists() else {}
    for family in families or list(UNITS):
        count = UNITS[family]
        table[family] = {}
        for seed in PINNED_SEEDS:
            workdir = run.WORK_ROOT / f"record-{family}-s{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                plan = workloads.setup(family, seed, workdir)
                digests = [record(plan, unit) for unit in plan.units[:count]]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table[family][str(seed)] = digests
            print(f"{family} seed {seed}: {len(digests)} units", flush=True)
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
