"""Alternating parent/change benchmark pairs, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent REV --change REV --label NAME \\
        grid=7919,1,2,3 focused=7919,1,2,3 grid_pool=7919,1 oracle=7919,1

Each revision is exported with `git archive` into its own temporary
directory (under $TMPDIR), so uncommitted files never leak into a run;
for uncommitted work pass the commit that `git stash create` prints.
Every seed of a workload is one pair: the benchmark command of
BENCHMARK.json runs once in each export, the parent first in even pairs
and the change first in odd ones, so a workload takes an even number of
seeds. Workloads run one after another.

The result goes to BENCH_<label>.json at the root of this checkout. It
holds every run (workload, seed, pair, side, which side ran first, the
unit count from perfbench's `info` line, `correct` and every metric)
and, per workload and metric, both medians and quartiles, the
change/parent median ratio, the pairs the change won, and the median
and quartiles of the change/parent ratio of each pair with the pairs
whose ratio favours the change; a pair with a failed run is left out of
those and listed under `dropped_pairs`. Each end-to-end metric also gets
a verdict from its `bound` in BENCHMARK.json: "worse" when the change
median is worse than the parent median by more than the bound,
"unresolved" when the parent's interquartile range is a larger share of
its median than the bound and not every change run beats every parent
run, and "holds" otherwise. Each metric with a `better`
direction gets `gain_shown`: true when there are at least ten pairs, the
change wins at least nine tenths of them (a tie counts for neither side)
and its median beats the parent's by more than the parent's
interquartile range. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The tree of `rev` written into `dest`."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in `tree`: its correctness, units and metrics."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    # Output that is missing, unparsable or not a result object is a
    # failed run, not an error of the pair session.
    try:
        info = next((json.loads(line[5:]) for line in lines
                     if line.startswith("info ")), {})
        result = json.loads(lines[-1])
        correct = bool(result["correct"]) and proc.returncode == 0
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, AttributeError, ValueError):
        return {"correct": False, "units": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return {
        "correct": correct,
        "units": info.get("units"),
        "metrics": metrics,
        "environment": info.get("environment"),
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], direction: str,
            bound: float) -> str:
    """"worse", "unresolved" or "holds" for one end-to-end metric whose
    runs may not get worse than the parent's median by more than `bound`,
    a share of that median."""
    sign = 1 if direction == "higher" else -1
    pq1, pmed, pq3 = quartiles(parent)
    if sign * (statistics.median(change) - pmed) < -bound * abs(pmed):
        return "worse"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if pq3 - pq1 > bound * abs(pmed) and not beats_all:
        return "unresolved"
    return "holds"


def change_wins(parent: list[float], change: list[float], direction: str) -> int:
    """Pairs (parent[i], change[i]) that the change wins; a tie counts
    for neither side."""
    sign = 1 if direction == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def gain_shown(parent: list[float], change: list[float], direction: str) -> bool:
    """Whether the pairs show a gain: there are at least 10, the change
    wins at least 9 of every 10, and its median beats the parent's by
    more than the parent's q3 - q1."""
    sign = 1 if direction == "higher" else -1
    pq1, pmed, pq3 = quartiles(parent)
    gap = sign * (statistics.median(change) - pmed)
    wins = change_wins(parent, change, direction)
    return len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > pq3 - pq1


def pair_ratios(parent: list[float], change: list[float], direction: str | None,
                pairs: list[int]) -> dict:
    """The change/parent ratio of each pair, summarised: its median and
    quartiles, and the pairs whose ratio favours the change (above 1
    where higher is better, below 1 where lower is; None without a
    direction). Unlike the unpaired medians these do not see host drift
    that moves both runs of a pair alike. A pair with a zero parent run
    has no ratio and is left out."""
    kept = [(p, c / q) for p, q, c in zip(pairs, parent, change) if q]
    ratios = [r for _, r in kept]
    q1, median, q3 = quartiles(ratios) if ratios else (None, None, None)
    favours = None
    if direction is not None:
        sign = 1 if direction == "higher" else -1
        favours = [p for p, r in kept if sign * (r - 1) > 0]
    return {"pair_ratio_median": median, "pair_ratio_q1_q3": [q1, q3],
            "pairs_favouring_change": favours}


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per workload and metric: medians, quartiles, ratio, wins and
    pair_ratios, a `gain_shown` for each metric with a direction, and a
    verdict for each metric with a bound. A pair with a run that is
    missing or not correct is left out of every statistic and listed
    under `dropped_pairs`, with the sides that failed."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = {r["pair"]: r["seed"] for r in mine}
        by_pair = {(r["pair"], r["side"]): r for r in mine}
        failed = {
            p: [s for s in SIDES if not by_pair.get((p, s), {}).get("correct")]
            for p in sorted(seeds)
        }
        whole = [p for p, sides in failed.items() if not sides]
        entry = {
            "pairs": len(whole),
            "seeds": [seeds[p] for p in whole],
            "all_correct": all(r["correct"] for r in mine),
            "dropped_pairs": [
                {"pair": p, "seed": seeds[p], "failed": sides}
                for p, sides in failed.items() if sides
            ],
            "units_parent": [by_pair[p, "parent"]["units"] for p in whole],
            "units_change": [by_pair[p, "change"]["units"] for p in whole],
        }
        names = dict.fromkeys(k for r in mine for k in r["metrics"])
        for name in names:
            kept = [p for p in whole
                    if all(name in by_pair[p, s]["metrics"] for s in SIDES)]
            if not kept:
                continue
            values = {
                s: [by_pair[p, s]["metrics"][name] for p in kept] for s in SIDES
            }
            pq1, pmed, pq3 = quartiles(values["parent"])
            cq1, cmed, cq3 = quartiles(values["change"])
            direction = better.get(name)
            entry[name] = {
                "better": direction,
                "parent_median": pmed,
                "change_median": cmed,
                "median_ratio": cmed / pmed if pmed else None,
                "parent_q1_q3": [pq1, pq3],
                "change_q1_q3": [cq1, cq3],
                "parent_iqr_share_of_median": (pq3 - pq1) / pmed if pmed else None,
                "change_wins": None,
                "out_of": len(kept),
                **pair_ratios(values["parent"], values["change"], direction, kept),
            }
            if direction is not None:
                runs_by_side = values["parent"], values["change"]
                entry[name].update(
                    change_wins=change_wins(*runs_by_side, direction),
                    gain_shown=gain_shown(*runs_by_side, direction),
                )
            if name in bounds:
                entry[name]["bound"] = bounds[name]
                entry[name]["verdict"] = verdict(
                    values["parent"], values["change"], direction, bounds[name]
                )
        summary[workload] = entry
    return summary


def parse_plan(specs: list[str]) -> list[tuple[str, list[int]]]:
    """(workload, seeds) of each WORKLOAD=SEED,SEED,... spec. A workload
    needs an even number of seeds, so each side runs first as often."""
    plan = []
    for spec in specs:
        workload, sep, seeds = spec.partition("=")
        try:
            if not sep or not workload:
                raise ValueError(spec)
            plan.append((workload, [int(s) for s in seeds.split(",")]))
        except ValueError:
            raise SystemExit(f"bad plan {spec!r}: want WORKLOAD=SEED,SEED,...") from None
        if len(plan[-1][1]) % 2:
            raise SystemExit(
                f"bad plan {spec!r}: want an even number of seeds, so the "
                f"parent and the change each run first in half the pairs"
            )
    return plan


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("plan", nargs="+", help="WORKLOAD=SEED,SEED,... one pair per seed")
    args = p.parse_args(argv)
    plan = parse_plan(args.plan)

    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = bench["command"], bench["run_seconds"]
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: list[dict] = []
    environment = None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {}
        for side in SIDES:
            trees[side] = Path(tmp) / side
            export(revs[side], trees[side])
        for workload, seeds in plan:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(trees[side], command, workload, seed, seconds)
                    environment = run.pop("environment", None) or environment
                    runs.append({"workload": workload, "seed": seed,
                                 "pair": pair, "side": side,
                                 "first": order[0], **run})
                    shown = {k: round(v, 4) for k, v in run["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: correct="
                          f"{run['correct']} units={run['units']} {shown}",
                          file=sys.stderr, flush=True)

    doc = {
        "label": args.label,
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds}",
        "parent": revs["parent"],
        "change": revs["change"],
        "order": "per workload, one pair per seed; the parent runs first "
                 "in even pairs, the change in odd ones",
        "environment": environment,
        "summary": summarize(runs, better, bounds),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
