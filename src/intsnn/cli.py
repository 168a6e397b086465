"""Command-line harness: simulate | sweep | focused | oracle | report."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from .config import _SCHEMA, load_config, parse_float, parse_int, parse_int_list
from .dynamics import (
    DEFAULT_STATE_BUDGET,
    detection_mismatches,
    enumerate_state_graph,
    oracle_json,
    simulate,
    write_trajectory_csv,
)
from .metrics import (
    BitsSummary,
    delay_embed,
    read_records_csv,
    summarize,
    write_focused_csv,
    write_records_csv,
    write_summary_csv,
)
from .network import initial_state, network_to_json
from .svgplot import heatmap_svg, line_chart_svg, raster_svg, scatter_svg
from .sweep import (
    FOCUSED_DENSITY,
    FOCUSED_SEEDS,
    FOCUSED_SIZE,
    _MODES,
    CellError,
    build_network,
    cell_seeds,
    focused_grid,
    run_cell,
    run_grid,
    top_recurrent,
    write_manifest,
)
from .textio import write_text


def _ensure_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _workers(config) -> int | None:
    """Pool size: `workers` from the flag or the config file, which
    config.workers already holds in that precedence, else INTSNN_WORKERS
    under the same parser. Refused below 1 before anything runs or is
    written."""
    workers, source = config.workers, "workers"
    if workers is None:
        raw = os.environ.get("INTSNN_WORKERS")
        if not raw:
            return None
        source = "workers (INTSNN_WORKERS)"
        try:
            workers = _SCHEMA["workers"][0](raw)
        except ValueError:
            raise ValueError(f"INTSNN_WORKERS must be an integer, got {raw!r}")
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def _grid_overrides(args) -> dict[str, object]:
    """The flags of `args` that name a config key."""
    return {key: getattr(args, key) for key in _SCHEMA if hasattr(args, key)}


def _write_sweep_figures(out: Path, summaries, label: str) -> None:
    bits = [s.bits for s in summaries]
    rates = [s.mean_firing_rate for s in summaries]
    write_text(
        out / "firing_rate_vs_bits.svg",
        line_chart_svg(
            [(label, bits, rates)],
            "mean firing rate vs bit width",
            "bits",
            "mean firing rate",
        ),
    )
    cycle_pts = [
        (s.bits, s.median_cycle) for s in summaries if s.median_cycle is not None
    ]
    if cycle_pts:
        write_text(
            out / "cycle_vs_bits.svg",
            line_chart_svg(
                [(label, [b for b, _ in cycle_pts], [c for _, c in cycle_pts])],
                "median detected cycle length vs bit width",
                "bits",
                "median cycle length",
            ),
        )


# Grid keys that `simulate` and `oracle` take from their own flags alone;
# a config file that sets one is refused rather than silently overridden.
_CELL_FLAGS = {"sizes": "--n", "densities": "--density", "bits": "--bits"}


@contextlib.contextmanager
def _flags_named(flags: dict[str, str]):
    """Raise a grid refusal of a key in `flags` (key -> flag) with the
    flag the user typed in place of the key: every `SweepGrid.validate`
    message starts with its key."""
    try:
        yield
    except ValueError as exc:
        key, _, rest = str(exc).partition(" ")
        if key not in flags:
            raise
        raise ValueError(f"{flags[key]} {rest}") from exc


def _cell_config(args):
    """Config for the one cell that --n, --density and --bits name, with
    its grid validated as `intsnn sweep` validates one, so a bad model
    key fails the same way and before any work."""
    overrides = _grid_overrides(args)
    overrides.update(
        {"sizes": [args.n], "densities": [args.density], "bits": [args.bits_value]}
    )
    config = load_config(args.config, overrides, _CELL_FLAGS)
    with _flags_named(_CELL_FLAGS):
        config.grid.validate()
    return config


def cmd_simulate(args) -> int:
    config = _cell_config(args)
    grid = config.grid
    n, density, bits = args.n, args.density, args.bits_value
    if config.figures:
        # Checked before simulating, so a bad figure flag writes nothing.
        trace_ids = args.trace_neurons or list(range(min(3, n)))
        for i in trace_ids:
            if not 0 <= i < n:
                raise ValueError(f"trace neuron {i} outside 0..{n - 1}")
        if not 0 <= args.embed_neuron < n:
            raise ValueError(f"embed neuron {args.embed_neuron} outside 0..{n - 1}")
        if not 1 <= args.tau <= grid.horizon:
            raise ValueError(f"tau must lie in 1..{grid.horizon}, got {args.tau}")
    net = build_network(grid, n, density, bits)
    _, _, init_seed = cell_seeds(
        grid.master_seed, n, density, bits, args.seed
    )
    init = initial_state(net, init_seed)
    traj = simulate(net, init, grid.horizon)
    record = run_cell(grid, n, density, bits, args.seed)
    out = _ensure_dir(args.out or config.output_dir)

    write_trajectory_csv(traj, out / "trajectory.csv")
    write_text(
        out / "network.json",
        json.dumps(network_to_json(net), indent=2, sort_keys=True) + "\n",
    )
    if config.figures:
        write_text(
            out / "connectivity.svg",
            heatmap_svg(net.weights, f"connectivity n={n} density={density:g}"),
        )
        steps = list(range(grid.horizon + 1))
        series = [
            (f"neuron {i}", steps, [int(x) for x in traj.states[:, i]])
            for i in trace_ids
        ]
        write_text(
            out / "traces.svg",
            line_chart_svg(series, "membrane traces", "step", "potential"),
        )
        write_text(
            out / "raster.svg",
            raster_svg(traj.raster, f"spike raster n={n} bits={bits}"),
        )
        pairs = delay_embed(traj.states[:, args.embed_neuron], args.tau)
        write_text(
            out / "embedding.svg",
            scatter_svg(
                pairs,
                f"delay embedding neuron {args.embed_neuron} tau={args.tau}",
                "v(t)",
                f"v(t+{args.tau})",
            ),
        )

    # The printed metrics are the record `intsnn sweep` writes for this cell.
    cycle = record.cycle
    print(
        f"run {n=} density={density:g} bits={bits} seed={args.seed}: "
        f"rate={record.mean_firing_rate:.4f} "
        f"active={record.active_fraction:.4f} "
        f"rank={record.pseudo_rank} cycle={cycle.status}"
        + (
            f" transient={cycle.transient} period={cycle.period}"
            if cycle.status == "detected"
            else ""
        )
    )
    print(f"outputs in {out}")
    return 0


def _run_and_write(
    grid, out: Path, workers, figures: bool, label: str
) -> list[BitsSummary]:
    records = run_grid(grid, workers=workers)
    summaries = summarize(records)
    write_records_csv(records, out / "records.csv")
    write_summary_csv(summaries, out / "summary.csv")
    write_manifest(grid, out / "manifest.json")
    if figures:
        _write_sweep_figures(out, summaries, label)
    print(f"{len(records)} runs -> {out}")
    return summaries


def cmd_sweep(args) -> int:
    config = load_config(args.config, _grid_overrides(args))
    grid = config.grid
    grid.validate()
    workers = _workers(config)
    out = _ensure_dir(args.out or config.output_dir)
    _run_and_write(grid, out, workers, config.figures, config.variant or "sweep")
    return 0


# Grid keys that `focused` takes from its own flags alone; a config file
# that sets one is refused rather than silently overridden.
_FOCUSED_FLAGS = {"sizes": "--n", "densities": "--density", "seeds_per_cell": "--seeds"}


def cmd_focused(args) -> int:
    config = load_config(args.config, _grid_overrides(args), _FOCUSED_FLAGS)
    flags = dict(_FOCUSED_FLAGS)
    if args.bit_widths is not None:  # else `bits` is the config file's
        flags["bits"] = "--bits"
    with _flags_named(flags):
        grid = focused_grid(
            config.grid, args.bit_widths, args.n, args.density, args.seeds
        )
    workers = _workers(config)
    out = _ensure_dir(args.out or config.output_dir)
    summaries = _run_and_write(grid, out, workers, config.figures, "focused")
    write_focused_csv(summaries, out / "focused_summary.csv")
    return 0


def cmd_oracle(args) -> int:
    grid = _cell_config(args).grid
    net = build_network(grid, args.n, args.density, args.bits_value)
    started = perf_counter()
    report = enumerate_state_graph(net, budget=args.budget)
    enumerated = perf_counter()
    mismatches = detection_mismatches(net, report)
    # Timings go to stderr only; stdout and oracle.json stay deterministic.
    print(
        f"enumerate {enumerated - started:.2f} s, "
        f"replay {perf_counter() - enumerated:.2f} s",
        file=sys.stderr,
    )
    if args.out:
        out = _ensure_dir(args.out)
        write_text(
            out / "oracle.json",
            json.dumps(oracle_json(net, report), indent=2, sort_keys=True) + "\n",
        )
    print(
        f"states={report.state_count} attractors={len(report.attractors)} "
        f"periods={sorted({a.period for a in report.attractors})}"
    )
    if mismatches:
        print(f"FAIL: detector disagrees on {len(mismatches)} start states")
        return 1
    print(f"PASS: detector matches enumeration on all {report.state_count} states")
    return 0


def cmd_report(args) -> int:
    records = read_records_csv(args.records)
    top = top_recurrent(records, args.count)
    if args.out:
        out = _ensure_dir(args.out)
        write_records_csv(top, out / "top_recurrent.csv")
        write_summary_csv(summarize(records), out / "summary.csv")
    header = f"{'run_id':<20} {'n':>4} {'density':>8} {'bits':>4} {'rank':>5} {'rate':>7} cycle"
    print(header)
    for r in top:
        cycle = (
            f"{r.cycle.status} t={r.cycle.transient} p={r.cycle.period}"
            if r.cycle.status == "detected"
            else r.cycle.status
        )
        print(
            f"{r.run_id:<20} {r.n:>4} {r.density:>8g} {r.bits:>4} "
            f"{r.pseudo_rank:>5} {r.mean_firing_rate:>7.4f} {cycle}"
        )
    return 0


# Config keys that `simulate`, `sweep`, `focused` and `oracle` take as flags.
_MODEL_KEYS = (
    "master_seed", "horizon", "threshold_lo", "threshold_hi", "leak_k",
    "weight_lo", "weight_hi", "signedness", "overflow_mode", "reset_mode",
)


def _typed(name: str, parse):
    """`parse` as an argparse type whose error reads as a config file's:
    `bad value for master_seed: invalid literal for int() ...`."""

    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value for {name}: {exc}") from exc

    return parse_flag


def _add_key_flags(sub: argparse.ArgumentParser, keys) -> None:
    """`--<key>` for each config key, parsed by the key's config parser."""
    for key in keys:
        sub.add_argument(
            "--" + key.replace("_", "-"),
            type=_typed(key, _SCHEMA[key][0]),
            choices=_MODES.get(key),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intsnn",
        description="Deterministic integer-state spiking network harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="one run: trajectory CSV and figures")
    sim.add_argument("--config", default=None)
    sim.add_argument("--out", default=None)
    sim.add_argument("--n", type=_typed("n", parse_int), default=64)
    sim.add_argument("--density", type=_typed("density", parse_float), default=0.5)
    sim.add_argument("--bits", dest="bits_value", type=_typed("bits", parse_int),
                     default=8)
    sim.add_argument("--seed", type=_typed("seed", parse_int), default=0,
                     help="initial-condition stream index")
    sim.add_argument("--trace-neurons", dest="trace_neurons", default=None,
                     type=_typed("trace_neurons", parse_int_list),
                     help="comma list of neurons for the trace figure")
    sim.add_argument("--embed-neuron", dest="embed_neuron",
                     type=_typed("embed_neuron", parse_int), default=0)
    sim.add_argument("--tau", type=_typed("tau", parse_int), default=1)
    sim.add_argument("--figures", action=argparse.BooleanOptionalAction,
                     default=None)
    _add_key_flags(sim, _MODEL_KEYS)
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="full grid: records, summaries, figures")
    swp.add_argument("--config", default=None)
    swp.add_argument("--out", default=None)
    swp.add_argument("--figures", action=argparse.BooleanOptionalAction,
                     default=None)
    _add_key_flags(swp, _MODEL_KEYS + ("workers", "variant"))
    swp.set_defaults(func=cmd_sweep)

    foc = sub.add_parser("focused", help="repeated seeds on one topology per bits")
    foc.add_argument("--config", default=None)
    foc.add_argument("--out", default=None)
    foc.add_argument("--n", type=_typed("n", parse_int), default=FOCUSED_SIZE)
    foc.add_argument("--density", type=_typed("density", parse_float),
                     default=FOCUSED_DENSITY)
    foc.add_argument("--bits", dest="bit_widths", default=None,
                     type=_typed("bits", parse_int_list),
                     help="bit widths, e.g. 1..16 or 4,8,16")
    foc.add_argument("--seeds", type=_typed("seeds", parse_int), default=FOCUSED_SEEDS)
    foc.add_argument("--figures", action=argparse.BooleanOptionalAction,
                     default=None)
    _add_key_flags(foc, _MODEL_KEYS + ("workers",))
    foc.set_defaults(func=cmd_focused)

    orc = sub.add_parser("oracle", help="exhaustive enumeration vs detector")
    orc.add_argument("--config", default=None)
    orc.add_argument("--out", default=None)
    orc.add_argument("--n", type=_typed("n", parse_int), required=True)
    orc.add_argument("--bits", dest="bits_value", type=_typed("bits", parse_int),
                     required=True)
    orc.add_argument("--density", type=_typed("density", parse_float), default=0.5)
    orc.add_argument("--budget", type=_typed("budget", parse_int),
                     default=DEFAULT_STATE_BUDGET)
    # Enumeration steps each state once and the replay takes its
    # horizons from the report, so the oracle reads no horizon.
    _add_key_flags(orc, [k for k in _MODEL_KEYS if k != "horizon"])
    orc.set_defaults(func=cmd_oracle)

    rep = sub.add_parser("report", help="rank recorded runs by recurrence richness")
    rep.add_argument("--records", required=True)
    rep.add_argument("--count", type=_typed("count", parse_int), default=10)
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
