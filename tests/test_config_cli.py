"""Config parsing and the command-line entry points."""

import json
import re
import subprocess
import sys

import pytest

from intsnn import cli
from intsnn.cli import main
from intsnn.config import (
    MAX_RANGE_VALUES,
    build_config,
    load_config,
    parse_bool,
    parse_config_text,
    parse_float_list,
    parse_int_list,
)
from intsnn.metrics import read_records_csv
from intsnn.sweep import run_cell


def test_list_parsers():
    assert parse_int_list("1,2,3") == [1, 2, 3]
    assert parse_int_list("30..40:2") == [30, 32, 34, 36, 38, 40]
    assert parse_int_list("1..4") == [1, 2, 3, 4]
    assert parse_int_list("1..3, 8") == [1, 2, 3, 8]
    assert parse_float_list("0.1..0.9:0.2") == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert parse_float_list("0.25, 0.75") == [0.25, 0.75]
    with pytest.raises(ValueError):
        parse_int_list("")
    with pytest.raises(ValueError):
        parse_int_list("5..1")
    with pytest.raises(ValueError):
        parse_int_list("1..5:0")
    with pytest.raises(ValueError):
        parse_float_list("..5")


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_int_list, "1..10000000000000"),
        (parse_int_list, f"0..{MAX_RANGE_VALUES}"),
        (parse_int_list, f"1..{2 * MAX_RANGE_VALUES + 1}:2, 5"),
        (parse_float_list, "0..nan"),
        (parse_float_list, "nan..1"),
        (parse_float_list, "0..inf"),
        (parse_float_list, "-inf..0"),
        (parse_float_list, "0..1:1e-15"),
        (parse_float_list, "0..1:nan"),
        (parse_float_list, f"0..{MAX_RANGE_VALUES}"),
    ],
)
def test_list_parsers_count_a_range_before_expanding_it(parse, text):
    # One value past the bound, or no finite count: the huge, infinite,
    # nan and tiny-step ranges once ran out of memory or never returned.
    with pytest.raises(ValueError, match="must hold a finite count of at most"):
        parse(text)


def test_list_parsers_expand_ranges_up_to_the_bound():
    last = MAX_RANGE_VALUES - 1
    assert parse_int_list(f"0..{last}") == list(range(MAX_RANGE_VALUES))
    assert parse_int_list(f"1..{2 * MAX_RANGE_VALUES - 1}:2")[-1] == 2 * last + 1
    floats = parse_float_list(f"0..{last}")
    assert floats == [float(i) for i in range(MAX_RANGE_VALUES)]


def test_cli_refuses_a_range_past_the_bound_naming_its_key(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("horizon = 40\nsizes = 1..10000000000000\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: line 2: bad value for sizes: range '1..10000000000000'" in (
        capsys.readouterr().err
    )
    with pytest.raises(SystemExit) as exc:
        main(["focused", "--bits", "1..10000000000000", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --bits: bad value for bits: range '1..10000000000000'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_parse_bool():
    assert parse_bool("yes") and parse_bool("1") and parse_bool("True")
    assert not parse_bool("off") and not parse_bool("0")
    with pytest.raises(ValueError):
        parse_bool("maybe")


def test_parse_config_text():
    text = """
    # run shape
    sizes = 4, 6
    densities = 0.5
    bits = 1..3
    horizon = 50   # inline comment
    workers = 2
    figures = off
    """
    values = parse_config_text(text)
    assert values["sizes"] == [4, 6]
    assert values["bits"] == [1, 2, 3]
    assert values["horizon"] == 50
    assert values["workers"] == 2
    assert values["figures"] is False


def test_parse_config_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("sizes = 4\nnot a pair\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("grid_size = 4\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("horizon = soon\n")
    # a repeated key is refused, not overwritten by its later value
    with pytest.raises(ValueError, match="line 3: sizes given again, first on line 1"):
        parse_config_text("sizes = 4\nhorizon = 9\nsizes = 6\n")


def test_build_config_defaults():
    config = build_config()
    grid = config.grid
    assert len(grid.sizes) == 51 and grid.sizes[0] == 30 and grid.sizes[-1] == 130
    assert grid.densities == [i / 10 for i in range(1, 10)]
    assert grid.bit_widths == list(range(1, 17))
    assert grid.horizon == 1000
    assert grid.threshold_range == (4, 8)
    assert grid.weight_range == (-4, 4)
    assert grid.leak_k == 1
    assert grid.seeds_per_cell == 1
    assert config.output_dir == "out"
    assert config.workers is None
    assert config.figures is True


def test_build_config_precedence():
    # variant preset below file values below overrides
    text = "variant = variant-k8\ndensities = 0.4\nhorizon = 200\n"
    config = build_config(text, {"horizon": 100})
    assert config.grid.leak_k == 8  # from the preset
    assert config.grid.densities == [0.4]  # file beats preset
    assert config.grid.horizon == 100  # override beats file
    assert config.variant == "variant-k8"


def test_build_config_half_open_tuples_and_unknowns():
    config = build_config("threshold_lo = 2\nweight_hi = 9\n")
    assert config.grid.threshold_range == (2, 8)
    assert config.grid.weight_range == (-4, 9)
    with pytest.raises(ValueError, match="variant-k8"):
        build_config("variant = variant-k9\n")
    with pytest.raises(ValueError):
        build_config(None, {"not_a_key": 1})


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("horizon = 25\n")
    assert load_config(str(path)).grid.horizon == 25
    assert load_config(None).grid.horizon == 1000


def simulate_args(out, extra=()):
    return [
        "simulate", "--out", str(out), "--n", "6", "--density", "0.5",
        "--bits", "3", "--horizon", "40", *extra,
    ]


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(simulate_args(out)) == 0
    for name in (
        "trajectory.csv", "network.json", "connectivity.svg",
        "traces.svg", "raster.svg", "embedding.svg",
    ):
        assert (out / name).exists(), name
    doc = json.loads((out / "network.json").read_text())
    assert doc["n"] == 6 and doc["bits"] == 3
    printed = capsys.readouterr().out
    assert "rate=" in printed and "cycle=" in printed


def test_cli_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(simulate_args(a)) == 0
    assert main(simulate_args(b)) == 0
    for name in ("trajectory.csv", "network.json", "traces.svg", "raster.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_simulate_quiescent_raster_is_empty(tmp_path):
    out = tmp_path / "quiet"
    args = [
        "simulate", "--out", str(out), "--n", "6", "--density", "0.5",
        "--bits", "2", "--horizon", "40",
    ]
    assert main(args) == 0
    assert 'class="spike"' not in (out / "raster.svg").read_text()


def test_cli_simulate_rejects_bad_neuron_index(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(simulate_args(out, ("--embed-neuron", "9"))) == 1
    assert "error:" in capsys.readouterr().err
    # the flag is checked before anything is simulated or written
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--embed-neuron", "99"), "embed neuron 99 outside 0..5"),
        (("--trace-neurons", "9"), "trace neuron 9 outside 0..5"),
        (("--trace-neurons", "1,-1"), "trace neuron -1 outside 0..5"),
        (("--tau", "0"), "tau must lie in 1..40, got 0"),
        (("--tau", "41"), "tau must lie in 1..40, got 41"),  # horizon + 1
        (("--tau", "5000"), "tau must lie in 1..40, got 5000"),
        (("--threshold-lo", "5", "--threshold-hi", "3"),
         "threshold_lo 5 exceeds threshold_hi 3"),
        # Seeds fold modulo 2^64: -1 would simulate seed 2^64 - 1.
        (("--seed", "-1"), "seed must lie in 0..2^64 - 1, got -1"),
    ],
)
def test_cli_simulate_rejects_bad_flags_before_writing(
    tmp_path, capsys, flags, message
):
    out = tmp_path / "sim"
    assert main(simulate_args(out, flags)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_accepts_tau_up_to_horizon(tmp_path):
    out = tmp_path / "sim"
    assert main(simulate_args(out, ("--tau", "40", "--trace-neurons", "5"))) == 0
    assert (out / "embedding.svg").exists()


def sweep_args(out, extra=()):
    return [
        "sweep", "--out", str(out), "--horizon", "40", *extra,
    ]


SMALL_CONFIG = {"sizes": "3, 4", "densities": "0.5", "bits": "2..4", "horizon": "40"}


def config_text(values):
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def write_small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(config_text(SMALL_CONFIG))
    return path


def test_cli_sweep_outputs_and_determinism(tmp_path):
    cfg = write_small_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ("records.csv", "summary.csv", "manifest.json",
                 "firing_rate_vs_bits.svg"):
        assert (a / name).exists(), name
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    records = read_records_csv(a / "records.csv")
    assert len(records) == 6
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["grid"]["sizes"] == [3, 4]
    assert manifest["grid"]["horizon"] == 40


def test_cli_sweep_flag_overrides_config(tmp_path):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--horizon", "20"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["horizon"] == 20


def test_cli_sweep_rejects_empty_bits(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bits =\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_honors_worker_env(tmp_path, monkeypatch):
    cfg = write_small_config(tmp_path)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
    monkeypatch.setenv("INTSNN_WORKERS", "2")
    assert main(["sweep", "--config", str(cfg), "--out", str(pooled)]) == 0
    assert (serial / "records.csv").read_bytes() == (pooled / "records.csv").read_bytes()
    monkeypatch.setenv("INTSNN_WORKERS", "two")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize(
    "values",
    [
        {"master_seed": "0x2A", "horizon": "0x14"},
        {"threshold_lo": "0b11"},
        {"threshold_hi": "0x7"},
        {"leak_k": "0b10"},
        {"weight_lo": "-0b11"},
        {"weight_hi": "0o5"},
        {"signedness": "signed"},
        {"overflow_mode": "wrap"},
        {"reset_mode": "subtract_threshold"},
        {"workers": "0x2"},
        {"variant": "variant-k8"},
        {"master_seed": "1_000"},
    ],
)
def test_cli_flag_parses_as_the_config_file_does(tmp_path, values):
    base = config_text({k: v for k, v in SMALL_CONFIG.items() if k not in values})
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    (tmp_path / "base.cfg").write_text(base)
    (tmp_path / "full.cfg").write_text(base + config_text(values))
    assert main(["sweep", "--config", str(tmp_path / "base.cfg"),
                 "--out", str(tmp_path / "flag"), "--no-figures", *flags]) == 0
    assert main(["sweep", "--config", str(tmp_path / "full.cfg"),
                 "--out", str(tmp_path / "file"), "--no-figures"]) == 0
    for name in ("records.csv", "manifest.json"):
        flag_bytes = (tmp_path / "flag" / name).read_bytes()
        assert flag_bytes == (tmp_path / "file" / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, spelled, plain",
    [
        (["simulate", "--n", "6", "--bits", "3", "--horizon", "40"],
         ["--seed", "0x1", "--embed-neuron", "0b10", "--tau", "0o3"],
         ["--seed", "1", "--embed-neuron", "2", "--tau", "3"]),
        (["focused", "--n", "6", "--bits", "2,3", "--horizon", "40"],
         ["--seeds", "0x3"], ["--seeds", "3"]),
        (["oracle", "--n", "2", "--bits", "3"],
         ["--budget", "0x40"], ["--budget", "64"]),
        (["report"], ["--count", "0b11"], ["--count", "3"]),
    ],
)
def test_cli_integer_flags_take_the_config_file_forms(
    tmp_path, capsys, command, spelled, plain
):
    # These flags name no config key, but parse integers as a file does.
    if command == ["report"]:
        src = tmp_path / "src"
        cfg = write_small_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(src)]) == 0
        command = ["report", "--records", str(src / "records.csv")]
        capsys.readouterr()
    outputs = []
    for name, flags in (("spelled", spelled), ("plain", plain)):
        out = tmp_path / name
        assert main([*command, *flags, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((printed, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_cli_workers_parse_alike_from_every_source(tmp_path, monkeypatch, source):
    cfg = write_small_config(tmp_path)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
    args = ["sweep", "--config", str(cfg), "--out", str(pooled)]
    if source == "flag":
        args += ["--workers", "0x2"]
    elif source == "config":
        cfg.write_text(cfg.read_text() + "workers = 0x2\n")
    else:
        monkeypatch.setenv("INTSNN_WORKERS", "0x2")
    pools = []
    real_run_grid = cli.run_grid

    def run_grid(grid, workers=None):
        pools.append(workers)
        return real_run_grid(grid, workers=workers)

    monkeypatch.setattr(cli, "run_grid", run_grid)
    assert main(args) == 0
    assert pools == [2]
    assert (serial / "records.csv").read_bytes() == (pooled / "records.csv").read_bytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (("sweep", "--signedness", "bogus"),
         "argument --signedness: invalid choice: 'bogus'"),
        # a zero-padded integer is refused here as it is in a config
        # file, and in the file's words
        (("sweep", "--master-seed", "0100"),
         "argument --master-seed: bad value for master_seed: "
         "invalid literal for int() with base 0: '0100'"),
        (("sweep", "--horizon", "soon"),
         "argument --horizon: bad value for horizon: "
         "invalid literal for int() with base 0: 'soon'"),
        (("oracle", "--n", "1", "--bits", "2", "--horizon", "5"),
         "unrecognized arguments: --horizon 5"),
        # flags that are not config keys parse and fail alike
        (("simulate", "--seed", "0100"),
         "argument --seed: bad value for seed: "
         "invalid literal for int() with base 0: '0100'"),
        (("focused", "--density", "half"),
         "argument --density: bad value for density: "
         "could not convert string to float: 'half'"),
        (("report", "--records", "r.csv", "--count", "3.0"),
         "argument --count: bad value for count: "
         "invalid literal for int() with base 0: '3.0'"),
        # list flags name their key too
        (("focused", "--bits", "abc"),
         "argument --bits: bad value for bits: "
         "invalid literal for int() with base 0: 'abc'"),
        (("simulate", "--trace-neurons", "x"),
         "argument --trace-neurons: bad value for trace_neurons: "
         "invalid literal for int() with base 0: 'x'"),
    ],
)
def test_cli_refuses_bad_flags_when_parsing(tmp_path, capsys, args, message):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_help_lists_mode_choices(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    printed = capsys.readouterr().out
    for choices in ("{unsigned,signed}", "{saturate,wrap}", "{none,subtract_threshold}"):
        assert choices in printed


@pytest.mark.parametrize("command", ["sweep", "focused"])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_refuses_workers_below_one_before_writing(
    tmp_path, monkeypatch, capsys, command, source, workers
):
    cfg = write_small_config(tmp_path)
    if command == "focused":
        # focused refuses the file's sizes and densities (its --n and
        # --density set them), so it reads the other two keys only.
        cfg.write_text("bits = 2..4\nhorizon = 40\n")
    out = tmp_path / "o"
    args = [command, "--config", str(cfg), "--out", str(out)]
    if source == "flag":
        args += ["--workers", workers]
    elif source == "config":
        cfg.write_text(cfg.read_text() + f"workers = {workers}\n")
    else:
        monkeypatch.setenv("INTSNN_WORKERS", workers)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert re.search(rf"workers.* must be >= 1, got {workers}", err), err
    assert not out.exists()


def test_cli_focused_outputs_identical_across_workers(tmp_path):
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main([
            "focused", "--out", str(out), "--n", "6", "--bits", "2..4",
            "--seeds", "3", "--horizon", "40", "--workers", workers,
        ]) == 0
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "focused_summary.csv" in outputs["1"]
    assert outputs["1"] == outputs["2"]


def test_cli_focused(tmp_path):
    out = tmp_path / "focused"
    args = [
        "focused", "--out", str(out), "--n", "6", "--density", "0.5",
        "--bits", "2,3", "--seeds", "3", "--horizon", "40",
    ]
    assert main(args) == 0
    assert (out / "focused_summary.csv").exists()
    records = read_records_csv(out / "records.csv")
    assert len(records) == 6
    assert {r.seed for r in records} == {0, 1, 2}
    assert main(["focused", "--out", str(tmp_path / "f1"), "--n", "6",
                 "--seeds", "1", "--horizon", "40"]) == 1


@pytest.mark.parametrize(
    "key, value, flag",
    [("sizes", "32", "--n"), ("densities", "0.2", "--density"),
     ("seeds_per_cell", "7", "--seeds")],
)
def test_cli_focused_refuses_grid_keys_its_flags_set(
    tmp_path, monkeypatch, capsys, key, value, flag
):
    # These keys used to be dropped without a word while `bits` was read.
    cfg = tmp_path / "focused.cfg"
    cfg.write_text(f"bits = 3\nhorizon = 40\n{key} = {value}\n")
    out = tmp_path / "o"
    monkeypatch.setattr(cli, "run_grid", lambda *a, **k: pytest.fail("ran a cell"))
    assert main(["focused", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config key {key} " in err and err.rstrip().endswith(flag), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize(
    "key, value, flag",
    [("sizes", "12", "--n"), ("densities", "0.2", "--density"),
     ("bits", "3", "--bits")],
)
def test_cli_cell_commands_refuse_grid_keys_their_flags_set(
    tmp_path, monkeypatch, capsys, command, key, value, flag
):
    # These keys used to be dropped without a word: the flags' defaults
    # (n=64, density 0.5, bits 8) ran instead.
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(f"horizon = 40\n{key} = {value}\n")
    out = tmp_path / "o"
    monkeypatch.setattr(cli, "build_network", lambda *a: pytest.fail("built"))
    args = [command, "--config", str(cfg), "--out", str(out)]
    if command == "oracle":
        args += ["--n", "2", "--bits", "3"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"config key {key} " in err and err.rstrip().endswith(flag), err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (("simulate", "--n", "0"), "--n must be >= 1, got 0"),
        (("simulate", "--density", "2"), "--density must lie in [0, 1], got 2.0"),
        (("simulate", "--bits", "65"), "--bits must lie in 1..64, got 65"),
        (("oracle", "--n", "0", "--bits", "2"), "--n must be >= 1, got 0"),
        (("oracle", "--n", "2", "--bits", "3", "--density", "-0.0"),
         "--density must lie in [0, 1], got -0.0"),
        (("oracle", "--n", "2", "--bits", "0"), "--bits must lie in 1..64, got 0"),
        (("focused", "--n", "0"), "--n must be >= 1, got 0"),
        (("focused", "--density", "2"), "--density must lie in [0, 1], got 2.0"),
        (("focused", "--bits", "0,4"), "--bits must lie in 1..64, got 0"),
        (("focused", "--bits", "4,4"), "--bits has duplicate values: [4, 4]"),
    ],
)
def test_cli_refusals_name_the_flag_the_user_typed(tmp_path, capsys, args, flag):
    out = tmp_path / "o"
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag}\n"
    assert not out.exists()


def test_cli_focused_names_bits_from_its_config_by_key(tmp_path, capsys):
    cfg = tmp_path / "focused.cfg"
    cfg.write_text("bits = 0\n")
    out = tmp_path / "o"
    assert main(["focused", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: bits must lie in 1..64, got 0\n"
    assert not out.exists()


def test_cli_focused_reads_bits_and_a_variant_preset_from_its_config(tmp_path):
    # The preset's densities are not the user's key, so the variant is
    # allowed; --density still sets the density, and the preset's leak_k
    # and the file's bits are read.
    cfg = tmp_path / "focused.cfg"
    cfg.write_text("bits = 3\nhorizon = 40\nvariant = variant-k8\n")
    out = tmp_path / "o"
    assert main(["focused", "--config", str(cfg), "--out", str(out),
                 "--n", "6", "--seeds", "2"]) == 0
    records = read_records_csv(out / "records.csv")
    assert [(r.n, r.density, r.bits, r.seed) for r in records] == [
        (6, 0.5, 3, 0), (6, 0.5, 3, 1)
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["leak_k"] == 8


def test_cli_oracle_pass_and_budget_refusal(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle", "--n", "1", "--bits", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    # wall times go to stderr only, never to stdout or oracle.json
    assert re.fullmatch(r"enumerate \d+\.\d\d s, replay \d+\.\d\d s\n", captured.err)
    assert "replay" not in captured.out
    assert "replay" not in (out / "oracle.json").read_text()
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["state_count"] == 4

    assert main(["oracle", "--n", "3", "--bits", "8"]) == 1
    captured = capsys.readouterr()
    assert "16777216" in captured.err

    # 2^64 states cannot be encoded at any budget
    assert main(["oracle", "--n", "8", "--bits", "8", "--budget", str(1 << 70)]) == 1
    captured = capsys.readouterr()
    assert "18446744073709551616" in captured.err
    assert "no budget" in captured.err


def test_cli_oracle_names_bad_grid_key(tmp_path, capsys):
    out = tmp_path / "oracle"
    args = ["oracle", "--n", "2", "--bits", "3", "--threshold-lo", "5",
            "--threshold-hi", "3", "--out", str(out)]
    assert main(args) == 1
    assert "threshold_lo 5 exceeds threshold_hi 3" in capsys.readouterr().err
    assert main(["oracle", "--n", "2", "--bits", "65"]) == 1
    assert "bits must lie in 1..64, got 65" in capsys.readouterr().err
    assert not out.exists()


def test_cli_report(tmp_path, capsys):
    src = tmp_path / "src"
    cfg = write_small_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(src)]) == 0
    capsys.readouterr()
    out = tmp_path / "rep"
    args = ["report", "--records", str(src / "records.csv"), "--count", "3",
            "--out", str(out)]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert "run_id" in printed
    top = read_records_csv(out / "top_recurrent.csv")
    assert len(top) == 3
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cli_report_refuses_count_below_one(tmp_path, capsys, count):
    src = tmp_path / "src"
    cfg = write_small_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(src)]) == 0
    capsys.readouterr()
    out = tmp_path / "rep"
    args = ["report", "--records", str(src / "records.csv"), "--count", count,
            "--out", str(out)]
    assert main(args) == 1
    assert f"count must be >= 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--weight-lo", str(1 << 63), "--weight-hi", str((1 << 63) + 2)),
         f"weight_hi must be <= 2^63 - 1, got {(1 << 63) + 2}"),
        (("--weight-lo", str(-(1 << 63) - 1)),
         f"weight_lo must be >= -2^63, got {-(1 << 63) - 1}"),
        (("--threshold-hi", str(1 << 70)),
         "threshold_hi - threshold_lo + 1 must be at most 2^64"),
        (("--horizon", str(1 << 63)),
         f"horizon must lie in 1..2^63 - 1, got {1 << 63}"),
    ],
)
def test_cli_sweep_refuses_unsampleable_ranges_before_writing(
    tmp_path, capsys, flags, message
):
    out = tmp_path / "o"
    assert main(sweep_args(out, flags)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_cell_rerun_matches_sweep_row(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_records_csv(out / "records.csv")
    probe = records[3]
    config = load_config(str(cfg))
    alone = run_cell(config.grid, probe.n, probe.density, probe.bits, probe.seed)
    assert alone == probe
    # `intsnn simulate` on the same cell prints that row's metrics.
    capsys.readouterr()
    # simulate takes the cell from its flags and refuses the grid keys.
    cfg.write_text("horizon = 40\n")
    assert main([
        "simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
        "--n", str(probe.n), "--density", str(probe.density),
        "--bits", str(probe.bits), "--seed", str(probe.seed), "--no-figures",
    ]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    cycle = probe.cycle
    assert line.endswith(
        f"rate={probe.mean_firing_rate:.4f} "
        f"active={probe.active_fraction:.4f} "
        f"rank={probe.pseudo_rank} cycle={cycle.status}"
        + (f" transient={cycle.transient} period={cycle.period}"
           if cycle.status == "detected" else "")
    )


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "intsnn", "oracle", "--n", "1", "--bits", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout
