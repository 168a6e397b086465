"""Flat key=value run configuration.

Format: one `key = value` per line, `#` starts a comment, blank lines
are ignored. List values are comma separated; numeric lists also accept
`start..end:step` ranges (step defaults to 1), endpoint inclusive.
Precedence, lowest to highest: built-in defaults, variant preset,
config file, command-line flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sweep import VARIANT_PRESETS, SweepGrid

# The most values one `start..end:step` range may expand to; a larger
# range is refused before it is expanded, so a typo cannot take all of
# memory.
MAX_RANGE_VALUES = 1 << 16


def parse_int(text: str) -> int:
    return int(text, 0)


def parse_float(text: str) -> float:
    return float(text)


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_int_list(text: str) -> list[int]:
    return _parse_list(text, parse_int, _int_range)


def parse_float_list(text: str) -> list[float]:
    return _parse_list(text, parse_float, _float_range)


def _parse_list(text: str, parse, expand) -> list:
    """Comma-separated values; a part holding `..` is a range that
    `expand` turns into values, any other nonblank part goes to `parse`."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            out.extend(expand(part))
        elif part:
            out.append(parse(part))
    if not out:
        raise ValueError(f"empty list: {text!r}")
    return out


def _split_range(part: str) -> tuple[str, str, str | None]:
    span, _, step = part.partition(":")
    start, sep, end = span.partition("..")
    if not sep or not start or not end:
        raise ValueError(f"malformed range {part!r}; expected start..end[:step]")
    return start, end, step or None


def _check_span(part: str, last) -> None:
    """Refuse a range whose last value index, `last`, is not finite or
    leaves it more than MAX_RANGE_VALUES values."""
    if not last < MAX_RANGE_VALUES:
        raise ValueError(
            f"range {part!r} must hold a finite count of at most "
            f"{MAX_RANGE_VALUES} values"
        )


def _int_range(part: str) -> list[int]:
    start_s, end_s, step_s = _split_range(part)
    start, end = parse_int(start_s), parse_int(end_s)
    step = parse_int(step_s) if step_s else 1
    if step < 1:
        raise ValueError(f"range step must be positive in {part!r}")
    if end < start:
        raise ValueError(f"descending range {part!r}")
    _check_span(part, (end - start) // step)
    return list(range(start, end + 1, step))


def _float_range(part: str) -> list[float]:
    start_s, end_s, step_s = _split_range(part)
    start, end = parse_float(start_s), parse_float(end_s)
    step = parse_float(step_s) if step_s else 1.0
    if step <= 0:
        raise ValueError(f"range step must be positive in {part!r}")
    if end < start:
        raise ValueError(f"descending range {part!r}")
    # Counted first, so nan or infinite ends and tiny steps never expand;
    # the check per value bounds what rounding near huge ends could add.
    _check_span(part, (end - start) / step)
    out = []
    while (value := round(start + len(out) * step, 12)) <= end + 1e-9:
        out.append(value)
        _check_span(part, len(out) - 1)
    return out


@dataclass
class RunConfig:
    """A sweep grid plus harness plumbing."""

    grid: SweepGrid = field(default_factory=SweepGrid)
    output_dir: str = "out"
    workers: int | None = None
    figures: bool = True
    variant: str | None = None


# key -> (parser, owner, attribute, slot): the value lands on
# `config.<owner>` ("grid") or on the config itself (None), at `slot` of
# the (lo, hi) pair when the attribute is a range.
_SCHEMA = {
    "sizes": (parse_int_list, "grid", "sizes", None),
    "densities": (parse_float_list, "grid", "densities", None),
    "bits": (parse_int_list, "grid", "bit_widths", None),
    "horizon": (parse_int, "grid", "horizon", None),
    "threshold_lo": (parse_int, "grid", "threshold_range", 0),
    "threshold_hi": (parse_int, "grid", "threshold_range", 1),
    "leak_k": (parse_int, "grid", "leak_k", None),
    "seeds_per_cell": (parse_int, "grid", "seeds_per_cell", None),
    "master_seed": (parse_int, "grid", "master_seed", None),
    "weight_lo": (parse_int, "grid", "weight_range", 0),
    "weight_hi": (parse_int, "grid", "weight_range", 1),
    "signedness": (str, "grid", "signedness", None),
    "overflow_mode": (str, "grid", "overflow_mode", None),
    "reset_mode": (str, "grid", "reset_mode", None),
    "output_dir": (str, None, "output_dir", None),
    "workers": (parse_int, None, "workers", None),
    "figures": (parse_bool, None, "figures", None),
    "variant": (str, None, "variant", None),
}


def parse_config_text(text: str) -> dict[str, object]:
    """Typed values keyed by schema name; rejects unknown and repeated keys."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected key=value, got {raw_line!r}")
        if key not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"line {lineno}: {key} given again, first on line {first}")
        try:
            values[key] = _SCHEMA[key][0](raw_value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


def _apply(config: RunConfig, values: dict[str, object]) -> None:
    for key, value in values.items():
        _, owner, attr, slot = _SCHEMA[key]
        target = getattr(config, owner) if owner else config
        if slot is not None:
            pair = list(getattr(target, attr))
            pair[slot] = value
            value = tuple(pair)
        setattr(target, attr, value)


def build_config(
    file_text: str | None = None,
    overrides: dict[str, object] | None = None,
    flag_only: dict[str, str] | None = None,
) -> RunConfig:
    """Defaults, then variant preset, then file values, then overrides.
    A file key in `flag_only` (key -> flag) is refused, naming the flag
    that sets it instead."""
    file_values = parse_config_text(file_text) if file_text else {}
    flag_only = flag_only or {}
    for key in file_values:
        if key in flag_only:
            raise ValueError(
                f"config key {key} is not read here; set it with {flag_only[key]}"
            )
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    for key in overrides:
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
    values = {**file_values, **overrides}
    variant = values.get("variant")
    if variant is not None and variant not in VARIANT_PRESETS:
        known = ", ".join(sorted(VARIANT_PRESETS))
        raise ValueError(f"unknown variant {variant!r} (known: {known})")
    config = RunConfig()
    # Preset keys are config keys, applied below the file and flags.
    _apply(config, {**VARIANT_PRESETS.get(variant, {}), **values})
    return config


def load_config(
    path: str | None,
    overrides: dict[str, object] | None = None,
    flag_only: dict[str, str] | None = None,
) -> RunConfig:
    text = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return build_config(text, overrides, flag_only)
