"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line; `#` starts a
comment at the start of a line or after whitespace, so `out#1` is a
value.  The same format is echoed back as the run manifest (plus a
`version` line, which the parser accepts and ignores), so any manifest
can be replayed as a config.  The parser also ignores the keys of removed
knobs (the bisection l1-ball prox tolerance, the power-method iteration
count, the sweep process count), so manifests that carry them still
replay.  Other removed knobs replay only at the value runs now use:
`side_cm` at the presets' FOV, and `n_views`, `n_bins`, `arc` and
`blur_width` at 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import spectral
from .ct import FOV_CM, GEOMETRY_PRESETS


class ConfigError(ValueError):
    """Invalid configuration file, key, or value."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one solver run.

    `gamma` is either a number or the literal token "phantom-tv"
    (constraint set to the generated phantom's total variation).
    `geometry` names one of `ct.GEOMETRY_PRESETS`, which fixes the scan.
    """

    nx: int = 64
    geometry: str = "desk-full"
    problem: str = "lsq"
    beta: float = 0.0
    gamma: str = "phantom-tv"
    solver: str = "cppd"
    plan: str = "scalar"
    k_eigs: int = 1
    rho: float = 1.0
    alpha: float = 1.0
    k_max: int = 1000
    record_stride: int = 1
    seed: int = 7
    validate_prox: bool = False
    outdir: str = "results/run"
    cache_dir: str = "eigcache"

    def validate(self) -> "ExperimentConfig":
        floats = {f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"}
        if self.gamma != "phantom-tv":
            try:
                floats["gamma"] = float(self.gamma)
            except ValueError:
                raise ConfigError(
                    f"gamma must be a number or 'phantom-tv', got {self.gamma!r}"
                ) from None
        # NaN and infinity would slip past the range checks below
        for name, value in floats.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.nx < 1:
            raise ConfigError("nx must be >= 1")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.geometry not in GEOMETRY_PRESETS:
            raise ConfigError(
                f"unknown geometry {self.geometry!r}; choose from {', '.join(GEOMETRY_PRESETS)}"
            )
        if not self.rho > 0:
            raise ConfigError("rho must be positive")
        if self.problem not in ("lsq", "tvlsq", "tvclsq"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.solver not in ("cppd", "gd", "cgls"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.plan not in ("scalar", "diagonal", "lowrank"):
            raise ConfigError(f"unknown plan {self.plan!r}")
        if self.solver in ("gd", "cgls") and self.problem != "lsq":
            raise ConfigError(f"solver {self.solver!r} only handles the lsq problem")
        if self.problem in ("tvlsq", "tvclsq"):
            # row/column-sum steps need nonnegative entries, and D's are signed
            if self.plan == "diagonal":
                raise ConfigError("plan = diagonal serves only lsq: D has negative entries")
            if self.nx < 2:
                raise ConfigError("TV problems need nx >= 2: a one-pixel image has no gradient")
        # K pairs need K Lanczos steps: the cap is read here, not at import
        pixels, cap = self.nx * self.nx, spectral._MAX_STEPS
        if not 1 <= self.k_eigs <= min(pixels, cap):
            if pixels <= cap:
                raise ConfigError(f"k_eigs must be in [1, nx*nx = {pixels}]")
            raise ConfigError(f"k_eigs must be in [1, {cap}], the Lanczos step cap")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if self.problem == "tvclsq" and "gamma" in floats and not floats["gamma"] > 0:
            raise ConfigError("gamma must be positive")
        # an empty path would put the run's files in the working directory
        for name in ("outdir", "cache_dir"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must name a directory, got an empty value")
        # the manifest must replay this run
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" and _read_back(f.name, value) != value:
                raise ConfigError(
                    f"{f.name} = {value!r} cannot be written to a manifest and read "
                    "back: no line break, surrounding blanks, or '#' after a blank"
                )
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_IGNORED_KEYS = ("version", "l1_tol", "power_iters", "workers")
# removed knobs and the one value of each that replays: any other value
# would quietly replay as a different run
_RETIRED_KEYS = {"side_cm": FOV_CM, "n_views": 0, "n_bins": 0, "arc": 0, "blur_width": 0}


# a comment starts at a line's first `#` that opens it or follows a blank
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_pairs(pairs, base: ExperimentConfig | None) -> ExperimentConfig:
    """Apply (where, `key = value` text) pairs, in order, on top of a base
    config (or defaults); `where` prefixes each error."""
    cfg = base or ExperimentConfig()
    updates = {}
    for where, line in pairs:
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _IGNORED_KEYS:
            continue
        if key in _RETIRED_KEYS:
            fixed = _RETIRED_KEYS[key]
            try:
                replays = float(value) == fixed
            except ValueError:
                replays = False
            if not replays:
                raise ConfigError(
                    f"{where}: {key} is fixed at {fixed!r} since that knob "
                    f"was removed, got {value!r}"
                )
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            updates[key] = _PARSERS[_FIELD_TYPES[key]](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(
                f"{where}: cannot parse {value!r} as {_FIELD_TYPES[key]} for {key!r}"
            ) from None
    return replace(cfg, **updates)


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse `key = value` lines on top of a base config (or defaults)."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = _COMMENT.search(raw)
        line = (raw[: comment.start()] if comment else raw).strip()
        if line:
            pairs.append((f"line {lineno}", line))
    return _parse_pairs(pairs, base)


def _read_back(key: str, value: str) -> str | None:
    """The value a manifest line `key = value` parses back to; None when
    it does not parse."""
    try:
        return getattr(parse_config_text(f"{key} = {value}"), key)
    except ConfigError:
        return None


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, base)


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    """Apply --set key=value command-line overrides, each value verbatim:
    a `#` in it is not a comment, and a line break stays in the value."""
    return _parse_pairs([(f"--set {pair!r}", pair) for pair in pairs], cfg)


def config_to_text(cfg: ExperimentConfig, version: str | None = None) -> str:
    """Serialize in file format; with `version` set, emit a manifest."""
    lines = []
    if version is not None:
        lines.append(f"version = {version}")
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
