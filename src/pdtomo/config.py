"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, `#` comments;
the same format is echoed back as the run manifest (plus a `version`
line, which the parser accepts and ignores), so any manifest can be
replayed as a config.  The parser also ignores the keys of removed
knobs (the bisection l1-ball prox tolerance, the power-method iteration
count, the sweep process count), so manifests that carry them still
replay.  The image grid is fixed at the presets' field of view, so a
`side_cm` line replays only at that value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .ct import FOV_CM


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
    `n_views`, `n_bins`, `arc` override the geometry preset when
    positive; 0 keeps the preset's value.  `blur_width` > 0 smooths
    low-rank eigenvectors with a Gaussian of that pixel width.
    """

    nx: int = 64
    geometry: str = "desk-full"
    n_views: int = 0
    n_bins: int = 0
    arc: float = 0.0
    problem: str = "lsq"
    beta: float = 0.0
    gamma: str = "phantom-tv"
    solver: str = "cppd"
    plan: str = "scalar"
    k_eigs: int = 1
    blur_width: float = 0.0
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
        # NaN fails these tests too; 0 keeps the preset's value
        for name in ("n_views", "n_bins", "arc"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be nonnegative (0 uses the preset)")
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
        if not 1 <= self.k_eigs <= self.nx * self.nx:
            raise ConfigError(f"k_eigs must be in [1, nx*nx = {self.nx * self.nx}]")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if not 0 <= self.blur_width <= self.nx:
            raise ConfigError(f"blur_width must be in [0, nx = {self.nx}] pixels")
        if self.problem == "tvclsq" and "gamma" in floats and not floats["gamma"] > 0:
            raise ConfigError("gamma must be positive")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_IGNORED_KEYS = ("version", "l1_tol", "power_iters", "workers")


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse `key = value` lines on top of a base config (or defaults)."""
    cfg = base or ExperimentConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _IGNORED_KEYS:
            continue
        if key == "side_cm":
            # a manifest written at another grid size would quietly
            # replay as a different run
            try:
                replays = float(value) == FOV_CM
            except ValueError:
                replays = False
            if not replays:
                raise ConfigError(
                    f"line {lineno}: side_cm is fixed at {FOV_CM!r} cm, the presets' "
                    f"field of view, got {value!r}"
                )
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _PARSERS[_FIELD_TYPES[key]](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {value!r} as {_FIELD_TYPES[key]} for {key!r}"
            ) from None
    return replace(cfg, **updates)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, base)


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    """Apply --set key=value command-line overrides."""
    return parse_config_text("\n".join(pairs), cfg)


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
