"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, `#` comments;
the same format is echoed back as the run manifest (plus a `version`
line, which the parser accepts and ignores), so any manifest can be
replayed as a config.  The parser also ignores the keys of removed
knobs (the bisection l1-ball prox tolerance, the power-method iteration
count), so manifests that carry them still replay.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path


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
    positive.  `blur_width` > 0 smooths low-rank eigenvectors with a
    Gaussian of that pixel width.
    """

    nx: int = 64
    side_cm: float = 18.0
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
    workers: int = 1
    outdir: str = "results/run"
    cache_dir: str = "eigcache"

    def validate(self) -> "ExperimentConfig":
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")
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
        if self.plan == "diagonal" and self.problem == "tvclsq":
            raise ConfigError(
                "diagonal steps give a per-component dual step, but the "
                "tvclsq dual prox needs a scalar sigma"
            )
        if self.problem in ("tvlsq", "tvclsq") and self.nx < 2:
            raise ConfigError("TV problems need nx >= 2: a one-pixel image has no gradient")
        if not 1 <= self.k_eigs <= self.nx * self.nx:
            raise ConfigError(f"k_eigs must be in [1, nx*nx = {self.nx * self.nx}]")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if self.blur_width < 0:
            raise ConfigError("blur_width must be nonnegative")
        if self.gamma != "phantom-tv":
            try:
                value = float(self.gamma)
            except ValueError:
                raise ConfigError(
                    f"gamma must be a number or 'phantom-tv', got {self.gamma!r}"
                ) from None
            if self.problem == "tvclsq" and not value > 0:
                raise ConfigError("gamma must be positive")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_IGNORED_KEYS = ("version", "l1_tol", "power_iters")


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
