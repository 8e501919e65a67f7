"""Batch experiment harness.

Subcommands:

  run      generate inverse-crime data, run one solver, write artifacts
  sweep    run the same experiment over a list of rho or K values
  demo     closed-form dynamics and conjugate-transform demonstrations
  phantom  write the phantom, its gradient-magnitude image, and TV value
  eig      precompute (and cache) the low-rank plan: eigenpairs and sigma0

Each run writes `convergence.csv`, `final_image.raw`, `final_image.pgm`,
and a `manifest` that is itself a valid config reproducing the run.
Exit codes: 0 success, 1 configuration error (an nx too large for
memory included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    load_config,
)
from .ct import (
    FOV_CM,
    ImageGrid,
    Sinogram,
    build_geometry,
    fov_active,
    gradient,
    gradient_norm,
    projector,
)
from .fileio import (
    EIG_FORMAT,
    ensure_dir,
    geometry_digest,
    load_eigenset,
    save_eigenset,
    save_pgm,
    save_raw,
    save_sinogram,
    write_csv,
)
from .phantom import GRAY_WINDOWS, generate, gmi
from .prox import Grid1D, lf_transform_numeric
from .solver import ProblemSpec, run_cgls, run_cppd, run_gd_lsq
from .spectral import (
    EIG_ENGINE,
    EigenSet,
    StepPlan,
    leading_eigenpairs,
    diagonal_steps,
    lowrank_steps,
    scalar_steps,
    spectral_norm,
)
from . import spectral, toysaddle


@contextmanager
def _stage(name: str):
    """Tag any escaping error with the pipeline stage that failed, as an
    attribute: OSError's and numpy's out-of-memory messages ignore `args`."""
    try:
        yield
    except Exception as exc:
        exc.stage = name
        raise


def _describe(exc: Exception) -> str:
    """The error's message, led by the stage that raised it if known."""
    stage = getattr(exc, "stage", None)
    return f"[{stage}] {exc}" if stage else str(exc)


def build_grid(cfg: ExperimentConfig) -> ImageGrid:
    return ImageGrid(cfg.nx, cfg.nx, FOV_CM)


def assemble_problem(cfg: ExperimentConfig, grid, geom, phantom) -> ProblemSpec:
    """Inverse-crime problem: data generated by the reconstruction model."""
    x_map = projector(grid, geom)
    g = x_map(phantom.image)
    active = fov_active(grid)
    if cfg.problem == "lsq":
        return ProblemSpec("lsq", x_map, g, active=active)
    nu = spectral_norm(x_map, cfg.seed) / gradient_norm(grid)
    gamma = phantom.tv_value if cfg.gamma == "phantom-tv" else float(cfg.gamma)
    return ProblemSpec(
        cfg.problem, x_map, g, d_map=gradient(grid), beta=cfg.beta, gamma=gamma, nu=nu, active=active
    )


def _eig_cache_key(cfg: ExperimentConfig, grid, geom) -> bytes:
    """sha256 of everything that fixes the low-rank plan's operator A
    (the seed also fixes nu), the eigenpair engine and the file format."""
    key = "|".join(
        [
            geometry_digest(geom, grid).hex(),
            cfg.problem,
            f"K{cfg.k_eigs}",
            EIG_ENGINE,
            f"seed{cfg.seed}",
            EIG_FORMAT,
        ]
    )
    return hashlib.sha256(key.encode()).digest()


def _eig_cache_path(cfg: ExperimentConfig, grid, geom) -> Path:
    digest = _eig_cache_key(cfg, grid, geom).hex()[:20]
    return Path(cfg.cache_dir) / f"eig_{digest}_K{cfg.k_eigs}.bin"


def cached_eigenpairs(cfg: ExperimentConfig, grid, geom, a_map) -> tuple[EigenSet, float]:
    """The rho = 1 low-rank plan as (eigenpairs, sigma0): read from the
    cache when the file's key digest matches, else computed and stored."""
    path = _eig_cache_path(cfg, grid, geom)
    key = _eig_cache_key(cfg, grid, geom)
    if path.exists():
        eigs, sigma0, stored = load_eigenset(path)
        if stored == key:
            return eigs, sigma0
    try:
        eigs = leading_eigenpairs(a_map, cfg.k_eigs, seed=cfg.seed)
    except RuntimeError as exc:
        # the Lanczos step cap: more pairs need more steps
        raise RuntimeError(f"{exc}: lower k_eigs (now {cfg.k_eigs})") from exc
    sigma0 = lowrank_steps(a_map, eigs, seed=cfg.seed).sigma
    ensure_dir(path.parent)
    save_eigenset(path, eigs, sigma0, key)
    return eigs, sigma0


def build_plan(cfg: ExperimentConfig, problem: ProblemSpec, grid, geom):
    """The configured step plan, built at rho = 1 and scaled by cfg.rho."""
    a_map = problem.operator()
    if cfg.plan == "scalar":
        plan = scalar_steps(spectral_norm(a_map, cfg.seed))
    elif cfg.plan == "diagonal":
        plan = diagonal_steps(a_map)
    else:
        eigs, sigma0 = cached_eigenpairs(cfg, grid, geom, a_map)
        # looked up on the module at call time, like lowrank_steps does,
        # so a wrapper installed on pdtomo.spectral sees every T
        plan = StepPlan(sigma0, spectral.build_lowrank_T(eigs))
    return plan.scaled(cfg.rho)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline for one configuration; returns summary metrics."""
    cfg.validate()
    grid = build_grid(cfg)
    geom = build_geometry(cfg.geometry)

    with _stage("phantom"):
        ph = generate(grid, cfg.seed)
    with _stage("data"):
        problem = assemble_problem(cfg, grid, geom, ph)
    with _stage("plan"):
        if cfg.solver == "cppd":
            plan = build_plan(cfg, problem, grid, geom)
        elif cfg.solver == "gd":
            L = spectral_norm(problem.x_map, cfg.seed)
    with _stage("solve"):
        if cfg.solver == "cppd":
            state, record = run_cppd(
                problem,
                plan,
                cfg.k_max,
                reference=ph.image,
                record_stride=cfg.record_stride,
                validate_prox=cfg.validate_prox,
            )
        elif cfg.solver == "gd":
            state, record = run_gd_lsq(
                problem,
                cfg.alpha,
                cfg.k_max,
                reference=ph.image,
                L=L,
                record_stride=cfg.record_stride,
            )
        else:
            state, record = run_cgls(
                problem.x_map,
                problem.g,
                cfg.k_max,
                reference=ph.image,
                active=problem.active,
                record_stride=cfg.record_stride,
            )
    # the directory is made only once there is something to write, so a
    # failed run leaves none behind
    with _stage("write"):
        outdir = ensure_dir(cfg.outdir)
        record.to_csv(outdir / "convergence.csv")
        save_raw(outdir / "final_image.raw", state.x)
        save_pgm(
            outdir / "final_image.pgm",
            state.x,
            (grid.ny, grid.nx),
            GRAY_WINDOWS["tissue"],
        )
        save_sinogram(outdir / "data.sng", Sinogram(problem.g, geom), grid)
        (outdir / "manifest").write_text(config_to_text(cfg, version=__version__))
    return {
        "outdir": str(outdir),
        "final_image_rmse": record.image_rmse[-1],
        "final_r_sigma": record.r_sigma[-1],
        "final_r_tau": record.r_tau[-1],
        "iterations": record.iters[-1],
    }


_SWEEP_FIELDS = {"rho": ("rho", float), "K": ("k_eigs", int)}


def sweep(cfg: ExperimentConfig, parameter: str, values: list) -> Path:
    """Run one experiment per value; a failed value is recorded, not
    fatal, but a ConfigError that every value's config raises is."""
    if parameter not in _SWEEP_FIELDS:
        raise ConfigError(f"sweep parameter must be one of {sorted(_SWEEP_FIELDS)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name, cast = _SWEEP_FIELDS[parameter]
    parsed = []
    for raw in values:
        try:
            parsed.append(cast(raw))
        except ValueError:
            raise ConfigError(
                f"cannot parse sweep value {raw!r} as {cast.__name__} for {parameter}"
            ) from None
    # a repeated value would run one experiment twice into one directory
    for i, value in enumerate(parsed):
        if value in parsed[:i]:
            raise ConfigError(f"sweep value {values[i]!r} repeats {parameter} = {value}")
    # rho only reaches a cppd step plan and K only its low-rank plan;
    # elsewhere every value would run the same experiment
    if cfg.solver != "cppd" or (parameter == "K" and cfg.plan != "lowrank"):
        need = "solver = cppd" + (" and plan = lowrank" if parameter == "K" else "")
        raise ConfigError(f"a {parameter} sweep needs {need}")
    parent = Path(cfg.outdir)
    runs = [
        (value, replace(cfg, **{field_name: value}, outdir=str(parent / f"{parameter}_{value}")))
        for value in parsed
    ]
    # a value whose config is invalid is a failed row, but a config error
    # that no swept value fixes ends the sweep before anything is written
    errors = []
    for _, sub in runs:
        try:
            sub.validate()
        except ConfigError as exc:
            errors.append(exc)
    if len(errors) == len(runs):
        raise errors[0]
    ensure_dir(parent)

    columns = ("final_image_rmse", "final_r_sigma", "final_r_tau")
    rows = []
    # a low-rank rho sweep computes its plan on the first value and
    # reads it from the eigcache on the others
    for value, sub in runs:
        try:
            res = run_experiment(sub)
            status = "ok"
        except Exception as exc:
            print(f"sweep {parameter}={value} failed: {_describe(exc)}", file=sys.stderr)
            res = dict.fromkeys(columns, np.nan)
            status = type(exc).__name__
        rows.append([value] + [res[key] for key in columns] + [status])

    summary = parent / "summary.csv"
    write_csv(summary, ("value",) + columns + ("status",), rows)
    return summary


def _trajectory_csvs(out: Path, **trajs) -> list[Path]:
    """Write each keyword's trajectory to `<keyword>.csv` under `out`."""
    written = []
    for stem, traj in trajs.items():
        rows = [
            [k, float(np.ravel(x)[0]), float(np.ravel(lam)[0]), float(traj.radii[k])]
            for k, (x, lam) in enumerate(traj.points)
        ]
        written.append(write_csv(out / f"{stem}.csv", ("iter", "x", "lambda", "radius"), rows))
    return written


def _demo_cppd1d(out: Path) -> list[Path]:
    """Final magnitudes of the 1D quadratic iteration over a sigma grid."""
    sigmas = toysaddle.log_sigma_grid()
    written = []
    for a in (0.01, 0.1, 1.0):
        mags = toysaddle.sigma_sweep(a, sigmas, k_max=100)
        path = out / f"cppd1d_a{a}.csv"
        written.append(write_csv(path, ("sigma", "final_magnitude"), zip(sigmas, mags)))
    return written


def _demo_perfect_pc(out: Path) -> list[Path]:
    """The perfectly preconditioned iteration at three step ratios."""
    rows = []
    for rho in (0.01, 1.0, 100.0):
        traj = toysaddle.perfect_preconditioning([[1.5]], rho, [0.8], [-0.3])
        for k, (u, lam) in enumerate(traj.points):
            rows.append([rho, k, float(u[0]), float(lam[0]), float(traj.radii[k])])
    return [write_csv(out / "perfect_pc.csv", ("rho", "iter", "u", "lambda", "radius"), rows)]


def _demo_lf_oracle(out: Path) -> list[Path]:
    """Numeric conjugates of the four canonical 1D examples."""
    x = np.linspace(-5.0, 5.0, 2001)
    m = np.linspace(-4.0, 4.0, 1601)
    inf = np.inf
    cases = {
        "lf_quadratic": (0.5 * 2.0 * x**2, 0.5 * m**2 / 2.0),
        "lf_abs": (1.0 * np.abs(x), np.where(np.abs(m) <= 1.0, 0.0, inf)),
        "lf_linear": (1.5 * x + 0.7, np.where(np.isclose(m, 1.5), -0.7, inf)),
        "lf_interval": (np.where(np.abs(x) <= 2.0, 0.0, inf), 2.0 * np.abs(m)),
    }
    written = []
    for name, (fx, analytic) in cases.items():
        numeric = lf_transform_numeric(Grid1D(x, fx), m).values
        rows = zip(m, numeric, analytic)
        written.append(write_csv(out / f"{name}.csv", ("m", "numeric", "analytic"), rows))
    return written


# demo name -> writer of its CSV artifacts into an existing directory
DEMOS = {
    "fe-s0": lambda out: _trajectory_csvs(
        out, fe_s0=toysaddle.forward_euler_s0(1.0, 0.0, 1.0, 12)
    ),
    "fe-s1": lambda out: _trajectory_csvs(
        out, fe_s1=toysaddle.forward_euler_s1(1.0, 0.5, 0.25, 12)
    ),
    "be": lambda out: _trajectory_csvs(
        out, be=toysaddle.backward_euler([[1.0]], 1.0, [1.0], [0.0], 12)
    ),
    "abe": lambda out: _trajectory_csvs(
        out,
        abe_twostep=toysaddle.abe_s0(1.3, -0.4, theta=1.0, a=1.0, sigma=0.7, k_max=4),
        abe_periodic=toysaddle.abe_s0(1.0, 0.0, theta=0.0, a=1.0, sigma=0.7, k_max=13),
    ),
    "cppd1d": _demo_cppd1d,
    "perfect-pc": _demo_perfect_pc,
    "lf-oracle": _demo_lf_oracle,
}


def demo(name: str, outdir) -> list[Path]:
    """Write the CSV artifacts of one named demonstration."""
    if name not in DEMOS:
        raise ConfigError(f"unknown demo {name!r}; choose from {', '.join(DEMOS)}")
    return DEMOS[name](ensure_dir(outdir))


def write_phantom(cfg: ExperimentConfig) -> dict:
    cfg.validate()
    grid = build_grid(cfg)
    with _stage("phantom"):
        ph = generate(grid, cfg.seed)
        grad_img = gmi(ph)
    with _stage("write"):
        out = ensure_dir(cfg.outdir)
        shape = (grid.ny, grid.nx)
        save_raw(out / "phantom.raw", ph.image)
        save_pgm(out / "phantom.pgm", ph.image, shape, GRAY_WINDOWS["tissue"])
        save_pgm(out / "phantom_narrow.pgm", ph.image, shape, GRAY_WINDOWS["narrow"])
        save_raw(out / "gmi.raw", grad_img)
        top = float(grad_img.max())
        save_pgm(out / "gmi.pgm", grad_img, shape, (0.0, top if top > 0 else 1.0))
    return {
        "tv": ph.tv_value,
        "nonzero": int(np.count_nonzero(ph.image)),
        "outdir": str(out),
    }


def compute_eigenpairs(cfg: ExperimentConfig) -> dict:
    cfg.validate()
    grid = build_grid(cfg)
    geom = build_geometry(cfg.geometry)
    with _stage("phantom"):
        ph = generate(grid, cfg.seed)
    with _stage("data"):
        problem = assemble_problem(cfg, grid, geom, ph)
    with _stage("plan"):
        eigs, sigma0 = cached_eigenpairs(cfg, grid, geom, problem.operator())
    return {
        "path": str(_eig_cache_path(cfg, grid, geom)),
        "values": [float(v) for v in eigs.values],
        "sigma0": sigma0,
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_cfg(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.outdir:
        cfg = replace(cfg, outdir=args.outdir)
    return cfg


def _add_common(p):
    p.add_argument("-c", "--config", help="flat key=value config file")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p.add_argument("-o", "--outdir", help="output directory (overrides config)")


def main(argv=None) -> int:
    parser = _Parser(prog="pdtomo", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment per parameter value")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=sorted(_SWEEP_FIELDS))
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )

    p_demo = sub.add_parser("demo", help="closed-form dynamics demonstrations")
    p_demo.add_argument("name", choices=DEMOS)
    p_demo.add_argument("-o", "--outdir", default="results/demo")

    p_ph = sub.add_parser("phantom", help="write phantom images and TV value")
    _add_common(p_ph)

    p_eig = sub.add_parser("eig", help="precompute and cache the low-rank plan")
    _add_common(p_eig)

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            res = run_experiment(_load_cfg(args))
            print(
                f"done: {res['iterations']} iterations, "
                f"final image RMSE {res['final_image_rmse']:.6e} -> {res['outdir']}"
            )
        elif args.command == "sweep":
            values = [v for v in args.values.split(",") if v]
            path = sweep(_load_cfg(args), args.param, values)
            print(f"sweep summary -> {path}")
        elif args.command == "demo":
            for path in demo(args.name, args.outdir):
                print(f"wrote {path}")
        elif args.command == "phantom":
            res = write_phantom(_load_cfg(args))
            print(
                f"phantom TV {res['tv']:.6f}, {res['nonzero']} nonzero pixels "
                f"-> {res['outdir']}"
            )
        elif args.command == "eig":
            res = compute_eigenpairs(_load_cfg(args))
            vals = ", ".join(f"{v:.6e}" for v in res["values"])
            print(f"eigenvalues [{vals}], sigma0 {res['sigma0']!r} cached at {res['path']}")
    except ConfigError as exc:
        print(f"config error: {_describe(exc)}", file=sys.stderr)
        return 1
    # an I/O error, such as an output or cache path that cannot be
    # created or written; for a path error the message names the path
    except OSError as exc:
        print(f"file error: {_describe(exc)}", file=sys.stderr)
        return 1
    # numpy refuses a huge grid's arrays at once, before allocating them
    except MemoryError as exc:
        print(f"config error: out of memory, reduce nx ({_describe(exc)})", file=sys.stderr)
        return 1
    # ConfigError, a ValueError, is caught above; DivergenceError is a
    # RuntimeError and LinAlgError a ValueError
    except (FloatingPointError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {_describe(exc)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
