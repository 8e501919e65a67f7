"""Batch experiment harness.

Subcommands:

  run      generate inverse-crime data, run one solver, write artifacts
  sweep    run the same experiment over a list of rho or K values
  demo     closed-form dynamics and conjugate-transform demonstrations
  phantom  write the phantom, its gradient-magnitude image, and TV value
  eig      precompute (and cache) leading eigenpairs for the operator

Each run writes `convergence.csv`, `final_image.raw`, `final_image.pgm`,
and a `manifest` that is itself a valid config reproducing the run.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
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
    FanBeamGeometry,
    ImageGrid,
    Sinogram,
    build_geometry,
    fov_active,
    gaussian_smooth,
    gradient,
    gradient_norm,
    projector,
)
from .fileio import (
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
    leading_eigenpairs,
    diagonal_steps,
    lowrank_steps,
    scalar_steps,
    smooth_eigenset,
    spectral_norm,
)
from . import toysaddle


@contextmanager
def _stage(name: str):
    """Prefix any escaping error with the pipeline stage that failed."""
    try:
        yield
    except Exception as exc:
        head = str(exc.args[0]) if exc.args else ""
        exc.args = (f"[{name}] {head}",) + tuple(exc.args[1:])
        raise


def build_grid(cfg: ExperimentConfig) -> ImageGrid:
    try:
        return ImageGrid(cfg.nx, cfg.nx, cfg.side_cm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_geom(cfg: ExperimentConfig) -> FanBeamGeometry:
    overrides = {}
    if cfg.n_views > 0:
        overrides["n_views"] = cfg.n_views
    if cfg.n_bins > 0:
        overrides["n_bins"] = cfg.n_bins
    if cfg.arc > 0:
        overrides["arc_length"] = cfg.arc
    try:
        return build_geometry(cfg.geometry, **overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _resolve_gamma(cfg: ExperimentConfig, phantom_tv: float) -> float:
    if cfg.gamma == "phantom-tv":
        return phantom_tv
    return float(cfg.gamma)


def assemble_problem(cfg: ExperimentConfig, grid, geom, phantom) -> ProblemSpec:
    """Inverse-crime problem: data generated by the reconstruction model."""
    x_map = projector(grid, geom)
    g = x_map(phantom.image)
    active = fov_active(grid)
    if cfg.problem == "lsq":
        return ProblemSpec("lsq", x_map, g, active=active)
    d_map = gradient(grid)
    nu = spectral_norm(x_map, cfg.seed) / gradient_norm(grid)
    if cfg.problem == "tvlsq":
        return ProblemSpec(
            "tvlsq", x_map, g, d_map=d_map, beta=cfg.beta, nu=nu, active=active
        )
    return ProblemSpec(
        "tvclsq",
        x_map,
        g,
        d_map=d_map,
        gamma=_resolve_gamma(cfg, phantom.tv_value),
        nu=nu,
        active=active,
    )


def _eig_cache_path(cfg: ExperimentConfig, grid, geom) -> Path:
    key = "|".join(
        [
            geometry_digest(geom, grid).hex(),
            cfg.problem,
            f"K{cfg.k_eigs}",
            f"blur{cfg.blur_width!r}",
            EIG_ENGINE,
            f"seed{cfg.seed}",
        ]
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    return Path(cfg.cache_dir) / f"eig_{digest}_K{cfg.k_eigs}_w{cfg.blur_width}.bin"


def cached_eigenpairs(cfg: ExperimentConfig, grid, geom, a_map) -> EigenSet:
    """Load eigenpairs from the cache, or compute (and store) them."""
    path = _eig_cache_path(cfg, grid, geom)
    if path.exists():
        eigs = load_eigenset(path)
        if eigs.n == a_map.domain_dim and eigs.k == cfg.k_eigs:
            return eigs
    eigs = leading_eigenpairs(a_map, cfg.k_eigs, seed=cfg.seed)
    if cfg.blur_width > 0:
        eigs = smooth_eigenset(eigs, gaussian_smooth(grid, cfg.blur_width))
    ensure_dir(path.parent)
    save_eigenset(path, eigs)
    return eigs


def build_plan(cfg: ExperimentConfig, problem: ProblemSpec, grid, geom):
    """The configured step plan, built at rho = 1 and scaled by cfg.rho."""
    a_map = problem.operator()
    if cfg.plan == "scalar":
        plan = scalar_steps(spectral_norm(a_map, cfg.seed))
    elif cfg.plan == "diagonal":
        plan = diagonal_steps(a_map)
    else:
        eigs = cached_eigenpairs(cfg, grid, geom, a_map)
        plan = lowrank_steps(a_map, eigs, seed=cfg.seed)
    return plan.scaled(cfg.rho)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline for one configuration; returns summary metrics."""
    cfg.validate()
    outdir = ensure_dir(cfg.outdir)
    grid = build_grid(cfg)
    geom = build_geom(cfg)

    with _stage("phantom"):
        ph = generate(grid, cfg.seed)
    with _stage("data"):
        problem = assemble_problem(cfg, grid, geom, ph)
    with _stage("plan"):
        if cfg.solver == "cppd":
            plan = build_plan(cfg, problem, grid, geom)
        else:
            plan = None
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
            L = spectral_norm(problem.x_map, cfg.seed)
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
    with _stage("write"):
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


def _sweep_one(cfg: ExperimentConfig) -> dict:
    """Pool entry point, pickled by name: it stays picklable when
    `run_experiment` is wrapped (by a profiler, say)."""
    return run_experiment(cfg)


def sweep(cfg: ExperimentConfig, parameter: str, values: list) -> Path:
    """Run one experiment per value; failures are recorded, not fatal."""
    if parameter not in _SWEEP_FIELDS:
        raise ConfigError(f"sweep parameter must be one of {sorted(_SWEEP_FIELDS)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name, cast = _SWEEP_FIELDS[parameter]
    parent = ensure_dir(cfg.outdir)
    runs = []
    for raw in values:
        try:
            value = cast(raw)
        except ValueError:
            raise ConfigError(
                f"cannot parse sweep value {raw!r} as {cast.__name__} for {parameter}"
            ) from None
        sub = replace(
            cfg,
            **{field_name: value},
            outdir=str(parent / f"{parameter}_{value}"),
        )
        runs.append((value, sub))

    columns = ("final_image_rmse", "final_r_sigma", "final_r_tau")
    rows = []
    pool_cm = ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else nullcontext()
    with pool_cm as pool:
        # with a pool every run is submitted up front and each job is a
        # future; serially a job is the config, run when its turn comes
        jobs = [pool.submit(_sweep_one, sub) if pool else sub for _, sub in runs]
        for (value, _), job in zip(runs, jobs):
            try:
                res = job.result() if pool else run_experiment(job)
            except Exception as exc:
                print(f"sweep {parameter}={value} failed: {exc}", file=sys.stderr)
                res = dict.fromkeys(columns, np.nan)
            rows.append([value] + [res[key] for key in columns])

    summary = parent / "summary.csv"
    write_csv(summary, ("value",) + columns, rows)
    return summary


def _write_trajectory_csv(path, traj):
    rows = [
        [k, float(np.ravel(x)[0]), float(np.ravel(lam)[0]), float(traj.radii[k])]
        for k, (x, lam) in enumerate(traj.points)
    ]
    write_csv(path, ("iter", "x", "lambda", "radius"), rows)


def _demo_lf_oracle(outdir: Path):
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
    for name, (fx, analytic) in cases.items():
        numeric = lf_transform_numeric(Grid1D(x, fx), m).values
        rows = zip(m, numeric, analytic)
        write_csv(outdir / f"{name}.csv", ("m", "numeric", "analytic"), rows)


def demo(name: str, outdir) -> list[Path]:
    """Write the CSV artifacts of one named demonstration."""
    out = ensure_dir(outdir)
    written: list[Path] = []

    def emit(fname, traj):
        path = out / fname
        _write_trajectory_csv(path, traj)
        written.append(path)

    if name == "fe-s0":
        emit("fe_s0.csv", toysaddle.forward_euler_s0(1.0, 0.0, 1.0, 12))
    elif name == "fe-s1":
        emit("fe_s1.csv", toysaddle.forward_euler_s1(1.0, 0.5, 0.25, 12))
    elif name == "be":
        emit("be.csv", toysaddle.backward_euler([[1.0]], 1.0, [1.0], [0.0], 12))
    elif name == "abe":
        emit(
            "abe_twostep.csv",
            toysaddle.abe_s0(1.3, -0.4, theta=1.0, a=1.0, sigma=0.7, k_max=4),
        )
        emit(
            "abe_periodic.csv",
            toysaddle.abe_s0(1.0, 0.0, theta=0.0, a=1.0, sigma=0.7, k_max=13),
        )
    elif name == "cppd1d":
        sigmas = toysaddle.log_sigma_grid()
        for a in (0.01, 0.1, 1.0):
            mags = toysaddle.sigma_sweep(a, sigmas, k_max=100)
            path = out / f"cppd1d_a{a}.csv"
            write_csv(path, ("sigma", "final_magnitude"), zip(sigmas, mags))
            written.append(path)
    elif name == "perfect-pc":
        path = out / "perfect_pc.csv"
        rows = []
        for rho in (0.01, 1.0, 100.0):
            traj = toysaddle.perfect_preconditioning([[1.5]], rho, [0.8], [-0.3])
            for k, (u, lam) in enumerate(traj.points):
                rows.append([rho, k, float(u[0]), float(lam[0]), float(traj.radii[k])])
        write_csv(path, ("rho", "iter", "u", "lambda", "radius"), rows)
        written.append(path)
    elif name == "lf-oracle":
        _demo_lf_oracle(out)
        written += sorted(out.glob("lf_*.csv"))
    else:
        raise ConfigError(
            "unknown demo; choose from fe-s0, fe-s1, be, abe, cppd1d, perfect-pc, lf-oracle"
        )
    return written


def write_phantom(cfg: ExperimentConfig) -> dict:
    cfg.validate()
    out = ensure_dir(cfg.outdir)
    grid = build_grid(cfg)
    ph = generate(grid, cfg.seed)
    shape = (grid.ny, grid.nx)
    save_raw(out / "phantom.raw", ph.image)
    save_pgm(out / "phantom.pgm", ph.image, shape, GRAY_WINDOWS["tissue"])
    save_pgm(out / "phantom_narrow.pgm", ph.image, shape, GRAY_WINDOWS["narrow"])
    grad_img = gmi(ph)
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
    geom = build_geom(cfg)
    ph = generate(grid, cfg.seed)
    problem = assemble_problem(cfg, grid, geom, ph)
    eigs = cached_eigenpairs(cfg, grid, geom, problem.operator())
    return {
        "path": str(_eig_cache_path(cfg, grid, geom)),
        "values": [float(v) for v in eigs.values],
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
    p_demo.add_argument("name")
    p_demo.add_argument("-o", "--outdir", default="results/demo")

    p_ph = sub.add_parser("phantom", help="write phantom images and TV value")
    _add_common(p_ph)

    p_eig = sub.add_parser("eig", help="precompute and cache eigenpairs")
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
            print(f"eigenvalues [{vals}] cached at {res['path']}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # ConfigError, a ValueError, is caught above; DivergenceError is a
    # RuntimeError and LinAlgError a ValueError
    except (FloatingPointError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
