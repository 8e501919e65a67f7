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
import csv
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
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
    FanBeamGeometry,
    ImageGrid,
    Sinogram,
    build_geometry,
    fov_active,
    gaussian_smooth,
    gradient,
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
)
from .phantom import GRAY_WINDOWS, generate, gmi
from .prox import Grid1D, lf_transform_numeric
from .solver import (
    DivergenceError,
    ProblemSpec,
    run_cgls,
    run_cppd,
    run_gd_lsq,
)
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
    l1_tol = cfg.l1_tol if cfg.l1_tol > 0 else None
    if cfg.problem == "lsq":
        return ProblemSpec("lsq", x_map, g, active=active)
    d_map = gradient(grid)
    nu = spectral_norm(x_map, cfg.power_iters, cfg.seed) / spectral_norm(
        d_map, cfg.power_iters, cfg.seed
    )
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
        l1_tol=l1_tol,
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
    eigs = leading_eigenpairs(a_map, cfg.k_eigs, n_power=cfg.power_iters, seed=cfg.seed)
    if cfg.blur_width > 0:
        eigs = smooth_eigenset(eigs, gaussian_smooth(grid, cfg.blur_width))
    ensure_dir(path.parent)
    save_eigenset(path, eigs)
    return eigs


def build_plan(cfg: ExperimentConfig, problem: ProblemSpec, grid, geom):
    a_map = problem.operator()
    if cfg.plan == "scalar":
        L = spectral_norm(a_map, cfg.power_iters, cfg.seed)
        return scalar_steps(L, cfg.rho)
    if cfg.plan == "diagonal":
        return diagonal_steps(a_map, rho=cfg.rho)
    eigs = cached_eigenpairs(cfg, grid, geom, a_map)
    return lowrank_steps(
        a_map,
        cfg.k_eigs,
        rho=cfg.rho,
        n_power=cfg.power_iters,
        seed=cfg.seed,
        eigs=eigs,
    )


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
            L = spectral_norm(problem.x_map, cfg.power_iters, cfg.seed)
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
        value = cast(raw)
        sub = replace(
            cfg,
            **{field_name: value},
            outdir=str(parent / f"{parameter}_{value}"),
        )
        runs.append((value, sub))

    results: list[tuple[object, dict | None]] = []
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [(value, pool.submit(_sweep_one, sub)) for value, sub in runs]
            for value, fut in futures:
                try:
                    results.append((value, fut.result()))
                except Exception as exc:
                    print(f"sweep {parameter}={value} failed: {exc}", file=sys.stderr)
                    results.append((value, None))
    else:
        for value, sub in runs:
            try:
                results.append((value, run_experiment(sub)))
            except Exception as exc:
                print(f"sweep {parameter}={value} failed: {exc}", file=sys.stderr)
                results.append((value, None))

    summary = parent / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value", "final_image_rmse", "final_r_sigma", "final_r_tau"])
        for value, res in results:
            if res is None:
                writer.writerow([repr(value), "", "", ""])
                continue
            cells = [repr(value)]
            for key in ("final_image_rmse", "final_r_sigma", "final_r_tau"):
                v = res[key]
                cells.append("" if np.isnan(v) else repr(float(v)))
            writer.writerow(cells)
    return summary


def _write_trajectory_csv(path, traj, extra: dict | None = None):
    radii = traj.radii
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        head = list(extra or {}) + ["iter", "x", "lambda", "radius"]
        writer.writerow(head)
        for k, (x, lam) in enumerate(traj.points):
            row = [repr(v) for v in (extra or {}).values()]
            row += [str(k), repr(float(np.ravel(x)[0])), repr(float(np.ravel(lam)[0])), repr(float(radii[k]))]
            writer.writerow(row)


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
        with open(outdir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["m", "numeric", "analytic"])
            for mi, ni, ai in zip(m, numeric, analytic):
                writer.writerow([repr(float(mi)), repr(float(ni)), repr(float(ai))])


def demo(name: str, outdir) -> list[Path]:
    """Write the CSV artifacts of one named demonstration."""
    out = ensure_dir(outdir)
    written: list[Path] = []

    def emit(fname, traj, extra=None):
        path = out / fname
        _write_trajectory_csv(path, traj, extra)
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
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["sigma", "final_magnitude"])
                for s, mag in zip(sigmas, mags):
                    writer.writerow([repr(float(s)), repr(float(mag))])
            written.append(path)
    elif name == "perfect-pc":
        path = out / "perfect_pc.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rho", "iter", "u", "lambda", "radius"])
            for rho in (0.01, 1.0, 100.0):
                traj = toysaddle.perfect_preconditioning([[1.5]], rho, [0.8], [-0.3])
                for k, (u, lam) in enumerate(traj.points):
                    writer.writerow(
                        [
                            repr(rho),
                            str(k),
                            repr(float(u[0])),
                            repr(float(lam[0])),
                            repr(float(traj.radii[k])),
                        ]
                    )
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
    except (DivergenceError, FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
