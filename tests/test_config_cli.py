"""Config parsing, validation, and the batch CLI pipeline."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pdtomo import cli, ct, solver, spectral
from pdtomo.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    load_config,
    parse_config_text,
)
from pdtomo.ct import build_geometry
from pdtomo.fileio import save_eigenset
from pdtomo.prox import ProxResult
from pdtomo.solver import CSV_COLUMNS
from pdtomo.spectral import EigenSet


def tiny_cfg(outdir, **kw):
    """A configuration small enough to solve in milliseconds."""
    base = dict(
        nx=16,
        geometry="desk-sparse",
        k_max=40,
        record_stride=10,
        seed=3,
        rho=0.3,
        outdir=str(outdir),
    )
    base.update(kw)
    return replace(ExperimentConfig(), **base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- config format -----------------------------------------------------------


def test_defaults_validate():
    cfg = ExperimentConfig()
    assert cfg.validate() is cfg


def test_text_round_trip_and_manifest_version():
    cfg = replace(
        ExperimentConfig(),
        nx=32,
        rho=0.25,
        problem="tvlsq",
        beta=0.3,
        gamma="1.5",
        plan="lowrank",
        k_eigs=5,
        validate_prox=True,
        outdir="results/x",
    )
    assert parse_config_text(config_to_text(cfg)) == cfg
    manifest = config_to_text(cfg, version="0.1.0")
    assert manifest.splitlines()[0] == "version = 0.1.0"
    # a manifest is itself a valid config: the version line is ignored
    assert parse_config_text(manifest) == cfg


def test_manifest_with_retired_l1_tol_line_still_parses():
    # manifests of the bisection l1 prox carry its tolerance key
    cfg = replace(ExperimentConfig(), problem="tvclsq", nx=32)
    old_manifest = config_to_text(cfg, version="0.1.0") + "l1_tol = 1e-08\n"
    assert parse_config_text(old_manifest) == cfg
    assert "l1_tol" not in config_to_text(cfg)


def test_manifest_with_retired_power_iters_line_still_parses():
    # manifests of the power-method engine carry its iteration count
    cfg = replace(ExperimentConfig(), plan="lowrank", k_eigs=5)
    old_manifest = config_to_text(cfg, version="0.1.0") + "power_iters = 100\n"
    assert parse_config_text(old_manifest) == cfg
    assert "power_iters" not in config_to_text(cfg)


def test_parse_comments_blanks_and_spacing():
    cfg = parse_config_text(
        """
        # full-line comment
        nx = 32   # trailing comment

        rho=0.5
        geometry =  desk-sparse
        """
    )
    assert (cfg.nx, cfg.rho, cfg.geometry) == (32, 0.5, "desk-sparse")


def test_parse_bool_spellings():
    for text in ("1", "true", "Yes", "ON"):
        assert parse_config_text(f"validate_prox = {text}").validate_prox is True
    for text in ("0", "false", "No", "OFF"):
        assert parse_config_text(f"validate_prox = {text}").validate_prox is False
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("validate_prox = maybe")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3: unknown key 'voxels'"):
        parse_config_text("nx = 32\n\nvoxels = 10")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config_text("just some words")
    with pytest.raises(ConfigError, match="line 2: cannot parse 'abc' as float"):
        parse_config_text("nx = 32\nrho = abc")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_apply_overrides_last_wins():
    cfg = apply_overrides(ExperimentConfig(), ["k_max=5", "rho = 2.5", "k_max=9"])
    assert (cfg.k_max, cfg.rho) == (9, 2.5)


@pytest.mark.parametrize(
    "updates, match",
    [
        (dict(k_max=0), "k_max"),
        (dict(record_stride=0), "record_stride"),
        (dict(rho=0.0), "rho"),
        (dict(rho=-1.0), "rho"),
        (dict(problem="ridge"), "unknown problem"),
        (dict(solver="adam"), "unknown solver"),
        (dict(plan="block"), "unknown plan"),
        (dict(solver="gd", problem="tvlsq"), "only handles the lsq problem"),
        (dict(solver="cgls", problem="tvclsq"), "only handles the lsq problem"),
        (dict(plan="diagonal", problem="tvclsq"), "plan = diagonal serves only lsq"),
        (dict(k_eigs=0), "k_eigs"),
        (dict(gamma="huh"), "number or 'phantom-tv'"),
        (dict(gamma="-1.0", problem="tvclsq"), "gamma must be positive"),
        (dict(nx=1, problem="tvlsq"), "nx >= 2"),
        (dict(nx=1, problem="tvclsq"), "nx >= 2"),
        (dict(plan="diagonal", problem="tvlsq"), "plan = diagonal serves only lsq"),
        (dict(nx=0), "nx must be >= 1"),
        # NaN and infinity pass range checks written as comparisons
        (dict(geometry="bogus"), "unknown geometry"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(beta=-0.1, problem="tvlsq"), "beta must be nonnegative"),
        (dict(nx=4, plan="lowrank", k_eigs=17), "k_eigs must be in"),
        (dict(rho=float("inf")), "rho must be finite"),
        (dict(alpha=float("nan"), solver="gd"), "alpha must be finite"),
        (dict(beta=float("nan"), problem="tvlsq"), "beta must be finite"),
        (dict(gamma="inf", problem="tvclsq"), "gamma must be finite"),
        (dict(gamma="nan"), "gamma must be finite"),
    ],
)
def test_validate_rejects(updates, match):
    with pytest.raises(ConfigError, match=match):
        replace(ExperimentConfig(), **updates).validate()


def test_validate_allows_nonpositive_gamma_outside_constraint():
    # the constraint radius only matters for the constrained problem
    replace(ExperimentConfig(), gamma="-1.0", problem="lsq").validate()


# -- run pipeline ------------------------------------------------------------


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    cfg = tiny_cfg(outdir)
    res = cli.run_experiment(cfg)
    return cfg, res, outdir


def test_run_writes_all_artifacts(finished_run):
    cfg, res, outdir = finished_run
    assert (outdir / "convergence.csv").is_file()
    assert (outdir / "final_image.raw").stat().st_size == 16 * 16 * 8
    assert (outdir / "final_image.pgm").read_bytes().startswith(b"P5\n")
    assert (outdir / "data.sng").is_file()
    assert (outdir / "manifest").is_file()
    assert res["outdir"] == str(outdir)
    assert res["iterations"] == cfg.k_max
    assert res["final_image_rmse"] < 1.0


def test_convergence_csv_layout(finished_run):
    _, _, outdir = finished_run
    rows = read_csv(outdir / "convergence.csv")
    assert rows[0] == list(CSV_COLUMNS)
    # iteration 0 plus every stride-th iterate through k_max
    assert [r[0] for r in rows[1:]] == ["0", "10", "20", "30", "40"]
    for row in rows[1:]:
        assert float(row[3]) >= 0.0
        assert row[7] == ""  # no constraint radius in the plain lsq problem


def test_manifest_replays_byte_identical(finished_run, tmp_path):
    cfg, _, outdir = finished_run
    loaded = load_config(outdir / "manifest")
    assert loaded == cfg
    rerun = replace(loaded, outdir=str(tmp_path / "replay"))
    cli.run_experiment(rerun)
    for name in ("convergence.csv", "final_image.raw", "data.sng"):
        assert (tmp_path / "replay" / name).read_bytes() == (
            outdir / name
        ).read_bytes()


def test_manifest_with_removed_knob_lines_replays_byte_identical(finished_run, tmp_path):
    # manifests written before eigenvector smoothing, the scan overrides,
    # the sweep process count and the grid side left the config carry
    # their keys, and older ones l1_tol and power_iters
    cfg, _, outdir = finished_run
    lines = config_to_text(cfg, version="0.1.0").splitlines()
    lines.insert(lines.index(f"nx = {cfg.nx}") + 1, "side_cm = 18.0")
    at = lines.index(f"geometry = {cfg.geometry}") + 1
    lines[at:at] = ["n_views = 0", "n_bins = 0", "arc = 0.0"]
    lines.insert(lines.index(f"k_eigs = {cfg.k_eigs}") + 1, "blur_width = 0.0")
    lines.insert(lines.index(f"outdir = {cfg.outdir}"), "workers = 1")
    old_manifest = "\n".join(lines + ["l1_tol = 1e-08", "power_iters = 100"]) + "\n"
    assert len(lines) == 1 + 22  # the version line and that format's 22 keys
    assert parse_config_text(old_manifest) == cfg
    # results never depended on the process count
    assert parse_config_text(old_manifest.replace("workers = 1", "workers = 4")) == cfg
    (tmp_path / "manifest").write_text(old_manifest)
    replay = tmp_path / "replay"
    assert cli.main(["run", "-c", str(tmp_path / "manifest"), "-o", str(replay)]) == 0
    for name in ("convergence.csv", "final_image.raw", "final_image.pgm", "data.sng"):
        assert (replay / name).read_bytes() == (outdir / name).read_bytes()
    assert (replay / "manifest").read_text() == config_to_text(
        replace(cfg, outdir=str(replay)), version="0.1.0"
    )


def test_constrained_run_records_constraint_radius(tmp_path):
    cfg = tiny_cfg(tmp_path / "tvc", problem="tvclsq", k_max=20, record_stride=20)
    cli.run_experiment(cfg)
    rows = read_csv(tmp_path / "tvc" / "convergence.csv")
    assert rows[0] == list(CSV_COLUMNS)
    assert float(rows[-1][7]) > 0.0


# -- sweeps ------------------------------------------------------------------


def test_sweep_summary_and_failed_value(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "sw")
    summary = cli.sweep(cfg, "rho", ["0.5", "2.0", "-1.0"])
    rows = read_csv(summary)
    assert rows[0] == [
        "value", "final_image_rmse", "final_r_sigma", "final_r_tau", "status"
    ]
    assert [r[0] for r in rows[1:]] == ["0.5", "2.0", "-1.0"]
    assert [r[-1] for r in rows[1:]] == ["ok", "ok", "ConfigError"]
    # the invalid value is reported, not fatal, and leaves no artifacts
    assert rows[3][1:] == ["", "", "", "ConfigError"]
    assert "sweep rho=-1.0 failed" in capsys.readouterr().err
    assert not (tmp_path / "sw" / "rho_-1.0").exists()
    # summary cells repeat the last recorded image rmse of each sub-run
    sub = read_csv(tmp_path / "sw" / "rho_0.5" / "convergence.csv")
    assert rows[1][1] == sub[-1][3]


def test_sweep_over_rank_uses_lowrank_plans(tmp_path):
    cfg = tiny_cfg(
        tmp_path / "swk",
        plan="lowrank",
        k_max=20,
        cache_dir=str(tmp_path / "cache"),
    )
    summary = cli.sweep(cfg, "K", ["1", "2"])
    rows = read_csv(summary)
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for value in ("1", "2"):
        assert (tmp_path / "swk" / f"K_{value}" / "convergence.csv").is_file()
    assert list((tmp_path / "cache").glob("eig_*.bin"))


def test_sweep_validation():
    cfg = tiny_cfg("unused")
    with pytest.raises(ConfigError, match="sweep parameter"):
        cli.sweep(cfg, "alpha", ["1.0"])
    with pytest.raises(ConfigError, match="at least one value"):
        cli.sweep(cfg, "rho", [])


# -- demos -------------------------------------------------------------------


def test_demo_names_write_csv_artifacts(tmp_path):
    for name in ("fe-s0", "fe-s1", "be"):
        written = cli.demo(name, tmp_path / name)
        assert written and all(p.is_file() for p in written)
    names = {p.name for p in cli.demo("abe", tmp_path / "abe")}
    assert names == {"abe_twostep.csv", "abe_periodic.csv"}
    with pytest.raises(ConfigError, match="unknown demo"):
        cli.demo("nope", tmp_path)


def test_main_unknown_demo_is_config_error_before_any_directory(tmp_path, capsys):
    out = tmp_path / "demo"
    assert cli.main(["demo", "bogus", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'bogus'" in err
    assert all(f"'{name}'" in err for name in cli.DEMOS)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(ConfigError, match="unknown demo 'bogus'; choose from fe-s0, fe-s1, be"):
        cli.demo("bogus", out)
    assert not out.exists()


def test_demo_abe_csv_contents(tmp_path):
    cli.demo("abe", tmp_path)
    rows = read_csv(tmp_path / "abe_twostep.csv")
    assert rows[0] == ["iter", "x", "lambda", "radius"]
    # the two-step scheme parks at the saddle from iteration 2 onward
    assert all(float(r[3]) <= 1e-12 for r in rows[3:])
    periodic = read_csv(tmp_path / "abe_periodic.csv")
    assert len(periodic) == 1 + 14
    assert float(periodic[1][3]) == pytest.approx(float(periodic[7][3]), abs=1e-12)


def test_demo_sigma_sweep_files(tmp_path):
    written = cli.demo("cppd1d", tmp_path)
    assert {p.name for p in written} == {
        "cppd1d_a0.01.csv",
        "cppd1d_a0.1.csv",
        "cppd1d_a1.0.csv",
    }
    rows = read_csv(tmp_path / "cppd1d_a0.1.csv")
    assert rows[0] == ["sigma", "final_magnitude"]
    assert len(rows) == 1 + 367


def test_demo_conjugate_oracle_matches_analytic(tmp_path):
    written = cli.demo("lf-oracle", tmp_path)
    assert {p.name for p in written} == {
        "lf_quadratic.csv",
        "lf_abs.csv",
        "lf_linear.csv",
        "lf_interval.csv",
    }
    rows = read_csv(tmp_path / "lf_quadratic.csv")
    err = max(abs(float(r[1]) - float(r[2])) for r in rows[1:])
    assert err <= 1e-4
    rows = read_csv(tmp_path / "lf_abs.csv")
    finite = [r for r in rows[1:] if float(r[2]) < np.inf]
    assert all(abs(float(r[1]) - float(r[2])) <= 1e-12 for r in finite)


# -- command line entry point ------------------------------------------------


def test_main_run_from_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(config_to_text(tiny_cfg(tmp_path / "ignored")))
    out = tmp_path / "cli_run"
    code = cli.main(["run", "-c", str(cfgfile), "-o", str(out)])
    assert code == 0
    assert "done: 40 iterations" in capsys.readouterr().out
    assert (out / "convergence.csv").is_file()
    # the manifest records the effective output directory, not the config's
    assert f"outdir = {out}" in (out / "manifest").read_text()


def test_main_config_error_exit_code(tmp_path, capsys):
    code = cli.main(["run", "--set", "k_max=0", "-o", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_main_numerical_failure_exit_code(tmp_path, capsys):
    args = ["run", "--set", "solver=gd", "--set", "alpha=20", "-o", str(tmp_path / "out")]
    for pair in ("nx=16", "geometry=desk-sparse", "k_max=200"):
        args += ["--set", pair]
    with pytest.warns(RuntimeWarning):
        code = cli.main(args)
    assert code == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    # a run that fails leaves no output directory behind
    assert not (tmp_path / "out").exists()


def test_main_tvclsq_radius_below_rounding_with_validate_prox(tmp_path, capsys):
    # gamma far below the rounding of the dual's l1 norm: the sort-based
    # cross-check keeps the largest entry active instead of failing
    args = ["run", "-o", str(tmp_path)]
    for pair in (
        "nx=32",
        "geometry=desk-sparse",
        "problem=tvclsq",
        "gamma=1e-20",
        "k_max=20",
        "record_stride=10",
        "validate_prox=true",
    ):
        args += ["--set", pair]
    assert cli.main(args) == 0, capsys.readouterr().err
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["iter"] for row in rows] == ["0", "10", "20"]
    assert all(float(row["beta"]) > 0 for row in rows[1:])


def test_main_rank_below_k_exits_numerical(tmp_path, monkeypatch, capsys):
    # at nx = 16 only the 208 pixels inside the FOV circle meet a ray,
    # so A^T A has rank <= 208 < 209 = K
    monkeypatch.chdir(tmp_path)
    args = ["eig", "--set", "nx=16", "--set", "geometry=desk-sparse"]
    assert cli.main(args + ["--set", "k_eigs=209"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "rank" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_usage_errors_exit_code(tmp_path, capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["run", "-c", str(tmp_path / "absent.cfg")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err


def test_main_phantom_command(tmp_path, capsys):
    out = tmp_path / "ph"
    code = cli.main(["phantom", "--set", "nx=16", "-o", str(out)])
    assert code == 0
    assert "phantom TV" in capsys.readouterr().out
    for name in ("phantom.raw", "phantom.pgm", "phantom_narrow.pgm", "gmi.raw", "gmi.pgm"):
        assert (out / name).is_file()


def test_main_eig_command_and_cache(tmp_path, capsys):
    args = ["eig", "--set", f"cache_dir={tmp_path / 'cache'}"]
    for pair in ("nx=16", "geometry=desk-sparse", "k_eigs=2"):
        args += ["--set", pair]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "eigenvalues [" in out and "], sigma0 " in out and "cached at" in out
    assert len(list((tmp_path / "cache").glob("eig_*.bin"))) == 1
    # a second invocation reuses the cached file rather than recomputing
    assert cli.main(args) == 0
    assert len(list((tmp_path / "cache").glob("eig_*.bin"))) == 1


def test_eigenpair_cache_is_actually_read(tmp_path):
    cfg = tiny_cfg(tmp_path / "out", k_eigs=1, cache_dir=str(tmp_path / "cache"))
    grid = cli.build_grid(cfg)
    geom = build_geometry(cfg.geometry)
    from pdtomo.ct import projector

    a_map = projector(grid, geom)
    first, first_sigma = cli.cached_eigenpairs(cfg, grid, geom, a_map)
    path = cli._eig_cache_path(cfg, grid, geom)
    assert path.is_file()
    doctored = EigenSet(np.eye(a_map.domain_dim)[:1], np.array([3.0]))
    save_eigenset(path, doctored, 0.25, cli._eig_cache_key(cfg, grid, geom))
    second, second_sigma = cli.cached_eigenpairs(cfg, grid, geom, a_map)
    assert np.array_equal(second.values, doctored.values) and second_sigma == 0.25
    assert not np.array_equal(first.values, doctored.values) and first_sigma != 0.25


def test_eigcache_file_under_another_key_is_a_miss(tmp_path):
    cfg = tiny_cfg(tmp_path / "out", k_eigs=1, cache_dir=str(tmp_path / "cache"))
    grid, geom = cli.build_grid(cfg), build_geometry(cfg.geometry)
    from pdtomo.ct import projector

    a_map = projector(grid, geom)
    first, first_sigma = cli.cached_eigenpairs(cfg, grid, geom, a_map)
    path = cli._eig_cache_path(cfg, grid, geom)
    good = path.read_bytes()
    # a plan computed for another A, left under this file name
    doctored = EigenSet(np.eye(a_map.domain_dim)[:1], np.array([3.0]))
    other_key = cli._eig_cache_key(replace(cfg, seed=4), grid, geom)
    save_eigenset(path, doctored, 0.25, other_key)
    again, again_sigma = cli.cached_eigenpairs(cfg, grid, geom, a_map)
    assert np.array_equal(again.values, first.values) and again_sigma == first_sigma
    # recomputed and overwritten with the requested key
    assert path.read_bytes() == good


def test_main_truncated_eigcache_file_exits_numerical(tmp_path, capsys):
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in SMALL_RUN + ("plan=lowrank", "k_eigs=2", f"cache_dir={tmp_path / 'cache'}"):
        args += ["--set", pair]
    assert cli.main(args) == 0
    (path,) = (tmp_path / "cache").glob("eig_*.bin")
    path.write_bytes(path.read_bytes()[:-8])
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: [plan] {path}: ") and "bytes" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eig_cache_key_names_the_engine(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path / "out", plan="lowrank", cache_dir=str(tmp_path / "cache"))
    grid, geom = cli.build_grid(cfg), build_geometry(cfg.geometry)
    path = cli._eig_cache_path(cfg, grid, geom)
    assert cli._eig_cache_path(replace(cfg, seed=4), grid, geom) != path
    # pairs from another engine land under another name and are never read
    monkeypatch.setattr(cli, "EIG_ENGINE", "power")
    assert cli._eig_cache_path(cfg, grid, geom) != path
    # and files of another format, EIG1 included, are never opened
    monkeypatch.undo()
    monkeypatch.setattr(cli, "EIG_FORMAT", "EIG1")
    assert cli._eig_cache_path(cfg, grid, geom) != path


def lowrank_artifacts(tmp_path, name, cache, **kw):
    cfg = tiny_cfg(
        tmp_path / name, plan="lowrank", k_eigs=5, cache_dir=str(tmp_path / cache), **kw
    )
    cli.run_experiment(cfg)
    return [
        (tmp_path / name / artifact).read_bytes()
        for artifact in ("convergence.csv", "final_image.raw")
    ]


def test_lowrank_runs_repeat_bitwise_in_fresh_caches(tmp_path):
    first = lowrank_artifacts(tmp_path, "a", "cache_a")
    second = lowrank_artifacts(tmp_path, "b", "cache_b")
    assert first == second


def test_lowrank_cache_hit_repeats_the_miss_bitwise(tmp_path, monkeypatch):
    miss = lowrank_artifacts(tmp_path, "miss", "cache")

    def no_recompute(*args, **kwargs):
        raise AssertionError("eigenpairs recomputed despite a cached file")

    def no_sigma(*args, **kwargs):
        raise AssertionError("sigma0 recomputed despite a cached file")

    monkeypatch.setattr(cli, "leading_eigenpairs", no_recompute)
    monkeypatch.setattr(spectral, "sigma_for_T", no_sigma)
    hit = lowrank_artifacts(tmp_path, "hit", "cache")
    assert hit == miss


def test_rho_sweep_computes_the_lowrank_plan_once(tmp_path, monkeypatch):
    calls = {"eig": 0, "sigma": 0}
    eig, sigma = cli.leading_eigenpairs, spectral.sigma_for_T

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "leading_eigenpairs", counted("eig", eig))
    monkeypatch.setattr(spectral, "sigma_for_T", counted("sigma", sigma))
    cfg = tiny_cfg(
        tmp_path / "sw", plan="lowrank", k_eigs=3, k_max=20, cache_dir=str(tmp_path / "cache")
    )
    rows = read_csv(cli.sweep(cfg, "rho", ["0.1", "0.3", "1.0"]))
    assert calls == {"eig": 1, "sigma": 1}
    assert [r[0] for r in rows[1:]] == ["0.1", "0.3", "1.0"]
    assert all(cell for r in rows[1:] for cell in r)


# Runs whose X and X^T (desk-oversampled at nx = 64, 521,480 entries
# each) are above the split floor.
SPLIT_RUNS = {
    "lsq-lowrank": dict(plan="lowrank", k_eigs=5),
    "lsq-scalar": dict(plan="scalar"),
    "tvclsq": dict(problem="tvclsq"),
    "gd": dict(solver="gd"),
    "cgls": dict(solver="cgls"),
}


@pytest.mark.parametrize("name", SPLIT_RUNS)
def test_split_products_leave_artifacts_byte_identical(tmp_path, monkeypatch, name):
    # two allowed CPUs are assumed, so the split runs on any machine
    monkeypatch.setattr(ct, "_allowed_cpus", lambda: 2)
    helper = ct._Helper()
    monkeypatch.setattr(ct, "_HELPER", helper)
    artifacts = {}
    for side, floor in (("split", ct.SPLIT_NNZ), ("one-piece", 2**62)):
        monkeypatch.setattr(ct, "SPLIT_NNZ", floor)
        out = tmp_path / side
        cfg = tiny_cfg(
            out,
            nx=64,
            geometry="desk-oversampled",
            k_max=20,
            record_stride=5,
            cache_dir=str(tmp_path / f"cache_{side}"),
            **SPLIT_RUNS[name],
        )
        cli.run_experiment(cfg)
        artifacts[side] = [
            (out / artifact).read_bytes()
            for artifact in ("convergence.csv", "final_image.raw", "data.sng")
        ]
        if side == "split":
            assert helper._thread is not None, "no product was split"
    assert artifacts["split"] == artifacts["one-piece"]


def test_parallel_lowrank_sweep_computes_plan_once(tmp_path, monkeypatch):
    # a config that still asks for worker processes sweeps in this one
    # process: the eigenpairs are computed once, and the bytes match a
    # config without the workers line
    pids = []
    compute = cli.leading_eigenpairs

    def counted(*args, **kwargs):
        pids.append(os.getpid())
        return compute(*args, **kwargs)

    monkeypatch.setattr(cli, "leading_eigenpairs", counted)
    outputs = {}
    for workers in (None, 2):
        out = tmp_path / f"w{workers}"
        cfg = tiny_cfg(out, plan="lowrank", k_eigs=3, k_max=20, cache_dir=str(out / "cache"))
        text = config_to_text(cfg, version="0.1.0")
        if workers is not None:
            text += f"workers = {workers}\n"
        (tmp_path / f"w{workers}.cfg").write_text(text)
        pids.clear()
        args = ["sweep", "-c", str(tmp_path / f"w{workers}.cfg"),
                "--param", "rho", "--values", "0.5,2.0,1.0"]
        assert cli.main(args) == 0
        assert pids == [os.getpid()]
        outputs[workers] = [(out / "summary.csv").read_bytes()] + [
            (out / f"rho_{v}" / "convergence.csv").read_bytes()
            for v in ("0.5", "2.0", "1.0")
        ]
    assert outputs[2] == outputs[None]


def test_main_lanczos_no_convergence_exit_code(tmp_path, monkeypatch, capsys):
    # a step cap below what three pairs need runs out before the bound holds
    monkeypatch.setattr(spectral, "_MAX_STEPS", 4)
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in ("nx=16", "geometry=desk-sparse", "k_max=5", "plan=lowrank",
                 "k_eigs=3", f"cache_dir={tmp_path / 'cache'}"):
        args += ["--set", pair]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: [plan] Lanczos") and "within 4 steps" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_lanczos_step_cap_names_k_eigs(tmp_path, monkeypatch, capsys):
    # four pairs need more than eight steps; fewer pairs need fewer
    monkeypatch.setattr(spectral, "_MAX_STEPS", 8)
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in ("nx=16", "geometry=desk-sparse", "k_max=5", "plan=lowrank",
                 "k_eigs=4", f"cache_dir={tmp_path / 'cache'}"):
        args += ["--set", pair]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: [plan] Lanczos") and "within 8 steps" in err
    assert err.rstrip().endswith("lower k_eigs (now 4)")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_tv_problem_on_one_pixel_grid_is_config_error(tmp_path, capsys):
    # a one-pixel image has ||D|| = 0, so nu = ||X|| / ||D|| is undefined
    for problem in ("tvlsq", "tvclsq"):
        args = ["run", "--set", "nx=1", "--set", f"problem={problem}", "-o", str(tmp_path)]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nx >= 2" in err
        assert err.count("\n") == 1 and "Traceback" not in err


SMALL_RUN = ("nx=16", "geometry=desk-sparse", "k_max=20", "record_stride=10")


@pytest.mark.parametrize(
    "command, settings, extra, message",
    [
        ("sweep", (), ["--param", "rho", "--values", "0.5,abc"], "'abc' as float"),
        ("sweep", (), ["--param", "K", "--values", "2.5"], "'2.5' as int"),
        ("run", ("problem=tvlsq", "beta=-0.1"), [], "beta must be nonnegative"),
        ("run", ("nx=4", "plan=lowrank", "k_eigs=50"), [], "k_eigs must be in [1, nx*nx = 16]"),
        # eigenvector smoothing is gone; manifests replay only at its 0
        ("run", ("plan=lowrank", "k_eigs=2", "blur_width=-1.0"), [], "blur_width"),
        ("sweep", (), ["--param", "K", "--values", "1,5"], "K sweep needs solver = cppd and"),
        ("sweep", ("plan=diagonal",), ["--param", "K", "--values", "1,5"], "plan = lowrank"),
        ("sweep", ("solver=cgls",), ["--param", "rho", "--values", "0.5,1"], "needs solver = cppd"),
        # equal values would run one experiment twice into one directory
        ("sweep", (), ["--param", "rho", "--values", "0.5,0.50"], "'0.50' repeats rho = 0.5"),
        ("sweep", ("plan=lowrank",), ["--param", "K", "--values", "3,1,03"], "'03' repeats K = 3"),
        # config errors that no swept value fixes
        ("sweep", ("k_max=0",), ["--param", "rho", "--values", "1,2"], "k_max must be >= 1"),
        ("sweep", ("plan=lowrank",), ["--param", "K", "--values", "300,257"], "nx*nx = 256"),
        ("run", ("plan=lowrank", "k_eigs=2", "blur_width=1.5"), [], "blur_width is fixed at 0"),
        # the grid is fixed at the presets' FOV; another side is another run
        ("run", ("side_cm=24",), [], "side_cm is fixed at 18.0 since that knob was removed"),
        ("run", ("side_cm=1e308",), [], "side_cm is fixed at 18.0"),
        ("sweep", ("side_cm=abc",), ["--param", "rho", "--values", "0.5,1"], "side_cm is fixed"),
        ("run", ("seed=-1",), [], "seed must be >= 0"),
        # the scan is the preset; manifests replay only at the 0 they wrote
        ("run", ("n_views=-3",), [], "n_views is fixed at 0"),
        ("run", ("n_bins=-1",), [], "n_bins is fixed at 0"),
        ("sweep", ("arc=-0.5",), ["--param", "rho", "--values", "0.5,1"], "arc is fixed at 0"),
        ("run", ("arc=inf",), [], "arc is fixed at 0 since that knob was removed, got 'inf'"),
        ("run", ("nx=0",), [], "nx must be >= 1"),
        ("run", ("n_views=12",), [], "n_views is fixed at 0"),
        ("sweep", ("n_bins=24",), ["--param", "rho", "--values", "0.5,1"], "n_bins is fixed at 0"),
        ("run", ("arc=nan",), [], "arc is fixed at 0"),
        # an unknown preset is caught before any directory is made
        ("run", ("geometry=bogus",), [], "unknown geometry 'bogus'; choose from full, sparse"),
        ("sweep", ("geometry=bogus",), ["--param", "rho", "--values", "0.5,1"], "unknown geometry"),
    ],
    ids=[
        "sweep-rho-abc",
        "sweep-K-2.5",
        "beta-negative",
        "k_eigs-above-nx2",
        "blur-negative",
        "sweep-K-scalar-plan",
        "sweep-K-diagonal-plan",
        "sweep-rho-cgls",
        "sweep-rho-repeated",
        "sweep-K-repeated",
        "sweep-k_max-0",
        "sweep-K-all-above-nx2",
        "blur_width-1.5",
        "side_cm-24",
        "side_cm-1e308",
        "sweep-side_cm-abc",
        "seed-negative",
        "n_views-negative",
        "n_bins-negative",
        "sweep-arc-negative",
        "arc-inf",
        "nx-0",
        "n_views-positive",
        "sweep-n_bins-positive",
        "arc-nan",
        "geometry-unknown",
        "sweep-geometry-unknown",
    ],
)
def test_main_config_value_errors_exit_code(tmp_path, capsys, command, settings, extra, message):
    args = [command, "-o", str(tmp_path / "out"), *extra]
    for pair in SMALL_RUN + settings + (f"cache_dir={tmp_path / 'cache'}",):
        args += ["--set", pair]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_geometry_too_large_for_memory_exit_code(tmp_path, capsys):
    # numpy refuses the 65.5 TiB pixel-center grid of the phantom at
    # once, so nothing is allocated, and nothing is written
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in ("nx=3000000", "k_max=2"):
        args += ["--set", pair]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    # numpy's message ignores the error's args, and still names the stage
    assert err.startswith("config error: out of memory, reduce nx ([phantom] Unable to allocate")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert cli.main(["phantom", "--set", "nx=3000000", "-o", str(tmp_path / "ph")]) == 1
    assert capsys.readouterr().err.startswith("config error: out of memory, reduce nx")
    assert not (tmp_path / "ph").exists()


def test_phantom_and_eig_errors_name_their_stage(tmp_path, monkeypatch, capsys):
    assert cli.main(["phantom", "--set", "nx=3000000", "-o", str(tmp_path / "ph")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory, reduce nx ([phantom] Unable to allocate")
    assert not (tmp_path / "ph").exists()

    def no_pairs(*args, **kwargs):
        raise RuntimeError("Lanczos did not converge")

    monkeypatch.setattr(cli, "leading_eigenpairs", no_pairs)
    args = ["eig", "-o", str(tmp_path / "eig")]
    for pair in SMALL_RUN + ("plan=lowrank", "k_eigs=3", f"cache_dir={tmp_path / 'cache'}"):
        args += ["--set", pair]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: [plan] Lanczos did not converge")


def test_main_write_error_names_the_write_stage(tmp_path, capsys):
    # OSError's message ignores its args; the stage still reaches it
    (tmp_path / "out" / "final_image.raw").mkdir(parents=True)
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in SMALL_RUN:
        args += ["--set", pair]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error: [write] [Errno 21] Is a directory: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_gd_norm_failure_is_a_plan_error(tmp_path, monkeypatch, capsys):
    # GD's Lipschitz bound ||X|| is spectral set-up, like a cppd plan
    def no_norm(*args, **kwargs):
        raise RuntimeError("Lanczos did not converge")

    monkeypatch.setattr(cli, "spectral_norm", no_norm)
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in SMALL_RUN + ("solver=gd",):
        args += ["--set", pair]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: [plan] Lanczos did not converge\n"
    assert not (tmp_path / "out").exists()


def test_sweep_value_that_fails_leaves_no_directory(tmp_path, capsys):
    # at nx = 16 A^T A has rank <= 208, so K = 209 fails in the plan stage
    args = ["sweep", "--param", "K", "--values", "2,209", "-o", str(tmp_path / "sw")]
    for pair in SMALL_RUN + ("plan=lowrank", "k_max=5", f"cache_dir={tmp_path / 'cache'}"):
        args += ["--set", pair]
    assert cli.main(args) == 0
    err = capsys.readouterr().err
    assert err.startswith("sweep K=209 failed: [plan] eigenvalue 208 is numerically zero")
    rows = read_csv(tmp_path / "sw" / "summary.csv")
    assert [r[-1] for r in rows[1:]] == ["ok", "ValueError"]
    assert (tmp_path / "sw" / "K_2").is_dir() and not (tmp_path / "sw" / "K_209").exists()


COMBINATION_RUN = ("nx=16", "geometry=desk-sparse", "k_max=5", "k_eigs=2")


@pytest.mark.parametrize("solver_name", ["cppd", "gd", "cgls"])
@pytest.mark.parametrize("plan", ["scalar", "diagonal", "lowrank"])
@pytest.mark.parametrize("problem", ["lsq", "tvlsq", "tvclsq"])
def test_main_runs_every_combination_validate_accepts(
    tmp_path, capsys, problem, plan, solver_name
):
    # a config that passes validate must run; one it rejects is a
    # one-line config error
    settings = COMBINATION_RUN + (
        f"problem={problem}",
        f"plan={plan}",
        f"solver={solver_name}",
        f"cache_dir={tmp_path / 'cache'}",
    )
    try:
        apply_overrides(ExperimentConfig(), list(settings)).validate()
        accepted = True
    except ConfigError:
        accepted = False
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in settings:
        args += ["--set", pair]
    code = cli.main(args)
    err = capsys.readouterr().err
    if accepted:
        assert code == 0, err
    else:
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, outdir, settings, extra, bad",
    [
        ("run", "afile/sub", (), [], "afile/sub"),
        ("sweep", "afile/sub", (), ["--param", "rho", "--values", "0.5,1"], "afile/sub"),
        ("run", "out", ("plan=lowrank", "cache_dir=afile"), [], "afile"),
    ],
    ids=["run-outdir", "sweep-outdir", "run-cache_dir"],
)
def test_main_uncreatable_path_exit_code(
    tmp_path, monkeypatch, capsys, command, outdir, settings, extra, bad
):
    # a regular file stands where a directory must be created
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    args = [command, "-o", outdir, *extra]
    for pair in SMALL_RUN + settings:
        args += ["--set", pair]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error:") and f"'{bad}'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_failed_prox_cross_check_exit_code(tmp_path, monkeypatch, capsys):
    # a dual prox off by 1e-3 per entry fails validate_prox at the first
    # recorded iteration
    exact = solver.prox_tvc_conjugate

    def perturbed(*args):
        res = exact(*args)
        return ProxResult(res.value + 1e-3, res.aux)

    monkeypatch.setattr(solver, "prox_tvc_conjugate", perturbed)
    args = ["run", "-o", str(tmp_path / "out")]
    for pair in SMALL_RUN + ("problem=tvclsq",):
        args += ["--set", pair]
    # without the cross-check the perturbed run completes
    assert cli.main(args) == 0
    assert cli.main(args + ["--set", "validate_prox=true"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: [solve] dual prox cross-check failed at iteration 10:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_tvclsq_run_bytes_do_not_depend_on_the_threshold_hint(tmp_path, monkeypatch, seed):
    # each dual prox starts its l1-ball threshold from the previous
    # step's beta; the artifacts equal those of cold starts bit for bit
    exact = solver.prox_tvc_conjugate
    hints = []

    def hinted(lam_g, radius, hint=0.0):
        hints.append(hint)
        return exact(lam_g, radius, hint)

    def cold(lam_g, radius, hint=0.0):
        return exact(lam_g, radius)

    written = {}
    for name, prox in (("hinted", hinted), ("cold", cold)):
        monkeypatch.setattr(solver, "prox_tvc_conjugate", prox)
        args = ["run", "-o", str(tmp_path / name)]
        for pair in SMALL_RUN + ("problem=tvclsq", "k_max=80", f"seed={seed}"):
            args += ["--set", pair]
        assert cli.main(args) == 0
        written[name] = [
            (tmp_path / name / f).read_bytes() for f in ("convergence.csv", "final_image.raw")
        ]
    # the warm start ran on most steps
    assert sum(h > 0 for h in hints) > 40
    assert written["hinted"] == written["cold"]


def test_tv_and_lowrank_runs_do_not_import_the_scipy_solvers(tmp_path):
    # scipy.sparse.linalg pulls in scipy.linalg, several MB resident that
    # the numpy Lanczos engine does not need, low-rank plans included;
    # only ct.gaussian_smooth loads scipy.ndimage, and no run calls it;
    # no run needs the process pool either
    tv = ["--set", "problem=tvclsq", "-o", str(tmp_path / "tv")]
    lowrank = ["--set", "plan=lowrank", "--set", "k_eigs=3",
               "--set", f"cache_dir={tmp_path / 'cache'}", "-o", str(tmp_path / "lr")]
    script = f"""
import sys
from pdtomo import cli
common = ["--set", "nx=16", "--set", "geometry=desk-sparse", "--set", "k_max=5"]
for extra in ({tv!r}, {lowrank!r}):
    assert cli.main(["run", *common, *extra]) == 0
unused = ("scipy.sparse.linalg", "scipy.linalg", "scipy.ndimage", "concurrent.futures.process")
print(sorted(m for m in unused if m in sys.modules))
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
