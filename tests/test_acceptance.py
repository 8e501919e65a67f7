"""End-to-end acceptance checks for the whole toolkit.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
numbered check.  The first block covers closed-form dynamics and
operator/prox/transform oracles; the rest reproduce the desk-scale
reconstruction trends.  Heavy solver runs are shared through
module-scoped fixtures, so the file is meant to be run as a whole.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pdtomo import cli, toysaddle
from pdtomo.config import ExperimentConfig
from pdtomo.ct import (
    ImageGrid,
    build_geometry,
    fov_active,
    gaussian_smooth,
    gradient,
    projector,
)
from pdtomo.linop import adjoint_dot_test, from_dense, stack
from pdtomo.phantom import generate
from pdtomo.prox import (
    Grid1D,
    clip_linf,
    default_l1_tol,
    lf_transform_numeric,
    project_l1_ball,
    prox_lsq_conjugate,
    prox_tvc_conjugate,
)
from pdtomo.solver import ProblemSpec, run_cgls, run_cppd, run_gd_lsq
from pdtomo.spectral import (
    build_lowrank_T,
    convergence_matrix,
    diagonal_steps,
    leading_eigenpairs,
    lowrank_steps,
    scalar_steps,
    spectral_norm,
)

from oracles import l1_project_by_sort


# -- shared desk-scale instance ------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    grid = ImageGrid(64, 64, 18.0)
    ph = generate(grid, seed=7)
    return SimpleNamespace(grid=grid, phantom=ph, active=fov_active(grid))


@pytest.fixture(scope="module")
def oversampled(desk):
    x_map = projector(desk.grid, build_geometry("desk-oversampled"))
    g = x_map(desk.phantom.image)
    problem = ProblemSpec("lsq", x_map, g, active=desk.active)
    L = spectral_norm(x_map, seed=0)
    return SimpleNamespace(x_map=x_map, g=g, problem=problem, L=L)


@pytest.fixture(scope="module")
def long_lsq_run(desk, oversampled):
    plan = scalar_steps(oversampled.L).scaled(0.1)
    return run_cppd(
        oversampled.problem,
        plan,
        2000,
        reference=desk.phantom.image,
        record_stride=10,
    )


def test_01_closed_form_saddle_dynamics():
    # forward Euler on the pure rotation field expands every radius by
    # exactly sqrt(1 + alpha^2)
    for alpha in (0.1, 0.5, 1.0):
        traj = toysaddle.forward_euler_s0(1.0, 0.0, alpha, 12)
        ratios = traj.radii[1:] / traj.radii[:-1]
        assert np.max(np.abs(ratios - np.hypot(1.0, alpha))) <= 1e-12

    # the theta=1, a=1 alternating scheme lands on the saddle in two steps
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x0, lam0 = rng.standard_normal(2)
        sigma = float(10.0 ** rng.uniform(-2, 2))
        traj = toysaddle.abe_s0(x0, lam0, theta=1.0, a=1.0, sigma=sigma, k_max=3)
        worst = max(worst, float(traj.radii[2:].max()))
    assert worst < 1e-12

    # with T = (A^T A)^{-1} the preconditioned iteration also needs two steps
    for n in (2, 5, 8):
        for rho in (0.01, 1.0, 100.0):
            for trial in range(10):
                gen = np.random.default_rng(1000 * n + trial)
                a = gen.standard_normal((n, n)) + 3.0 * np.eye(n)
                traj = toysaddle.perfect_preconditioning(
                    a, rho, gen.standard_normal(n), gen.standard_normal(n)
                )
                assert traj.radii[2] <= 1e-12

    # the non-extrapolated theta=0, a=1 scheme never converges: its update
    # matrix [[1, -1/sigma], [sigma, 0]] has trace 1 and determinant 1 for
    # every sigma, so its eigenvalues are exp(+-i*pi/3) and M^3 = -I.  Every
    # orbit flips sign after three steps and repeats after six, with no loss
    # of radius.  It is not 8-periodic: that would need trace sqrt(2), i.e.
    # a = 2 - sqrt(2).  Gaps are relative to max(sigma, 1/sigma) for M^3 + I
    # and to the orbit's largest radius for the iterates.
    rng = np.random.default_rng(0)
    worst_cube = worst_flip = worst_six = worst_decay = 0.0
    least_eight = np.inf
    for _ in range(1000):
        x0, lam0 = rng.standard_normal(2)
        sigma = float(10.0 ** rng.uniform(-2, 2))
        m = toysaddle.abe_matrix(0.0, 1.0, sigma)
        cube_gap = float(np.abs(np.linalg.matrix_power(m, 3) + np.eye(2)).max())
        worst_cube = max(worst_cube, cube_gap / max(sigma, 1.0 / sigma))
        traj = toysaddle.abe_s0(x0, lam0, theta=0.0, a=1.0, sigma=sigma, k_max=16)
        z = np.stack([traj.xs, traj.lams], axis=1)
        scale = float(traj.radii.max())
        worst_flip = max(worst_flip, float(np.abs(z[3:] + z[:-3]).max()) / scale)
        worst_six = max(worst_six, float(np.abs(z[6:] - z[:-6]).max()) / scale)
        least_eight = min(least_eight, float(np.abs(z[8:] - z[:-8]).max()) / scale)
        decay = float(traj.radii[:6].min() - traj.radii[6:].min()) / scale
        worst_decay = max(worst_decay, decay)
    assert worst_cube <= 1e-12, f"max |M^3 + I| = {worst_cube:.3e}"
    assert worst_flip <= 1e-12, f"max |z[k+3] + z[k]| = {worst_flip:.3e}"
    assert worst_six <= 1e-12, f"max |z[k+6] - z[k]| = {worst_six:.3e}"
    assert least_eight >= 0.5, f"min max |z[k+8] - z[k]| = {least_eight:.3e}"
    assert worst_decay <= 1e-12, f"radius decays by {worst_decay:.3e}"


def test_02_sigma_sweep_tuning_beats_gradient_descent():
    sigmas = toysaddle.log_sigma_grid()
    sweeps = {a: toysaddle.sigma_sweep(a, sigmas, k_max=100) for a in (0.01, 0.1, 1.0)}
    assert all(np.all(np.isfinite(m)) for m in sweeps.values())
    # (window for the best sigma, matched gradient-descent contraction rate)
    for a, (lo, hi, gd_rate) in {0.01: (0.1, 0.4, 0.99), 0.1: (0.3, 0.8, 0.9)}.items():
        mags = sweeps[a]
        i = int(np.argmin(mags))
        assert 0 < i < len(sigmas) - 1, f"a={a}: minimum sits on the sweep edge"
        assert lo <= sigmas[i] <= hi, f"a={a}: best sigma {sigmas[i]:.4g}"
        assert mags[i] < gd_rate**100, f"a={a}: tuned magnitude {mags[i]:.3e}"


def test_03_operator_adjoints_and_fov_count(desk, oversampled):
    d_map = gradient(desk.grid)
    s_map = gaussian_smooth(desk.grid, 1.5)
    single = (oversampled.x_map, d_map, s_map)
    stacks = (
        stack([(1.0, oversampled.x_map), (0.7, d_map)]),
        stack([(1.0, oversampled.x_map), (0.7, d_map), (2.0, s_map)]),
    )
    for op in single + stacks:
        assert adjoint_dot_test(op, trials=100, seed=11) <= 1e-10, op.label
    assert np.count_nonzero(fov_active(ImageGrid(256, 256, 18.0))) == 51468


def test_04_prox_oracles():
    rng = np.random.default_rng(4)
    # finite active-set projection vs the exact sort-based threshold
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(int(rng.integers(1, 65)))
        r = float(rng.uniform(0.05, 1.2)) * max(np.abs(v).sum(), 1e-3)
        got = project_l1_ball(v, r).value
        want = l1_project_by_sort(v, r)[0]
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-8

    # splitting a vector into the conjugate-pair proxes recombines exactly
    worst = 0.0
    for _ in range(200):
        lam = rng.standard_normal(12)
        sigma = float(rng.uniform(0.2, 5.0))
        radius = float(rng.uniform(0.1, 3.0))
        left = prox_tvc_conjugate(lam, sigma, radius * sigma).value
        right = sigma * l1_project_by_sort(lam / sigma, radius)[0]
        worst = max(worst, float(np.max(np.abs(left + right - lam))))
    assert worst <= 2e-10

    # the box clip agrees with its three-case formula bit for bit
    v = rng.standard_normal(1000) * 3
    manual = np.where(v > 1.3, 1.3, np.where(v < -1.3, -1.3, v))
    assert np.array_equal(clip_linf(v, 1.3), manual)

    # quadratic-conjugate prox zeroes its stationarity equation
    for _ in range(100):
        lam = rng.standard_normal(20)
        g = rng.standard_normal(20)
        sigma = float(rng.uniform(0.1, 10.0))
        out = prox_lsq_conjugate(lam, sigma, g)
        assert np.max(np.abs(out - lam + sigma * (out + g))) <= 1e-12


def test_05_numeric_conjugates_match_analytic():
    x = np.linspace(-5.0, 5.0, 2001)
    h = float(x[1] - x[0])

    # I: quadratic c/2 x^2 -> m^2 / (2c)
    c = 2.0
    f = Grid1D(x, 0.5 * c * x**2)
    m = np.linspace(-8.0, 8.0, 1601)
    conj = lf_transform_numeric(f, m)
    bound = 2.0 * h * float(np.max(np.abs(c * x)))
    assert np.max(np.abs(conj.values - m**2 / (2 * c))) <= bound

    # II: absolute value -> indicator of [-1, 1] (flat zero inside)
    f_abs = Grid1D(x, np.abs(x))
    inside = lf_transform_numeric(f_abs, np.linspace(-0.95, 0.95, 39))
    assert np.max(np.abs(inside.values)) <= 2.0 * h

    # III: affine 1.5x + 0.7 -> point mass at slope 1.5 with value -0.7
    f_lin = Grid1D(x, 1.5 * x + 0.7)
    at_slope = lf_transform_numeric(f_lin, np.array([1.5, 2.0]))
    assert abs(at_slope.values[0] + 0.7) <= 2.0 * h * 1.5
    assert at_slope.values[1] >= 1.0  # away from the slope the sup grows

    # IV: interval indicator on [-2, 2] -> support function 2|m|
    ind = np.where(np.abs(x) <= 2.0, 0.0, np.inf)
    f_ind = Grid1D(x, ind)
    m4 = np.linspace(-4.0, 4.0, 1601)
    conj4 = lf_transform_numeric(f_ind, m4)
    assert np.max(np.abs(conj4.values - 2.0 * np.abs(m4))) <= 2.0 * h * 4.0

    # double transform returns the convex originals on interior samples
    back_q = lf_transform_numeric(lf_transform_numeric(f, np.linspace(-10, 10, 2001)), x[400:-400])
    want_q = 0.5 * c * x[400:-400] ** 2
    assert np.max(np.abs(back_q.values - want_q)) <= 2 * h * 10 + 2 * 0.01 * 5
    back_a = lf_transform_numeric(lf_transform_numeric(f_abs, np.linspace(-4, 4, 1601)), x[400:-400])
    assert np.max(np.abs(back_a.values - np.abs(x[400:-400]))) <= 2 * h * 4 + 2 * 0.005 * 5
    back_i = lf_transform_numeric(lf_transform_numeric(f_ind, m4), x[np.abs(x) <= 2.0])
    assert np.max(np.abs(back_i.values)) <= 2 * h * 4 + 2 * 0.005 * 2


def test_06_spectral_oracles():
    # Lanczos eigenpairs vs a dense eigendecomposition
    for seed in (0, 1, 2):
        mat = np.random.default_rng(seed).standard_normal((16, 16))
        eigs = leading_eigenpairs(from_dense(mat), 8, seed=seed + 100)
        vals, vecs = np.linalg.eigh(mat.T @ mat)
        want = vals[::-1][:8]
        assert np.max(np.abs(eigs.values - want) / want) <= 1e-5
        for i in range(8):
            cos = abs(eigs.vectors[i] @ vecs[:, ::-1][:, i])
            assert cos >= 0.999

    # with all eigenpairs kept, the truncated inverse is the true inverse
    vals = 16.0 / 2.0 ** np.arange(6)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))
    mat = np.diag(np.sqrt(vals)) @ q.T
    eigs = leading_eigenpairs(from_dense(mat), 6, seed=3)
    t_map = build_lowrank_T(eigs)
    gram = mat.T @ mat
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.standard_normal(6)
        assert np.max(np.abs(t_map(gram @ v) - v)) <= 1e-6

    # per-component steps keep the step-condition matrix positive semidefinite
    for seed in range(5):
        gen = np.random.default_rng(seed)
        mat = gen.uniform(0.1, 1.0, size=(7, 5))
        for rho in (0.5, 1.0, 2.0):
            plan = diagonal_steps(from_dense(mat)).scaled(rho)
            b = convergence_matrix(mat, plan.sigma, plan.tau)
            assert np.linalg.eigvalsh(b).min() >= -1e-8


def test_07_lsq_inverse_crime_convergence(desk, long_lsq_run):
    _, record = long_lsq_run
    for name in ("image_rmse", "data_rmse", "r_sigma", "r_tau", "grad_mag"):
        early = record.at_iteration(10, name)
        late = record.at_iteration(2000, name)
        assert late <= early / 100.0, f"{name}: {early:.3e} -> {late:.3e}"
    rmse = record.at_iteration(2000, "image_rmse")
    assert rmse < 1e-3 * desk.phantom.dynamic_range


def test_08_solver_ordering_at_matched_iterations(desk, oversampled, long_lsq_run):
    reference = desk.phantom.image
    grads = {0.1: long_lsq_run[1].at_iteration(500, "grad_mag")}
    for rho in (0.05, 0.2, 1.0, 5.0):
        plan = scalar_steps(oversampled.L).scaled(rho)
        _, rec = run_cppd(
            oversampled.problem, plan, 500, reference=reference, record_stride=100
        )
        grads[rho] = rec.at_iteration(500, "grad_mag")
    best_pd = min(grads.values())
    _, gd_rec = run_gd_lsq(
        oversampled.problem, 1.0, 500, reference=reference, L=oversampled.L,
        record_stride=100,
    )
    _, cg_rec = run_cgls(
        oversampled.x_map, oversampled.g, 500, reference=reference,
        active=desk.active, record_stride=100,
    )
    cgls = cg_rec.at_iteration(500, "grad_mag")
    gd = gd_rec.at_iteration(500, "grad_mag")
    assert cgls < best_pd < gd, f"cgls {cgls:.3e}, best primal-dual {best_pd:.3e}, gd {gd:.3e}"


def test_09_lowrank_preconditioning_gains(desk, oversampled, long_lsq_run):
    scalar_rmse = long_lsq_run[1].at_iteration(200, "image_rmse")
    rmses = []
    for k in (1, 5, 25):
        eigs = leading_eigenpairs(oversampled.x_map, k, seed=0)
        plan = lowrank_steps(oversampled.x_map, eigs, seed=0).scaled(0.1)
        _, rec = run_cppd(
            oversampled.problem, plan, 200, reference=desk.phantom.image,
            record_stride=100,
        )
        rmses.append(rec.at_iteration(200, "image_rmse"))
    assert rmses[0] < scalar_rmse, f"K=1 {rmses[0]:.3e} vs scalar {scalar_rmse:.3e}"
    assert rmses[0] >= rmses[1] >= rmses[2], f"not monotone over K: {rmses}"


def test_10_tv_constrained_recovery_on_sparse_views(desk):
    ph = desk.phantom
    x_map = projector(desk.grid, build_geometry("desk-sparse"))
    g = x_map(ph.image)
    d_map = gradient(desk.grid)
    nu = spectral_norm(x_map, seed=0) / spectral_norm(d_map, seed=0)
    tvc = ProblemSpec(
        "tvclsq", x_map, g, d_map=d_map, gamma=ph.tv_value, nu=nu, active=desk.active
    )
    plan = scalar_steps(spectral_norm(tvc.operator(), seed=0))
    state, rec = run_cppd(
        tvc, plan, 4000, reference=ph.image, record_stride=50, validate_prox=True
    )
    tv_final = float(np.abs(d_map(state.x)).sum())
    assert tv_final <= ph.tv_value * (1.0 + 1e-6), f"TV {tv_final} vs {ph.tv_value}"

    # every recorded dual update stayed within twice the root-solve tolerance
    res = np.asarray(rec.prox_residual)
    tol = np.asarray(rec.prox_tol)
    assert not np.any(np.isnan(res[1:]))
    assert np.all(res[1:] <= 2.0 * tol[1:])

    # the constraint pays off against plain least squares on the same data
    lsq = ProblemSpec("lsq", x_map, g, active=desk.active)
    plan_l = scalar_steps(spectral_norm(x_map, seed=0)).scaled(0.1)
    _, rec_l = run_cppd(lsq, plan_l, 1000, reference=ph.image, record_stride=50)
    constrained = rec.at_iteration(1000, "image_rmse")
    plain = rec_l.at_iteration(1000, "image_rmse")
    assert constrained < plain, f"tvclsq {constrained:.3e} vs lsq {plain:.3e}"


def test_11_deterministic_reruns(tmp_path):
    base = dict(
        nx=64,
        geometry="desk-oversampled",
        k_max=300,
        record_stride=10,
        rho=0.1,
        seed=7,
    )
    configs = {
        "lsq": dict(base),
        "tvclsq": dict(base, problem="tvclsq", geometry="desk-sparse", rho=1.0,
                       validate_prox=True),
    }
    for name, fields in configs.items():
        outputs = []
        for attempt in ("first", "second"):
            outdir = tmp_path / f"{name}_{attempt}"
            cfg = ExperimentConfig(**fields, outdir=str(outdir))
            cli.run_experiment(cfg)
            outputs.append(outdir)
        a, b = outputs
        for artifact in ("convergence.csv", "final_image.raw", "data.sng"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes(), (
                f"{name}: {artifact} differs between identical runs"
            )
