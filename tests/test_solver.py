"""Tests for the primal-dual solvers, baselines, and metric recording.

Oracles: hand-evaluated gap formulas, the closed-form 1D quadratic
update matrix, the sort-based l1 projection, dense least-squares
solutions, and step-by-step re-execution of the update equations.
"""

import numpy as np
import pytest

from pdtomo.ct import ImageGrid, build_geometry, fov_active, gradient, projector
from pdtomo.phantom import generate
from pdtomo.prox import project_l1_ball_sorted
from pdtomo.solver import (
    DIVERGENCE_WINDOW,
    _DivergenceGuard,
    CSV_COLUMNS,
    ConvergenceRecord,
    DivergenceError,
    ProblemSpec,
    SaddleState,
    cppd_step,
    image_rmse,
    make_prox,
    metrics,
    run_cgls,
    run_cppd,
    run_gd_lsq,
)
from pdtomo.linop import LinearMap
from pdtomo.spectral import (
    StepPlan,
    diagonal_steps,
    leading_eigenpairs,
    lowrank_steps,
    scalar_steps,
    spectral_norm,
)
from pdtomo.toysaddle import cppd_matrix

from oracles import from_dense, identity


@pytest.fixture(scope="module")
def tiny():
    """Small but genuine CT least-squares instance with consistent data."""
    grid = ImageGrid(16, 16, 18.0)
    geom = build_geometry("desk-full", n_views=12, n_bins=24)
    x_map = projector(grid, geom)
    ph = generate(grid, 3)
    g = x_map(ph.image)
    L = spectral_norm(x_map)
    return {
        "grid": grid,
        "x_map": x_map,
        "d_map": gradient(grid),
        "phantom": ph,
        "g": g,
        "L": L,
        "active": fov_active(grid),
    }


def tv_weight(inst):
    return spectral_norm(inst["x_map"]) / spectral_norm(inst["d_map"])


def lsq_problem(inst):
    return ProblemSpec(
        kind="lsq", x_map=inst["x_map"], g=inst["g"], active=inst["active"]
    )


# ------------------------------------------------------------- ProblemSpec


def test_problem_spec_validation(tiny):
    with pytest.raises(ValueError, match="unknown problem kind"):
        ProblemSpec(kind="ridge", x_map=tiny["x_map"], g=tiny["g"])
    with pytest.raises(ValueError, match="does not match"):
        ProblemSpec(kind="lsq", x_map=tiny["x_map"], g=np.zeros(3))
    with pytest.raises(ValueError, match="needs a gradient"):
        ProblemSpec(kind="tvlsq", x_map=tiny["x_map"], g=tiny["g"], beta=1.0)
    with pytest.raises(ValueError, match="nu must be positive"):
        ProblemSpec(
            kind="tvlsq",
            x_map=tiny["x_map"],
            g=tiny["g"],
            d_map=tiny["d_map"],
            nu=0.0,
        )
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        ProblemSpec(
            kind="tvlsq",
            x_map=tiny["x_map"],
            g=tiny["g"],
            d_map=tiny["d_map"],
            beta=-0.1,
        )
    with pytest.raises(ValueError, match="gamma must be positive"):
        ProblemSpec(
            kind="tvclsq", x_map=tiny["x_map"], g=tiny["g"], d_map=tiny["d_map"]
        )


def test_problem_operator_stacks_with_weight(tiny, rng):
    nu = tv_weight(tiny)
    spec = ProblemSpec(
        kind="tvlsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        beta=0.1,
        nu=nu,
    )
    op = spec.operator()
    m_s = tiny["x_map"].range_dim
    assert op.shape == (m_s + tiny["d_map"].range_dim, tiny["x_map"].domain_dim)
    v = rng.standard_normal(op.domain_dim)
    out = op(v)
    assert np.array_equal(out[:m_s], tiny["x_map"](v))
    assert np.array_equal(out[m_s:], nu * tiny["d_map"](v))
    assert lsq_problem(tiny).operator() is tiny["x_map"]


# -------------------------------------------------- update-step equivalences


def test_single_step_matches_1d_quadratic_matrix(rng):
    # the solver step on a 1x1 identity system with zero data reduces to
    # the closed-form 2x2 update matrix
    for _ in range(30):
        a_prod = rng.uniform(0.05, 1.0)
        sigma = 10 ** rng.uniform(-1, 1)
        plan = StepPlan(sigma=sigma, tau=a_prod / sigma)
        spec = ProblemSpec(kind="lsq", x_map=identity(1), g=np.zeros(1))
        prox = make_prox(spec)
        z = rng.standard_normal(2)
        state = SaddleState(
            x=z[:1].copy(), lam=z[1:].copy(), xbar=z[:1].copy(), y=np.zeros(1)
        )
        stepped = cppd_step(state, plan, prox, identity(1))
        want = cppd_matrix(a_prod, sigma) @ z
        assert abs(stepped.x[0] - want[0]) <= 1e-14 * max(1, abs(want[0]))
        assert abs(stepped.lam[0] - want[1]) <= 1e-14 * max(1, abs(want[1]))


def chain_steps(problem, plan, k_max):
    a_map = problem.operator()
    prox = make_prox(problem)
    state = SaddleState(
        x=np.zeros(a_map.domain_dim),
        lam=np.zeros(a_map.range_dim),
        xbar=np.zeros(a_map.domain_dim),
        y=np.zeros(a_map.range_dim),
    )
    for _ in range(k_max):
        state = cppd_step(state, plan, prox, a_map)
    return state


def test_lsq_loop_equals_repeated_steps(tiny):
    plan = scalar_steps(tiny["L"]).scaled(0.5)
    spec = lsq_problem(tiny)
    final, _ = run_cppd(spec, plan, k_max=25)
    manual = chain_steps(spec, plan, 25)
    assert np.array_equal(final.x, manual.x)
    assert np.array_equal(final.lam, manual.lam)
    assert np.array_equal(final.y, manual.y)


def test_tvlsq_loop_equals_repeated_steps(tiny):
    nu = tv_weight(tiny)
    spec = ProblemSpec(
        kind="tvlsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        beta=0.05,
        nu=nu,
    )
    plan = scalar_steps(spectral_norm(spec.operator()))
    final, _ = run_cppd(spec, plan, k_max=20)
    manual = chain_steps(spec, plan, 20)
    assert np.array_equal(final.x, manual.x)
    assert np.array_equal(final.lam, manual.lam)
    assert np.array_equal(final.y, manual.y)


def test_tvclsq_loop_equals_repeated_steps(tiny):
    nu = tv_weight(tiny)
    gamma = generate(tiny["grid"], 3).tv_value
    spec = ProblemSpec(
        kind="tvclsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        gamma=gamma,
        nu=nu,
    )
    plan = scalar_steps(spectral_norm(spec.operator()))
    final, _ = run_cppd(spec, plan, k_max=15)
    manual = chain_steps(spec, plan, 15)
    assert np.array_equal(final.x, manual.x)
    assert np.array_equal(final.lam, manual.lam)
    assert np.array_equal(final.y, manual.y)


def test_diagonal_plan_loop_equals_repeated_steps(tiny):
    # row/column-sum steps need nonnegative entries, so they pair with
    # the projector-only problem
    spec = lsq_problem(tiny)
    plan = diagonal_steps(spec.operator())
    final, _ = run_cppd(spec, plan, k_max=12)
    manual = chain_steps(spec, plan, 12)
    assert np.array_equal(final.x, manual.x)
    assert np.array_equal(final.lam, manual.lam)
    assert np.array_equal(final.y, manual.y)


def test_lowrank_plan_loop_equals_repeated_steps(tiny):
    # the primal step is the matrix T, applied as a LinearMap
    spec = lsq_problem(tiny)
    a_map = spec.operator()
    plan = lowrank_steps(a_map, leading_eigenpairs(a_map, 4)).scaled(0.5)
    assert isinstance(plan.tau, LinearMap)
    final, _ = run_cppd(spec, plan, k_max=12)
    manual = chain_steps(spec, plan, 12)
    assert np.array_equal(final.x, manual.x)
    assert np.array_equal(final.lam, manual.lam)
    assert np.array_equal(final.y, manual.y)


def test_strided_run_matches_every_step_run(tiny):
    # run_cppd skips y on the steps it does not record; the iterates,
    # the final y and the recorded metrics are those of a run that
    # records every step
    nu = tv_weight(tiny)
    spec = ProblemSpec(
        kind="tvclsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        gamma=generate(tiny["grid"], 3).tv_value,
        nu=nu,
    )
    plan = scalar_steps(spectral_norm(spec.operator()))
    strided, rec = run_cppd(spec, plan, k_max=30, record_stride=4)
    every, full = run_cppd(spec, plan, k_max=30)
    for name in ("x", "lam", "y", "ax", "atl"):
        assert np.array_equal(getattr(strided, name), getattr(every, name)), name
    assert strided.beta == every.beta > 0.0
    assert rec.iters == [0, 4, 8, 12, 16, 20, 24, 28, 30]
    for k in rec.iters:
        for name in ("r_sigma", "cpd_gap", "beta"):
            assert rec.at_iteration(k, name) == full.at_iteration(k, name)


def test_step_carries_products_exactly(tiny):
    # the carried A x and A^T lambda equal fresh applies of the operator
    plan = scalar_steps(tiny["L"]).scaled(0.5)
    spec = lsq_problem(tiny)
    state = chain_steps(spec, plan, 7)
    a_map = spec.operator()
    assert state.iteration == 7
    assert np.allclose(state.ax, a_map(state.x), rtol=1e-12, atol=1e-12)
    assert np.array_equal(state.atl, a_map.adjoint(state.lam))


# ------------------------------------------------------- residual identities


def test_dual_residual_identity(tiny):
    # A x+ - y+ = -[(lam - lam+)/sigma + A(x+ - x)] holds exactly
    plan = scalar_steps(tiny["L"])
    spec = lsq_problem(tiny)
    a_map = spec.operator()
    prox = make_prox(spec)
    state = SaddleState(
        x=np.zeros(a_map.domain_dim),
        lam=np.zeros(a_map.range_dim),
        xbar=np.zeros(a_map.domain_dim),
        y=np.zeros(a_map.range_dim),
    )
    for _ in range(8):
        new = cppd_step(state, plan, prox, a_map)
        r_sigma = a_map(new.x) - new.y
        claim = -((state.lam - new.lam) / plan.sigma + a_map(new.x - state.x))
        assert np.allclose(r_sigma, claim, atol=1e-12)
        state = new


def test_recorded_metrics_match_fresh_recomputation(tiny):
    plan = scalar_steps(tiny["L"]).scaled(0.3)
    spec = lsq_problem(tiny)
    ref = tiny["phantom"].image
    final, record = run_cppd(spec, plan, k_max=30, reference=ref)
    fresh = metrics(final, spec, reference=ref)
    for name in ("r_sigma", "r_tau", "image_rmse", "data_rmse", "grad_mag", "cpd_gap"):
        recorded = record.at_iteration(30, name)
        assert recorded == pytest.approx(fresh[name], rel=1e-10, abs=1e-12)


# ----------------------------------------------------------------- cPD gap


def test_cpd_gap_lsq_closed_form(tiny, rng):
    spec = lsq_problem(tiny)
    x = rng.standard_normal(spec.x_map.domain_dim)
    lam = rng.standard_normal(spec.x_map.range_dim)
    state = SaddleState(x=x, lam=lam, xbar=x, y=spec.x_map(x))
    got = metrics(state, spec)["cpd_gap"]
    ax = spec.x_map(x)
    want = 0.5 * np.sum((ax - spec.g) ** 2) + 0.5 * np.sum(lam**2) + lam @ spec.g
    assert got == pytest.approx(want, rel=1e-12)


def test_cpd_gap_tvlsq_closed_form(tiny, rng):
    nu = tv_weight(tiny)
    beta = 0.2
    spec = ProblemSpec(
        kind="tvlsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        beta=beta,
        nu=nu,
    )
    op = spec.operator()
    m_s = tiny["x_map"].range_dim
    x = rng.standard_normal(op.domain_dim)
    lam = rng.standard_normal(op.range_dim)
    state = SaddleState(x=x, lam=lam, xbar=x, y=op(x))
    out = metrics(state, spec)
    ax = op(x)
    data_part = (
        0.5 * np.sum((ax[:m_s] - spec.g) ** 2)
        + 0.5 * np.sum(lam[:m_s] ** 2)
        + lam[:m_s] @ spec.g
    )
    assert out["cpd_gap"] == pytest.approx(
        data_part + (beta / nu) * np.abs(ax[m_s:]).sum(), rel=1e-12
    )
    assert out["constraint_gap"] == pytest.approx(
        max(0.0, np.abs(lam[m_s:]).max() - beta / nu), rel=1e-12
    )


def test_cpd_gap_tvclsq_closed_form(tiny, rng):
    nu = tv_weight(tiny)
    gamma = 1.5
    spec = ProblemSpec(
        kind="tvclsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        gamma=gamma,
        nu=nu,
    )
    op = spec.operator()
    m_s = tiny["x_map"].range_dim
    x = rng.standard_normal(op.domain_dim)
    lam = rng.standard_normal(op.range_dim)
    state = SaddleState(x=x, lam=lam, xbar=x, y=op(x))
    out = metrics(state, spec)
    ax = op(x)
    data_part = (
        0.5 * np.sum((ax[:m_s] - spec.g) ** 2)
        + 0.5 * np.sum(lam[:m_s] ** 2)
        + lam[:m_s] @ spec.g
    )
    assert out["cpd_gap"] == pytest.approx(
        data_part + nu * gamma * np.abs(lam[m_s:]).max(), rel=1e-12
    )
    assert out["constraint_gap"] == pytest.approx(
        max(0.0, np.abs(ax[m_s:]).sum() - nu * gamma), rel=1e-12
    )


def test_cpd_gap_vanishes_at_lsq_solution(tiny):
    # consistent data: the saddle point is (f_true, 0) with zero gap
    spec = lsq_problem(tiny)
    x = tiny["phantom"].image
    state = SaddleState(x=x, lam=np.zeros_like(spec.g), xbar=x, y=spec.x_map(x))
    assert abs(metrics(state, spec)["cpd_gap"]) <= 1e-18


# ------------------------------------------------------------- prox dispatch


def test_make_prox_lsq_closed_form(tiny, rng):
    spec = lsq_problem(tiny)
    prox = make_prox(spec)
    v = rng.standard_normal(spec.g.size)
    out, beta_now = prox(v, 0.7)
    assert beta_now == 0.0
    assert np.allclose(out, (v - 0.7 * spec.g) / 1.7, rtol=1e-14)


def test_make_prox_tvlsq_blocks(tiny, rng):
    nu = tv_weight(tiny)
    beta = 0.3
    spec = ProblemSpec(
        kind="tvlsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        beta=beta,
        nu=nu,
    )
    prox = make_prox(spec)
    m_s = tiny["x_map"].range_dim
    m = spec.operator().range_dim
    v = rng.standard_normal(m) * 3
    out, _ = prox(v, 0.5)
    assert np.allclose(out[:m_s], (v[:m_s] - 0.5 * spec.g) / 1.5, rtol=1e-14)
    assert np.array_equal(out[m_s:], np.clip(v[m_s:], -beta / nu, beta / nu))


def test_make_prox_tvlsq_zero_beta_kills_gradient_dual(tiny, rng):
    spec = ProblemSpec(
        kind="tvlsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        beta=0.0,
        nu=1.0,
    )
    prox = make_prox(spec)
    m_s = tiny["x_map"].range_dim
    v = rng.standard_normal(spec.operator().range_dim)
    out, _ = prox(v, 1.0)
    assert np.all(out[m_s:] == 0.0)


def test_make_prox_tvclsq_matches_sorted_projection(tiny, rng):
    nu = tv_weight(tiny)
    gamma = 0.8
    spec = ProblemSpec(
        kind="tvclsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        gamma=gamma,
        nu=nu,
    )
    prox = make_prox(spec)
    m_s = tiny["x_map"].range_dim
    v = rng.standard_normal(spec.operator().range_dim) * 2
    sigma = 0.6
    out, beta_now = prox(v, sigma)
    want = v[m_s:] - project_l1_ball_sorted(v[m_s:], nu * gamma * sigma).value
    assert np.max(np.abs(out[m_s:] - want)) <= 1e-8
    assert beta_now >= 0.0


@pytest.mark.parametrize("kind", ["tvlsq", "tvclsq"])
def test_run_cppd_rejects_per_component_sigma_on_tv(tiny, kind):
    # the TV dual prox clips the gradient block with one scalar sigma
    spec = ProblemSpec(
        kind=kind,
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        beta=0.3,
        gamma=0.8,
        nu=tv_weight(tiny),
    )
    a_map = spec.operator()
    plan = StepPlan(np.ones(a_map.range_dim), 1.0)
    with pytest.raises(ValueError, match="scalar sigma"):
        run_cppd(spec, plan, k_max=1)


# -------------------------------------------------------- divergence guard


def test_divergence_guard_trips_on_bad_norm_estimate(tiny):
    # deliberately underestimating L violates sigma*tau <= 1/L^2
    plan = scalar_steps(0.01 * tiny["L"])
    with pytest.raises(DivergenceError, match="iteration"):
        run_cppd(lsq_problem(tiny), plan, k_max=300)


def test_divergence_guard_trip_iterations(tiny):
    # the iterations at which the unbounded-list guard tripped
    plan = scalar_steps(0.01 * tiny["L"])
    with pytest.raises(DivergenceError, match=r"\(at iteration 12\)"):
        run_cppd(lsq_problem(tiny), plan, k_max=300)
    with pytest.warns(RuntimeWarning, match="alpha"):
        with pytest.raises(DivergenceError, match=r"\(at iteration 11\)"):
            run_gd_lsq(lsq_problem(tiny), 20.0, 300, L=tiny["L"])


def test_divergence_guard_history_is_bounded():
    guard = _DivergenceGuard()
    for k in range(1000):
        guard.check(np.full(4, 1.0 + 1e-3 * k), k)
    assert len(guard.history) == DIVERGENCE_WINDOW + 1
    # the window reaches back exactly DIVERGENCE_WINDOW checks, no further
    guard = _DivergenceGuard()
    guard.check(np.full(4, 1e-3), 0)
    for k in range(1, DIVERGENCE_WINDOW + 1):
        guard.check(np.full(4, 1.0), k)
    guard.check(np.full(4, 2e3), DIVERGENCE_WINDOW + 1)
    for k in range(DIVERGENCE_WINDOW + 2, 2 * DIVERGENCE_WINDOW + 1):
        guard.check(np.full(4, 2e3), k)
    with pytest.raises(DivergenceError, match="at iteration 21"):
        guard.check(np.full(4, 3e9), 2 * DIVERGENCE_WINDOW + 1)


def test_step_rejects_nonfinite_state(tiny):
    plan = scalar_steps(tiny["L"])
    spec = lsq_problem(tiny)
    a_map = spec.operator()
    state = SaddleState(
        x=np.full(a_map.domain_dim, np.nan),
        lam=np.zeros(a_map.range_dim),
        xbar=np.zeros(a_map.domain_dim),
        y=np.zeros(a_map.range_dim),
    )
    with pytest.raises(DivergenceError, match="non-finite"):
        cppd_step(state, plan, make_prox(spec), a_map)


# ------------------------------------------------------------ record and CSV


def test_record_iteration_zero_and_stride(tiny):
    plan = scalar_steps(tiny["L"]).scaled(0.1)
    _, record = run_cppd(lsq_problem(tiny), plan, k_max=10, record_stride=3)
    assert record.iters == [0, 3, 6, 9, 10]
    _, dense_rec = run_cppd(lsq_problem(tiny), plan, k_max=4)
    assert dense_rec.iters == [0, 1, 2, 3, 4]


def test_csv_schema_and_round_trip(tiny, tmp_path):
    plan = scalar_steps(tiny["L"]).scaled(0.1)
    _, record = run_cppd(
        lsq_problem(tiny), plan, k_max=5, reference=tiny["phantom"].image
    )
    path = tmp_path / "conv.csv"
    record.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 7
    # beta is undefined for lsq: its cells stay empty
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == ""
    # repr round-trips exactly
    cells = lines[3].split(",")
    assert float(cells[1]) == record.r_sigma[2]


def test_csv_empty_cells_for_cgls(tiny, tmp_path):
    _, record = run_cgls(tiny["x_map"], tiny["g"], k_max=4)
    path = tmp_path / "cgls.csv"
    record.to_csv(path)
    rows = path.read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert cells[1] == "" and cells[2] == "" and cells[7] == ""
        assert cells[5] != ""


def test_record_rejects_unknown_metric():
    record = ConvergenceRecord()
    with pytest.raises(TypeError, match="r_sigam"):
        record.append(0, r_sigam=1.0)
    assert record.iters == [] and record.r_sigma == []
    record.append(0, r_sigma=1.0)
    assert record.r_sigma == [1.0] and np.isnan(record.cpd_gap[0])
    with pytest.raises(AttributeError):
        record.r_sigam


def test_record_lookup_helpers(tiny):
    plan = scalar_steps(tiny["L"]).scaled(0.1)
    _, record = run_cppd(lsq_problem(tiny), plan, k_max=6)
    col = record.column("r_sigma")
    assert col.size == 7
    assert record.at_iteration(6, "r_sigma") == col[-1]
    with pytest.raises(ValueError):
        record.at_iteration(99, "r_sigma")


def test_image_rmse_masking():
    ref = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.array([1.0, 2.0, 5.0, 4.0])
    active = np.array([True, True, False, True])
    assert image_rmse(x, ref, None) == pytest.approx(1.0)
    assert image_rmse(x, ref, active) == 0.0
    assert np.isnan(image_rmse(x, None, None))


# ------------------------------------------------------------------ baselines


def test_gd_warns_outside_stability_range(tiny):
    spec = lsq_problem(tiny)
    with pytest.warns(RuntimeWarning, match="alpha"):
        run_gd_lsq(spec, alpha=2.5, k_max=2, L=tiny["L"])


def test_baselines_leave_the_dual_state_unformed(tiny):
    # the caller reads only x: no final apply fills y, and xbar is x
    spec = lsq_problem(tiny)
    gd, _ = run_gd_lsq(spec, alpha=1.0, k_max=3, L=tiny["L"])
    cgls, _ = run_cgls(spec.x_map, spec.g, k_max=3)
    for state in (gd, cgls):
        assert state.iteration == 3
        assert state.y is None and state.xbar is state.x


def test_gd_decreases_gradient_and_leaves_pd_columns_empty(tiny):
    spec = lsq_problem(tiny)
    _, record = run_gd_lsq(spec, alpha=1.0, k_max=200, L=tiny["L"])
    grad = record.column("grad_mag")
    assert grad[-1] < 1e-2 * grad[1]
    assert np.all(np.isnan(record.column("r_sigma")))
    assert np.all(np.isnan(record.column("cpd_gap")))


def test_cgls_matches_dense_least_squares(rng):
    a = rng.standard_normal((12, 5))
    g = rng.standard_normal(12)
    state, record = run_cgls(from_dense(a), g, k_max=10)
    want, *_ = np.linalg.lstsq(a, g, rcond=None)
    assert np.allclose(state.x, want, atol=1e-8)
    assert record.column("grad_mag")[-1] <= 1e-8


def test_cgls_exact_finite_termination(tiny):
    # CG reaches the normal-equations solution within rank(A) iterations;
    # on the consistent tiny instance the gradient collapses by orders
    spec = lsq_problem(tiny)
    _, record = run_cgls(
        spec.x_map, spec.g, k_max=300, reference=tiny["phantom"].image,
        active=tiny["active"],
    )
    assert record.column("grad_mag")[-1] <= 1e-10 * record.column("grad_mag")[0]


def test_cgls_breakdown_stops_cleanly(tiny):
    state, record = run_cgls(tiny["x_map"], np.zeros_like(tiny["g"]), k_max=5)
    assert record.iters == [0]
    assert np.all(state.x == 0.0)


def test_cgls_early_stop_records_converged_iterate():
    # on the identity CGLS converges in one step, then breaks down
    g = np.linspace(1.0, 2.0, 8)
    state, record = run_cgls(identity(8), g, k_max=50, reference=g, record_stride=10)
    assert state.iteration == 1
    assert record.iters == [0, 1]
    assert np.array_equal(state.x, g)
    assert record.image_rmse[-1] == 0.0


def test_run_cppd_dispatch_and_kind_checks(tiny):
    plan = scalar_steps(tiny["L"]).scaled(0.1)
    spec = lsq_problem(tiny)
    final, _ = run_cppd(spec, plan, k_max=5)
    assert final.iteration == 5
    with pytest.raises(ValueError, match="expects an lsq"):
        run_gd_lsq(
            ProblemSpec(
                kind="tvlsq",
                x_map=tiny["x_map"],
                g=tiny["g"],
                d_map=tiny["d_map"],
                beta=0.1,
            ),
            alpha=1.0,
            k_max=2,
            L=tiny["L"],
        )
    with pytest.raises(ValueError, match="k_max"):
        run_cppd(spec, plan, k_max=0)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        run_gd_lsq(spec, 1.0, 0, L=tiny["L"])


# -------------------------------------------------------- the runner loop

# Each solver on an lsq problem, called as run(tiny, problem, k_max=...,
# record_stride=...).
RUNNERS = {
    "cppd": lambda t, spec, **kw: run_cppd(spec, scalar_steps(t["L"]), **kw),
    "gd": lambda t, spec, **kw: run_gd_lsq(spec, 1.0, L=t["L"], **kw),
    "cgls": lambda t, spec, **kw: run_cgls(spec.x_map, spec.g, **kw),
}


@pytest.mark.parametrize("solver", sorted(RUNNERS))
def test_runners_reject_record_stride_below_one(tiny, solver):
    with pytest.raises(ValueError, match="record_stride must be >= 1"):
        RUNNERS[solver](tiny, lsq_problem(tiny), k_max=5, record_stride=0)


@pytest.mark.parametrize("solver", sorted(RUNNERS))
def test_runners_share_one_record_policy(tiny, solver):
    # iteration 0, every stride-th iteration and the last one reached
    spec = lsq_problem(tiny)
    state, record = RUNNERS[solver](tiny, spec, k_max=10, record_stride=3)
    assert record.iters == [0, 3, 6, 9, 10]
    assert state.iteration == record.iters[-1]
    state, record = RUNNERS[solver](tiny, spec, k_max=10, record_stride=20)
    assert record.iters == [0, 10]
    assert state.iteration == record.iters[-1]


# (forward, adjoint) applies of X for k_max = 10 and record_stride = 3,
# i.e. 5 records: CP one pair per step plus one X^T per record for the
# gradient; GD one pair per step plus its start; CGLS one pair per
# step, per record and at its start.
APPLY_BUDGET = {"cppd": (10, 15), "gd": (11, 11), "cgls": (16, 16)}


@pytest.mark.parametrize("solver", sorted(APPLY_BUDGET))
def test_runner_apply_budget(tiny, solver):
    x_map = tiny["x_map"]
    calls = {"X": 0, "XT": 0}

    def counted(name, fn):
        def wrapper(v):
            calls[name] += 1
            return fn(v)

        return wrapper

    counting = LinearMap(
        x_map.domain_dim,
        x_map.range_dim,
        counted("X", x_map),
        counted("XT", x_map.adjoint),
    )
    spec = ProblemSpec(kind="lsq", x_map=counting, g=tiny["g"], active=tiny["active"])
    _, record = RUNNERS[solver](tiny, spec, k_max=10, record_stride=3)
    assert len(record.iters) == 5
    assert (calls["X"], calls["XT"]) == APPLY_BUDGET[solver]


def test_prox_check_costs_one_d_apply_per_record(tiny):
    # validate_prox rebuilds only the nu D rows of the dual argument, so
    # each checked record (every one but iteration 0's) costs one D, no X
    calls = {"X": 0, "XT": 0, "D": 0, "DT": 0}

    def counted(name, m):
        def call(fn, key):
            def wrapper(v):
                calls[key] += 1
                return fn(v)

            return wrapper

        return LinearMap(m.domain_dim, m.range_dim, call(m, name), call(m.adjoint, name + "T"))

    nu, gamma = tv_weight(tiny), 0.7 * tiny["phantom"].tv_value
    parts = dict(g=tiny["g"], gamma=gamma, nu=nu, active=tiny["active"])
    plain = ProblemSpec(kind="tvclsq", x_map=tiny["x_map"], d_map=tiny["d_map"], **parts)
    plan = scalar_steps(spectral_norm(plain.operator()))
    spec = ProblemSpec(
        kind="tvclsq", x_map=counted("X", tiny["x_map"]), d_map=counted("D", tiny["d_map"]), **parts
    )
    _, record = run_cppd(spec, plan, k_max=10, record_stride=3, validate_prox=True)
    assert len(record.iters) == 5
    # CP's pair per step and X^T per record, plus one D per checked record
    assert calls == {"X": 10, "XT": 15, "D": 14, "DT": 10}


def test_cgls_raises_on_nonfinite_iterate():
    # X = 1e200 I overflows at the first step; the image goes NaN
    huge = LinearMap(3, 3, lambda x: 1e200 * x, lambda y: 1e200 * y)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite image norm at iteration 1"):
            run_cgls(huge, np.full(3, 1e200), 3)


# -------------------------------------------------------- convergence facts


def test_lsq_converges_on_consistent_data(tiny):
    spec = lsq_problem(tiny)
    plan = scalar_steps(tiny["L"]).scaled(0.3)
    _, record = run_cppd(
        spec, plan, k_max=1500, reference=tiny["phantom"].image, record_stride=100
    )
    assert record.at_iteration(1500, "image_rmse") < 1e-6
    assert record.at_iteration(1500, "r_sigma") < 1e-4 * record.column("r_sigma")[1]


def test_tvclsq_kkt_conditions_at_convergence(tiny):
    nu = tv_weight(tiny)
    gamma = 0.7 * tiny["phantom"].tv_value
    spec = ProblemSpec(
        kind="tvclsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        gamma=gamma,
        nu=nu,
        active=tiny["active"],
    )
    plan = scalar_steps(spectral_norm(spec.operator()))
    final, record = run_cppd(
        spec, plan, k_max=6000, record_stride=1000, validate_prox=True
    )
    # primal feasibility: the TV of the image respects the constraint
    tv_final = float(np.abs(tiny["d_map"](final.x)).sum())
    assert tv_final <= gamma * (1 + 1e-6)
    # stationarity: A^T lambda tends to zero
    assert record.at_iteration(6000, "r_tau") <= 1e-3 * record.column("r_tau")[1]
    # the data-block dual matches its fixed point lam_s = X f - g
    m_s = tiny["x_map"].range_dim
    assert np.allclose(final.lam[:m_s], tiny["x_map"](final.x) - spec.g, atol=1e-4)
    # every recorded prox residual is within its tolerance
    res = record.column("prox_residual")[1:]
    tol = record.column("prox_tol")[1:]
    assert np.all(res <= 2 * tol)


def test_tvclsq_prox_residual_at_rounding_level(tiny):
    # the exact l1-ball prox matches the sort-based reference to rounding:
    # 1e-15 relative to max(1, ||v_g||_1), i.e. 1e-5 of the recorded bound
    # (a bisection threshold misses it by orders of magnitude)
    spec = ProblemSpec(
        kind="tvclsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        gamma=0.3 * tiny["phantom"].tv_value,
        nu=tv_weight(tiny),
    )
    plan = scalar_steps(spectral_norm(spec.operator()))
    _, record = run_cppd(
        spec, plan, k_max=300, record_stride=30, validate_prox=True
    )
    assert np.all(np.asarray(record.column("beta")[1:]) > 0)
    res = np.asarray(record.column("prox_residual")[1:])
    tol = np.asarray(record.column("prox_tol")[1:])
    assert np.all(res <= 1e-5 * tol)


def test_tvlsq_beta_zero_matches_lsq_image(tiny):
    # with beta = 0 the TV penalty vanishes; the recovered image agrees
    # with the plain LSQ solve on the same data
    nu = tv_weight(tiny)
    spec_tv = ProblemSpec(
        kind="tvlsq",
        x_map=tiny["x_map"],
        g=tiny["g"],
        d_map=tiny["d_map"],
        beta=0.0,
        nu=nu,
        active=tiny["active"],
    )
    plan_tv = scalar_steps(spectral_norm(spec_tv.operator())).scaled(0.1)
    final_tv, _ = run_cppd(spec_tv, plan_tv, k_max=600)
    spec_ls = lsq_problem(tiny)
    plan_ls = scalar_steps(tiny["L"]).scaled(0.1)
    final_ls, _ = run_cppd(spec_ls, plan_ls, k_max=600)
    active = tiny["active"]
    assert np.max(np.abs(final_tv.x[active] - final_ls.x[active])) <= 5e-3
