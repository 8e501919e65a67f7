"""Tests for spectral estimation and step-size plans.

Oracles: numpy.linalg.eigh / SVD / inv on dense materializations, plus
closed-form spectra of constructed operators.
"""

import numpy as np
import pytest

from pdtomo.ct import (
    ImageGrid,
    build_geometry,
    gradient,
    gradient_norm,
    projector,
)
from pdtomo.linop import LinearMap, stack
from pdtomo.spectral import (
    EigenSet,
    StepPlan,
    build_lowrank_T,
    diagonal_steps,
    leading_eigenpairs,
    lowrank_steps,
    scalar_steps,
    sigma_for_T,
    spectral_norm,
)

from oracles import convergence_matrix, from_dense, identity, materialize_dense


def well_gapped_map(n=6, seed=5):
    """Map A with A^T A = Q diag(16, 8, ...) Q^T: known, well-separated spectrum."""
    vals = 16.0 / 2.0 ** np.arange(n)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    a = np.diag(np.sqrt(vals)) @ q.T
    return from_dense(a), a, vals, q


# ---------------------------------------------------------------- EigenSet


def test_eigenset_validation():
    EigenSet(np.eye(3), [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="one eigenvalue per"):
        EigenSet(np.eye(3), [1.0, 0.5])
    with pytest.raises(ValueError, match="not orthogonal"):
        EigenSet([[1.0, 0.0], [0.8, 0.6]], [2.0, 1.0])
    with pytest.raises(ValueError, match="not unit norm"):
        EigenSet([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
    with pytest.raises(ValueError, match="sorted descending"):
        EigenSet(np.eye(2), [1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        EigenSet(np.eye(2), [1.0, -0.5])


def test_eigenset_shape_properties():
    es = EigenSet(np.eye(4)[:2], [5.0, 1.0])
    assert es.k == 2 and es.n == 4


# ----------------------------------------------------------------- Lanczos


def test_spectral_norm_matches_dense_svd(rng):
    a = rng.standard_normal((12, 7))
    got = spectral_norm(from_dense(a))
    assert abs(got - np.linalg.norm(a, 2)) <= 1e-10 * np.linalg.norm(a, 2)


def test_spectral_norm_zero_operator():
    z = LinearMap(4, 3, lambda v: np.zeros(3), lambda w: np.zeros(4))
    assert spectral_norm(z) == 0.0


def test_leading_eigenpairs_match_dense_on_random_16x16():
    for seed in (0, 1, 2):
        a = np.random.default_rng(seed).standard_normal((16, 16))
        ew, ev = np.linalg.eigh(a.T @ a)
        ew, ev = ew[::-1], ev[:, ::-1]
        es = leading_eigenpairs(from_dense(a), 8, seed=0)
        assert np.max(np.abs(es.values - ew[:8]) / ew[:8]) <= 1e-5
        cosines = np.abs(np.sum(es.vectors * ev[:, :8].T, axis=1))
        assert cosines.min() >= 0.999


def test_leading_eigenpairs_diagonal_closed_form():
    es = leading_eigenpairs(from_dense(np.diag([4.0, 1.0])), 1)
    assert abs(es.values[0] - 16.0) <= 1e-10
    assert abs(abs(es.vectors[0, 0]) - 1.0) <= 1e-10
    assert abs(es.vectors[0, 1]) <= 1e-6


def test_leading_eigenpairs_rank_collapse():
    with pytest.raises(ValueError, match="rank is smaller than K"):
        leading_eigenpairs(from_dense(np.diag([1.0, 0.0])), 2)


def test_leading_eigenpairs_rank_collapse_in_lanczos():
    a = from_dense(np.diag([3.0, 2.0, 1.0] + [0.0] * 7))
    assert leading_eigenpairs(a, 3).k == 3
    with pytest.raises(ValueError, match="rank is smaller than K"):
        leading_eigenpairs(a, 4)


def test_leading_eigenpairs_restart_past_a_repeated_eigenvalue():
    # the Krylov space of A^T A = diag(4, 4, 4, 1, 1) has dimension 2, so
    # three pairs need a restart from a fresh vector after the breakdown
    es = leading_eigenpairs(from_dense(np.diag([2.0, 2.0, 2.0, 1.0, 1.0])), 3, seed=1)
    assert np.allclose(es.values, 4.0, rtol=0, atol=1e-12)
    assert np.abs(es.vectors[:, 3:]).max() <= 1e-12


def test_leading_eigenpairs_match_dense_on_small_ct_operator():
    x_map = projector(ImageGrid(16, 16, 18.0), build_geometry("desk-full", n_views=12, n_bins=24))
    a = materialize_dense(x_map)
    ew, ev = np.linalg.eigh(a.T @ a)
    want = ew[::-1][:25]
    es = leading_eigenpairs(x_map, 25, seed=7)
    assert np.max(np.abs(es.values - want) / want) <= 1e-10
    residual = es.vectors @ (a.T @ a) - es.values[:, None] * es.vectors
    assert np.linalg.norm(residual, axis=1).max() <= 1e-10 * want[0]


def test_leading_eigenpairs_match_arpack_on_desk_oversampled():
    # full-circle scans have exactly doubled eigenvalues; ARPACK serves
    # as an independent reference here only
    from scipy.sparse.linalg import LinearOperator, eigsh

    x_map = projector(ImageGrid(64, 64, 18.0), build_geometry("desk-oversampled"))
    n = x_map.domain_dim
    gram = LinearOperator((n, n), matvec=lambda v: x_map.adjoint(x_map(v)), dtype=float)
    v0 = np.random.default_rng(7).standard_normal(n)
    want = eigsh(gram, k=25, which="LA", v0=v0, return_eigenvectors=False)[::-1]
    got = leading_eigenpairs(x_map, 25, seed=7).values
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_leading_eigenpairs_repeat_bitwise_for_equal_seed():
    a = from_dense(np.random.default_rng(4).standard_normal((30, 20)))
    first = leading_eigenpairs(a, 5, seed=11)
    second = leading_eigenpairs(a, 5, seed=11)
    assert first.values.tobytes() == second.values.tobytes()
    assert first.vectors.tobytes() == second.vectors.tobytes()


def test_leading_eigenpairs_validation():
    amap = identity(3)
    with pytest.raises(ValueError, match="1 <= K <= 3"):
        leading_eigenpairs(amap, 4)
    with pytest.raises(ValueError, match="1 <= K <= 3"):
        leading_eigenpairs(amap, 0)


# ------------------------------------------------------------- low-rank T


def test_lowrank_T_k1_is_scaled_identity(rng):
    es = EigenSet(np.eye(5)[:1], [7.0])
    t = build_lowrank_T(es)
    v = rng.standard_normal(5)
    assert np.array_equal(t(v), v / 7.0)


def test_lowrank_T_exact_eigenset_inverts(rng):
    _, a, vals, q = well_gapped_map()
    es = EigenSet(q.T, vals)
    t = materialize_dense(build_lowrank_T(es))
    assert np.abs(t - np.linalg.inv(a.T @ a)).max() <= 1e-12


def test_lowrank_T_full_rank_matches_dense_inverse():
    amap, a, _, _ = well_gapped_map()
    es = leading_eigenpairs(amap, 6, seed=0)
    t = materialize_dense(build_lowrank_T(es))
    assert np.abs(t - np.linalg.inv(a.T @ a)).max() <= 1e-6


def test_lowrank_T_symmetric(rng):
    amap, *_ = well_gapped_map()
    t = build_lowrank_T(leading_eigenpairs(amap, 3))
    for _ in range(20):
        v, w = rng.standard_normal(6), rng.standard_normal(6)
        assert abs(t(v) @ w - v @ t(w)) <= 1e-12


def test_lowrank_T_rejects_zero_tail():
    es = EigenSet(np.eye(2), [1.0, 0.0])
    with pytest.raises(ValueError, match="not positive"):
        build_lowrank_T(es)


# -------------------------------------------------------------- step plans


def test_scalar_steps_equality_case():
    # power-of-two values make the product identity bitwise exact
    plan = scalar_steps(L=4.0)
    assert plan.sigma == plan.tau == 0.25
    plan = plan.scaled(2.0)
    assert plan.sigma * plan.tau == 1.0 / 16.0
    assert plan.sigma / plan.tau == 4.0
    generic = scalar_steps(L=5.3).scaled(0.7)
    assert generic.sigma * generic.tau == pytest.approx(1.0 / 5.3**2, rel=1e-15)


def test_scalar_steps_and_scaled_validation():
    for L in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="L must be positive"):
            scalar_steps(L)
    for rho in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="rho must be positive"):
            scalar_steps(1.0).scaled(rho)


def test_diagonal_steps_row_col_sums():
    a = np.array([[1.0, 2.0], [0.0, 3.0], [0.0, 0.0]])
    plan = diagonal_steps(from_dense(a)).scaled(2.0)
    assert np.allclose(plan.sigma, [2.0 / 3.0, 2.0 / 3.0, 0.0])
    assert np.allclose(plan.tau, [0.5, 0.1])
    # zero-sum rows stay zero through the reciprocal helper too
    recip = plan.sigma_reciprocal()
    assert recip[2] == 0.0 and np.allclose(recip[:2], 1.5)


def test_diagonal_steps_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        diagonal_steps(from_dense(np.array([[1.0, -1.0]])))
    with pytest.raises(ValueError, match="rho"):
        diagonal_steps(identity(2)).scaled(0.0)


def test_apply_tau_dispatch(rng):
    v = rng.standard_normal(3)
    assert np.allclose(scalar_steps(2.0).apply_tau(v), v / 2.0)
    diag_plan = StepPlan(sigma=np.ones(3), tau=np.array([1.0, 2.0, 4.0]))
    assert np.allclose(diag_plan.apply_tau(v), v * [1.0, 2.0, 4.0])
    map_plan = StepPlan(sigma=1.0, tau=from_dense(np.diag(np.full(3, 3.0))))
    assert np.allclose(map_plan.apply_tau(v), 3.0 * v)


def test_sigma_for_T_matches_dense_norm():
    amap, a, _, _ = well_gapped_map()
    m = a.T @ a
    for k in (1, 2, 4):
        t = build_lowrank_T(leading_eigenpairs(amap, k))
        got = sigma_for_T(amap, t)
        want = 1.0 / np.linalg.norm(materialize_dense(t) @ m, 2)
        assert abs(got - want) <= 1e-8 * want
        # truncated inverse pushes the top of the spectrum to exactly 1
        assert abs(got - 1.0) <= 1e-8


def small_ct():
    grid = ImageGrid(16, 16, 18.0)
    return grid, projector(grid, build_geometry("desk-full", n_views=12, n_bins=24))


def test_scalar_steps_from_spectral_norm_keep_the_step_condition():
    # sigma tau ||A||^2 <= 1 against a dense SVD: the estimate errs above
    grid, x_map = small_ct()
    nu = spectral_norm(x_map, seed=7) / gradient_norm(grid)
    for a_map in (x_map, stack([(1.0, x_map), (nu, gradient(grid))])):
        norm = np.linalg.norm(materialize_dense(a_map), 2)
        plan = scalar_steps(spectral_norm(a_map, seed=7))
        assert 1.0 - 1e-9 <= plan.sigma * plan.tau * norm**2 <= 1.0


def test_sigma_for_T_keeps_the_step_condition():
    # sigma0 rho(T A^T A) <= 1 against a dense eigendecomposition
    _, x_map = small_ct()
    a = materialize_dense(x_map)
    eigs = leading_eigenpairs(x_map, 5, seed=7)
    # the Lanczos pairs make T the exact inverse on their span, so
    # sigma0 is 1; pairs turned a little out of that span and
    # re-orthonormalised make T inexact, and sigma0 falls below 1
    noise = 0.05 * np.random.default_rng(7).standard_normal(eigs.vectors.shape)
    turned, _ = np.linalg.qr((eigs.vectors + noise).T)
    sigmas = []
    for t_eigs in (eigs, EigenSet(turned.T, eigs.values)):
        t_map = build_lowrank_T(t_eigs)
        rho = np.abs(np.linalg.eigvals(materialize_dense(t_map) @ (a.T @ a))).max()
        sigmas.append(sigma_for_T(x_map, t_map, seed=7))
        assert 1.0 - 1e-9 <= sigmas[-1] * rho <= 1.0
    assert sigmas[0] == pytest.approx(1.0, abs=1e-8) and sigmas[1] < 0.99


def test_sigma_for_T_zero_map_raises():
    z = LinearMap(3, 3, lambda v: np.zeros(3), lambda w: np.zeros(3))
    with pytest.raises(ValueError, match="is A zero"):
        sigma_for_T(z, identity(3))


def test_lowrank_steps_assembles_plan(rng):
    amap, a, _, _ = well_gapped_map()
    eigs = leading_eigenpairs(amap, 2, seed=0)
    plan = lowrank_steps(amap, eigs, seed=0).scaled(2.0)
    assert plan.sigma == pytest.approx(2.0, rel=1e-8)
    t = build_lowrank_T(eigs)
    v = rng.standard_normal(6)
    assert np.allclose(plan.apply_tau(v), t(v) / 2.0)


def test_lowrank_steps_accepts_precomputed_eigenset(rng):
    amap, a, vals, q = well_gapped_map()
    es = EigenSet(q.T[:3], vals[:3])
    plan = lowrank_steps(amap, es)
    v = rng.standard_normal(6)
    assert np.array_equal(plan.apply_tau(v), build_lowrank_T(es)(v))


def test_scaled_plan_moves_sigma_against_tau(rng):
    # rho scales sigma up and tau (or T) down: the product is kept, the
    # unscaled plan is left as it was, and rho = 1 changes no bit
    amap, a, _, _ = well_gapped_map()
    plans = (
        scalar_steps(np.linalg.norm(a, 2)),
        diagonal_steps(from_dense(np.abs(a))),
        lowrank_steps(amap, leading_eigenpairs(amap, 3, seed=0), seed=0),
    )
    v = rng.standard_normal(6)
    for plan in plans:
        sigma, tau_v = plan.sigma, plan.apply_tau(v)
        for rho in (0.1, 1.0, 8.0):
            out = plan.scaled(rho)
            assert np.array_equal(out.sigma, rho * sigma)
            assert np.allclose(out.apply_tau(v), tau_v / rho, rtol=1e-14, atol=0)
        same = plan.scaled(1.0)
        assert np.array_equal(same.sigma, sigma)
        assert np.array_equal(same.apply_tau(v), tau_v)
        assert np.array_equal(plan.apply_tau(v), tau_v)


# ---------------------------------------------------- convergence matrix B


def min_eig(b):
    return float(np.linalg.eigvalsh(b).min())


def test_convergence_matrix_scalar_plan_is_psd(rng):
    a = rng.standard_normal((5, 4))
    L = np.linalg.norm(a, 2)
    plan = scalar_steps(L).scaled(0.7)
    assert min_eig(convergence_matrix(a, plan.sigma, plan.tau)) >= -1e-8


def test_convergence_matrix_detects_violated_steps(rng):
    a = rng.standard_normal((5, 4))
    L = np.linalg.norm(a, 2)
    plan = scalar_steps(L)
    bad = convergence_matrix(a, 1.3 * plan.sigma, plan.tau)
    assert min_eig(bad) < -1e-8


def test_convergence_matrix_diagonal_plan_is_psd(rng):
    a = np.abs(rng.standard_normal((6, 4))) + 0.1
    plan = diagonal_steps(from_dense(a))
    assert min_eig(convergence_matrix(a, plan.sigma, plan.tau)) >= -1e-8


def test_convergence_matrix_lowrank_plan_is_psd():
    amap, a, _, _ = well_gapped_map()
    for k in (1, 3, 6):
        plan = lowrank_steps(amap, leading_eigenpairs(amap, k, seed=0), seed=0)
        for rho in (1.0, 0.3, 5.0):
            at_rho = plan.scaled(rho)
            assert min_eig(convergence_matrix(a, at_rho.sigma, at_rho.tau)) >= -1e-8


def test_convergence_matrix_accepts_dense_tau():
    amap, a, _, _ = well_gapped_map()
    t = materialize_dense(build_lowrank_T(leading_eigenpairs(amap, 2)))
    b = convergence_matrix(a, 1.0, t)
    assert min_eig(b) >= -1e-8


def test_convergence_matrix_validation():
    a = np.eye(2)
    with pytest.raises(ValueError, match="positive"):
        convergence_matrix(a, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        convergence_matrix(a, np.array([1.0, 0.0]), 1.0)
