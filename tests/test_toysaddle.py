"""Tests for the closed-form saddle-point dynamics.

Oracles: hand-derived closed forms (radius ratios, contraction factors,
matrix powers) and dense eigenvalue computations.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdtomo.toysaddle import (
    Trajectory2D,
    abe_matrix,
    abe_s0,
    backward_euler,
    cppd_1d_quadratic,
    cppd_matrix,
    forward_euler_s0,
    forward_euler_s1,
    log_sigma_grid,
    perfect_preconditioning,
    sigma_sweep,
)

from oracles import classify_critical_point

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


# ------------------------------------------------------------ forward Euler


def test_fe_s0_radius_ratio_exact():
    for alpha in (1.0, 0.5, -0.3):
        traj = forward_euler_s0(1.3, -0.7, alpha, 20)
        r = traj.radii
        ratios = r[1:] / r[:-1]
        assert np.max(np.abs(ratios - np.sqrt(1 + alpha**2))) <= 1e-12


def test_fe_s0_doubles_in_two_steps_at_unit_alpha():
    traj = forward_euler_s0(1.0, 0.0, 1.0, 2)
    assert traj.radii[2] == pytest.approx(2.0 * traj.radii[0], abs=1e-14)


def test_fe_s0_origin_is_fixed():
    traj = forward_euler_s0(0.0, 0.0, 0.7, 5)
    assert np.all(traj.xs == 0) and np.all(traj.lams == 0)


@given(x0=finite, lam0=finite, alpha=st.floats(min_value=-3, max_value=3))
def test_fe_s0_never_contracts(x0, lam0, alpha):
    traj = forward_euler_s0(x0, lam0, alpha, 3)
    r = traj.radii
    grow = np.sqrt(1 + alpha**2)
    assert np.all(r[1:] >= grow * r[:-1] - 1e-9 * (1 + r[:-1]))


def test_fe_s1_contraction_factor():
    traj = forward_euler_s1(2.0, -1.0, 0.25, 8)
    r = traj.radii
    assert np.allclose(r[1:] / r[:-1], 0.5, atol=1e-14)
    one_step = forward_euler_s1(3.0, 4.0, 0.5, 1)
    assert one_step.xs[1] == 0.0 and one_step.lams[1] == 0.0


def test_s0_s1_potentials_related_by_rotation(rng):
    # substituting x' = x + lam, lam' = x - lam turns x*lam into x^2 - lam^2
    for _ in range(50):
        x, lam = rng.standard_normal(2) * 5
        assert (x + lam) * (x - lam) == pytest.approx(x**2 - lam**2, rel=1e-12)


# ----------------------------------------------------------- backward Euler


def test_backward_euler_scalar_contraction():
    for alpha in (0.1, 1.0, 10.0):
        traj = backward_euler([[1.0]], alpha, [1.0], [0.0], 15)
        r = traj.radii
        want = 1.0 / np.sqrt(1 + alpha**2)
        assert np.max(np.abs(r[1:] / r[:-1] - want)) <= 1e-12


def test_backward_euler_radii_nonincreasing(rng):
    a = rng.standard_normal((3, 2))
    traj = backward_euler(a, 0.8, rng.standard_normal(2), rng.standard_normal(3), 30)
    r = traj.radii
    assert np.all(r[1:] <= r[:-1] + 1e-12)


def test_backward_euler_critical_point_stationary():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    traj = backward_euler(a, 2.0, [0.0, 1.0], [0.0, 1.0], 5)
    assert np.allclose(traj.xs, traj.xs[0], atol=1e-14)
    assert np.allclose(traj.lams, traj.lams[0], atol=1e-14)


def test_backward_euler_validation():
    with pytest.raises(ValueError, match="alpha"):
        backward_euler([[1.0]], 0.0, [1.0], [0.0], 3)
    with pytest.raises(ValueError, match="small dense"):
        backward_euler(np.eye(33), 1.0, np.zeros(33), np.zeros(33), 1)


# ------------------------------------------------- approximate backward Euler


def test_abe_theta1_a1_two_step_termination(rng):
    # the update matrix squares to zero, independent of sigma
    for _ in range(300):
        x0, lam0 = rng.standard_normal(2) * 10
        sigma = 10 ** rng.uniform(-1.5, 1.5)
        m = abe_matrix(1.0, 1.0, sigma)
        assert np.abs(m @ m).max() <= 1e-14
        traj = abe_s0(x0, lam0, theta=1.0, a=1.0, sigma=sigma, k_max=3)
        assert traj.radii[2] <= 1e-12
        assert traj.radii[3] <= 1e-12


def test_abe_theta0_a1_orbit_has_period_six():
    # trace 1, determinant 1 for every sigma: eigenvalues exp(+-i*pi/3),
    # so M^3 = -I and the orbit repeats every sixth step (never period 8)
    for sigma in (0.3, 0.7, 2.5):
        m = abe_matrix(0.0, 1.0, sigma)
        assert np.abs(np.linalg.matrix_power(m, 3) + np.eye(2)).max() <= 1e-12
        traj = abe_s0(1.0, 0.5, theta=0.0, a=1.0, sigma=sigma, k_max=13)
        z = np.stack([traj.xs, traj.lams], axis=1)
        assert np.abs(z[3:6] + z[0:3]).max() <= 1e-12
        assert np.abs(z[6:12] - z[0:6]).max() <= 1e-12
        assert np.abs(z[8] - z[0]).max() > 0.1
        # periodic, hence never converges
        assert traj.radii.min() >= traj.radii[0] * 0.5 - 1e-12


def test_abe_converging_interior_case():
    m = abe_matrix(1.0, 0.5, 1.0)
    assert np.abs(np.linalg.eigvals(m)).max() < 1.0
    traj = abe_s0(1.0, -2.0, theta=1.0, a=0.5, sigma=1.0, k_max=60)
    assert traj.radii[-1] <= 1e-6 * traj.radii[0]


def test_abe_validation():
    with pytest.raises(ValueError, match="a <= 1"):
        abe_s0(1.0, 0.0, theta=1.0, a=1.5, sigma=1.0, k_max=2)
    with pytest.raises(ValueError, match="sigma"):
        abe_matrix(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="k_max"):
        abe_s0(1.0, 0.0, theta=1.0, a=1.0, sigma=1.0, k_max=0)


# --------------------------------------------------------- 1D quadratic PD


def test_cppd_matrix_entries():
    a, sigma = 0.3, 1.7
    m = cppd_matrix(a, sigma)
    want = np.array(
        [
            [1.0, -a / sigma],
            [sigma / (1 + sigma), (1 - 2 * a) / (1 + sigma)],
        ]
    )
    assert np.array_equal(m, want)
    with pytest.raises(ValueError, match="sigma"):
        cppd_matrix(0.5, -1.0)


def test_cppd_1d_is_exact_matrix_power():
    a, sigma = 0.1, 0.5
    traj = cppd_1d_quadratic(1.0, 0.0, a, sigma, 40)
    m = cppd_matrix(a, sigma)
    z = np.array([1.0, 0.0])
    for k in range(41):
        assert np.allclose([traj.xs[k], traj.lams[k]], z, atol=1e-13)
        z = m @ z
    with pytest.raises(ValueError, match="a <= 1"):
        cppd_1d_quadratic(1.0, 0.0, 1.2, 0.5, 3)


def test_sigma_sweep_minima_locations():
    sigmas = log_sigma_grid()
    for a, window, gd_factor in ((0.01, (0.1, 0.4), 0.99), (0.1, (0.3, 0.8), 0.9)):
        mags = sigma_sweep(a, sigmas, k_max=100)
        i = int(np.argmin(mags))
        assert 0 < i < sigmas.size - 1
        assert window[0] <= sigmas[i] <= window[1]
        # tuned primal-dual beats plain gradient descent's (1-a)^100
        assert mags[i] < gd_factor**100


def test_log_sigma_grid_shape():
    grid = log_sigma_grid()
    assert grid.size == 367
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(1e3)
    assert np.allclose(np.diff(np.log10(grid)), np.diff(np.log10(grid))[0])


# ---------------------------------------------------- perfect preconditioning


def test_perfect_preconditioning_two_step_exact(rng):
    for rho in (0.01, 1.0, 100.0):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n + 1, n)) + np.eye(n + 1, n) * 3
            u0, lam0 = rng.standard_normal(n), rng.standard_normal(n)
            traj = perfect_preconditioning(a, rho, u0, lam0, k_max=4)
            assert np.linalg.norm(traj.xs[2]) <= 1e-12
            assert np.linalg.norm(traj.lams[2]) <= 1e-12
            assert traj.radii[3] <= 1e-12 and traj.radii[4] <= 1e-12


def test_perfect_preconditioning_zero_start_stays():
    traj = perfect_preconditioning([[2.0]], 1.0, [0.0], [0.0])
    assert np.all(traj.radii == 0.0)


def test_perfect_preconditioning_rho_has_no_effect_on_steps():
    slow = perfect_preconditioning([[1.5]], 0.01, [0.8], [-0.3])
    fast = perfect_preconditioning([[1.5]], 100.0, [0.8], [-0.3])
    assert slow.radii[2] <= 1e-12 and fast.radii[2] <= 1e-12


def test_perfect_preconditioning_validation():
    with pytest.raises(ValueError, match="invertible"):
        perfect_preconditioning(np.zeros((2, 2)), 1.0, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="rho"):
        perfect_preconditioning([[1.0]], 0.0, [1.0], [1.0])


# ------------------------------------------------------- saddle classification


def test_classify_critical_point_cases():
    assert classify_critical_point(np.diag([1.0, 2.0])) == "minimum"
    assert classify_critical_point(-np.diag([1.0, 2.0])) == "maximum"
    assert classify_critical_point(np.diag([1.0, -1.0])) == "saddle"
    assert classify_critical_point(np.diag([1.0, 1e-13])) == "degenerate"
    assert classify_critical_point(np.diag([1.0, 1e-12])) == "degenerate"
    # the bilinear saddle Hessian [[0, 1], [1, 0]] has eigenvalues +-1
    assert classify_critical_point(np.array([[0.0, 1.0], [1.0, 0.0]])) == "saddle"


def test_classify_critical_point_validation():
    with pytest.raises(ValueError, match="symmetric"):
        classify_critical_point(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        classify_critical_point(np.zeros((2, 3)))


# ----------------------------------------------------------------- container


def test_trajectory_radii_for_vector_states():
    traj = Trajectory2D(np.array([[3.0, 0.0], [0.0, 0.0]]), np.array([[4.0, 0.0], [0.0, 0.0]]))
    assert traj.radii[0] == pytest.approx(5.0)
    assert len(traj.points) == 2


def test_trajectory_row_mismatch():
    with pytest.raises(ValueError, match="one row per iterate"):
        Trajectory2D(np.zeros(3), np.zeros(2))
