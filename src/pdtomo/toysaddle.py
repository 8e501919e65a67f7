"""Closed-form saddle-point dynamics on toy bilinear/quadratic potentials.

Small exactly analyzable iterations: explicit and implicit Euler
discretizations of the saddle flow, the approximate-backward-Euler
(ABE) family containing the primal-dual updates, the 1D quadratic
primal-dual recursion used for step-ratio sweeps, and the
perfectly-preconditioned iteration that terminates in two steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Trajectory2D:
    """Iterate history of a two-block (x, lambda) recursion.

    `xs` and `lams` hold one row per iterate (scalars stored as shape
    (k+1,) arrays); `radii` is the joint Euclidean distance from the
    origin at each step.
    """

    xs: np.ndarray
    lams: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.lams = np.asarray(self.lams, dtype=float)
        if self.xs.shape[0] != self.lams.shape[0]:
            raise ValueError("xs and lams must have one row per iterate")

    @property
    def radii(self) -> np.ndarray:
        x2 = np.atleast_2d(self.xs.T).T ** 2
        l2 = np.atleast_2d(self.lams.T).T ** 2
        return np.sqrt(x2.sum(axis=1) + l2.sum(axis=1))

    @property
    def points(self) -> list[tuple]:
        return list(zip(self.xs, self.lams))


def _iterate_2x2(m: np.ndarray, x0: float, lam0: float, k_max: int) -> Trajectory2D:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    states = np.empty((k_max + 1, 2))
    states[0] = (x0, lam0)
    for k in range(k_max):
        states[k + 1] = m @ states[k]
    return Trajectory2D(states[:, 0], states[:, 1])


def forward_euler_s0(x0: float, lam0: float, alpha: float, k_max: int) -> Trajectory2D:
    """Explicit Euler on the pure bilinear saddle x*lambda.

    x+ = x - alpha*lambda, lambda+ = lambda + alpha*x; the radius grows
    by exactly sqrt(1 + alpha^2) every step, so the scheme never
    converges for alpha != 0.
    """
    m = np.array([[1.0, -alpha], [alpha, 1.0]])
    return _iterate_2x2(m, x0, lam0, k_max)


def forward_euler_s1(x0: float, lam0: float, alpha: float, k_max: int) -> Trajectory2D:
    """Explicit Euler on the curved saddle (x^2 - lambda^2 mixture).

    Both coordinates contract by (1 - 2*alpha) per step; 0 < alpha < 1
    converges.
    """
    f = 1.0 - 2.0 * alpha
    m = np.array([[f, 0.0], [0.0, f]])
    return _iterate_2x2(m, x0, lam0, k_max)


def backward_euler(
    a: np.ndarray, alpha: float, x0: np.ndarray, lam0: np.ndarray, k_max: int
) -> Trajectory2D:
    """Implicit Euler on the bilinear saddle lambda^T A x.

    Every step solves [[I, alpha*A^T], [-alpha*A, I]] (x+, lam+) =
    (x, lam); the iteration contracts for any positive step size.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, n = a.shape
    if max(m, n) > 32:
        raise ValueError("implicit block solve is intended for small dense systems")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    block = np.block(
        [[np.eye(n), alpha * a.T], [-alpha * a, np.eye(m)]]
    )
    xs = np.empty((k_max + 1, n))
    lams = np.empty((k_max + 1, m))
    xs[0], lams[0] = x0, lam0
    for k in range(k_max):
        sol = np.linalg.solve(block, np.concatenate([xs[k], lams[k]]))
        xs[k + 1], lams[k + 1] = sol[:n], sol[n:]
    return Trajectory2D(xs, lams)


def abe_matrix(theta: float, a: float, sigma: float) -> np.ndarray:
    """Update matrix of the approximate-backward-Euler scheme on a*x^2/2."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return np.array([[1.0, -a / sigma], [sigma, 1.0 - a - theta * a]])


def abe_s0(x0: float, lam0: float, theta: float, a: float, sigma: float, k_max: int) -> Trajectory2D:
    """Approximate backward Euler with extrapolation parameter theta.

    theta = 1, a = 1 reaches the saddle exactly in two steps.  theta = 0,
    a = 1 never converges: the update matrix M satisfies M^3 = -I for
    every sigma, so states repeat with period six.
    """
    if a > 1:
        raise ValueError("the scheme is analyzed for a <= 1")
    m = abe_matrix(theta, a, sigma)
    return _iterate_2x2(m, x0, lam0, k_max)


def cppd_matrix(a: float, sigma: float) -> np.ndarray:
    """1D quadratic primal-dual update matrix (theta = 1)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return np.array(
        [[1.0, -a / sigma], [sigma / (1.0 + sigma), (1.0 - 2.0 * a) / (1.0 + sigma)]]
    )


def cppd_1d_quadratic(x0: float, lam0: float, a: float, sigma: float, k_max: int) -> Trajectory2D:
    """Primal-dual iteration on the 1D quadratic data term (A = 1).

    The recursion is linear, so trajectories and their magnitudes are
    exact matrix powers; used for sigma sweeps.
    """
    if a > 1:
        raise ValueError("the scheme is analyzed for a <= 1")
    m = cppd_matrix(a, sigma)
    return _iterate_2x2(m, x0, lam0, k_max)


def sigma_sweep(
    a: float,
    sigmas: np.ndarray,
    k_max: int = 100,
    start: tuple[float, float] = (1.0, 0.0),
) -> np.ndarray:
    """Final iterate magnitude of cppd_1d_quadratic for each sigma."""
    out = np.empty(len(sigmas))
    for i, s in enumerate(sigmas):
        traj = cppd_1d_quadratic(start[0], start[1], a, float(s), k_max)
        out[i] = traj.radii[-1]
    return out


def log_sigma_grid(lo: float = 1e-3, hi: float = 1e3, per_decade: int = 61) -> np.ndarray:
    """Log-spaced sigma sweep grid with `per_decade` points per decade."""
    decades = np.log10(hi) - np.log10(lo)
    return np.logspace(np.log10(lo), np.log10(hi), int(round(per_decade * decades)) + 1)


def perfect_preconditioning(
    a: np.ndarray, rho: float, u0: np.ndarray, lam0: np.ndarray, k_max: int = 4
) -> Trajectory2D:
    """Primal-dual iteration with T = (A^T A)^{-1} in the u = A x frame.

    Updates reduce to u+ = u - lambda/rho, lambda+ = rho*u+, hitting the
    saddle point exactly at step two for any starting point and any
    rho > 0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not rho > 0:
        raise ValueError("rho must be positive")
    gram = a.T @ a
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise ValueError("A^T A must be invertible for perfect preconditioning")
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    us = np.empty((k_max + 1, u0.size))
    lams = np.empty((k_max + 1, lam0.size))
    us[0], lams[0] = u0, lam0
    for k in range(k_max):
        us[k + 1] = us[k] - lams[k] / rho
        lams[k + 1] = rho * us[k + 1]
    return Trajectory2D(us, lams)
