"""Spectral estimation and step-size plans for the primal-dual solvers.

Provides power-method spectral norms, Lanczos (ARPACK) leading
eigenpairs of A^T A, the truncated-inverse low-rank step matrix
T built from those eigenpairs (optionally spatially smoothed), diagonal
row/column-sum step matrices, and the sigma consistent with a given
matrix T.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .linop import LinearMap, Vector, materialize_dense, scaled

_DEF_ITERS = 100
# Names the eigenpair engine in cache keys, so pairs from another engine
# are never read back as a hit.
EIG_ENGINE = "lanczos"


@dataclass
class EigenSet:
    """Leading eigenpairs of a symmetric positive semidefinite operator.

    `vectors` is (K, n) with orthonormal rows; `values` the matching
    eigenvalue estimates, sorted descending.
    """

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.vectors.shape[0] != self.values.size:
            raise ValueError("one eigenvalue per eigenvector required")
        self.validate()

    @property
    def k(self) -> int:
        return self.values.size

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def validate(self, orth_tol: float = 1e-6, norm_tol: float = 1e-10):
        gram = self.vectors @ self.vectors.T
        off = gram - np.diag(np.diag(gram))
        if np.abs(off).max(initial=0.0) > orth_tol:
            raise ValueError("eigenvectors are not orthogonal")
        if np.abs(np.diag(gram) - 1.0).max() > 10 * norm_tol:
            raise ValueError("eigenvectors are not unit norm")
        slack = 1e-8 * max(1.0, float(self.values[0]))
        if np.any(np.diff(self.values) > slack):
            raise ValueError("eigenvalues must be sorted descending")
        if np.any(self.values < -slack):
            raise ValueError("eigenvalues must be nonnegative")


@dataclass
class StepPlan:
    """Primal/dual step sizes for a CPPD run.

    kind "scalar": sigma and tau are positive scalars with
    sigma*tau = 1/L^2.  kind "diagonal": sigma and tau are per-component
    vectors (row/column-sum reciprocals).  kind "lowrank": tau is a
    symmetric LinearMap approximating (A^T A)^{-1} and sigma is the
    scalar 1/||T A^T A||.  The ratio rho is already folded into the
    stored steps (sigma scaled up by rho, tau down).
    """

    kind: str
    sigma: float | np.ndarray
    tau: float | np.ndarray | LinearMap
    rho: float = 1.0
    L: float | None = None
    eigs: EigenSet | None = field(default=None, repr=False)
    sigma_converged: bool = True

    def apply_tau(self, v: Vector) -> np.ndarray:
        """Apply the primal step (scalar, diagonal, or matrix T) to v."""
        if isinstance(self.tau, LinearMap):
            return self.tau(v)
        return self.tau * v

    def sigma_reciprocal(self) -> float | np.ndarray:
        """1/sigma with zero components mapped to zero (inactive rows)."""
        if np.ndim(self.sigma) == 0:
            return 1.0 / float(self.sigma)
        s = np.asarray(self.sigma)
        out = np.zeros_like(s)
        np.divide(1.0, s, out=out, where=s > 0)
        return out


def spectral_norm(map_: LinearMap, iters: int = _DEF_ITERS, seed: int = 0) -> float:
    """Largest singular value by power iteration on A^T A.

    Returns the square root of the Rayleigh quotient after `iters`
    steps; the estimate is monotone nondecreasing in `iters` up to
    rounding.  A zero operator returns 0.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(map_.domain_dim)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = map_.adjoint(map_(v))
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return float(np.linalg.norm(map_(v)))


def leading_eigenpairs(
    map_: LinearMap, k: int, n_power: int = _DEF_ITERS, seed: int = 0
) -> EigenSet:
    """The K leading eigenpairs of A^T A by implicitly restarted Lanczos.

    Runs ARPACK (`scipy.sparse.linalg.eigsh`, largest algebraic) on A^T A
    applied matrix-free, from the start vector
    `default_rng(seed).standard_normal(n)`, to machine precision; equal
    seeds give identical pairs.  K == n, which ARPACK cannot do, falls
    back to a dense eigendecomposition.  `n_power` is validated but
    unused: it governs only `spectral_norm` and `sigma_for_T`.
    Non-convergence raises `ArpackNoConvergence`, a RuntimeError.
    """
    n = map_.domain_dim
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= K <= {n}, got {k}")
    if n_power < 1:
        raise ValueError("n_power must be >= 1")
    if k < n:
        # Imported here: scipy.sparse.linalg loads scipy.linalg, about 8 MB
        # resident that runs without a low-rank plan should not carry.
        from scipy.sparse.linalg import LinearOperator, eigsh

        gram = LinearOperator((n, n), matvec=lambda v: map_.adjoint(map_(v)), dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(n)
        values, vectors = eigsh(gram, k=k, which="LA", v0=v0)
    else:
        a = materialize_dense(map_)
        values, vectors = np.linalg.eigh(a.T @ a)
    order = np.argsort(values)[::-1]
    values, vectors = values[order], vectors[:, order].T
    if values[-1] <= n * np.finfo(float).eps * max(values[0], 0.0):
        raise ValueError(
            f"eigenvalue {k - 1} is numerically zero: operator rank is smaller than K"
        )
    return EigenSet(vectors, values)


def build_lowrank_T(eigs: EigenSet) -> LinearMap:
    """Truncated-inverse step matrix from leading eigenpairs.

    T v = v/e_K + sum_{i<K} (1/e_i - 1/e_K) u_i <u_i, v>: the inverse on
    the captured subspace, 1/e_K on its complement.  Symmetric positive
    definite with eigenvalues in [1/e_1, 1/e_K].
    """
    e_tail = float(eigs.values[-1])
    if e_tail <= 0:
        raise ValueError(
            "smallest retained eigenvalue is not positive; reduce K below the rank"
        )
    head = eigs.vectors[:-1]
    coef = 1.0 / eigs.values[:-1] - 1.0 / e_tail

    def apply_t(v: Vector) -> np.ndarray:
        out = v / e_tail
        if head.size:
            out = out + head.T @ (coef * (head @ v))
        return out

    return LinearMap(eigs.n, eigs.n, apply_t, apply_t, label=f"T_rank{eigs.k}")


def smooth_eigenset(eigs: EigenSet, smoother: LinearMap) -> EigenSet:
    """Blur each eigenvector with S, then re-orthonormalize in order.

    Eigenvalues are kept as computed.  Raises if a smoothed vector
    collapses (norm below 1e-8 after orthogonalization).
    """
    if smoother.domain_dim != smoother.range_dim:
        raise ValueError("smoother must be symmetric")
    rng = np.random.default_rng(0)
    a = rng.standard_normal(smoother.domain_dim)
    b = rng.standard_normal(smoother.range_dim)
    sym_gap = abs(smoother(a) @ b - a @ smoother(b))
    if sym_gap > 1e-8 * (np.linalg.norm(a) * np.linalg.norm(b)):
        raise ValueError("smoother must be symmetric")

    out = np.zeros_like(eigs.vectors)
    for j in range(eigs.k):
        w = smoother(eigs.vectors[j])
        if j:
            w = w - out[:j].T @ (out[:j] @ w)
        nrm = np.linalg.norm(w)
        if nrm < 1e-8:
            raise ValueError(f"smoothing collapsed eigenvector {j}")
        out[j] = w / nrm
    return EigenSet(out, eigs.values.copy())


def diagonal_steps(map_: LinearMap, rho: float = 1.0) -> StepPlan:
    """Row/column-sum step vectors for a map with nonnegative entries.

    Sigma_i = 1 / (row sum i), T_j = 1 / (column sum j), computed
    matrix-free by applying the map to all-ones vectors; zero sums give
    a zero step for that component.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    row_sums = map_(np.ones(map_.domain_dim))
    col_sums = map_.adjoint(np.ones(map_.range_dim))
    if np.any(row_sums < -1e-12) or np.any(col_sums < -1e-12):
        raise ValueError("diagonal steps require a map with nonnegative entries")
    sigma = np.zeros_like(row_sums)
    np.divide(1.0, row_sums, out=sigma, where=row_sums > 0)
    tau = np.zeros_like(col_sums)
    np.divide(1.0, col_sums, out=tau, where=col_sums > 0)
    return StepPlan(kind="diagonal", sigma=rho * sigma, tau=tau / rho, rho=rho)


def sigma_for_T(
    map_: LinearMap, t_map: LinearMap, iters: int = _DEF_ITERS, seed: int = 0
) -> float:
    """sigma = 1 / ||T A^T A||_2 by power iteration.

    T A^T A is self-adjoint in the A^T A inner product, so the Rayleigh
    quotient <Bv, T Bv> / <v, Bv> (B = A^T A) converges monotonically to
    the largest eigenvalue.  Emits a warning when the estimate has not
    stabilized to 1e-6 relative after `iters` steps.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(map_.domain_dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    prev = np.inf
    for _ in range(iters):
        bv = map_.adjoint(map_(v))
        w = t_map(bv)
        den = v @ bv
        if den <= 0:
            raise ValueError("power iteration left the positive cone; is A zero?")
        prev, lam = lam, (bv @ w) / den
        nrm = np.linalg.norm(w)
        v = w / nrm
    if not abs(lam - prev) <= 1e-6 * abs(lam):
        warnings.warn(
            f"sigma_for_T: power iteration not converged after {iters} iterations "
            f"(last change {abs(lam - prev):.3e})",
            RuntimeWarning,
        )
    return 1.0 / float(lam)


def scalar_steps(L: float, rho: float, safety: float = 1.0) -> StepPlan:
    """sigma = rho/L, tau = 1/(rho L): the equality case sigma*tau = 1/L^2.

    `safety` scales L before use; values below 1 deliberately violate
    the step condition as a divergence diagnostic.
    """
    if not (L > 0 and rho > 0):
        raise ValueError("L and rho must be positive")
    if not 0 < safety <= 1:
        raise ValueError("safety factor must be in (0, 1]")
    l_eff = safety * L
    return StepPlan(
        kind="scalar", sigma=rho / l_eff, tau=1.0 / (rho * l_eff), rho=rho, L=l_eff
    )


def lowrank_steps(
    map_: LinearMap,
    k: int,
    rho: float = 1.0,
    n_power: int = _DEF_ITERS,
    seed: int = 0,
    smoother: LinearMap | None = None,
    eigs: EigenSet | None = None,
) -> StepPlan:
    """Assemble a low-rank plan: eigenpairs, T, and the matching sigma.

    Pass a precomputed `eigs` (e.g. loaded from cache) to skip the
    eigenpair stage.  The ratio rho scales sigma up and T down,
    leaving the step product unchanged.
    """
    if eigs is None:
        eigs = leading_eigenpairs(map_, k, n_power=n_power, seed=seed)
    if smoother is not None:
        eigs = smooth_eigenset(eigs, smoother)
    t_map = build_lowrank_T(eigs)
    converged = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sigma0 = sigma_for_T(map_, t_map, iters=n_power, seed=seed)
        converged = not any(issubclass(w.category, RuntimeWarning) for w in caught)
    return StepPlan(
        kind="lowrank",
        sigma=rho * sigma0,
        tau=scaled(1.0 / rho, t_map),
        rho=rho,
        eigs=eigs,
        sigma_converged=converged,
    )


def convergence_matrix(a_dense: np.ndarray, sigma, tau) -> np.ndarray:
    """Dense step-condition matrix [[T^-1, -A^T], [-A, Sigma^-1]].

    Positive semidefiniteness of this matrix is the convergence
    condition for the primal-dual iteration.  Diagnostic use on small
    instances; sigma and tau may be scalars, vectors, dense matrices,
    or a LinearMap (materialized).
    """
    a_dense = np.asarray(a_dense, dtype=float)
    m, n = a_dense.shape

    def as_inverse(step, dim):
        if isinstance(step, LinearMap):
            step = materialize_dense(step)
        step = np.asarray(step, dtype=float)
        if step.ndim == 0:
            if step <= 0:
                raise ValueError("steps must be positive")
            return np.eye(dim) / float(step)
        if step.ndim == 1:
            if np.any(step <= 0):
                raise ValueError("steps must be positive")
            return np.diag(1.0 / step)
        return np.linalg.inv(step)

    top = np.hstack([as_inverse(tau, n), -a_dense.T])
    bot = np.hstack([-a_dense, as_inverse(sigma, m)])
    return np.vstack([top, bot])
