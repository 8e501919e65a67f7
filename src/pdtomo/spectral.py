"""Spectral estimation and step-size plans for the primal-dual solvers.

One Lanczos engine serves every spectral quantity: the spectral norm,
the leading eigenpairs of A^T A, and the sigma consistent with a
matrix step T.  Also builds the truncated-inverse low-rank step matrix
T from those eigenpairs and diagonal row/column-sum step matrices.
Every plan is built at step ratio rho = 1; `StepPlan.scaled` applies
another rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import LinearMap, Vector, scaled

# Lanczos stops once every wanted Ritz residual is at most
# _RESIDUAL_TOL times the top Ritz value, checked every _CHECK_EVERY
# steps; past _MAX_STEPS it raises.
_RESIDUAL_TOL = 1e-10
_CHECK_EVERY = 5
_MAX_STEPS = 500
# Names the eigenpair engine in cache keys, so pairs from another engine
# are never read back as a hit.
EIG_ENGINE = "lanczos-numpy"


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

    Scalar plan: sigma and tau are positive scalars with
    sigma*tau = 1/L^2.  Diagonal plan: sigma and tau are per-component
    vectors (row/column-sum reciprocals).  Low-rank plan: tau is a
    symmetric LinearMap approximating (A^T A)^{-1} and sigma is the
    scalar 1/||T A^T A||.
    """

    sigma: float | np.ndarray
    tau: float | np.ndarray | LinearMap

    def scaled(self, rho: float) -> "StepPlan":
        """The plan at step ratio rho: sigma times rho, tau (or T)
        divided by rho, so the step product and the step condition hold."""
        if not rho > 0:
            raise ValueError("rho must be positive")
        if isinstance(self.tau, LinearMap):
            return StepPlan(rho * self.sigma, scaled(1.0 / rho, self.tau))
        return StepPlan(rho * self.sigma, self.tau / rho)

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


def _lanczos(apply, n: int, k: int, seed: int):
    """Top-k Ritz pairs of a symmetric positive semidefinite operator on R^n.

    Lanczos with full reorthogonalisation from the start vector
    `default_rng(seed).standard_normal(n)`.  Every _CHECK_EVERY steps
    the Ritz residuals ||B x - theta x|| = beta |s_last| are checked; the
    run stops once the k leading ones are at most _RESIDUAL_TOL * theta_1
    and raises RuntimeError if _MAX_STEPS steps pass first.  A next
    vector at the rounding level n eps ||T|| marks an invariant subspace;
    the run goes on from a fresh random vector, which can find further
    copies of a repeated eigenvalue.  Returns (theta, residual,
    vectors), descending, `vectors` (k, n); each residual includes the
    rounding bound n eps theta_1 of the inner products behind theta.
    """
    rng = np.random.default_rng(seed)
    limit = min(n, _MAX_STEPS)
    rounding = n * np.finfo(float).eps
    alpha, beta = np.zeros(limit), np.zeros(limit)
    # Lanczos vectors fill blocks of rows allocated as the steps need
    # them, each under the 4 MB at which numpy asks for huge pages
    rows = max(1, 2**21 // (8 * n))
    blocks: list[np.ndarray] = []

    def orthogonalize(w: np.ndarray, count: int) -> np.ndarray:
        # classical Gram-Schmidt, repeated once when a pass shrinks w below
        # 1/sqrt(2) of its norm: after such cancellation one pass leaves w
        # off orthogonal (Daniel, Gragg, Kaufman and Stewart, 1976)
        for _ in range(2):
            before = np.linalg.norm(w)
            for first in range(0, count, rows):
                basis = blocks[first // rows][: count - first]
                w = w - basis.T @ (basis @ w)
            if np.linalg.norm(w) > before / np.sqrt(2.0):
                break
        return w

    w, prev = rng.standard_normal(n), np.zeros(n)
    for j in range(limit):
        if j % rows == 0:
            blocks.append(np.empty((rows, n)))
        q = blocks[-1][j % rows]
        q[:] = w / np.linalg.norm(w)
        steps = j + 1
        w = apply(q)
        alpha[j] = q @ w
        # the three-term recurrence, then against every earlier vector
        w = orthogonalize(w - alpha[j] * q - beta[j - 1] * prev, steps)
        prev = q
        b = np.linalg.norm(w)
        if steps % _CHECK_EVERY == 0 or steps == limit:
            off = beta[: steps - 1]
            theta, s = np.linalg.eigh(np.diag(alpha[:steps]) + np.diag(off, 1) + np.diag(off, -1))
            theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
            resid = b * np.abs(s[-1])
            if steps >= k and np.all(resid <= _RESIDUAL_TOL * theta[0]):
                vectors = sum(
                    s[first : first + rows].T @ blocks[first // rows][: steps - first]
                    for first in range(0, steps, rows)
                )
                return theta, resid + rounding * theta[0], vectors
        if b <= rounding * np.abs(alpha[:steps]).max():
            w = orthogonalize(rng.standard_normal(n), steps)
        else:
            beta[j] = b
    raise RuntimeError(
        f"Lanczos did not reach the Ritz residual bound {_RESIDUAL_TOL:g} "
        f"for {k} pair(s) within {limit} steps"
    )


def spectral_norm(map_: LinearMap, seed: int = 0) -> float:
    """||A||_2 from above: sqrt(theta + r) for the top Ritz value theta of
    A^T A and its residual r, so the step condition errs safe.  A zero
    operator returns 0."""
    theta, resid, _ = _lanczos(lambda v: map_.adjoint(map_(v)), map_.domain_dim, 1, seed)
    return float(np.sqrt(max(theta[0] + resid[0], 0.0)))


def leading_eigenpairs(map_: LinearMap, k: int, seed: int = 0) -> EigenSet:
    """The K leading eigenpairs of A^T A by Lanczos; equal seeds give
    identical pairs.  ValueError when the K-th is numerically zero."""
    n = map_.domain_dim
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= K <= {n}, got {k}")
    values, _, vectors = _lanczos(lambda v: map_.adjoint(map_(v)), n, k, seed)
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


def diagonal_steps(map_: LinearMap) -> StepPlan:
    """Row/column-sum step vectors for a map with nonnegative entries.

    Sigma_i = 1 / (row sum i), T_j = 1 / (column sum j), computed
    matrix-free by applying the map to all-ones vectors; zero sums give
    a zero step for that component.
    """
    row_sums = map_(np.ones(map_.domain_dim))
    col_sums = map_.adjoint(np.ones(map_.range_dim))
    if np.any(row_sums < -1e-12) or np.any(col_sums < -1e-12):
        raise ValueError("diagonal steps require a map with nonnegative entries")
    sigma = np.zeros_like(row_sums)
    np.divide(1.0, row_sums, out=sigma, where=row_sums > 0)
    tau = np.zeros_like(col_sums)
    np.divide(1.0, col_sums, out=tau, where=col_sums > 0)
    return StepPlan(sigma, tau)


def sigma_for_T(map_: LinearMap, t_map: LinearMap, seed: int = 0) -> float:
    """sigma = 1 / rho(T A^T A), from Lanczos on the symmetric A T A^T,
    which has the same nonzero spectrum: its top Ritz value plus residual
    bounds rho from above, so sigma errs on the safe side."""
    gram = lambda v: map_(t_map(map_.adjoint(v)))
    theta, resid, _ = _lanczos(gram, map_.range_dim, 1, seed)
    top = float(theta[0] + resid[0])
    if not top > 0:
        raise ValueError("A T A^T has no positive eigenvalue; is A zero?")
    return 1.0 / top


def scalar_steps(L: float) -> StepPlan:
    """sigma = tau = 1/L: the equality case sigma*tau = 1/L^2."""
    if not L > 0:
        raise ValueError("L must be positive")
    return StepPlan(1.0 / L, 1.0 / L)


def lowrank_steps(map_: LinearMap, eigs: EigenSet, seed: int = 0) -> StepPlan:
    """The low-rank plan T = build_lowrank_T(eigs) with sigma = 1/rho(T A^T A)."""
    t_map = build_lowrank_T(eigs)
    return StepPlan(sigma_for_T(map_, t_map, seed=seed), t_map)
