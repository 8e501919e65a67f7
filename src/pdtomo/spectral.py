"""Spectral estimation and step-size plans for the primal-dual solvers.

One Lanczos engine serves every spectral quantity: the spectral norm,
the leading eigenpairs of A^T A, and the sigma consistent with a
matrix step T.  Also builds the truncated-inverse low-rank step matrix
T from those eigenpairs and diagonal row/column-sum step matrices.
Every plan is built at step ratio rho = 1; `StepPlan.scaled` applies
another rho.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .linop import LinearMap, Vector, scaled

# Lanczos stops once every wanted Ritz residual is at most
# _RESIDUAL_TOL times the top Ritz value, checked every _CHECK_EVERY
# steps; past _MAX_STEPS it raises.
_RESIDUAL_TOL = 1e-10
_CHECK_EVERY = 5
_MAX_STEPS = 500
# EigenSet.validate's Gram-matrix bounds: off the diagonal, and 10x on it
_ORTH_TOL = 1e-6
_NORM_TOL = 1e-10
# Names the eigenpair engine in cache keys, so pairs or a sigma0 from
# another engine are never read back as a hit.
EIG_ENGINE = "lanczos-numpy-5"
# Transparent huge page size: the eigenpair basis starts on this boundary
_HUGE_PAGE = 2 << 20


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

    def validate(self):
        if self.k == 0:
            raise ValueError("the eigenset holds no eigenpairs")
        # each bound is written so that a NaN fails it
        if not (np.isfinite(self.values).all() and np.isfinite(self.vectors).all()):
            raise ValueError("eigenpairs must be finite")
        gram = self.vectors @ self.vectors.T
        off = gram - np.diag(np.diag(gram))
        if not np.abs(off).max(initial=0.0) <= _ORTH_TOL:
            raise ValueError("eigenvectors are not orthogonal")
        if not np.abs(np.diag(gram) - 1.0).max() <= 10 * _NORM_TOL:
            raise ValueError("eigenvectors are not unit norm")
        slack = 1e-8 * max(1.0, float(self.values[0]))
        if not np.all(np.diff(self.values) <= slack):
            raise ValueError("eigenvalues must be sorted descending")
        if not np.all(self.values >= -slack):
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


def _gaussian(gen: random.Random, n: int) -> np.ndarray:
    """n standard normal draws by Box-Muller on gen's bits: the stdlib
    generator, so no run loads numpy.random (6 MB resident) for a few
    start vectors."""
    pairs = (n + 1) // 2
    bits = np.frombuffer(gen.randbytes(16 * pairs), dtype="<u8").reshape(2, pairs) >> 11
    # 53-bit uniforms, the first in (0, 1] so that its log is finite
    radius = np.sqrt(-2.0 * np.log((bits[0] + 1) * 2.0**-53))
    angle = (2 * np.pi * 2.0**-53) * bits[1]
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:n]


def _sturm_laguerre(mu: float, alpha: list, beta2: list, pivmin: float):
    """Pivots q_i = (mu - alpha_i) - beta2_{i-1} / q_{i-1} of mu I - T.

    Returns (above, g, h): whether every pivot is positive, that is mu
    lies above every eigenvalue (Sturm), and the sums g = sum 1/(mu -
    lambda_i) and h = sum 1/(mu - lambda_i)^2 that Laguerre's step takes,
    from the pivots' first and second derivatives in mu.  A pivot below
    pivmin in size is set to +-pivmin, as LAPACK's dstebz does, so a zero
    pivot divides by nothing and a beta = 0 restarts the recurrence.
    """
    q, t, u, g, h = 1.0, 0.0, 0.0, 0.0, 0.0
    above = True
    for a, b2 in zip(alpha, beta2):
        r = b2 / q
        q = (mu - a) - r
        if q <= 0.0:
            above = False
            if q > -pivmin:
                q = -pivmin
        elif q < pivmin:
            q = pivmin
        # t = q'/q, u = q''/q, from q' = 1 + r t_prev, q'' = r (u_prev - 2 t_prev^2)
        u = r * (u - 2.0 * t * t) / q
        t = (1.0 + r * t) / q
        g += t
        h += t * t - u
    return above, g, h


def _top_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """The largest eigenvalue theta of the symmetric tridiagonal T with
    diagonal alpha and off-diagonal beta, and |s_last|, the size of the
    last component of its unit eigenvector; no LAPACK, O(j) float work
    per sweep.

    theta: Laguerre's iteration on det(mu I - T) from the Gershgorin bound
    down.  From above the largest root of a polynomial whose roots are all
    real, its iterates fall monotonically to that root, cubically near a
    simple one; the Sturm sign of every step keeps a bracket [lo, hi], and
    a step that leaves it bisects.  |s_last|: the twisted factorisation of
    theta I - T (Dhillon and Parlett, 2004) at its smallest twist pivot,
    the eigenvector's largest component, from which the vector is built
    outward by ratios of beta to pivots, so a small last component keeps
    its relative accuracy.  An eigenvector in a block that a beta = 0
    closes off before the last row has s_last = 0.
    """
    j = alpha.size
    a = alpha.tolist()
    b = beta.tolist()
    beta2 = [0.0] + (beta * beta).tolist()
    pivmin = float(np.finfo(float).tiny) * max(1.0, max(beta2))
    radius = np.abs(beta)
    lo = float(alpha.max())
    hi = float(np.max(alpha + np.append(radius, 0.0) + np.insert(radius, 0, 0.0)))
    # from_above: mu came by Laguerre steps alone from a point above theta,
    # so a vanishing step below theta is rounding at theta, not a lower root
    mu, from_above = hi, True
    # a cap, not a tolerance: an isolated top takes 4-10 sweeps, a cluster
    # of equal top values (Laguerre is linear there) up to about 64
    for _ in range(200):
        above, g, h = _sturm_laguerre(mu, a, beta2, pivmin)
        if above:
            hi, from_above = mu, True
        else:
            lo = mu
        root = math.sqrt(max((j - 1) * (j * h - g * g), 0.0))
        denom = g + root if g >= 0.0 else g - root
        new = mu - j / denom if denom else -math.inf
        if new == mu and from_above:
            break
        if from_above and new <= lo:
            # the step from above passed a point below theta: rounding
            # at theta, so try the next float above that point
            new = math.nextafter(lo, hi)
        if not lo < new < hi:
            new, from_above = 0.5 * (lo + hi), False
            if new == lo or new == hi:
                break
        mu = new
    theta = mu

    # forward pivots q_i of theta I - T = L D L^T, backward pivots p_i of
    # its U D U^T; the twist pivot gamma_i = q_i + p_i - (theta - alpha_i)
    forward, q = [], 1.0
    for ai, b2 in zip(a, beta2):
        q = (theta - ai) - b2 / q
        if abs(q) < pivmin:
            q = pivmin
        forward.append(q)
    backward, p = [], 1.0
    for ai, b2 in zip(reversed(a), reversed(beta2[1:] + [0.0])):
        p = (theta - ai) - b2 / p
        if abs(p) < pivmin:
            p = pivmin
        backward.append(p)
    backward.reverse()
    twist = min(range(j), key=lambda i: abs(forward[i] + backward[i] - (theta - a[i])))
    # z_twist = 1; z_i = (beta_i / q_i) z_{i+1} above, z_{i+1} = (beta_i / p_{i+1}) z_i below
    norm2, z = 1.0, 1.0
    for i in range(twist - 1, -1, -1):
        z *= b[i] / forward[i]
        norm2 += z * z
    z = 1.0
    for i in range(twist, j - 1):
        z *= b[i] / backward[i + 1]
        norm2 += z * z
    return theta, abs(z) / math.sqrt(norm2)


def _huge_page_rows(rows: int, n: int) -> np.ndarray:
    """An uninitialised (rows, n) float array that starts on a huge page
    boundary: numpy asks for huge pages on large arrays, and a start that
    varied within a huge page made the rows a run touches span one more
    page in some processes and not in others."""
    raw = np.empty(rows * n + _HUGE_PAGE // 8)
    # np.empty returns at least 8-byte aligned memory, so the skip is whole floats
    skip = -raw.__array_interface__["data"][0] % _HUGE_PAGE // 8
    return raw[skip : skip + rows * n].reshape(rows, n)


def _lanczos(apply, n: int, k: int, seed: int, want_vectors: bool = False):
    """Top-k Ritz pairs of a symmetric positive semidefinite operator on R^n.

    Lanczos from the start vector `_gaussian(random.Random(seed), n)`;
    only a run that returns Ritz vectors (`want_vectors`) stores the
    Lanczos vectors and reorthogonalises against them, any other run
    holds a few n-vectors.  With or without reorthogonalisation, a small
    computed Ritz residual puts theta that close to an eigenvalue (Paige,
    1980): every _CHECK_EVERY steps the residuals beta |s_last| are
    checked, the run stops once the k leading ones are at most
    _RESIDUAL_TOL * theta_1 and raises RuntimeError if _MAX_STEPS steps
    pass first.  A one-pair run without vectors (the spectral norm and
    sigma_for_T) takes theta and s_last from `_top_ritz`, without LAPACK;
    the eigenpair run solves its tridiagonal with LAPACK's
    np.linalg.eigh, which a low-rank run reaches only on an eigcache
    miss.  A next vector at the rounding level n eps ||T|| marks
    an invariant subspace; the run goes on from a fresh random vector
    with beta = 0, which can find further copies of a repeated
    eigenvalue.  Returns (theta, residual, vectors), descending,
    `vectors` (k, n) or None; each residual includes the rounding bound
    n eps theta_1 of the inner products behind theta.
    """
    gen = random.Random(seed)
    limit = min(n, _MAX_STEPS)
    rounding = n * np.finfo(float).eps
    alpha, beta = np.zeros(limit), np.zeros(limit)
    # one row per step; only the rows a run reaches are ever touched
    basis = _huge_page_rows(limit, n) if want_vectors else None

    def orthogonalize(w: np.ndarray, count: int) -> np.ndarray:
        if basis is None:
            return w
        # classical Gram-Schmidt, repeated once when a pass shrinks w below
        # 1/sqrt(2) of its norm: after such cancellation one pass leaves w
        # off orthogonal (Daniel, Gragg, Kaufman and Stewart, 1976)
        for _ in range(2):
            before = np.linalg.norm(w)
            w = w - basis[:count].T @ (basis[:count] @ w)
            if np.linalg.norm(w) > before / np.sqrt(2.0):
                break
        return w

    w, prev = _gaussian(gen, n), np.zeros(n)
    for j in range(limit):
        q = w / np.linalg.norm(w)
        if basis is not None:
            basis[j] = q
        steps = j + 1
        w = apply(q)
        alpha[j] = q @ w
        # the three-term recurrence, then against every stored vector
        w = orthogonalize(w - alpha[j] * q - beta[j - 1] * prev, steps)
        prev = q
        b = np.linalg.norm(w)
        if steps % _CHECK_EVERY == 0 or steps == limit:
            off = beta[: steps - 1]
            if basis is None and k == 1:
                top, last = _top_ritz(alpha[:steps], off)
                theta, s_last = np.array([top]), np.array([last])
            else:
                theta, s = np.linalg.eigh(np.diag(alpha[:steps]) + np.diag(off, 1) + np.diag(off, -1))
                theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
                s_last = s[-1]
            resid = b * np.abs(s_last)
            if steps >= k and np.all(resid <= _RESIDUAL_TOL * theta[0]):
                vectors = None if basis is None else s.T @ basis[:steps]
                return theta, resid + rounding * theta[0], vectors
        if b <= rounding * np.abs(alpha[:steps]).max():
            w = orthogonalize(_gaussian(gen, n), steps)
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
    values, _, vectors = _lanczos(lambda v: map_.adjoint(map_(v)), n, k, seed, want_vectors=True)
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
