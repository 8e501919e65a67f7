"""Independent reference implementations used to check the library.

Everything here is deliberately naive: dense matrices, per-component grid
searches, sorting, and closed-form geometry.  Nothing in src/ calls this.
"""

from __future__ import annotations

import numpy as np

from pdtomo.linop import LinearMap

# Refuse to materialize anything larger than this many entries unless
# the caller raises the cap explicitly.
DENSE_CAP = 10**7

# Hessian eigenvalues within this of zero make a critical point degenerate.
EIG_ZERO_TOL = 1e-12


def identity(n: int) -> LinearMap:
    return LinearMap(n, n, lambda x: x.copy(), lambda y: y.copy(), label="identity")


def from_dense(mat: np.ndarray, label: str = "dense") -> LinearMap:
    """Wrap a dense matrix as a matched matvec/rmatvec pair."""
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    return LinearMap(n, m, lambda x: mat @ x, lambda y: mat.T @ y, label=label)


def materialize_dense(map_: LinearMap, cap: int = DENSE_CAP) -> np.ndarray:
    """Build the dense matrix column by column.

    Refuses when m*n exceeds `cap` entries.
    """
    m, n = map_.range_dim, map_.domain_dim
    if m * n > cap:
        raise ValueError(
            f"refusing to materialize {map_.label}: {m}x{n} exceeds cap of {cap} entries"
        )
    out = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        out[:, j] = map_(e)
        e[j] = 0.0
    return out


def adjoint_dot_test(map_: LinearMap, trials: int = 100, seed: int = 0) -> float:
    """Max relative dot-product mismatch |<Ax,y> - <x,A'y>| over random trials.

    The mismatch is normalized by ||Ax|| ||y|| + ||x|| ||A'y||, so a
    matched pair should score near machine epsilon.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(map_.domain_dim)
        y = rng.standard_normal(map_.range_dim)
        ax = map_(x)
        aty = map_.adjoint(y)
        num = abs(ax @ y - x @ aty)
        den = np.linalg.norm(ax) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(aty)
        if den == 0.0:
            continue
        worst = max(worst, num / den)
    return worst


def convergence_matrix(a_dense: np.ndarray, sigma, tau) -> np.ndarray:
    """Dense step-condition matrix [[T^-1, -A^T], [-A, Sigma^-1]].

    Positive semidefiniteness of this matrix is the convergence
    condition for the primal-dual iteration.  sigma and tau may be
    scalars, vectors, dense matrices, or a LinearMap (materialized).
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


def classify_critical_point(h: np.ndarray) -> str:
    """Classify a critical point from its symmetric Hessian.

    Returns one of "minimum", "maximum", "saddle", "degenerate"
    (eigenvalue within 1e-12 of zero).
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hessian must be square")
    if not np.allclose(h, h.T, rtol=0, atol=1e-12 * max(1.0, np.abs(h).max())):
        raise ValueError("Hessian must be symmetric")
    ev = np.linalg.eigvalsh(h)
    if np.any(np.abs(ev) <= EIG_ZERO_TOL):
        return "degenerate"
    if np.all(ev > 0):
        return "minimum"
    if np.all(ev < 0):
        return "maximum"
    return "saddle"


def dense_adjoint_mismatch(a_dense: np.ndarray, forward, adjoint, trials=20, seed=0):
    """Worst relative defect of (forward, adjoint) against a dense matrix."""
    rng = np.random.default_rng(seed)
    m, n = a_dense.shape
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        worst = max(
            worst,
            np.max(np.abs(forward(x) - a_dense @ x)),
            np.max(np.abs(adjoint(y) - a_dense.T @ y)),
        )
    return worst


def l1_project_by_sort(v: np.ndarray, r: float) -> tuple[np.ndarray, float]:
    """Exact Euclidean projection onto the l1 ball via the sorted threshold."""
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= r:
        return v.copy(), 0.0
    mags = np.sort(np.abs(v))[::-1]
    cumsum = np.cumsum(mags)
    k = np.arange(1, v.size + 1)
    candidates = (cumsum - r) / k
    # the largest magnitude always qualifies, also when r is below the
    # rounding of ||v||_1
    rho = np.max(np.nonzero(mags > candidates)[0], initial=0)
    # r one ulp below ||v||_1 with a long tie block rounds the threshold
    # below zero; the exact one is nonnegative
    beta = max(candidates[rho], 0.0)
    return np.sign(v) * np.maximum(np.abs(v) - beta, 0.0), float(beta)


def argmin_1d(objective, lo: float, hi: float, n_coarse=4001, refine=60):
    """Grid search plus golden-section refinement for a scalar objective."""
    xs = np.linspace(lo, hi, n_coarse)
    vals = np.array([objective(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_coarse - 1)]
    phi = (np.sqrt(5.0) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(refine):
        if objective(c) < objective(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


def shrink_by_argmin(v: np.ndarray, beta: float) -> np.ndarray:
    """Soft threshold as the per-component minimizer of 0.5(u-v)^2 + beta|u|."""
    out = np.empty_like(np.asarray(v, dtype=float))
    for i, vi in enumerate(np.ravel(v)):
        span = abs(vi) + beta + 1.0
        out[i] = argmin_1d(lambda u: 0.5 * (u - vi) ** 2 + beta * abs(u), -span, span)
    return out


def chord_length(radius: float, sx: float, sy: float, dx: float, dy: float) -> float:
    """Length of the segment of line (s + t*(d-s)) inside a centered circle."""
    ex, ey = dx - sx, dy - sy
    a = ex * ex + ey * ey
    b = 2 * (sx * ex + sy * ey)
    c = sx * sx + sy * sy - radius * radius
    disc = b * b - 4 * a * c
    if disc <= 0:
        return 0.0
    t1 = (-b - np.sqrt(disc)) / (2 * a)
    t2 = (-b + np.sqrt(disc)) / (2 * a)
    return float((t2 - t1) * np.sqrt(a))


def segment_in_square(x0, y0, x1, y1, cx, cy, half) -> float:
    """Length of the segment from (x0,y0) to (x1,y1) inside a pixel square."""
    ex, ey = x1 - x0, y1 - y0
    t_lo, t_hi = 0.0, 1.0
    for p, e, lo, hi in (
        (x0, ex, cx - half, cx + half),
        (y0, ey, cy - half, cy + half),
    ):
        if e == 0.0:
            if p < lo or p > hi:
                return 0.0
            continue
        ta, tb = (lo - p) / e, (hi - p) / e
        if ta > tb:
            ta, tb = tb, ta
        t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
    if t_hi <= t_lo:
        return 0.0
    return float((t_hi - t_lo) * np.hypot(ex, ey))


def gradient_matrix_2x2() -> np.ndarray:
    """Hand-built forward-difference matrix for a 2x2 image.

    Pixel order row-major: (0,0), (0,1), (1,0), (1,1) with index i = column
    (horizontal position) and j = row.  First 4 rows: horizontal differences
    f[j, i+1] - f[j, i] (zero in the last column); last 4 rows: vertical.
    """
    h = np.array(
        [
            [-1, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, -1, 1],
            [0, 0, 0, 0],
        ],
        dtype=float,
    )
    v = np.array(
        [
            [-1, 0, 1, 0],
            [0, -1, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ],
        dtype=float,
    )
    return np.vstack([h, v])


def gradient_by_slices(f: np.ndarray, nx: int) -> np.ndarray:
    """Forward differences of an nx x nx image by array slicing: the
    horizontal f[y, x+1] - f[y, x] (zero in the last column), then the
    vertical ones (zero in the last row)."""
    img = f.reshape(nx, nx)
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, :-1] = img[:, 1:] - img[:, :-1]
    gy[:-1, :] = img[1:, :] - img[:-1, :]
    return np.concatenate([gx.ravel(), gy.ravel()])


def gradient_adjoint_by_slices(p: np.ndarray, nx: int) -> np.ndarray:
    """Transpose of `gradient_by_slices`, also by array slicing."""
    n = nx * nx
    px = p[:n].reshape(nx, nx)
    py = p[n:].reshape(nx, nx)
    out = np.zeros((nx, nx))
    out[:, :-1] -= px[:, :-1]
    out[:, 1:] += px[:, :-1]
    out[:-1, :] -= py[:-1, :]
    out[1:, :] += py[:-1, :]
    return out.ravel()


def lf_transform_slow(x: np.ndarray, fx: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Direct evaluation of max_x (m*x - f(x)), skipping infinite samples."""
    out = np.empty(len(m))
    finite = np.isfinite(fx)
    for i, mi in enumerate(m):
        out[i] = np.max(mi * x[finite] - fx[finite])
    return out
