"""Proximal mappings and convex-conjugate utilities.

Covers the dual-update proxes used by the primal-dual solvers (quadratic
data-fit conjugate, l-inf clip, soft threshold, exact l1-ball projection
by Michelot's finite active-set iteration, optionally warm-started
from a nearby threshold) plus a numeric 1D
Legendre-Fenchel transform used as a test oracle.  All mappings are pure
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import Vector

# Scale of the fixed bound that `validate_prox` records for the l1 prox.
L1_TOL_SCALE = 1e-10


@dataclass
class ProxResult:
    """Prox output plus the threshold it applied (zero if none)."""

    value: np.ndarray
    aux: float = 0.0


@dataclass
class Grid1D:
    """Uniformly sampled 1D function; values may be +inf (extended reals)."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise ValueError("grid needs matching 1D x and value arrays")
        dx = np.diff(self.x)
        if self.x.size > 1 and not (
            np.all(dx > 0) and np.allclose(dx, dx[0], rtol=1e-9, atol=0)
        ):
            raise ValueError("grid x must be strictly increasing and uniform")

    @property
    def spacing(self) -> float:
        return float(self.x[1] - self.x[0]) if self.x.size > 1 else 0.0


def prox_lsq_conjugate(lam: Vector, sigma, g: Vector) -> np.ndarray:
    """Prox of sigma * conjugate of the quadratic data fit 0.5||y - g||^2.

    Closed form (lam - sigma*g) / (1 + sigma), valid componentwise.
    A scalar sigma must be positive; a per-component sigma may contain
    zeros (rows with a zero step pass through unchanged).
    """
    lam = np.asarray(lam, dtype=float)
    g = np.asarray(g, dtype=float)
    if lam.shape != g.shape:
        raise ValueError(f"shape mismatch: lam {lam.shape} vs g {g.shape}")
    if np.ndim(sigma) == 0:
        if not sigma > 0:
            raise ValueError("sigma must be positive")
    elif np.any(np.asarray(sigma) < 0):
        raise ValueError("per-component sigma must be nonnegative")
    return (lam - sigma * g) / (1.0 + sigma)


def clip_linf(lam: Vector, c: float) -> np.ndarray:
    """Projection onto the l-inf ball of radius c.

    Equivalent to c*lam / max(c, |lam|) but clamped directly so clipped
    components land on +-c exactly (bitwise idempotent).
    """
    if not c > 0:
        raise ValueError("clip radius must be positive")
    lam = np.asarray(lam, dtype=float)
    return np.clip(lam, -c, c)


def shrink(v: Vector, beta: float) -> np.ndarray:
    """Soft threshold sign(v) * max(|v| - beta, 0)."""
    if beta < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - beta, 0.0)


def default_l1_tol(v: Vector) -> float:
    """Bound on an l1 prox's distance from the sort-based reference, as
    recorded by `validate_prox`: 1e-10 relative to max(1, ||v||_1)."""
    return L1_TOL_SCALE * max(1.0, float(np.abs(v).sum()))


def _l1_threshold(a: np.ndarray, total: float, r: float, hint: float = 0.0) -> float:
    """Threshold beta >= 0 with sum(max(a - beta, 0)) = r, for a >= 0
    with sum(a) = total > r > 0.

    Michelot's iteration (see Condat 2016): beta is the mean excess of
    the active set over r, and entries at or below beta leave the set
    until none does.  beta only grows, so a dropped entry never returns
    and the loop ends within a.size passes.  Two guards keep this under
    rounding: beta is never lowered (with r within rounding of ||a||_1
    the shrunk set's sum can round below r, and beta below zero), and
    the set never empties (with r below the rounding of the active sum
    every entry can look dropped; the largest is always active, so the
    current beta is kept).

    A positive `hint` (a nearby threshold, such as the previous step's)
    starts the iteration one Newton step from it on the excess
    f(b) = sum(max(a - b, 0)) - r.  f is convex and decreasing, so the
    step b1 lands at or left of the root from either side, and the
    entries above b1 contain the final active set.  That start is kept
    only if its mean excess is at least b1, which holds exactly when
    b1 is at or left of the root; otherwise (and for a zero, huge or
    non-finite hint) the iteration starts from all of a.  Both starts
    end on the same active set in the same order, so they return the
    same beta, bit for bit, unless an entry lies within rounding of
    the threshold and lands on the other side of it.
    """
    act = a
    beta = (total - r) / a.size
    if 0.0 < hint < np.inf:
        t = a - hint
        count = np.count_nonzero(t > 0.0)
        if count:
            b1 = hint + (np.maximum(t, 0.0, out=t).sum() - r) / count
            start = np.compress(a > b1, a)
            if start.size and (b := (start.sum() - r) / start.size) >= b1:
                act, beta = start, b
    # act.min() > beta: every entry stays, the set is final
    while not act.min() > beta:
        keep = np.compress(act > beta, act)
        if not keep.size:
            break
        act = keep
        beta = max(beta, (act.sum() - r) / act.size)
    return float(beta)


def project_l1_ball(v: Vector, r: float) -> ProxResult:
    """Exact Euclidean projection onto the l1 ball of radius r.

    By Moreau's identity this is v minus `prox_tvc_conjugate(v, r)`,
    which equals shrink(v, beta) with that prox's threshold beta.
    Inputs already inside the ball return unchanged with beta = 0.
    """
    res = prox_tvc_conjugate(v, r)
    return ProxResult(v - res.value, aux=res.aux)


def project_l1_ball_sorted(v: Vector, r: float) -> ProxResult:
    """Exact l1-ball projection via the sort-and-threshold construction.

    Reference implementation used to cross-check `project_l1_ball` and
    the solvers' dual prox (`validate_prox`); the solvers never call it.
    """
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= r:
        return ProxResult(v.copy(), aux=0.0)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, a.size + 1)
    # largest k with u_k > (sum of top k - r) / k; the largest entry
    # always qualifies, also when r is below the rounding of ||v||_1,
    # and beta > 0 also when r is within rounding of ||v||_1
    theta_cand = (css - r) / k
    k_star = np.flatnonzero(u > theta_cand).max(initial=0)
    beta = max(float(theta_cand[k_star]), 0.0)
    return ProxResult(shrink(v, beta), aux=beta)


def prox_tvc_conjugate(lam_g: Vector, radius: float, hint: float = 0.0) -> ProxResult:
    """Prox of the conjugate of the l1-ball indicator, via Moreau.

    prox = lam_g - projection of lam_g onto the l1 ball of the given
    radius (nu*gamma*sigma for a dual step sigma), which is the clip of
    lam_g to [-beta, beta] with the projection's threshold beta.  When
    lam_g is already inside the ball the output is exactly zero (and the
    reported beta is zero).  `hint` is a nearby threshold to start the
    search from (see `_l1_threshold`); the result is exact for any hint.
    """
    if not radius > 0:
        raise ValueError("ball radius must be positive")
    lam_g = np.asarray(lam_g, dtype=float)
    a = np.abs(lam_g)
    total = float(a.sum())
    if not np.isfinite(total):
        raise ValueError("cannot project a non-finite vector")
    if total <= radius:
        return ProxResult(np.zeros_like(lam_g), aux=0.0)
    beta = _l1_threshold(a, total, radius, hint)
    # np.clip's Python wrapper costs more than the two ufuncs on short vectors
    out = np.maximum(lam_g, -beta)
    return ProxResult(np.minimum(out, beta, out=out), aux=beta)


def lf_transform_numeric(f: Grid1D, m_grid: Vector) -> Grid1D:
    """Numeric Legendre-Fenchel transform f*(m) = max_x (m*x - f(x)).

    Samples with f(x) = +inf are skipped (indicator-function
    convention); an all-infinite input has no finite conjugate.
    """
    m_grid = np.asarray(m_grid, dtype=float)
    finite = np.isfinite(f.values)
    if not finite.any():
        raise ValueError("all samples are infinite; conjugate undefined on the grid")
    x = f.x[finite]
    fx = f.values[finite]
    conj = np.max(m_grid[:, None] * x[None, :] - fx[None, :], axis=1)
    return Grid1D(m_grid, conj)
