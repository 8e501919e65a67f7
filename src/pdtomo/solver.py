"""Primal-dual solvers for least-squares and TV-regularized CT problems.

Implements the Chambolle-Pock iteration (theta = 1, x-update first)
for three problems built on the splitting min_x phi(A x):

  lsq:    phi(y) = 0.5 ||y - g||^2,                     A = X
  tvlsq:  phi(y) = 0.5 ||y_s - g||^2 + (beta/nu)||y_g||_1,  A = [X; nu D]
  tvclsq: phi(y) = 0.5 ||y_s - g||^2 + indicator(||y_g||_1 <= nu*gamma)

The update has one body; `cppd_step` applies it to a `SaddleState`,
which carries A x and A^T lambda, and rejects non-finite results.  One
loop, `_iterate`, runs it and the gradient-descent and CGLS baselines
with one record policy, one divergence guard and CGLS's breakdown
stop.  Applies per step, then per record: CP one A and one A^T, then
one X^T, also with validate_prox; GD one X and one X^T, then none;
CGLS one X and one X^T, then one of each again, as its recursive
residual drifts; GD and CGLS add one X and one X^T at set-up.  One
metric function covers r_sigma = ||A x - y||, r_tau = ||A^T lambda||,
image/data RMSE, the least-squares gradient and the conditional
primal-dual gap; the baselines share its fit part.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fileio import write_csv
from .linop import LinearMap, Vector, stack
from .prox import (
    clip_linf,
    default_l1_tol,
    prox_lsq_conjugate,
    prox_tvc_conjugate,
    project_l1_ball_sorted,
)
from .spectral import StepPlan

PROBLEM_KINDS = ("lsq", "tvlsq", "tvclsq")

# Abort when ||x|| grows by this factor over a 10-iteration window.
DIVERGENCE_FACTOR = 1e6
DIVERGENCE_WINDOW = 10


class DivergenceError(RuntimeError):
    """The iteration produced non-finite values or exploding norms."""


@dataclass
class SaddleState:
    """One primal-dual iterate: image x, dual lambda, extrapolated
    image xbar, and the splitting variable y (None where it was not
    formed: on steps `run_cppd` does not record, and in the GD and CGLS
    results, whose xbar is x).

    `ax` = A x and `atl` = A^T lambda are carried from step to step
    (None: not yet computed); `beta` is the l1-ball dual prox threshold
    of the update that produced the state (zero for problems without
    that prox, and when the dual argument lies inside the ball); `v` is
    that dual argument lambda + sigma*A xbar, kept where y is formed.
    """

    x: np.ndarray
    lam: np.ndarray
    xbar: np.ndarray
    y: np.ndarray | None
    iteration: int = 0
    ax: np.ndarray | None = None
    atl: np.ndarray | None = None
    beta: float = 0.0
    v: np.ndarray | None = None


@dataclass
class ProblemSpec:
    """A problem instance: operators, data, and regularization knobs.

    `x_map` is the system matrix X over the FOV pixels; `d_map` the gradient operator for
    the TV problems; `nu` the stack weight making X and nu*D comparable
    in magnitude; `active` an optional pixel mask restricting the image
    RMSE.
    """

    kind: str
    x_map: LinearMap
    g: np.ndarray
    d_map: LinearMap | None = None
    beta: float = 0.0
    gamma: float | None = None
    nu: float = 1.0
    active: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        self.g = np.asarray(self.g, dtype=float)
        if self.g.size != self.x_map.range_dim:
            raise ValueError("data vector does not match the projector range")
        if self.kind != "lsq":
            if self.d_map is None:
                raise ValueError(f"{self.kind} needs a gradient operator")
            if not self.nu > 0:
                raise ValueError("stack weight nu must be positive")
        if self.kind == "tvlsq" and self.beta < 0:
            raise ValueError("penalty beta must be nonnegative")
        if self.kind == "tvclsq" and not (self.gamma is not None and self.gamma > 0):
            raise ValueError("constraint gamma must be positive")

    def operator(self) -> LinearMap:
        """The full forward operator: X alone, or the stack [X; nu D]."""
        if self.kind == "lsq":
            return self.x_map
        return stack([(1.0, self.x_map), (self.nu, self.d_map)], label="[X;nuD]")


CSV_COLUMNS = (
    "iter",
    "r_sigma",
    "r_tau",
    "image_rmse",
    "data_rmse",
    "grad_mag",
    "cpd_gap",
    "beta",
)

# Every recorded metric; the CSV schema writes a subset.
METRIC_NAMES = CSV_COLUMNS[1:] + ("constraint_gap", "prox_residual", "prox_tol")


@dataclass
class ConvergenceRecord:
    """Per-iteration metric history, one list per column; NaN marks
    undefined entries.  Columns read as attributes: `record.r_sigma`."""

    columns: dict[str, list] = field(
        default_factory=lambda: {name: [] for name in ("iters",) + METRIC_NAMES}
    )

    def __getattr__(self, name: str) -> list:
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def append(self, iteration: int, **values) -> None:
        unknown = values.keys() - METRIC_NAMES
        if unknown:
            raise TypeError(f"unknown metric(s) {sorted(unknown)}")
        self.columns["iters"].append(int(iteration))
        for name in METRIC_NAMES:
            self.columns[name].append(float(values.get(name, np.nan)))

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name], dtype=float)

    def at_iteration(self, iteration: int, name: str) -> float:
        return self.columns[name][self.iters.index(iteration)]

    def to_csv(self, path) -> None:
        """Write the fixed-schema CSV; NaN cells are left empty."""
        names = ("iters",) + CSV_COLUMNS[1:]
        write_csv(path, CSV_COLUMNS, zip(*(self.columns[n] for n in names)))


def image_rmse(x: Vector, reference: Vector | None, active: np.ndarray | None) -> float:
    """||x - reference||_2 / sqrt(n) over active pixels (all when no mask)."""
    if reference is None:
        return np.nan
    diff = x - reference
    if active is not None:
        diff = diff[active]
    return float(np.linalg.norm(diff) / np.sqrt(diff.size))


def _cpd_gap(problem: ProblemSpec, ax: Vector, lam: Vector) -> tuple[float, float]:
    """Bounded part of the primal-dual gap, plus the indicator-constraint
    distance tracked separately (NaN when the problem has none).

    The gap may legitimately be negative while the indicator constraints
    are violated.
    """
    g = problem.g
    m_s = problem.x_map.range_dim
    ax_s, lam_s = ax[:m_s], lam[:m_s]
    gap = 0.5 * np.sum((ax_s - g) ** 2) + 0.5 * np.sum(lam_s**2) + lam_s @ g
    if problem.kind == "lsq":
        return float(gap), np.nan
    ax_g, lam_g = ax[m_s:], lam[m_s:]
    if problem.kind == "tvlsq":
        radius = problem.beta / problem.nu
        gap += radius * np.abs(ax_g).sum()
        return float(gap), max(0.0, float(np.abs(lam_g).max(initial=0.0) - radius))
    # tvclsq: the dual support function is bounded; the primal l1-ball
    # indicator becomes a constraint distance
    radius = problem.nu * problem.gamma
    gap += radius * np.abs(lam_g).max(initial=0.0)
    return float(gap), max(0.0, float(np.abs(ax_g).sum() - radius))


def _fit_metrics(x, resid, grad, reference, active) -> dict:
    """Image RMSE, data RMSE and least-squares gradient norm, given the
    data residual X x - g and the gradient X^T resid."""
    return {
        "image_rmse": image_rmse(x, reference, active),
        "data_rmse": float(np.linalg.norm(resid) / np.sqrt(resid.size)),
        "grad_mag": float(np.linalg.norm(grad)),
    }


def _pd_metrics(problem: ProblemSpec, x, lam, y, ax, atl, reference) -> dict:
    """All primal-dual metrics from an iterate and its products
    ax = A x and atl = A^T lambda; one X^T apply for the gradient."""
    resid = ax[: problem.x_map.range_dim] - problem.g
    grad = problem.x_map.adjoint(resid)
    gap, dist = _cpd_gap(problem, ax, lam)
    return {
        "r_sigma": float(np.linalg.norm(ax - y)),
        "r_tau": float(np.linalg.norm(atl)),
        **_fit_metrics(x, resid, grad, reference, problem.active),
        "cpd_gap": gap,
        "constraint_gap": dist,
    }


ProxFn = Callable[[np.ndarray, object, float], tuple[np.ndarray, float]]


def make_prox(problem: ProblemSpec) -> ProxFn:
    """Dual prox for the problem: maps (lambda + sigma*A xbar, sigma,
    hint) to the updated dual and the l1-ball threshold beta (zero when
    the problem has no l1-ball prox).  The hint, a nearby threshold such
    as the previous step's beta, only speeds up the l1-ball threshold
    search; the other problems ignore it.  Only lsq takes a
    per-component sigma; the TV prox raises ValueError on one."""
    if problem.kind == "lsq":

        def prox_lsq(v, sigma, hint=0.0):
            return prox_lsq_conjugate(v, sigma, problem.g), 0.0

        return prox_lsq

    m_s = problem.x_map.range_dim
    l1_ball = problem.kind == "tvclsq"
    # tvlsq clips at beta/nu; tvclsq projects onto the l1 ball of radius
    # nu*gamma*sigma and, by Moreau, clips at the projection's threshold
    radius = problem.nu * problem.gamma if l1_ball else problem.beta / problem.nu

    def prox_tv(v, sigma, hint=0.0):
        if np.ndim(sigma):
            raise ValueError("the TV dual prox needs a scalar sigma")
        out = np.empty_like(v)
        out[:m_s] = prox_lsq_conjugate(v[:m_s], sigma, problem.g)
        if l1_ball:
            res = prox_tvc_conjugate(v[m_s:], radius * sigma, hint)
            out[m_s:] = res.value
            return out, res.aux
        out[m_s:] = clip_linf(v[m_s:], radius) if radius > 0 else 0.0
        return out, 0.0

    return prox_tv


def _advance(
    state: SaddleState, plan: StepPlan, prox: ProxFn, a_map: LinearMap, inv_sigma
) -> SaddleState:
    """The CPPD update (theta = 1), shared by cppd_step and run_cppd.

    Missing products are computed first.  The new state carries
    A x+ = (A xbar + A x) / 2 and A^T lambda+, so a step with carried
    products costs one forward and one adjoint apply.  The dual prox
    starts its threshold search from the state's beta.  y+ is formed
    from inv_sigma = 1/sigma, and kept with the prox's argument v; both
    are left None when inv_sigma is None.
    """
    atl = a_map.adjoint(state.lam) if state.atl is None else state.atl
    ax = a_map(state.x) if state.ax is None else state.ax
    x_new = state.x - plan.apply_tau(atl)
    # in place on the step's own temporaries, in the same IEEE operations
    xbar = 2.0 * x_new
    xbar -= state.x
    axbar = a_map(xbar)
    v = plan.sigma * axbar
    v += state.lam
    lam_new, beta = prox(v, plan.sigma, state.beta)
    y_new = None if inv_sigma is None else (state.lam - lam_new) * inv_sigma + axbar
    axbar += ax
    axbar *= 0.5
    return SaddleState(
        x_new,
        lam_new,
        xbar,
        y_new,
        state.iteration + 1,
        ax=axbar,
        atl=a_map.adjoint(lam_new),
        beta=beta,
        v=None if y_new is None else v,
    )


def cppd_step(
    state: SaddleState, plan: StepPlan, prox: ProxFn, a_map: LinearMap
) -> SaddleState:
    """One primal-dual update (x first, then extrapolation, dual prox,
    and the appended splitting-variable update); raises DivergenceError
    on a non-finite result."""
    new = _advance(state, plan, prox, a_map, plan.sigma_reciprocal())
    for name, v in (("x", new.x), ("lambda", new.lam), ("y", new.y)):
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"non-finite {name} at iteration {new.iteration}")
    return new


def metrics(
    state: SaddleState, problem: ProblemSpec, reference: Vector | None = None
) -> dict:
    """All convergence metrics of a state, with A x and A^T lambda
    recomputed from scratch."""
    a_map = problem.operator()
    ax, atl = a_map(state.x), a_map.adjoint(state.lam)
    return _pd_metrics(problem, state.x, state.lam, state.y, ax, atl, reference)


def _prox_check(problem: ProblemSpec, state: SaddleState, plan: StepPlan) -> dict:
    """Distance of the l1-ball dual update that produced `state` from the
    sort-based projection of its dual argument `state.v`, with the fixed
    bound `default_l1_tol`; RuntimeError when the distance exceeds the
    bound.  Applies no operator."""
    m_s = problem.x_map.range_dim
    v_g = state.v[m_s:]
    radius = problem.nu * problem.gamma * plan.sigma
    ref_g = v_g - project_l1_ball_sorted(v_g, radius).value
    residual = float(np.linalg.norm(state.lam[m_s:] - ref_g))
    bound = default_l1_tol(v_g)
    if not residual <= bound:
        raise RuntimeError(
            f"dual prox cross-check failed at iteration {state.iteration}: "
            f"residual {residual:.3e} exceeds its bound {bound:.3e}"
        )
    return {"prox_residual": residual, "prox_tol": bound}


class _DivergenceGuard:
    """Abort when ||x|| is non-finite or explodes across a short window."""

    def __init__(self):
        self.history: deque[float] = deque(maxlen=DIVERGENCE_WINDOW + 1)

    def check(self, x: Vector, iteration: int):
        nrm = float(np.linalg.norm(x))
        if not np.isfinite(nrm):
            raise DivergenceError(f"non-finite image norm at iteration {iteration}")
        self.history.append(nrm)
        if len(self.history) > DIVERGENCE_WINDOW:
            past = self.history[0]
            if past > 0 and nrm > DIVERGENCE_FACTOR * past:
                raise DivergenceError(
                    f"image norm grew from {past:.3e} to {nrm:.3e} within "
                    f"{DIVERGENCE_WINDOW} iterations (at iteration {iteration})"
                )


@dataclass
class _LsqIterate:
    """A GD or CGLS iterate x with what its next step reuses: GD's r = X x - g
    and s = X^T r; CGLS's recursive r = g - X x, s, direction p, ||s||^2."""

    x: np.ndarray
    iteration: int
    r: np.ndarray
    s: np.ndarray
    p: np.ndarray | None = None
    gamma: float = 0.0


def _iterate(state, k_max: int, record_stride: int, step, emit):
    """Every solver's loop: up to k_max steps from `state` at iteration 0.
    `step(state, recorded)` returns the next state, or None to stop at the
    current one; `emit(state)` returns a state's metrics.  Each new x passes
    the divergence guard.  Metrics are recorded at 0, every
    record_stride-th and the last one reached."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    guard, record = _DivergenceGuard(), ConvergenceRecord()
    record.append(0, **emit(state))
    for k in range(1, k_max + 1):
        recorded = k % record_stride == 0 or k == k_max
        new = step(state, recorded)
        if new is None:
            break
        guard.check(new.x, k)
        state = new
        if recorded:
            record.append(k, **emit(state))
    if record.iters[-1] != state.iteration:
        record.append(state.iteration, **emit(state))
    return state, record


def run_cppd(
    problem: ProblemSpec,
    plan: StepPlan,
    k_max: int,
    reference: Vector | None = None,
    record_stride: int = 1,
    validate_prox: bool = False,
) -> tuple[SaddleState, ConvergenceRecord]:
    """k_max primal-dual steps from zero; only recorded states carry y.
    With validate_prox=True each recorded tvclsq dual update is checked
    against the exact sort-based l1-ball projection, and its residual
    recorded; a residual above its bound raises RuntimeError."""
    a_map = problem.operator()
    prox = make_prox(problem)
    inv_sigma = plan.sigma_reciprocal()
    check_prox = validate_prox and problem.kind == "tvclsq"
    zero_x, zero_lam = np.zeros(a_map.domain_dim), np.zeros(a_map.range_dim)
    state = SaddleState(zero_x, zero_lam, zero_x, zero_lam, ax=zero_lam, atl=zero_x)

    def step(s: SaddleState, recorded: bool) -> SaddleState:
        return _advance(s, plan, prox, a_map, inv_sigma if recorded else None)

    def emit(s: SaddleState) -> dict:
        check = check_prox and s.v is not None
        return {
            **(_prox_check(problem, s, plan) if check else {}),
            **_pd_metrics(problem, s.x, s.lam, s.y, s.ax, s.atl, reference),
            "beta": s.beta if problem.kind == "tvclsq" else np.nan,
        }

    return _iterate(state, k_max, record_stride, step, emit)


def run_gd_lsq(
    problem: ProblemSpec,
    alpha: float,
    k_max: int,
    L: float,
    reference: Vector | None = None,
    record_stride: int = 1,
) -> tuple[SaddleState, ConvergenceRecord]:
    """Gradient descent f+ = f - (alpha/L^2) X^T (X f - g) from zero,
    L an upper bound on ||X||.  Steps with alpha outside (0, 2) are
    allowed but flagged: the iteration is then no contraction."""
    if problem.kind != "lsq":
        raise ValueError("run_gd_lsq expects an lsq problem")
    if not 0 < alpha < 2:
        warnings.warn(
            f"gradient-descent relaxation alpha={alpha} outside (0, 2)", RuntimeWarning
        )
    x_map, g = problem.x_map, problem.g
    rate = alpha / L**2

    def fitted(x: np.ndarray, iteration: int) -> _LsqIterate:
        resid = x_map(x) - g
        return _LsqIterate(x, iteration, resid, x_map.adjoint(resid))

    state, record = _iterate(
        fitted(np.zeros(x_map.domain_dim), 0),
        k_max,
        record_stride,
        lambda s, recorded: fitted(s.x - rate * s.s, s.iteration + 1),
        lambda s: _fit_metrics(s.x, s.r, s.s, reference, problem.active),
    )
    return SaddleState(state.x, np.zeros_like(g), state.x, None, state.iteration), record


def run_cgls(
    operator: LinearMap,
    g: Vector,
    k_max: int,
    reference: Vector | None = None,
    active: np.ndarray | None = None,
    record_stride: int = 1,
) -> tuple[SaddleState, ConvergenceRecord]:
    """CGLS on the normal equations, zero start, no preconditioning;
    stops at the current iterate on breakdown (zero search direction or
    curvature).  r_sigma, r_tau and the primal-dual gap are left empty."""
    g = np.asarray(g, dtype=float)
    x = np.zeros(operator.domain_dim)
    r = g - operator(x)
    s = operator.adjoint(r)

    def step(it: _LsqIterate, recorded: bool) -> _LsqIterate | None:
        q = operator(it.p)
        delta = float(q @ q)
        if delta == 0.0 or it.gamma == 0.0:
            return None
        a_step = it.gamma / delta
        r = it.r - a_step * q
        s = operator.adjoint(r)
        gamma = float(s @ s)
        p = s + (gamma / it.gamma) * it.p
        return _LsqIterate(it.x + a_step * it.p, it.iteration + 1, r, s, p, gamma)

    def emit(it: _LsqIterate) -> dict:
        # X x - g afresh: the recursive residual r drifts from it
        resid = operator(it.x) - g
        return _fit_metrics(it.x, resid, operator.adjoint(resid), reference, active)

    start = _LsqIterate(x, 0, r, s, s, float(s @ s))
    state, record = _iterate(start, k_max, record_stride, step, emit)
    return SaddleState(state.x, np.zeros_like(g), state.x, None, state.iteration), record
