"""Primal-dual solvers for least-squares and TV-regularized CT problems.

Implements the Chambolle-Pock iteration (theta = 1, x-update first)
for three problems built on the splitting min_x phi(A x):

  lsq:    phi(y) = 0.5 ||y - g||^2,                     A = X
  tvlsq:  phi(y) = 0.5 ||y_s - g||^2 + (beta/nu)||y_g||_1,  A = [X; nu D]
  tvclsq: phi(y) = 0.5 ||y_s - g||^2 + indicator(||y_g||_1 <= nu*gamma)

The update has one body.  `cppd_step` applies it to a `SaddleState`,
which carries the products A x and A^T lambda so that each step costs
one forward and one adjoint apply, and rejects non-finite results;
`run_cppd` applies it k_max times from zero under the cheaper
image-norm divergence guard.  One metric function covers the
splitting gap r_sigma = A x - y, the transversality residual
r_tau = A^T lambda, image/data RMSE, the least-squares objective
gradient, and the conditional primal-dual gap; gradient descent and
CGLS baselines on the plain least-squares problem share its RMSE and
gradient part.
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
    that prox, and when the dual argument lies inside the ball).
    """

    x: np.ndarray
    lam: np.ndarray
    xbar: np.ndarray
    y: np.ndarray | None
    iteration: int = 0
    ax: np.ndarray | None = None
    atl: np.ndarray | None = None
    beta: float = 0.0


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
    per-component sigma."""
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
    from inv_sigma = 1/sigma, and left None when inv_sigma is None.
    """
    atl = a_map.adjoint(state.lam) if state.atl is None else state.atl
    ax = a_map(state.x) if state.ax is None else state.ax
    x_new = state.x - plan.apply_tau(atl)
    xbar = 2.0 * x_new - state.x
    axbar = a_map(xbar)
    lam_new, beta = prox(state.lam + plan.sigma * axbar, plan.sigma, state.beta)
    y_new = None if inv_sigma is None else (state.lam - lam_new) * inv_sigma + axbar
    return SaddleState(
        x_new,
        lam_new,
        xbar,
        y_new,
        state.iteration + 1,
        ax=0.5 * (axbar + ax),
        atl=a_map.adjoint(lam_new),
        beta=beta,
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


def _prox_check(
    problem: ProblemSpec, prev: SaddleState, new: SaddleState, plan: StepPlan, a_map
) -> dict:
    """Distance of the l1-ball dual update prev -> new from the
    sort-based projection, with the fixed bound `default_l1_tol`;
    RuntimeError when the distance exceeds the bound.  The dual argument
    is rebuilt bit for bit at the cost of one forward apply."""
    m_s = problem.x_map.range_dim
    v_g = (prev.lam + plan.sigma * a_map(new.xbar))[m_s:]
    radius = problem.nu * problem.gamma * plan.sigma
    ref_g = v_g - project_l1_ball_sorted(v_g, radius).value
    residual = float(np.linalg.norm(new.lam[m_s:] - ref_g))
    bound = default_l1_tol(v_g)
    if not residual <= bound:
        raise RuntimeError(
            f"dual prox cross-check failed at iteration {new.iteration}: "
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


def run_cppd(
    problem: ProblemSpec,
    plan: StepPlan,
    k_max: int,
    reference: Vector | None = None,
    record_stride: int = 1,
    validate_prox: bool = False,
) -> tuple[SaddleState, ConvergenceRecord]:
    """k_max primal-dual steps from zero, recording the metrics at
    iteration 0, every record_stride-th iteration and the last.

    With validate_prox=True a tvclsq dual update is cross-checked at
    each recorded iteration against the exact sort-based l1-ball
    projection and the residual recorded; a residual above its bound
    raises RuntimeError.  Only the recorded states carry y; the
    returned final state always does.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if problem.kind != "lsq" and np.ndim(plan.sigma):
        raise ValueError("the TV dual prox needs a scalar sigma")
    a_map = problem.operator()
    prox = make_prox(problem)
    inv_sigma = plan.sigma_reciprocal()
    check_prox = validate_prox and problem.kind == "tvclsq"
    n, m = a_map.domain_dim, a_map.range_dim
    zero_x, zero_lam = np.zeros(n), np.zeros(m)
    state = SaddleState(zero_x, zero_lam, zero_x, zero_lam, ax=zero_lam, atl=zero_x)
    guard = _DivergenceGuard()
    record = ConvergenceRecord()

    def emit(s: SaddleState, **extra):
        record.append(
            s.iteration,
            **_pd_metrics(problem, s.x, s.lam, s.y, s.ax, s.atl, reference),
            beta=s.beta if problem.kind == "tvclsq" else np.nan,
            **extra,
        )

    emit(state)
    for k in range(1, k_max + 1):
        prev = state
        recorded = k % record_stride == 0 or k == k_max
        state = _advance(prev, plan, prox, a_map, inv_sigma if recorded else None)
        guard.check(state.x, k)
        if recorded:
            checked = _prox_check(problem, prev, state, plan, a_map) if check_prox else {}
            emit(state, **checked)
    return state, record


def run_gd_lsq(
    problem: ProblemSpec,
    alpha: float,
    k_max: int,
    L: float,
    reference: Vector | None = None,
    record_stride: int = 1,
) -> tuple[SaddleState, ConvergenceRecord]:
    """Gradient descent f+ = f - (alpha/L^2) X^T (X f - g) from zero,
    L an upper bound on ||X||.

    Steps with alpha outside (0, 2) are allowed but flagged, since the
    fixed-point iteration is then no longer a contraction.
    """
    if problem.kind != "lsq":
        raise ValueError("run_gd_lsq expects an lsq problem")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not 0 < alpha < 2:
        warnings.warn(
            f"gradient-descent relaxation alpha={alpha} outside (0, 2)", RuntimeWarning
        )
    x_map, g = problem.x_map, problem.g
    step = alpha / L**2
    x = np.zeros(x_map.domain_dim)
    guard = _DivergenceGuard()
    record = ConvergenceRecord()
    resid = x_map(x) - g
    grad = x_map.adjoint(resid)
    record.append(0, **_fit_metrics(x, resid, grad, reference, problem.active))
    for k in range(1, k_max + 1):
        x = x - step * grad
        guard.check(x, k)
        resid = x_map(x) - g
        grad = x_map.adjoint(resid)
        if k % record_stride == 0 or k == k_max:
            record.append(k, **_fit_metrics(x, resid, grad, reference, problem.active))
    state = SaddleState(x, np.zeros_like(g), x, None, k_max)
    return state, record


def run_cgls(
    operator: LinearMap,
    g: Vector,
    k_max: int,
    reference: Vector | None = None,
    active: np.ndarray | None = None,
    record_stride: int = 1,
) -> tuple[SaddleState, ConvergenceRecord]:
    """CGLS on the normal equations, zero start, no preconditioning.

    Stops cleanly at the current iterate on breakdown (zero search
    direction or curvature); the last iterate is always recorded and
    the state reports the iteration the loop stopped at.  The
    residual-based metrics r_sigma, r_tau and the primal-dual gap are
    undefined here and left empty.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    g = np.asarray(g, dtype=float)
    x = np.zeros(operator.domain_dim)
    r = g - operator(x)
    s = operator.adjoint(r)
    p = s.copy()
    gamma = float(s @ s)
    record = ConvergenceRecord()

    def emit(iteration):
        resid = operator(x) - g
        grad = operator.adjoint(resid)
        record.append(iteration, **_fit_metrics(x, resid, grad, reference, active))

    emit(0)
    done = 0
    for k in range(1, k_max + 1):
        q = operator(p)
        delta = float(q @ q)
        if delta == 0.0 or gamma == 0.0:
            break
        a_step = gamma / delta
        x = x + a_step * p
        r = r - a_step * q
        s = operator.adjoint(r)
        gamma_new = float(s @ s)
        b_step = gamma_new / gamma
        gamma = gamma_new
        p = s + b_step * p
        done = k
        if k % record_stride == 0:
            emit(k)
    if record.iters[-1] != done:
        emit(done)
    state = SaddleState(x, np.zeros_like(g), x, None, done)
    return state, record
