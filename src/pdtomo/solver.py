"""Primal-dual solvers for least-squares and TV-regularized CT problems.

Implements the Chambolle-Pock iteration (theta = 1, x-update first)
for three problems built on the splitting min_x phi(A x):

  lsq:    phi(y) = 0.5 ||y - g||^2,                     A = X
  tvlsq:  phi(y) = 0.5 ||y_s - g||^2 + (beta/nu)||y_g||_1,  A = [X; nu D]
  tvclsq: phi(y) = 0.5 ||y_s - g||^2 + indicator(||y_g||_1 <= nu*gamma)

plus gradient descent and CGLS baselines on the plain least-squares
problem, and the shared convergence metrics: the splitting gap
r_sigma = A x - y, the transversality residual r_tau = A^T lambda,
image/data RMSE, the least-squares objective gradient, and the
conditional primal-dual gap.
"""

from __future__ import annotations

import csv
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linop import LinearMap, StackedMap, Vector, stack
from .prox import (
    clip_linf,
    default_l1_tol,
    prox_lsq_conjugate,
    prox_tvc_conjugate,
    project_l1_ball_sorted,
)
from .spectral import StepPlan, spectral_norm

PROBLEM_KINDS = ("lsq", "tvlsq", "tvclsq")

# Abort when ||x|| grows by this factor over a 10-iteration window.
DIVERGENCE_FACTOR = 1e6
DIVERGENCE_WINDOW = 10


class DivergenceError(RuntimeError):
    """The iteration produced non-finite values or exploding norms."""


@dataclass
class SaddleState:
    """One primal-dual iterate: image x, dual lambda, extrapolated
    image xbar, and the splitting variable y."""

    x: np.ndarray
    lam: np.ndarray
    xbar: np.ndarray
    y: np.ndarray
    iteration: int = 0


@dataclass
class ProblemSpec:
    """A problem instance: operators, data, and regularization knobs.

    `x_map` is the (masked) projector; `d_map` the gradient operator for
    the TV problems; `nu` the stack weight making X and nu*D comparable
    in magnitude; `active` an optional pixel mask restricting the image
    RMSE.  `l1_tol` overrides the dual root-solve tolerance (tvclsq).
    """

    kind: str
    x_map: LinearMap
    g: np.ndarray
    d_map: LinearMap | None = None
    beta: float = 0.0
    gamma: float | None = None
    nu: float = 1.0
    active: np.ndarray | None = None
    l1_tol: float | None = None

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


@dataclass
class ConvergenceRecord:
    """Per-iteration metric history; NaN marks undefined entries."""

    iters: list[int] = field(default_factory=list)
    r_sigma: list[float] = field(default_factory=list)
    r_tau: list[float] = field(default_factory=list)
    image_rmse: list[float] = field(default_factory=list)
    data_rmse: list[float] = field(default_factory=list)
    grad_mag: list[float] = field(default_factory=list)
    cpd_gap: list[float] = field(default_factory=list)
    beta: list[float] = field(default_factory=list)
    constraint_gap: list[float] = field(default_factory=list)
    prox_residual: list[float] = field(default_factory=list)
    prox_tol: list[float] = field(default_factory=list)

    def append(
        self,
        iteration: int,
        r_sigma=np.nan,
        r_tau=np.nan,
        image_rmse=np.nan,
        data_rmse=np.nan,
        grad_mag=np.nan,
        cpd_gap=np.nan,
        beta=np.nan,
        constraint_gap=np.nan,
        prox_residual=np.nan,
        prox_tol=np.nan,
    ):
        self.iters.append(int(iteration))
        self.r_sigma.append(float(r_sigma))
        self.r_tau.append(float(r_tau))
        self.image_rmse.append(float(image_rmse))
        self.data_rmse.append(float(data_rmse))
        self.grad_mag.append(float(grad_mag))
        self.cpd_gap.append(float(cpd_gap))
        self.beta.append(float(beta))
        self.constraint_gap.append(float(constraint_gap))
        self.prox_residual.append(float(prox_residual))
        self.prox_tol.append(float(prox_tol))

    def column(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name), dtype=float)

    def at_iteration(self, iteration: int, name: str) -> float:
        idx = self.iters.index(iteration)
        return getattr(self, name)[idx]

    def to_csv(self, path) -> None:
        """Write the fixed-schema CSV; NaN cells are left empty."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for i, it in enumerate(self.iters):
                row = [str(it)]
                for name in CSV_COLUMNS[1:]:
                    v = getattr(self, name)[i]
                    row.append("" if np.isnan(v) else repr(float(v)))
                writer.writerow(row)


def image_rmse(x: Vector, reference: Vector | None, active: np.ndarray | None) -> float:
    """||x - reference||_2 / sqrt(n) over active pixels (all when no mask)."""
    if reference is None:
        return np.nan
    diff = x - reference
    if active is not None:
        diff = diff[active]
    return float(np.linalg.norm(diff) / np.sqrt(diff.size))


def _cpd_gap(problem: ProblemSpec, ax: Vector, lam: Vector, offsets) -> tuple[float, float]:
    """Bounded part of the primal-dual gap, plus the indicator-constraint
    distance tracked separately (NaN when the problem has none).

    The gap may legitimately be negative while the indicator constraints
    are violated.
    """
    g = problem.g
    if problem.kind == "lsq":
        gap = 0.5 * np.sum((ax - g) ** 2) + 0.5 * np.sum(lam**2) + lam @ g
        return float(gap), np.nan
    m_s = offsets[1]
    ax_s, ax_g = ax[:m_s], ax[m_s:]
    lam_s, lam_g = lam[:m_s], lam[m_s:]
    data_part = 0.5 * np.sum((ax_s - g) ** 2) + 0.5 * np.sum(lam_s**2) + lam_s @ g
    if problem.kind == "tvlsq":
        gap = data_part + (problem.beta / problem.nu) * np.abs(ax_g).sum()
        radius = problem.beta / problem.nu
        dist = max(0.0, float(np.abs(lam_g).max(initial=0.0) - radius)) if radius > 0 else float(
            np.abs(lam_g).max(initial=0.0)
        )
        return float(gap), dist
    # tvclsq: the dual support function is bounded; the primal l1-ball
    # indicator becomes a constraint distance
    radius = problem.nu * problem.gamma
    gap = data_part + radius * np.abs(lam_g).max(initial=0.0)
    dist = max(0.0, float(np.abs(ax_g).sum() - radius))
    return float(gap), dist


ProxFn = Callable[[np.ndarray, object], tuple[np.ndarray, float]]


def make_prox(problem: ProblemSpec) -> ProxFn:
    """Dual prox for the problem: maps (lambda + sigma*A xbar, sigma) to
    the updated dual and the root-solve threshold beta (zero when the
    problem has no root solve)."""
    if problem.kind == "lsq":

        def prox_lsq(v, sigma):
            return prox_lsq_conjugate(v, sigma, problem.g), 0.0

        return prox_lsq

    m_s = problem.x_map.range_dim

    if problem.kind == "tvlsq":
        radius = problem.beta / problem.nu

        def prox_tvlsq(v, sigma):
            sigma_s = sigma[:m_s] if np.ndim(sigma) else sigma
            out = np.empty_like(v)
            out[:m_s] = prox_lsq_conjugate(v[:m_s], sigma_s, problem.g)
            if radius > 0:
                out[m_s:] = clip_linf(v[m_s:], radius)
            else:
                out[m_s:] = 0.0
            return out, 0.0

        return prox_tvlsq

    def prox_tvclsq(v, sigma):
        if np.ndim(sigma):
            raise ValueError("the l1-ball dual prox needs a scalar sigma")
        out = np.empty_like(v)
        out[:m_s] = prox_lsq_conjugate(v[:m_s], sigma, problem.g)
        res = prox_tvc_conjugate(
            v[m_s:], sigma, problem.nu * problem.gamma * sigma, tol=problem.l1_tol
        )
        out[m_s:] = res.value
        return out, res.aux

    return prox_tvclsq


def cppd_step(
    state: SaddleState,
    plan: StepPlan,
    prox: ProxFn,
    a_map: LinearMap,
    theta: float = 1.0,
) -> SaddleState:
    """One primal-dual update (x first, then extrapolation, dual prox,
    and the appended splitting-variable update)."""
    x_new = state.x - plan.apply_tau(a_map.adjoint(state.lam))
    xbar = (1.0 + theta) * x_new - theta * state.x
    axbar = a_map(xbar)
    lam_new, _ = prox(state.lam + plan.sigma * axbar, plan.sigma)
    y_new = (state.lam - lam_new) * plan.sigma_reciprocal() + axbar
    for name, v in (("x", x_new), ("lambda", lam_new), ("y", y_new)):
        if not np.all(np.isfinite(v)):
            raise DivergenceError(
                f"non-finite {name} at iteration {state.iteration + 1}"
            )
    return SaddleState(x_new, lam_new, xbar, y_new, state.iteration + 1)


def metrics(
    state: SaddleState, problem: ProblemSpec, reference: Vector | None = None
) -> dict:
    """All convergence metrics of a state, recomputed from scratch."""
    a_map = problem.operator()
    offsets = a_map.offsets if isinstance(a_map, StackedMap) else (0, a_map.range_dim)
    ax = a_map(state.x)
    m_s = offsets[1]
    resid = ax[:m_s] - problem.g
    gap, dist = _cpd_gap(problem, ax, state.lam, offsets)
    return {
        "r_sigma": float(np.linalg.norm(ax - state.y)),
        "r_tau": float(np.linalg.norm(a_map.adjoint(state.lam))),
        "image_rmse": image_rmse(state.x, reference, problem.active),
        "data_rmse": float(np.linalg.norm(resid) / np.sqrt(resid.size)),
        "grad_mag": float(np.linalg.norm(problem.x_map.adjoint(resid))),
        "cpd_gap": gap,
        "constraint_gap": dist,
    }


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


def _run_primal_dual(
    problem: ProblemSpec,
    plan: StepPlan,
    k_max: int,
    reference: Vector | None,
    record_stride: int,
    validate_prox: bool,
) -> tuple[SaddleState, ConvergenceRecord]:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    a_map = problem.operator()
    offsets = a_map.offsets if isinstance(a_map, StackedMap) else (0, a_map.range_dim)
    m_s = offsets[1]
    prox = make_prox(problem)
    sigma = plan.sigma
    inv_sigma = plan.sigma_reciprocal()

    n, m = a_map.domain_dim, a_map.range_dim
    x = np.zeros(n)
    lam = np.zeros(m)
    y = np.zeros(m)
    ax = np.zeros(m)
    atl = np.zeros(n)
    guard = _DivergenceGuard()
    record = ConvergenceRecord()

    def emit(iteration: int, beta_now: float, prox_res: float, prox_tol: float):
        resid = ax[:m_s] - problem.g
        gap, dist = _cpd_gap(problem, ax, lam, offsets)
        record.append(
            iteration,
            r_sigma=np.linalg.norm(ax - y),
            r_tau=np.linalg.norm(atl),
            image_rmse=image_rmse(x, reference, problem.active),
            data_rmse=np.linalg.norm(resid) / np.sqrt(resid.size),
            grad_mag=np.linalg.norm(problem.x_map.adjoint(resid)),
            cpd_gap=gap,
            beta=beta_now if problem.kind == "tvclsq" else np.nan,
            constraint_gap=dist,
            prox_residual=prox_res,
            prox_tol=prox_tol,
        )

    emit(0, 0.0, np.nan, np.nan)
    for k in range(1, k_max + 1):
        x_new = x - plan.apply_tau(atl)
        xbar = 2.0 * x_new - x
        axbar = a_map(xbar)
        dual_arg = lam + sigma * axbar
        lam_new, beta_now = prox(dual_arg, sigma)
        prox_res = np.nan
        prox_tol = np.nan
        if validate_prox and problem.kind == "tvclsq":
            # independent check of the dual update against the exact
            # sort-based ball projection
            v_g = dual_arg[m_s:]
            radius = problem.nu * problem.gamma * sigma
            ref_g = v_g - project_l1_ball_sorted(v_g, radius).value
            prox_res = float(np.linalg.norm(lam_new[m_s:] - ref_g))
            prox_tol = problem.l1_tol if problem.l1_tol is not None else default_l1_tol(v_g)
        y = (lam - lam_new) * inv_sigma + axbar
        ax = 0.5 * (axbar + ax)
        atl = a_map.adjoint(lam_new)
        x, lam = x_new, lam_new
        guard.check(x, k)
        if k % record_stride == 0 or k == k_max:
            emit(k, beta_now, prox_res, prox_tol)

    return SaddleState(x, lam, xbar, y, k_max), record


def run_cppd_lsq(
    problem: ProblemSpec,
    plan: StepPlan,
    k_max: int,
    reference: Vector | None = None,
    record_stride: int = 1,
) -> tuple[SaddleState, ConvergenceRecord]:
    """Primal-dual iteration on the plain least-squares problem."""
    if problem.kind != "lsq":
        raise ValueError("run_cppd_lsq expects an lsq problem")
    return _run_primal_dual(problem, plan, k_max, reference, record_stride, False)


def run_cppd_tvlsq(
    problem: ProblemSpec,
    plan: StepPlan,
    k_max: int,
    reference: Vector | None = None,
    record_stride: int = 1,
) -> tuple[SaddleState, ConvergenceRecord]:
    """Primal-dual iteration on TV-penalized least squares."""
    if problem.kind != "tvlsq":
        raise ValueError("run_cppd_tvlsq expects a tvlsq problem")
    return _run_primal_dual(problem, plan, k_max, reference, record_stride, False)


def run_cppd_tvclsq(
    problem: ProblemSpec,
    plan: StepPlan,
    k_max: int,
    reference: Vector | None = None,
    record_stride: int = 1,
    validate_prox: bool = False,
) -> tuple[SaddleState, ConvergenceRecord]:
    """Primal-dual iteration on TV-constrained least squares.

    With validate_prox=True every dual update is cross-checked against
    the exact sort-based l1-ball projection and the residual recorded.
    """
    if problem.kind != "tvclsq":
        raise ValueError("run_cppd_tvclsq expects a tvclsq problem")
    return _run_primal_dual(problem, plan, k_max, reference, record_stride, validate_prox)


def run_cppd(
    problem: ProblemSpec,
    plan: StepPlan,
    k_max: int,
    reference: Vector | None = None,
    record_stride: int = 1,
    validate_prox: bool = False,
) -> tuple[SaddleState, ConvergenceRecord]:
    """Dispatch to the problem-specific run function."""
    runner = {
        "lsq": run_cppd_lsq,
        "tvlsq": run_cppd_tvlsq,
        "tvclsq": run_cppd_tvclsq,
    }[problem.kind]
    if problem.kind == "tvclsq":
        return runner(problem, plan, k_max, reference, record_stride, validate_prox)
    return runner(problem, plan, k_max, reference, record_stride)


def run_gd_lsq(
    problem: ProblemSpec,
    alpha: float,
    k_max: int,
    reference: Vector | None = None,
    L: float | None = None,
    record_stride: int = 1,
) -> tuple[SaddleState, ConvergenceRecord]:
    """Gradient descent f+ = f - (alpha/L^2) X^T (X f - g) from zero.

    Steps with alpha outside (0, 2) are allowed but flagged, since the
    fixed-point iteration is then no longer a contraction.
    """
    if problem.kind != "lsq":
        raise ValueError("run_gd_lsq expects an lsq problem")
    if not 0 < alpha < 2:
        warnings.warn(
            f"gradient-descent relaxation alpha={alpha} outside (0, 2)", RuntimeWarning
        )
    if L is None:
        L = spectral_norm(problem.x_map)
    x_map, g = problem.x_map, problem.g
    step = alpha / L**2
    x = np.zeros(x_map.domain_dim)
    guard = _DivergenceGuard()
    record = ConvergenceRecord()

    def emit(iteration, resid, grad):
        record.append(
            iteration,
            image_rmse=image_rmse(x, reference, problem.active),
            data_rmse=np.linalg.norm(resid) / np.sqrt(resid.size),
            grad_mag=np.linalg.norm(grad),
        )

    resid = x_map(x) - g
    grad = x_map.adjoint(resid)
    emit(0, resid, grad)
    for k in range(1, k_max + 1):
        x = x - step * grad
        guard.check(x, k)
        resid = x_map(x) - g
        grad = x_map.adjoint(resid)
        if k % record_stride == 0 or k == k_max:
            emit(k, resid, grad)
    state = SaddleState(x, np.zeros_like(g), x.copy(), x_map(x), k_max)
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
        record.append(
            iteration,
            image_rmse=image_rmse(x, reference, active),
            data_rmse=np.linalg.norm(resid) / np.sqrt(resid.size),
            grad_mag=np.linalg.norm(operator.adjoint(resid)),
        )

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
    state = SaddleState(x, np.zeros_like(g), x.copy(), operator(x), done)
    return state, record
