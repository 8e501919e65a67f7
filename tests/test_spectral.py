"""Tests for spectral estimation and step-size plans.

Oracles: numpy.linalg.eigh / SVD / inv on dense materializations, a
40-digit decimal Sturm bisection for the top of a tridiagonal, plus
closed-form spectra of constructed operators.
"""

import decimal
import random
import tracemalloc

import numpy as np
import pytest

from pdtomo import spectral
from pdtomo.ct import (
    ImageGrid,
    build_geometry,
    gradient,
    gradient_norm,
    projector,
)
from pdtomo.linop import LinearMap, stack
from pdtomo.spectral import (
    EigenSet,
    StepPlan,
    build_lowrank_T,
    diagonal_steps,
    leading_eigenpairs,
    lowrank_steps,
    scalar_steps,
    sigma_for_T,
    spectral_norm,
)

from oracles import convergence_matrix, from_dense, identity, materialize_dense


def well_gapped_map(n=6, seed=5):
    """Map A with A^T A = Q diag(16, 8, ...) Q^T: known, well-separated spectrum."""
    vals = 16.0 / 2.0 ** np.arange(n)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    a = np.diag(np.sqrt(vals)) @ q.T
    return from_dense(a), a, vals, q


# ---------------------------------------------------------------- EigenSet


def test_eigenset_validation():
    EigenSet(np.eye(3), [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="one eigenvalue per"):
        EigenSet(np.eye(3), [1.0, 0.5])
    with pytest.raises(ValueError, match="not orthogonal"):
        EigenSet([[1.0, 0.0], [0.8, 0.6]], [2.0, 1.0])
    with pytest.raises(ValueError, match="not unit norm"):
        EigenSet([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
    with pytest.raises(ValueError, match="sorted descending"):
        EigenSet(np.eye(2), [1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        EigenSet(np.eye(2), [1.0, -0.5])


@pytest.mark.parametrize(
    "vectors, values",
    [
        (np.full((2, 2), np.nan), [np.nan, np.nan]),
        (np.eye(2), [1.0, np.nan]),
        (np.eye(2), [np.inf, 1.0]),
        ([[1.0, 0.0], [0.0, np.nan]], [2.0, 1.0]),
    ],
)
def test_eigenset_rejects_non_finite_pairs(vectors, values):
    # a NaN makes every comparison false, so no bound may read x > tol
    with pytest.raises(ValueError, match="eigenpairs must be finite"):
        EigenSet(vectors, values)


def test_eigenset_rejects_an_empty_set():
    with pytest.raises(ValueError, match="the eigenset holds no eigenpairs"):
        EigenSet(np.zeros((0, 4)), np.zeros(0))


def test_eigenset_shape_properties():
    es = EigenSet(np.eye(4)[:2], [5.0, 1.0])
    assert es.k == 2 and es.n == 4


# ----------------------------------------------------------------- Lanczos


def test_spectral_norm_matches_dense_svd(rng):
    # a random matrix, and [X; nu D] at nx = 16, whose top three singular
    # values lie within 1.3% of each other; L errs above, by at most what
    # the residual stop (1e-10 of theta) allows
    grid = ImageGrid(16, 16, 18.0)
    x_map = projector(grid, build_geometry("desk-oversampled"))
    nu = spectral_norm(x_map, seed=7) / gradient_norm(grid)
    for a_map in (from_dense(rng.standard_normal((12, 7))), stack([(1.0, x_map), (nu, gradient(grid))])):
        want = np.linalg.norm(materialize_dense(a_map), 2)
        assert want <= spectral_norm(a_map) <= want * (1.0 + 1e-10)


def test_spectral_norm_zero_operator():
    z = LinearMap(4, 3, lambda v: np.zeros(3), lambda w: np.zeros(4))
    assert spectral_norm(z) == 0.0


def test_spectral_norm_restarts_past_an_invariant_subspace(monkeypatch):
    # the Krylov space of a rank-2 A^T A on R^50 has dimension 3, so the
    # run without a stored basis breaks down at step 3 and goes on from a
    # second random vector; the top eigenvalue 9 stops it at the step-5 check
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((50, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((50, 2)))
    a = from_dense(u @ np.diag([3.0, 2.0]) @ v.T)
    starts, applies, gaussian = [], [], spectral._gaussian

    def counted(gen, n):
        starts.append(n)
        return gaussian(gen, n)

    def forward(x):
        applies.append(1)
        return a(x)

    monkeypatch.setattr(spectral, "_gaussian", counted)
    got = spectral_norm(LinearMap(50, 50, forward, a.adjoint), seed=0)
    assert starts == [50, 50] and len(applies) == 5
    assert got == pytest.approx(3.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2, 7, 4096])
def test_start_vectors_repeat_per_seed_and_differ_across_seeds(n):
    draws = {seed: spectral._gaussian(random.Random(seed), n) for seed in (0, 1, 2**40 + 3)}
    assert np.array_equal(draws[0], spectral._gaussian(random.Random(0), n))
    assert all(d.shape == (n,) and np.isfinite(d).all() for d in draws.values())
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2**40 + 3])
    # the restart after a breakdown draws a fresh vector from the same stream
    gen = random.Random(0)
    first, second = spectral._gaussian(gen, n), spectral._gaussian(gen, n)
    assert np.array_equal(first, draws[0]) and not np.array_equal(first, second)


def test_start_vectors_are_standard_normal():
    # 2^16 Box-Muller draws: moments within a few standard errors
    x = spectral._gaussian(random.Random(7), 1 << 16)
    assert abs(x.mean()) < 0.02 and abs(x.var() - 1) < 0.03
    assert abs(np.mean(x**4) - 3) < 0.15


@pytest.mark.parametrize("quantity", ["norm", "sigma0"])
def test_norm_and_sigma0_hold_a_few_vectors_not_the_lanczos_basis(quantity):
    # [X; nu D] at 256^2 on desk-limited takes 65 Lanczos steps for
    # ||A|| (in R^n, n = 65,536) and 60 for sigma0 with T = I (in R^m,
    # m = 135,168); a stored basis would hold one vector per step
    grid = ImageGrid(256, 256, 18.0)
    x_map = projector(grid, build_geometry("desk-limited"))
    nu = spectral_norm(x_map, seed=0) / gradient_norm(grid)
    a = stack([(1.0, x_map), (nu, gradient(grid))])
    applies = []

    def forward(x):
        applies.append(1)
        return a(x)

    counted = LinearMap(a.domain_dim, a.range_dim, forward, a.adjoint)
    tracemalloc.start()
    try:
        if quantity == "norm":
            spectral_norm(counted, seed=0)
            dim = a.domain_dim
        else:
            sigma_for_T(counted, identity(a.domain_dim), seed=0)
            dim = a.range_dim
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(applies) >= 60
    assert peak < 10 * 8 * dim


# ------------------------------------------------- the one-pair Ritz check


def tridiagonal(alpha, beta):
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def top_eigenvalue_by_decimal_bisection(alpha, beta):
    """The largest eigenvalue of the float tridiagonal, by bisection on
    its Sturm count in 40-digit decimal arithmetic: far below one ulp,
    and independent of LAPACK and of the Laguerre iteration."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a = [decimal.Decimal(float(x)) for x in alpha]
        b2 = [decimal.Decimal(0)] + [decimal.Decimal(float(x)) ** 2 for x in beta]

        def above(mu):
            q = decimal.Decimal(1)
            for ai, bi in zip(a, b2):
                q = mu - ai - bi / q
                if q <= 0:
                    return False
            return True

        top = max(a)
        room = 1 + abs(top) + 2 * sum(abs(decimal.Decimal(float(x))) for x in beta)
        lo, hi = top - 1, top + room
        for _ in range(400):
            if hi - lo <= abs(hi) * decimal.Decimal("1e-32"):
                break
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return float(hi)


def lanczos_tridiagonal(spectrum, steps, seed, reorthogonalize):
    """(alpha, beta) of `steps` Lanczos steps on diag(spectrum); without
    reorthogonalisation a converged top value comes back as ghosts."""
    q = np.random.default_rng(seed).standard_normal(spectrum.size)
    q /= np.linalg.norm(q)
    basis, prev, alpha, beta = [q], np.zeros_like(q), [], [0.0]
    for _ in range(steps):
        w = spectrum * q
        alpha.append(q @ w)
        w = w - alpha[-1] * q - beta[-1] * prev
        if reorthogonalize:
            stored = np.array(basis)
            for _ in range(2):
                w -= stored.T @ (stored @ w)
        beta.append(np.linalg.norm(w))
        prev, q = q, w / beta[-1]
        basis.append(q)
    return np.array(alpha), np.array(beta[1:-1])


def random_tridiagonal(j, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, j), rng.uniform(0.3, 1.0, j - 1)


def spread(top, n=400):
    return np.append(np.linspace(0.0, 1.0, n - 1), top)


def with_split(first, second):
    """Block-diagonal join of two tridiagonals: the beta = 0 of a restart."""
    return np.concatenate([first[0], second[0]]), np.concatenate([first[1], [0.0], second[1]])


# The first Ritz check (5 steps) of the lowrank-sweep sigma0 run at seed 3
# (desk-oversampled, K = 25): Laguerre's second step from the Gershgorin
# bound lands on theta itself, where the last pivot is exactly zero.
SIGMA0_SEED3_ALPHA = [
    0.05730144960629078, 0.5294426026685995, 0.5910712781244345,
    0.5112601013893675, 0.4541785671031938,
]
SIGMA0_SEED3_BETA = [
    0.12093237629033549, 0.33662176788431064, 0.234378349025107, 0.23943136481224964,
]

# eigenvalues in [0.1, 1.4], below the 2.0 of spread(2.0)
LOW_BLOCK = tuple(0.5 * x for x in random_tridiagonal(5, 3))

TRIDIAGONALS = {
    "one-by-one": ([2.5], []),
    **{f"random-j{j}-seed{seed}": random_tridiagonal(j, seed)
       for j in (2, 5, 80, 155) for seed in (0, 1, 2)},
    # s_last from 0.3 at j = 5 down through 1e-12 to below 1e-20
    **{f"lanczos-top{top}-j{j}": lanczos_tridiagonal(spread(top), j, 0, True)
       for top in (1.02, 1.03, 1.05) for j in (5, 80, 100, 155)},
    # ghosts: two or three copies of the converged top, an ulp apart
    **{f"ghosts-j{j}": lanczos_tridiagonal(spread(1.5), j, 1, False) for j in (80, 155)},
    "split-top-in-last-block": with_split(LOW_BLOCK, lanczos_tridiagonal(spread(2.0), 12, 1, True)),
    "split-top-in-first-block": with_split(lanczos_tridiagonal(spread(2.0), 12, 1, True), LOW_BLOCK),
    "split-repeated-top": with_split(*[lanczos_tridiagonal(spread(1.5), 12, 2, True)] * 2),
    "diagonal-repeated": ([2.0, 1.0, 2.0], [0.0, 0.0]),
    "zero-pivot-at-gershgorin": ([1.0, 1.0], [1.0]),
    "zero-diagonal": ([0.0, 0.0, 0.0], [1.0, 1.0]),
    "zero-pivots-inside": ([1.0, 0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
    "sigma0-seed3": (SIGMA0_SEED3_ALPHA, SIGMA0_SEED3_BETA),
}


@pytest.mark.parametrize("name", list(TRIDIAGONALS))
def test_top_ritz_matches_eigh(name, monkeypatch):
    alpha, beta = (np.asarray(x, dtype=float) for x in TRIDIAGONALS[name])
    sweeps, sweep = [], spectral._sturm_laguerre

    def counted(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(spectral, "_sturm_laguerre", counted)
    theta, last = spectral._top_ritz(alpha, beta)
    assert isinstance(theta, float) and isinstance(last, float)
    # theta within one ulp of the exact top; eigh's own value is up to 5
    # ulps off it here (ghosts-j80) and up to 10 on Lanczos runs' matrices
    exact = top_eigenvalue_by_decimal_bisection(alpha, beta)
    assert abs(theta - exact) <= np.spacing(abs(exact))
    w, v = np.linalg.eigh(tridiagonal(alpha, beta))
    assert abs(theta - w[-1]) <= 8 * np.spacing(abs(w[-1]))

    cluster = w >= w[-1] - 1e-6 * np.abs(w).max()
    if cluster.sum() > 1:
        # the vectors of a cluster are not determined, but a unit vector
        # in its span has no larger last component than e_j's projection;
        # Laguerre converges only linearly to a cluster (41 and 64 sweeps
        # for the ghosts, 30 for the repeated top)
        assert 0.0 <= last <= np.linalg.norm(v[-1, cluster]) + 1e-12
        return
    # cubic convergence to an isolated top, the exact zero pivot included
    assert len(sweeps) <= 12
    # the isolated top lies in one unreduced block
    ends = [0, *(np.flatnonzero(beta == 0.0) + 1), alpha.size]
    blocks = list(zip(ends[:-1], ends[1:]))
    start, stop = max(blocks, key=lambda blk: np.linalg.eigvalsh(
        tridiagonal(alpha[blk[0]:blk[1]], beta[blk[0]:blk[1] - 1]))[-1])
    if stop < alpha.size:
        assert last == 0.0
        return
    wb, vb = np.linalg.eigh(tridiagonal(alpha[start:], beta[start:]))
    if abs(vb[-1, -1]) >= 1e-6:
        # eigh's component is accurate to about eps ||T|| / gap
        want = abs(vb[-1, -1])
    elif abs(vb[0, -1]) >= 1e-3:
        # s_1 s_j = prod beta / prod_m (theta - theta_m) over the block,
        # from eigh's eigenvalues and its first component: relative
        # accuracy where eigh's own last component has only absolute
        want = np.exp(
            np.log(np.abs(beta[start:])).sum()
            - np.log(wb[-1] - wb[:-1]).sum()
            - np.log(abs(vb[0, -1]))
        )
    else:
        # localised at neither end: eigh's absolute accuracy only
        assert abs(last - abs(vb[-1, -1])) <= 1e-13
        return
    assert abs(last - want) <= 1e-8 * want


def test_top_ritz_covers_last_components_down_to_1e_12():
    lasts = [spectral._top_ritz(*map(np.asarray, TRIDIAGONALS[name]))[1]
             for name in TRIDIAGONALS if name.startswith("lanczos-")]
    assert min(lasts) < 1e-20 and max(lasts) > 0.1
    assert any(1e-13 < s < 1e-11 for s in lasts)


@pytest.mark.parametrize("rows, n", [(1, 1), (5, 3), (500, 4096)])
def test_eigenpair_basis_starts_on_a_huge_page(rows, n):
    basis = spectral._huge_page_rows(rows, n)
    assert basis.shape == (rows, n) and basis.dtype == float
    assert basis.flags.c_contiguous and basis.flags.writeable
    assert basis.__array_interface__["data"][0] % (2 << 20) == 0


def test_only_the_eigenpair_run_allocates_a_basis(monkeypatch):
    allocated, allocate = [], spectral._huge_page_rows

    def counted(rows, n):
        allocated.append((rows, n))
        return allocate(rows, n)

    monkeypatch.setattr(spectral, "_huge_page_rows", counted)
    a = from_dense(np.random.default_rng(2).standard_normal((30, 20)))
    spectral_norm(a)
    sigma_for_T(a, identity(20))
    assert allocated == []
    leading_eigenpairs(a, 3)
    assert allocated == [(20, 20)]


def test_leading_eigenpairs_match_dense_on_random_16x16():
    for seed in (0, 1, 2):
        a = np.random.default_rng(seed).standard_normal((16, 16))
        ew, ev = np.linalg.eigh(a.T @ a)
        ew, ev = ew[::-1], ev[:, ::-1]
        es = leading_eigenpairs(from_dense(a), 8, seed=0)
        assert np.max(np.abs(es.values - ew[:8]) / ew[:8]) <= 1e-5
        cosines = np.abs(np.sum(es.vectors * ev[:, :8].T, axis=1))
        assert cosines.min() >= 0.999


def test_leading_eigenpairs_diagonal_closed_form():
    es = leading_eigenpairs(from_dense(np.diag([4.0, 1.0])), 1)
    assert abs(es.values[0] - 16.0) <= 1e-10
    assert abs(abs(es.vectors[0, 0]) - 1.0) <= 1e-10
    assert abs(es.vectors[0, 1]) <= 1e-6


def test_leading_eigenpairs_rank_collapse():
    with pytest.raises(ValueError, match="rank is smaller than K"):
        leading_eigenpairs(from_dense(np.diag([1.0, 0.0])), 2)


def test_leading_eigenpairs_rank_collapse_in_lanczos():
    a = from_dense(np.diag([3.0, 2.0, 1.0] + [0.0] * 7))
    assert leading_eigenpairs(a, 3).k == 3
    with pytest.raises(ValueError, match="rank is smaller than K"):
        leading_eigenpairs(a, 4)


def test_leading_eigenpairs_restart_past_a_repeated_eigenvalue():
    # the Krylov space of A^T A = diag(4, 4, 4, 1, 1) has dimension 2, so
    # three pairs need a restart from a fresh vector after the breakdown
    es = leading_eigenpairs(from_dense(np.diag([2.0, 2.0, 2.0, 1.0, 1.0])), 3, seed=1)
    assert np.allclose(es.values, 4.0, rtol=0, atol=1e-12)
    assert np.abs(es.vectors[:, 3:]).max() <= 1e-12


def test_leading_eigenpairs_match_dense_on_small_ct_operator():
    x_map = projector(ImageGrid(16, 16, 18.0), build_geometry("desk-full", n_views=12, n_bins=24))
    a = materialize_dense(x_map)
    ew, ev = np.linalg.eigh(a.T @ a)
    want = ew[::-1][:25]
    es = leading_eigenpairs(x_map, 25, seed=7)
    assert np.max(np.abs(es.values - want) / want) <= 1e-10
    residual = es.vectors @ (a.T @ a) - es.values[:, None] * es.vectors
    assert np.linalg.norm(residual, axis=1).max() <= 1e-10 * want[0]


def test_leading_eigenpairs_match_arpack_on_desk_oversampled():
    # full-circle scans have exactly doubled eigenvalues; ARPACK serves
    # as an independent reference here only
    from scipy.sparse.linalg import LinearOperator, eigsh

    x_map = projector(ImageGrid(64, 64, 18.0), build_geometry("desk-oversampled"))
    n = x_map.domain_dim
    gram = LinearOperator((n, n), matvec=lambda v: x_map.adjoint(x_map(v)), dtype=float)
    v0 = np.random.default_rng(7).standard_normal(n)
    want = eigsh(gram, k=25, which="LA", v0=v0, return_eigenvectors=False)[::-1]
    got = leading_eigenpairs(x_map, 25, seed=7).values
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_leading_eigenpairs_past_64_steps_on_a_diagonal_of_4096():
    # A^T A = diag(d) on R^4096: the top 30 pairs, 0.017 apart, need about
    # 95 Lanczos steps; each pair is (d_i, +-e_i)
    n, k = 4096, 30
    top = np.linspace(2.0, 1.5, k)
    root = np.sqrt(np.concatenate([top, np.linspace(1.0, 0.0, n - k)]))
    applies = []

    def apply(v):
        applies.append(1)
        return root * v

    es = leading_eigenpairs(LinearMap(n, n, apply, apply), k, seed=3)
    assert 2 * 64 < len(applies) <= 2 * 500
    assert np.max(np.abs(es.values - top) / top) <= 1e-10
    # residual <= 1e-10 * d_1 over the gap 0.017 bounds each angle by 1.2e-8
    assert np.abs(np.abs(es.vectors) - np.eye(k, n)).max() <= 1.2e-8


def test_leading_eigenpairs_repeat_bitwise_for_equal_seed():
    a = from_dense(np.random.default_rng(4).standard_normal((30, 20)))
    first = leading_eigenpairs(a, 5, seed=11)
    second = leading_eigenpairs(a, 5, seed=11)
    assert first.values.tobytes() == second.values.tobytes()
    assert first.vectors.tobytes() == second.vectors.tobytes()


def test_leading_eigenpairs_validation():
    amap = identity(3)
    with pytest.raises(ValueError, match="1 <= K <= 3"):
        leading_eigenpairs(amap, 4)
    with pytest.raises(ValueError, match="1 <= K <= 3"):
        leading_eigenpairs(amap, 0)


# ------------------------------------------------------------- low-rank T


def test_lowrank_T_k1_is_scaled_identity(rng):
    es = EigenSet(np.eye(5)[:1], [7.0])
    t = build_lowrank_T(es)
    v = rng.standard_normal(5)
    assert np.array_equal(t(v), v / 7.0)


def test_lowrank_T_exact_eigenset_inverts(rng):
    _, a, vals, q = well_gapped_map()
    es = EigenSet(q.T, vals)
    t = materialize_dense(build_lowrank_T(es))
    assert np.abs(t - np.linalg.inv(a.T @ a)).max() <= 1e-12


def test_lowrank_T_full_rank_matches_dense_inverse():
    amap, a, _, _ = well_gapped_map()
    es = leading_eigenpairs(amap, 6, seed=0)
    t = materialize_dense(build_lowrank_T(es))
    assert np.abs(t - np.linalg.inv(a.T @ a)).max() <= 1e-6


def test_lowrank_T_symmetric(rng):
    amap, *_ = well_gapped_map()
    t = build_lowrank_T(leading_eigenpairs(amap, 3))
    for _ in range(20):
        v, w = rng.standard_normal(6), rng.standard_normal(6)
        assert abs(t(v) @ w - v @ t(w)) <= 1e-12


def test_lowrank_T_rejects_zero_tail():
    es = EigenSet(np.eye(2), [1.0, 0.0])
    with pytest.raises(ValueError, match="not positive"):
        build_lowrank_T(es)


# -------------------------------------------------------------- step plans


def test_scalar_steps_equality_case():
    # power-of-two values make the product identity bitwise exact
    plan = scalar_steps(L=4.0)
    assert plan.sigma == plan.tau == 0.25
    plan = plan.scaled(2.0)
    assert plan.sigma * plan.tau == 1.0 / 16.0
    assert plan.sigma / plan.tau == 4.0
    generic = scalar_steps(L=5.3).scaled(0.7)
    assert generic.sigma * generic.tau == pytest.approx(1.0 / 5.3**2, rel=1e-15)


def test_scalar_steps_and_scaled_validation():
    for L in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="L must be positive"):
            scalar_steps(L)
    for rho in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="rho must be positive"):
            scalar_steps(1.0).scaled(rho)


def test_diagonal_steps_row_col_sums():
    a = np.array([[1.0, 2.0], [0.0, 3.0], [0.0, 0.0]])
    plan = diagonal_steps(from_dense(a)).scaled(2.0)
    assert np.allclose(plan.sigma, [2.0 / 3.0, 2.0 / 3.0, 0.0])
    assert np.allclose(plan.tau, [0.5, 0.1])
    # zero-sum rows stay zero through the reciprocal helper too
    recip = plan.sigma_reciprocal()
    assert recip[2] == 0.0 and np.allclose(recip[:2], 1.5)


def test_diagonal_steps_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        diagonal_steps(from_dense(np.array([[1.0, -1.0]])))
    with pytest.raises(ValueError, match="rho"):
        diagonal_steps(identity(2)).scaled(0.0)


def test_apply_tau_dispatch(rng):
    v = rng.standard_normal(3)
    assert np.allclose(scalar_steps(2.0).apply_tau(v), v / 2.0)
    diag_plan = StepPlan(sigma=np.ones(3), tau=np.array([1.0, 2.0, 4.0]))
    assert np.allclose(diag_plan.apply_tau(v), v * [1.0, 2.0, 4.0])
    map_plan = StepPlan(sigma=1.0, tau=from_dense(np.diag(np.full(3, 3.0))))
    assert np.allclose(map_plan.apply_tau(v), 3.0 * v)


def test_sigma_for_T_matches_dense_norm():
    amap, a, _, _ = well_gapped_map()
    m = a.T @ a
    for k in (1, 2, 4):
        t = build_lowrank_T(leading_eigenpairs(amap, k))
        got = sigma_for_T(amap, t)
        want = 1.0 / np.linalg.norm(materialize_dense(t) @ m, 2)
        assert abs(got - want) <= 1e-8 * want
        # truncated inverse pushes the top of the spectrum to exactly 1
        assert abs(got - 1.0) <= 1e-8


def small_ct():
    grid = ImageGrid(16, 16, 18.0)
    return grid, projector(grid, build_geometry("desk-full", n_views=12, n_bins=24))


def test_scalar_steps_from_spectral_norm_keep_the_step_condition():
    # sigma tau ||A||^2 <= 1 against a dense SVD: the estimate errs above
    grid, x_map = small_ct()
    nu = spectral_norm(x_map, seed=7) / gradient_norm(grid)
    for a_map in (x_map, stack([(1.0, x_map), (nu, gradient(grid))])):
        norm = np.linalg.norm(materialize_dense(a_map), 2)
        plan = scalar_steps(spectral_norm(a_map, seed=7))
        assert 1.0 - 1e-9 <= plan.sigma * plan.tau * norm**2 <= 1.0


def test_sigma_for_T_keeps_the_step_condition():
    # sigma0 rho(T A^T A) <= 1 against a dense eigendecomposition
    _, x_map = small_ct()
    a = materialize_dense(x_map)
    eigs = leading_eigenpairs(x_map, 5, seed=7)
    # the Lanczos pairs make T the exact inverse on their span, so
    # sigma0 is 1; pairs turned a little out of that span and
    # re-orthonormalised make T inexact, and sigma0 falls below 1
    noise = 0.05 * np.random.default_rng(7).standard_normal(eigs.vectors.shape)
    turned, _ = np.linalg.qr((eigs.vectors + noise).T)
    sigmas = []
    for t_eigs in (eigs, EigenSet(turned.T, eigs.values)):
        t_map = build_lowrank_T(t_eigs)
        rho = np.abs(np.linalg.eigvals(materialize_dense(t_map) @ (a.T @ a))).max()
        sigmas.append(sigma_for_T(x_map, t_map, seed=7))
        assert 1.0 - 1e-9 <= sigmas[-1] * rho <= 1.0
    assert sigmas[0] == pytest.approx(1.0, abs=1e-8) and sigmas[1] < 0.99


def test_sigma_for_T_zero_map_raises():
    z = LinearMap(3, 3, lambda v: np.zeros(3), lambda w: np.zeros(3))
    with pytest.raises(ValueError, match="is A zero"):
        sigma_for_T(z, identity(3))


def test_lowrank_steps_assembles_plan(rng):
    amap, a, _, _ = well_gapped_map()
    eigs = leading_eigenpairs(amap, 2, seed=0)
    plan = lowrank_steps(amap, eigs, seed=0).scaled(2.0)
    assert plan.sigma == pytest.approx(2.0, rel=1e-8)
    t = build_lowrank_T(eigs)
    v = rng.standard_normal(6)
    assert np.allclose(plan.apply_tau(v), t(v) / 2.0)


def test_lowrank_steps_accepts_precomputed_eigenset(rng):
    amap, a, vals, q = well_gapped_map()
    es = EigenSet(q.T[:3], vals[:3])
    plan = lowrank_steps(amap, es)
    v = rng.standard_normal(6)
    assert np.array_equal(plan.apply_tau(v), build_lowrank_T(es)(v))


def test_scaled_plan_moves_sigma_against_tau(rng):
    # rho scales sigma up and tau (or T) down: the product is kept, the
    # unscaled plan is left as it was, and rho = 1 changes no bit
    amap, a, _, _ = well_gapped_map()
    plans = (
        scalar_steps(np.linalg.norm(a, 2)),
        diagonal_steps(from_dense(np.abs(a))),
        lowrank_steps(amap, leading_eigenpairs(amap, 3, seed=0), seed=0),
    )
    v = rng.standard_normal(6)
    for plan in plans:
        sigma, tau_v = plan.sigma, plan.apply_tau(v)
        for rho in (0.1, 1.0, 8.0):
            out = plan.scaled(rho)
            assert np.array_equal(out.sigma, rho * sigma)
            assert np.allclose(out.apply_tau(v), tau_v / rho, rtol=1e-14, atol=0)
        same = plan.scaled(1.0)
        assert np.array_equal(same.sigma, sigma)
        assert np.array_equal(same.apply_tau(v), tau_v)
        assert np.array_equal(plan.apply_tau(v), tau_v)


# ---------------------------------------------------- convergence matrix B


def min_eig(b):
    return float(np.linalg.eigvalsh(b).min())


def test_convergence_matrix_scalar_plan_is_psd(rng):
    a = rng.standard_normal((5, 4))
    L = np.linalg.norm(a, 2)
    plan = scalar_steps(L).scaled(0.7)
    assert min_eig(convergence_matrix(a, plan.sigma, plan.tau)) >= -1e-8


def test_convergence_matrix_detects_violated_steps(rng):
    a = rng.standard_normal((5, 4))
    L = np.linalg.norm(a, 2)
    plan = scalar_steps(L)
    bad = convergence_matrix(a, 1.3 * plan.sigma, plan.tau)
    assert min_eig(bad) < -1e-8


def test_convergence_matrix_diagonal_plan_is_psd(rng):
    a = np.abs(rng.standard_normal((6, 4))) + 0.1
    plan = diagonal_steps(from_dense(a))
    assert min_eig(convergence_matrix(a, plan.sigma, plan.tau)) >= -1e-8


def test_convergence_matrix_lowrank_plan_is_psd():
    amap, a, _, _ = well_gapped_map()
    for k in (1, 3, 6):
        plan = lowrank_steps(amap, leading_eigenpairs(amap, k, seed=0), seed=0)
        for rho in (1.0, 0.3, 5.0):
            at_rho = plan.scaled(rho)
            assert min_eig(convergence_matrix(a, at_rho.sigma, at_rho.tau)) >= -1e-8


def test_convergence_matrix_accepts_dense_tau():
    amap, a, _, _ = well_gapped_map()
    t = materialize_dense(build_lowrank_T(leading_eigenpairs(amap, 2)))
    b = convergence_matrix(a, 1.0, t)
    assert min_eig(b) >= -1e-8


def test_convergence_matrix_validation():
    a = np.eye(2)
    with pytest.raises(ValueError, match="positive"):
        convergence_matrix(a, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        convergence_matrix(a, np.array([1.0, 0.0]), 1.0)
