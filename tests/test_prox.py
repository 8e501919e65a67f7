"""Proximal mappings against closed forms and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdtomo.prox import (
    Grid1D,
    _l1_threshold,
    clip_linf,
    default_l1_tol,
    lf_transform_numeric,
    project_l1_ball,
    project_l1_ball_sorted,
    prox_lsq_conjugate,
    prox_tvc_conjugate,
    shrink,
)

from oracles import argmin_1d, l1_project_by_sort, lf_transform_slow, shrink_by_argmin

finite_vectors = arrays(
    np.float64,
    st.integers(1, 8),
    elements=st.floats(-100, 100, allow_nan=False, width=64),
)


def test_lsq_conjugate_zero_case():
    assert np.array_equal(prox_lsq_conjugate(np.zeros(3), 1.0, np.zeros(3)), np.zeros(3))


def test_lsq_conjugate_halves_doubled_data():
    g = np.array([1.0, -2.0, 0.5])
    out = prox_lsq_conjugate(2 * g, 1.0, g)
    assert np.allclose(out, g / 2)
    # cross-check one component against direct minimization of
    # sigma*phi*(u) + 0.5(u - lam)^2 with phi*(u) = 0.5 u^2 + u g
    for lam_i, g_i in zip(2 * g, g):
        direct = argmin_1d(
            lambda u: 1.0 * (0.5 * u * u + u * g_i) + 0.5 * (u - lam_i) ** 2,
            -10.0,
            10.0,
        )
        assert abs(direct - (lam_i - g_i) / 2) < 1e-6


def test_lsq_conjugate_stationarity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 20)
        lam = rng.standard_normal(n)
        g = rng.standard_normal(n)
        sigma = float(rng.uniform(0.01, 10))
        out = prox_lsq_conjugate(lam, sigma, g)
        residual = sigma * (out + g) + (out - lam)
        assert np.max(np.abs(residual)) <= 1e-12


def test_lsq_conjugate_sigma_validation():
    with pytest.raises(ValueError):
        prox_lsq_conjugate(np.ones(2), 0.0, np.ones(2))
    with pytest.raises(ValueError):
        prox_lsq_conjugate(np.ones(2), -1.0, np.ones(2))
    with pytest.raises(ValueError):
        prox_lsq_conjugate(np.ones(2), 1.0, np.ones(3))
    # per-component steps may be zero (dead rays keep their dual value)
    out = prox_lsq_conjugate(np.array([3.0, 4.0]), np.array([0.0, 1.0]),
                             np.array([1.0, 2.0]))
    assert out[0] == 3.0
    assert out[1] == 1.0


def test_clip_inside_ball_unchanged():
    lam = np.array([0.3, -0.9, 1.0])
    assert np.array_equal(clip_linf(lam, 1.0), lam)


def test_clip_componentwise_clamp():
    c = 0.7
    lam = np.array([2 * c, -3 * c, c / 2])
    assert np.array_equal(clip_linf(lam, c), np.array([c, -c, c / 2]))


def test_clip_matches_three_case_formula_exactly():
    rng = np.random.default_rng(1)
    for _ in range(100):
        lam = rng.standard_normal(rng.integers(1, 30)) * 3
        c = float(rng.uniform(0.1, 2))
        cases = np.where(lam > c, c, np.where(lam < -c, -c, lam))
        out = clip_linf(lam, c)
        assert np.array_equal(out, cases)
        assert np.array_equal(clip_linf(out, c), out)


def test_clip_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        clip_linf(np.ones(2), 0.0)


def test_shrink_closed_forms():
    v = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(shrink(v, 0.0), v)
    assert np.array_equal(shrink(v, 1.0), np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        shrink(v, -0.1)


def test_shrink_matches_componentwise_argmin():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(6) * 2
    beta = 0.8
    assert np.max(np.abs(shrink(v, beta) - shrink_by_argmin(v, beta))) < 1e-6


def test_l1_projection_inside_ball_is_identity():
    v = np.array([0.2, -0.3, 0.1])
    res = project_l1_ball(v, 1.0)
    assert np.array_equal(res.value, v)
    assert res.aux == 0.0


def test_l1_projection_pinned_cases():
    res = project_l1_ball(np.array([3.0, 0.0]), 1.0)
    assert np.allclose(res.value, [1.0, 0.0], atol=1e-9)
    assert res.aux == pytest.approx(2.0, abs=1e-9)
    res = project_l1_ball(np.array([2.0, 1.0]), 1.0)
    assert np.allclose(res.value, [1.0, 0.0], atol=1e-9)
    assert res.aux == pytest.approx(1.0, abs=1e-9)


def test_l1_projection_matches_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = rng.integers(1, 40)
        v = rng.standard_normal(n) * rng.uniform(0.1, 10)
        r = float(rng.uniform(0.05, 5))
        got = project_l1_ball(v, r)
        want, beta = l1_project_by_sort(v, r)
        # the finite active-set threshold is exact up to rounding
        assert np.max(np.abs(got.value - want)) <= 1e-12
        assert got.aux == pytest.approx(beta, rel=0, abs=1e-12)
        # library's own sorted reference agrees with the independent one
        lib_sorted = project_l1_ball_sorted(v, r)
        assert np.max(np.abs(lib_sorted.value - want)) <= 1e-12


# r one ulp below ||v||_1: rounding of the active sums can put the
# threshold below zero, in the sort's cumulative sums (LONG_TIE_V) and
# in the active-set means (SHORT_TIE_V)
LONG_TIE_V = np.concatenate(
    [[0.0, 2.3064220899374745e-298, 52.021301064409606, 404.5518398215282, 0.0],
     np.full(33, 450.339366649287)]
)
SHORT_TIE_V = np.array([234.0, 0.0] + [0.84] * 30)
L1_EDGE_CASES = {
    "ties": (np.array([2.0, -2.0, 2.0, -2.0]), 3.0),
    "ties-radius-below-rounding": (np.full(5, 0.3), 1.5e-20),
    "zeros": (np.array([0.0, 3.0, 0.0, -1.0, 0.0]), 1.0),
    "all-zero-but-one": (np.array([0.0, 0.0, -4.0]), 0.5),
    "n=1": (np.array([-5.0]), 2.0),
    "n=1-radius-below-rounding": (np.array([1.0]), 1e-20),
    "norm-just-above-r": (np.array([0.5, -0.25, 0.25]), 1.0 - 1e-15),
    "norm-one-ulp-above-r": (np.array([0.75, -0.25]), np.nextafter(1.0, 0.0)),
    "r-one-ulp-below-norm-long-tie": (
        LONG_TIE_V,
        (1 - 2.0**-53) * np.abs(LONG_TIE_V).sum(),
    ),
    "r-one-ulp-below-norm-short-tie": (
        SHORT_TIE_V,
        (1 - 2.0**-53) * np.abs(SHORT_TIE_V).sum(),
    ),
    "r/norm=1e-8": (np.array([3.0, -1.0, 2.0, 0.5]), 6.5e-8),
    "r/norm=1e-16": (np.array([3.0, -1.0, 2.0, 0.5]), 6.5e-16),
    "r/norm=1e-20": (np.array([3.0, -1.0, 2.0, 0.5]), 6.5e-20),
}


@pytest.mark.parametrize("name", sorted(L1_EDGE_CASES))
def test_l1_projection_edge_cases_match_sort_oracle(name):
    v, r = L1_EDGE_CASES[name]
    assert np.abs(v).sum() > r
    want, beta = l1_project_by_sort(v, r)
    # a 0/0 on an emptied active set raises here instead of warning
    with np.errstate(all="raise"):
        for got in (project_l1_ball(v, r), project_l1_ball_sorted(v, r)):
            assert np.max(np.abs(got.value - want)) <= 1e-12
            assert got.aux == pytest.approx(beta, rel=0, abs=1e-12)
            assert got.aux >= 0.0
            assert np.abs(got.value).sum() <= r + 1e-15 * np.abs(v).sum()
        dual = prox_tvc_conjugate(v, r)
    assert dual.aux == project_l1_ball(v, r).aux
    assert np.array_equal(dual.value, np.clip(v, -dual.aux, dual.aux))
    # the projection is the Moreau complement of the dual prox, bit for
    # bit the shrink by its threshold (np.array_equal ignores zero signs)
    assert np.array_equal(project_l1_ball(v, r).value, shrink(v, dual.aux))


@given(
    arrays(
        np.float64,
        st.integers(1, 64),
        elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
    ),
    st.floats(1e-20, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_l1_projection_kkt_property(v, frac):
    norm = float(np.abs(v).sum())
    r = frac * norm
    if not r > 0:
        return
    res = project_l1_ball(v, r)
    if norm <= r:
        assert np.array_equal(res.value, v) and res.aux == 0.0
        return
    beta = res.aux
    assert beta >= 0.0
    # signs are kept and every magnitude is shrunk by the same beta
    nz = res.value != 0.0
    assert np.array_equal(np.sign(res.value[nz]), np.sign(v[nz]))
    assert np.array_equal(np.abs(res.value), np.maximum(np.abs(v) - beta, 0.0))
    # the result lies on the sphere, to the rounding of ||v||_1 (with an
    # absolute floor for subnormal inputs)
    fin = np.finfo(float)
    rounding = 4 * v.size * (fin.eps * norm + fin.smallest_subnormal)
    assert abs(np.abs(res.value).sum() - r) <= rounding
    # the Moreau form of the dual prox is the clip to [-beta, beta]
    dual = prox_tvc_conjugate(v, r)
    assert dual.aux == beta
    assert np.array_equal(dual.value, np.clip(v, -beta, beta))
    # and the projection, its Moreau complement, is the shrink bit for bit
    assert np.array_equal(res.value, shrink(v, dual.aux))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["dense", "ties", "sparse"]),
    st.sampled_from([0.01, 0.5, None]),
)
@settings(max_examples=150, deadline=None)
def test_l1_threshold_is_exact_for_every_hint(seed, kind, share):
    # a warm start from any hint, good, bad or meaningless, ends on the
    # sort-based projection; random inputs may differ from the cold
    # threshold in the last bits, so agreement is to the recorded bound
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    if kind == "ties":
        v = rng.integers(1, 4, n) * rng.choice([-0.5, 0.5], n)
    else:
        v = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3)
        if kind == "sparse":
            v[rng.random(n) >= 0.1] = 0.0
            v[rng.integers(n)] = 1.0
    a = np.abs(v)
    total = float(a.sum())
    r = (share if share is not None else rng.uniform(0.001, 0.999)) * total
    want = project_l1_ball_sorted(v, r)
    b_star = want.aux
    tol = default_l1_tol(v)
    hints = (0.0, b_star, b_star * (1 + 1e-3), b_star * (1 - 1e-3), 2 * b_star,
             b_star / 2, 2 * a.max(), 1e-300, np.inf, np.nan)
    with np.errstate(all="raise"):
        for hint in hints:
            beta = _l1_threshold(a, total, r, hint)
            assert abs(beta - b_star) <= tol
            assert np.linalg.norm(shrink(v, beta) - want.value) <= tol
            dual = prox_tvc_conjugate(v, r, hint)
            assert dual.aux == beta
            assert np.linalg.norm(dual.value - (v - want.value)) <= tol


def test_l1_projection_norm_within_tol():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.standard_normal(25) * 4
        r = 2.0
        tol = default_l1_tol(v)
        res = project_l1_ball(v, r)
        if np.abs(v).sum() > r:
            assert r - tol <= np.abs(res.value).sum() <= r + tol
        again = project_l1_ball(res.value, r)
        assert np.max(np.abs(again.value - res.value)) <= tol


def test_l1_projection_kkt_signs_exact():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(15) * 3
        res = project_l1_ball(v, 1.5)
        if res.aux == 0.0:
            continue
        nz = res.value != 0.0
        assert np.array_equal(np.sign(res.value[nz]), np.sign(v[nz]))
        assert np.array_equal(np.abs(res.value[nz]), np.abs(v[nz]) - res.aux)


def test_l1_projection_input_validation():
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0, np.inf]), 1.0)
    with pytest.raises(ValueError):
        project_l1_ball(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        prox_tvc_conjugate(np.array([np.nan, 1.0]), 1.0)
    with pytest.raises(ValueError):
        prox_tvc_conjugate(np.array([np.inf, 1.0]), 1.0)


@given(finite_vectors, st.floats(0.05, 20))
@settings(max_examples=100, deadline=None)
def test_l1_projection_never_grows_norm(v, r):
    res = project_l1_ball(v, r)
    tol = default_l1_tol(v)
    assert np.abs(res.value).sum() <= max(r + tol, np.abs(v).sum())


def test_tvc_conjugate_zero_branch():
    out = prox_tvc_conjugate(np.array([0.4, -0.5]), 1.0)
    assert np.array_equal(out.value, np.zeros(2))
    assert out.aux == 0.0


def test_tvc_conjugate_pinned_case():
    out = prox_tvc_conjugate(np.array([3.0, 0.0]), 1.0)
    assert np.allclose(out.value, [2.0, 0.0], atol=1e-9)


def test_tvc_conjugate_moreau_identity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        lam = rng.standard_normal(12) * 2
        sigma = float(rng.uniform(0.2, 5))
        radius = float(rng.uniform(0.1, 3))
        tol = default_l1_tol(lam)
        left = prox_tvc_conjugate(lam, radius * sigma).value
        # prox of the scaled indicator is projection onto the gamma-ball
        right = sigma * l1_project_by_sort(lam / sigma, radius)[0]
        assert np.max(np.abs(left + right - lam)) <= 2 * tol


def test_prox_maps_are_firmly_nonexpansive():
    rng = np.random.default_rng(7)
    g = rng.standard_normal(10)
    for _ in range(100):
        u = rng.standard_normal(10) * 3
        v = rng.standard_normal(10) * 3
        pairs = [
            (prox_lsq_conjugate(u, 0.7, g), prox_lsq_conjugate(v, 0.7, g)),
            (clip_linf(u, 0.9), clip_linf(v, 0.9)),
            (shrink(u, 0.4), shrink(v, 0.4)),
            (project_l1_ball(u, 2.0).value, project_l1_ball(v, 2.0).value),
            (
                prox_tvc_conjugate(u, 1.3 * 1.1).value,
                prox_tvc_conjugate(v, 1.3 * 1.1).value,
            ),
        ]
        for pu, pv in pairs:
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


def test_grid1d_validation():
    with pytest.raises(ValueError):
        Grid1D(np.array([0.0, 1.0, 1.5]), np.zeros(3))
    with pytest.raises(ValueError):
        Grid1D(np.array([1.0, 0.0]), np.zeros(2))
    g = Grid1D(np.linspace(0, 1, 11), np.zeros(11))
    assert g.spacing == pytest.approx(0.1)


def test_lf_quadratic_conjugate():
    a = 2.0
    x = np.linspace(-5, 5, 2001)
    f = Grid1D(x, 0.5 * a * x**2)
    m = np.linspace(-8, 8, 101)
    conj = lf_transform_numeric(f, m)
    bound = 2 * f.spacing * np.max(np.abs(a * x))
    assert np.max(np.abs(conj.values - m**2 / (2 * a))) <= bound
    assert np.allclose(conj.values, lf_transform_slow(x, f.values, m))


def test_lf_abs_conjugate_flat_inside_unit_interval():
    x = np.linspace(-5, 5, 2001)
    f = Grid1D(x, np.abs(x))
    m = np.linspace(-0.95, 0.95, 39)
    conj = lf_transform_numeric(f, m)
    assert np.max(np.abs(conj.values)) <= 2 * f.spacing
    outside = lf_transform_numeric(f, np.array([-3.0, 2.0]))
    assert np.allclose(outside.values, [10.0, 5.0], atol=1e-9)


def test_lf_double_transform_recovers_convex_function():
    a = 1.7
    x = np.linspace(-4, 4, 1601)
    f = Grid1D(x, 0.5 * a * x**2)
    conj = lf_transform_numeric(f, x * a)
    back = lf_transform_numeric(conj, x)
    bound = 2 * conj.spacing * np.max(np.abs(x))
    assert np.max(np.abs(back.values - f.values)) <= bound


def test_lf_linear_and_indicator_are_mutually_conjugate():
    a, c = 1.5, 0.7
    x = np.linspace(-6, 6, 2401)
    linear = Grid1D(x, a * x + c)
    # conjugate of a linear function: -c at m = a (grid-limited elsewhere)
    at_a = lf_transform_numeric(linear, np.array([a]))
    assert abs(at_a.values[0] + c) <= 1e-9
    width = 2.0
    indicator = Grid1D(x, np.where(np.abs(x) <= width, 0.0, np.inf))
    m = np.linspace(-3, 3, 61)
    conj = lf_transform_numeric(indicator, m)
    assert np.max(np.abs(conj.values - width * np.abs(m))) <= 2 * indicator.spacing * 3


def test_lf_skips_infinite_samples_and_rejects_all_infinite():
    x = np.linspace(-1, 1, 5)
    f = Grid1D(x, np.array([np.inf, 0.0, 0.0, 0.0, np.inf]))
    out = lf_transform_numeric(f, np.array([10.0]))
    assert out.values[0] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        lf_transform_numeric(Grid1D(x, np.full(5, np.inf)), np.array([0.0]))
