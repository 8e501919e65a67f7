"""Operator plumbing: matched adjoints, stacking, dense materialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtomo.ct import ImageGrid, gradient, projector, build_geometry, fov_active
from pdtomo.linop import LinearMap, scaled, stack
from pdtomo.spectral import spectral_norm

from oracles import (
    DENSE_CAP,
    adjoint_dot_test,
    from_dense,
    identity,
    materialize_dense,
    segment_in_square,
)


def test_identity_roundtrip():
    ident = identity(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(ident(x), x)
    assert np.array_equal(ident.adjoint(x), x)
    assert ident.shape == (4, 4)


def test_dense_map_matches_matrix_products():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((2, 3))
    amap = from_dense(mat)
    x = rng.standard_normal(3)
    y = rng.standard_normal(2)
    assert np.allclose(amap(x), mat @ x)
    assert np.allclose(amap.adjoint(y), mat.T @ y)


def test_dimension_mismatch_raises_with_both_dims():
    amap = from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="3"):
        amap(np.zeros(4))
    with pytest.raises(ValueError, match="2"):
        amap.adjoint(np.zeros(3))


def test_nonpositive_dims_rejected():
    with pytest.raises(ValueError):
        LinearMap(0, 3, lambda x: x, lambda y: y)


@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_apply_is_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((5, 4))
    amap = from_dense(mat)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    lhs = amap(a * x + b * y)
    rhs = a * amap(x) + b * amap(y)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_stack_single_block_is_the_map():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 4))
    amap = from_dense(mat)
    s = stack([(1.0, amap)])
    x = rng.standard_normal(4)
    assert np.allclose(s(x), amap(x))
    assert np.allclose(s.adjoint(amap(x)), amap.adjoint(amap(x)))


def test_stack_identity_pair_duplicates_input():
    s = stack([(1.0, identity(3)), (1.0, identity(3))])
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(s(x), np.concatenate([x, x]))


def test_stack_adjoint_is_weighted_sum_of_block_adjoints():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 3))
    s = stack([(2.0, from_dense(a)), (0.5, from_dense(b))])
    y = rng.standard_normal(6)
    expected = 2.0 * a.T @ y[:2] + 0.5 * b.T @ y[2:]
    assert np.allclose(s.adjoint(y), expected)
    dense = materialize_dense(s)
    assert np.array_equal(dense, np.vstack([2.0 * a, 0.5 * b]))


def test_stack_blocks_are_weighted_block_outputs_bitwise(desk_projector, desk_gradient):
    rng = np.random.default_rng(5)
    dense = from_dense(rng.standard_normal((7, desk_gradient.domain_dim)))
    blocks = [(1.0, desk_projector), (2.5, desk_gradient), (0.3, dense)]
    s = stack(blocks)
    x = rng.standard_normal(s.domain_dim)
    y = rng.standard_normal(s.range_dim)
    out = s(x)
    # the adjoint is the sum of the weighted block adjoints, in block order
    want_adjoint = np.zeros(s.domain_dim)
    lo = 0
    for w, blk in blocks:
        hi = lo + blk.range_dim
        assert np.array_equal(out[lo:hi], w * blk(x))
        want_adjoint += w * blk.adjoint(y[lo:hi])
        lo = hi
    assert hi == s.range_dim
    assert np.array_equal(s.adjoint(y), want_adjoint)


def test_stack_rejects_empty_and_mismatched_blocks():
    with pytest.raises(ValueError):
        stack([])
    with pytest.raises(ValueError):
        stack([(1.0, identity(2)), (1.0, identity(3))])
    with pytest.raises(ValueError):
        stack([(0.0, identity(2))])


def test_balanced_stack_blocks_have_equal_norms():
    grid = ImageGrid(4, 4, 18.0)
    geom = build_geometry("desk-full", n_bins=8)
    x_map = projector(grid, geom)
    d_map = gradient(grid)
    x_dense = materialize_dense(x_map)
    d_dense = materialize_dense(d_map)
    nu = np.linalg.norm(x_dense, 2) / np.linalg.norm(d_dense, 2)
    s = stack([(1.0, x_map), (nu, d_map)])
    dense = materialize_dense(s)
    top = np.linalg.norm(dense[: x_map.range_dim], 2)
    bottom = np.linalg.norm(dense[x_map.range_dim :], 2)
    assert abs(top - bottom) <= 1e-3 * top


def test_materialize_identity():
    assert np.array_equal(materialize_dense(identity(3)), np.eye(3))


def test_materialize_respects_cap():
    amap = from_dense(np.ones((4, 4)))
    with pytest.raises(ValueError, match="cap"):
        materialize_dense(amap, cap=15)
    assert materialize_dense(amap, cap=16).shape == (4, 4)
    assert DENSE_CAP == 10**7


def test_projector_rows_sum_to_ray_lengths():
    grid = ImageGrid(4, 4, 18.0)
    geom = build_geometry("desk-full", n_views=4, n_bins=6)
    dense = materialize_dense(projector(grid, geom))
    assert np.all(dense >= 0.0)

    axis = grid.centers()
    xx, yy = np.meshgrid(axis, axis)
    pixel_centers = np.column_stack([xx.ravel(), yy.ravel()])
    half = grid.pixel_size / 2
    active = fov_active(grid)
    offsets = (np.arange(geom.n_bins) + 0.5) / geom.n_bins - 0.5
    row = 0
    for ang in geom.view_angles():
        sx = geom.source_to_center * np.cos(ang)
        sy = geom.source_to_center * np.sin(ang)
        # Detector center sits opposite the source; bins step along the
        # tangential direction.
        det_c = -np.array([np.cos(ang), np.sin(ang)]) * (
            geom.source_to_detector - geom.source_to_center
        )
        tang = np.array([-np.sin(ang), np.cos(ang)])
        for off in offsets:
            bx, by = det_c + tang * off * geom.detector_length
            expected = sum(
                segment_in_square(sx, sy, bx, by, cx, cy, half)
                for (cx, cy), act in zip(pixel_centers, active)
                if act
            )
            assert abs(dense[row].sum() - expected) < 1e-9
            row += 1


def test_gradient_on_2x2_matches_hand_matrix():
    from oracles import gradient_matrix_2x2

    dense = materialize_dense(gradient(ImageGrid(2, 2, 2.0)))
    assert np.array_equal(dense, gradient_matrix_2x2())


def test_adjoint_dot_test_identity_is_zero():
    assert adjoint_dot_test(identity(5), trials=10) == 0.0


def test_adjoint_dot_test_dense_transpose_tiny():
    rng = np.random.default_rng(2)
    amap = from_dense(rng.standard_normal((5, 7)))
    assert adjoint_dot_test(amap, trials=100) <= 1e-12


def test_adjoint_dot_test_detects_broken_adjoint():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((5, 7))
    wrong = rng.standard_normal((5, 7))
    broken = LinearMap(7, 5, lambda x: mat @ x, lambda y: wrong.T @ y, label="broken")
    assert adjoint_dot_test(broken, trials=20) > 1e-3


def test_adjoint_dot_test_requires_trials():
    with pytest.raises(ValueError):
        adjoint_dot_test(identity(2), trials=0)


def test_scaled_adjoint_matches_dense():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4))
    sc = scaled(-2.5, from_dense(a))
    assert np.allclose(materialize_dense(sc), -2.5 * a)
    assert adjoint_dot_test(sc, trials=50) <= 1e-12


def test_diagonal_map_is_self_adjoint():
    d = np.array([1.0, 0.0, -3.0])
    dmap = from_dense(np.diag(d))
    x = np.array([2.0, 5.0, 1.0])
    assert np.array_equal(dmap(x), d * x)
    assert adjoint_dot_test(dmap, trials=20) <= 1e-15


def test_shipped_operators_pass_dot_test(desk_projector, desk_gradient):
    maps = {
        "projector": desk_projector,
        "gradient": desk_gradient,
    }
    maps["stack"] = stack([(1.0, desk_projector), (2.5, desk_gradient)])
    for name, amap in maps.items():
        assert adjoint_dot_test(amap, trials=100, seed=11) <= 1e-10, name


def test_spectral_norm_matches_dense_svd():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((12, 9))
    est = spectral_norm(from_dense(mat), seed=1)
    assert abs(est - np.linalg.norm(mat, 2)) <= 1e-8 * np.linalg.norm(mat, 2)
