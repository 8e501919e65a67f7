"""Tests for the procedural two-tissue phantom."""

import numpy as np
import pytest

from pdtomo.ct import ImageGrid, fov_active, gradient
from pdtomo.phantom import (
    FAT_VALUE,
    FIBRO_VALUE,
    GRAY_WINDOWS,
    Phantom,
    generate,
    gmi,
    phantom_tv,
)


def test_tissue_values_pinned():
    assert FAT_VALUE == 0.194 and FIBRO_VALUE == 0.233
    assert GRAY_WINDOWS["tissue"] == (0.174, 0.253)
    assert GRAY_WINDOWS["narrow"] == (0.174, 0.214)


def test_image_is_quantized_to_tissue_values(desk_grid):
    for seed in (0, 7, 11):
        ph = generate(desk_grid, seed)
        values = np.unique(ph.image)
        assert set(values).issubset({0.0, FAT_VALUE, FIBRO_VALUE})
        assert values.size == 3


def test_generate_is_deterministic(desk_grid):
    a = generate(desk_grid, 7)
    b = generate(desk_grid, 7)
    assert np.array_equal(a.image, b.image)
    assert a.tv_value == b.tv_value


def test_different_seeds_differ(desk_grid):
    a = generate(desk_grid, 0)
    b = generate(desk_grid, 1)
    assert not np.array_equal(a.image, b.image)


def test_phantom_inside_fov(desk_grid):
    for seed in (0, 3, 7):
        ph = generate(desk_grid, seed)
        active = fov_active(desk_grid)
        assert np.all(ph.image[~active] == 0.0)


def test_tv_matches_direct_gradient_norm(desk_phantom, desk_gradient):
    direct = float(np.abs(desk_gradient(desk_phantom.image)).sum())
    assert desk_phantom.tv_value == direct
    assert phantom_tv(desk_phantom) == direct
    assert direct > 0


def test_tv_positive_across_seeds_and_scales():
    for n in (32, 64):
        grid = ImageGrid(n, n, 18.0)
        for seed in range(5):
            assert generate(grid, seed).tv_value > 0


def test_gradient_sparsity_below_15_percent():
    for n in (48, 64, 96):
        grid = ImageGrid(n, n, 18.0)
        active = int(fov_active(grid).sum())
        for seed in (0, 7, 11):
            ph = generate(grid, seed)
            edge_pixels = int((gmi(ph) > 0).sum())
            assert edge_pixels < 0.15 * active


def test_gmi_constant_image_is_zero(desk_grid):
    flat = Phantom(image=np.full(desk_grid.n, 0.5), grid=desk_grid, seed=0)
    assert np.all(gmi(flat) == 0.0)


def test_gmi_single_pixel_closed_form(desk_grid):
    # delta of height v at (y, x): sqrt(2)v on the pixel, v on its left
    # and upper neighbors under the forward-difference convention
    v = 0.7
    nx = desk_grid.nx
    y, x = 20, 30
    img = np.zeros(desk_grid.n)
    img[y * nx + x] = v
    ph = Phantom(image=img, grid=desk_grid, seed=0)
    m = gmi(ph)
    assert m[y * nx + x] == pytest.approx(np.sqrt(2) * v)
    assert m[y * nx + x - 1] == pytest.approx(v)
    assert m[(y - 1) * nx + x] == pytest.approx(v)
    assert np.count_nonzero(m) == 3
    assert phantom_tv(ph) == pytest.approx(4 * v)


def test_gmi_zero_where_both_differences_vanish(desk_phantom, desk_gradient):
    g = desk_gradient(desk_phantom.image)
    n = desk_phantom.grid.n
    still = (g[:n] == 0) & (g[n:] == 0)
    assert np.all(gmi(desk_phantom)[still] == 0.0)


def test_disk_tv_counts_boundary_crossings():
    grid = ImageGrid(32, 32, 18.0)
    c = grid.centers()
    xx, yy = np.meshgrid(c, c)
    v = 0.25
    disk = np.where(np.hypot(xx, yy) < 6.0, v, 0.0)
    ph = Phantom(image=disk.ravel(), grid=grid, seed=0)
    dx = np.diff(disk, axis=1)
    dy = np.diff(disk, axis=0)
    crossings = int(np.count_nonzero(dx) + np.count_nonzero(dy))
    assert phantom_tv(ph) == pytest.approx(v * crossings)


