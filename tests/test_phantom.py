"""Tests for the procedural two-tissue phantom.

Oracles: numpy.random's Generator and np.percentile, which the package
itself does not load.
"""

import numpy as np
import pytest

from pdtomo import phantom
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

# a seed past one 32-bit word takes SeedSequence's multi-word path, and
# one past four words its extra mixing rounds
MULTI_WORD_SEEDS = [2**32, 2**32 + 5, 2**40 + 3, 2**64 - 1, 2**97 + 12345, 2**200 + 1]


def reference_generate(grid, seed, redraws):
    """The phantom drawn with numpy.random and np.percentile; appends to
    `redraws` the number of bump-centre redraw rounds."""
    rng = np.random.default_rng(seed)
    r_fov = grid.side_length / 2
    c = grid.centers()
    xx, yy = np.meshgrid(c, c)
    rr = np.hypot(xx, yy)
    theta = np.arctan2(yy, xx)
    amps = 0.04 * rng.uniform(0.3, 1.0, size=3)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    wobble = sum(a * np.cos(j * theta + p) for j, (a, p) in enumerate(zip(amps, phases), start=2))
    breast = rr < 0.84 * r_fov * (1.0 + wobble)
    region = 0.8 * r_fov
    centers = rng.uniform(-region, region, size=(12, 2))
    keep = np.hypot(centers[:, 0], centers[:, 1]) <= region
    rounds = 0
    while not keep.all():
        centers[~keep] = rng.uniform(-region, region, size=((~keep).sum(), 2))
        keep = np.hypot(centers[:, 0], centers[:, 1]) <= region
        rounds += 1
    redraws.append(rounds)
    widths = rng.uniform(0.15, 0.30, size=12) * r_fov
    bumps = np.zeros_like(xx)
    for (cx, cy), w in zip(centers, widths):
        bumps += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * w**2))
    threshold = np.percentile(bumps[breast], 60.0)
    image = np.zeros_like(xx)
    image[breast] = FAT_VALUE
    image[breast & (bumps >= threshold)] = FIBRO_VALUE
    return image.ravel()


@pytest.mark.parametrize("seeds", [range(0, 500), range(500, 1000), MULTI_WORD_SEEDS])
def test_pcg64_replica_equals_numpy_uniform(seeds):
    for seed in seeds:
        ours, numpys = phantom._PCG64(seed), np.random.default_rng(seed)
        for lo, hi, size in [(0.3, 1.0, 3), (0, 2 * np.pi, 1), (-5.76, 5.76, (12, 2)),
                             (-1.5, 2.5, (np.int64(3), 2)), (0.15, 0.30, 12)]:
            got, want = ours.uniform(lo, hi, size), numpys.uniform(lo, hi, size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed


def test_pcg64_replica_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        phantom._PCG64(-1)


@pytest.mark.parametrize("q", [60.0, 0.0, 37.5, 100.0])
def test_partition_percentile_equals_numpy(q):
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3, 4, 5, 10, 11, 97, 1000, 4096]
    arrays = [rng.standard_normal(n) for n in sizes for _ in range(20)]
    # ties, and the phantom's own bump field
    arrays += [np.repeat(rng.standard_normal(7), 3), rng.integers(0, 4, 50).astype(float)]
    grid = ImageGrid(64, 64, 18.0)
    arrays.append(np.exp(-np.hypot(*np.meshgrid(grid.centers(), grid.centers())).ravel()))
    for values in arrays:
        want = np.percentile(values, q)
        got = phantom._percentile(values.copy(), q)
        assert np.float64(got).tobytes() == want.tobytes(), (values.size, q)


@pytest.mark.parametrize("nx", [16, 64, 128])
def test_generate_equals_the_numpy_random_reference(nx):
    grid = ImageGrid(nx, nx, 18.0)
    redraws = []
    for seed in (0, 1, 7, 42, 301, 2**33, 2**40 + 3):
        want = reference_generate(grid, seed, redraws)
        assert generate(grid, seed).image.tobytes() == want.tobytes(), seed
    # the bump-centre redraw loop is exercised
    assert max(redraws) > 0


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


