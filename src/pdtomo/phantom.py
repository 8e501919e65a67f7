"""Procedural piecewise-constant breast-like phantom.

Two tissue classes on a zero background: fat at 0.194 1/cm and
fibroglandular tissue at 0.233 1/cm.  The fibro structure is a sum of
seeded Gaussian bumps thresholded at a fixed percentile, which yields
irregular blob borders and a sparse gradient while keeping the image
exactly piecewise constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ct import ImageGrid, fov_active, gradient

FAT_VALUE = 0.194
FIBRO_VALUE = 0.233

# Display windows (lo, hi) in 1/cm for exported grayscale images.
GRAY_WINDOWS = {
    "tissue": (0.174, 0.253),
    "narrow": (0.174, 0.214),
}

_N_BUMPS = 12
_BUMP_REGION = 0.8  # bump centers stay within this fraction of the FOV radius
_FIBRO_PERCENTILE = 60.0
_OUTLINE_RADIUS = 0.84  # breast outline radius as a fraction of the FOV radius
_OUTLINE_WOBBLE = 0.04


@dataclass
class Phantom:
    """Quantized phantom image on a grid, with its total variation."""

    image: np.ndarray
    grid: ImageGrid
    seed: int

    @property
    def tv_value(self) -> float:
        """Anisotropic total variation ||D image||_1, recomputed on access."""
        return phantom_tv(self)

    @property
    def dynamic_range(self) -> float:
        return float(self.image.max() - self.image.min())


def generate(grid: ImageGrid, seed: int = 0) -> Phantom:
    """Deterministic phantom for a given (grid, seed) pair.

    A roughly circular fat region sits strictly inside the FOV; the
    fibro class is the upper tail of a smooth random bump field inside
    that region.
    """
    rng = np.random.default_rng(seed)
    r_fov = grid.side_length / 2
    c = grid.centers()
    xx, yy = np.meshgrid(c, c)
    rr = np.hypot(xx, yy)
    theta = np.arctan2(yy, xx)

    # wavy but strictly interior outline: radius stays below 0.95 R_fov
    amps = _OUTLINE_WOBBLE * rng.uniform(0.3, 1.0, size=3)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    wobble = sum(
        a * np.cos(j * theta + p) for j, (a, p) in enumerate(zip(amps, phases), start=2)
    )
    outline = _OUTLINE_RADIUS * r_fov * (1.0 + wobble)
    breast = rr < outline

    centers = rng.uniform(-_BUMP_REGION * r_fov, _BUMP_REGION * r_fov, size=(_N_BUMPS, 2))
    keep = np.hypot(centers[:, 0], centers[:, 1]) <= _BUMP_REGION * r_fov
    while not keep.all():
        centers[~keep] = rng.uniform(
            -_BUMP_REGION * r_fov, _BUMP_REGION * r_fov, size=((~keep).sum(), 2)
        )
        keep = np.hypot(centers[:, 0], centers[:, 1]) <= _BUMP_REGION * r_fov
    widths = rng.uniform(0.15, 0.30, size=_N_BUMPS) * r_fov

    bumps = np.zeros_like(xx)
    for (cx, cy), w in zip(centers, widths):
        bumps += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * w**2))

    threshold = np.percentile(bumps[breast], _FIBRO_PERCENTILE)
    image = np.zeros_like(xx)
    image[breast] = FAT_VALUE
    image[breast & (bumps >= threshold)] = FIBRO_VALUE

    flat = image.ravel()
    assert np.all(flat[~fov_active(grid)] == 0.0)
    return Phantom(image=flat, grid=grid, seed=seed)


def gmi(phantom: Phantom) -> np.ndarray:
    """Gradient magnitude image sqrt(dx^2 + dy^2) per pixel."""
    d = gradient(phantom.grid)
    g = d(phantom.image)
    n = phantom.grid.n
    return np.sqrt(g[:n] ** 2 + g[n:] ** 2)


def phantom_tv(phantom: Phantom) -> float:
    """Anisotropic total variation of the phantom image."""
    d = gradient(phantom.grid)
    return float(np.abs(d(phantom.image)).sum())
