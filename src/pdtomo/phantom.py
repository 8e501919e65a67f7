"""Procedural piecewise-constant breast-like phantom.

Two tissue classes on a zero background: fat at 0.194 1/cm and
fibroglandular tissue at 0.233 1/cm.  The fibro structure is a sum of
seeded Gaussian bumps thresholded at a fixed percentile, which yields
irregular blob borders and a sparse gradient while keeping the image
exactly piecewise constant.
"""

from __future__ import annotations

import math
import operator
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

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _PCG64:
    """`np.random.default_rng(seed)`'s uniform draws, bit for bit, without
    loading numpy.random (6 MB resident, OpenSSL included) for a few dozen
    numbers: SeedSequence's hash of the seed's 32-bit words, PCG64 seeded
    from four 64-bit state words, and the XSL-RR output (O'Neill, 2014)."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
        mult = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal mult
            value ^= mult
            mult = mult * 0x931E8875 & _MASK32
            value = value * mult & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return r ^ r >> 16

        # SeedSequence.mix_entropy on a pool of four words ...
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # ... then generate_state(4, uint64), little-endian word pairs
        state, mult = [], 0x8B51F9DD
        for i in range(8):
            value = pool[i % 4] ^ mult
            mult = mult * 0x58F38DED & _MASK32
            value = value * mult & _MASK32
            state.append(value ^ value >> 16)
        s = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
        # pcg64_set_seed: one step from state 0, add the seed, one more step
        self.inc = (s[2] << 65 | s[3] << 1 | 1) & _MASK128
        self.state = (self.inc + (s[0] << 64 | s[1])) & _MASK128
        self.next64()

    def next64(self) -> int:
        self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        x = (self.state >> 64 ^ self.state) & _MASK64
        rot = self.state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        """`Generator.uniform(lo, hi, size)`: lo + (hi - lo) * u for u
        the top 53 bits of each draw, in C order."""
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        lo, span = float(lo), float(hi) - float(lo)
        draws = [lo + span * ((self.next64() >> 11) * 2.0**-53) for _ in range(math.prod(shape))]
        return np.array(draws, dtype=float).reshape(shape)


def _percentile(values: np.ndarray, q: float) -> float:
    """`np.percentile(values, q)` by its default linear method, bit for
    bit, from one `np.partition`: np.percentile itself loads numpy.ma
    through np.unique."""
    n = values.size
    pos = (n - 1) * (q / 100)
    # as numpy does: at or past the last index both neighbours are index -1,
    # the largest value, and the weight is measured from -1
    below = math.floor(pos) if pos < n - 1 else -1
    above = below + 1 if below >= 0 else -1
    part = np.partition(values, (below, above))
    a, b, t = float(part[below]), float(part[above]), pos - below
    # numpy's _lerp: from the nearer end, so t = 1 gives b exactly
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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


def generate(grid: ImageGrid, seed: int = 0) -> Phantom:
    """Deterministic phantom for a given (grid, seed) pair.

    A roughly circular fat region sits strictly inside the FOV; the
    fibro class is the upper tail of a smooth random bump field inside
    that region.
    """
    rng = _PCG64(seed)
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

    threshold = _percentile(bumps[breast], _FIBRO_PERCENTILE)
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
