"""Matrix-free linear operators with exact adjoints.

Every operator is a matched forward/adjoint pair: the adjoint is the
transpose of the discretized forward map, never an independent
discretization.  Scaling and vertical stacking preserve this
property, so dot-product adjoint tests hold for anything built
here.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]


class LinearMap:
    """A linear operator defined by forward/adjoint callables.

    Parameters
    ----------
    domain_dim : int
        Length n of input vectors.
    range_dim : int
        Length m of output vectors.
    forward : callable
        Maps a length-n vector to a new length-m vector, which the
        caller may modify in place.
    adjoint : callable
        Maps a length-m vector to a new length-n vector; must be the
        exact transpose of `forward`.
    label : str
        Short name used in error messages.
    """

    def __init__(
        self,
        domain_dim: int,
        range_dim: int,
        forward: Callable[[Vector], Vector],
        adjoint: Callable[[Vector], Vector],
        label: str = "map",
    ):
        if domain_dim <= 0 or range_dim <= 0:
            raise ValueError(f"dimensions must be positive, got {domain_dim}x{range_dim}")
        self.domain_dim = int(domain_dim)
        self.range_dim = int(range_dim)
        self._forward = forward
        self._adjoint = adjoint
        self.label = label

    @property
    def shape(self) -> tuple[int, int]:
        return (self.range_dim, self.domain_dim)

    def __call__(self, x: Vector) -> Vector:
        """Apply the forward map, checking the input length."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.domain_dim,):
            raise ValueError(
                f"{self.label}: expected input of length {self.domain_dim}, got {x.shape}"
            )
        return np.asarray(self._forward(x), dtype=float)

    def adjoint(self, y: Vector) -> Vector:
        """Apply the adjoint map, checking the input length."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.range_dim,):
            raise ValueError(
                f"{self.label}: expected adjoint input of length {self.range_dim}, got {y.shape}"
            )
        return np.asarray(self._adjoint(y), dtype=float)

    def __repr__(self) -> str:
        return f"LinearMap({self.label}, {self.range_dim}x{self.domain_dim})"


def stack(blocks: Sequence[tuple[float, LinearMap]], label: str = "stack") -> LinearMap:
    """Vertical stack [w_1 A_1; ...; w_B A_B] of maps sharing a domain.

    Weights scale both forward and adjoint, so the stack is itself an
    exact matched pair.  The blocks' ranges follow one another in order.
    """
    if len(blocks) == 0:
        raise ValueError("stack needs at least one block")
    n = blocks[0][1].domain_dim
    for w, blk in blocks:
        if blk.domain_dim != n:
            raise ValueError(f"stacked blocks must share the domain: {blk.domain_dim} != {n}")
        if not w > 0:
            raise ValueError(f"stack weights must be positive, got {w}")
    bounds = np.cumsum([0] + [blk.range_dim for _, blk in blocks]).tolist()
    parts = [(float(w), blk, lo, hi) for (w, blk), lo, hi in zip(blocks, bounds, bounds[1:])]

    # a weight of 1 skips its scaling pass, which would change no bit
    def forward(x: Vector) -> Vector:
        out = np.empty(bounds[-1])
        for w, blk, lo, hi in parts:
            out[lo:hi] = blk(x)
            if w != 1.0:
                out[lo:hi] *= w
        return out

    # the sum starts from the first block's product, not from zeros
    def adjoint(y: Vector) -> Vector:
        out = None
        for w, blk, lo, hi in parts:
            part = blk.adjoint(y[lo:hi])
            if w != 1.0:
                part *= w
            out = part if out is None else np.add(out, part, out=out)
        return out

    return LinearMap(n, bounds[-1], forward, adjoint, label=label)


def scaled(w: float, map_: LinearMap) -> LinearMap:
    """Scalar multiple w * A."""
    w = float(w)
    return LinearMap(
        map_.domain_dim,
        map_.range_dim,
        lambda x: w * map_(x),
        lambda y: w * map_.adjoint(y),
        label=f"{w}*{map_.label}",
    )
