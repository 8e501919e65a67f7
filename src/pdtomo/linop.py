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

# Refuse to materialize anything larger than this many entries unless
# the caller raises the cap explicitly.
DENSE_CAP = 10**7


class LinearMap:
    """A linear operator defined by forward/adjoint callables.

    Parameters
    ----------
    domain_dim : int
        Length n of input vectors.
    range_dim : int
        Length m of output vectors.
    forward : callable
        Maps a length-n vector to a length-m vector.
    adjoint : callable
        Maps a length-m vector to a length-n vector; must be the exact
        transpose of `forward`.
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
        return apply(self, x)

    def adjoint(self, y: Vector) -> Vector:
        return apply_adjoint(self, y)

    def __repr__(self) -> str:
        return f"LinearMap({self.label}, {self.range_dim}x{self.domain_dim})"


class StackedMap(LinearMap):
    """Vertical stack [w_1 A_1; ...; w_B A_B] of maps sharing a domain.

    Weights scale both forward and adjoint so the stack is itself an
    exact matched pair.  `offsets` partitions the range: block i
    occupies out[offsets[i]:offsets[i+1]].
    """

    def __init__(self, blocks: Sequence[tuple[float, LinearMap]], label: str = "stack"):
        if len(blocks) == 0:
            raise ValueError("stack needs at least one block")
        n = blocks[0][1].domain_dim
        for w, blk in blocks:
            if blk.domain_dim != n:
                raise ValueError(
                    f"stacked blocks must share the domain: {blk.domain_dim} != {n}"
                )
            if not w > 0:
                raise ValueError(f"stack weights must be positive, got {w}")
        dims = [blk.range_dim for _, blk in blocks]
        offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        super().__init__(
            domain_dim=n,
            range_dim=int(offsets[-1]),
            forward=self._stack_forward,
            adjoint=self._stack_adjoint,
            label=label,
        )
        self.blocks = [(float(w), blk) for w, blk in blocks]
        self.offsets = offsets

    def _stack_forward(self, x: Vector) -> Vector:
        out = np.empty(self.range_dim)
        for (w, blk), lo, hi in zip(self.blocks, self.offsets, self.offsets[1:]):
            out[lo:hi] = w * blk(x)
        return out

    def _stack_adjoint(self, y: Vector) -> Vector:
        out = np.zeros(self.domain_dim)
        for (w, blk), lo, hi in zip(self.blocks, self.offsets, self.offsets[1:]):
            out += w * blk.adjoint(y[lo:hi])
        return out


def apply(map_: LinearMap, x: Vector) -> Vector:
    """Apply the forward map, checking the input length."""
    x = np.asarray(x, dtype=float)
    if x.shape != (map_.domain_dim,):
        raise ValueError(
            f"{map_.label}: expected input of length {map_.domain_dim}, got {x.shape}"
        )
    return np.asarray(map_._forward(x), dtype=float)


def apply_adjoint(map_: LinearMap, y: Vector) -> Vector:
    """Apply the adjoint map, checking the input length."""
    y = np.asarray(y, dtype=float)
    if y.shape != (map_.range_dim,):
        raise ValueError(
            f"{map_.label}: expected adjoint input of length {map_.range_dim}, got {y.shape}"
        )
    return np.asarray(map_._adjoint(y), dtype=float)


def stack(blocks: Sequence[tuple[float, LinearMap]], label: str = "stack") -> StackedMap:
    """Stack weighted maps vertically: forward concatenates w_i A_i x."""
    return StackedMap(blocks, label=label)


def identity(n: int) -> LinearMap:
    return LinearMap(n, n, lambda x: x.copy(), lambda y: y.copy(), label="identity")


def from_dense(mat: NDArray, label: str = "dense") -> LinearMap:
    """Wrap a dense matrix as a matched matvec/rmatvec pair."""
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    return LinearMap(n, m, lambda x: mat @ x, lambda y: mat.T @ y, label=label)


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


def materialize_dense(map_: LinearMap, cap: int = DENSE_CAP) -> NDArray:
    """Build the dense matrix column by column (test/diagnostic use only).

    Refuses when m*n exceeds `cap` entries.
    """
    m, n = map_.range_dim, map_.domain_dim
    if m * n > cap:
        raise ValueError(
            f"refusing to materialize {map_.label}: {m}x{n} exceeds cap of {cap} entries"
        )
    out = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        out[:, j] = map_(e)
        e[j] = 0.0
    return out


def adjoint_dot_test(map_: LinearMap, trials: int = 100, seed: int = 0) -> float:
    """Max relative dot-product mismatch |<Ax,y> - <x,A'y>| over random trials.

    The mismatch is normalized by ||Ax|| ||y|| + ||x|| ||A'y||, so a
    matched pair should score near machine epsilon.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(map_.domain_dim)
        y = rng.standard_normal(map_.range_dim)
        ax = map_(x)
        aty = map_.adjoint(y)
        num = abs(ax @ y - x @ aty)
        den = np.linalg.norm(ax) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(aty)
        if den == 0.0:
            continue
        worst = max(worst, num / den)
    return worst
