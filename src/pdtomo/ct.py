"""2D circular fan-beam CT forward model on a square pixel grid.

The projector traces one ray per detector-bin center and accumulates
exact pixel intersection lengths (Siddon traversal).  The system matrix
X keeps only the columns of pixels inside the field of view (FOV): the
traversal's entries in other columns are dropped before X is stored,
together with an explicit transpose, as one sparse pair, so forward and
adjoint are an exactly matched pair.

Conventions fixed here: images are row-major (ny, nx) arrays flattened
C-order, pixel (ix, iy) covers a square of side `pixel_size` centered
on a grid symmetric about the origin; the first view places the source
on the +x axis and views advance counter-clockwise with the arc
endpoint excluded.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .linop import LinearMap, Vector

# Segments shorter than this fraction of the ray parameter are corner
# grazes and are dropped.
_T_EPS = 1e-13


@dataclass(frozen=True)
class ImageGrid:
    """Square pixel grid covering side_length x side_length (cm)."""

    nx: int
    ny: int
    side_length: float

    def __post_init__(self):
        if self.nx != self.ny:
            raise ValueError(f"grid must be square, got {self.nx}x{self.ny}")
        if self.nx < 1 or self.side_length <= 0:
            raise ValueError("grid needs nx >= 1 and positive side length")

    @property
    def n(self) -> int:
        return self.nx * self.ny

    @property
    def pixel_size(self) -> float:
        return self.side_length / self.nx

    def centers(self) -> np.ndarray:
        """Pixel-center coordinates along one axis, origin at grid center."""
        return (np.arange(self.nx) + 0.5) * self.pixel_size - self.side_length / 2


@dataclass(frozen=True)
class FanBeamGeometry:
    """Circular fan-beam scan description.

    Angles are in radians; distances in cm.  View angles are uniform on
    [start_angle, start_angle + arc_length) with the endpoint excluded.
    """

    n_views: int
    arc_length: float
    n_bins: int
    source_to_center: float
    source_to_detector: float
    detector_length: float
    start_angle: float = 0.0

    def __post_init__(self):
        if not (self.source_to_detector > self.source_to_center > 0):
            raise ValueError(
                "need source_to_detector > source_to_center > 0, got "
                f"{self.source_to_detector} and {self.source_to_center}"
            )
        if self.n_views < 1 or self.n_bins < 1:
            raise ValueError("need n_views >= 1 and n_bins >= 1")
        if self.detector_length <= 0 or self.arc_length <= 0:
            raise ValueError("detector_length and arc_length must be positive")

    @property
    def n_rays(self) -> int:
        return self.n_views * self.n_bins

    def view_angles(self) -> np.ndarray:
        return self.start_angle + self.arc_length * np.arange(self.n_views) / self.n_views


@dataclass
class Sinogram:
    """Projection data: view-major vector of length n_views * n_bins."""

    values: np.ndarray
    geometry: FanBeamGeometry

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.geometry.n_rays:
            raise ValueError(
                f"sinogram length {self.values.size} does not match "
                f"{self.geometry.n_views} views x {self.geometry.n_bins} bins"
            )

    def as_views(self) -> np.ndarray:
        return self.values.reshape(self.geometry.n_views, self.geometry.n_bins)


# Diameter (cm) of the FOV every preset's fan covers; the CLI's image
# grid has this side, so the FOV is the grid's inscribed circle.
FOV_CM = 18.0


def detector_length_for_fov(
    source_to_center: float, source_to_detector: float, fov_diameter: float
) -> float:
    """Flat-detector length whose fan exactly covers the given FOV circle."""
    half_fan = np.arcsin(0.5 * fov_diameter / source_to_center)
    return 2.0 * source_to_detector * np.tan(half_fan)


def _scan_preset(n_views: int, arc: float, n_bins: int) -> dict:
    return dict(
        n_views=n_views,
        arc_length=arc,
        n_bins=n_bins,
        source_to_center=36.0,
        source_to_detector=72.0,
        detector_length=detector_length_for_fov(36.0, 72.0, FOV_CM),
    )


# Bench-scale presets quarter the bin/view counts so studies finish in
# minutes; physical distances and FOV are unchanged.  "desk-oversampled"
# gives more rays than unknowns for the inverse-crime least-squares
# studies.
GEOMETRY_PRESETS = {
    "full": _scan_preset(128, 2 * np.pi, 512),
    "sparse": _scan_preset(32, 2 * np.pi, 512),
    "limited": _scan_preset(128, 3 * np.pi / 4, 512),
    "desk-full": _scan_preset(32, 2 * np.pi, 128),
    "desk-sparse": _scan_preset(8, 2 * np.pi, 128),
    "desk-limited": _scan_preset(32, 3 * np.pi / 4, 128),
    "desk-oversampled": _scan_preset(64, 2 * np.pi, 128),
}


def build_geometry(preset: str | None = None, **fields) -> FanBeamGeometry:
    """Construct a geometry from a named preset and/or explicit fields."""
    if preset is not None:
        if preset not in GEOMETRY_PRESETS:
            raise ValueError(
                f"unknown geometry preset {preset!r}; choices: {sorted(GEOMETRY_PRESETS)}"
            )
        base = dict(GEOMETRY_PRESETS[preset])
        base.update(fields)
        return FanBeamGeometry(**base)
    return FanBeamGeometry(**fields)


def fov_active(grid: ImageGrid) -> np.ndarray:
    """Boolean mask of pixels whose center lies strictly inside the FOV.

    The FOV is the inscribed circle of the grid (diameter = side_length).
    """
    c = grid.centers()
    xx, yy = np.meshgrid(c, c)
    r = grid.side_length / 2
    return (xx**2 + yy**2 < r**2).ravel()


def _siddon_views(grid: ImageGrid, geom: FanBeamGeometry):
    """Unmasked Siddon entries of the ray transform, one view at a time.

    Yields (bins, cols, vals) per view, in view order: the detector bin,
    int32 pixel index and intersection length of each entry, ray by ray
    and, within a ray, in traversal order.
    """
    nx, ny = grid.nx, grid.ny
    h = grid.pixel_size
    x0 = -grid.side_length / 2
    # planes of the pixel lattice, shared by x and y (square grid)
    planes = x0 + h * np.arange(nx + 1)

    half_grid = grid.side_length / 2
    t_hat_of = lambda phi: np.array([-np.sin(phi), np.cos(phi)])

    for v, phi in enumerate(geom.view_angles()):
        sx = geom.source_to_center * np.cos(phi)
        sy = geom.source_to_center * np.sin(phi)
        if abs(sx) <= half_grid and abs(sy) <= half_grid:
            raise ValueError(
                f"degenerate ray geometry: source at view {v} lies inside the grid"
            )
        det_center = (geom.source_to_center - geom.source_to_detector) * np.array(
            [np.cos(phi), np.sin(phi)]
        )
        u = ((np.arange(geom.n_bins) + 0.5) / geom.n_bins - 0.5) * geom.detector_length
        ends = det_center[None, :] + u[:, None] * t_hat_of(phi)[None, :]
        dx = ends[:, 0] - sx
        dy = ends[:, 1] - sy

        with np.errstate(divide="ignore", invalid="ignore"):
            tx = (planes[None, :] - sx) / dx[:, None]
            ty = (planes[None, :] - sy) / dy[:, None]
            t_lo_x = (x0 - sx) / dx
            t_hi_x = (x0 + grid.side_length - sx) / dx
            t_lo_y = (x0 - sy) / dy
            t_hi_y = (x0 + grid.side_length - sy) / dy

        # slab bounds; axis-parallel rays pass every plane of their axis
        txmin = np.minimum(t_lo_x, t_hi_x)
        txmax = np.maximum(t_lo_x, t_hi_x)
        tymin = np.minimum(t_lo_y, t_hi_y)
        tymax = np.maximum(t_lo_y, t_hi_y)
        par_x = dx == 0.0
        inside_x = par_x & (np.abs(sx) <= half_grid)
        txmin = np.where(par_x, np.where(inside_x, -np.inf, np.inf), txmin)
        txmax = np.where(par_x, np.where(inside_x, np.inf, -np.inf), txmax)
        par_y = dy == 0.0
        inside_y = par_y & (np.abs(sy) <= half_grid)
        tymin = np.where(par_y, np.where(inside_y, -np.inf, np.inf), tymin)
        tymax = np.where(par_y, np.where(inside_y, np.inf, -np.inf), tymax)

        t_in = np.maximum.reduce([txmin, tymin, np.zeros_like(dx)])
        t_out = np.minimum.reduce([txmax, tymax, np.ones_like(dx)])
        miss = t_in >= t_out
        t_in = np.where(miss, 0.0, t_in)
        t_out = np.where(miss, 0.0, t_out)

        t_all = np.concatenate([tx, ty], axis=1)
        np.nan_to_num(t_all, copy=False, nan=0.0, posinf=np.inf, neginf=-np.inf)
        t_all = np.clip(t_all, t_in[:, None], t_out[:, None])
        t_all.sort(axis=1)

        dt = np.diff(t_all, axis=1)
        mid = 0.5 * (t_all[:, :-1] + t_all[:, 1:])
        mx = sx + mid * dx[:, None]
        my = sy + mid * dy[:, None]
        ix = np.floor((mx - x0) / h).astype(np.int64)
        iy = np.floor((my - x0) / h).astype(np.int64)
        ok = (dt > _T_EPS) & (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)

        lengths = dt * np.hypot(dx, dy)[:, None]
        bins = np.broadcast_to(np.arange(geom.n_bins)[:, None], dt.shape)
        yield bins[ok], (iy * nx + ix)[ok].astype(np.int32), lengths[ok]


@lru_cache(maxsize=8)
def _system_matrices(grid: ImageGrid, geom: FanBeamGeometry):
    """Cached CSR pair (X, X^T) of the FOV-restricted system matrix.

    Each view's entries in FOV columns are appended straight to X's CSR
    arrays, so the build peaks at about the stored pair plus one view's
    temporaries.
    """
    active = fov_active(grid)
    nb = geom.n_bins
    # a ray crosses 2 nx + 2 lattice planes, so it has at most 2 nx + 1
    # segments; the pages past the last entry are never touched
    bound = geom.n_rays * (2 * grid.nx + 1)
    indices = np.empty(bound, dtype=np.int32)
    data = np.empty(bound)
    indptr = np.zeros(geom.n_rays + 1, dtype=np.int64)
    nnz = 0
    for v, (bins, cols, vals) in enumerate(_siddon_views(grid, geom)):
        keep = active[cols]
        end = nnz + np.count_nonzero(keep)
        indices[nnz:end] = cols[keep]
        data[nnz:end] = vals[keep]
        indptr[1 + v * nb : 1 + (v + 1) * nb] = np.bincount(bins[keep], minlength=nb)
        nnz = end
    np.cumsum(indptr, out=indptr)
    # no view of either array is left, so they can shrink in place
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    mat = sp.csr_matrix((data, indices, indptr), shape=(geom.n_rays, grid.n))
    # sorts each ray's entries into pixel order in place (and would sum a
    # pixel met twice), as scipy's COO conversion does
    mat.sum_duplicates()
    return mat, mat.T.tocsr()


# A stored CSR matrix with at least this many entries is applied as two
# row halves at once, one on the calling thread and one on a helper
# thread (scipy's product releases the GIL).  Below it, the handoff costs
# more than the half saves; CHANGES.md has the measured crossover.
SPLIT_NNZ = 200_000


class _Helper:
    """One daemon thread that computes one half of a CSR product at a time.

    The handoff is two locks, each held while its side has nothing to
    do: the caller posts a half and releases `_go`; the helper takes
    `_go`, computes the half and releases `_done`.  A caller whose own
    half ends before the helper has taken `_go` takes it back and
    computes both halves, so a helper still waiting for a CPU does not
    delay the product.  `_claim` gives the helper to one caller at a
    time.  The thread starts on the first product.
    """

    def __init__(self):
        self._claim = threading.Lock()
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._thread: threading.Thread | None = None
        self._task = None
        self._result = None

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            mat, x = self._task
            # handed to the caller, which raises it
            try:
                self._result = (mat @ x, None)
            except Exception as exc:
                self._result = (None, exc)
            self._done.release()

    def _wait_done(self) -> None:
        """Wait for the helper's half; an interrupt during the wait is
        raised only once the half has ended."""
        interrupt = None
        while True:
            try:
                self._done.acquire()
                break
            except BaseException as exc:
                interrupt = exc
        if interrupt is not None:
            raise interrupt

    def product(self, mat: sp.csr_matrix, top: sp.csr_matrix, bottom: sp.csr_matrix, x):
        """mat @ x as top @ x (here) stacked on bottom @ x (on the helper);
        in one piece while another caller holds the helper."""
        if not self._claim.acquire(blocking=False):
            return mat @ x
        try:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, name="pdtomo-csr-half", daemon=True
                )
                self._thread.start()
            self._task = (bottom, x)
            self._go.release()
            try:
                head = top @ x
            finally:
                # even when the caller's half failed, nothing of this
                # product is left on the helper once it is free
                local = self._go.acquire(blocking=False)
                if not local:
                    self._wait_done()
            if local:
                tail = bottom @ x
            else:
                tail, exc = self._result
                if exc is not None:
                    raise exc
        finally:
            self._task = self._result = None
            self._claim.release()
        return np.concatenate((head, tail))


# A forked child inherits this object but not its thread: each of its
# products takes the posted half back, so it runs in one piece.
_HELPER = _Helper()


def _allowed_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _csr_view(data, indices, indptr, shape) -> sp.csr_matrix:
    """CSR matrix over exactly these arrays; the constructor would copy a
    view under half of its base's size."""
    mat = sp.csr_matrix(shape)
    mat.data, mat.indices, mat.indptr = data, indices, indptr
    return mat


def _split_rows(mat: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Row halves of `mat`, cut at the row holding its middle stored entry.

    Both are views of `mat`'s arrays; only the second half's `indptr`
    is a new (rebased) array.
    """
    cut = int(np.searchsorted(mat.indptr, mat.nnz // 2, side="right")) - 1
    mid = mat.indptr[cut]
    n_rows, n_cols = mat.shape
    top = _csr_view(mat.data[:mid], mat.indices[:mid], mat.indptr[: cut + 1], (cut, n_cols))
    bottom = _csr_view(
        mat.data[mid:], mat.indices[mid:], mat.indptr[cut:] - mid, (n_rows - cut, n_cols)
    )
    return top, bottom


def _product(mat: sp.csr_matrix):
    """x -> mat @ x; split in row halves across two threads when `mat`
    has at least SPLIT_NNZ entries and the process may use 2 CPUs.

    Each row's sum is formed by the same kernel in the same order either
    way, so the split product equals `mat @ x` bit for bit.
    """
    if mat.nnz < SPLIT_NNZ or _allowed_cpus() < 2:
        return lambda x: mat @ x
    top, bottom = _split_rows(mat)
    return lambda x: _HELPER.product(mat, top, bottom, x)


def _pair_map(pair: tuple[sp.csr_matrix, sp.csr_matrix], label: str) -> LinearMap:
    """Matched map over a stored CSR pair (A, A^T)."""
    mat, mat_t = pair
    return LinearMap(mat.shape[1], mat.shape[0], _product(mat), _product(mat_t), label=label)


def projector(grid: ImageGrid, geom: FanBeamGeometry) -> LinearMap:
    """System matrix X (n -> n_rays): intersection lengths with FOV pixels."""
    return _pair_map(_system_matrices(grid, geom), "X")


@lru_cache(maxsize=8)
def _gradient_matrices(nx: int):
    """Cached CSR pair (D, D^T) of the forward-difference gradient on an
    nx x nx grid, built from the 1D difference matrix d (last row zero)."""
    d = sp.diags([-1.0, 1.0], [0, 1], shape=(nx - 1, nx))
    d = sp.vstack([d, sp.csr_matrix((1, nx))])
    eye = sp.identity(nx)
    # "csr" keeps kron off its block path, which stores zeros for small nx
    horiz = sp.kron(eye, d, format="csr")
    vert = sp.kron(d, eye, format="csr")
    mat = sp.vstack([horiz, vert], format="csr")
    return mat, mat.T.tocsr()


def gradient(grid: ImageGrid) -> LinearMap:
    """Forward-difference gradient D: n -> 2n.

    The first n outputs are horizontal differences f[y, x+1] - f[y, x]
    (zero in the last column), the last n are vertical differences
    (zero in the last row); the adjoint is the exact transpose.
    """
    return _pair_map(_gradient_matrices(grid.nx), "D")


def gradient_norm(grid: ImageGrid) -> float:
    """||D||_2 in closed form: D^T D is the Kronecker sum of two 1D Neumann
    Laplacians, each with top eigenvalue 4 sin^2(pi (nx - 1) / (2 nx))."""
    return 2.0 * np.sqrt(2.0) * np.sin(np.pi * (grid.nx - 1) / (2 * grid.nx))


def gaussian_kernel(width_pixels: float) -> np.ndarray:
    """Normalized Gaussian taps truncated at four widths (odd length)."""
    if width_pixels <= 0:
        raise ValueError("width must be positive")
    radius = int(np.floor(4.0 * width_pixels))
    if radius < 1:
        return np.array([1.0])
    offsets = np.arange(-radius, radius + 1)
    k = np.exp(-0.5 * (offsets / width_pixels) ** 2)
    return k / k.sum()


def gaussian_smooth(grid: ImageGrid, width_pixels: float) -> LinearMap:
    """Separable Gaussian blur with zero padding; symmetric (S = S^T)."""
    # imported here: no run calls this, so no run loads scipy.ndimage
    from scipy.ndimage import convolve1d

    k = gaussian_kernel(width_pixels)
    nx, ny = grid.nx, grid.ny

    def smooth(f: Vector) -> Vector:
        img = f.reshape(ny, nx)
        img = convolve1d(img, k, axis=0, mode="constant", cval=0.0)
        img = convolve1d(img, k, axis=1, mode="constant", cval=0.0)
        return img.ravel()

    return LinearMap(grid.n, grid.n, smooth, smooth, label="S_blur")
