"""On-disk formats: CSV tables, raw images, windowed 16-bit PGM,
sinograms, eigensets.

Raw image files are bare little-endian float64 vectors.  Sinograms and
eigensets carry a small binary header; sinogram headers embed a digest
of the scan geometry so stale data cannot silently be reused with a
different scan, and eigenset headers the digest of their cache key.
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

# CPython's builtin sha256, not hashlib's, which loads OpenSSL's libcrypto
# (3.5 MB resident) for a few 100-byte digests; the digests are the same
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256

from .ct import FanBeamGeometry, ImageGrid, Sinogram
from .spectral import EigenSet

_SINO_MAGIC = b"SNG1"
# tag, <II (views, bins), the 16-byte geometry digest; then the rays
_SINO_HEADER = 4 + 8 + 16
# The eigenset format tag; it also joins the eigcache key, so files of an
# earlier format are never opened.  Header: tag, <II (n, K), the sha256
# digest of the cache key, <d sigma0; then K values and K x n vectors.
EIG_FORMAT = "EIG2"
_EIG_MAGIC = EIG_FORMAT.encode()
_KEY_BYTES = 32
_EIG_HEADER = 12 + _KEY_BYTES + 8


def geometry_digest(geom: FanBeamGeometry, grid: ImageGrid | None = None) -> bytes:
    """16-byte stable digest of the scan (and optionally grid) fields."""
    parts = [
        f"{geom.n_views}",
        f"{geom.arc_length!r}",
        f"{geom.n_bins}",
        f"{geom.source_to_center!r}",
        f"{geom.source_to_detector!r}",
        f"{geom.detector_length!r}",
        f"{geom.start_angle!r}",
    ]
    if grid is not None:
        parts += [f"{grid.nx}", f"{grid.ny}", f"{grid.side_length!r}"]
    return sha256("|".join(parts).encode()).digest()[:16]


def write_csv(path, header, rows):
    """Write a CSV table: strings and ints via str, floats via repr, NaN
    as an empty cell (infinities stay `inf`).  Returns `path`."""

    def cell(v) -> str:
        if isinstance(v, (str, int, np.integer)):
            return str(v)
        v = float(v)
        return "" if np.isnan(v) else repr(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)
    return path


def save_raw(path, values: np.ndarray) -> None:
    """Write a float64 little-endian vector with no header."""
    np.asarray(values, dtype="<f8").ravel().tofile(path)


def load_raw(path, n: int | None = None) -> np.ndarray:
    """Read a raw float64 vector; checks the length when n is given."""
    size = os.path.getsize(path)
    if size % 8:
        raise ValueError(f"{path}: {size} bytes is not a whole number of float64 values")
    out = np.fromfile(path, dtype="<f8")
    if n is not None and out.size != n:
        raise ValueError(f"{path}: expected {n} values, found {out.size}")
    return out


def save_pgm(path, image: np.ndarray, shape: tuple[int, int], window: tuple[float, float]) -> None:
    """Export a 16-bit binary PGM with the given gray window (lo, hi)."""
    lo, hi = window
    if not hi > lo:
        raise ValueError(f"window must satisfy hi > lo, got {window}")
    img = np.asarray(image, dtype=float).reshape(shape)
    scaled = np.clip((img - lo) / (hi - lo), 0.0, 1.0)
    # PGM stores multi-byte samples big-endian
    pixels = (scaled * 65535.0).round().astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{shape[1]} {shape[0]}\n65535\n".encode())
        fh.write(pixels.tobytes())


def save_sinogram(path, sino: Sinogram, grid: ImageGrid | None = None) -> None:
    """Write the sinogram with a header binding it to its geometry."""
    with open(path, "wb") as fh:
        fh.write(_SINO_MAGIC)
        fh.write(struct.pack("<II", sino.geometry.n_views, sino.geometry.n_bins))
        fh.write(geometry_digest(sino.geometry, grid))
        fh.write(np.asarray(sino.values, dtype="<f8").tobytes())


def load_sinogram(path, geom: FanBeamGeometry, grid: ImageGrid | None = None) -> Sinogram:
    """Read a sinogram, verifying shape and geometry digest."""
    with open(path, "rb") as fh:
        head = fh.read(_SINO_HEADER)
        if head[:4] != _SINO_MAGIC:
            raise ValueError(f"{path}: not a sinogram file")
        if len(head) < _SINO_HEADER:
            raise ValueError(f"{path}: {len(head)} bytes, shorter than the {_SINO_HEADER}-byte header")
        n_views, n_bins = struct.unpack_from("<II", head, 4)
        digest = head[12:]
        if (n_views, n_bins) != (geom.n_views, geom.n_bins):
            raise ValueError(
                f"{path}: holds {n_views}x{n_bins} rays, geometry expects "
                f"{geom.n_views}x{geom.n_bins}"
            )
        if digest != geometry_digest(geom, grid):
            raise ValueError(f"{path}: geometry digest mismatch")
        payload, want = fh.read(), 8 * n_views * n_bins
    if len(payload) != want:
        raise ValueError(f"{path}: {len(payload)} payload bytes, {n_views}x{n_bins} rays need {want}")
    return Sinogram(np.frombuffer(payload, dtype="<f8").copy(), geom)


def save_eigenset(path, eigs: EigenSet, sigma0: float, key: bytes) -> None:
    """Persist a rho = 1 low-rank plan: its eigenpairs, its sigma0 and
    the 32-byte digest of the cache key they were computed for.

    The file is written under a per-process temporary name in the same
    directory and renamed into place, so a concurrent reader sees either
    the previous file or the complete new one, never a partial write.
    """
    if len(key) != _KEY_BYTES:
        raise ValueError(f"key digest must be {_KEY_BYTES} bytes, got {len(key)}")
    if not (np.isfinite(sigma0) and sigma0 > 0):
        raise ValueError(f"sigma0 must be finite and positive, got {sigma0!r}")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_EIG_MAGIC)
            fh.write(struct.pack("<II", eigs.n, eigs.k))
            fh.write(key)
            fh.write(struct.pack("<d", sigma0))
            fh.write(np.asarray(eigs.values, dtype="<f8").tobytes())
            fh.write(np.asarray(eigs.vectors, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_eigenset(path) -> tuple[EigenSet, float, bytes]:
    """Read what `save_eigenset` wrote: (eigenpairs, sigma0, key digest).

    ValueError naming the path for another format (`EIG1` included), a
    length that does not match the header, a sigma0 that is not finite
    and positive, or pairs that `EigenSet.validate` rejects.
    """
    # values and vectors are read straight from the file, so loading
    # holds one copy of the plan, not the file's bytes beside it
    with open(path, "rb") as fh:
        head = fh.read(_EIG_HEADER)
        if head[:4] != _EIG_MAGIC:
            raise ValueError(f"{path}: not an eigenset file in the {EIG_FORMAT} format")
        size = os.fstat(fh.fileno()).st_size
        if size < _EIG_HEADER:
            raise ValueError(f"{path}: {size} bytes, shorter than the {_EIG_HEADER}-byte header")
        n, k = struct.unpack_from("<II", head, 4)
        want = _EIG_HEADER + 8 * k * (n + 1)
        if size != want:
            raise ValueError(f"{path}: {size} bytes, but {k} pairs of length {n} need {want}")
        key = head[12 : 12 + _KEY_BYTES]
        (sigma0,) = struct.unpack_from("<d", head, 12 + _KEY_BYTES)
        if not (np.isfinite(sigma0) and sigma0 > 0):
            raise ValueError(f"{path}: sigma0 {sigma0!r} is not finite and positive")
        values = np.fromfile(fh, "<f8", k)
        vectors = np.fromfile(fh, "<f8", k * n).reshape(k, n)
    try:
        return EigenSet(vectors, values), sigma0, key
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
