"""Round-trip and validation tests for the on-disk formats."""

import numpy as np
import pytest

from pdtomo.ct import ImageGrid, Sinogram, build_geometry
from pdtomo.fileio import (
    ensure_dir,
    geometry_digest,
    load_eigenset,
    load_raw,
    load_sinogram,
    save_eigenset,
    save_pgm,
    save_raw,
    save_sinogram,
    write_csv,
)
from pdtomo.spectral import EigenSet


def test_raw_round_trip(tmp_path, rng):
    v = rng.standard_normal(100)
    path = tmp_path / "img.raw"
    save_raw(path, v)
    assert path.stat().st_size == 800
    back = load_raw(path, n=100)
    assert np.array_equal(back, v)
    with pytest.raises(ValueError, match="expected 5 values"):
        load_raw(path, n=5)


def test_pgm_header_window_and_clipping(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 2.0]])
    path = tmp_path / "img.pgm"
    save_pgm(path, img.ravel(), shape=(2, 2), window=(0.0, 1.0))
    blob = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert blob.startswith(header)
    pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(2, 2)
    # values above the window clip to white
    assert pixels[0, 0] == 0 and pixels[1, 0] == 65535 and pixels[1, 1] == 65535
    assert pixels[0, 1] == round(0.5 * 65535)
    with pytest.raises(ValueError, match="hi > lo"):
        save_pgm(path, img.ravel(), shape=(2, 2), window=(1.0, 1.0))


def test_sinogram_round_trip(tmp_path, rng):
    geom = build_geometry("desk-sparse")
    grid = ImageGrid(64, 64, 18.0)
    values = rng.standard_normal(geom.n_views * geom.n_bins)
    path = tmp_path / "data.sng"
    save_sinogram(path, Sinogram(values, geom), grid)
    back = load_sinogram(path, geom, grid)
    assert np.array_equal(back.values, values)
    assert back.geometry == geom


def test_sinogram_rejects_wrong_geometry(tmp_path, rng):
    geom = build_geometry("desk-sparse")
    other_views = build_geometry("desk-full")
    values = rng.standard_normal(geom.n_views * geom.n_bins)
    path = tmp_path / "data.sng"
    save_sinogram(path, Sinogram(values, geom))
    with pytest.raises(ValueError, match="rays, geometry expects"):
        load_sinogram(path, other_views)
    # same shape, different scan parameters: digest catches it
    rotated = build_geometry("desk-sparse", start_angle=0.5)
    with pytest.raises(ValueError, match="digest mismatch"):
        load_sinogram(path, rotated)
    # grid binding participates in the digest
    with pytest.raises(ValueError, match="digest mismatch"):
        load_sinogram(path, geom, ImageGrid(64, 64, 18.0))


def test_sinogram_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.sng"
    path.write_bytes(b"not a sinogram at all")
    with pytest.raises(ValueError, match="not a sinogram"):
        load_sinogram(path, build_geometry("desk-sparse"))


def test_eigenset_round_trip(tmp_path):
    vectors = np.eye(6)[:3]
    values = np.array([9.0, 4.0, 1.0])
    path = tmp_path / "pairs.eig"
    save_eigenset(path, EigenSet(vectors, values))
    back = load_eigenset(path)
    assert np.array_equal(back.vectors, vectors)
    assert np.array_equal(back.values, values)
    assert back.k == 3 and back.n == 6


def test_eigenset_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "pairs.eig"
    save_eigenset(path, EigenSet(np.eye(6)[:2], [4.0, 1.0]))
    before = path.read_bytes()

    class FailingVectors:
        """Stands in for the vectors; converting them fails mid-write."""

        shape = (3, 6)

        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    doomed = EigenSet(np.eye(6)[:3], [9.0, 4.0, 1.0])
    monkeypatch.setattr(doomed, "vectors", FailingVectors())
    with pytest.raises(OSError, match="disk full"):
        save_eigenset(path, doomed)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.eig"]


def test_eigenset_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.eig"
    path.write_bytes(b"XXXXGARBAGE")
    with pytest.raises(ValueError, match="not an eigenset"):
        load_eigenset(path)


def test_geometry_digest_properties():
    geom = build_geometry("desk-full")
    grid = ImageGrid(64, 64, 18.0)
    assert len(geometry_digest(geom)) == 16
    assert geometry_digest(geom) == geometry_digest(build_geometry("desk-full"))
    assert geometry_digest(geom) != geometry_digest(
        build_geometry("desk-full", start_angle=1e-9)
    )
    assert geometry_digest(geom) != geometry_digest(geom, grid)
    assert geometry_digest(geom, grid) != geometry_digest(
        geom, ImageGrid(64, 64, 18.000001)
    )


def test_ensure_dir_creates_nested(tmp_path):
    target = tmp_path / "a" / "b" / "c"
    out = ensure_dir(target)
    assert out.is_dir()
    # idempotent
    assert ensure_dir(target) == out


def test_write_csv_cell_formats(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[3, np.int64(4), 0.1, np.float64(1 / 3), np.nan, np.inf, -np.inf]]
    write_csv(path, ("a", "b", "c", "d", "e", "f", "g"), rows)
    assert path.read_text() == (
        "a,b,c,d,e,f,g\n3,4,0.1,0.3333333333333333,,inf,-inf\n"
    )
