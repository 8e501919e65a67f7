"""Round-trip and validation tests for the on-disk formats."""

import hashlib
import re
import struct

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
    sha256,
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


@pytest.mark.parametrize("n", [10, None])
def test_raw_rejects_a_partial_value(tmp_path, n):
    # 8n + 4 bytes is not n values and a stray half of one
    path = tmp_path / "img.raw"
    save_raw(path, np.zeros(10))
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    with pytest.raises(ValueError, match=re.escape(f"{path}: 84 bytes is not a whole number")):
        load_raw(path, n)


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


@pytest.mark.parametrize("change", [-3, -8, 8])
def test_sinogram_rejects_a_truncated_or_padded_payload(tmp_path, rng, change):
    geom = build_geometry("desk-sparse")
    values = rng.standard_normal(geom.n_views * geom.n_bins)
    path = tmp_path / "data.sng"
    save_sinogram(path, Sinogram(values, geom))
    blob = path.read_bytes()
    path.write_bytes(blob[:change] if change < 0 else blob + b"\0" * change)
    want = 8 * values.size
    with pytest.raises(ValueError, match=re.escape(f"{path}: {want + change} payload bytes")):
        load_sinogram(path, geom)


@pytest.mark.parametrize("size", [0, 6, 27])
def test_sinogram_rejects_a_file_shorter_than_its_header(tmp_path, rng, size):
    geom = build_geometry("desk-sparse")
    path = tmp_path / "data.sng"
    save_sinogram(path, Sinogram(rng.standard_normal(geom.n_views * geom.n_bins), geom))
    path.write_bytes(path.read_bytes()[:size])
    # an empty file lacks the tag too; a cut one names the header
    want = "not a sinogram file" if size < 4 else f"{size} bytes, shorter than the 28-byte header"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {want}")):
        load_sinogram(path, geom)


def test_sinogram_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.sng"
    path.write_bytes(b"not a sinogram at all")
    with pytest.raises(ValueError, match="not a sinogram"):
        load_sinogram(path, build_geometry("desk-sparse"))


KEY = hashlib.sha256(b"an eigcache key").digest()
# sigma0 sits after the tag, (n, K) and the key digest
SIGMA0_AT = 4 + 8 + len(KEY)


def saved_pairs(tmp_path, sigma0=0.1 + 0.2):
    path = tmp_path / "pairs.eig"
    save_eigenset(path, EigenSet(np.eye(6)[:3], [9.0, 4.0, 1.0]), sigma0, KEY)
    return path


def test_eigenset_round_trip(tmp_path):
    vectors = np.eye(6)[:3]
    values = np.array([9.0, 4.0, 1.0])
    # a sigma0 with a full mantissa comes back bit for bit
    sigma0 = 0.1 + 0.2
    path = tmp_path / "pairs.eig"
    save_eigenset(path, EigenSet(vectors, values), sigma0, KEY)
    back, back_sigma, back_key = load_eigenset(path)
    assert np.array_equal(back.vectors, vectors)
    assert np.array_equal(back.values, values)
    assert back.k == 3 and back.n == 6
    assert struct.pack("<d", back_sigma) == struct.pack("<d", sigma0)
    assert back_key == KEY
    assert path.read_bytes()[:4] == b"EIG2"


@pytest.mark.parametrize("cut", [1, 8, 60, 100])
def test_eigenset_rejects_wrong_length(tmp_path, cut):
    path = saved_pairs(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-cut])
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .* bytes"):
        load_eigenset(path)
    path.write_bytes(blob + b"\0" * cut)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .* bytes"):
        load_eigenset(path)


@pytest.mark.parametrize("sigma0", [0.0, -0.5, np.inf, np.nan])
def test_eigenset_rejects_a_stored_sigma0_that_is_not_positive(tmp_path, sigma0):
    path = saved_pairs(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[SIGMA0_AT : SIGMA0_AT + 8] = struct.pack("<d", sigma0)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: sigma0"):
        load_eigenset(path)
    # and no such file is written in the first place
    with pytest.raises(ValueError, match="sigma0 must be finite and positive"):
        save_eigenset(tmp_path / "other.eig", EigenSet(np.eye(6)[:1], [1.0]), sigma0, KEY)
    assert not (tmp_path / "other.eig").exists()


# the three values follow sigma0; the 3 x 6 vectors follow them
@pytest.mark.parametrize(
    "offset", [SIGMA0_AT + 8 + 8, SIGMA0_AT + 8 + 24 + 8 * 7], ids=["value", "vector"]
)
def test_eigenset_rejects_a_stored_nan_naming_the_file(tmp_path, offset):
    path = saved_pairs(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[offset : offset + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: eigenpairs must be finite"):
        load_eigenset(path)


def test_eigenset_save_needs_a_full_key_digest(tmp_path):
    with pytest.raises(ValueError, match="32 bytes"):
        save_eigenset(tmp_path / "pairs.eig", EigenSet(np.eye(6)[:1], [1.0]), 1.0, KEY[:16])


def test_eigenset_rejects_the_eig1_format(tmp_path):
    # the former layout: no key digest and no sigma0
    path = tmp_path / "old.eig"
    path.write_bytes(
        b"EIG1" + struct.pack("<II", 6, 1) + struct.pack("<d", 1.0) + np.eye(6)[0].tobytes()
    )
    want = f"{re.escape(str(path))}: not an eigenset file in the EIG2 format"
    with pytest.raises(ValueError, match=want):
        load_eigenset(path)


def test_eigenset_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "pairs.eig"
    save_eigenset(path, EigenSet(np.eye(6)[:2], [4.0, 1.0]), 1.0, KEY)
    before = path.read_bytes()

    class FailingVectors:
        """Stands in for the vectors; converting them fails mid-write."""

        shape = (3, 6)

        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    doomed = EigenSet(np.eye(6)[:3], [9.0, 4.0, 1.0])
    monkeypatch.setattr(doomed, "vectors", FailingVectors())
    with pytest.raises(OSError, match="disk full"):
        save_eigenset(path, doomed, 1.0, KEY)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.eig"]


def test_eigenset_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.eig"
    path.write_bytes(b"XXXXGARBAGE")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: not an eigenset"):
        load_eigenset(path)


def test_eigenset_rejects_a_file_with_no_pairs_naming_the_file(tmp_path):
    # a well-formed 52-byte header with K = 0 and nothing after it
    path = tmp_path / "empty.eig"
    path.write_bytes(b"EIG2" + struct.pack("<II", 6, 0) + KEY + struct.pack("<d", 1.0))
    assert path.stat().st_size == 52
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: the eigenset holds no eigenpairs"):
        load_eigenset(path)


@pytest.mark.parametrize("size", [0, 3, 55, 56, 64, 100, 1000])
def test_sha256_equals_hashlib(size):
    # the digest inputs are ASCII joins of about 100 bytes; block-boundary
    # lengths (55, 56, 64) included
    data = bytes(range(33, 127)) * 11
    assert sha256(data[:size]).digest() == hashlib.sha256(data[:size]).digest()


# the scan's digests, pinned: data.sng headers and eigcache keys embed them
@pytest.mark.parametrize(
    "preset, scan, with_grid",
    [
        ("desk-sparse", "f5918954b23c2d712ac0e5b40ae1cd74", "31aef94da432be117740fa3ad377d57f"),
        ("desk-full", "f702d604174061dd2bb69d69d1c1d431", "ee0ef48cc06408ccf2d3253fb6c5ab9a"),
        ("desk-limited", "67b27d1b7e3931a1779e69a2841c009a", "9bac5f51ce3c17e0eb2ec3e4ebae9aaf"),
        ("desk-oversampled", "8819f7b368363d4f5395db42e7d894cc", "e71a66576e0077ca32cf90a2cb93a884"),
    ],
)
def test_geometry_digest_is_pinned(preset, scan, with_grid):
    geom = build_geometry(preset)
    assert geometry_digest(geom).hex() == scan
    assert geometry_digest(geom, ImageGrid(64, 64, 18.0)).hex() == with_grid


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
