"""Fan-beam projector over the FOV pixels, gradient, and smoothing operators."""

import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from pdtomo import ct
from pdtomo.ct import (
    FanBeamGeometry,
    ImageGrid,
    Sinogram,
    _gradient_matrices,
    _siddon_views,
    _system_matrices,
    build_geometry,
    detector_length_for_fov,
    fov_active,
    gaussian_kernel,
    gaussian_smooth,
    gradient,
    gradient_norm,
    projector,
)
from pdtomo.linop import LinearMap

from oracles import (
    DENSE_CAP,
    adjoint_dot_test,
    chord_length,
    gradient_adjoint_by_slices,
    gradient_by_slices,
    materialize_dense,
    segment_in_square,
)


def test_grid_must_be_square():
    with pytest.raises(ValueError):
        ImageGrid(4, 5, 1.0)
    with pytest.raises(ValueError):
        ImageGrid(3, 3, 0.0)
    grid = ImageGrid(64, 64, 18.0)
    assert grid.pixel_size == pytest.approx(18.0 / 64)
    assert grid.n == 4096


def test_geometry_invariants():
    with pytest.raises(ValueError):
        build_geometry(n_views=4, arc_length=1.0, n_bins=4,
                       source_to_center=40.0, source_to_detector=30.0,
                       detector_length=10.0)
    with pytest.raises(ValueError):
        build_geometry("full", n_views=0)
    with pytest.raises(ValueError, match="preset"):
        build_geometry("no-such-preset")


def test_view_angles_exclude_endpoint():
    geom = build_geometry("desk-full", n_views=8)
    angles = geom.view_angles()
    assert angles[0] == 0.0
    assert np.allclose(np.diff(angles), 2 * np.pi / 8)
    assert angles[-1] < 2 * np.pi


def test_presets_match_scan_protocol():
    full = build_geometry("full")
    assert (full.n_views, full.n_bins) == (128, 512)
    assert full.arc_length == pytest.approx(2 * np.pi)
    sparse = build_geometry("sparse")
    assert (sparse.n_views, sparse.arc_length) == (32, pytest.approx(2 * np.pi))
    limited = build_geometry("limited")
    assert (limited.n_views, limited.arc_length) == (128, pytest.approx(3 * np.pi / 4))
    for name in ("full", "sparse", "limited"):
        g = build_geometry(name)
        assert (g.source_to_center, g.source_to_detector) == (36.0, 72.0)
        # fan sized so the FOV diameter is 18 cm
        assert g.detector_length == pytest.approx(
            2 * 72.0 * np.tan(np.arcsin(9.0 / 36.0))
        )
    for name in ("desk-full", "desk-sparse", "desk-limited", "desk-oversampled"):
        assert build_geometry(name).n_bins == 128


def test_detector_length_formula():
    assert detector_length_for_fov(36.0, 72.0, 18.0) == pytest.approx(
        37.180640123591196
    )


def test_sinogram_length_checked():
    geom = build_geometry("desk-sparse", n_views=2, n_bins=3)
    sino = Sinogram(np.arange(6.0), geom)
    assert sino.as_views().shape == (2, 3)
    with pytest.raises(ValueError):
        Sinogram(np.arange(5.0), geom)


def test_fov_count_at_paper_scale():
    assert int(fov_active(ImageGrid(256, 256, 18.0)).sum()) == 51468


def test_fov_corner_masked_and_center_active():
    # Corner centers leave the inscribed circle once the grid is at least
    # 4x4; a 3x3 grid has all nine centers inside.
    for n in (4, 7, 16):
        active = fov_active(ImageGrid(n, n, 5.0))
        assert not active[0] and not active[n - 1]
        assert not active[-1] and not active[-n]
    grid3 = ImageGrid(3, 3, 5.0)
    active3 = fov_active(grid3)
    assert active3[4]
    axis = grid3.centers()
    xx, yy = np.meshgrid(axis, axis)
    brute = (xx.ravel() ** 2 + yy.ravel() ** 2) < (5.0 / 2) ** 2
    assert np.array_equal(active3, brute)


def siddon_coo(grid, geom):
    """COO triplets (ray, pixel, length) of the unmasked ray transform,
    concatenated from the per-view traversal."""
    views = list(_siddon_views(grid, geom))
    rows = np.concatenate([v * geom.n_bins + bins for v, (bins, _, _) in enumerate(views)])
    cols = np.concatenate([cols for _, cols, _ in views])
    vals = np.concatenate([vals for _, _, vals in views])
    return rows, cols, vals


def siddon_dense(grid, geom):
    """Dense unmasked ray transform summed from the Siddon triplets."""
    rows, cols, vals = siddon_coo(grid, geom)
    dense = np.zeros((geom.n_rays, grid.n))
    np.add.at(dense, (rows, cols), vals)
    return dense


def test_project_zero_image():
    grid = ImageGrid(8, 8, 18.0)
    geom = build_geometry("desk-sparse", n_views=2, n_bins=4)
    sino = projector(grid, geom)(np.zeros(grid.n))
    assert np.array_equal(sino, np.zeros(8))


def test_project_nonnegative_and_mask_composition():
    grid = ImageGrid(16, 16, 18.0)
    geom = build_geometry("desk-sparse", n_views=4, n_bins=16)
    x_map = projector(grid, geom)
    rng = np.random.default_rng(0)
    f = rng.random(grid.n)
    assert np.all(x_map(f) >= 0.0)
    masked = fov_active(grid).astype(float) * f
    assert np.array_equal(x_map(masked), x_map(f))


def test_central_ray_measures_disk_diameter():
    grid = ImageGrid(128, 128, 18.0)
    geom = build_geometry("desk-sparse", n_views=1, n_bins=3)
    axis = grid.centers()
    xx, yy = np.meshgrid(axis, axis)
    r = 6.0
    disk = ((xx.ravel() ** 2 + yy.ravel() ** 2) < r * r).astype(float)
    sino = projector(grid, geom)(disk)
    # odd bin count puts the middle bin dead center on the source axis
    assert abs(sino[1] - 2 * r) < grid.pixel_size


def test_every_projector_entry_matches_segment_oracle():
    # generic start angle: boundary-aligned rays split lengths between
    # adjacent pixels in convention-dependent ways
    grid = ImageGrid(4, 4, 18.0)
    geom = build_geometry("desk-sparse", n_views=3, n_bins=4, start_angle=0.123)
    dense = siddon_dense(grid, geom)
    axis = grid.centers()
    xx, yy = np.meshgrid(axis, axis)
    pixel_centers = np.column_stack([xx.ravel(), yy.ravel()])
    half = grid.pixel_size / 2
    offsets = (np.arange(geom.n_bins) + 0.5) / geom.n_bins - 0.5
    row = 0
    for ang in geom.view_angles():
        src = geom.source_to_center * np.array([np.cos(ang), np.sin(ang)])
        det_c = -(geom.source_to_detector - geom.source_to_center) * np.array(
            [np.cos(ang), np.sin(ang)]
        )
        tang = np.array([-np.sin(ang), np.cos(ang)])
        for off in offsets:
            end = det_c + tang * off * geom.detector_length
            for p, (cx, cy) in enumerate(pixel_centers):
                expected = segment_in_square(src[0], src[1], end[0], end[1], cx, cy, half)
                assert dense[row, p] == pytest.approx(expected, abs=1e-9)
            row += 1


def test_chord_oracle_full_grid_row_sums():
    # Summing a ray's pixel intersections over a fully covered grid must
    # reproduce the analytic chord of the grid-inscribed square... easier
    # and exact: a uniform image of ones gives ray values equal to the
    # in-grid path length, bounded by the grid diagonal.
    grid = ImageGrid(32, 32, 18.0)
    geom = build_geometry("desk-sparse", n_views=4, n_bins=8)
    unmasked = siddon_dense(grid, geom)
    vals = unmasked @ np.ones(grid.n)
    assert np.all(vals <= np.sqrt(2) * 18.0 + 1e-9)
    # central bins traverse the FOV: compare against the circle chord
    # through the ray closest to center, loosely (one pixel).
    disk = fov_active(grid).astype(float)
    masked_vals = unmasked @ disk
    src = np.array([36.0, 0.0])
    det_c = np.array([-36.0, 0.0])
    tang = np.array([0.0, 1.0])
    offsets = (np.arange(8) + 0.5) / 8 - 0.5
    for b in (3, 4):
        end = det_c + tang * offsets[b] * geom.detector_length
        expected = chord_length(9.0, src[0], src[1], end[0], end[1])
        assert abs(masked_vals[b] - expected) < 2 * grid.pixel_size


def test_source_inside_grid_rejected():
    grid = ImageGrid(4, 4, 100.0)
    geom = build_geometry("desk-sparse", n_views=1, n_bins=2)
    with pytest.raises(ValueError, match="source"):
        next(_siddon_views(grid, geom))
    with pytest.raises(ValueError, match="source"):
        projector(grid, geom)


@pytest.mark.parametrize(
    "nx, preset", [(4, "desk-sparse"), (64, "desk-sparse"), (64, "desk-oversampled")]
)
def test_system_matrix_holds_only_fov_columns(nx, preset):
    grid = ImageGrid(nx, nx, 18.0)
    geom = build_geometry(preset)
    active = fov_active(grid)
    mat, mat_t = _system_matrices(grid, geom)
    # the stored X has no entry in a column outside the FOV, and X^T is
    # an explicit CSR equal to X.T
    assert mat.nnz > 0 and np.all(active[mat.indices])
    assert mat_t.format == "csr"
    assert (mat_t != mat.T).nnz == 0
    # forward and adjoint equal the full-grid traversal matrix X_grid
    # with the 0/1 FOV mask M applied, X_grid (M x) and M (X_grid^T y),
    # bit for bit
    rows, cols, vals = siddon_coo(grid, geom)
    x_grid = sp.csr_matrix((vals, (rows, cols)), shape=(geom.n_rays, grid.n))
    mask = active.astype(float)
    x_map = projector(grid, geom)
    rng = np.random.default_rng(nx)
    for _ in range(3):
        x = rng.standard_normal(grid.n)
        y = rng.standard_normal(geom.n_rays)
        assert np.array_equal(x_map(x), x_grid @ (mask * x))
        assert np.array_equal(x_map.adjoint(y), mask * (x_grid.T @ y))


STREAMED_BUILDS = [(nx, preset, {}) for nx in (4, 16, 64)
                   for preset in ("desk-sparse", "desk-oversampled", "desk-limited")]
# the segment oracle's generic start angle
STREAMED_BUILDS += [(nx, "desk-sparse", dict(n_views=3, n_bins=4, start_angle=0.123))
                    for nx in (4, 16)]


@pytest.mark.parametrize("nx, preset, fields", STREAMED_BUILDS)
def test_streamed_build_equals_scipy_conversion(nx, preset, fields):
    # the reference is scipy's COO -> CSR conversion of the concatenated
    # unmasked traversal with the non-FOV columns dropped
    grid = ImageGrid(nx, nx, 18.0)
    geom = build_geometry(preset, **fields)
    rows, cols, vals = siddon_coo(grid, geom)
    keep = fov_active(grid)[cols]
    ref = sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(geom.n_rays, grid.n)
    )
    mat, mat_t = _system_matrices(grid, geom)
    for got, want in ((mat, ref), (mat_t, ref.T.tocsr())):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("nx, preset, fields", STREAMED_BUILDS)
def test_streamed_build_is_canonical_int32(nx, preset, fields):
    grid = ImageGrid(nx, nx, 18.0)
    geom = build_geometry(preset, **fields)
    # no ray meets a pixel in two segments
    rows, cols, _ = siddon_coo(grid, geom)
    pairs = rows * grid.n + cols
    assert np.unique(pairs).size == pairs.size
    mat, _ = _system_matrices(grid, geom)
    assert mat.indices.dtype == np.int32
    # strictly increasing columns within every row, checked from the
    # arrays rather than from scipy's format flag
    row_of = np.repeat(np.arange(geom.n_rays), np.diff(mat.indptr))
    same_row = row_of[1:] == row_of[:-1]
    assert np.all(np.diff(mat.indices)[same_row] > 0)
    assert mat.indptr[0] == 0 and mat.indptr[-1] == mat.nnz == mat.indices.size


def test_streamed_build_peak_memory_near_stored_pair():
    grid = ImageGrid(64, 64, 18.0)
    geom = build_geometry("desk-oversampled")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mat, mat_t = _system_matrices.__wrapped__(grid, geom)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stored = sum(a.nbytes for m in (mat, mat_t) for a in (m.data, m.indices, m.indptr))
    assert peak <= 1.3 * stored


# -- split CSR products ------------------------------------------------------

# Longest a test waits on the helper; a deadlock fails the test instead
# of hanging it.
WAIT_S = 10.0


def bounded(fn, *args):
    """fn(*args) on a daemon thread, waited on for at most WAIT_S; returns
    its result or raises its exception."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(WAIT_S)
    assert not thread.is_alive(), "product did not finish: helper handoff stuck"
    if "error" in out:
        raise out["error"]
    return out["value"]


class Half:
    """Stands in for a CSR row half: `half @ x` calls fn(x)."""

    def __init__(self, fn):
        self.fn = fn

    def __matmul__(self, x):
        return self.fn(x)


@pytest.fixture(scope="module")
def oversampled_pair():
    return _system_matrices(ImageGrid(64, 64, 18.0), build_geometry("desk-oversampled"))


@pytest.fixture
def fresh_helper(monkeypatch):
    """A helper of this test's own, installed as the process's helper."""
    helper = ct._Helper()
    monkeypatch.setattr(ct, "_HELPER", helper)
    return helper


def test_split_product_is_bit_equal_for_desk_oversampled(oversampled_pair, fresh_helper, rng):
    for mat in oversampled_pair:
        assert mat.nnz >= ct.SPLIT_NNZ
        top, bottom = ct._split_rows(mat)
        # views of the stored arrays, cut at the row of the middle entry
        for half in (top, bottom):
            assert np.shares_memory(half.data, mat.data)
            assert np.shares_memory(half.indices, mat.indices)
        assert np.shares_memory(top.indptr, mat.indptr)
        assert top.indptr[-1] <= mat.nnz // 2 < top.indptr[-1] + bottom.indptr[1]
        assert top.shape[0] + bottom.shape[0] == mat.shape[0]
        for _ in range(3):
            x = rng.standard_normal(mat.shape[1])
            assert np.array_equal(bounded(fresh_helper.product, mat, top, bottom, x), mat @ x)
    x_map = projector(ImageGrid(64, 64, 18.0), build_geometry("desk-oversampled"))
    mat, mat_t = oversampled_pair
    x, y = rng.standard_normal(x_map.domain_dim), rng.standard_normal(x_map.range_dim)
    assert np.array_equal(bounded(x_map, x), mat @ x)
    assert np.array_equal(bounded(x_map.adjoint, y), mat_t @ y)
    assert fresh_helper._thread is not None


def test_split_rows_keeps_views_for_unequal_halves():
    # scipy's constructor would copy a view under half its base's size
    mat, _ = _system_matrices(ImageGrid(64, 64, 18.0), build_geometry("desk-limited"))
    top, bottom = ct._split_rows(mat)
    assert top.nnz != bottom.nnz
    for half in (top, bottom):
        assert np.shares_memory(half.data, mat.data)
        assert np.shares_memory(half.indices, mat.indices)
    x = np.arange(mat.shape[1], dtype=float)
    assert np.array_equal(np.concatenate((top @ x, bottom @ x)), mat @ x)


def test_helper_exception_reaches_caller(oversampled_pair, fresh_helper, rng):
    mat = oversampled_pair[0]
    top, bottom = ct._split_rows(mat)
    started = threading.Event()
    ran_on = []

    def failing(x):
        ran_on.append(threading.current_thread().name)
        started.set()
        raise FloatingPointError("helper half failed")

    def caller_half(x):
        # the helper has picked its half up before this one ends
        assert started.wait(WAIT_S)
        return top @ x

    x = rng.standard_normal(mat.shape[1])
    with pytest.raises(FloatingPointError, match="helper half failed"):
        bounded(fresh_helper.product, mat, Half(caller_half), Half(failing), x)
    assert ran_on == ["pdtomo-csr-half"]
    # the helper serves the next product, correctly
    assert np.array_equal(bounded(fresh_helper.product, mat, top, bottom, x), mat @ x)


def test_caller_failure_waits_for_the_helper_half(oversampled_pair, fresh_helper, rng):
    mat = oversampled_pair[0]
    top, bottom = ct._split_rows(mat)
    started, release = threading.Event(), threading.Event()
    events = []

    def slow(x):
        started.set()
        release.wait(WAIT_S)
        events.append("helper half ended")
        return np.full(bottom.shape[0], np.nan)

    def interrupted(x):
        assert started.wait(WAIT_S)
        raise KeyboardInterrupt

    def call():
        try:
            fresh_helper.product(mat, Half(interrupted), Half(slow), x)
        except KeyboardInterrupt:
            events.append("caller raised")

    x = rng.standard_normal(mat.shape[1])
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    assert started.wait(WAIT_S)
    caller.join(0.2)
    assert caller.is_alive(), "the caller returned before the helper's half ended"
    release.set()
    caller.join(WAIT_S)
    assert not caller.is_alive()
    assert events == ["helper half ended", "caller raised"]
    # no later product reads the abandoned half (all NaN)
    for _ in range(3):
        x = rng.standard_normal(mat.shape[1])
        assert np.array_equal(bounded(fresh_helper.product, mat, top, bottom, x), mat @ x)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_interrupted_wait_still_waits_for_the_helper_half(oversampled_pair, fresh_helper, rng):
    # a signal can interrupt a lock wait only on the main thread, so the
    # caller is this test; the helper's half ends within WAIT_S either way
    mat = oversampled_pair[0]
    top, bottom = ct._split_rows(mat)
    started, release = threading.Event(), threading.Event()
    events = []

    def slow(x):
        started.set()
        release.wait(WAIT_S)
        events.append("helper half ended")
        return np.full(bottom.shape[0], np.nan)

    def caller_half(x):
        assert started.wait(WAIT_S)
        return top @ x

    def on_alarm(signum, frame):
        # interrupts the wait for the helper, which is released later
        threading.Timer(0.2, release.set).start()
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    try:
        with pytest.raises(KeyboardInterrupt):
            fresh_helper.product(mat, Half(caller_half), Half(slow), rng.standard_normal(mat.shape[1]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        release.set()
    assert events == ["helper half ended"]
    x = rng.standard_normal(mat.shape[1])
    assert np.array_equal(bounded(fresh_helper.product, mat, top, bottom, x), mat @ x)


def test_busy_helper_gives_a_one_piece_product(oversampled_pair, fresh_helper, rng):
    mat = oversampled_pair[0]
    top, bottom = ct._split_rows(mat)
    started, release = threading.Event(), threading.Event()

    def slow(x):
        started.set()
        release.wait(WAIT_S)
        return bottom @ x

    def caller_half(x):
        assert started.wait(WAIT_S)
        # a second product meets the helper busy and runs in one piece
        inner = rng.standard_normal(mat.shape[1])
        assert np.array_equal(fresh_helper.product(mat, None, None, inner), mat @ inner)
        release.set()
        return top @ x

    x = rng.standard_normal(mat.shape[1])
    assert np.array_equal(
        bounded(fresh_helper.product, mat, Half(caller_half), Half(slow), x), mat @ x
    )


def test_concurrent_callers_share_the_helper_safely(oversampled_pair, fresh_helper):
    halves = {id(mat): ct._split_rows(mat) for mat in oversampled_pair}
    inputs_rng = np.random.default_rng(5)
    inputs = [
        (mat, inputs_rng.standard_normal(mat.shape[1]))
        for mat in oversampled_pair
        for _ in range(4)
    ]
    wrong = []

    def caller(k):
        for i in range(40):
            mat, x = inputs[(k + i) % len(inputs)]
            top, bottom = halves[id(mat)]
            if not np.array_equal(fresh_helper.product(mat, top, bottom, x), mat @ x):
                wrong.append((k, i))

    # more callers than CPUs, switching threads as often as possible
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(6)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(WAIT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in callers)
    assert wrong == []


def test_products_below_the_floor_start_no_thread(fresh_helper, rng):
    grid = ImageGrid(64, 64, 18.0)
    geom = build_geometry("desk-sparse")
    # the README quick-start's operators: X has 64,088 entries, D 16,128
    for mat in (*_system_matrices(grid, geom), *_gradient_matrices(grid.nx)):
        assert mat.nnz < ct.SPLIT_NNZ
    for map_ in (projector(grid, geom), gradient(grid)):
        bounded(map_, rng.standard_normal(map_.domain_dim))
        bounded(map_.adjoint, rng.standard_normal(map_.range_dim))
    assert fresh_helper._thread is None


def test_one_allowed_cpu_gives_one_piece_products(oversampled_pair, fresh_helper, monkeypatch, rng):
    monkeypatch.setattr(ct.os, "sched_getaffinity", lambda pid: {0})
    x_map = projector(ImageGrid(64, 64, 18.0), build_geometry("desk-oversampled"))
    mat, mat_t = oversampled_pair
    x, y = rng.standard_normal(x_map.domain_dim), rng.standard_normal(x_map.range_dim)
    assert np.array_equal(bounded(x_map, x), mat @ x)
    assert np.array_equal(bounded(x_map.adjoint, y), mat_t @ y)
    assert fresh_helper._thread is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_products_stay_bit_equal(oversampled_pair, fresh_helper, rng):
    mat = oversampled_pair[0]
    top, bottom = ct._split_rows(mat)
    x = rng.standard_normal(mat.shape[1])
    bounded(fresh_helper.product, mat, top, bottom, x)
    pid = os.fork()
    if pid == 0:
        # the child inherits the helper object but not its thread
        code = 1
        try:
            same = [
                np.array_equal(fresh_helper.product(mat, top, bottom, x), mat @ x)
                for _ in range(3)
            ]
            code = 0 if all(same) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + WAIT_S
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("a product in the forked child did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_one_helper_thread_serves_every_map(oversampled_pair, fresh_helper, rng):
    grid = ImageGrid(64, 64, 18.0)
    maps = [projector(grid, build_geometry(p)) for p in ("desk-oversampled", "desk-full")]
    for map_ in maps:
        bounded(map_, rng.standard_normal(map_.domain_dim))
        bounded(map_.adjoint, rng.standard_normal(map_.range_dim))
    thread = fresh_helper._thread
    assert thread is not None and thread.daemon and thread.is_alive()
    bounded(maps[0], rng.standard_normal(maps[0].domain_dim))
    assert fresh_helper._thread is thread


def test_gradient_constant_in_null_space():
    grid = ImageGrid(5, 5, 1.0)
    d_map = gradient(grid)
    assert np.array_equal(d_map(np.full(grid.n, 3.7)), np.zeros(2 * grid.n))


def test_gradient_horizontal_ramp():
    grid = ImageGrid(4, 4, 1.0)
    c = 2.5
    f = np.tile(np.arange(4.0) * c, 4)
    out = gradient(grid)(f)
    horiz = out[: grid.n].reshape(4, 4)
    vert = out[grid.n :].reshape(4, 4)
    assert np.array_equal(horiz[:, :3], np.full((4, 3), c))
    assert np.array_equal(horiz[:, 3], np.zeros(4))
    assert np.array_equal(vert, np.zeros((4, 4)))


def test_gradient_adjoint_is_exact_transpose():
    grid = ImageGrid(6, 6, 1.0)
    d_map = gradient(grid)
    dense = materialize_dense(d_map)
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = rng.standard_normal(2 * grid.n)
        assert np.allclose(d_map.adjoint(p), dense.T @ p, atol=1e-13)
    assert adjoint_dot_test(d_map, trials=100) <= 1e-12


@pytest.mark.parametrize("nx", [2, 3, 16, 64])
def test_gradient_matches_slice_differences(nx):
    grid = ImageGrid(nx, nx, 1.0)
    d_map = gradient(grid)
    mat, mat_t = _gradient_matrices(nx)
    # stored entries are the nonzeros, in canonical CSR order
    for m in (mat, mat_t):
        assert m.format == "csr" and m.has_canonical_format and np.all(m.data != 0)
    rng = np.random.default_rng(nx)
    for _ in range(3):
        f = rng.standard_normal(grid.n)
        p = rng.standard_normal(2 * grid.n)
        assert np.array_equal(d_map(f), gradient_by_slices(f, nx))
        # same terms, summed in CSR column order: at most a few roundings apart
        assert np.allclose(
            d_map.adjoint(p), gradient_adjoint_by_slices(p, nx), rtol=0, atol=1e-14
        )
    # the stored adjoint is the forward's transpose, entry for entry
    assert (mat_t != mat.T).nnz == 0
    # and the map applies it: checked densely where D fits under the cap
    if 2 * grid.n * grid.n <= DENSE_CAP:
        d_t = LinearMap(2 * grid.n, grid.n, d_map.adjoint, d_map, label="D^T")
        assert np.array_equal(materialize_dense(d_t), materialize_dense(d_map).T)


def test_gradient_calls_share_one_cached_pair():
    first = gradient(ImageGrid(11, 11, 1.0))
    before = _gradient_matrices.cache_info()
    # D does not depend on the side length
    second = gradient(ImageGrid(11, 11, 7.0))
    after = _gradient_matrices.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    f = np.arange(121.0) ** 2
    assert np.array_equal(first(f), second(f))


def test_gradient_norm_bounded_by_sqrt8():
    from pdtomo.spectral import spectral_norm

    norms = []
    for n in (4, 8, 16, 32):
        d_map = gradient(ImageGrid(n, n, 1.0))
        norms.append(spectral_norm(d_map, seed=0))
    assert all(v <= np.sqrt(8.0) + 1e-9 for v in norms)
    assert norms == sorted(norms)
    assert norms[-1] > 2.7
    dense = materialize_dense(gradient(ImageGrid(8, 8, 1.0)))
    assert np.linalg.norm(dense, 2) == pytest.approx(norms[1], abs=1e-6)


@pytest.mark.parametrize("nx", [2, 3, 8, 16])
def test_gradient_norm_closed_form_matches_dense_svd(nx):
    grid = ImageGrid(nx, nx, 1.0)
    want = np.linalg.norm(materialize_dense(gradient(grid)), 2)
    assert abs(gradient_norm(grid) - want) <= 1e-14


def test_gaussian_kernel_support():
    assert np.array_equal(gaussian_kernel(0.2), [1.0])
    k4 = gaussian_kernel(4.0)
    assert k4.size == 33
    assert k4.sum() == pytest.approx(1.0)
    assert np.argmax(k4) == 16


def test_smoothing_tiny_width_is_identity():
    grid = ImageGrid(8, 8, 1.0)
    s = gaussian_smooth(grid, 0.2)
    x = np.random.default_rng(2).standard_normal(grid.n)
    assert np.array_equal(s(x), x)


def test_smoothing_delta_reproduces_kernel():
    grid = ImageGrid(16, 16, 1.0)
    width = 1.5
    s = gaussian_smooth(grid, width)
    delta = np.zeros(grid.n)
    center = 8 * 16 + 8
    delta[center] = 1.0
    img = s(delta).reshape(16, 16)
    k = gaussian_kernel(width)
    assert np.argmax(img) == center
    assert img[8, 8] == pytest.approx(k[k.size // 2] ** 2)
    assert img[8, 9] == pytest.approx(k[k.size // 2] * k[k.size // 2 + 1])


def test_smoothing_symmetric_and_sum_preserving():
    grid = ImageGrid(12, 12, 1.0)
    s = gaussian_smooth(grid, 1.0)
    dense = materialize_dense(s)
    assert np.allclose(dense, dense.T, atol=1e-14)
    assert adjoint_dot_test(s, trials=50) <= 1e-10
    smoothed = s(np.ones(grid.n)).reshape(12, 12)
    assert np.allclose(smoothed[5:7, 5:7], 1.0, atol=1e-6)
