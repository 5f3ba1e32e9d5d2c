"""The samplers against reference forms that must give the same bytes.

``matching._sample`` and ``kernels.bilinear_fw`` evaluate every point and
mask once; ``_sample`` at ``IDENTITY`` must give its reference's bytes, and
at other poses agree with sampling the transformed points to rounding. Their references select the supported points first, sample
only those and scatter the results into outputs preset to the unsupported
value. ``kernels.bicubic_fw`` reads each sample's support from masks over
the grid that it builds once per call; its reference gathers the nearest
nodes and the 4x4 patch of every sample from the known mask, takes the
bilinear reference's F where the patch is not all known, and the merge is
checked against a fold over that reference. Each pair must give the same
bytes, with no warning, for points on and between the nodes, on the last
row and column, off the grid and non-finite.
"""

import math
import warnings

import numpy as np
import pytest

from sdfslam import kernels, matching, submaps
from sdfslam.geometry import IDENTITY, GridGeometry, Pose2, inverse, transform_points
from sdfslam.mapping import SdfGrid

TRUNC = 0.06
WMAX = 10.0


def reference_sample(grid, world):
    geom = grid.geometry
    h, w = grid.F.shape
    n = len(world)

    u = (world[:, 0] - geom.origin_x) / geom.resolution
    v = (world[:, 1] - geom.origin_y) / geom.resolution
    idx = np.flatnonzero((u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0))
    u, v = u[idx], v[idx]
    i0 = np.minimum(u.astype(np.int64), w - 2)
    j0 = np.minimum(v.astype(np.int64), h - 2)
    nodes = (j0 * w + i0) + np.array([[0], [1], [w], [w + 1]])
    wn = grid.W.ravel().take(nodes)
    full = np.all(wn > 0.0, axis=0)
    if not full.all():
        idx, u, v, i0, j0 = idx[full], u[full], v[full], i0[full], j0[full]
        nodes, wn = nodes[:, full], wn[:, full]
    tu = u - i0
    tv = v - j0
    su = 1.0 - tu
    sv = 1.0 - tv
    f00, f10, f01, f11 = grid.F.ravel().take(nodes).astype(np.float64)
    w00, w10, w01, w11 = wn

    out = np.zeros((4, n))
    out[0, idx] = sv * (su * f00 + tu * f10) + tv * (su * f01 + tu * f11)
    out[1, idx] = (sv * (f10 - f00) + tv * (f11 - f01)) / geom.resolution
    out[2, idx] = (su * (f01 - f00) + tu * (f11 - f10)) / geom.resolution
    out[3, idx] = (sv * (su * w00 + tu * w10) + tv * (su * w01 + tu * w11)) / grid.w_max
    known = np.zeros(n, dtype=bool)
    known[idx] = True
    return out[0], out[1], out[2], out[3], known


def reference_bilinear_fw(F, W, ox, oy, res, trunc, pts):
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    h, w = F.shape

    u = (pts[:, 0] - ox) / res
    v = (pts[:, 1] - oy) / res
    inside = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)

    n = len(pts)
    fv = np.full(n, trunc, dtype=np.float64)
    wv = np.zeros(n, dtype=np.float64)
    if not inside.any():
        return fv, wv

    ui, vi = u[inside], v[inside]
    i0 = np.minimum(np.floor(ui).astype(np.int64), w - 2)
    j0 = np.minimum(np.floor(vi).astype(np.int64), h - 2)
    tu = ui - i0
    tv = vi - j0

    def lerp(arr):
        a00, a10, a01, a11 = (
            arr[j0, i0].astype(np.float64), arr[j0, i0 + 1].astype(np.float64),
            arr[j0 + 1, i0].astype(np.float64), arr[j0 + 1, i0 + 1].astype(np.float64))
        return (1.0 - tv) * ((1.0 - tu) * a00 + tu * a10) + tv * (
            (1.0 - tu) * a01 + tu * a11
        )

    fv[inside] = lerp(F)
    wv[inside] = lerp(W)
    return fv, wv


def reference_bicubic_fw(F, W, ox, oy, res, trunc, pts):
    """``kernels.bicubic_fw``'s (f, w, valid), and the mask of the valid
    samples whose 4x4 patch is not all known."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    u, v, inside = kernels._cell_coords(pts, ox, oy, res, F.shape)
    n = len(pts)

    fv = np.full(n, trunc, dtype=np.float64)
    wv = np.zeros(n, dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    partial = np.zeros(n, dtype=bool)
    if not inside.any():
        return fv, wv, valid, partial

    # Taps by flat index into the edge-padded grids: padded [j + 1, i + 1]
    # holds cell [j, i] with both indices clamped to the grid, so tap
    # (di, dj) of the patch around cell (i1, j1) is at base + dj*stride + di.
    stride = F.shape[1] + 3
    Fp = np.pad(F, ((1, 2), (1, 2)), mode="edge").ravel()
    Wp = np.pad(W, ((1, 2), (1, 2)), mode="edge").ravel()
    kp = Wp > 0.0

    idx = np.flatnonzero(inside)
    i1 = np.floor(u[idx]).astype(np.int64)
    j1 = np.floor(v[idx]).astype(np.int64)
    tu = u[idx] - i1
    tv = v[idx] - j1
    base = j1 * stride + i1
    a = base + stride + 1  # the nearest node, cell (i1, j1)
    # A nearest node must be known only where its bilinear weight is
    # nonzero, so a sample on a known node's row or column stays valid.
    right, up = tu > 0.0, tv > 0.0
    known = (kp[a] & (kp[a + 1] | ~right) & (kp[a + stride] | ~up)
             & (kp[a + stride + 1] | ~(right & up)))
    idx, tu, tv, base, a = idx[known], tu[known], tv[known], base[known], a[known]

    wa = Wp[a].astype(np.float64)
    wb = Wp[a + 1].astype(np.float64)
    wc = Wp[a + stride].astype(np.float64)
    wd = Wp[a + stride + 1].astype(np.float64)
    wv[idx] = (1.0 - tv) * ((1.0 - tu) * wa + tu * wb) + tv * (
        (1.0 - tu) * wc + tu * wd
    )
    valid[idx] = True

    patch = (np.arange(4)[:, None] * stride + np.arange(4)).ravel()
    full = kp[base[:, None] + patch].all(axis=1)
    if not full.all():
        part = idx[~full]
        fv[part], _ = reference_bilinear_fw(F, W, ox, oy, res, trunc, pts[part])
        partial[part] = True
        idx, base, tu, tv = idx[full], base[full], tu[full], tv[full]

    wx = kernels._catmull_rom_weights(tu)
    wy = kernels._catmull_rom_weights(tv)
    acc = np.zeros(len(idx), dtype=np.float64)
    for dj in range(4):
        row = np.zeros(len(idx), dtype=np.float64)
        for di in range(4):
            row += wx[di] * Fp[base + (dj * stride + di)].astype(np.float64)
        acc += wy[dj] * row
    fv[idx] = np.minimum(np.maximum(acc, -trunc), trunc)
    return fv, wv, valid, partial


def random_grid(rng, geom, unknown_frac=0.3):
    shape = (geom.height, geom.width)
    F = rng.uniform(-TRUNC, TRUNC, shape).astype(np.float32)
    W = rng.uniform(0.1, WMAX, shape).astype(np.float32)
    holes = rng.random(shape) < unknown_frac
    F[holes] = TRUNC
    W[holes] = 0.0
    return SdfGrid(geom, TRUNC, WMAX, F, W)


def point_sets(rng, geom):
    """Named (n, 2) world point sets over ``geom``."""
    w, h, res = geom.width, geom.height, geom.resolution
    ox, oy = geom.origin_x, geom.origin_y

    def world(u, v):
        return np.column_stack((ox + np.asarray(u) * res, oy + np.asarray(v) * res))

    cols, rows = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)
    bad = [np.nan, np.inf, -np.inf, 1e300, -1e300]
    return {
        "random": world(rng.uniform(-2, w + 1, 300), rng.uniform(-2, h + 1, 300)),
        "on_columns": world(cols, rng.uniform(0, h - 1, w)),
        "on_rows": world(rng.uniform(0, w - 1, h), rows),
        "on_nodes": world(*(a.ravel() for a in np.meshgrid(cols[::3], rows[::3]))),
        "last_row_and_column": np.concatenate([
            world(np.full(h, w - 1.0), rows), world(cols, np.full(w, h - 1.0)),
            world([w - 1.0, w - 1.5, w - 2.0], [h - 1.0, h - 1.5, h - 2.0])]),
        "off_grid": np.concatenate([
            world([-1e-9, w - 1 + 1e-9, -3.0, w + 5.0], [1.0, 1.0, 1.0, 1.0]),
            world([1.0, 1.0, 1.0, 1.0], [-1e-9, h - 1 + 1e-9, -3.0, h + 5.0])]),
        "non_finite_and_huge": np.array(
            [(x, y) for x in bad for y in bad] + [(x, 0.5) for x in bad]
            + [(0.5, y) for y in bad] + [(1e300, 1e300), (-1e300, 1e300)]),
        "empty": np.empty((0, 2)),
    }


# A dyadic resolution puts lattice points exactly on the nodes; 0.05 is the
# package's default.
GEOMETRIES = [GridGeometry(-1.5, 0.75, 0.25, 17, 13), GridGeometry(-0.3, 0.2, 0.05, 40, 31)]


def assert_same_bytes(got, want, name):
    assert len(got) == len(want), name
    for g, e in zip(got, want):
        assert g.dtype == e.dtype and g.shape == e.shape, name
        assert g.tobytes() == e.tobytes(), name


@pytest.mark.parametrize("geom", GEOMETRIES, ids=["res0.25", "res0.05"])
class TestSamplersMatchReference:
    def test_sample(self, geom):
        rng = np.random.default_rng(91)
        grid = random_grid(rng, geom)
        for name, pts in point_sets(rng, geom).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = matching._sample(grid, pts, IDENTITY)
            assert_same_bytes(got, reference_sample(grid, pts), name)

    def test_sample_at_a_pose(self, geom):
        # Sampling scan points at a pose computes their cell coordinates in
        # one pass; it agrees, to rounding, with sampling the world points
        # that ``transform_points`` gives. Points placed off the grid get
        # zeros, and non-finite ones also raise no warning at any pose.
        rng = np.random.default_rng(97)
        grid = random_grid(rng, geom)
        sets = point_sets(rng, geom)
        for _ in range(20):
            pose = Pose2(*rng.uniform(-0.5, 0.5, 2), rng.uniform(-math.pi, math.pi))
            pts = transform_points(inverse(pose), sets["random"])
            off = np.concatenate([transform_points(inverse(pose), sets["off_grid"]),
                                  sets["non_finite_and_huge"]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = matching._sample(grid, pts, pose)
                got_off = matching._sample(grid, off, pose)
            want = reference_sample(grid, transform_points(pose, pts))
            assert np.array_equal(got[4], want[4])
            for g, e in zip(got[:4], want[:4]):
                assert np.abs(g - e).max() <= 1e-12
            for values in got_off:
                assert not values.any()

    def test_bilinear_fw(self, geom):
        rng = np.random.default_rng(92)
        grid = random_grid(rng, geom)
        args = (grid.F, grid.W, geom.origin_x, geom.origin_y, geom.resolution, TRUNC)
        for name, pts in point_sets(rng, geom).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kernels.bilinear_fw(*args, pts)
            assert_same_bytes(got, reference_bilinear_fw(*args, pts), name)

    @pytest.mark.parametrize("unknown_frac", [0.0, 0.3, 1.0])
    def test_bicubic_fw(self, geom, unknown_frac):
        rng = np.random.default_rng(93)
        grid = random_grid(rng, geom, unknown_frac)
        args = (grid.F, grid.W, geom.origin_x, geom.origin_y, geom.resolution, TRUNC)
        for name, pts in point_sets(rng, geom).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kernels.bicubic_fw(*args, pts)
            assert_same_bytes(got, reference_bicubic_fw(*args, pts)[:3], name)


def reference_merge(subs):
    """The merge as a fold over ``reference_bicubic_fw`` with a 2-D index fuse,
    and the number of samples it fused whose 4x4 patch is not all known."""
    subs = sorted(subs, key=lambda s: s.id)
    geom = submaps.merged_bounds(subs)
    merged = SdfGrid.unknown(geom, subs[0].grid.truncation, subs[0].grid.w_max)
    partials = 0
    for sm in subs:
        sgeom = sm.grid.geometry
        cols, rows = submaps._cover(sm, geom)
        local = transform_points(inverse(sm.pose), geom.cells_to_world(cols, rows))
        fb, wb, valid, partial = reference_bicubic_fw(
            sm.grid.F, sm.grid.W, sgeom.origin_x, sgeom.origin_y,
            sgeom.resolution, sm.grid.truncation, local)
        partials += np.count_nonzero(partial)
        vc, vr = cols[valid], rows[valid]
        fb, wb = fb[valid], wb[valid]
        fm = merged.F[vr, vc].astype(np.float64)
        wm = merged.W[vr, vc].astype(np.float64)
        fused = np.where(wm == 0.0, fb, (wm * fm + wb * fb) / (wm + wb))
        merged.F[vr, vc] = fused.astype(np.float32)
        merged.W[vr, vc] = np.maximum(wm, wb).astype(np.float32)
    return merged, partials


@pytest.mark.parametrize("seed", [94, 95, 96])
def test_merge_matches_reference(seed):
    # Rotated, overlapping submaps with holes: samples fall in full, partial
    # and unknown patches, and the fuse reads cells that earlier submaps set.
    rng = np.random.default_rng(seed)
    cells, res = 40, 0.05
    half = 0.5 * (cells - 1) * res
    subs = []
    for sid, theta in enumerate((0.3, -1.1, 2.0)):
        geom = GridGeometry(-half, -half, res, cells, cells)
        grid = random_grid(rng, geom, unknown_frac=0.2)
        for _ in range(4):
            r, c = rng.integers(0, cells - 8, 2)
            grid.W[r:r + rng.integers(2, 8), c:c + rng.integers(2, 8)] = 0.0
        grid.F[grid.W == 0.0] = TRUNC
        pose = Pose2(*rng.uniform(-0.4, 0.4, 2), theta)
        subs.append(submaps.Submap(grid=grid, pose=pose, id=sid, scan_count=1,
                                   finished=True))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = submaps.merge_submaps(subs[::-1]).grid

    want, partials = reference_merge(subs)
    assert partials > 100
    assert got.geometry == want.geometry
    assert np.count_nonzero(got.W) > 500
    assert np.array_equal(got.F.view(np.uint32), want.F.view(np.uint32))
    assert np.array_equal(got.W.view(np.uint32), want.W.view(np.uint32))
