"""The plain bilinear samplers against their compact-and-scatter forms.

``matching._sample`` and ``kernels.bilinear_fw`` evaluate every point and
mask once. The references below select the supported points first, sample
only those and scatter the results into outputs preset to the unsupported
value. Both forms must give the same bytes, with no warning, for points on
and between the nodes, on the last row and column, off the grid and
non-finite.
"""

import warnings

import numpy as np
import pytest

from sdfslam import kernels, matching
from sdfslam.geometry import GridGeometry
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
                got = matching._sample(grid, pts)
            assert_same_bytes(got, reference_sample(grid, pts), name)

    def test_bilinear_fw(self, geom):
        rng = np.random.default_rng(92)
        grid = random_grid(rng, geom)
        args = (grid.F, grid.W, geom.origin_x, geom.origin_y, geom.resolution, TRUNC)
        for name, pts in point_sets(rng, geom).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kernels.bilinear_fw(*args, pts)
            assert_same_bytes(got, reference_bilinear_fw(*args, pts), name)
