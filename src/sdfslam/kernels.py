"""Sampling and traversal kernels over SDF grids, in NumPy.

Grid arrays are row-major float32 with shape (height, width), indexed
[row, col]. Cell (0, 0) is centered at (ox, oy) and cell (col, row) at
(ox + col * res, oy + row * res). A point is *interior* when its continuous
cell coordinates lie in [0, width-1] x [0, height-1].
"""

from __future__ import annotations

import numpy as np

# Printed by the benchmark beside every result; nothing in the package reads it.
BACKEND = "python"


def _gather_nodes(arr, i0, j0):
    a00 = arr[j0, i0]
    a10 = arr[j0, i0 + 1]
    a01 = arr[j0 + 1, i0]
    a11 = arr[j0 + 1, i0 + 1]
    return a00, a10, a01, a11


# No caller in the package: the benchmark traces it and the tests check it.
def bilinear_wf(F, W, ox, oy, res, trunc, wmax, pts):
    """Sample the weighted-distance field W*F with its analytic gradient.

    Each unknown node (W == 0) is replaced by the constant ``wmax * trunc``
    before the bilinear blend. A point whose four nodes are all unknown, or
    that lies outside the interior, gets that constant with zero gradient; a
    point with only some unknown nodes gets a slope toward them.

    Returns (values, grad_x, grad_y) float64 arrays, one entry per point.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    h, w = F.shape
    sat = wmax * trunc

    u = (pts[:, 0] - ox) / res
    v = (pts[:, 1] - oy) / res
    inside = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)

    n = len(pts)
    val = np.full(n, sat, dtype=np.float64)
    gx = np.zeros(n, dtype=np.float64)
    gy = np.zeros(n, dtype=np.float64)
    if not inside.any():
        return val, gx, gy

    ui, vi = u[inside], v[inside]
    i0 = np.minimum(np.floor(ui).astype(np.int64), w - 2)
    j0 = np.minimum(np.floor(vi).astype(np.int64), h - 2)
    tu = ui - i0
    tv = vi - j0

    f00, f10, f01, f11 = _gather_nodes(F, i0, j0)
    w00, w10, w01, w11 = _gather_nodes(W, i0, j0)

    def node(fv, wv):
        wv = wv.astype(np.float64)
        fv = fv.astype(np.float64)
        return np.where(wv > 0.0, wv * fv, sat)

    m00, m10, m01, m11 = node(f00, w00), node(f10, w10), node(f01, w01), node(f11, w11)

    val[inside] = (1.0 - tv) * ((1.0 - tu) * m00 + tu * m10) + tv * (
        (1.0 - tu) * m01 + tu * m11
    )
    gx[inside] = ((1.0 - tv) * (m10 - m00) + tv * (m11 - m01)) / res
    gy[inside] = ((1.0 - tu) * (m01 - m00) + tu * (m11 - m10)) / res
    return val, gx, gy


def bilinear_fw(F, W, ox, oy, res, trunc, pts):
    """Sample the plain distance field F and the weight field W bilinearly.

    Unknown cells store F = +trunc by convention, so no node substitution is
    needed. Points outside the interior, non-finite ones too, return (trunc, 0).

    Returns (f_values, w_values) float64 arrays.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    h, w = F.shape

    u = (pts[:, 0] - ox) / res
    v = (pts[:, 1] - oy) / res
    inside = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    # fmin and fmax send NaN to the bound, so every index lies in the grid.
    i0 = np.fmin(np.fmax(u, 0.0), w - 2.0).astype(np.int64)
    j0 = np.fmin(np.fmax(v, 0.0), h - 2.0).astype(np.int64)

    def lerp(arr):
        a00, a10, a01, a11 = (x.astype(np.float64) for x in _gather_nodes(arr, i0, j0))
        return (1.0 - tv) * ((1.0 - tu) * a00 + tu * a10) + tv * (
            (1.0 - tu) * a01 + tu * a11
        )

    # A point outside the interior may give NaN or inf before the mask.
    with np.errstate(invalid="ignore", over="ignore"):
        tu = u - i0
        tv = v - j0
        return np.where(inside, lerp(F), trunc), np.where(inside, lerp(W), 0.0)


# No caller in the package: the benchmark traces it and the tests use it as
# the reference for mapping.traverse_beams.
def traverse_free(ox, oy, res, width, height, x0, y0, ux, uy, extent):
    """Cells carved as free along one beam.

    Walks the segment from (x0, y0) for ``extent`` meters along the unit
    direction (ux, uy), visiting every cell the segment crosses, and keeps
    the in-bounds cells whose center projects onto the beam within
    [0, extent]. Returns (cols, rows) int64 arrays.
    """
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if extent <= 0.0:
        return empty

    # Parametric distances at which the segment crosses cell boundaries.
    x1 = x0 + ux * extent
    y1 = y0 + uy * extent
    ts = [np.array([0.0, extent])]
    if ux != 0.0:
        c0 = (x0 - ox) / res
        c1 = (x1 - ox) / res
        lo, hi = (c0, c1) if c0 < c1 else (c1, c0)
        ks = np.arange(np.floor(lo + 0.5), np.ceil(hi - 0.5) + 1.0)
        bx = ox + (ks - 0.5) * res
        ts.append((bx - x0) / ux)
    if uy != 0.0:
        c0 = (y0 - oy) / res
        c1 = (y1 - oy) / res
        lo, hi = (c0, c1) if c0 < c1 else (c1, c0)
        ks = np.arange(np.floor(lo + 0.5), np.ceil(hi - 0.5) + 1.0)
        by = oy + (ks - 0.5) * res
        ts.append((by - y0) / uy)

    t = np.concatenate(ts)
    t = t[(t >= 0.0) & (t <= extent)]
    t.sort(kind="stable")
    tm = 0.5 * (t[:-1] + t[1:])

    cols = np.floor((x0 + ux * tm - ox) / res + 0.5).astype(np.int64)
    rows = np.floor((y0 + uy * tm - oy) / res + 0.5).astype(np.int64)
    if len(cols) > 1:
        keep = np.ones(len(cols), dtype=bool)
        keep[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
        cols, rows = cols[keep], rows[keep]

    inb = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    cols, rows = cols[inb], rows[inb]

    proj = (ox + cols * res - x0) * ux + (oy + rows * res - y0) * uy
    keep = (proj >= 0.0) & (proj <= extent)
    return cols[keep], rows[keep]


def _catmull_rom_weights(t):
    t2 = t * t
    t3 = t2 * t
    w0 = 0.5 * (-t3 + 2.0 * t2 - t)
    w1 = 0.5 * (3.0 * t3 - 5.0 * t2 + 2.0)
    w2 = 0.5 * (-3.0 * t3 + 4.0 * t2 + t)
    w3 = 0.5 * (t3 - t2)
    return w0, w1, w2, w3


def bicubic_fw(F, W, ox, oy, res, trunc, pts):
    """Resample F and W at points, trusting only known cells.

    A sample is valid when the point is interior and every one of its four
    nearest cells that carries a nonzero bilinear weight is known (W > 0);
    anything else reports invalid. The nearest cell, (floor u, floor v),
    always carries weight, so a valid sample lies in a known cell's unit
    square; ``submaps._cover`` relies on this. This function alone decides
    which taps a valid sample may use:

    - when its whole 4x4 patch (rows and cols index-clamped at the borders)
      is known, F is the Catmull-Rom bicubic value, clamped to +-trunc
      because the cubic can overshoot;
    - otherwise F is :func:`bilinear_fw`'s value, so the +trunc stored in
      unknown cells never bends a surface.

    W is always the bilinear value, so it stays within [0, max(W)].

    Returns (f_values, w_values, valid_mask).
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    h, w = F.shape
    n = len(pts)

    fv = np.full(n, trunc, dtype=np.float64)
    wv = np.zeros(n, dtype=np.float64)
    valid = np.zeros(n, dtype=bool)

    u = (pts[:, 0] - ox) / res
    v = (pts[:, 1] - oy) / res
    inside = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    if not inside.any():
        return fv, wv, valid

    # Taps by flat index into the edge-padded grids: padded [j + 1, i + 1]
    # holds cell [j, i] with both indices clamped to the grid, so tap
    # (di, dj) of the patch around cell (i1, j1) is at base + dj*stride + di.
    stride = w + 3
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
        fv[part], _ = bilinear_fw(F, W, ox, oy, res, trunc, pts[part])
        idx, base, tu, tv = idx[full], base[full], tu[full], tv[full]

    wx = _catmull_rom_weights(tu)
    wy = _catmull_rom_weights(tv)
    acc = np.zeros(len(idx), dtype=np.float64)
    for dj in range(4):
        row = np.zeros(len(idx), dtype=np.float64)
        for di in range(4):
            row += wx[di] * Fp[base + (dj * stride + di)].astype(np.float64)
        acc += wy[dj] * row
    fv[idx] = np.minimum(np.maximum(acc, -trunc), trunc)
    return fv, wv, valid
