"""Sampling and traversal kernels over SDF grids, in NumPy.

Grid arrays are row-major float32 with shape (height, width), indexed
[row, col]. Cell (0, 0) is centered at (ox, oy) and cell (col, row) at
(ox + col * res, oy + row * res). A point is *interior* when its continuous
cell coordinates lie in [0, width-1] x [0, height-1].

:func:`bilinear` is the one bilinear blend, over cell coordinates that it
clamps to the interior: ``matching._sample`` computes the cell coordinates
of the posed scan points in one pass and masks its result.
:func:`bicubic_fw`, the merge, blends the nodes of its own edge-padded
grids instead, for W and for the F of a sample whose 4x4 patch is not all
known. It decides each sample's support from two masks over the grid's
known cells, for its nearest nodes and for its 4x4 patch, that it builds
once per call instead of gathering each sample's stencil.
:func:`bilinear_fw`, :func:`bilinear_wf`, :func:`traverse_free` and
``BACKEND`` have no caller in the package; they stay only while the
benchmark's tracer names them (ROADMAP item D). The tests use
``bilinear_fw`` as the reference for the partial-patch F, and
``traverse_free``, with its own in-grid test, as the reference for
``mapping.traverse_beams``.
"""

from __future__ import annotations

import functools

import numpy as np

# Printed by the benchmark beside every result; nothing in the package reads it.
BACKEND = "python"


def _cell_coords(pts, ox, oy, res, shape):
    """Continuous cell coordinates (u, v) of (n, 2) points, and the interior mask."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    h, w = shape
    u = (pts[:, 0] - ox) / res
    v = (pts[:, 1] - oy) / res
    return u, v, (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)


@functools.lru_cache(maxsize=None)
def _corners(width):
    """Flat offsets of a node's four bilinear corners, one row each; shared
    by every call on a grid of this width, so read-only."""
    offsets = np.array([[0], [1], [width], [width + 1]])
    offsets.flags.writeable = False
    return offsets


def bilinear(F, W, u, v, res):
    """Bilinear F, its gradient and W at cell coordinates (u, v), for the
    caller to mask.

    Returns ``(f, gx, gy, w, inside, wn)``: float64 values, the interior
    mask, and the float32 W of each point's four nodes, one row per corner
    (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1). The coordinates are
    clamped to the interior before any node is read, so a point outside it,
    a non-finite one too, reads the nodes of its clamped point and raises
    no warning; every caller masks it.
    """
    h, w = F.shape
    # fmax and fmin send NaN to a bound. A coordinate is interior exactly
    # when the clamp leaves it where it was.
    uc = np.fmin(np.fmax(u, 0.0), w - 1.0)
    vc = np.fmin(np.fmax(v, 0.0), h - 1.0)
    inside = (uc == u) & (vc == v)
    i0 = np.minimum(uc.astype(np.int64), w - 2)
    j0 = np.minimum(vc.astype(np.int64), h - 2)
    nodes = (j0 * w + i0) + _corners(w)
    f00, f10, f01, f11 = F.ravel().take(nodes).astype(np.float64)
    wn = W.ravel().take(nodes)
    w00, w10, w01, w11 = wn

    tu = uc - i0
    tv = vc - j0
    su = 1.0 - tu
    sv = 1.0 - tv
    f = sv * (su * f00 + tu * f10) + tv * (su * f01 + tu * f11)
    gx = (sv * (f10 - f00) + tv * (f11 - f01)) / res
    gy = (su * (f01 - f00) + tu * (f11 - f10)) / res
    wv = sv * (su * w00 + tu * w10) + tv * (su * w01 + tu * w11)
    return f, gx, gy, wv, inside, wn


def bilinear_fw(F, W, ox, oy, res, trunc, pts):
    """Sample the plain distance field F and the weight field W bilinearly.

    Unknown cells store F = +trunc by convention, so no node substitution is
    needed. Points outside the interior, non-finite ones too, return (trunc, 0).

    Returns (f_values, w_values) float64 arrays.
    """
    u, v, _ = _cell_coords(pts, ox, oy, res, F.shape)
    f, _, _, wv, inside, _ = bilinear(F, W, u, v, res)
    return np.where(inside, f, trunc), np.where(inside, wv, 0.0)


def bilinear_wf(F, W, ox, oy, res, trunc, wmax, pts):
    """Sample the weighted-distance field W*F with its analytic gradient.

    A mask over :func:`bilinear` on the grid W*F, whose unknown nodes
    (W == 0) hold the constant ``wmax * trunc``. A point whose four nodes
    are all unknown, or that is not interior (a non-finite one too), gets
    that constant with zero gradient; one with only some unknown nodes gets
    a slope toward them.

    Returns (values, grad_x, grad_y) float64 arrays, one entry per point.
    """
    sat = wmax * trunc
    M = np.where(W > 0.0, W.astype(np.float64) * F.astype(np.float64), sat)
    u, v, _ = _cell_coords(pts, ox, oy, res, F.shape)
    m, gx, gy, _, inside, _ = bilinear(M, W, u, v, res)
    return np.where(inside, m, sat), np.where(inside, gx, 0.0), np.where(inside, gy, 0.0)


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


def _edge_pad(A):
    """A as float64, padded by one cell before and two after on each axis
    with copies of its edge cells: ``np.pad(A, ((1, 2), (1, 2)), "edge")``,
    which measured several times slower on 200-cell grids."""
    h, w = A.shape
    P = np.empty((h + 3, w + 3))
    P[1:h + 1, 1:w + 1] = A
    P[1:h + 1, 0] = A[:, 0]
    P[1:h + 1, w + 1:] = A[:, w - 1:]
    P[0] = P[1]
    P[h + 1:] = P[h]
    return P


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
    - otherwise F is the bilinear value of its four nearest nodes, as
      :func:`bilinear_fw` gives it, so the +trunc stored in unknown cells
      never bends a surface.

    W is always the bilinear value, so it stays within [0, max(W)].

    Each call builds two masks over the grid's cells once from ``W > 0``
    and each sample gathers one bool from each: the nearest-node mask (one
    plane per case of a sample lying on a node's row, column, both or
    neither) and the 4x4-patch mask. They encode exactly the rules above.

    Returns (f_values, w_values, valid_mask).
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    u, v, inside = _cell_coords(pts, ox, oy, res, F.shape)
    n = len(pts)

    fv = np.full(n, trunc, dtype=np.float64)
    wv = np.zeros(n, dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    if not inside.any():
        return fv, wv, valid

    # Edge-padded float64 grids, so no tap needs a cast: padded [j + 1, i + 1]
    # holds cell [j, i] with both indices clamped to the grid, and tap
    # (di, dj) of the patch around cell (i1, j1) is at flat index
    # base + dj*stride + di.
    h, w = F.shape
    stride = w + 3
    Fp, Wp = _edge_pad(F), _edge_pad(W)
    kp = Wp > 0.0

    # Support masks by cell (j1, i1), built once per call. A nearest node
    # must be known only where its bilinear weight is nonzero, so a sample
    # on a known node's row or column stays valid. ``nodes`` stacks the
    # node known alone, with its right neighbour, with its upper one and
    # with all three; a sample reads plane (tu > 0) + 2 (tv > 0). ``patch``
    # is the known mask eroded by the 4x4 patch: four columns, then four rows.
    k = kp[1:h + 1, 1:w + 1]
    kr = k & kp[1:h + 1, 2:w + 2]
    ku = k & kp[2:h + 2, 1:w + 1]
    nodes = np.stack((k, kr, ku, kr & ku & kp[2:h + 2, 2:w + 2])).ravel()
    wide = kp[:, 0:w] & kp[:, 1:w + 1] & kp[:, 2:w + 2] & kp[:, 3:w + 3]
    patch = (wide[0:h] & wide[1:h + 1] & wide[2:h + 2] & wide[3:h + 3]).ravel()

    idx = np.flatnonzero(inside)
    i1 = np.floor(u[idx]).astype(np.int64)
    j1 = np.floor(v[idx]).astype(np.int64)
    tu = u[idx] - i1
    tv = v[idx] - j1
    cell = j1 * w + i1
    known = nodes[cell + (h * w) * ((tu > 0.0) + 2 * (tv > 0.0))]
    idx, tu, tv, cell = idx[known], tu[known], tv[known], cell[known]

    base = cell + 3 * j1[known]  # padded [j1, i1]
    a = base + stride + 1  # the nearest node, cell (i1, j1)

    def blend(P, node, tu, tv):
        # The bilinear value of padded grid P between flat nodes node,
        # node + 1, node + stride and node + stride + 1.
        P = P.ravel()
        return (1.0 - tv) * ((1.0 - tu) * P.take(node) + tu * P.take(node + 1)) + tv * (
            (1.0 - tu) * P.take(node + stride) + tu * P.take(node + stride + 1)
        )

    wv[idx] = blend(Wp, a, tu, tv)
    valid[idx] = True

    full = patch[cell]
    if not full.all():
        part = ~full
        fv[idx[part]] = blend(Fp, a[part], tu[part], tv[part])
        idx, base, tu, tv = idx[full], base[full], tu[full], tv[full]

    Ff = Fp.ravel()
    wx = _catmull_rom_weights(tu)
    wy = _catmull_rom_weights(tv)
    acc = np.zeros(len(idx), dtype=np.float64)
    for dj in range(4):
        row = np.zeros(len(idx), dtype=np.float64)
        for di in range(4):
            row += wx[di] * Ff.take(base + (dj * stride + di))
        acc += wy[dj] * row
    fv[idx] = np.minimum(np.maximum(acc, -trunc), trunc)
    return fv, wv, valid
