"""Signed-distance-function mapping backend.

:func:`integrate_scan` updates the map with a few NumPy passes over the
whole scan:

1. bucket the in-grid hits by cell, cells in order of first appearance and
   points in beam order;
2. grow each sparse cell's point search ring by ring over one fixed offset
   table, then fit an orthogonal regression line per cell, all fits of one
   point count at once;
3. project the cell centers of one truncation stencil, broadcast over the
   fitted cells, onto the lines and keep those inside each update range;
4. resolve the candidates by priority, averaging exact ties;
5. give each beam the line of its hit cell or of a neighbor;
6. carve free space along all beams in one batched traversal;
7. fuse the surface winners and the remaining carved cells into the grid
   with weighted running means.

``tests/reference_mapping.py`` states the same update one cell or beam at
a time; the passes reproduce that reference bit for bit, and the tests
compare the two. The docstrings below call it "the reference".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import GridGeometry, Pose2, scan_to_points, transform_points

# Beams hitting a surface near-parallel make the 1/cos term of the free-space
# extent blow up; beyond this incidence angle the beam carves nothing.
GAMMA_CLAMP = math.radians(80.0)

DEGENERATE_EPS = 1e-9


@dataclass(frozen=True)
class ExpansionPolicy:
    """How many neighbor rings may be searched when a cell is sparse."""

    max_expansions: int

    def __post_init__(self):
        if self.max_expansions < 0:
            raise ValueError("max_expansions must be >= 0")

    @classmethod
    def for_resolution(cls, resolution: float) -> "ExpansionPolicy":
        """Default expansion budget by map resolution.

        Fine maps (<= 5cm) may expand three times, coarse maps (10-20cm)
        once; the 5-10cm band uses two.
        """
        if resolution <= 0.05:
            return cls(3)
        if resolution < 0.10:
            return cls(2)
        return cls(1)


@dataclass(eq=False)
class SdfGrid:
    """Dense grid of truncated signed distances F with confidence weights W.

    Arrays are float32, shape (height, width), indexed [row, col]. A cell
    with W = 0 was never updated; its F holds +truncation by convention.
    Matching gives no cost to a point that touches an unknown cell.
    """

    geometry: GridGeometry
    truncation: float
    w_max: float
    F: np.ndarray
    W: np.ndarray

    @classmethod
    def unknown(cls, geometry: GridGeometry, truncation: float,
                w_max: float) -> "SdfGrid":
        shape = (geometry.height, geometry.width)
        return cls(
            geometry=geometry,
            truncation=truncation,
            w_max=w_max,
            F=np.full(shape, truncation, dtype=np.float32),
            W=np.zeros(shape, dtype=np.float32),
        )

    def copy(self) -> "SdfGrid":
        return SdfGrid(self.geometry, self.truncation, self.w_max,
                       self.F.copy(), self.W.copy())


@dataclass
class UpdateStats:
    """Counts reported by one frame integration."""

    cells_updated: int = 0
    cells_skipped: int = 0
    cells_carved: int = 0


def chebyshev_ring(d: int) -> list[tuple[int, int]]:
    """Cell offsets at Chebyshev distance exactly ``d`` (8 for d=1, 16 for d=2, ...)."""
    ring = []
    for dj in range(-d, d + 1):
        for di in range(-d, d + 1):
            if max(abs(di), abs(dj)) == d:
                ring.append((di, dj))
    return ring


def integrate_scan(grid: SdfGrid, scan, pose: Pose2,
                   policy: ExpansionPolicy) -> UpdateStats:
    """Fuse one frame into the grid; mutates ``grid`` and returns counts.

    ``pose`` must be expressed in the grid frame. The grid never grows: hit
    points outside it are dropped from the buckets and the line fits. Their
    beams still carve when a fitted cell lies within one ring of the hit
    cell, as every beam does (see :func:`_beam_lines`). Requires exclusive
    access to the grid.

    The result equals the reference bit for bit; each pass below evaluates
    the same expressions, in the same summation order, over whole arrays.
    """
    stats = UpdateStats()
    geom = grid.geometry
    trunc = grid.truncation

    pts_sensor = scan_to_points(scan)
    if len(pts_sensor) == 0:
        return stats
    pts_world = transform_points(pose, pts_sensor)
    cols, rows = geom.world_to_cells(pts_world)
    inb = geom.holds(cols, rows)
    if not inb.any():
        return stats  # no fitted cell, so no beam has a line to carve with

    cells = _bucket_hits(geom, cols, rows, inb)
    fit = _fit_lines(cells, pts_world, (pose.x, pose.y), policy)
    stats.cells_skipped = len(cells.count) - len(fit.cell)
    surf_flat, surf_f = _surface_updates(grid, cells, fit)

    # Free-space carving along every valid beam that has a usable line.
    line = _beam_lines(cells, fit, cols, rows)
    has = np.flatnonzero(line >= 0)
    beam = np.flatnonzero(scan.valid_mask())[has]
    line = line[has]
    a = pose.theta + scan.beam_angles()[beam]
    ux, uy = _libm(math.cos, a), _libm(math.sin, a)
    cosg = -(ux * fit.nx[line] + uy * fit.ny[line])
    gamma = _libm(math.acos, np.clip(cosg, -1.0, 1.0))
    extent = np.maximum(0.0, scan.ranges[beam] - trunc / _libm(math.cos, gamma))
    go = (np.abs(gamma) <= GAMMA_CLAMP) & (extent > 0.0)
    free_cols, free_rows = traverse_beams(geom, pose.x, pose.y, ux[go], uy[go], extent[go])

    # Apply surface winners, then carve the remaining free cells. Surface
    # entries always outrank the free-space sentinel, so cells present in
    # both sets take the surface value only.
    _fuse_batch(grid, surf_flat, surf_f)
    stats.cells_updated = len(surf_flat)

    carve = np.zeros(geom.width * geom.height, dtype=bool)
    carve[free_rows * geom.width + free_cols] = True
    carve[surf_flat] = False
    flat = np.flatnonzero(carve)
    _fuse_batch(grid, flat, np.full(len(flat), trunc, dtype=np.float64))
    stats.cells_carved = len(flat)
    return stats


def _libm(fn, *args) -> np.ndarray:
    """``fn`` from :mod:`math` applied elementwise to float64 arrays.

    NumPy's own ``arctan2`` and ``arccos`` may take SIMD approximations
    (AVX-512 builds do) that differ from the C library in the last bit; the
    reference calls :mod:`math`, so the array passes do too.
    """
    return np.fromiter(map(fn, *(x.tolist() for x in args)), dtype=np.float64,
                       count=len(args[0]))


def _rank_in_run(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])``."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


class _Cells(NamedTuple):
    """Occupied cells of one frame, numbered in order of first appearance.

    ``hits[start[c]:start[c] + count[c]]`` are the indices of cell ``c``'s
    hit points in beam order, as the reference's point search sees its bucket.
    """

    geom: GridGeometry
    keys: np.ndarray  # sorted flat ids (row * width + col)
    ids: np.ndarray  # cell number of each entry of ``keys``
    col: np.ndarray
    row: np.ndarray
    count: np.ndarray
    start: np.ndarray
    hits: np.ndarray

    def find(self, cols, rows) -> np.ndarray:
        """Cell number at each (col, row), or -1 where no hit landed."""
        key = rows * self.geom.width + cols
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        return np.where(self.geom.holds(cols, rows) & (self.keys[pos] == key),
                        self.ids[pos], -1)


def _bucket_hits(geom: GridGeometry, cols, rows, inb) -> _Cells:
    """The cells of the hits marked ``inb``."""
    hit = np.flatnonzero(inb)
    keys, first, inverse = np.unique(rows[hit] * geom.width + cols[hit],
                                     return_index=True, return_inverse=True)
    appear = np.argsort(first)
    ids = np.empty(len(keys), dtype=np.int64)
    ids[appear] = np.arange(len(keys))
    cell_of_hit = ids[inverse]
    count = np.bincount(cell_of_hit, minlength=len(keys))
    return _Cells(
        geom=geom, keys=keys, ids=ids,
        col=keys[appear] % geom.width, row=keys[appear] // geom.width,
        count=count, start=np.cumsum(count) - count,
        hits=hit[np.argsort(cell_of_hit, kind="stable")],
    )


def _frozen(*arrays):
    """The arrays, made read-only: a cached table is shared by every call."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def _search_offsets(max_expansions: int):
    """Offsets that the reference's point search visits, in its order.

    Own cell, then rings 1..max_expansions in :func:`chebyshev_ring` order.
    Returns ``(di, dj, ring_end)``: offsets ``[0, ring_end[d])`` lie within
    Chebyshev distance ``d``.
    """
    rings = [chebyshev_ring(d) for d in range(max_expansions + 1)]
    di, dj = np.array([off for ring in rings for off in ring], dtype=np.int64).T
    return _frozen(di, dj, np.cumsum([len(ring) for ring in rings]))


class _Lines(NamedTuple):
    """One regression line per fitted cell, in cell-number order."""

    cell: np.ndarray  # cell number
    e: np.ndarray  # expansions used
    cx: np.ndarray
    cy: np.ndarray
    nx: np.ndarray
    ny: np.ndarray


def _fit_lines(cells: _Cells, pts_world, origin, policy: ExpansionPolicy) -> _Lines:
    """The reference's point search and line fit for every cell at once."""
    di, dj, ring_end = _search_offsets(policy.max_expansions)
    n = len(cells.count)
    nbr = np.full((n, len(di)), -1, dtype=np.int64)  # cells whose points are used
    nbr[:, 0] = np.arange(n)
    size = cells.count.copy()
    e = np.zeros(n, dtype=np.int64)
    for d in range(1, policy.max_expansions + 1):
        grow = np.flatnonzero(size < 3)
        ring = slice(ring_end[d - 1], ring_end[d])
        found = cells.find(cells.col[grow, None] + di[ring], cells.row[grow, None] + dj[ring])
        nbr[grow, ring] = found
        size[grow] += np.where(found >= 0, cells.count[found], 0).sum(axis=1)
        e[grow] = d
    fitted = np.flatnonzero(size >= 2)

    # Each fitted cell's points in the reference's order: buckets by offset,
    # beam order within a bucket.
    src = nbr[fitted]
    src = src[src >= 0]
    order = cells.hits[np.repeat(cells.start[src], cells.count[src])
                       + _rank_in_run(cells.count[src])]
    px, py = pts_world[order, 0], pts_world[order, 1]
    size = size[fitted]
    seg = np.cumsum(size) - size

    # The reference sums the coordinates left to right (pts.mean(axis=0)) and
    # takes np.dot of the deviations; grouping the fits by point count lets
    # np.add.accumulate and a stacked matmul, which calls the same BLAS dot,
    # repeat that arithmetic exactly.
    cx, cy, sxx, syy, sxy = (np.empty(len(fitted)) for _ in range(5))
    degenerate = np.empty(len(fitted), dtype=bool)
    for k in np.unique(size):
        g = np.flatnonzero(size == k)
        idx = seg[g, None] + np.arange(k)
        x, y = px[idx], py[idx]
        cx[g] = np.add.accumulate(x, axis=1)[:, -1] / k
        cy[g] = np.add.accumulate(y, axis=1)[:, -1] / k
        dx = x - cx[g, None]
        dy = y - cy[g, None]
        degenerate[g] = np.max(dx * dx + dy * dy, axis=1) < DEGENERATE_EPS * DEGENERATE_EPS
        sxx[g] = (dx[:, None, :] @ dx[:, :, None])[:, 0, 0]
        syy[g] = (dy[:, None, :] @ dy[:, :, None])[:, 0, 0]
        sxy[g] = (dx[:, None, :] @ dy[:, :, None])[:, 0, 0]
    angle = 0.5 * _libm(math.atan2, 2.0 * sxy, sxx - syy)
    nx, ny = -_libm(math.sin, angle), _libm(math.cos, angle)
    flip = nx * (origin[0] - cx) + ny * (origin[1] - cy) < 0.0
    nx = np.where(flip, -nx, nx)
    ny = np.where(flip, -ny, ny)
    ok = ~degenerate
    return _Lines(fitted[ok], e[fitted][ok], cx[ok], cy[ok], nx[ok], ny[ok])


@functools.lru_cache(maxsize=16)
def _truncation_stencil(resolution: float, truncation: float):
    """Candidate offsets of the reference's surface updates, in its loop order.

    Returns ``(di, dj, priority)`` for the offsets whose center distance
    lies within the truncation distance.
    """
    reach = int(math.ceil(truncation / resolution))
    limit = truncation * (1.0 + 1e-12)
    stencil = [(di, dj, resolution * math.hypot(di, dj))
               for dj in range(-reach, reach + 1) for di in range(-reach, reach + 1)
               if resolution * math.hypot(di, dj) <= limit]
    di, dj, prio = zip(*stencil)
    return _frozen(np.array(di), np.array(dj), np.array(prio))


def _surface_updates(grid: SdfGrid, cells: _Cells, fit: _Lines):
    """Resolved surface updates: (flat cell ids, f) with one entry per cell.

    Builds every candidate of the reference, cell by cell in stencil order,
    then resolves them as the reference does.
    """
    geom = grid.geometry
    res = geom.resolution
    trunc = grid.truncation
    di, dj, prio = _truncation_stencil(res, trunc)
    col, row = cells.col[fit.cell, None], cells.row[fit.cell, None]
    ccx = geom.origin_x + col * res
    ccy = geom.origin_y + row * res
    half = (1.0 + 0.5 * fit.e[:, None]) * res
    tcol, trow = col + di, row + dj
    tx = geom.origin_x + tcol * res
    ty = geom.origin_y + trow * res
    nx, ny = fit.nx[:, None], fit.ny[:, None]
    sd = nx * (tx - fit.cx[:, None]) + ny * (ty - fit.cy[:, None])
    px = tx - sd * nx
    py = ty - sd * ny
    keep = (geom.holds(tcol, trow) & (ccx - half <= px) & (px <= ccx + half)
            & (ccy - half <= py) & (py <= ccy + half))
    target = (trow * geom.width + tcol)[keep]
    f = np.clip(sd[keep], -trunc, trunc)
    p = np.broadcast_to(prio, keep.shape)[keep]

    # Highest priority (smallest distance) wins; exact ties are averaged.
    # The sum starts at -0.0, the identity of addition, and runs in entry
    # order, so it is the reference's left-to-right sum to the last bit.
    cell, slot = np.unique(target, return_inverse=True)
    best = np.full(len(cell), np.inf)
    np.minimum.at(best, slot, p)
    win = p == best[slot]
    fsum = np.full(len(cell), -0.0)
    np.add.at(fsum, slot[win], f[win])
    return cell, fsum / np.bincount(slot[win], minlength=len(cell))


# Own cell, then the eight neighbors in the reference's order, as (di, dj).
_LINE_OFFSETS = ((0, 1, -1, 0, 0, 1, 1, -1, -1),
                 (0, 0, 0, 1, -1, 1, -1, 1, -1))


def _beam_lines(cells: _Cells, fit: _Lines, cols, rows):
    """Index into ``fit`` of each hit's line, or -1 where there is none.

    A hit takes its own cell's line; a hit whose cell was not fitted takes
    the first fitted neighbor within one ring, direct neighbors before
    diagonals, so its beam still gets an incidence angle for carving.
    """
    line_of_cell = np.full(len(cells.count), -1, dtype=np.int64)
    line_of_cell[fit.cell] = np.arange(len(fit.cell))
    di, dj = np.array(_LINE_OFFSETS)
    found = cells.find(cols[:, None] + di, rows[:, None] + dj)
    line = np.where(found >= 0, line_of_cell[found], -1)
    first = np.argmax(line >= 0, axis=1)  # 0 where no candidate has a line
    return line[np.arange(len(line)), first]


def traverse_beams(geom: GridGeometry, x0: float, y0: float, ux, uy, extent):
    """Cells carved by many beams from one origin, in one pass.

    Beam ``i`` carves exactly the cells of
    ``kernels.traverse_free(..., x0, y0, ux[i], uy[i], extent[i])``: the
    boundary crossings, midpoints and filters below are its expressions
    over all beams at once. Returns (cols, rows) int64 arrays with
    repeats: a cell appears once for every midpoint that lands in it.
    Every extent must be positive.
    """
    ox, oy, res = geom.origin_x, geom.origin_y, geom.resolution
    n = len(extent)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    beams = np.arange(n)
    crossings = []
    for u, p0, o in ((ux, x0, ox), (uy, y0, oy)):
        c0 = (p0 - o) / res
        c1 = (p0 + u * extent - o) / res
        first = np.floor(np.minimum(c0, c1) + 0.5)
        count = np.ceil(np.maximum(c0, c1) - 0.5) + 1.0 - first
        count = np.where(u != 0.0, np.maximum(count, 0.0), 0.0).astype(np.int64)
        b = np.repeat(beams, count)
        j = _rank_in_run(count)
        # Boundaries in travel order, so t ascends within each beam.
        ks = first[b] + np.where(u[b] > 0.0, j, count[b] - 1 - j)
        t = (o + (ks - 0.5) * res - p0) / u[b]
        keep = (t >= 0.0) & (t <= extent[b])
        crossings.append((b[keep], t[keep]))
    (bx, tx), (by, ty) = crossings

    # Merge each beam's two ascending runs between t = 0 and t = extent, as
    # the sort in traverse_free orders them. Complex numbers compare by real
    # part, then imaginary part, so searchsorted on beam + 1j * t counts the
    # y-crossings of the same beam that come before each x-crossing.
    size = np.bincount(bx, minlength=n) + np.bincount(by, minlength=n) + 2
    end = np.cumsum(size)
    at_x = np.arange(len(bx)) + np.searchsorted(by + 1j * ty, bx + 1j * tx) + 2 * bx + 1
    t = np.empty(end[-1])
    at_y = np.ones(len(t), dtype=bool)
    at_y[at_x] = at_y[end - size] = at_y[end - 1] = False
    t[end - size] = 0.0
    t[end - 1] = extent
    t[at_x] = tx
    t[at_y] = ty

    inner = np.ones(len(t) - 1, dtype=bool)
    inner[end[:-1] - 1] = False  # no midpoint between two beams
    tm = (0.5 * (t[:-1] + t[1:]))[inner]
    b = np.repeat(beams, size - 1)
    cols = np.floor((x0 + ux[b] * tm - ox) / res + 0.5).astype(np.int64)
    rows = np.floor((y0 + uy[b] * tm - oy) / res + 0.5).astype(np.int64)
    inb = geom.holds(cols, rows)
    b, cols, rows = b[inb], cols[inb], rows[inb]
    proj = (ox + cols * res - x0) * ux[b] + (oy + rows * res - y0) * uy[b]
    keep = (proj >= 0.0) & (proj <= extent[b])
    return cols[keep], rows[keep]


def _fuse_batch(grid: SdfGrid, flat, f_t, w_t: float = 1.0):
    """Vectorized fuse of distinct cells, given as flat (row-major) indices.

    Same arithmetic as the reference's cell fusion.
    """
    wp = np.take(grid.W, flat).astype(np.float64)
    fp = np.take(grid.F, flat).astype(np.float64)
    first = wp == 0.0
    f_new = np.where(first, f_t, (wp * fp + w_t * f_t) / (wp + w_t))
    w_new = np.minimum(wp + w_t, grid.w_max)
    np.put(grid.F, flat, f_new.astype(np.float32))
    np.put(grid.W, flat, w_new.astype(np.float32))
