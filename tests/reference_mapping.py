"""Per-cell reference for ``sdfslam.mapping.integrate_scan``.

The same map update stated one cell or one beam at a time, composed by
:func:`integrate_by_ops`. The array passes of ``integrate_scan`` reproduce
it bit for bit; the tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sdfslam import kernels
from sdfslam.geometry import Pose2, scan_to_points, transform_points
from sdfslam.mapping import (DEGENERATE_EPS, GAMMA_CLAMP, ExpansionPolicy, SdfGrid,
                             UpdateStats, chebyshev_ring)

# Priority sentinel for free-space updates: strictly lower priority than any
# surface update (priorities are distances, smaller = higher), so a surface
# update always beats carving within one frame.
FREE_SPACE_PRIORITY = math.inf


class DegenerateFit(ValueError):
    """All points handed to the line fit coincide."""


class SdfCell(NamedTuple):
    F: float
    W: float


@dataclass(frozen=True)
class RegressionLine:
    """Orthogonal-fit line given as a point on it plus a unit normal."""

    point: tuple[float, float]
    normal: tuple[float, float]

    def __post_init__(self):
        n = math.hypot(*self.normal)
        if abs(n - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector")

    def signed_distance(self, p: tuple[float, float]) -> float:
        return self.normal[0] * (p[0] - self.point[0]) + self.normal[1] * (
            p[1] - self.point[1]
        )


@dataclass(frozen=True)
class UpdateEntry:
    """One candidate cell update produced while integrating a frame.

    ``priority`` is the distance between the updated cell's center and the
    cell that caused the update; smaller distance wins. Free-space entries
    use the infinite sentinel so any surface update beats them.
    """

    cell: tuple[int, int]
    f: float
    weight: float
    priority: float


def fit_deming(points, laser_origin) -> RegressionLine:
    """Fit the line minimizing summed squared orthogonal distances.

    Orthogonal regression (error-variance ratio 1) handles vertical lines,
    which ordinary least squares cannot. The normal is oriented toward
    ``laser_origin`` so signed distances are positive on the sensor side.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    cx, cy = pts.mean(axis=0)
    dx = pts[:, 0] - cx
    dy = pts[:, 1] - cy
    if np.max(dx * dx + dy * dy) < DEGENERATE_EPS * DEGENERATE_EPS:
        raise DegenerateFit("all points coincide")
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    sxy = float(np.dot(dx, dy))
    angle = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    nx, ny = -math.sin(angle), math.cos(angle)
    if nx * (laser_origin[0] - cx) + ny * (laser_origin[1] - cy) < 0.0:
        nx, ny = -nx, -ny
    return RegressionLine(point=(cx, cy), normal=(nx, ny))


def collect_points(cell, hits, policy: ExpansionPolicy):
    """Gather the points used to fit this cell's regression line.

    Starts with the cell's own bucket; while fewer than three points are on
    hand and the expansion budget allows, pulls in the next neighbor ring.
    Returns ``(points, expansions_used)``, or ``None`` when fewer than two
    points were found after maximum expansion (the update is given up).
    """
    points = list(hits.get(cell, ()))
    e = 0
    while len(points) < 3 and e < policy.max_expansions:
        e += 1
        for di, dj in chebyshev_ring(e):
            points.extend(hits.get((cell[0] + di, cell[1] + dj), ()))
    if len(points) < 2:
        return None
    return points, e


def update_range(cell_center, e: int, resolution: float):
    """Closed box around the causing cell limiting which projections update.

    Half-width grows with the expansion count: (1 + 0.5 * e) * resolution,
    so lines fitted from a wider search also update a wider range.
    """
    half = (1.0 + 0.5 * e) * resolution
    return (
        cell_center[0] - half,
        cell_center[1] - half,
        cell_center[0] + half,
        cell_center[1] + half,
    )


def surface_update_entries(cell, line: RegressionLine, e: int, grid: SdfGrid,
                           laser_origin) -> list[UpdateEntry]:
    """Candidate updates around one causing cell.

    Candidates are in-bounds cells whose center lies within the truncation
    distance of the causing cell's center. A candidate is updated only when
    its projection onto the regression line falls inside the closed
    :func:`update_range` box. The update value is the signed orthogonal
    distance to the line (positive on the sensor side, negative behind),
    clamped to the truncation band; its priority is the center distance to
    the causing cell.
    """
    geom = grid.geometry
    res = geom.resolution
    trunc = grid.truncation
    ccx, ccy = geom.origin_x + cell[0] * res, geom.origin_y + cell[1] * res
    xmin, ymin, xmax, ymax = update_range((ccx, ccy), e, res)
    reach = int(math.ceil(trunc / res))
    limit = trunc * (1.0 + 1e-12)

    entries = []
    for dj in range(-reach, reach + 1):
        for di in range(-reach, reach + 1):
            dist = res * math.hypot(di, dj)
            if dist > limit:
                continue
            target = (cell[0] + di, cell[1] + dj)
            if not (0 <= target[0] < geom.width and 0 <= target[1] < geom.height):
                continue
            tx, ty = geom.origin_x + target[0] * res, geom.origin_y + target[1] * res
            sd = line.signed_distance((tx, ty))
            px = tx - sd * line.normal[0]
            py = ty - sd * line.normal[1]
            if not (xmin <= px <= xmax and ymin <= py <= ymax):
                continue
            f_t = min(max(sd, -trunc), trunc)
            entries.append(UpdateEntry(target, f_t, 1.0, dist))
    return entries


def free_space_extent(beam_range: float, gamma: float, t_d: float,
                      gamma_clamp: float = GAMMA_CLAMP):
    """Carving distance along a beam, shortened by surface obliqueness.

    ``gamma`` is the incidence angle between the beam and the surface normal
    (0 when perpendicular). Carving stops t_d / cos(gamma) before the hit;
    past ``gamma_clamp`` the correction is unreliable and the beam carves
    nothing (returns None).
    """
    if abs(gamma) > gamma_clamp:
        return None
    return max(0.0, beam_range - t_d / math.cos(gamma))


def free_space_entries(scan, pose: Pose2, grid: SdfGrid, extents) -> list[UpdateEntry]:
    """Free-space updates for a frame, one entry per visited cell per beam.

    ``extents`` is aligned with ``scan.ranges``; None entries carve nothing.
    Every visited cell is set toward +truncation with the free-space
    priority sentinel.
    """
    geom = grid.geometry
    trunc = grid.truncation
    angles = scan.beam_angles()
    entries = []
    for i, extent in enumerate(extents):
        if extent is None or extent <= 0.0:
            continue
        a = pose.theta + angles[i]
        cols, rows = kernels.traverse_free(
            geom.origin_x, geom.origin_y, geom.resolution, geom.width, geom.height,
            pose.x, pose.y, math.cos(a), math.sin(a), float(extent),
        )
        for c, r in zip(cols.tolist(), rows.tolist()):
            entries.append(UpdateEntry((c, r), trunc, 1.0, FREE_SPACE_PRIORITY))
    return entries


def resolve_update_set(entries) -> list[UpdateEntry]:
    """Reduce a frame's update set to at most one entry per cell.

    The highest-priority (smallest-distance) entry wins; exact ties are
    fused by the weighted-mean arithmetic of the cell fusion rule (all
    frame weights are 1, so ties average). The result does not depend on
    input order.
    """
    acc: dict[tuple[int, int], list[float]] = {}
    for en in entries:
        slot = acc.get(en.cell)
        if slot is None or en.priority < slot[0]:
            acc[en.cell] = [en.priority, en.f, 1.0]
        elif en.priority == slot[0]:
            slot[1] += en.f
            slot[2] += 1.0
    return [
        UpdateEntry(cell, fsum / count, 1.0, prio)
        for cell, (prio, fsum, count) in acc.items()
    ]


def fuse_cell(prev: SdfCell, f_t: float, w_t: float, w_max: float) -> SdfCell:
    """Weighted running mean of distance values with a capped weight.

    The first observation passes through unchanged. The mean always uses the
    stored weight, so a saturated cell keeps averaging at full confidence
    while its weight stays capped at ``w_max``.
    """
    if prev.W == 0.0:
        return SdfCell(f_t, min(w_t, w_max))
    f = (prev.W * prev.F + w_t * f_t) / (prev.W + w_t)
    w = min(prev.W + w_t, w_max)
    return SdfCell(f, w)


def _neighbor_line(lines, cell):
    """Line of the nearest fitted cell within one ring, if any.

    Used for beams whose own hit cell could not be fitted: the neighbor's
    normal still gives a usable incidence angle for free-space carving.
    Direct neighbors are preferred over diagonals.
    """
    line = lines.get(cell)
    if line is not None:
        return line
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        line = lines.get((cell[0] + di, cell[1] + dj))
        if line is not None:
            return line
    return None


class ByOps(NamedTuple):
    """What :func:`integrate_by_ops` did to the grid, and how it got there."""

    stats: UpdateStats
    lines: dict  # fitted cell -> RegressionLine, in order of first hit
    expansions: dict  # fitted cell -> expansions used
    surface: list  # resolved surface entries, one per cell
    beam_lines: list  # each valid beam's line, from its hit cell or a neighbor, or None


def integrate_by_ops(grid: SdfGrid, scan, pose: Pose2, policy: ExpansionPolicy) -> ByOps:
    """Fuse one frame into the grid by the literal per-cell pipeline.

    Hits outside the grid are dropped, as ``integrate_scan`` does. The
    stats count the resolved surface and free-space entries, and the cells
    given up by the point search or the fit.
    """
    geom = grid.geometry
    pts = scan_to_points(scan)
    world_pts = transform_points(pose, pts)
    cols, rows = geom.world_to_cells(world_pts)
    inb = (cols >= 0) & (cols < geom.width) & (rows >= 0) & (rows < geom.height)

    hits = {}
    for k in np.flatnonzero(inb):
        hits.setdefault((int(cols[k]), int(rows[k])), []).append(
            (world_pts[k, 0], world_pts[k, 1]))

    origin = (pose.x, pose.y)
    lines, expansions, entries = {}, {}, []
    skipped = 0
    for cell in hits:
        res = collect_points(cell, hits, policy)
        if res is None:
            skipped += 1
            continue
        cell_pts, e = res
        try:
            line = fit_deming(cell_pts, origin)
        except DegenerateFit:
            skipped += 1
            continue
        lines[cell] = line
        expansions[cell] = e
        entries.extend(surface_update_entries(cell, line, e, grid, origin))

    valid_idx = np.flatnonzero(scan.valid_mask())
    angles = scan.beam_angles()
    extents = [None] * len(scan.ranges)
    beam_lines = []
    for k in range(len(pts)):
        cell = (int(cols[k]), int(rows[k]))
        line = _neighbor_line(lines, cell)
        beam_lines.append(line)
        if line is None:
            continue
        beam_index = valid_idx[k]
        a = pose.theta + angles[beam_index]
        cosg = -(math.cos(a) * line.normal[0] + math.sin(a) * line.normal[1])
        gamma = math.acos(min(max(cosg, -1.0), 1.0))
        extents[beam_index] = free_space_extent(scan.ranges[beam_index], gamma,
                                                grid.truncation)

    entries.extend(free_space_entries(scan, pose, grid, extents))
    resolved = resolve_update_set(entries)
    for en in resolved:
        col, row = en.cell
        prev = SdfCell(float(grid.F[row, col]), float(grid.W[row, col]))
        cell = fuse_cell(prev, en.f, en.weight, grid.w_max)
        grid.F[row, col] = np.float32(cell.F)
        grid.W[row, col] = np.float32(cell.W)
    surface = [en for en in resolved if en.priority != FREE_SPACE_PRIORITY]
    stats = UpdateStats(cells_updated=len(surface), cells_skipped=skipped,
                        cells_carved=len(resolved) - len(surface))
    return ByOps(stats, lines, expansions, surface, beam_lines)
