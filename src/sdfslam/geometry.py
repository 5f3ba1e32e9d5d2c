"""Planar poses, laser scans, and grid geometry shared by every module.

All types here are plain immutable values; they can be shared freely between
threads. Angles are always kept in the half-open interval (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi] using IEEE remainder arithmetic."""
    theta = math.remainder(theta, math.tau)
    if theta <= -math.pi:
        theta += math.tau
    return theta


@dataclass(frozen=True)
class Pose2:
    """Rigid transform of the plane: rotation by ``theta``, then translation.

    Maps sensor-frame coordinates into the parent (map) frame. ``theta`` is
    re-normalized to (-pi, pi] on construction.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))


IDENTITY = Pose2(0.0, 0.0, 0.0)


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Return the pose equivalent to applying ``b`` first, then ``a``."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.theta + b.theta,
    )


def inverse(p: Pose2) -> Pose2:
    """Return the pose q with compose(p, q) = compose(q, p) = identity."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.theta)


def transform_points(p: Pose2, pts: np.ndarray) -> np.ndarray:
    """Map an (n, 2) array of points from the pose's own frame into the parent frame."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    c, s = math.cos(p.theta), math.sin(p.theta)
    out = np.empty_like(pts)
    out[:, 0] = p.x + c * pts[:, 0] - s * pts[:, 1]
    out[:, 1] = p.y + s * pts[:, 0] + c * pts[:, 1]
    return out


@dataclass(eq=False)
class LaserScan:
    """One revolution of range readings.

    Beam ``i`` points along ``angle_min + i * angle_increment`` in the sensor
    frame. A reading is valid iff it is finite and inside
    ``[range_min, range_max]``; invalid readings (NaN, inf, out of range) are
    carried along and silently dropped during point conversion, since real
    scanners emit them routinely.
    """

    angle_min: float
    angle_increment: float
    ranges: np.ndarray
    range_min: float
    range_max: float

    def __post_init__(self):
        self.ranges = np.asarray(self.ranges, dtype=np.float64)

    def beam_angles(self) -> np.ndarray:
        return self.angle_min + self.angle_increment * np.arange(len(self.ranges))

    def valid_mask(self) -> np.ndarray:
        r = self.ranges
        return np.isfinite(r) & (r >= self.range_min) & (r <= self.range_max)


def scan_to_points(scan: LaserScan) -> np.ndarray:
    """Sensor-frame endpoints of the valid readings, in beam order.

    Returns an (n, 2) float array with one row per valid reading.
    """
    mask = scan.valid_mask()
    r = scan.ranges[mask]
    a = scan.beam_angles()[mask]
    return np.column_stack((r * np.cos(a), r * np.sin(a)))


@dataclass(frozen=True)
class GridGeometry:
    """Placement of a dense 2D grid in the world.

    ``origin`` is the world coordinate of the *center* of cell (0, 0); cell
    indices are (col, row) counted from the grid's minimum corner. With
    center-anchored cells, :meth:`world_to_cells` of a cell center returns
    that cell exactly. Both conversions and :meth:`holds`, the one in-grid
    test, take whole arrays; a single point is a one-row array.
    """

    origin_x: float
    origin_y: float
    resolution: float
    width: int
    height: int

    def __post_init__(self):
        if not self.resolution > 0:  # NaN fails too
            raise ValueError("resolution must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one cell")

    def world_to_cells(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell of each point: (n, 2) points -> (cols, rows) int arrays."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        cols = np.floor((pts[:, 0] - self.origin_x) / self.resolution + 0.5)
        rows = np.floor((pts[:, 1] - self.origin_y) / self.resolution + 0.5)
        return cols.astype(np.int64), rows.astype(np.int64)

    def cells_to_world(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The center of each cell: (cols, rows) -> (n, 2) points."""
        out = np.empty((len(cols), 2), dtype=np.float64)
        out[:, 0] = self.origin_x + np.asarray(cols) * self.resolution
        out[:, 1] = self.origin_y + np.asarray(rows) * self.resolution
        return out

    def holds(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Whether each (col, row) is a cell of this grid, as a bool array."""
        return (cols >= 0) & (cols < self.width) & (rows >= 0) & (rows < self.height)

    def corners(self) -> list[tuple[float, float]]:
        """The four outer corners of the covered cell area, in meters."""
        h = 0.5 * self.resolution
        x0, y0 = self.origin_x - h, self.origin_y - h
        x1 = self.origin_x + (self.width - 1) * self.resolution + h
        y1 = self.origin_y + (self.height - 1) * self.resolution + h
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
