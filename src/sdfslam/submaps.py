"""Submap lifecycle, merging into one integrated map, and pure localization.

During SLAM, scans are inserted into a staggered window of at most two
unfinished submaps; matching targets the older one so the target is always
well populated. The younger one is not read until it becomes the target,
so its grid lives in a worker process that the collection starts with the
first such submap. The collection sends each scan there before inserting
it into the target, so the two inserts run side by side, and takes the
grid back when the submap becomes the target or is finished. The worker
learns the expansion policy with each submap's grid shape and runs the
same ``Submap.insert``, so the grids are the same bytes either way. Its
command line imports this module, so the package import sets the same heap
policy there as in the parent, and its inserts reuse freed buffers too.

Finished submaps are later merged into a single grid by resampling each
submap at the merged cell centers near its known cells (bicubic) and
fusing with weighted means, taking the maximum weight. Pure localization
registers scans against the merged grid without ever mutating it, one scan
at a time (``pure_localize``) or a whole log in order (``localize_log``).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import pickle
import signal
import subprocess
import sys
import weakref
from dataclasses import dataclass, field

import numpy as np

from .geometry import IDENTITY, GridGeometry, Pose2, compose, inverse, transform_points
from .mapping import ExpansionPolicy, SdfGrid, integrate_scan
from .matching import MatchConfig, MatchResult, match_two_stage, track
from . import kernels


class MixedResolution(ValueError):
    """Submaps disagree on grid resolution and cannot be merged."""


class MixedSettings(ValueError):
    """Submaps disagree on truncation or weight cap and cannot be merged."""


class SubmapWorkerError(RuntimeError):
    """The process that integrates the younger live submap died."""


@dataclass(eq=False)
class Submap:
    """One fixed-size grid anchored in the global frame.

    ``pose`` maps submap-frame coordinates to the global frame. Once
    ``finished`` is set the grid is immutable. ``grid`` is None while a
    ``SubmapCollection`` keeps the grid in its worker process.
    """

    grid: SdfGrid | None
    pose: Pose2
    id: int
    scan_count: int = 0
    finished: bool = False

    def insert(self, scan, world_pose: Pose2, policy: ExpansionPolicy):
        if self.finished:
            raise ValueError("cannot insert into a finished submap")
        local = compose(inverse(self.pose), world_pose)
        integrate_scan(self.grid, scan, local, policy)
        self.scan_count += 1


def _centered_grid(cells: int, resolution: float, truncation: float,
                   w_max: float) -> SdfGrid:
    half = 0.5 * (cells - 1) * resolution
    geom = GridGeometry(-half, -half, resolution, cells, cells)
    return SdfGrid.unknown(geom, truncation, w_max)


# Run by the worker's interpreter; the path makes the package importable
# however the parent found it.
_WORKER_MAIN = ("import sys; sys.path.insert(0, {root!r}); "
                "from sdfslam.submaps import _serve; _serve()")


def _serve():
    """Worker loop: hold the submaps it is sent, insert into them and hand
    each grid back on request. Ends when the parent closes the pipe."""
    # Ctrl-C reaches the whole process group; the parent stops the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    inbox, outbox = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # nothing but replies on the reply pipe
    held: dict[int, Submap] = {}
    while True:
        try:
            op, sid, *args = pickle.load(inbox)
        except EOFError:
            return
        if op == "spawn":
            anchor, shape, policy = args  # one collection, so one policy, per worker
            held[sid] = Submap(grid=_centered_grid(*shape), pose=anchor, id=sid)
        elif op == "insert":
            held[sid].insert(*args, policy)
        else:  # "give"
            pickle.dump(held.pop(sid).grid, outbox, pickle.HIGHEST_PROTOCOL)
            outbox.flush()


def _stop_worker(proc: subprocess.Popen):
    proc.kill()
    # Closes the pipes, dropping a message the worker never read, and reaps
    # the process.
    with contextlib.suppress(BrokenPipeError), proc:
        pass


def _check_size(name: str, value) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an integer of at
    least 2: a one-scan submap finishes before it can be a matching target,
    and bilinear sampling reads a 2x2 block of nodes."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if value < 2:
        raise ValueError(f"{name} must be at least 2")


@dataclass(eq=False)
class SubmapCollection:
    """Staggered two-deep window of submaps under construction.

    A new submap is anchored at the current pose once the newest one has
    received half its budget, and a submap is finished when it reaches
    ``scans_per_submap`` scans; every scan therefore lands in one or two
    submaps and the matching target always carries at least half a budget
    of data. Every submap is built with ``policy``, the ring budget derived
    once from ``max_expansions``, or from the resolution when that is None.

    The younger of two live submaps is integrated in a worker process,
    started with the first such submap, which learns the policy once per
    submap. Its ``grid`` is None until the collection takes it back: when it
    becomes the matching target, or in :meth:`finish_all`. ``finish_all``
    stops the worker; ``close()``, or using the collection as a context
    manager, stops it on any other way out.
    """

    scans_per_submap: int = 50
    # 10 m at the default resolution, the scanner's reach. A 5 m (100-cell)
    # grid sees little more than the nearest wall, and the built-in lap then
    # fails 340 of its 400 matches, from about frame 59 on.
    cells: int = 200
    resolution: float = 0.05
    truncation: float = 0.06
    w_max: float = 10.0
    max_expansions: int | None = None  # None selects by resolution
    submaps: list[Submap] = field(default_factory=list)
    policy: ExpansionPolicy = field(init=False)
    _worker: subprocess.Popen | None = field(default=None, init=False, repr=False)
    _stop: weakref.finalize | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("scans_per_submap", "cells"):
            _check_size(name, getattr(self, name))
        for name in ("resolution", "truncation", "w_max"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        self.policy = (ExpansionPolicy.for_resolution(self.resolution)
                       if self.max_expansions is None
                       else ExpansionPolicy(self.max_expansions))

    def unfinished(self) -> list[Submap]:
        return [s for s in self.submaps if not s.finished]

    def matching_target(self) -> Submap | None:
        """The older unfinished submap with data, if any."""
        for s in self.submaps:
            if not s.finished and s.scan_count > 0:
                return s
        return None

    def _spawn(self, anchor: Pose2):
        sm = Submap(grid=None, pose=anchor, id=len(self.submaps))
        shape = (self.cells, self.resolution, self.truncation, self.w_max)
        if self.unfinished():
            self._send("spawn", sm.id, anchor, shape, self.policy)
        else:
            sm.grid = _centered_grid(*shape)
        self.submaps.append(sm)

    def add_scan(self, scan, world_pose: Pose2):
        """Insert a matched scan into every unfinished submap and roll the window."""
        if not self.submaps:
            self._spawn(world_pose)
        # Younger first, so the worker's insert overlaps the target's.
        for sm in reversed(self.unfinished()):
            if sm.grid is None:
                self._send("insert", sm.id, scan, world_pose)
                sm.scan_count += 1
            else:
                sm.insert(scan, world_pose, self.policy)

        active = self.unfinished()
        if active and active[0].scan_count >= self.scans_per_submap:
            active[0].finished = True
            active = active[1:]
            if active and active[0].grid is None:
                self._reclaim(active[0])
        if not active or active[-1].scan_count == math.ceil(self.scans_per_submap / 2):
            self._spawn(world_pose)

    def finish_all(self):
        """Finish every submap and stop the worker."""
        # Drop trailing submaps that never received data.
        self.submaps = [s for s in self.submaps if s.scan_count > 0]
        for sm in self.submaps:
            if sm.grid is None:
                self._reclaim(sm)
            sm.finished = True
        self.close()

    def close(self):
        """Stop the worker, if one runs; grids still in it are lost."""
        if self._worker is not None:
            self._stop()
            self._worker = None

    def __enter__(self) -> SubmapCollection:
        return self

    def __exit__(self, *exc):
        self.close()

    def _send(self, *message):
        if self._worker is None:
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            # The worker's inserts follow the same warning filters as ours.
            self._worker = subprocess.Popen(
                [sys.executable, *(f"-W{w}" for w in sys.warnoptions), "-c",
                 _WORKER_MAIN.format(root=root)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            # Also stops the worker of a collection dropped without close().
            self._stop = weakref.finalize(self, _stop_worker, self._worker)
        try:
            pickle.dump(message, self._worker.stdin, pickle.HIGHEST_PROTOCOL)
            self._worker.stdin.flush()
        except BrokenPipeError:
            raise self._died() from None

    def _reclaim(self, sm: Submap):
        """Take ``sm``'s grid back from the worker."""
        self._send("give", sm.id)
        try:
            sm.grid = pickle.load(self._worker.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise self._died() from None

    def _died(self) -> SubmapWorkerError:
        return SubmapWorkerError(
            f"submap worker exited with code {self._worker.wait()}")


@dataclass(eq=False)
class MergedMap:
    """One integrated grid covering every submap, plus its provenance."""

    grid: SdfGrid
    provenance: list[int]


def _footprint(sm: Submap) -> np.ndarray:
    """The submap's four outer corners in the global frame, shape (4, 2)."""
    return transform_points(sm.pose, np.asarray(sm.grid.geometry.corners()))


def merged_bounds(submaps) -> GridGeometry:
    """Geometry covering the transformed corners of all submaps.

    Each submap's four corners go through its pose into the global frame;
    the result covers their bounding box padded by one cell, at the common
    resolution. Submaps that disagree on resolution, truncation or weight
    cap are rejected, since the merged grid can carry only one of each.
    """
    if not submaps:
        raise ValueError("need at least one submap")
    first = submaps[0].grid
    res = first.geometry.resolution
    for sm in submaps:
        if sm.grid.geometry.resolution != res:
            raise MixedResolution("submaps disagree on resolution")
        if (sm.grid.truncation, sm.grid.w_max) != (first.truncation, first.w_max):
            raise MixedSettings("submaps disagree on truncation or weight cap")

    corners = np.concatenate([_footprint(sm) for sm in submaps])
    x0, y0 = (corners.min(axis=0) - res).tolist()
    x1, y1 = (corners.max(axis=0) + res).tolist()
    width = int(math.ceil((x1 - x0) / res - 1e-9))
    height = int(math.ceil((y1 - y0) / res - 1e-9))
    return GridGeometry(x0 + 0.5 * res, y0 + 0.5 * res, res, width, height)


def _cover(sm: Submap, geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(cols, rows) of the merged cells where ``sm`` can be known.

    ``kernels.bicubic_fw`` calls a sample valid only in the unit square of a
    known cell, so within sqrt(2)/2 cells of that square's center. The pose
    is rigid and both grids share one resolution, so a merged cell whose
    center can be valid lies, per axis, within sqrt(2)/2 merged cells of a
    mapped square center m: it is ceil(m - 0.75) or the next cell. The
    margin 0.75 exceeds sqrt(2)/2 by enough to absorb rounding and stays
    below 1, so two cells per axis suffice.
    """
    rows, cols = np.nonzero(sm.grid.W > 0.0)
    if not len(rows):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # Merged coordinates of cell (0, 0)'s square center, less the margin;
    # the other centers follow by the pose's rotation alone.
    center = transform_points(sm.pose, sm.grid.geometry.cells_to_world([0.5], [0.5]))
    (u0, v0), = (center - (geom.origin_x, geom.origin_y)) / geom.resolution - 0.75
    c, s = math.cos(sm.pose.theta), math.sin(sm.pose.theta)
    lu = np.ceil(u0 + c * cols - s * rows).astype(np.int64)
    lv = np.ceil(v0 + s * cols + c * rows).astype(np.int64)

    # Mark each center's lower candidate over the candidates' window, then
    # widen every mark to its 2x2 block.
    x0, y0 = lu.min(), lv.min()
    mark = np.zeros((lv.max() - y0 + 2, lu.max() - x0 + 2), dtype=bool)
    mark[lv - y0, lu - x0] = True
    mark[1:] |= mark[:-1]
    mark[:, 1:] |= mark[:, :-1]
    rows, cols = np.nonzero(mark)
    cols, rows = cols + x0, rows + y0
    inside = geom.holds(cols, rows)
    return cols[inside], rows[inside]


def merge_submaps(submaps) -> MergedMap:
    """Fuse finished submaps into one integrated map.

    Submaps are folded in id order. Each submap is resampled at the centers
    of the merged cells near its known cells (``_cover``), the only cells
    where a sample can be valid; the distance values fuse by weighted mean
    and the weight becomes the maximum of the two.
    Which cells a sample may read is decided by ``kernels.bicubic_fw``
    alone: samples it reports invalid (a nearest cell unknown) are skipped
    so unknown regions never dilute another submap's surface, and a sample
    whose 4x4 patch reaches into unknown cells gets the bilinear F of its
    known cells rather than the bicubic one.
    """
    submaps = sorted(submaps, key=lambda s: s.id)
    for sm in submaps:
        if not sm.finished:
            raise ValueError(f"submap {sm.id} is not finished")
    geom = merged_bounds(submaps)
    first = submaps[0].grid
    merged = SdfGrid.unknown(geom, first.truncation, first.w_max)

    for sm in submaps:
        sgeom = sm.grid.geometry
        cols, rows = _cover(sm, geom)
        local = transform_points(inverse(sm.pose), geom.cells_to_world(cols, rows))

        fb, wb, valid = kernels.bicubic_fw(
            sm.grid.F, sm.grid.W, sgeom.origin_x, sgeom.origin_y,
            sgeom.resolution, sm.grid.truncation, local,
        )
        if not valid.any():
            continue
        flat = rows[valid] * geom.width + cols[valid]
        fb, wb = fb[valid], wb[valid]
        fm = merged.F.take(flat).astype(np.float64)
        wm = merged.W.take(flat).astype(np.float64)
        fused = np.where(wm == 0.0, fb, (wm * fm + wb * fb) / (wm + wb))
        merged.F.put(flat, fused.astype(np.float32))
        merged.W.put(flat, np.maximum(wm, wb).astype(np.float32))

    return MergedMap(grid=merged, provenance=[sm.id for sm in submaps])


# Per stage; a handful suffices because the map is fixed and each start
# pose is close.
LOCALIZE_ITERS = 5


def pure_localize(merged: MergedMap, scan, init: Pose2,
                  iters: int = LOCALIZE_ITERS) -> MatchResult:
    """Register a scan against the merged map; never mutates it.

    Both optimization stages are capped at ``iters`` iterations. The trim
    band and Huber scale come from the map, as in every match.
    """
    return match_two_stage(merged.grid, scan, init, MatchConfig(iters, iters))


def localize_log(merged: MergedMap, records, init: Pose2 = IDENTITY,
                 iters: int = LOCALIZE_ITERS):
    """Localize every record of a scan log in order; never mutates the map.

    The first record starts at ``init``, by default the map origin, which is
    where SLAM put the first pose of the map log. Each record is registered
    with ``pure_localize`` under the rule of ``matching.track``, which
    ``run_slam`` follows too: later records start at the constant-velocity
    prediction, and a record whose match raises keeps its start pose and
    counts as a failure.

    Returns ``(trajectory, frame_seconds, match_failures)``: the
    (timestamp, pose) pairs and the seconds of each record, in log order,
    and the number of failed matches.
    """
    return track(records, lambda scan, start: pure_localize(merged, scan, start, iters).pose,
                 init)
