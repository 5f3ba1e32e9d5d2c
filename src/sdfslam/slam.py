"""SLAM front end: match each scan against the active submap, then insert it.

The first scan fixes the map frame at the identity pose. Every later scan is
registered against the older unfinished submap and integrated into the
staggered submap window. ``matching.track`` holds the loop, the same one
that pure localization runs: each later scan starts at the constant-velocity
prediction, and a failed match (degenerate geometry, over-trimming) keeps
that start pose and is counted, not fatal.

The younger live submap is integrated in a worker process while this one
matches and integrates the target (see ``submaps``), so a run uses two
cores. ``run_slam`` stops the worker before it returns or raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Pose2, compose, inverse
from .matching import MatchConfig, match_two_stage, track
from .submaps import SubmapCollection, _check_size


@dataclass
class SlamParams:
    resolution: float = SubmapCollection.resolution
    truncation: float = SubmapCollection.truncation
    w_max: float = SubmapCollection.w_max
    max_expansions: int | None = SubmapCollection.max_expansions
    submap_scans: int = SubmapCollection.scans_per_submap
    submap_cells: int = SubmapCollection.cells
    match: MatchConfig = field(default_factory=MatchConfig)

    def __post_init__(self):
        # Bad settings fail here, before any scan is read; the submap sizes
        # are checked under these fields' names, not the collection's.
        _check_size("submap_scans", self.submap_scans)
        _check_size("submap_cells", self.submap_cells)
        self.collection()

    def collection(self) -> SubmapCollection:
        """An empty submap window with these settings; it starts no worker."""
        return SubmapCollection(
            scans_per_submap=self.submap_scans,
            cells=self.submap_cells,
            resolution=self.resolution,
            truncation=self.truncation,
            w_max=self.w_max,
            max_expansions=self.max_expansions,
        )


@dataclass
class SlamResult:
    trajectory: list[tuple[float, Pose2]]
    collection: SubmapCollection
    match_failures: int = 0


def run_slam(records, params: SlamParams | None = None) -> SlamResult:
    """Process a scan log and return the trajectory plus the submap set.

    All submaps are marked finished on return so they can be merged
    directly.
    """
    if params is None:
        params = SlamParams()
    collection = params.collection()

    def register(scan, start: Pose2) -> Pose2:
        target = collection.matching_target()
        if target is None:  # the first scan
            return start
        local = compose(inverse(target.pose), start)
        result = match_two_stage(target.grid, scan, local, params.match)
        return compose(target.pose, result.pose)

    with collection:
        trajectory, _, failures = track(records, register, then=collection.add_scan)
        collection.finish_all()
    return SlamResult(trajectory=trajectory, collection=collection,
                      match_failures=failures)
