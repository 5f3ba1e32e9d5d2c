"""2D laser SLAM and pure localization on signed-distance-function maps."""

from .geometry import GridGeometry, LaserScan, Pose2, compose, inverse, transform_points
from .mapping import ExpansionPolicy, SdfGrid, integrate_scan
from .matching import MatchConfig, MatchResult, match_two_stage
from .submaps import MergedMap, Submap, SubmapCollection, merge_submaps, pure_localize

__version__ = "0.1.0"

__all__ = [
    "GridGeometry",
    "LaserScan",
    "Pose2",
    "compose",
    "inverse",
    "transform_points",
    "ExpansionPolicy",
    "SdfGrid",
    "integrate_scan",
    "MatchConfig",
    "MatchResult",
    "match_two_stage",
    "MergedMap",
    "Submap",
    "SubmapCollection",
    "merge_submaps",
    "pure_localize",
    "__version__",
]
