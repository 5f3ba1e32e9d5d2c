"""Trajectory accuracy (RMSE) and timing statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose2, compose, inverse, normalize_angle


class LengthMismatch(ValueError):
    """Estimated and ground-truth trajectories differ in length."""


@dataclass(frozen=True)
class TimingStats:
    """Per-frame wall-time summary in seconds."""

    median: float
    mean: float
    max: float
    std: float

    @classmethod
    def from_samples(cls, samples) -> "TimingStats":
        arr = np.asarray(samples, dtype=np.float64)
        return cls(
            median=float(np.median(arr)),
            mean=float(arr.mean()),
            max=float(arr.max()),
            std=float(arr.std()),
        )

    def table_row(self) -> str:
        return (f"{self.median:.4f} {self.mean:.4f} "
                f"{self.max:.4f} {self.std:.4f}")


@dataclass(eq=False)
class EvalReport:
    rmse_translation: float
    rmse_rotation: float
    errors_translation: list[float]
    errors_rotation: list[float]
    p95_translation: float
    max_translation: float


def evaluate_trajectory(estimated, ground_truth,
                        anchor: Pose2 | None = None) -> EvalReport:
    """RMSE, p95 and max error between two equal-length pose sequences.

    With no ``anchor``, the estimate is first rigidly aligned so its initial
    pose coincides with the ground truth's (odometry-style evaluation); the
    first frame then has zero error by construction and is excluded from
    the statistics. An ``anchor`` is the map-to-world transform, the true
    pose of the map log's first frame: the estimate, in the map frame, is
    mapped through it into the world frame, and every frame counts. Rotation
    errors use normalized angle differences.
    """
    if len(estimated) != len(ground_truth):
        raise LengthMismatch(
            f"{len(estimated)} estimated vs {len(ground_truth)} ground-truth poses")
    if len(estimated) == 0:
        raise LengthMismatch("empty trajectories")

    if anchor is None:
        align, first = compose(ground_truth[0], inverse(estimated[0])), 1
    else:
        align, first = anchor, 0
    et = []
    er = []
    for est, gt in zip(estimated, ground_truth):
        a = compose(align, est)
        et.append(math.hypot(a.x - gt.x, a.y - gt.y))
        er.append(abs(normalize_angle(a.theta - gt.theta)))

    def rmse(errors):
        if not errors:
            return 0.0
        return math.sqrt(sum(e * e for e in errors) / len(errors))

    counted = et[first:]
    return EvalReport(
        rmse_translation=rmse(counted),
        rmse_rotation=rmse(er[first:]),
        errors_translation=et,
        errors_rotation=er,
        p95_translation=float(np.percentile(counted, 95)) if counted else 0.0,
        max_translation=max(counted, default=0.0),
    )
