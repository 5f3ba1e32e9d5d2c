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


def evaluate_trajectory(estimated, ground_truth) -> EvalReport:
    """RMSE between two equal-length pose sequences.

    The estimate is first rigidly aligned so its initial pose coincides with
    the ground truth's (odometry-style evaluation); the anchor frame then
    has zero error by construction and is excluded from the means. Rotation
    errors use normalized angle differences.
    """
    if len(estimated) != len(ground_truth):
        raise LengthMismatch(
            f"{len(estimated)} estimated vs {len(ground_truth)} ground-truth poses")
    if len(estimated) == 0:
        raise LengthMismatch("empty trajectories")

    align = compose(ground_truth[0], inverse(estimated[0]))
    et = []
    er = []
    for est, gt in zip(estimated, ground_truth):
        a = compose(align, est)
        et.append(math.hypot(a.x - gt.x, a.y - gt.y))
        er.append(abs(normalize_angle(a.theta - gt.theta)))

    def rmse(errors):
        tail = errors[1:]
        if not tail:
            return 0.0
        return math.sqrt(sum(e * e for e in tail) / len(tail))

    return EvalReport(
        rmse_translation=rmse(et),
        rmse_rotation=rmse(er),
        errors_translation=et,
        errors_rotation=er,
    )
