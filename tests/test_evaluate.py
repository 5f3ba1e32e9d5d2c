import math

import numpy as np
import pytest

from sdfslam.evaluate import LengthMismatch, TimingStats, evaluate_trajectory
from sdfslam.geometry import Pose2, compose, inverse


def _lap(n=12):
    return [Pose2(math.cos(0.5 * k), 0.3 * k, 0.4 * k - 2.0) for k in range(n)]


class TestEvaluateTrajectory:
    def test_rigidly_reanchored_copy_has_zero_error(self):
        gt = _lap()
        anchor = Pose2(3.0, -1.5, 2.2)
        report = evaluate_trajectory([compose(anchor, p) for p in gt], gt)
        assert report.rmse_translation == pytest.approx(0.0, abs=1e-12)
        assert report.rmse_rotation == pytest.approx(0.0, abs=1e-12)
        assert len(report.errors_translation) == len(gt)

    def test_constant_offset_after_first_frame(self):
        # Frame 0 is the anchor and is excluded; every later frame is off by
        # (0.003, -0.004), so the translation RMSE is 5 mm.
        gt = _lap()
        est = [gt[0]] + [Pose2(p.x + 0.003, p.y - 0.004, p.theta) for p in gt[1:]]
        report = evaluate_trajectory(est, gt)
        assert report.rmse_translation == pytest.approx(0.005, abs=1e-12)
        assert report.rmse_rotation == pytest.approx(0.0, abs=1e-12)
        assert report.errors_translation[0] == pytest.approx(0.0, abs=1e-12)

    def test_world_frame_offset_shows_only_when_anchored(self):
        # A map-frame estimate whose world poses are all 5 mm off the truth:
        # aligning the first frames hides the offset, the map-to-world
        # anchor shows it on every frame, the first included.
        gt = _lap()
        anchor = Pose2(3.0, -1.5, 2.2)
        est = [compose(inverse(anchor), Pose2(p.x + 0.003, p.y - 0.004, p.theta))
               for p in gt]
        aligned = evaluate_trajectory(est, gt)
        anchored = evaluate_trajectory(est, gt, anchor)
        assert aligned.rmse_translation == pytest.approx(0.0, abs=1e-12)
        assert aligned.max_translation == pytest.approx(0.0, abs=1e-12)
        for value in (anchored.rmse_translation, anchored.p95_translation,
                      anchored.max_translation, anchored.errors_translation[0]):
            assert value == pytest.approx(0.005, abs=1e-12)
        assert anchored.rmse_rotation == pytest.approx(0.0, abs=1e-12)

    def test_p95_and_max_skip_the_aligned_frame(self):
        gt = [Pose2(0.0, 0.0, 0.0)] * 21
        est = [Pose2(0.5, 0.0, 0.0)] + [Pose2(0.001 * k, 0.0, 0.0) for k in range(20)]
        report = evaluate_trajectory(est, gt)
        # After aligning frame 0, frame k + 1 is off by |0.001 k - 0.5|.
        errors = [abs(0.001 * k - 0.5) for k in range(20)]
        assert report.max_translation == pytest.approx(max(errors), abs=1e-12)
        assert report.p95_translation == pytest.approx(float(np.percentile(errors, 95)),
                                                       abs=1e-12)

    def test_rotation_error_across_the_wrap(self):
        # pi - 0.01 and -pi + 0.01 are 0.02 rad apart, not 2*pi - 0.02.
        gt = [Pose2(0.0, 0.0, 0.0), Pose2(1.0, 0.0, math.pi - 0.01)]
        est = [Pose2(0.0, 0.0, 0.0), Pose2(1.0, 0.0, -math.pi + 0.01)]
        report = evaluate_trajectory(est, gt)
        assert report.rmse_rotation == pytest.approx(0.02, abs=1e-12)
        assert report.rmse_translation == 0.0

    @pytest.mark.parametrize("n_est, n_gt", [(3, 4), (0, 0)])
    def test_length_mismatch(self, n_est, n_gt):
        with pytest.raises(LengthMismatch):
            evaluate_trajectory(_lap(n_est), _lap(n_gt))

    def test_single_frame_has_zero_rmse(self):
        report = evaluate_trajectory([Pose2(1.0, 2.0, 0.3)], [Pose2(0.0, 0.0, 0.0)])
        assert (report.rmse_translation, report.rmse_rotation) == (0.0, 0.0)
        assert (report.p95_translation, report.max_translation) == (0.0, 0.0)


class TestTimingStats:
    def test_from_samples(self):
        stats = TimingStats.from_samples([0.004, 0.001, 0.003, 0.002])
        assert stats.median == pytest.approx(0.0025)
        assert stats.mean == pytest.approx(0.0025)
        assert stats.max == 0.004
        assert stats.std == pytest.approx(float(np.std([1, 2, 3, 4])) * 1e-3)
        assert stats.table_row() == "0.0025 0.0025 0.0040 0.0011"
