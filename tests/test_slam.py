"""``run_slam`` end to end on a short lap.

The first 120 frames of the 400-frame ``rectangle_circuit`` log (seed 7),
on 200-cell submaps: the submap size that tracks the lap.
"""

import pytest

from sdfslam.evaluate import evaluate_trajectory
from sdfslam.simulate import rectangle_circuit, run_scenario
from sdfslam.slam import SlamParams, run_slam
from sdfslam.submaps import merge_submaps

FRAMES = 120
PARAMS = SlamParams(submap_cells=200)


@pytest.fixture(scope="module")
def lap():
    records = run_scenario(*rectangle_circuit(seed=7))[:FRAMES]
    return records, run_slam(records, PARAMS)


def test_every_frame_matches(lap):
    _, result = lap
    assert result.match_failures == 0


def test_accuracy(lap):
    # Measured 4.5 mm after aligning the first frame.
    records, result = lap
    report = evaluate_trajectory([p for _, p in result.trajectory],
                                 [r.gt for r in records])
    assert report.rmse_translation < 0.010


def test_trajectory_keeps_the_log_timestamps(lap):
    records, result = lap
    assert [t for t, _ in result.trajectory] == [r.timestamp for r in records]


def test_submaps_finished_and_merged(lap):
    _, result = lap
    subs = result.collection.submaps
    assert [s.id for s in subs] == list(range(len(subs)))
    assert all(s.finished and s.scan_count > 0 for s in subs)
    assert merge_submaps(subs).provenance == [s.id for s in subs]


def test_repeat_run_identical(lap):
    records, result = lap
    assert run_slam(records, PARAMS).trajectory == result.trajectory
