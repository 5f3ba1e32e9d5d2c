"""``run_slam`` end to end on a short lap.

The first 120 frames of the 400-frame ``rectangle_circuit`` log (seed 7),
on 200-cell submaps: the submap size that tracks the lap.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sdfslam
from sdfslam.evaluate import evaluate_trajectory
from sdfslam.geometry import IDENTITY, compose, inverse
from sdfslam.mapping import ExpansionPolicy, SdfGrid, integrate_scan
from sdfslam.matching import predict_pose
from sdfslam.simulate import rectangle_circuit, run_scenario
from sdfslam.slam import SlamParams, run_slam
from sdfslam.submaps import SubmapWorkerError, merge_submaps

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


def test_record_without_valid_range_keeps_its_guess(lap):
    # The rule that localization follows: a frame whose match raises keeps
    # its constant-velocity prediction and counts as a failure.
    records, _ = lap
    records = list(records)
    gap = records[60]
    records[60] = replace(gap, scan=replace(gap.scan, ranges=np.full_like(
        gap.scan.ranges, np.inf)))
    result = run_slam(records, PARAMS)
    assert result.match_failures == 1
    trajectory = result.trajectory
    assert trajectory[0][1] == IDENTITY
    assert trajectory[60] == (
        gap.timestamp, predict_pose(trajectory[:60], target_time=gap.timestamp))


def test_repeat_run_identical(lap):
    records, result = lap
    assert run_slam(records, PARAMS).trajectory == result.trajectory


class TestWorker:
    """The younger live submap is integrated in a worker process.

    On the 120-frame lap with 50-scan submaps the worker starts after scan
    25 with submap 1. It hands a grid back each time the target finishes
    (after scans 50, 75 and 100), and the last one in ``finish_all``.
    """

    def test_grids_equal_an_in_process_integration(self, lap):
        records, result = lap
        policy = result.collection.policy
        assert policy == ExpansionPolicy(3)  # selected by the 5 cm resolution
        poses = [p for _, p in result.trajectory]
        subs = result.collection.submaps
        assert len(subs) == 5
        for sm in subs:
            # Submap k is anchored at the pose of scan 25k - 1 and takes the
            # scans from 25k on.
            first = 25 * sm.id
            assert sm.pose == poses[max(first - 1, 0)]
            assert sm.scan_count == min(PARAMS.submap_scans, FRAMES - first)
            assert _same_grid(_integrated(sm, records, poses, policy), sm.grid), sm.id

    def test_worker_builds_with_the_collection_policy(self, lap, started_processes):
        # Submap 2 lives in the worker from its first scan to the last, and
        # submap 1 takes its first 25 scans there.
        records, _ = lap
        result = run_slam(records[:60], replace(PARAMS, max_expansions=1))
        assert result.match_failures == 0
        assert len(started_processes) == 1
        poses = [p for _, p in result.trajectory]
        subs = result.collection.submaps
        assert [sm.scan_count for sm in subs] == [50, 35, 10]
        for sm in subs:
            built = _integrated(sm, records, poses, ExpansionPolicy(1))
            assert _same_grid(built, sm.grid), sm.id
            other = _integrated(sm, records, poses, ExpansionPolicy(3))
            assert not _same_grid(other, sm.grid), sm.id

    @pytest.mark.parametrize("frames,workers", [(24, 0), (60, 1)])
    def test_no_worker_outlives_a_run(self, lap, started_processes, frames, workers):
        # The second live submap is spawned after scan 25; a shorter run
        # starts no worker.
        records, _ = lap
        run_slam(records[:frames], PARAMS)
        assert len(started_processes) == workers
        assert all(p.returncode is not None for p in started_processes)

    def test_raising_records_stop_the_worker(self, lap, started_processes):
        records, _ = lap

        def truncated():
            for k, record in enumerate(records):
                if k == 40:
                    raise OSError("log truncated")
                yield record

        # Holding the traceback keeps run_slam's collection alive, so only
        # run_slam itself can have stopped the worker.
        with pytest.raises(OSError, match="log truncated") as raised:
            run_slam(truncated(), PARAMS)
        assert raised.tb is not None
        assert len(started_processes) == 1
        assert started_processes[0].returncode is not None

    def test_killed_worker_raises(self, lap, started_processes):
        records, _ = lap

        def killing():
            for k, record in enumerate(records):
                if k == 40:
                    started_processes[0].kill()
                yield record

        outcome = []
        runner = threading.Thread(
            target=lambda: outcome.append(_raised(run_slam, killing(), PARAMS)),
            daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "run_slam hung on a dead worker"
        assert isinstance(outcome[0], SubmapWorkerError)
        assert "submap worker" in str(outcome[0])

    def test_script_without_main_guard(self, lap, tmp_path):
        # The worker must find the package on its own when the caller put
        # it on sys.path at run time, and must not re-run the caller.
        src = Path(sdfslam.__file__).resolve().parent.parent
        script = tmp_path / "lap.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from sdfslam.simulate import rectangle_circuit, run_scenario\n"
            "from sdfslam.slam import SlamParams, run_slam\n"
            "records = run_scenario(*rectangle_circuit(seed=7))[:60]\n"
            "for _, pose in run_slam(records, SlamParams(submap_cells=200)).trajectory:\n"
            "    print(repr(pose))\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # Poses depend only on earlier frames, so the lap's first 60 match.
        _, result = lap
        assert proc.stdout.splitlines() == [repr(p) for _, p in result.trajectory[:60]]


def _integrated(sm, records, poses, policy):
    """``sm``'s scans, from scan 25 * id on, integrated here into a fresh grid."""
    grid = SdfGrid.unknown(sm.grid.geometry, sm.grid.truncation, sm.grid.w_max)
    for k in range(25 * sm.id, 25 * sm.id + sm.scan_count):
        integrate_scan(grid, records[k].scan, compose(inverse(sm.pose), poses[k]), policy)
    return grid


def _same_grid(a, b):
    return a.F.tobytes() == b.F.tobytes() and a.W.tobytes() == b.W.tobytes()


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return exc
    return None
