"""The batched simulator against its per-frame form.

``run_scenario`` and ``simulate_scan`` share one core that raycasts a few
frames at a time against every segment, with each frame's inactive dynamic
segments masked out, and draws each frame's noise and outliers from that
frame's own generator. The reference below is the per-frame composition the
core replaced: one raycast against the frame's active segments, then the
frame's normal, coin and outlier draws. Both forms must give the same bytes
for every range, timestamp and true pose.
"""

import math

import numpy as np
import pytest

from sdfslam import simulate
from sdfslam.geometry import Pose2
from sdfslam.simulate import (
    DISCONTINUITY_BOOST,
    DISCONTINUITY_STEP,
    SensorModel,
    TrajectoryScript,
    World,
    parse_scenario,
    rectangle_circuit,
    run_scenario,
    simulate_scan,
)

from conftest import make_square_world

CHUNK = simulate._CHUNK


def reference_raycast(segs, origin, dirs, range_max):
    ax = segs[:, 0][None, :] - origin[0]
    ay = segs[:, 1][None, :] - origin[1]
    ex = (segs[:, 2] - segs[:, 0])[None, :]
    ey = (segs[:, 3] - segs[:, 1])[None, :]
    dx = dirs[:, 0][:, None]
    dy = dirs[:, 1][:, None]

    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ax * ey - ay * ex) / denom
        s = (ax * dy - ay * dx) / denom
    ok = (np.abs(denom) > 1e-12) & (s >= 0.0) & (s <= 1.0) & (t > 1e-9) & (t <= range_max)
    t = np.where(ok, t, np.inf)
    return t.min(axis=1)


def reference_segments(world, scan_index):
    active = [d.segment for d in world.dynamic_segments
              if d.first <= scan_index <= d.last]
    if not active:
        return world.static_segments
    return np.vstack([world.static_segments, np.asarray(active, dtype=np.float64)])


def reference_scan(world, pose, model, scan_index):
    """(ranges, true) of one frame, as the simulator computed them one at a time."""
    n = model.beam_count
    angles = pose.theta + model.angle_min + model.angle_increment * np.arange(n)
    dirs = np.column_stack((np.cos(angles), np.sin(angles)))
    true = reference_raycast(reference_segments(world, scan_index),
                             np.array([pose.x, pose.y]), dirs, model.range_max)

    rng = simulate._rng_for_scan(model, scan_index)
    noise = rng.normal(0.0, model.noise_sigma, n) if model.noise_sigma > 0 else np.zeros(n)
    coins = rng.random(n)

    hit = np.isfinite(true)
    rate = np.full(n, model.outlier_rate)
    if model.outlier_mode == "discontinuity" and n > 1:
        with np.errstate(invalid="ignore"):
            step = np.abs(np.diff(true))
        disc = np.zeros(n, dtype=bool)
        jump = ~np.isfinite(step) | (step > DISCONTINUITY_STEP)
        disc[:-1] |= jump
        disc[1:] |= jump
        rate[disc] = np.minimum(1.0, rate[disc] * DISCONTINUITY_BOOST)
    outlier = hit & (coins < rate)

    ranges = np.where(hit, true + noise, np.inf)
    if outlier.any():
        lows = np.full(n, model.range_min)
        draws = rng.uniform(lows[outlier], np.maximum(true[outlier], model.range_min))
        ranges[outlier] = draws
    return ranges, true


def reference_run(world, script, model, rate):
    """(timestamp, true pose, ranges) per frame, one frame at a time."""
    count = int(math.floor((script.t_end - script.t_start) * rate + 1e-9)) + 1
    frames = []
    for i in range(count):
        t = script.t_start + i / rate
        pose = script.pose_at(t)
        frames.append((t, pose, reference_scan(world, pose, model, i)[0]))
    return frames


def assert_same_log(world, script, model, rate):
    records = run_scenario(world, script, model, rate)
    expected = reference_run(world, script, model, rate)
    assert len(records) == len(expected)
    for record, (t, pose, ranges) in zip(records, expected):
        assert record.timestamp == t
        assert record.gt == pose
        scan = record.scan
        assert (scan.angle_min, scan.angle_increment) == (model.angle_min,
                                                          model.angle_increment)
        assert (scan.range_min, scan.range_max) == (model.range_min, model.range_max)
        assert scan.ranges.shape == ranges.shape
        assert scan.ranges.tobytes() == ranges.tobytes()
    return records


def line_script(frames, rate=10.0):
    """A straight drive with a turn, ``frames`` frames long at ``rate``."""
    return TrajectoryScript([(0.0, Pose2(-1.0, -0.5, 0.2)),
                             ((frames - 1) / rate, Pose2(1.0, 0.5, 1.4))])


@pytest.mark.parametrize("sigma, outliers", [(0.005, 0.0), (0.01, 0.05)])
def test_rectangle_lap_at_the_benchmark_settings(sigma, outliers):
    world, script, model, rate = rectangle_circuit(noise_sigma=sigma,
                                                   outlier_rate=outliers, seed=7)
    assert len(assert_same_log(world, script, model, rate)) == 400


def test_dynamic_walls_inside_and_across_a_chunk(tmp_path):
    # One wall is seen from scan 2 to 4, inside the first chunk; the other
    # from the last two scans of the first chunk to the second of the next.
    cross = (CHUNK - 2, CHUNK + 1)
    frames = 2 * CHUNK + 3
    cfg = tmp_path / "doors.txt"
    cfg.write_text(
        "seed = 31\nnoise_sigma = 0.004\noutlier_rate = 0.05\nrate = 10\n"
        "segment = -3 -3 3 -3\nsegment = 3 -3 3 3\n"
        "segment = 3 3 -3 3\nsegment = -3 3 -3 -3\n"
        "dynamic = 2 -2 2 2 2 4\n"
        f"dynamic = -2 -2 -2 2 {cross[0]} {cross[1]}\n"
        "waypoint = 0 -0.5 0 0\n"
        f"waypoint = {(frames - 1) / 10} 0.5 0 3\n")
    world, script, model, rate = parse_scenario(cfg)
    records = assert_same_log(world, script, model, rate)
    assert len(records) == frames

    # The walls are seen exactly on their scans.
    static = World(world.static_segments)
    for i, r in enumerate(records):
        _, with_walls = simulate_scan(world, r.gt, model, i)
        _, without = simulate_scan(static, r.gt, model, i)
        seen = 2 <= i <= 4 or cross[0] <= i <= cross[1]
        assert (with_walls < without).any() == seen, i


def test_uniform_outliers():
    world = make_square_world()
    model = SensorModel(noise_sigma=0.01, outlier_rate=0.2, outlier_mode="uniform", seed=5)
    assert_same_log(world, line_script(CHUNK + 5), model, 10.0)


def test_noise_free():
    world = make_square_world()
    model = SensorModel(noise_sigma=0.0, seed=5)
    records = assert_same_log(world, line_script(CHUNK + 1), model, 10.0)
    for i, r in enumerate(records):
        assert np.array_equal(r.scan.ranges, simulate_scan(world, r.gt, model, i)[1])


def test_one_frame_script():
    world = make_square_world()
    script = TrajectoryScript([(0.0, Pose2(0.1, 0.2, 0.3))])
    records = assert_same_log(world, script, SensorModel(noise_sigma=0.01, seed=2), 10.0)
    assert len(records) == 1


@pytest.mark.parametrize("frames", [CHUNK - 1, CHUNK, 3 * CHUNK + 1])
def test_frame_counts_around_the_chunk_size(frames):
    world = make_square_world()
    model = SensorModel(noise_sigma=0.01, outlier_rate=0.1, seed=8)
    assert len(assert_same_log(world, line_script(frames), model, 10.0)) == frames


def test_one_beam():
    world = make_square_world()
    model = SensorModel(beam_count=1, noise_sigma=0.01, outlier_rate=0.3, seed=4)
    records = assert_same_log(world, line_script(CHUNK + 3), model, 10.0)
    assert all(r.scan.ranges.shape == (1,) for r in records)


def test_simulate_scan_is_the_reference_frame():
    world = make_square_world()
    model = SensorModel(noise_sigma=0.01, outlier_rate=0.1, seed=3)
    for k in (0, 5, 11):
        pose = Pose2(0.1 * k, -0.05 * k, 0.4 * k)
        scan, true = simulate_scan(world, pose, model, k)
        ranges, expected_true = reference_scan(world, pose, model, k)
        assert scan.ranges.tobytes() == ranges.tobytes()
        assert true.tobytes() == expected_true.tobytes()
