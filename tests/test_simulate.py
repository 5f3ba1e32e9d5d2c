import math

import numpy as np
import pytest

from sdfslam.geometry import Pose2, transform_points, scan_to_points
from sdfslam.simulate import (
    SCAN_RATE,
    DynamicSegment,
    SensorModel,
    TrajectoryScript,
    World,
    _raycast_batch,
    parse_scenario,
    rectangle_circuit,
    run_scenario,
    simulate_scan,
)

from conftest import make_square_world


def point_segment_distance(px, py, seg):
    x1, y1, x2, y2 = seg
    dx, dy = x2 - x1, y2 - y1
    t = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
    t = min(max(t, 0.0), 1.0)
    return math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def min_distance_to_world(px, py, world, scan_index=None):
    return min(point_segment_distance(px, py, seg)
               for seg in world.segments_for(scan_index))


class TestRaycast:
    """``_raycast_batch``, the simulator's ray caster: inf marks a miss."""

    ORIGIN = np.zeros(2)
    EAST = np.array([[1.0, 0.0]])

    def test_perpendicular_wall(self):
        segs = np.array([[5.0, -1.0, 5.0, 1.0]])
        assert _raycast_batch(segs, self.ORIGIN, self.EAST, 10.0)[0] == pytest.approx(5.0)

    def test_parallel_is_miss(self):
        segs = np.array([[0.0, 1.0, 5.0, 1.0]])
        assert _raycast_batch(segs, self.ORIGIN, self.EAST, 10.0)[0] == np.inf

    def test_beyond_range_is_miss(self):
        segs = np.array([[5.0, -1.0, 5.0, 1.0]])
        assert _raycast_batch(segs, self.ORIGIN, self.EAST, 4.0)[0] == np.inf

    def test_nearest_hit_wins(self):
        segs = np.array([
            [3.0, -1.0, 3.0, 1.0],
            [2.0, -1.0, 2.0, 1.0],
        ])
        assert _raycast_batch(segs, self.ORIGIN, self.EAST, 10.0)[0] == pytest.approx(2.0)

    def test_matches_ray_marching_oracle(self):
        rng = np.random.default_rng(50)
        for trial in range(10):
            segs = rng.uniform(-4, 4, (5, 4))
            segs[:, 2:] = segs[:, :2] + rng.uniform(0.5, 3.0, (5, 2))
            origin = rng.uniform(-1, 1, 2)
            ang = rng.uniform(-math.pi, math.pi)
            d = (math.cos(ang), math.sin(ang))
            got = _raycast_batch(segs, origin, np.array([d]), 10.0)[0]

            # March the ray at 0.1mm and find the first near-contact.
            t = np.arange(1e-4, 10.0, 1e-4)
            px = origin[0] + d[0] * t
            py = origin[1] + d[1] * t
            dist = np.full(len(t), np.inf)
            for seg in segs:
                ex, ey = seg[2] - seg[0], seg[3] - seg[1]
                L2 = ex * ex + ey * ey
                s = ((px - seg[0]) * ex + (py - seg[1]) * ey) / L2
                s = np.clip(s, 0.0, 1.0)
                dd = np.hypot(px - (seg[0] + s * ex), py - (seg[1] + s * ey))
                dist = np.minimum(dist, dd)
            close = np.flatnonzero(dist < 5e-5)
            expect = t[close[0]] if len(close) else None

            if expect is None:
                assert got > 9.99
            else:
                assert abs(got - expect) < 1e-3

    def test_dynamic_segment_schedule(self):
        world = World(
            np.array([[5.0, -1.0, 5.0, 1.0]]),
            [DynamicSegment((2.0, -1.0, 2.0, 1.0), first=3, last=5)],
        )
        hits = [_raycast_batch(world.segments_for(k), self.ORIGIN, self.EAST, 10.0)[0]
                for k in (2, 4, 6, None)]
        assert hits == pytest.approx([5.0, 2.0, 5.0, 5.0])

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            World(np.array([[1.0, 1.0, 1.0, 1.0]]))


class TestSimulateScan:
    def test_noise_free_exact(self):
        world = make_square_world()
        model = SensorModel(noise_sigma=0.0, outlier_rate=0.0, seed=0)
        scan, true = simulate_scan(world, Pose2(0, 0, 0), model)
        assert np.array_equal(scan.ranges, true)

    def test_deterministic_reruns(self):
        world = make_square_world()
        model = SensorModel(noise_sigma=0.01, outlier_rate=0.1, seed=123)
        a, _ = simulate_scan(world, Pose2(0.1, 0.2, 0.3), model, scan_index=5)
        b, _ = simulate_scan(world, Pose2(0.1, 0.2, 0.3), model, scan_index=5)
        assert np.array_equal(a.ranges, b.ranges)

    def test_different_scan_index_differs(self):
        world = make_square_world()
        model = SensorModel(noise_sigma=0.01, seed=123)
        a, _ = simulate_scan(world, Pose2(0, 0, 0), model, scan_index=0)
        b, _ = simulate_scan(world, Pose2(0, 0, 0), model, scan_index=1)
        assert not np.array_equal(a.ranges, b.ranges)

    def test_backprojection_on_segments(self):
        world = make_square_world()
        model = SensorModel(seed=1)
        rng = np.random.default_rng(51)
        for _ in range(5):
            pose = Pose2(rng.uniform(-1, 1), rng.uniform(-1, 1),
                         rng.uniform(-3, 3))
            scan, _ = simulate_scan(world, pose, model)
            pts = transform_points(pose, scan_to_points(scan))
            for x, y in pts:
                assert min_distance_to_world(x, y, world) < 1e-9

    def test_outliers_always_shorter(self):
        world = make_square_world()
        clean = SensorModel(noise_sigma=0.0, outlier_rate=0.0, seed=77)
        dirty = SensorModel(noise_sigma=0.0, outlier_rate=0.3, seed=77)
        changed = 0
        for k in range(20):
            a, true = simulate_scan(world, Pose2(0, 0, 0), clean, scan_index=k)
            b, _ = simulate_scan(world, Pose2(0, 0, 0), dirty, scan_index=k)
            moved = b.ranges != a.ranges
            changed += int(np.count_nonzero(moved))
            assert np.all(b.ranges[moved] <= true[moved])
            assert np.all(b.ranges[moved] >= dirty.range_min)
        assert changed > 0

    def test_outlier_rate_calibratable(self):
        # Tune the base rate so the empirical outlier fraction lands near a
        # 15% target despite the discontinuity boost.
        world = World(np.asarray(
            [[4.0, -3.0, 4.0, 3.0], [2.0, -0.5, 2.0, 0.5]], dtype=np.float64))
        pose = Pose2(0, 0, 0)
        probe = SensorModel(noise_sigma=0.0, outlier_rate=0.5, seed=5,
                            outlier_mode="uniform")
        target = 0.15

        base = SensorModel(noise_sigma=0.0, outlier_rate=0.0, seed=5)
        _, true = simulate_scan(world, pose, base)
        with np.errstate(invalid="ignore"):
            step = np.abs(np.diff(true))
        jump = ~np.isfinite(step) | (step > 0.5)
        disc = np.zeros(len(true), dtype=bool)
        disc[:-1] |= jump
        disc[1:] |= jump
        hit = np.isfinite(true)
        q = np.count_nonzero(disc & hit) / np.count_nonzero(hit)
        rate = target / (1.0 + (5.0 - 1.0) * q)

        model = SensorModel(noise_sigma=0.0, outlier_rate=rate, seed=5)
        total, outliers = 0, 0
        for k in range(100):
            scan, true = simulate_scan(world, pose, model, scan_index=k)
            hit = np.isfinite(true)
            total += int(np.count_nonzero(hit))
            outliers += int(np.count_nonzero(scan.ranges[hit] != true[hit]))
        assert abs(outliers / total - target) < 0.03
        assert probe.outlier_mode == "uniform"

    @pytest.mark.parametrize("setting", [
        {"noise_sigma": -0.05}, {"noise_sigma": float("nan")},
        {"beam_count": 0}, {"range_min": -0.1},
        {"range_min": 5.0, "range_max": 4.0}, {"range_min": 4.0, "range_max": 4.0},
        {"range_max": float("nan")},
    ])
    def test_rejects_settings_that_simulate_something_else(self, setting):
        # A negative or NaN sigma would give noise-free scans, and an empty
        # range window or no beams would give scans with no valid reading.
        with pytest.raises(ValueError, match=next(iter(setting))):
            SensorModel(**setting)


class TestTrajectoryScript:
    def test_linear_interpolation(self):
        script = TrajectoryScript([
            (0.0, Pose2(0, 0, 0)),
            (2.0, Pose2(2.0, 0, 1.0)),
        ])
        mid = script.pose_at(1.0)
        assert mid.x == pytest.approx(1.0)
        assert mid.theta == pytest.approx(0.5)

    def test_shortest_arc_heading(self):
        script = TrajectoryScript([
            (0.0, Pose2(0, 0, math.pi - 0.1)),
            (1.0, Pose2(0, 0, -math.pi + 0.1)),
        ])
        mid = script.pose_at(0.5)
        assert abs(mid.theta) == pytest.approx(math.pi, abs=1e-12)

    def test_clamps_outside(self):
        script = TrajectoryScript([(0.0, Pose2(1, 2, 0)), (1.0, Pose2(3, 4, 0))])
        assert script.pose_at(-5.0) == Pose2(1, 2, 0)
        assert script.pose_at(5.0) == Pose2(3, 4, 0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            TrajectoryScript([(0.0, Pose2(0, 0, 0)), (0.0, Pose2(1, 1, 0))])


class TestRunScenario:
    def test_straight_script_poses_on_segment(self):
        world = make_square_world()
        script = TrajectoryScript([
            (0.0, Pose2(-1.0, 0.0, 0.0)),
            (1.0, Pose2(1.0, 0.0, 0.0)),
        ])
        records = run_scenario(world, script, SensorModel(seed=2), rate=10.0)
        assert len(records) == 11
        for r in records:
            assert r.gt.y == 0.0
            assert -1.0 <= r.gt.x <= 1.0

    def test_zero_duration_single_record(self):
        world = make_square_world()
        script = TrajectoryScript([(0.0, Pose2(0, 0, 0))])
        records = run_scenario(world, script, SensorModel(seed=2), rate=10.0)
        assert len(records) == 1

    def test_rectangle_circuit_shape(self):
        world, script, model, rate = rectangle_circuit(scans=40)
        records = run_scenario(world, script, model, rate)
        assert len(records) == 40
        assert all(r.gt is not None for r in records)
        # Loop closes where it started.
        assert records[0].gt.x == pytest.approx(records[-1].gt.x, abs=0.2)
        assert records[0].gt.y == pytest.approx(records[-1].gt.y, abs=0.2)

    def test_scenario_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "scene.txt"
        cfg.write_text(
            "# test scene\n"
            "seed = 9\n"
            "rate = 5\n"
            "beams = 91\n"
            "fov_deg = 180\n"
            "noise_sigma = 0.002\n"
            "segment = -2 -2 2 -2\n"
            "segment = 2 -2 2 2\n"
            "dynamic = 0 -1 1 -1 2 4\n"
            "waypoint = 0 0 0 0\n"
            "waypoint = 1 0.5 0 0\n"
        )
        world, script, model, rate = parse_scenario(cfg)
        assert rate == 5.0
        assert model.beam_count == 91
        assert model.seed == 9
        assert len(world.static_segments) == 2
        assert len(world.dynamic_segments) == 1
        records = run_scenario(world, script, model, rate)
        assert len(records) == 6

    def test_scenario_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("segment = 0 0 1 1\n")
        with pytest.raises(ValueError):
            parse_scenario(bad)
        bad.write_text("nonsense line\n")
        with pytest.raises(ValueError):
            parse_scenario(bad)
        # Lines with the wrong count of numbers name their file and line.
        # Two 6-number segments would otherwise be re-cut into three walls.
        for lines, line_no in (
            (["segment = 0 0 1 0 1 1", "segment = 0 1 0 0 2 2"], 1),
            (["segment = 0 0 1 0", "segment = 1 0 1"], 2),
            (["segment = 0 0 1 0", "waypoint = 0 0 0 0", "dynamic = 0 1 1 1 2 4 9"], 3),
            (["segment = 0 0 1 0", "dynamic = 0 1 1 1 2"], 2),
            (["segment = 0 0 1 0", "waypoint = 0 0 0"], 2),
            # A wall of zero length, or one scheduled to vanish before it
            # appears, names its line instead of failing late or never showing.
            (["segment = 0 0 1 0", "segment = 0 0 0 0"], 2),
            (["segment = 0 0 1 0", "segment = nan 0 1 1"], 2),
            (["segment = 0 0 1 0", "dynamic = 2 2 2 2 0 5"], 2),
            (["segment = 0 0 1 0", "dynamic = 2 -1 2 1 10 5"], 2),
            # A rate that is not finite and positive would give no frames,
            # divide by zero or overflow the frame count.
            *((["segment = 0 0 1 0", f"rate = {rate}"], 2)
              for rate in ("-5", "0", "nan", "inf")),
            # A sensor value that is bad on its own names its line.
            (["segment = 0 0 1 0", "beams = 0"], 2),
            (["segment = 0 0 1 0", "seed = 1", "outlier_rate = 2"], 3),
            (["segment = 0 0 1 0", "range_min = -1"], 2),
            (["segment = 0 0 1 0", "range_max = nan"], 2),
        ):
            bad.write_text("\n".join(lines + ["waypoint = 1 0 0 0"]) + "\n")
            with pytest.raises(ValueError, match=rf"bad\.txt:{line_no}: "):
                parse_scenario(bad)
        # Waypoints that share a time are bad only together: the file is named.
        bad.write_text("segment = 0 0 1 0\nwaypoint = 1 0 0 0\nwaypoint = 1 1 0 0\n")
        with pytest.raises(ValueError, match=r"bad\.txt: waypoint timestamps"):
            parse_scenario(bad)
        # A range pair that is bad only together names the file.
        for pair in (("range_min = 5", "range_max = 5"), ("range_max = 0.02",)):
            bad.write_text("\n".join(["segment = 0 0 1 0", *pair,
                                      "waypoint = 1 0 0 0"]) + "\n")
            with pytest.raises(ValueError, match=r"bad\.txt: range_min"):
                parse_scenario(bad)

    def test_scenario_file_takes_one_range_key_in_any_order(self, tmp_path):
        # Either bound may be set first, even past the other's default.
        cfg = tmp_path / "scene.txt"
        cfg.write_text("segment = -2 -2 2 -2\nwaypoint = 0 0 0 0\n"
                       "range_max = 0.04\nrange_min = 0.01\n")
        _, _, model, _ = parse_scenario(cfg)
        assert (model.range_min, model.range_max) == (0.01, 0.04)

    def test_scenario_file_takes_sensor_defaults(self, tmp_path):
        cfg = tmp_path / "scene.txt"
        cfg.write_text("segment = -2 -2 2 -2\nwaypoint = 0 0 0 0\n")
        _, _, model, rate = parse_scenario(cfg)
        assert model == SensorModel()
        assert rate == SCAN_RATE
