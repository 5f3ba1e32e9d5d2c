import math
from types import SimpleNamespace

import numpy as np
import pytest

from sdfslam import kernels, matching
from sdfslam.geometry import (
    IDENTITY,
    GridGeometry,
    Pose2,
    compose,
    inverse,
    scan_to_points,
    transform_points,
)
from sdfslam.mapping import SdfGrid
from sdfslam.matching import (
    MatchConfig,
    MatchResult,
    SingularHessian,
    TooFewPoints,
    cost,
    gauss_newton,
    match_two_stage,
    predict_pose,
    track,
    trim_points,
)
from sdfslam.simulate import SensorModel, simulate_scan
from sdfslam.submaps import SubmapCollection, SubmapWorkerError

from conftest import build_room_map, make_square_world


def _uniform_grid(value=0.02, weight=4.0, n=30):
    geom = GridGeometry(0.0, 0.0, 0.05, n, n)
    grid = SdfGrid.unknown(geom, 0.06, 10.0)
    grid.F[:] = value
    grid.W[:] = weight
    return grid


class TestMatchConfig:
    @pytest.mark.parametrize("name", ["max_iters_stage1", "max_iters_stage2"])
    @pytest.mark.parametrize("value", [0, -1.0, math.nan, 2.5])
    def test_rejects_non_positive_and_nan(self, name, value):
        with pytest.raises(ValueError, match=name):
            MatchConfig(**{name: value})


class TestSampleSdf:
    """``kernels.bilinear_wf``, the weighted field W*F, on an SdfGrid."""

    @staticmethod
    def _sample(grid, pts):
        geom = grid.geometry
        return kernels.bilinear_wf(grid.F, grid.W, geom.origin_x, geom.origin_y,
                                   geom.resolution, grid.truncation, grid.w_max,
                                   np.asarray(pts, dtype=np.float64))

    def test_cell_center_value(self):
        grid = _uniform_grid()
        grid.F[10, 10] = 0.05
        grid.W[10, 10] = 3.0
        val, _, _ = self._sample(grid, [(0.5, 0.5)])
        assert val[0] == pytest.approx(0.15, abs=1e-7)

    def test_uniform_gradient_zero(self):
        grid = _uniform_grid()
        rng = np.random.default_rng(40)
        _, gx, gy = self._sample(grid, rng.uniform(0.1, 1.3, (20, 2)))
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_outside_saturates(self):
        grid = _uniform_grid()
        val, gx, gy = self._sample(grid, [(-1.0, 0.5)])
        assert val[0] == grid.w_max * grid.truncation
        assert gx[0] == 0.0 and gy[0] == 0.0


class TestCost:
    def test_zero_level_set_zero_cost(self):
        grid = _uniform_grid(value=0.0, weight=5.0)
        pts = np.array([[0.3, 0.3], [0.7, 0.9]])
        total, residuals = cost(grid, pts, Pose2(0, 0, 0), huber_delta=0.2)
        assert total == 0.0
        assert np.all(residuals == 0.0)

    def test_quadratic_region(self):
        # Below the Huber scale the cost is (W / w_max) * F^2.
        grid = _uniform_grid(value=0.01, weight=2.0)
        total, _ = cost(grid, np.array([[0.5, 0.5]]), Pose2(0, 0, 0), 0.02)
        assert total == pytest.approx((2.0 / 10.0) * 0.01 ** 2, abs=1e-9)

    def test_linear_region_bounds_outliers(self):
        # Above the scale the cost grows linearly: (W / w_max) * delta * (2|F| - delta).
        grid = _uniform_grid(value=0.06, weight=10.0)  # saturated residual
        delta = 0.01
        r = float(np.float32(0.06))
        total, _ = cost(grid, np.array([[0.5, 0.5]]), Pose2(0, 0, 0), delta)
        assert total == pytest.approx((10.0 / 10.0) * delta * (2 * r - delta), abs=1e-12)

    def test_unknown_support_adds_no_cost(self):
        # A point with one unknown node among its four gives no residual and
        # no cost, however far its known nodes are from the surface. That
        # holds for a point exactly on known column 5 beside unknown column 6
        # too, where column 6 has zero bilinear weight in F but the gradient
        # across the column reads it.
        grid = _uniform_grid(value=0.05, weight=10.0)
        grid.W[10, 10] = 0.0
        grid.W[:, 6] = 0.0
        pts = np.array([[0.52, 0.52], [1.0, 1.0], [5 * 0.05, 0.52]])
        total, residuals = cost(grid, pts, Pose2(0, 0, 0), 0.01)
        assert np.isnan(residuals[0])
        assert np.isnan(residuals[2])
        assert residuals[1] == pytest.approx(float(np.float32(0.05)), abs=1e-12)
        r = float(np.float32(0.05))
        assert total == pytest.approx(0.01 * (2 * r - 0.01), abs=1e-12)

    def test_truth_cheaper_than_perturbed(self, room_map):
        world = make_square_world()
        model = SensorModel(seed=9)
        truth = Pose2(0.2, -0.1, 0.4)
        scan, _ = simulate_scan(world, truth, model)
        pts = scan_to_points(scan)
        c_true, _ = cost(room_map, pts, truth, 0.2)
        c_pert, _ = cost(room_map, pts, Pose2(0.25, -0.1, 0.4), 0.2)
        assert c_true < c_pert


class TestGaussNewton:
    def test_fixed_point_at_truth(self):
        # Binary-exact corner map (resolution 1/16 m, walls on cell centers)
        # makes the truth pose an exact fixed point: points on the zero set
        # give identically zero residuals, so the pose must not move.
        res = 0.0625
        geom = GridGeometry(0.0, 0.0, res, 32, 32)
        grid = SdfGrid.unknown(geom, truncation=0.25, w_max=10.0)
        jj, ii = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        d1 = 1.0 - ii * res
        d2 = 1.0 - jj * res
        grid.F[:] = np.clip(np.minimum(d1, d2), -0.25, 0.25).astype(np.float32)
        grid.W[:] = 5.0
        pts = [(1.0, k * res) for k in range(2, 10)]
        pts += [(k * res, 1.0) for k in range(2, 10)]
        truth = Pose2(0.0, 0.0, 0.0)
        result = gauss_newton(grid, np.asarray(pts), truth, max_iters=10,
                              convergence_eps=1e-6, huber_delta=0.2)
        assert result.iterations_stage1 <= 2
        assert result.converged
        assert math.hypot(result.pose.x - truth.x, result.pose.y - truth.y) < 1e-6
        assert abs(result.pose.theta) < 1e-6

    def test_recovers_perturbed_init(self, room_map):
        world = make_square_world()
        truth = Pose2(0.0, 0.0, 0.0)
        scan, _ = simulate_scan(world, truth, SensorModel(seed=11))
        pts = scan_to_points(scan)
        init = Pose2(0.02, 0.02, math.radians(1.0))
        result = gauss_newton(room_map, pts, init, max_iters=30,
                              convergence_eps=1e-9, huber_delta=0.2)
        assert math.hypot(result.pose.x, result.pose.y) < 1e-3
        assert abs(result.pose.theta) < math.radians(0.05)

    def test_single_beam_singular(self, room_map):
        pts = np.array([[1.0, 0.0]])
        with pytest.raises(SingularHessian):
            gauss_newton(room_map, pts, Pose2(0, 0, 0), 10, 1e-6, 0.01)

    def test_empty_points_singular(self, room_map):
        with pytest.raises(SingularHessian):
            gauss_newton(room_map, np.empty((0, 2)), Pose2(0, 0, 0), 10, 1e-6, 0.01)

    def test_unknown_map_singular(self):
        grid = SdfGrid.unknown(GridGeometry(0, 0, 0.05, 30, 30), 0.06, 10.0)
        pts = np.random.default_rng(41).uniform(0.2, 1.2, (50, 2))
        with pytest.raises(SingularHessian):
            gauss_newton(grid, pts, Pose2(0, 0, 0), 10, 1e-6, 0.01)

    def test_never_worse_than_init(self, room_map):
        world = make_square_world()
        rng = np.random.default_rng(42)
        for k in range(10):
            truth = Pose2(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                          rng.uniform(-1, 1))
            scan, _ = simulate_scan(world, truth, SensorModel(seed=100 + k))
            pts = scan_to_points(scan)
            init = Pose2(truth.x + rng.uniform(-0.04, 0.04),
                         truth.y + rng.uniform(-0.04, 0.04),
                         truth.theta + rng.uniform(-0.05, 0.05))
            c0, _ = cost(room_map, pts, init, 0.2)
            result = gauss_newton(room_map, pts, init, max_iters=3,
                                  convergence_eps=1e-12, huber_delta=0.2)
            assert result.final_cost <= c0 + 1e-12

    def test_cost_invariant_under_joint_translation(self, room_map):
        # Shifting the map origin and the pose by the same whole-cell offset
        # leaves the cost unchanged.
        world = make_square_world()
        truth = Pose2(0.05, -0.15, 0.2)
        scan, _ = simulate_scan(world, truth, SensorModel(seed=12))
        pts = scan_to_points(scan)
        shift = 7 * room_map.geometry.resolution
        moved = SdfGrid(
            geometry=GridGeometry(
                room_map.geometry.origin_x + shift,
                room_map.geometry.origin_y + shift,
                room_map.geometry.resolution,
                room_map.geometry.width,
                room_map.geometry.height,
            ),
            truncation=room_map.truncation,
            w_max=room_map.w_max,
            F=room_map.F,
            W=room_map.W,
        )
        c0, _ = cost(room_map, pts, truth, 0.2)
        c1, _ = cost(moved, pts, Pose2(truth.x + shift, truth.y + shift,
                                       truth.theta), 0.2)
        assert c1 == pytest.approx(c0, abs=1e-9)

    def test_band_stop_waits_for_a_lower_cost(self, monkeypatch):
        # Every node of this corner field is known and a 1 m band keeps every
        # point, so each iterate keeps the same points. Two forced steps
        # raise the cost above init's, the second less than the first;
        # neither may end the stage, and the next, real step may.
        res = 0.0625
        grid = SdfGrid.unknown(GridGeometry(0.0, 0.0, res, 32, 32), 0.25, 10.0)
        jj, ii = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        grid.F[:] = np.clip(np.minimum(1.0 - ii * res, 1.0 - jj * res), -0.25, 0.25)
        grid.W[:] = 5.0
        pts = np.array([(1.0, k * res) for k in range(2, 10)]
                       + [(k * res, 1.0) for k in range(2, 10)])
        init = Pose2(0.01, -0.01, 0.01)
        forced = iter([(0.005, -0.005, 0.0), (-0.002, 0.002, 0.0)])
        step = matching._step
        monkeypatch.setattr(matching, "_step", lambda H, g: next(forced, None) or step(H, g))

        result = gauss_newton(grid, pts, init, 10, 1e-6, 0.01, band=1.0)
        assert result.iterations_stage1 == 3 and result.converged
        assert result.final_cost < cost(grid, pts, init, 0.01)[0]

    def test_deterministic(self, room_map):
        world = make_square_world()
        scan, _ = simulate_scan(world, Pose2(0, 0, 0), SensorModel(seed=13))
        pts = scan_to_points(scan)
        init = Pose2(0.01, -0.01, 0.01)
        a = gauss_newton(room_map, pts, init, 10, 1e-6, 0.2)
        b = gauss_newton(room_map, pts, init, 10, 1e-6, 0.2)
        assert a == b


class TestStep:
    """``matching._step``, the closed-form damped solve of the 3x3 system."""

    @staticmethod
    def _spd(eigs, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        H = (q * np.asarray(eigs)) @ q.T
        return 0.5 * (H + H.T)

    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(43)
        for k in range(200):
            scale = 10.0 ** rng.uniform(-3, 3)
            H = scale * self._spd(10.0 ** rng.uniform(0, 2, 3), seed=k)
            g = rng.normal(size=3) * scale
            want = np.linalg.solve(H + 1e-6 * np.trace(H) * np.eye(3), -g)
            got = np.array(matching._step(H, g))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("H", [
        np.zeros((3, 3)),
        np.full((3, 3), math.nan),
        np.diag([1.0, math.inf, 1.0]),
        np.diag([1.0, 1.0, math.nan]),
        # One direction seen: every point's gradient along y at the origin.
        np.outer([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
        # A corridor along x: gradients along y only, so x is unobservable.
        (lambda J: J.T @ J)(np.column_stack((np.zeros(20), np.ones(20),
                                             np.linspace(-3.0, 3.0, 20)))),
    ], ids=["zero", "nan", "inf", "nan-diagonal", "rank-1", "corridor-rank-2"])
    def test_singular_normal_matrix_raises(self, H):
        with pytest.raises(SingularHessian):
            matching._step(H, np.ones(3))

    @pytest.mark.parametrize("ratio,singular", [(1e-11, True), (1e-9, False)])
    def test_eigenvalue_ratio_threshold(self, ratio, singular):
        H = self._spd([1.0, 0.5, ratio], seed=44)
        eigs = np.linalg.eigvalsh(H)
        assert (eigs[0] < 1e-10 * eigs[-1]) == singular
        if singular:
            with pytest.raises(SingularHessian):
                matching._step(H, np.ones(3))
        else:
            assert np.isfinite(matching._step(H, np.ones(3))).all()


def _young_submap_case():
    """A three-scan submap and a fourth scan, with its init in the submap frame."""
    world = make_square_world()
    model = SensorModel(noise_sigma=0.005, seed=70)
    coll = SubmapCollection()
    for k, pose in enumerate([Pose2(0.0, 0.0, 0.0), Pose2(0.1, 0.05, 0.2),
                              Pose2(0.2, 0.1, 0.4)]):
        scan, _ = simulate_scan(world, pose, model, scan_index=k)
        coll.add_scan(scan, pose)
    target = coll.matching_target()
    scan, _ = simulate_scan(world, Pose2(0.3, 0.15, 0.6), model, scan_index=3)
    return target.grid, scan, compose(inverse(target.pose), Pose2(0.3, 0.15, 0.6))


@pytest.fixture(params=["clean", "outliers", "young-submap"])
def match_case(request, room_map):
    """(grid, scan, init) for a clean scan, an outlier scan and a young submap."""
    if request.param == "young-submap":
        return _young_submap_case()
    truth = Pose2(0.05, -0.05, 0.3)
    rate = 0.12 if request.param == "outliers" else 0.0
    scan, _ = simulate_scan(make_square_world(), truth,
                            SensorModel(noise_sigma=0.005, outlier_rate=rate, seed=18))
    return room_map, scan, Pose2(truth.x + 0.01, truth.y - 0.01, truth.theta + 0.01)


class TestMatchTwoStage:
    def test_clean_scan_trims_nothing(self, room_map):
        world = make_square_world()
        truth = Pose2(0.1, 0.1, 0.5)
        scan, _ = simulate_scan(world, truth, SensorModel(seed=14))
        result = match_two_stage(room_map, scan, truth)
        assert result.points_trimmed <= 3
        assert result.points_used + result.points_trimmed == len(scan_to_points(scan))

    def test_outliers_trimmed_and_pose_held(self, room_map):
        world = make_square_world()
        truth = Pose2(0.0, 0.0, 0.0)
        sigma = 0.005
        clean_model = SensorModel(noise_sigma=sigma, seed=15)
        dirty_model = SensorModel(noise_sigma=sigma, outlier_rate=0.12, seed=15)

        errs_clean, errs_dirty, frac = [], [], []
        for k in range(8):
            scan_c, _ = simulate_scan(world, truth, clean_model, scan_index=k)
            scan_d, _ = simulate_scan(world, truth, dirty_model, scan_index=k)
            rc = match_two_stage(room_map, scan_c, truth)
            rd = match_two_stage(room_map, scan_d, truth)
            errs_clean.append(math.hypot(rc.pose.x, rc.pose.y))
            errs_dirty.append(math.hypot(rd.pose.x, rd.pose.y))
            frac.append(rd.points_trimmed / (rd.points_used + rd.points_trimmed))
        assert 0.05 < np.mean(frac) < 0.35
        assert np.mean(errs_dirty) <= 2.0 * np.mean(errs_clean) + 2e-4

    def test_nearly_all_outliers_too_few_points(self, room_map):
        from sdfslam.geometry import LaserScan

        # A handful of beams on real walls keep stage 1 solvable; the rest
        # are premature returns in carved free space, so fewer than ten
        # points survive the trim.
        world = make_square_world()
        scan, true = simulate_scan(world, Pose2(0, 0, 0), SensorModel(seed=17))
        ranges = np.full_like(scan.ranges, 0.3)
        ranges[::45] = true[::45]
        bad = LaserScan(scan.angle_min, scan.angle_increment, ranges,
                        scan.range_min, scan.range_max)
        with pytest.raises(TooFewPoints):
            match_two_stage(room_map, bad, Pose2(0, 0, 0))

    def test_retrim_is_stable(self, room_map):
        world = make_square_world()
        truth = Pose2(0.05, 0.05, 0.1)
        scan, _ = simulate_scan(world, truth,
                                SensorModel(noise_sigma=0.005, seed=16))
        r1 = match_two_stage(room_map, scan, truth)
        pts = scan_to_points(scan)
        keep1 = trim_points(room_map, pts, r1.pose, room_map.truncation)
        r2 = gauss_newton(room_map, pts[keep1], r1.pose, 20, 1e-6, 0.2)
        keep2 = trim_points(room_map, pts, r2.pose, room_map.truncation)
        changed = np.count_nonzero(keep1 != keep2)
        assert changed <= max(2, 0.01 * len(pts))

    def test_every_used_point_has_a_residual(self):
        # A young submap's observed space ends close to its walls, so some
        # points of a new scan sit next to unknown nodes. Such a point has
        # no residual, so the trim must not count it as used.
        grid, scan, init = _young_submap_case()
        delta = grid.truncation / 6.0
        pts = scan_to_points(scan)

        stage1 = gauss_newton(grid, pts, init, MatchConfig.max_iters_stage1, 1e-6, delta)
        keep = trim_points(grid, pts, stage1.pose, grid.truncation)
        _, residuals = cost(grid, pts[keep], stage1.pose, delta)
        result = match_two_stage(grid, scan, init)
        assert result.points_used == np.count_nonzero(np.isfinite(residuals))
        assert np.isfinite(residuals).all()

    def test_samples_each_pose_once(self, match_case, monkeypatch):
        # Stage one samples its init and each iterate; the trim and stage
        # two's start reuse stage one's sample at its best pose.
        grid, scan, init = match_case
        calls = []
        sample = matching._sample

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(matching, "_sample", counted)
        result = match_two_stage(grid, scan, init)
        assert len(calls) == (result.iterations_stage1 + 1) + result.iterations_stage2

    def test_stage_one_stops_once_its_points_repeat(self, match_case, monkeypatch):
        # Stage one stops at the first iterate that costs less than every
        # earlier one and keeps the points the iterate before it kept; init
        # is the first iterate.
        grid, scan, init = match_case
        delta, band = grid.truncation / 6.0, grid.truncation
        pts = scan_to_points(scan)
        poses = []
        transform = matching.transform_points

        def recorded(pose, points):
            poses.append(pose)
            return transform(pose, points)

        monkeypatch.setattr(matching, "transform_points", recorded)
        stage1 = gauss_newton(grid, pts, init, MatchConfig.max_iters_stage1, 1e-6, delta,
                              band=band)
        monkeypatch.undo()

        n = stage1.iterations_stage1
        assert len(poses) == n + 1 and poses[0] == init
        costs = [cost(grid, pts, pose, delta)[0] for pose in poses]
        kept = [trim_points(grid, pts, pose, band) for pose in poses]

        def stops(k):
            return costs[k] < min(costs[:k]) and np.array_equal(kept[k], kept[k - 1])

        assert n < MatchConfig.max_iters_stage1
        assert stops(n) and stage1.converged
        assert not any(stops(k) for k in range(1, n))
        assert stage1.pose == poses[n]
        assert match_two_stage(grid, scan, init).iterations_stage1 == n

    def test_equals_public_stage_composition(self, match_case):
        # Reusing the sample changes no bit of the result, and the match
        # trims at the truncation with a Huber scale of a sixth of it. Stage
        # one's result carries the sample of its points at its best pose.
        grid, scan, init = match_case
        cfg, delta = MatchConfig(), grid.truncation / 6.0
        pts = scan_to_points(scan)
        stage1 = gauss_newton(grid, pts, init, cfg.max_iters_stage1, 1e-6, delta,
                              band=grid.truncation)
        keep = trim_points(grid, pts, stage1.pose, grid.truncation)
        n_keep = int(keep.sum())
        stage2 = gauss_newton(grid, pts[keep], stage1.pose, cfg.max_iters_stage2,
                              1e-6, delta)
        expected = MatchResult(stage2.pose, stage2.final_cost, stage1.iterations_stage1,
                               stage2.iterations_stage1, n_keep, len(pts) - n_keep,
                               stage2.converged)

        assert match_two_stage(grid, scan, init) == expected
        fresh = matching._sample(grid, transform_points(stage1.pose, pts))
        for got, want in zip(stage1.sample, fresh, strict=True):
            assert np.array_equal(got, want)


class TestPredictPose:
    def test_single_prior(self):
        p = Pose2(1.0, 2.0, 0.5)
        assert predict_pose([(0.0, p)], target_time=0.1) == p

    def test_linear_extrapolation(self):
        history = [(0.0, Pose2(0, 0, 0)), (1.0, Pose2(0.1, 0, 0))]
        pred = predict_pose(history, target_time=2.0)
        assert pred.x == pytest.approx(0.2)
        assert pred.y == 0.0 and pred.theta == 0.0

    def test_rotation_matches_angular_velocity(self):
        omega = 0.3
        history = [(1.0, Pose2(0, 0, 0.7)), (1.5, Pose2(0, 0, 0.7 + 0.5 * omega))]
        pred = predict_pose(history, target_time=2.5)
        assert pred.theta == pytest.approx(0.7 + 1.5 * omega, abs=1e-9)

    def test_shortest_arc_wrap(self):
        history = [(0.0, Pose2(0, 0, math.pi - 0.1)),
                   (1.0, Pose2(0, 0, -math.pi + 0.1))]
        pred = predict_pose(history, target_time=2.0)
        assert pred.theta == pytest.approx(-math.pi + 0.3, abs=1e-12)

    def test_requires_history(self):
        with pytest.raises(ValueError):
            predict_pose([], target_time=0.0)


def _log(frames=5):
    """Records whose scan is their index, 0.1 s apart."""
    return [SimpleNamespace(timestamp=0.1 * k, scan=k) for k in range(frames)]


def _curving(scan, start):
    """A fake matcher: record k lands at x = k * k, whatever its start."""
    return Pose2(float(scan * scan), 0.0, 0.1 * scan)


class TestTrack:
    """``track`` with a fake ``register``; no grid is built."""

    @pytest.mark.parametrize("failure", [TooFewPoints, SingularHessian])
    def test_failed_record_keeps_its_start_pose(self, failure):
        starts = []

        def register(scan, start):
            starts.append(start)
            if scan == 3:
                raise failure("no match")
            return _curving(scan, start)

        init = Pose2(0.5, -0.25, 0.125)
        trajectory, _, failures = track(_log(), register, init)
        assert failures == 1
        assert starts[0] == init
        for k in range(1, 5):
            assert starts[k] == predict_pose(trajectory[:k], 0.1 * k)
        assert trajectory[3] == (0.1 * 3, starts[3])
        assert [pose for _, pose in trajectory] == [
            starts[3] if k == 3 else _curving(k, None) for k in range(5)]

    def test_starts_at_the_identity(self):
        assert track(_log(1), lambda scan, start: start)[0] == [(0.0, IDENTITY)]

    def test_then_sees_each_pose_before_the_next_match(self):
        events = []

        def register(scan, start):
            events.append(("register", scan))
            if scan == 2:
                raise TooFewPoints("no match")
            return _curving(scan, start)

        trajectory, _, _ = track(_log(), register,
                                 then=lambda scan, pose: events.append(("then", scan, pose)))
        expected = []
        for k, (_, pose) in enumerate(trajectory):
            expected += [("register", k), ("then", k, pose)]
        assert events == expected

    @pytest.mark.parametrize("error", [SubmapWorkerError("worker died"),
                                       OSError("log truncated")])
    def test_other_errors_propagate(self, error):
        seen = []

        def register(scan, start):
            if scan == 2:
                raise error
            return _curving(scan, start)

        with pytest.raises(type(error)) as raised:
            track(_log(), register, then=lambda scan, pose: seen.append(scan))
        assert raised.value is error
        assert seen == [0, 1]

    def test_one_frame_time_per_record(self):
        trajectory, frame_seconds, failures = track(_log(7), _curving)
        assert len(trajectory) == len(frame_seconds) == 7
        assert all(s >= 0.0 for s in frame_seconds)
        assert failures == 0
        assert track([], _curving) == ([], [], 0)
