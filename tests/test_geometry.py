import math

import numpy as np
import pytest

from sdfslam.geometry import (
    IDENTITY,
    GridGeometry,
    LaserScan,
    Pose2,
    compose,
    inverse,
    normalize_angle,
    scan_to_points,
    transform_points,
)


def pose_matrix(p: Pose2) -> np.ndarray:
    c, s = math.cos(p.theta), math.sin(p.theta)
    return np.array([[c, -s, p.x], [s, c, p.y], [0.0, 0.0, 1.0]])


def random_pose(rng) -> Pose2:
    return Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-10, 10))


class TestAngles:
    def test_wrap_range(self):
        for theta in [-10.0, -math.pi, -1e-9, 0.0, 1.0, math.pi, 7.0, 123.456]:
            w = normalize_angle(theta)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)
            assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)

    def test_pi_maps_to_pi(self):
        assert normalize_angle(math.pi) == math.pi
        assert normalize_angle(-math.pi) == math.pi


class TestPose:
    def test_identity_compose(self):
        p = Pose2(1.2, -0.4, 0.9)
        assert compose(IDENTITY, p) == p
        assert compose(p, IDENTITY) == p

    def test_quarter_turn_point(self):
        p = Pose2(1.0, 0.0, math.pi / 2)
        x, y = transform_points(p, [(1.0, 0.0)])[0]
        assert math.isclose(x, 1.0, abs_tol=1e-15)
        assert math.isclose(y, 1.0, abs_tol=1e-15)

    def test_half_turn_point(self):
        x, y = transform_points(Pose2(0, 0, math.pi), [(1.0, 0.0)])[0]
        assert math.isclose(x, -1.0, abs_tol=1e-15)
        assert math.isclose(y, 0.0, abs_tol=1e-15)

    def test_identity_point(self):
        assert transform_points(IDENTITY, [(3.0, 4.0)]).tolist() == [[3.0, 4.0]]

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = random_pose(rng)
            q = compose(p, inverse(p))
            assert abs(q.x) < 1e-12 and abs(q.y) < 1e-12 and abs(q.theta) < 1e-12

    def test_compose_cancellation(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            c = compose(a, compose(inverse(a), b))
            assert abs(c.x - b.x) < 1e-12
            assert abs(c.y - b.y) < 1e-12
            assert abs(normalize_angle(c.theta - b.theta)) < 1e-12

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            m = pose_matrix(a) @ pose_matrix(b)
            c = compose(a, b)
            assert np.allclose(pose_matrix(c), m, atol=1e-12)
            d = rng.uniform(-3, 3, (5, 2))
            expect = np.column_stack((d, np.ones(5))) @ m.T
            got = transform_points(c, d)
            assert np.allclose(got, expect[:, :2], atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b, c = (random_pose(rng) for _ in range(3))
            lhs = compose(compose(a, b), c)
            rhs = compose(a, compose(b, c))
            assert abs(lhs.x - rhs.x) < 1e-10
            assert abs(lhs.y - rhs.y) < 1e-10
            assert abs(normalize_angle(lhs.theta - rhs.theta)) < 1e-10


class TestLaserScan:
    def test_single_beam(self):
        scan = LaserScan(0.0, 0.1, [2.0], 0.05, 10.0)
        pts = scan_to_points(scan)
        assert pts.shape == (1, 2)
        assert np.allclose(pts[0], (2.0, 0.0))

    def test_below_range_min_dropped(self):
        scan = LaserScan(0.0, 0.1, [0.01, 2.0], 0.05, 10.0)
        assert len(scan_to_points(scan)) == 1

    def test_invalid_values_dropped(self):
        scan = LaserScan(0.0, 0.1, [np.nan, np.inf, -1.0, 11.0, 5.0], 0.05, 10.0)
        pts = scan_to_points(scan)
        assert len(pts) == 1
        assert np.all(np.isfinite(pts))

    def test_beam_order_preserved(self):
        scan = LaserScan(-0.5, 0.25, [1.0, np.nan, 2.0, 3.0], 0.05, 10.0)
        pts = scan_to_points(scan)
        angles = [-0.5, 0.0, 0.25]
        for (x, y), a, r in zip(pts, angles, [1.0, 2.0, 3.0]):
            assert math.isclose(x, r * math.cos(a), abs_tol=1e-12)
            assert math.isclose(y, r * math.sin(a), abs_tol=1e-12)


class TestGridGeometry:
    def test_roundtrip_cell_centers(self):
        geom = GridGeometry(-1.3, 0.7, 0.05, 40, 30)
        cols, rows = (a.ravel() for a in np.meshgrid(np.arange(0, 40, 7),
                                                     np.arange(0, 30, 5)))
        back = geom.world_to_cells(geom.cells_to_world(cols, rows))
        assert np.array_equal(back[0], cols) and np.array_equal(back[1], rows)
        assert geom.holds(cols, rows).all()
        # The first and last cell of each axis, and one step beyond them.
        beyond = [False, True, True, False]
        assert geom.holds(np.array([-1, 0, 39, 40]), np.full(4, 5)).tolist() == beyond
        assert geom.holds(np.full(4, 5), np.array([-1, 0, 29, 30])).tolist() == beyond

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 0.0, 5, 5)
        with pytest.raises(ValueError, match="resolution"):
            GridGeometry(0, 0, math.inf, 5, 5)
        with pytest.raises(ValueError, match="origin_x"):
            GridGeometry(math.nan, 0, 0.05, 5, 5)
        with pytest.raises(ValueError, match="origin_y"):
            GridGeometry(0, -math.inf, 0.05, 5, 5)
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 0.05, 0, 5)

    def test_rejects_nan_resolution(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 0, math.nan, 5, 5)

    def test_points_land_in_nearest_cell(self):
        # Cells are center-anchored: a point lies within half a cell of its
        # cell's center on each axis, on and off the grid alike.
        geom = GridGeometry(0.2, -0.4, 0.1, 25, 25)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 3, (100, 2))
        cols, rows = geom.world_to_cells(pts)
        assert cols.dtype == rows.dtype == np.int64
        offset = np.abs(pts - geom.cells_to_world(cols, rows))
        assert np.all(offset <= 0.5 * geom.resolution + 1e-12)

    def test_corners_cover_cell_area(self):
        geom = GridGeometry(0.0, 0.0, 0.5, 4, 2)
        corners = geom.corners()
        assert corners[0] == (-0.25, -0.25)
        assert corners[2] == (1.75, 0.75)
