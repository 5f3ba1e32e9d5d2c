import math

import numpy as np
import pytest

from sdfslam import kernels
from sdfslam.geometry import GridGeometry, Pose2, scan_to_points, transform_points
from sdfslam.mapping import (ExpansionPolicy, SdfGrid, UpdateStats, chebyshev_ring,
                             integrate_scan, traverse_beams)
from sdfslam.simulate import (
    SensorModel,
    World,
    rectangle_circuit,
    run_scenario,
    simulate_scan,
    straight_wall_sweep,
)

from conftest import make_grid, make_square_world
from reference_mapping import (
    FREE_SPACE_PRIORITY, DegenerateFit, RegressionLine, SdfCell, UpdateEntry, collect_points,
    fit_deming, free_space_entries, free_space_extent, fuse_cell, integrate_by_ops,
    resolve_update_set, surface_update_entries, update_range)


def brute_force_line_angle(pts: np.ndarray) -> float:
    """Scan 1e5 direction angles, return the SSE-minimizing line direction."""
    c = pts.mean(axis=0)
    d = pts - c
    angles = np.linspace(0.0, math.pi, 100_000, endpoint=False)
    normals = np.column_stack((-np.sin(angles), np.cos(angles)))
    sse = (d @ normals.T) ** 2
    return float(angles[np.argmin(sse.sum(axis=0))])


class TestDeming:
    def test_horizontal_exact(self):
        line = fit_deming([(0, 0), (1, 0), (2, 0)], laser_origin=(1.0, 5.0))
        assert line.point == pytest.approx((1.0, 0.0))
        assert line.normal == pytest.approx((0.0, 1.0))

    def test_vertical_no_failure(self):
        line = fit_deming([(0, 0), (0, 1), (0, 2)], laser_origin=(-1.0, 1.0))
        assert line.normal == pytest.approx((-1.0, 0.0))

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFit):
            fit_deming([(1.0, 1.0), (1.0, 1.0), (1.0 + 1e-12, 1.0)], (0, 0))

    def test_two_points_allowed(self):
        line = fit_deming([(0, 0), (1, 1)], laser_origin=(0.0, 5.0))
        expect = 1.0 / math.sqrt(2.0)
        assert line.normal == pytest.approx((-expect, expect))

    def test_noisy_recovery_matches_angle_grid_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            angle = rng.uniform(0, math.pi)
            dx, dy = math.cos(angle), math.sin(angle)
            t = rng.uniform(-1, 1, 50)
            noise = rng.normal(0, 0.01, 50)
            pts = np.column_stack((
                0.5 + t * dx - noise * dy,
                -0.2 + t * dy + noise * dx,
            ))
            line = fit_deming(pts, laser_origin=(0.5 - 10 * dy, -0.2 + 10 * dx))
            got = math.atan2(-line.normal[0], line.normal[1]) % math.pi
            expect = brute_force_line_angle(pts)
            diff = abs(got - expect)
            diff = min(diff, math.pi - diff)
            assert diff < 1e-3

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(31)
        t = rng.uniform(-1, 1, 40)
        pts = np.column_stack((t, 0.3 * t + rng.normal(0, 0.02, 40)))
        origin = (0.0, 5.0)
        base = fit_deming(pts, origin)
        for ang in rng.uniform(-math.pi, math.pi, 20):
            c, s = math.cos(ang), math.sin(ang)
            R = np.array([[c, -s], [s, c]])
            rline = fit_deming(pts @ R.T, (R @ origin))
            expect = R @ np.asarray(base.normal)
            dot = float(np.dot(rline.normal, expect))
            assert abs(dot) > 1.0 - 1e-9
            assert dot > 0  # orientation also rotates

    def test_normal_faces_sensor(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            t = rng.uniform(-1, 1, 10)
            pts = np.column_stack((t, rng.normal(0, 0.01, 10)))
            origin = tuple(rng.uniform(-3, 3, 2))
            line = fit_deming(pts, origin)
            vx = origin[0] - line.point[0]
            vy = origin[1] - line.point[1]
            assert line.normal[0] * vx + line.normal[1] * vy >= 0.0


class TestCollectPoints:
    def test_enough_points_no_expansion(self):
        hits = {(5, 5): [(0, 0), (0.01, 0), (0.02, 0)]}
        pts, e = collect_points((5, 5), hits, ExpansionPolicy(3))
        assert len(pts) == 3 and e == 0

    def test_two_ring_expansion(self):
        # One point in the cell, one in ring 1, two in ring 2: four points
        # after two expansions.
        hits = {
            (5, 5): [(0.0, 0.0)],
            (6, 5): [(0.05, 0.0)],
            (7, 5): [(0.10, 0.0)],
            (7, 7): [(0.10, 0.10)],
        }
        pts, e = collect_points((5, 5), hits, ExpansionPolicy(3))
        assert len(pts) == 4 and e == 2

    def test_gives_up_below_two_points(self):
        hits = {(5, 5): [(0.0, 0.0)]}
        assert collect_points((5, 5), hits, ExpansionPolicy(3)) is None

    def test_two_points_at_max_expansion_accepted(self):
        hits = {(5, 5): [(0.0, 0.0)], (6, 6): [(0.05, 0.05)]}
        pts, e = collect_points((5, 5), hits, ExpansionPolicy(1))
        assert len(pts) == 2 and e == 1

    def test_ring_sizes(self):
        assert len(chebyshev_ring(1)) == 8
        assert len(chebyshev_ring(2)) == 16
        assert len(chebyshev_ring(3)) == 24


class TestUpdateRange:
    def test_no_expansion_half_width(self):
        xmin, ymin, xmax, ymax = update_range((1.0, 2.0), 0, 0.05)
        assert (xmax - xmin) == pytest.approx(0.1)
        assert (ymax - ymin) == pytest.approx(0.1)

    def test_two_expansions_doubles(self):
        xmin, _, xmax, _ = update_range((0.0, 0.0), 2, 0.05)
        assert xmax == pytest.approx(0.1)

    def test_boundary_is_closed(self):
        xmin, ymin, xmax, ymax = update_range((0.0, 0.0), 0, 0.05)
        assert xmin <= -0.05 <= xmax and ymin <= 0.0 <= ymax


class TestSurfaceEntries:
    def setup_method(self):
        self.grid = make_grid(half=0.5, res=0.05, trunc=0.06)
        # The cell at the origin and its center.
        cols, rows = self.grid.geometry.world_to_cells([(0.0, 0.0)])
        self.cell = (int(cols[0]), int(rows[0]))
        self.center = tuple(self.grid.geometry.cells_to_world(cols, rows)[0])

    def test_center_on_line_zero(self):
        cell = self.cell
        cx, cy = self.center
        line = RegressionLine((cx, cy), (0.0, 1.0))
        entries = surface_update_entries(cell, line, 0, self.grid, (cx, 5.0))
        own = [en for en in entries if en.cell == cell]
        assert own and own[0].f == pytest.approx(0.0)
        assert own[0].priority == 0.0

    def test_sensor_side_positive(self):
        cell = self.cell
        cx, cy = self.center
        # Wall 2cm below the candidate center; sensor above.
        line = RegressionLine((cx, cy - 0.02), (0.0, 1.0))
        entries = surface_update_entries(cell, line, 0, self.grid, (cx, 5.0))
        own = [en for en in entries if en.cell == cell][0]
        assert own.f == pytest.approx(0.02)

    def test_behind_clamped(self):
        # Wall 4cm above the causing cell center; the candidate one row
        # below sits 9cm behind the surface and clamps to -truncation.
        cell = self.cell
        cx, cy = self.center
        line = RegressionLine((cx, cy + 0.04), (0.0, 1.0))
        entries = surface_update_entries(cell, line, 0, self.grid, (cx, 5.0))
        below = [en for en in entries if en.cell == (cell[0], cell[1] - 1)][0]
        assert below.f == pytest.approx(-0.06)

    def test_candidates_limited_by_truncation_circle(self):
        cell = self.cell
        cx, cy = self.center
        line = RegressionLine((cx, cy), (0.0, 1.0))
        # A long update box cannot defeat the truncation-radius circle.
        entries = surface_update_entries(cell, line, 6, self.grid, (cx, 5.0))
        targets = self.grid.geometry.cells_to_world(*np.array([en.cell for en in entries]).T)
        assert np.all(np.hypot(targets[:, 0] - cx, targets[:, 1] - cy) <= 0.06 + 1e-9)

    def test_projection_box_filters(self):
        cell = self.cell
        cx, cy = self.center
        line = RegressionLine((cx, cy), (0.0, 1.0))
        entries = surface_update_entries(cell, line, 0, self.grid, (cx, 5.0))
        # e=0 box has half-width one cell: columns beyond +-1 are excluded
        # even though the row neighbors at distance one cell are in range.
        cols = {en.cell[0] - cell[0] for en in entries}
        assert cols == {-1, 0, 1}


class TestFreeSpaceExtent:
    def test_perpendicular(self):
        assert free_space_extent(5.0, 0.0, 0.06) == pytest.approx(4.94)

    def test_sixty_degrees(self):
        assert free_space_extent(5.0, math.pi / 3, 0.06) == pytest.approx(4.88)

    def test_clamp_returns_none(self):
        assert free_space_extent(5.0, math.radians(85), 0.06,
                                 gamma_clamp=math.radians(80)) is None

    def test_floor_at_zero(self):
        assert free_space_extent(0.03, 0.0, 0.06) == 0.0


class TestFreeSpaceEntries:
    def test_axis_aligned_19_cells(self):
        grid = make_grid(half=2.5, res=0.05)
        scan_like = _single_beam_scan(1.0)
        entries = free_space_entries(scan_like, Pose2(0, 0, 0), grid, [0.94])
        assert len(entries) == 19
        assert all(en.f == grid.truncation for en in entries)
        assert all(en.priority == FREE_SPACE_PRIORITY for en in entries)

    def test_short_beam_empty(self):
        grid = make_grid(half=2.5, res=0.05)
        entries = free_space_entries(_single_beam_scan(0.03), Pose2(0, 0, 0),
                                     grid, [0.0])
        assert entries == []

    def test_none_extent_skipped(self):
        grid = make_grid(half=2.5, res=0.05)
        entries = free_space_entries(_single_beam_scan(1.0), Pose2(0, 0, 0),
                                     grid, [None])
        assert entries == []


def _single_beam_scan(r):
    from sdfslam.geometry import LaserScan

    return LaserScan(0.0, 0.1, [r], 0.01, 10.0)


class TestResolve:
    def test_higher_priority_wins(self):
        entries = [
            UpdateEntry((1, 1), 0.01, 1.0, 0.05),
            UpdateEntry((1, 1), 0.04, 1.0, 0.03),
        ]
        out = resolve_update_set(entries)
        assert len(out) == 1
        assert out[0].f == 0.04 and out[0].priority == 0.03

    def test_equal_priority_fuses(self):
        entries = [
            UpdateEntry((2, 2), 0.02, 1.0, 0.05),
            UpdateEntry((2, 2), 0.04, 1.0, 0.05),
        ]
        out = resolve_update_set(entries)
        assert len(out) == 1
        assert out[0].f == pytest.approx(0.03)
        assert out[0].weight == 1.0

    def test_surface_beats_free(self):
        entries = [
            UpdateEntry((3, 3), 0.06, 1.0, FREE_SPACE_PRIORITY),
            UpdateEntry((3, 3), -0.01, 1.0, 0.10),
        ]
        out = resolve_update_set(entries)
        assert out[0].f == -0.01

    def test_order_independent(self):
        rng = np.random.default_rng(33)
        entries = []
        for _ in range(200):
            cell = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            prio = float(rng.choice([0.0, 0.05, 0.1, FREE_SPACE_PRIORITY]))
            entries.append(UpdateEntry(cell, float(rng.uniform(-0.06, 0.06)), 1.0, prio))
        base = {en.cell: en for en in resolve_update_set(entries)}
        for seed in range(5):
            rng2 = np.random.default_rng(seed)
            shuffled = list(entries)
            rng2.shuffle(shuffled)
            got = {en.cell: en for en in resolve_update_set(shuffled)}
            assert got.keys() == base.keys()
            for cell in base:
                assert got[cell].f == pytest.approx(base[cell].f, abs=1e-15)
                assert got[cell].priority == base[cell].priority


class TestFuseCell:
    def test_first_observation_passthrough(self):
        assert fuse_cell(SdfCell(0.06, 0.0), 0.03, 1.0, 10.0) == (0.03, 1.0)

    def test_saturated_weight_stays_capped(self):
        out = fuse_cell(SdfCell(0.02, 10.0), 0.02, 1.0, 10.0)
        assert out.F == pytest.approx(0.02)
        assert out.W == 10.0

    def test_equal_weight_mean(self):
        out = fuse_cell(SdfCell(0.0, 1.0), 0.06, 1.0, 10.0)
        assert out.F == pytest.approx(0.03)
        assert out.W == 2.0

    def test_commutative_below_cap(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            a, b = rng.uniform(-0.06, 0.06, 2)
            ab = fuse_cell(fuse_cell(SdfCell(0.06, 0.0), a, 1.0, 10.0), b, 1.0, 10.0)
            ba = fuse_cell(fuse_cell(SdfCell(0.06, 0.0), b, 1.0, 10.0), a, 1.0, 10.0)
            assert ab.F == ba.F  # exact: float addition commutes
            assert ab.W == ba.W


def _two_walls():
    world = World(np.array([[1.5, -2.0, 1.5, 2.0], [-2.0, 1.8, 2.0, 1.8]]))
    model = SensorModel(noise_sigma=0.003, seed=8)
    pose = Pose2(0.1, -0.2, 0.3)
    scan, _ = simulate_scan(world, pose, model)
    return make_grid(half=2.5), [(scan, pose)]


def _sparse_wall():
    # Beams 1 degree apart on a wall 3-5 m away land one to three cells
    # apart, so cells expand once, twice and three times.
    world, poses = straight_wall_sweep(wall_x=3.0, half_span=4.0, poses=60)
    scan, _ = simulate_scan(world, poses[0], SensorModel(seed=6))
    return make_grid(half=5.0), [(scan, poses[0])]


def _past_the_border():
    # The grid ends on the room's walls: about half the wall hits fall
    # just outside it, and their beams still carve.
    pose = Pose2(0.3, -0.2, 0.5)
    scan, _ = simulate_scan(make_square_world(2.0), pose,
                            SensorModel(noise_sigma=0.005, seed=9))
    return make_grid(half=2.0), [(scan, pose)]


def _single_beam():
    return make_grid(half=2.5), [(_single_beam_scan(1.0), Pose2(0.1, 0.2, 0.3))]


def _axis_aligned_beam():
    # Beam 0 points exactly along +x (uy == 0) at a wall 1.4 m away.
    from sdfslam.geometry import LaserScan

    angles = 0.01 * np.arange(60)
    scan = LaserScan(0.0, 0.01, 1.4 / np.cos(angles), 0.05, 10.0)
    return make_grid(half=2.5), [(scan, Pose2(0.1, -0.2, 0.0))]


def _between_two_fits():
    # An unfitted cell between two fitted ones whose lines tilt opposite
    # ways: its beam must take the +x neighbor's line, as _neighbor_line
    # prefers it.
    from sdfslam.geometry import LaserScan

    pose = Pose2(1.0, -1.0, 0.0)
    pts = np.array([(0.96, 0.015), (0.975, 0.025), (0.99, 0.035), (1.025, 0.025),
                    (1.06, 0.035), (1.075, 0.025), (1.09, 0.015)])
    a = np.arctan2(pts[:, 1] - pose.y, pts[:, 0] - pose.x)
    order = np.argsort(a)
    r = np.hypot(pts[:, 0] - pose.x, pts[:, 1] - pose.y)
    scan = LaserScan(float(a[order][0]), 1e-9, r[order], 0.01, 10.0)
    scan.beam_angles = lambda: a[order]  # irregular angles for this case
    return make_grid(half=2.5), [(scan, pose)]


def _circuit_stretch():
    # Twenty frames of the benchmark lap, in one grid the size of a
    # benchmark submap (200 cells) centered on the room.
    world, script, model, rate = rectangle_circuit(noise_sigma=0.005, seed=7)
    records = run_scenario(world, script, model, rate)[:20]
    half = 0.5 * 199 * 0.05
    grid = SdfGrid.unknown(GridGeometry(-half, -half, 0.05, 200, 200), 0.06, 10.0)
    return grid, [(r.scan, r.gt) for r in records]


COMPOSITION_CASES = {
    "two-walls": (_two_walls, ExpansionPolicy(3)),
    "sparse-wall-no-expansion": (_sparse_wall, ExpansionPolicy(0)),
    "sparse-wall-three-expansions": (_sparse_wall, ExpansionPolicy(3)),
    "hits-past-the-border": (_past_the_border, ExpansionPolicy(3)),
    "single-beam": (_single_beam, ExpansionPolicy(3)),
    "between-two-fits": (_between_two_fits, ExpansionPolicy(0)),
    "axis-aligned-beam": (_axis_aligned_beam, ExpansionPolicy(3)),
    "circuit-20-frames": (_circuit_stretch, ExpansionPolicy(3)),
}


class TestIntegrateScan:
    def test_empty_scan_unchanged(self):
        from sdfslam.geometry import LaserScan

        grid = make_grid()
        before = (grid.F.copy(), grid.W.copy())
        scan = LaserScan(0.0, 0.01, [np.nan] * 100, 0.05, 10.0)
        stats = integrate_scan(grid, scan, Pose2(0, 0, 0), ExpansionPolicy(3))
        assert np.array_equal(grid.F, before[0])
        assert np.array_equal(grid.W, before[1])
        assert stats.cells_updated == 0

    def test_off_grid_hit_is_dropped(self):
        # The grid never grows; a hit past its border fits no line, so its
        # beam has nothing to carve with either.
        grid = make_grid(half=0.5)
        before = (grid.F.copy(), grid.W.copy())
        stats = integrate_scan(grid, _single_beam_scan(3.0), Pose2(0, 0, 0),
                               ExpansionPolicy(3))
        assert stats == UpdateStats()
        assert np.array_equal(grid.F, before[0])
        assert np.array_equal(grid.W, before[1])

    def test_invariants_after_many_scans(self, room_map):
        assert np.all(np.abs(room_map.F) <= room_map.truncation + 1e-6)
        assert np.all(room_map.W >= 0.0)
        assert np.all(room_map.W <= room_map.w_max)

    def test_free_space_never_negative(self):
        grid = make_grid(half=2.5)
        world = World(np.array([[2.0, -2.0, 2.0, 2.0]]))
        model = SensorModel(seed=1)
        scan, _ = simulate_scan(world, Pose2(0, 0, 0), model)
        integrate_scan(grid, scan, Pose2(0, 0, 0), ExpansionPolicy(3))
        carved = (grid.W > 0) & (grid.F.astype(np.float64) >= grid.truncation * 0.999)
        assert carved.any()
        assert np.all(grid.F[grid.W > 0] >= -grid.truncation - 1e-6)

    def test_straight_wall_band_accuracy(self):
        # Noise-free wall watched from 100 poses: every updated band cell
        # carries the true signed distance to within half a cell.
        world, poses = straight_wall_sweep(wall_x=2.0, half_span=2.0, poses=100)
        grid = make_grid(half=2.5, res=0.05, trunc=0.06)
        model = SensorModel(seed=5)
        policy = ExpansionPolicy.for_resolution(0.05)
        for i, pose in enumerate(poses):
            scan, _ = simulate_scan(world, pose, model, scan_index=i)
            integrate_scan(grid, scan, pose, policy)

        rows, cols = np.nonzero(grid.W > 0.0)
        cx, cy = grid.geometry.cells_to_world(cols, rows).T
        true_sd = 2.0 - cx  # sensor side is x < 2
        # Stay clear of the wall ends.
        band = (np.abs(cy) <= 1.5) & (np.abs(true_sd) <= grid.truncation)
        err = np.abs(grid.F[rows, cols].astype(np.float64) - true_sd)[band]
        assert np.all(err <= grid.geometry.resolution / 2)
        assert band.sum() > 100

    def test_expansion_updates_more_far_cells(self):
        # Sparse far-wall hits: expansion densifies the updated band.
        world, poses = straight_wall_sweep(wall_x=8.0, half_span=4.0, poses=60)
        model = SensorModel(seed=6)

        def build(max_exp):
            grid = make_grid(half=9.0, res=0.05, trunc=0.06)
            for i, pose in enumerate(poses):
                scan, _ = simulate_scan(world, pose, model, scan_index=i)
                integrate_scan(grid, scan, pose, ExpansionPolicy(max_exp))
            return grid

        on = build(3)
        off = build(0)

        def band_count(grid):
            geom = grid.geometry
            cols, rows = np.meshgrid(np.arange(geom.width), np.arange(geom.height))
            cx = geom.origin_x + cols * geom.resolution
            cy = geom.origin_y + rows * geom.resolution
            band = (np.abs(8.0 - cx) <= grid.truncation) & (np.abs(cy) <= 3.5)
            surface = (grid.W > 0) & (grid.F.astype(np.float64) < grid.truncation * 0.999)
            return int(np.count_nonzero(band & surface))

        assert band_count(on) > band_count(off)

    def test_expansion_inactive_when_cells_dense(self):
        # With three or more points in every occupied cell the expansion
        # budget changes nothing.
        rng = np.random.default_rng(35)
        from sdfslam.geometry import LaserScan

        xs = np.repeat(np.arange(0.5, 1.5, 0.05), 4) + rng.uniform(-0.02, 0.02, 80)
        pts = np.column_stack((xs, np.full(80, 1.0)))
        r = np.hypot(pts[:, 0], pts[:, 1])
        a = np.arctan2(pts[:, 1], pts[:, 0])
        order = np.argsort(a)
        scan = LaserScan(float(a[order][0]), 1e-9, r[order], 0.01, 10.0)
        scan.beam_angles = lambda: a[order]  # irregular angles for this test

        g_on = make_grid(half=2.5)
        g_off = make_grid(half=2.5)
        integrate_scan(g_on, scan, Pose2(0, 0, 0), ExpansionPolicy(3))
        integrate_scan(g_off, scan, Pose2(0, 0, 0), ExpansionPolicy(0))
        assert np.array_equal(g_on.F, g_off.F)
        assert np.array_equal(g_on.W, g_off.W)

    def test_matches_operation_composition(self):
        # The fused fast path must equal the literal pipeline: collect, fit,
        # project, carve, resolve, fuse.
        self._check_composition("two-walls")

    @pytest.mark.parametrize("case", sorted(set(COMPOSITION_CASES) - {"two-walls"}))
    def test_matches_operation_composition_on(self, case):
        self._check_composition(case)

    @staticmethod
    def _check_composition(case):
        build, policy = COMPOSITION_CASES[case]
        fast, frames = build()
        slow = fast.copy()
        for scan, pose in frames:
            stats = integrate_scan(fast, scan, pose, policy)
            assert stats == integrate_by_ops(slow, scan, pose, policy).stats

            assert np.array_equal(fast.F, slow.F)
            assert np.array_equal(fast.W, slow.W)

    @pytest.mark.parametrize("case", sorted(COMPOSITION_CASES))
    def test_passes_match_per_cell_helpers(self, case):
        # The float32 map hides last-bit differences, so compare the array
        # passes' float64 intermediates with the per-cell helpers directly:
        # each fitted line, each resolved surface value, each beam's line.
        from sdfslam.mapping import _beam_lines, _bucket_hits, _fit_lines, _surface_updates

        build, policy = COMPOSITION_CASES[case]
        grid, frames = build()
        scan, pose = frames[0]
        geom = grid.geometry
        world_pts = transform_points(pose, scan_to_points(scan))
        cols, rows = geom.world_to_cells(world_pts)
        inb = (cols >= 0) & (cols < geom.width) & (rows >= 0) & (rows < geom.height)
        ref = integrate_by_ops(grid.copy(), scan, pose, policy)

        cells = _bucket_hits(geom, cols, rows, inb)
        fit = _fit_lines(cells, world_pts, (pose.x, pose.y), policy)
        fitted = list(zip(cells.col[fit.cell].tolist(), cells.row[fit.cell].tolist()))
        assert fitted == list(ref.lines)
        for k, cell in enumerate(fitted):
            line = ref.lines[cell]
            assert (fit.cx[k], fit.cy[k]) == line.point
            assert (fit.nx[k], fit.ny[k]) == line.normal
            assert fit.e[k] == ref.expansions[cell]

        flat, f = _surface_updates(grid, cells, fit)
        want = {en.cell[1] * geom.width + en.cell[0]: en.f for en in ref.surface}
        got = dict(zip(flat.tolist(), f.tolist()))
        assert got == want
        assert all(math.copysign(1.0, got[c]) == math.copysign(1.0, want[c]) for c in want)

        beam_line = _beam_lines(cells, fit, cols, rows)
        assert len(ref.beam_lines) == len(world_pts)
        for k, line in enumerate(ref.beam_lines):
            assert (None if beam_line[k] < 0 else fitted[beam_line[k]]) == (
                None if line is None else next(c for c in ref.lines if ref.lines[c] is line))


class TestTraverseBeams:
    """The batched traversal carves the union of the per-beam kernel's cells."""

    GEOM = GridGeometry(-1.0, -0.5, 0.05, 40, 30)

    @staticmethod
    def _per_beam(geom, x0, y0, ux, uy, extent):
        cells = set()
        for u, v, ext in zip(ux, uy, extent):
            cols, rows = kernels.traverse_free(
                geom.origin_x, geom.origin_y, geom.resolution, geom.width,
                geom.height, x0, y0, float(u), float(v), float(ext))
            cells.update(zip(cols.tolist(), rows.tolist()))
        return cells

    @pytest.mark.parametrize("origin", [
        (-0.013, 0.021),  # inside a cell
        (-1.0 + 7.5 * 0.05, 0.107),  # on a column boundary
        (-1.0 + 7.5 * 0.05, -0.5 + 4.5 * 0.05),  # on a cell corner
        (-2.0, 2.0),  # outside the grid
    ])
    def test_union_of_per_beam_cells(self, origin):
        rng = np.random.default_rng(36)
        a = np.concatenate((rng.uniform(-math.pi, math.pi, 200),
                            [0.0, math.pi / 4, -3 * math.pi / 4]))
        ux, uy = np.cos(a), np.sin(a)
        # Exactly axis-aligned beams, both signs.
        ux = np.concatenate((ux, [1.0, -1.0, 0.0, 0.0]))
        uy = np.concatenate((uy, [0.0, 0.0, 1.0, -1.0]))
        # Short beams stay in a cell or two; long ones leave the grid.
        extent = rng.uniform(0.001, 3.0, len(ux))
        extent[::7] = 0.05 * rng.integers(1, 40, len(extent[::7]))
        x0, y0 = origin
        cols, rows = traverse_beams(self.GEOM, x0, y0, ux, uy, extent)
        want = self._per_beam(self.GEOM, x0, y0, ux, uy, extent)
        assert set(zip(cols.tolist(), rows.tolist())) == want
        assert want  # the scenario carves something

    def test_no_beams(self):
        cols, rows = traverse_beams(self.GEOM, 0.0, 0.0, np.empty(0), np.empty(0),
                                    np.empty(0))
        assert len(cols) == 0 and len(rows) == 0
