import gc
import math
from dataclasses import replace

import numpy as np
import pytest

from sdfslam import kernels
from sdfslam.geometry import (
    IDENTITY,
    GridGeometry,
    Pose2,
    compose,
    inverse,
    transform_points,
)
from sdfslam.mapping import ExpansionPolicy, SdfGrid
from sdfslam.matching import MatchConfig, match_two_stage, predict_pose
from sdfslam.simulate import SensorModel, rectangle_circuit, run_scenario, simulate_scan
from sdfslam.slam import SlamParams, run_slam
from sdfslam import submaps
from sdfslam.submaps import (
    MergedMap,
    MixedResolution,
    MixedSettings,
    Submap,
    SubmapCollection,
    localize_log,
    merge_submaps,
    merged_bounds,
    pure_localize,
)

from conftest import build_room_map, make_square_world


def _known_submap(fill_f=0.02, fill_w=3.0, pose=Pose2(0, 0, 0), cells=40,
                  res=0.05, sid=0, finished=True):
    half = 0.5 * (cells - 1) * res
    geom = GridGeometry(-half, -half, res, cells, cells)
    grid = SdfGrid.unknown(geom, 0.06, 10.0)
    grid.F[:] = np.float32(fill_f)
    grid.W[:] = np.float32(fill_w)
    return Submap(grid=grid, pose=pose, id=sid, scan_count=1, finished=finished)


class TestLifecycle:
    def _scan(self, k=0):
        world = make_square_world()
        scan, _ = simulate_scan(world, Pose2(0, 0, 0), SensorModel(seed=60),
                                scan_index=k)
        return scan

    def test_first_scan_creates_submap(self):
        coll = SubmapCollection(scans_per_submap=50)
        coll.add_scan(self._scan(), Pose2(0, 0, 0))
        assert len(coll.submaps) == 1
        assert coll.submaps[0].scan_count == 1
        assert coll.submaps[0].grid.W.max() > 0

    @pytest.mark.parametrize("setting", [
        {"scans_per_submap": 0}, {"scans_per_submap": 1},
        {"truncation": 0.0}, {"truncation": float("nan")}, {"truncation": math.inf},
        {"w_max": 0.0}, {"w_max": -1.0}, {"w_max": float("nan")}, {"w_max": math.inf},
        {"resolution": 0.0}, {"resolution": float("nan")}, {"resolution": math.inf},
        {"max_expansions": -1},
    ])
    def test_rejects_unworkable_settings(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            SubmapCollection(**setting)

    def test_window_trace(self):
        n = 10
        coll = SubmapCollection(scans_per_submap=n, cells=60)
        counts = []
        for k in range(3 * n + 1):
            coll.add_scan(self._scan(k), Pose2(0, 0, 0))
            counts.append([s.scan_count for s in coll.submaps])

        # First submap finished once it has n scans; second is active then.
        assert coll.submaps[0].finished
        assert coll.submaps[0].scan_count == n
        after_first = counts[n]  # state right after scan n+1 landed
        assert after_first[0] == n

        # Window invariants: at most two unfinished at any time, every scan
        # lands in one or two submaps.
        total = sum(s.scan_count for s in coll.submaps)
        assert 3 * n + 1 <= total <= 2 * (3 * n + 1)

    def test_matching_target_always_populated(self):
        n = 8
        coll = SubmapCollection(scans_per_submap=n, cells=60)
        coll.add_scan(self._scan(0), Pose2(0, 0, 0))
        for k in range(1, 40):
            target = coll.matching_target()
            assert target is not None
            assert target.scan_count >= min(k, math.ceil(n / 2))
            coll.add_scan(self._scan(k), Pose2(0, 0, 0))

    def test_unfinished_cap(self):
        coll = SubmapCollection(scans_per_submap=6, cells=60)
        for k in range(30):
            coll.add_scan(self._scan(k), Pose2(0, 0, 0))
            assert len(coll.unfinished()) <= 2

    def test_insert_into_finished_rejected(self):
        sm = _known_submap(finished=True)
        with pytest.raises(ValueError):
            sm.insert(self._scan(), Pose2(0, 0, 0), ExpansionPolicy(3))

    def test_younger_submap_lives_in_the_worker(self, started_processes):
        with SubmapCollection(scans_per_submap=4, cells=100) as coll:
            for k in range(2):
                coll.add_scan(self._scan(k), Pose2(0, 0, 0))
            young = coll.submaps[1]
            assert young.scan_count == 0 and young.grid is None
            assert len(started_processes) == 1
            for k in range(2, 4):
                coll.add_scan(self._scan(k), Pose2(0, 0, 0))
            # The target finished; its successor is back in this process.
            assert coll.submaps[0].finished
            assert coll.matching_target() is young
            assert young.scan_count == 2 and young.grid.W.max() > 0
            assert coll.submaps[2].grid is None
        assert started_processes[0].returncode is not None

    def test_dropped_collection_stops_its_worker(self, started_processes):
        coll = SubmapCollection(scans_per_submap=4, cells=60)
        for k in range(3):
            coll.add_scan(self._scan(k), Pose2(0, 0, 0))
        del coll
        gc.collect()
        assert started_processes[0].returncode is not None

    def test_finish_all_drops_empty(self):
        coll = SubmapCollection(scans_per_submap=4, cells=60)
        for k in range(6):
            coll.add_scan(self._scan(k), Pose2(0, 0, 0))
        coll.finish_all()
        assert all(s.finished for s in coll.submaps)
        assert all(s.scan_count > 0 for s in coll.submaps)


class TestMergedBounds:
    def test_identity_submap_padded(self):
        sm = _known_submap(cells=40, res=0.05)
        geom = merged_bounds([sm])
        assert geom.width == 42 and geom.height == 42
        assert geom.origin_x == pytest.approx(sm.grid.geometry.origin_x - 0.05)

    def test_rotated_square_covered(self):
        sm = _known_submap(cells=40, res=0.05, pose=Pose2(0, 0, math.pi / 4))
        geom = merged_bounds([sm])
        # The rotated square's AABB has side sqrt(2) times the original.
        span = geom.width * 0.05
        assert span >= 2.0 * math.sqrt(2.0)
        # All four transformed corners fall inside the merged area.
        cols, rows = geom.world_to_cells(transform_points(sm.pose, sm.grid.geometry.corners()))
        assert np.all((cols >= 0) & (cols < geom.width) & (rows >= 0) & (rows < geom.height))

    def test_disjoint_union_covered(self):
        a = _known_submap(sid=0)
        b = _known_submap(sid=1, pose=Pose2(10.0, 0.0, 0.0))
        geom = merged_bounds([a, b])
        assert geom.width * 0.05 > 11.0

    def test_mixed_resolution_rejected(self):
        a = _known_submap(sid=0, res=0.05)
        b = _known_submap(sid=1, res=0.1)
        with pytest.raises(MixedResolution):
            merged_bounds([a, b])

    @pytest.mark.parametrize("setting", [{"truncation": 0.08}, {"w_max": 20.0}],
                             ids=["truncation", "w_max"])
    def test_mixed_truncation_or_weight_cap_rejected(self, setting):
        # The merged grid would silently take the first submap's value.
        a = _known_submap(sid=0)
        b = _known_submap(sid=1)
        b.grid = replace(b.grid, **setting)
        with pytest.raises(MixedSettings):
            merge_submaps([a, b])


class TestSampleBicubic:
    """``kernels.bicubic_fw``, the merge's resampler, on a submap grid."""

    @staticmethod
    def _sample(grid, pts):
        geom = grid.geometry
        return kernels.bicubic_fw(grid.F, grid.W, geom.origin_x, geom.origin_y,
                                  geom.resolution, grid.truncation,
                                  np.asarray(pts, dtype=np.float64))

    def test_cell_center_exact(self):
        sm = _known_submap()
        g = sm.grid
        rng = np.random.default_rng(61)
        g.F[:] = rng.uniform(-0.05, 0.05, g.F.shape).astype(np.float32)
        col, row = 20, 17
        f, w, valid = self._sample(g, g.geometry.cells_to_world([col], [row]))
        assert valid[0]
        assert f[0] == pytest.approx(float(g.F[row, col]), abs=1e-12)

    def test_constant_field(self):
        sm = _known_submap(fill_f=0.013)
        rng = np.random.default_rng(62)
        f, w, valid = self._sample(sm.grid, rng.uniform(-0.8, 0.8, (30, 2)))
        assert np.all(valid)
        assert np.allclose(f, float(np.float32(0.013)), rtol=0.0, atol=1e-9)

    def test_outside_support_none(self):
        sm = _known_submap()
        sm.grid.W[:] = 0.0
        assert not self._sample(sm.grid, [(0.0, 0.0)])[2][0]
        sm2 = _known_submap()
        assert not self._sample(sm2.grid, [(99.0, 0.0)])[2][0]

    def test_linear_ramp(self):
        sm = _known_submap()
        g = sm.grid
        h, w = g.F.shape
        jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        g.F[:] = (0.0004 * ii - 0.0007 * jj).astype(np.float32)
        rng = np.random.default_rng(63)
        geom = g.geometry
        p = rng.uniform(-0.7, 0.7, (50, 2))
        f, _, valid = self._sample(g, p)
        assert np.all(valid)
        u = (p[:, 0] - geom.origin_x) / geom.resolution
        v = (p[:, 1] - geom.origin_y) / geom.resolution
        assert np.allclose(f, 0.0004 * u - 0.0007 * v, rtol=0.0, atol=5e-7)


class TestMerge:
    def test_identity_merge_reproduces(self):
        sm = _known_submap()
        rng = np.random.default_rng(64)
        sm.grid.F[:] = rng.uniform(-0.06, 0.06, sm.grid.F.shape).astype(np.float32)
        merged = merge_submaps([sm])
        mg = merged.grid
        sg = sm.grid
        cols, rows = (a.ravel() for a in np.meshgrid(np.arange(0, sg.geometry.width, 5),
                                                     np.arange(0, sg.geometry.height, 5)))
        mcols, mrows = mg.geometry.world_to_cells(sg.geometry.cells_to_world(cols, rows))
        f_err = mg.F[mrows, mcols].astype(np.float64) - sg.F[rows, cols].astype(np.float64)
        assert np.all(np.abs(f_err) <= 1e-9)
        assert np.array_equal(mg.W[mrows, mcols], sg.W[rows, cols])

    def test_overlapping_identical_weight_is_max(self):
        a = _known_submap(fill_f=0.02, fill_w=4.0, sid=0)
        b = _known_submap(fill_f=0.02, fill_w=4.0, sid=1)
        merged = merge_submaps([a, b])
        mg = merged.grid
        inside = mg.W > 0
        assert inside.any()
        assert np.all(mg.W[inside] == np.float32(4.0))
        assert np.allclose(mg.F[inside], np.float32(0.02), atol=1e-7)

    def test_unknown_submaps_merge_unknown(self):
        a = _known_submap(sid=0)
        b = _known_submap(sid=1)
        a.grid.W[:] = 0.0
        b.grid.W[:] = 0.0
        merged = merge_submaps([a, b])
        assert np.all(merged.grid.W == 0.0)

    def test_requires_finished(self):
        sm = _known_submap(finished=False)
        with pytest.raises(ValueError):
            merge_submaps([sm])

    def test_deterministic_remerge(self):
        rng = np.random.default_rng(65)
        subs = []
        for sid in range(3):
            sm = _known_submap(sid=sid, pose=Pose2(sid * 0.8, 0.1 * sid, 0.2 * sid))
            sm.grid.F[:] = rng.uniform(-0.06, 0.06, sm.grid.F.shape).astype(np.float32)
            sm.grid.W[:] = rng.uniform(0.5, 10.0, sm.grid.W.shape).astype(np.float32)
            subs.append(sm)
        m1 = merge_submaps(subs)
        m2 = merge_submaps(subs)
        assert np.array_equal(m1.grid.F, m2.grid.F)
        assert np.array_equal(m1.grid.W, m2.grid.W)

    def test_merged_invariants(self):
        rng = np.random.default_rng(66)
        subs = []
        for sid in range(3):
            sm = _known_submap(sid=sid, pose=Pose2(rng.uniform(-1, 1),
                                                   rng.uniform(-1, 1),
                                                   rng.uniform(-3, 3)))
            sm.grid.F[:] = rng.uniform(-0.06, 0.06, sm.grid.F.shape).astype(np.float32)
            sm.grid.W[:] = rng.uniform(0.0, 10.0, sm.grid.W.shape).astype(np.float32)
            subs.append(sm)
        merged = merge_submaps(subs)
        w_caps = max(float(s.grid.W.max()) for s in subs)
        assert np.all(np.abs(merged.grid.F) <= merged.grid.truncation + 1e-6)
        assert float(merged.grid.W.max()) <= w_caps + 1e-6
        assert float(merged.grid.W.max()) <= merged.grid.w_max

    @staticmethod
    def _wall_offsets(pose):
        """Zero crossings of a merged wall band, as offsets from the wall.

        A wall at local x = 0.037 with the known band ending one cell behind
        it; the cells beyond hold the unknown +truncation. The band is merged
        alone at ``pose`` and every sign change between two known neighbours
        along a merged row is mapped back to local x.
        """
        wall = 0.037
        sm = _known_submap(pose=pose)
        g = sm.grid
        x = g.geometry.origin_x + np.arange(g.geometry.width) * g.geometry.resolution
        band = x <= wall + g.geometry.resolution
        g.F[:] = np.float32(g.truncation)
        g.W[:] = 0.0
        g.F[:, band] = np.clip(wall - x, -g.truncation, g.truncation)[band]
        g.W[:, band] = 3.0

        mg = merge_submaps([sm]).grid
        geom = mg.geometry
        offsets = []
        for row in range(geom.height):
            f, w = mg.F[row].astype(np.float64), mg.W[row]
            cross = np.flatnonzero((w[:-1] > 0) & (w[1:] > 0)
                                   & (np.sign(f[:-1]) != np.sign(f[1:])))
            for c in cross:
                t = f[c] / (f[c] - f[c + 1])
                p = (geom.origin_x + (c + t) * geom.resolution,
                     geom.origin_y + row * geom.resolution)
                offsets.append(transform_points(inverse(sm.pose), p)[0, 0] - wall)
        return np.asarray(offsets)

    def test_off_lattice_wall_zero_crossing(self):
        # Merged off the submap's lattice, the surface must stay where it was.
        offsets = self._wall_offsets(Pose2(0.021, -0.017, 0.3))
        assert len(offsets) >= 10
        assert np.max(np.abs(offsets)) < 1e-3

    def test_on_lattice_wall_zero_crossing(self):
        # Merged on the submap's lattice, the last known column lies under
        # merged cell centers and must be kept, so the wall stays where it was.
        offsets = self._wall_offsets(Pose2(0.02, 0.01, 0.0))
        assert len(offsets) >= 10
        assert np.max(np.abs(offsets)) < 1e-6


    @staticmethod
    def _footprint_box_merge(subs, geom):
        """Reference merge: resample every merged cell in each submap's
        footprint bounding box, as the merge did before ``_cover``."""
        first = subs[0].grid
        merged = SdfGrid.unknown(geom, first.truncation, first.w_max)
        for sm in sorted(subs, key=lambda s: s.id):
            sgeom = sm.grid.geometry
            corners = transform_points(sm.pose, np.asarray(sgeom.corners()))
            (col0, col1), (row0, row1) = geom.world_to_cells(
                [corners.min(axis=0), corners.max(axis=0)])
            col0, col1 = max(col0, 0), min(col1, geom.width - 1)
            row0, row1 = max(row0, 0), min(row1, geom.height - 1)
            if col0 > col1 or row0 > row1:
                continue
            cols, rows = np.meshgrid(np.arange(col0, col1 + 1),
                                     np.arange(row0, row1 + 1))
            cols, rows = cols.ravel(), rows.ravel()
            local = transform_points(inverse(sm.pose), geom.cells_to_world(cols, rows))
            fb, wb, valid = kernels.bicubic_fw(
                sm.grid.F, sm.grid.W, sgeom.origin_x, sgeom.origin_y,
                sgeom.resolution, sm.grid.truncation, local)
            vc, vr = cols[valid], rows[valid]
            fb, wb = fb[valid], wb[valid]
            fm = merged.F[vr, vc].astype(np.float64)
            wm = merged.W[vr, vc].astype(np.float64)
            fused = np.where(wm == 0.0, fb, (wm * fm + wb * fb) / (wm + wb))
            merged.F[vr, vc] = fused.astype(np.float32)
            merged.W[vr, vc] = np.maximum(wm, wb).astype(np.float32)
        return merged

    @staticmethod
    def _masked_submaps(theta, rng):
        """Submaps of 42 cells with random F and W where known: cells on the
        grid border; cells at the corners of 8x8 blocks; one single cell; a
        2x2 block whose neighbours are all unknown; a random field with
        holes punched in it.
        """
        cells = 42
        masks = [np.zeros((cells, cells), dtype=bool) for _ in range(5)]
        masks[0][[0, -1], :] = masks[0][:, [0, -1]] = True
        corner = np.isin(np.arange(cells) % 8, (0, 7))
        masks[1][np.ix_(corner, corner)] = True
        masks[2][23, 15] = True
        masks[3][38:40, 30:32] = True
        masks[4][:] = rng.random((cells, cells)) < 0.8
        for _ in range(6):
            r, c = rng.integers(0, cells - 6, 2)
            masks[4][r:r + rng.integers(1, 7), c:c + rng.integers(1, 7)] = False
        subs = []
        for sid, mask in enumerate(masks):
            pose = Pose2(0.013 + 0.7 * sid, -0.021 + 0.3 * sid, theta + 0.1 * sid)
            sm = _known_submap(pose=pose, cells=cells, sid=sid)
            g = sm.grid
            g.F[:] = rng.uniform(-0.06, 0.06, g.F.shape).astype(np.float32)
            g.W[:] = rng.uniform(0.5, 10.0, g.W.shape).astype(np.float32)
            g.F[~mask] = np.float32(g.truncation)
            g.W[~mask] = 0.0
            subs.append(sm)
        return subs

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2 - 1e-9,
                                       -3 * math.pi / 4, math.pi])
    def test_cover_matches_footprint_box(self, theta, monkeypatch):
        # Every cell the cover skips is invalid in the footprint box,
        # so the merged bytes must not change.
        subs = self._masked_submaps(theta, np.random.default_rng(69))
        on_lattice = replace(subs[2], pose=Pose2(0.02, 0.01, theta))
        for case in [[sm] for sm in subs] + [[on_lattice], subs]:
            geom = merged_bounds(case)
            expect = self._footprint_box_merge(case, geom)
            got = merge_submaps(case).grid
            assert got.geometry == geom
            assert got.F.tobytes() == expect.F.tobytes()
            assert got.W.tobytes() == expect.W.tobytes()
        if theta == 0.0:
            # On the merged lattice the single known cell is sampled exactly.
            assert np.count_nonzero(merge_submaps([on_lattice]).grid.W) == 1

        # Merged bounds that cut every submap's footprint.
        full = merged_bounds(subs)
        cut = GridGeometry(full.origin_x + 0.6, full.origin_y + 0.3, full.resolution,
                           full.width - 30, full.height - 15)
        monkeypatch.setattr(submaps, "merged_bounds", lambda _: cut)
        expect = self._footprint_box_merge(subs, cut)
        got = merge_submaps(subs).grid
        assert np.count_nonzero(got.W) > 0
        assert got.F.tobytes() == expect.F.tobytes()
        assert got.W.tobytes() == expect.W.tobytes()

    def test_single_known_cell_samples_four_cells(self, monkeypatch):
        # The merge resamples the 2x2 merged cells around the one known
        # cell's square, not the submap's whole 200-cell footprint.
        sm = _known_submap(cells=200, fill_w=0.0, pose=Pose2(0.3, -0.2, 0.7))
        sm.grid.W[101, 57] = 3.0
        bicubic, points = kernels.bicubic_fw, []

        def counting(*args):
            points.append(len(args[6]))
            return bicubic(*args)

        monkeypatch.setattr(kernels, "bicubic_fw", counting)
        merge_submaps([sm])
        assert sum(points) <= 4

    def test_cover_holds_every_valid_cell(self):
        # Every merged cell that bicubic_fw calls valid must be in the
        # cover, once. Lattice poses put merged cell centers exactly on the
        # corners of the known cells' squares.
        rng = np.random.default_rng(71)
        res, cells = 0.05, 30
        poses = [Pose2(res * a, res * b, t)
                 for t in (0.0, math.pi / 2, -math.pi / 2, math.pi)
                 for a, b in ((0, 0), (3, -7))]
        poses += [Pose2(*rng.uniform(-2.0, 2.0, 2), rng.uniform(-math.pi, math.pi))
                  for _ in range(24)]
        held = 0
        for pose in poses:
            sm = _known_submap(pose=pose, cells=cells, res=res)
            sm.grid.W[rng.random((cells, cells)) > rng.uniform(0.02, 0.9)] = 0.0
            geom = merged_bounds([sm])
            cols, rows = np.meshgrid(np.arange(geom.width), np.arange(geom.height))
            local = transform_points(inverse(pose),
                                     geom.cells_to_world(cols.ravel(), rows.ravel()))
            sgeom = sm.grid.geometry
            _, _, valid = kernels.bicubic_fw(
                sm.grid.F, sm.grid.W, sgeom.origin_x, sgeom.origin_y, res,
                sm.grid.truncation, local)

            cc, cr = submaps._cover(sm, geom)
            covered = np.zeros((geom.height, geom.width), dtype=int)
            np.add.at(covered, (cr, cc), 1)
            assert covered.max() <= 1
            assert np.all(covered.ravel()[valid] == 1)
            held += np.count_nonzero(valid)
        assert held > 2000

        sm.grid.W[:] = 0.0
        cc, cr = submaps._cover(sm, geom)
        assert len(cc) == len(cr) == 0


@pytest.fixture(scope="module")
def merged_room():
    """Merged map of the square room plus the world-to-map transform."""
    from sdfslam.geometry import inverse
    from sdfslam.logio import ScanLogRecord

    world = make_square_world()
    params = SlamParams(submap_scans=10, submap_cells=120)
    model = SensorModel(noise_sigma=0.002, seed=67)
    records = []
    for k in range(30):
        a = 2 * math.pi * k / 30
        pose = Pose2(0.4 * math.cos(a), 0.4 * math.sin(a), 0.5 * a)
        scan, _ = simulate_scan(world, pose, model, scan_index=k)
        records.append(ScanLogRecord(timestamp=0.1 * k, scan=scan, gt=pose))
    result = run_slam(records, params)
    # The map frame anchors at the first scan, so world poses convert by
    # the inverse of the first ground-truth pose.
    world_to_map = inverse(records[0].gt)
    return merge_submaps(result.collection.submaps), world_to_map


class TestPureLocalize:
    def test_noise_free_fixed_point(self, merged_room):
        merged, world_to_map = merged_room
        world = make_square_world()
        truth_world = Pose2(0.1, 0.0, 0.0)
        scan, _ = simulate_scan(world, truth_world, SensorModel(seed=68))
        init = compose(world_to_map, truth_world)
        r = pure_localize(merged, scan, init, iters=8)
        assert math.hypot(r.pose.x - init.x, r.pose.y - init.y) < 2e-3

    def test_never_mutates_map(self, merged_room):
        merged, world_to_map = merged_room
        world = make_square_world()
        before = (merged.grid.F.tobytes(), merged.grid.W.tobytes())
        scan, _ = simulate_scan(world, Pose2(0, 0, 0),
                                SensorModel(noise_sigma=0.005, seed=69))
        pure_localize(merged, scan, world_to_map, iters=5)
        after = (merged.grid.F.tobytes(), merged.grid.W.tobytes())
        assert before == after

    def test_repeatability_under_noise(self, merged_room):
        merged, world_to_map = merged_room
        world = make_square_world()
        truth_world = Pose2(0.1, -0.05, 0.2)
        init = compose(world_to_map, truth_world)
        xs, ys = [], []
        for k in range(15):
            scan, _ = simulate_scan(
                world, truth_world, SensorModel(noise_sigma=0.005, seed=200 + k))
            r = pure_localize(merged, scan, init, iters=6)
            xs.append(r.pose.x)
            ys.append(r.pose.y)
        assert np.ptp(xs) < 0.01
        assert np.ptp(ys) < 0.01

    def test_iters_caps_both_stages(self, merged_room):
        merged, world_to_map = merged_room
        truth_world = Pose2(0.1, -0.05, 0.2)
        scan, _ = simulate_scan(make_square_world(), truth_world,
                                SensorModel(noise_sigma=0.005, seed=70))
        init = compose(world_to_map, compose(truth_world, Pose2(0.04, -0.03, 0.02)))
        r = pure_localize(merged, scan, init, iters=2)
        assert r.iterations_stage1 <= 2 and r.iterations_stage2 <= 2
        assert r == match_two_stage(merged.grid, scan, init, MatchConfig(2, 2))
        # The cap binds: left alone, stage one takes more steps.
        assert match_two_stage(merged.grid, scan, init).iterations_stage1 > 2


class TestYoungSubmap:
    @pytest.mark.parametrize("truth", [
        Pose2(0.0, 0.0, 0.0),
        Pose2(0.4, 0.4, 0.0),
        Pose2(0.2, -0.1, 0.4),
    ])
    def test_one_scan_submap_holds_exact_pose(self, truth):
        # The edge of a young submap's observed space must not pull a
        # noise-free scan away from the pose it was integrated at.
        world = make_square_world()
        scan, _ = simulate_scan(world, truth, SensorModel(seed=70))
        coll = SubmapCollection()
        coll.add_scan(scan, truth)
        target = coll.matching_target()
        r = match_two_stage(target.grid, scan, compose(inverse(target.pose), truth))
        err = compose(target.pose, r.pose)
        assert math.hypot(err.x - truth.x, err.y - truth.y) < 1e-3


FLOOR_FRAMES = 120


@pytest.fixture(scope="module")
def floor():
    """A map built from true poses, and a second log to localize on it.

    The first 120 frames of the seed-7 lap go into 200-cell submaps at
    their true poses, in the map frame (the first true pose), and are
    merged. Returns the merged map, the world-to-map pose and the first
    120 frames of the seed-8 lap.
    """
    records = run_scenario(*rectangle_circuit(seed=7))[:FLOOR_FRAMES]
    to_map = inverse(records[0].gt)
    coll = SubmapCollection(cells=200)
    for r in records:
        coll.add_scan(r.scan, compose(to_map, r.gt))
    coll.finish_all()
    log = run_scenario(*rectangle_circuit(seed=8))[:FLOOR_FRAMES]
    return merge_submaps(coll.submaps), to_map, log


def _errors(trajectory, log, to_map):
    """Each pose's translation error against its record's truth in the map frame."""
    assert [t for t, _ in trajectory] == [r.timestamp for r in log]
    truth = [compose(to_map, r.gt) for r in log]
    return [math.hypot(p.x - q.x, p.y - q.y) for (_, p), q in zip(trajectory, truth)]


class TestLocalizationFloor:
    """Merge and matcher alone, on the ``floor`` map built from true poses.

    The seed-8 log is localized on it from the map origin by
    ``localize_log``, as ``sdfslam localize`` does, and compared with the
    truth in the map frame. SLAM pose error is left out, so this is the
    floor of the pipeline's localization accuracy.
    """

    def test_error_within_paper_bound(self, floor):
        merged, to_map, log = floor
        trajectory, frame_s, failures = localize_log(merged, log)
        errors = _errors(trajectory, log, to_map)
        assert failures == 0
        assert len(frame_s) == FLOOR_FRAMES
        # Measured p95 1.69 mm and max 2.28 mm; map seeds 1-8 give
        # 1.50-2.08 mm and 1.96-2.57 mm.
        assert np.percentile(errors, 95) < 0.003
        assert max(errors) < 0.005


class TestLocalizeLog:
    def test_equals_a_per_scan_loop(self, floor):
        merged, _, log = floor
        got, _, _ = localize_log(merged, log, iters=3)
        want = []
        for r in log:
            init = IDENTITY if not want else predict_pose(want, target_time=r.timestamp)
            want.append((r.timestamp, pure_localize(merged, r.scan, init, iters=3).pose))
        assert got == want

    def test_record_without_valid_range_keeps_its_guess(self, floor):
        merged, _, log = floor
        log = log[:64]
        gap = log[60]
        log[60] = replace(gap, scan=replace(gap.scan, ranges=np.full_like(
            gap.scan.ranges, np.inf)))
        trajectory, frame_s, failures = localize_log(merged, log)
        assert failures == 1
        assert trajectory[60] == (
            gap.timestamp, predict_pose(trajectory[:60], target_time=gap.timestamp))
        assert len(frame_s) == len(log) and frame_s[60] > 0.0

    def test_starts_at_init(self, floor):
        # Frame 60 onward, from frame 60's true pose in the map frame; from
        # the map origin, 55 of these 60 frames fail.
        merged, to_map, log = floor
        log = log[60:]
        trajectory, _, failures = localize_log(merged, log, compose(to_map, log[0].gt))
        assert failures == 0
        # Measured max 2.28 mm, the bound of the whole-log floor test.
        assert max(_errors(trajectory, log, to_map)) < 0.005

    def test_leaves_the_map_unchanged(self, floor):
        merged, _, log = floor
        before = merged.grid.F.tobytes() + merged.grid.W.tobytes()
        localize_log(merged, log[:10])
        assert merged.grid.F.tobytes() + merged.grid.W.tobytes() == before
