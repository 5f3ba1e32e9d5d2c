import io
import math
import struct

import numpy as np
import pytest

from sdfslam import logio
from sdfslam.geometry import GridGeometry, LaserScan, Pose2
from sdfslam.logio import FormatError, ParseError, ScanLogRecord, VersionError
from sdfslam.mapping import SdfGrid
from sdfslam.submaps import Submap


def _record(ts, ranges, gt=None, odom=None):
    scan = LaserScan(-2.356194490192345, 0.017453292519943295, ranges, 0.05, 10.0)
    return ScanLogRecord(timestamp=ts, scan=scan, gt=gt, odom=odom)


def _grid(seed=0, width=7, height=5):
    rng = np.random.default_rng(seed)
    geom = GridGeometry(-0.125, 0.3, 0.05, width, height)
    grid = SdfGrid.unknown(geom, 0.06, 10.0)
    grid.F[:] = rng.uniform(-0.06, 0.06, grid.F.shape).astype(np.float32)
    grid.W[:] = rng.uniform(0.0, 10.0, grid.W.shape).astype(np.float32)
    grid.F[0, 0] = -0.0
    grid.W[1, :] = 0.0
    return grid


def _assert_grids_identical(a, b):
    assert a.geometry == b.geometry
    assert (a.truncation, a.w_max) == (b.truncation, b.w_max)
    assert a.F.dtype == b.F.dtype == np.float32
    assert a.F.tobytes() == b.F.tobytes()
    assert a.W.tobytes() == b.W.tobytes()


class TestScanLog:
    def test_round_trip_is_exact(self, tmp_path):
        records = [
            _record(0.1, [1.0, math.inf, math.nan, 0.1 + 0.2, 9.999999999999998],
                    gt=Pose2(1.5, -0.25, 3.0), odom=Pose2(1.0 / 3.0, 2e-17, -1.0)),
            _record(0.2, [], gt=Pose2(0.0, 0.0, -math.pi / 2)),
            _record(0.30000000000000004, [-math.inf, 5e-324], odom=Pose2(7.0, 8.0, 0.5)),
            _record(0.4, [2.0]),
        ]
        path = tmp_path / "scans.log"
        logio.write_scan_log(records, path)
        parsed = logio.parse_scan_log(path)

        assert len(parsed) == len(records)
        for got, want in zip(parsed, records):
            assert got.timestamp == want.timestamp
            assert got.gt == want.gt and got.odom == want.odom
            for name in ("angle_min", "angle_increment", "range_min", "range_max"):
                assert getattr(got.scan, name) == getattr(want.scan, name)
            assert np.array_equal(got.scan.ranges, want.scan.ranges, equal_nan=True)
            assert logio.format_record(got) == logio.format_record(want)

    @pytest.mark.parametrize("bad, reason", [
        ("0.3 -1.0 0.1 0.05", "record too short"),
        ("0.3 -1.0 0.1 0.05 10.0 2 1.0 far", "bad range value"),
        ("0.3 -1.0 0.1 0.05 10.0 1 1.0 gt 0 0 0 gt 1 1 1", "duplicate gt pose"),
        ("0.3 -1.0 0.1 0.05 10.0 1 1.0 odom 0 0 0 odom 1 1 1", "duplicate odom pose"),
        ("nan -1.0 0.1 0.05 10.0 1 1.0", "non-finite timestamp"),
        ("0.3 inf 0.1 0.05 10.0 1 1.0", "non-finite angle_min"),
        ("0.3 -1.0 nan 0.05 10.0 1 1.0", "non-finite angle_increment"),
        ("0.3 -1.0 0.1 -inf 10.0 1 1.0", "non-finite range_min"),
        ("0.3 -1.0 0.1 0.05 inf 1 1.0", "non-finite range_max"),
        ("0.3 -1.0 0.1 0.05 10.0 1 1.0 gt nan 0 0", "non-finite gt x"),
        ("0.3 -1.0 0.1 0.05 10.0 1 1.0 gt 0 -inf 0", "non-finite gt y"),
        ("0.3 -1.0 0.1 0.05 10.0 1 1.0 odom 0 0 inf", "non-finite odom theta"),
        ("0.3 -1.0 0.1 0.05 10.0 1 1.0 odom 0 x 0", "bad odom y"),
    ])
    def test_parse_error_names_the_line(self, bad, reason):
        good = logio.format_record(_record(0.1, [1.0, 2.0]))
        text = "\n".join([good, "", good, bad, good]) + "\n"
        with pytest.raises(ParseError) as exc:
            logio.parse_scan_log(io.StringIO(text))
        assert exc.value.line == 4
        assert exc.value.reason.startswith(reason)
        assert str(exc.value).startswith("line 4: ")


class TestMapFile:
    def test_save_load_is_bit_exact(self, tmp_path):
        grid = _grid()
        logio.save_map(grid, tmp_path / "m.sdf2")
        _assert_grids_identical(logio.load_map(tmp_path / "m.sdf2"), grid)

    @pytest.mark.parametrize("keep, reason", [(40, "truncated header"),
                                              (-1, "expected")])
    def test_truncated_file(self, tmp_path, keep, reason):
        # Cut inside the 64-byte header, or one byte short of the planes.
        path = tmp_path / "m.sdf2"
        logio.save_map(_grid(), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match=reason):
            logio.load_map(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.sdf2"
        logio.save_map(_grid(), path)
        path.write_bytes(b"SDF3" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            logio.load_map(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.sdf2"
        logio.save_map(_grid(), path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", logio.MAP_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            logio.load_map(path)


    @pytest.mark.parametrize("field, offset", [("truncation", 48), ("w_max", 56)])
    @pytest.mark.parametrize("value", [0.0, -0.06, math.nan, math.inf])
    def test_unworkable_setting(self, tmp_path, field, offset, value):
        # The header ends with the truncation and the weight cap, as doubles.
        path = tmp_path / "m.sdf2"
        logio.save_map(_grid(), path)
        data = bytearray(path.read_bytes())
        data[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"^{field} must be positive"):
            logio.load_map(path)

    @pytest.mark.parametrize("field, offset, value", [
        ("origin_x", 8, math.nan), ("origin_y", 16, -math.inf), ("resolution", 24, math.inf),
    ])
    def test_unworkable_geometry(self, tmp_path, field, offset, value):
        # The header's geometry doubles follow the magic and the version.
        path = tmp_path / "m.sdf2"
        logio.save_map(_grid(), path)
        data = bytearray(path.read_bytes())
        data[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"^{field} must be"):
            logio.load_map(path)


class TestTrajectoryAndSubmaps:
    def test_trajectory_round_trip(self, tmp_path):
        trajectory = [(0.1 * k, Pose2(k / 3.0, -k * 1e-9, 0.7 * k - 2.0))
                      for k in range(6)]
        logio.write_trajectory(tmp_path / "t.txt", trajectory)
        assert logio.read_trajectory(tmp_path / "t.txt") == trajectory

    def test_submap_set_round_trip(self, tmp_path):
        submaps = [
            Submap(grid=_grid(1), pose=Pose2(0.0, 0.0, 0.0), id=0, scan_count=50,
                   finished=True),
            Submap(grid=_grid(2, width=4, height=9), pose=Pose2(1.0 / 3.0, -2.5, 2.9),
                   id=3, scan_count=17, finished=False),
        ]
        logio.write_submaps(submaps, tmp_path / "set")
        loaded = logio.read_submaps(tmp_path / "set")
        assert len(loaded) == len(submaps)
        for got, want in zip(loaded, submaps):
            assert (got.id, got.pose, got.scan_count, got.finished) == (
                want.id, want.pose, want.scan_count, want.finished)
            _assert_grids_identical(got.grid, want.grid)

    @pytest.mark.parametrize("bad, reason", [
        ("0.3 nan 0 0", "non-finite x"),
        ("0.3 0 0 -inf", "non-finite theta"),
        ("inf 0 0 0", "non-finite timestamp"),
        ("0.3 0 y 0", "bad y"),
        ("0.3 0 0", "expected 'timestamp x y theta'"),
    ])
    def test_bad_trajectory_line_names_it(self, tmp_path, bad, reason):
        path = tmp_path / "t.txt"
        path.write_text(f"0.1 0 0 0\n\n0.2 0 0 0\n{bad}\n")
        with pytest.raises(ParseError) as exc:
            logio.read_trajectory(path)
        assert exc.value.line == 4
        assert exc.value.reason.startswith(reason)

    def _bad_submap_index(self, tmp_path, field, value):
        """The reason ``read_submaps`` gives for a two-submap set whose second
        index line holds ``value`` at token ``field``; the error names line 2."""
        submaps = [Submap(grid=_grid(k), pose=Pose2(k, 0.0, 0.0), id=k, scan_count=10,
                          finished=True) for k in range(2)]
        logio.write_submaps(submaps, tmp_path / "set")
        index = tmp_path / "set" / "index.txt"
        lines = index.read_text().splitlines()
        tokens = lines[1].split()
        tokens[field] = value
        lines[1] = " ".join(tokens)
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            logio.read_submaps(tmp_path / "set")
        assert exc.value.line == 2
        return exc.value.reason

    def test_bad_submap_index_names_the_line(self, tmp_path):
        assert "'x'" in self._bad_submap_index(tmp_path, 0, "x")

    @pytest.mark.parametrize("field, value, reason", [
        (3, "nan", "non-finite x: nan"),
        (5, "inf", "non-finite theta: inf"),
    ])
    def test_non_finite_submap_anchor_names_the_line(self, tmp_path, field, value, reason):
        assert self._bad_submap_index(tmp_path, field, value) == reason
