"""Scan-log, map-file, trajectory, and image persistence.

The scan log is line-delimited text, one record per line, fields in fixed
order: timestamp, angle_min, angle_increment, range_min, range_max, range
count, the ranges, then an optional ``gt x y theta`` ground-truth pose and
an optional ``odom x y theta`` odometry pose. Floats are written with
shortest round-trip precision so write-then-parse is exact.

Map files are little-endian binary: magic ``SDF2``, a version number, the
grid geometry, then the F and W planes as row-major 32-bit floats. Load of
a save is bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import GridGeometry, LaserScan, Pose2
from .mapping import SdfGrid
from .submaps import Submap

MAP_MAGIC = b"SDF2"
MAP_VERSION = 1
_HEADER = struct.Struct("<4sI3d2Q2d")


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class FormatError(ValueError):
    """Malformed or truncated map file."""


class VersionError(ValueError):
    """Map file written by an unsupported format version."""


@dataclass(eq=False)
class ScanLogRecord:
    timestamp: float
    scan: LaserScan
    gt: Pose2 | None = None
    odom: Pose2 | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def format_record(record: ScanLogRecord) -> str:
    scan = record.scan
    parts = [
        _fmt(record.timestamp),
        _fmt(scan.angle_min),
        _fmt(scan.angle_increment),
        _fmt(scan.range_min),
        _fmt(scan.range_max),
        str(len(scan.ranges)),
    ]
    parts.extend(_fmt(r) for r in scan.ranges)
    if record.gt is not None:
        parts.extend(("gt", _fmt(record.gt.x), _fmt(record.gt.y), _fmt(record.gt.theta)))
    if record.odom is not None:
        parts.extend(("odom", _fmt(record.odom.x), _fmt(record.odom.y),
                      _fmt(record.odom.theta)))
    return " ".join(parts)


def write_scan_log(records, path):
    with open(path, "w") as fh:
        for record in records:
            fh.write(format_record(record))
            fh.write("\n")


def _finite_floats(tokens, names, line_no: int) -> list[float]:
    """One finite float per name, read from ``tokens`` in order.

    A token that is not a float, or one that is NaN or infinite, raises
    :class:`ParseError` with the line number and the field's name.
    """
    values = []
    for name, token in zip(names, tokens):
        try:
            value = float(token)
        except ValueError as exc:
            raise ParseError(line_no, f"bad {name}: {exc}") from None
        if not math.isfinite(value):
            raise ParseError(line_no, f"non-finite {name}: {value}")
        values.append(value)
    return values


def _parse_record(tokens: list[str], line_no: int) -> ScanLogRecord:
    if len(tokens) < 6:
        raise ParseError(line_no, "record too short")
    names = ("timestamp", "angle_min", "angle_increment", "range_min", "range_max")
    ts, angle_min, inc, rmin, rmax = _finite_floats(tokens, names, line_no)
    try:
        count = int(tokens[5])
    except ValueError as exc:
        raise ParseError(line_no, f"bad range count: {exc}") from None
    if count < 0:
        raise ParseError(line_no, "negative range count")
    if len(tokens) < 6 + count:
        raise ParseError(line_no, f"expected {count} ranges")
    try:
        ranges = np.array([float(t) for t in tokens[6:6 + count]], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(line_no, f"bad range value: {exc}") from None

    rest = tokens[6 + count:]
    poses = {}
    while rest:
        tag = rest[0]
        if tag not in ("gt", "odom") or len(rest) < 4:
            raise ParseError(line_no, f"unexpected trailing token {tag!r}")
        if tag in poses:
            raise ParseError(line_no, f"duplicate {tag} pose")
        names = (f"{tag} x", f"{tag} y", f"{tag} theta")
        poses[tag] = Pose2(*_finite_floats(rest[1:4], names, line_no))
        rest = rest[4:]

    scan = LaserScan(angle_min, inc, ranges, rmin, rmax)
    return ScanLogRecord(timestamp=ts, scan=scan, **poses)


def parse_scan_log(source) -> list[ScanLogRecord]:
    """Parse a scan log from a path or an open text stream.

    Strict: the first malformed line raises :class:`ParseError` with its
    line number.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    records = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        records.append(_parse_record(line.split(), i))
    return records


def save_map(grid: SdfGrid, path):
    geom = grid.geometry
    header = _HEADER.pack(
        MAP_MAGIC, MAP_VERSION,
        geom.origin_x, geom.origin_y, geom.resolution,
        geom.width, geom.height,
        grid.truncation, grid.w_max,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.F, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(grid.W, dtype="<f4").tobytes())


def load_map(path) -> SdfGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError("truncated header")
    magic, version, ox, oy, res, width, height, trunc, w_max = _HEADER.unpack_from(data)
    if magic != MAP_MAGIC:
        raise FormatError("bad magic")
    if version != MAP_VERSION:
        raise VersionError(f"unsupported map version {version}")
    n = width * height
    expected = _HEADER.size + 2 * 4 * n
    if len(data) != expected:
        raise FormatError(f"expected {expected} bytes, found {len(data)}")
    for name, value in (("truncation", trunc), ("w_max", w_max)):
        if not 0 < value < math.inf:  # NaN fails too
            raise FormatError(f"{name} must be positive and finite, got {value}")
    try:
        geom = GridGeometry(ox, oy, res, int(width), int(height))
    except ValueError as exc:  # its message names the field
        raise FormatError(str(exc)) from None
    F = np.frombuffer(data, dtype="<f4", count=n, offset=_HEADER.size)
    W = np.frombuffer(data, dtype="<f4", count=n, offset=_HEADER.size + 4 * n)
    return SdfGrid(
        geometry=geom, truncation=trunc, w_max=w_max,
        F=F.reshape(height, width).copy(),
        W=W.reshape(height, width).copy(),
    )


def export_image(grid: SdfGrid, path):
    """Write the map as an 8-bit binary PGM, one pixel per cell.

    F maps linearly from [-truncation, +truncation] onto [0, 255] with
    half-up rounding, so the surface zero crossing sits at mid gray (128).
    Unknown cells render white (255). The top image row is the grid's
    maximum-y row.
    """
    t = grid.truncation
    scaled = (grid.F.astype(np.float64) + t) / (2.0 * t) * 255.0
    pix = np.floor(scaled + 0.5)
    pix = np.clip(pix, 0.0, 255.0)
    img = pix.astype(np.uint8)
    img[grid.W == 0.0] = 255
    img = img[::-1, :]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.geometry.width} {grid.geometry.height}\n255\n".encode())
        fh.write(img.tobytes())


def write_trajectory(path, trajectory):
    """Write (timestamp, Pose2) pairs, one per line, full precision."""
    with open(path, "w") as fh:
        for ts, pose in trajectory:
            fh.write(f"{_fmt(ts)} {_fmt(pose.x)} {_fmt(pose.y)} {_fmt(pose.theta)}\n")


def read_trajectory(path) -> list[tuple[float, Pose2]]:
    out = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 4:
                raise ParseError(i, "expected 'timestamp x y theta'")
            ts, x, y, theta = _finite_floats(tokens, ("timestamp", "x", "y", "theta"), i)
            out.append((ts, Pose2(x, y, theta)))
    return out


def write_submaps(submaps, directory):
    """Persist a submap set: one map file per submap plus an index."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for sm in submaps:
        name = f"submap_{sm.id:03d}.sdf2"
        save_map(sm.grid, directory / name)
        lines.append(
            f"{sm.id} {int(sm.finished)} {sm.scan_count} "
            f"{_fmt(sm.pose.x)} {_fmt(sm.pose.y)} {_fmt(sm.pose.theta)} {name}"
        )
    (directory / "index.txt").write_text("\n".join(lines) + "\n")


def read_submaps(directory) -> list[Submap]:
    out = []
    index = directory / "index.txt"
    for i, line in enumerate(index.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 7:
            raise ParseError(i, "expected 'id finished scans x y theta file'")
        try:
            sid, finished, scans = int(tokens[0]), bool(int(tokens[1])), int(tokens[2])
        except ValueError as exc:
            raise ParseError(i, str(exc)) from None
        pose = Pose2(*_finite_floats(tokens[3:6], ("x", "y", "theta"), i))
        grid = load_map(directory / tokens[6])
        out.append(Submap(grid=grid, pose=pose, id=sid, scan_count=scans,
                          finished=finished))
    return out
