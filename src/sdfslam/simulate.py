"""Deterministic synthetic 2D world and lidar simulator.

Provides ground truth for the whole test and acceptance pipeline: polygon
raycasting, Gaussian range noise, outlier injection biased toward depth
discontinuities, and dynamic segments that appear for a scheduled range of
scan indices. Everything is seeded with a portable 64-bit PCG generator, so
fixtures are reproducible across platforms and runs.

One core simulates every frame, for one scan or a whole log. It raycasts
frames in chunks of a few, against every static and dynamic segment at
once. A segment that a frame does not see counts as a miss, and the
nearest hit is a minimum, so each range equals a raycast against that
frame's active segments alone. Each frame
keeps a generator of its own, seeded by its scan index, and draws from it
in a fixed order: the Gaussian noise (when sigma > 0), one uniform coin per
beam, then one draw per outlier. A frame's ranges are therefore the same
bytes whether it is simulated alone or inside a log.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import LaserScan, Pose2, normalize_angle

# Beams whose true range differs from a neighbor's by more than this are
# treated as sitting on a depth discontinuity; their outlier odds are boosted.
DISCONTINUITY_STEP = 0.5
DISCONTINUITY_BOOST = 5.0

# Scans per second, unless a scenario sets its own.
SCAN_RATE = 10.0

# Frames raycast together, so that a chunk's (frames, segments, beams)
# temporaries stay in cache: 8 frames measured fastest, and raycasting a
# whole 400-frame log in one pass about twice as slow.
_CHUNK = 8


def _check_segments(segs) -> np.ndarray:
    """``segs`` as an (n, 4) float array; raises on a zero-length or NaN segment."""
    segs = np.asarray(segs, dtype=np.float64).reshape(-1, 4)
    lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
    if not np.all(lengths > 1e-9):  # NaN fails too
        raise ValueError("degenerate world segment")
    return segs


@dataclass(frozen=True)
class DynamicSegment:
    """A wall segment visible only for scan indices in [first, last]."""

    segment: tuple[float, float, float, float]
    first: int
    last: int

    def __post_init__(self):
        _check_segments(self.segment)
        if self.first > self.last:
            raise ValueError("dynamic segment's first scan is after its last")


@dataclass(eq=False)
class World:
    """Static line segments plus optional scheduled dynamic segments."""

    static_segments: np.ndarray
    dynamic_segments: list[DynamicSegment] = field(default_factory=list)

    def __post_init__(self):
        self.static_segments = _check_segments(self.static_segments)

    @property
    def segments(self) -> np.ndarray:
        """Every segment as one (n, 4) array: the static ones, then the dynamic."""
        dynamic = np.asarray([d.segment for d in self.dynamic_segments], dtype=np.float64)
        return np.vstack([self.static_segments, dynamic.reshape(-1, 4)])

    def active(self, scan_indices) -> np.ndarray:
        """(scans, segments) mask of the :attr:`segments` each scan index sees."""
        idx = np.asarray(scan_indices, dtype=np.int64)[:, None]
        first = np.array([d.first for d in self.dynamic_segments], dtype=np.int64)
        last = np.array([d.last for d in self.dynamic_segments], dtype=np.int64)
        static = np.ones((len(idx), len(self.static_segments)), dtype=bool)
        return np.hstack([static, (first <= idx) & (idx <= last)])


@dataclass(frozen=True)
class SensorModel:
    """Scanner parameters; defaults follow a 271-beam, 270-degree unit."""

    beam_count: int = 271
    fov: float = math.radians(270.0)
    range_min: float = 0.05
    range_max: float = 10.0
    noise_sigma: float = 0.0
    outlier_rate: float = 0.0
    outlier_mode: str = "discontinuity"
    seed: int = 0

    def __post_init__(self):
        # Each check fails on NaN too.
        if not self.beam_count >= 1:
            raise ValueError("beam_count must be at least 1")
        if not 0.0 <= self.range_min < self.range_max:
            raise ValueError("range_min must be in [0, range_max)")
        # A scan log cannot hold an infinite range_max, and infinite noise
        # gives infinite ranges.
        if not self.range_max < math.inf:
            raise ValueError("range_max must be finite")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be non-negative and finite")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError("outlier_rate must be in [0, 1]")
        if self.outlier_mode not in ("discontinuity", "uniform"):
            raise ValueError("unknown outlier mode")
        if not 0.0 < self.fov <= 2.0 * math.pi:
            raise ValueError("fov must be in (0, 2*pi]")

    @property
    def angle_min(self) -> float:
        return -0.5 * self.fov

    @property
    def angle_increment(self) -> float:
        """Beams span the field of view end to end; a full circle's beams
        are spaced by ``fov / beam_count``, so the last is not the first."""
        if self.beam_count < 2:
            return 0.0
        if self.fov == 2.0 * math.pi:
            return self.fov / self.beam_count
        return self.fov / (self.beam_count - 1)


@dataclass(eq=False)
class TrajectoryScript:
    """Timestamped waypoints; linear in position, shortest-arc in heading."""

    waypoints: list[tuple[float, Pose2]]

    def __post_init__(self):
        times = [t for t, _ in self.waypoints]
        if not times:
            raise ValueError("need at least one waypoint")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint timestamps must be strictly increasing")

    @property
    def t_start(self) -> float:
        return self.waypoints[0][0]

    @property
    def t_end(self) -> float:
        return self.waypoints[-1][0]

    def pose_at(self, t: float) -> Pose2:
        wps = self.waypoints
        if t <= wps[0][0]:
            return wps[0][1]
        if t >= wps[-1][0]:
            return wps[-1][1]
        for (ta, pa), (tb, pb) in zip(wps, wps[1:]):
            if ta <= t <= tb:
                s = (t - ta) / (tb - ta)
                return Pose2(
                    pa.x + s * (pb.x - pa.x),
                    pa.y + s * (pb.y - pa.y),
                    pa.theta + s * normalize_angle(pb.theta - pa.theta),
                )
        return wps[-1][1]


def _raycast_batch(segs: np.ndarray, origin: np.ndarray, dirs: np.ndarray,
                   range_max: float, active: np.ndarray | None = None) -> np.ndarray:
    """Nearest-hit distances along unit directions ``dirs``; inf marks a miss.

    One origin (2,) with ``dirs`` (beams, 2) gives (beams,); origins
    (frames, 2) with ``dirs`` (frames, beams, 2) give (frames, beams), and
    then ``active`` (frames, segments), if given, masks the segments each
    frame does not see. Segments parallel to a ray and hits beyond
    ``range_max`` do not count."""
    # Segments on the second-to-last axis and beams on the last, so the
    # nearest hit is a reduction across rows of whole beam vectors.
    ax = segs[:, 0, None] - origin[..., 0, None, None]
    ay = segs[:, 1, None] - origin[..., 1, None, None]
    ex = (segs[:, 2] - segs[:, 0])[:, None]
    ey = (segs[:, 3] - segs[:, 1])[:, None]
    dx = dirs[..., None, :, 0]
    dy = dirs[..., None, :, 1]

    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ax * ey - ay * ex) / denom
        s = (ax * dy - ay * dx) / denom
    ok = (np.abs(denom) > 1e-12) & (s >= 0.0) & (s <= 1.0) & (t > 1e-9) & (t <= range_max)
    if active is not None:
        ok &= active[..., None]
    return np.min(t, axis=-2, where=ok, initial=np.inf)


def _rng_for_scan(model: SensorModel, scan_index: int) -> np.random.Generator:
    seed = int(model.seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, scan_index])))


def _simulate_frames(world: World, poses, scan_indices,
                     model: SensorModel) -> tuple[np.ndarray, np.ndarray]:
    """Simulated and noise-free ranges, each (frames, beams), of ``poses[k]``
    taken as scan ``scan_indices[k]``.

    Per beam: raycast, add Gaussian range noise, then with the (possibly
    boosted) outlier probability replace the reading by a uniform draw in
    [range_min, true range]. Injected outliers are therefore always
    premature returns, the common failure at depth discontinuities. Misses
    are emitted as +inf, which downstream validity filtering drops.
    """
    n = model.beam_count
    frames = len(poses)
    segs = world.segments
    active = world.active(scan_indices)
    theta = np.array([p.theta for p in poses], dtype=np.float64)
    origin = np.array([(p.x, p.y) for p in poses], dtype=np.float64)
    fan = model.angle_increment * np.arange(n)
    true = np.empty((frames, n))
    for lo in range(0, frames, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        angles = (theta[chunk, None] + model.angle_min) + fan
        dirs = np.stack((np.cos(angles), np.sin(angles)), axis=-1)
        true[chunk] = _raycast_batch(segs, origin[chunk], dirs, model.range_max,
                                     active[chunk])

    rngs = [_rng_for_scan(model, i) for i in scan_indices]
    if model.noise_sigma > 0:
        noise = np.array([rng.normal(0.0, model.noise_sigma, n) for rng in rngs])
    else:
        noise = np.zeros((frames, n))
    coins = np.array([rng.random(n) for rng in rngs])

    hit = np.isfinite(true)
    rate = np.full((frames, n), model.outlier_rate)
    if model.outlier_mode == "discontinuity" and n > 1:
        with np.errstate(invalid="ignore"):
            step = np.abs(np.diff(true, axis=1))
        disc = np.zeros((frames, n), dtype=bool)
        jump = ~np.isfinite(step) | (step > DISCONTINUITY_STEP)
        disc[:, :-1] |= jump
        disc[:, 1:] |= jump
        rate[disc] = np.minimum(1.0, rate[disc] * DISCONTINUITY_BOOST)
    outlier = hit & (coins < rate)

    ranges = np.where(hit, true + noise, np.inf)
    for k in np.flatnonzero(outlier.any(axis=1)):
        out = outlier[k]
        ranges[k, out] = rngs[k].uniform(model.range_min,
                                         np.maximum(true[k, out], model.range_min))
    return ranges, true


def _scan(model: SensorModel, ranges: np.ndarray) -> LaserScan:
    return LaserScan(
        angle_min=model.angle_min,
        angle_increment=model.angle_increment,
        ranges=ranges,
        range_min=model.range_min,
        range_max=model.range_max,
    )


def simulate_scan(world: World, pose: Pose2, model: SensorModel,
                  scan_index: int = 0) -> tuple[LaserScan, np.ndarray]:
    """One simulated revolution plus the noise-free ground-truth ranges.

    The frame is the one ``run_scenario`` gives scan ``scan_index`` at
    ``pose``; see :func:`_simulate_frames` for the per-beam model.
    """
    ranges, true = _simulate_frames(world, [pose], [scan_index], model)
    return _scan(model, ranges[0]), true[0]


def run_scenario(world: World, script: TrajectoryScript, model: SensorModel,
                 rate: float = SCAN_RATE):
    """Sample poses along the script and emit (timestamp, scan, true pose) records.

    Scans are taken at a fixed rate from the script start to its end,
    inclusive of the start; a zero-duration script yields a single record.
    Frame ``i`` is scan index ``i``. The whole log is one call of the
    batched core, which raycasts a few frames at a time while each frame
    draws its noise and outliers from its own generator in the fixed order
    (see the module docstring), so record ``i``'s scan is the one
    ``simulate_scan(world, pose, model, i)`` returns.
    Returns a list of :class:`sdfslam.logio.ScanLogRecord`.
    """
    from .logio import ScanLogRecord

    duration = script.t_end - script.t_start
    count = int(math.floor(duration * rate + 1e-9)) + 1
    times = [script.t_start + i / rate for i in range(count)]
    poses = [script.pose_at(t) for t in times]
    ranges, _ = _simulate_frames(world, poses, range(count), model)
    return [ScanLogRecord(timestamp=t, scan=_scan(model, r), gt=pose, odom=None)
            for t, pose, r in zip(times, poses, ranges)]


def rectangle_room(width: float = 10.0, height: float = 8.0):
    """Axis-aligned room walls centered on the origin."""
    hw, hh = 0.5 * width, 0.5 * height
    return [
        (-hw, -hh, hw, -hh),
        (hw, -hh, hw, hh),
        (hw, hh, -hw, hh),
        (-hw, hh, -hw, -hh),
    ]


def box_obstacle(cx: float, cy: float, size: float):
    """Square obstacle as four segments."""
    h = 0.5 * size
    return [
        (cx - h, cy - h, cx + h, cy - h),
        (cx + h, cy - h, cx + h, cy + h),
        (cx + h, cy + h, cx - h, cy + h),
        (cx - h, cy + h, cx - h, cy - h),
    ]


def rectangle_circuit(noise_sigma: float = 0.005, outlier_rate: float = 0.0,
                      seed: int = 7, scans: int = 400):
    """The standard benchmark scenario: a 10m x 8m room with two interior
    obstacles and a rounded-rectangle circuit driven over ``scans`` frames.

    Returns (world, script, model, rate).
    """
    # One frame gives a zero-length lap, whose waypoints all share t = 0.
    if scans < 2:
        raise ValueError("scans must be at least 2")
    segments = rectangle_room(10.0, 8.0)
    segments += box_obstacle(0.0, 1.5, 1.0)
    segments += box_obstacle(0.0, -1.5, 1.0)
    world = World(np.asarray(segments, dtype=np.float64))

    # Rounded-rectangle loop 1.3m inside the walls, heading along the path.
    x, y = 3.7, 2.7
    corner_pts = [(-x, -y), (x, -y), (x, y), (-x, y), (-x, -y)]
    duration = (scans - 1) / SCAN_RATE
    legs = [math.hypot(bx - ax, by - ay)
            for (ax, ay), (bx, by) in zip(corner_pts, corner_pts[1:])]
    cum = [0.0]
    for leg in legs:
        cum.append(cum[-1] + leg)
    total = cum[-1]
    waypoints = []
    for k, ((ax, ay), (bx, by)) in enumerate(zip(corner_pts, corner_pts[1:])):
        heading = math.atan2(by - ay, bx - ax)
        waypoints.append((duration * cum[k] / total, Pose2(ax, ay, heading)))
    waypoints.append((duration, Pose2(*corner_pts[-1], waypoints[-1][1].theta)))
    script = TrajectoryScript(waypoints)

    model = SensorModel(noise_sigma=noise_sigma, outlier_rate=outlier_rate, seed=seed)
    return world, script, model, SCAN_RATE


# Scenario file keys that set a SensorModel field: key -> (field, parser).
_SENSOR_KEYS = {
    "beams": ("beam_count", int), "fov_deg": ("fov", lambda v: math.radians(float(v))),
    "range_min": ("range_min", float), "range_max": ("range_max", float),
    "noise_sigma": ("noise_sigma", float), "outlier_rate": ("outlier_rate", float),
    "outlier_mode": ("outlier_mode", str), "seed": ("seed", int),
}
# Accepts any single valid range_min or range_max.
_OPEN_RANGE = SensorModel(range_min=0.0, range_max=sys.float_info.max)
# Numbers on each repeatable line.
_LINE_NUMBERS = {"segment": 4, "dynamic": 6, "waypoint": 4}


def parse_scenario(path):
    """Load a scenario from a plain-text key-value file.

    Recognized keys (``key = value`` lines, ``#`` comments):

    - ``segment = x1 y1 x2 y2`` (repeatable) static wall
    - ``dynamic = x1 y1 x2 y2 first last`` (repeatable) scheduled wall
    - ``waypoint = t x y theta`` (repeatable) trajectory sample
    - ``rate``, ``beams``, ``fov_deg``, ``range_min``, ``range_max``,
      ``noise_sigma``, ``outlier_rate``, ``outlier_mode``, ``seed``; a key
      left out takes :data:`SCAN_RATE` or :class:`SensorModel`'s default

    Returns (world, script, model, rate).
    """
    segments = []
    dynamics = []
    waypoints = []
    rate = SCAN_RATE
    sensor = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            fields = value.split()
            try:
                want = _LINE_NUMBERS.get(key, len(fields))
                if len(fields) != want:
                    raise ValueError(f"{key} takes {want} numbers, got {len(fields)}")
                if key == "segment":
                    segments.append(tuple(float(v) for v in fields))
                    _check_segments(segments[-1])
                elif key == "dynamic":
                    seg = tuple(float(v) for v in fields[:4])
                    dynamics.append(DynamicSegment(seg, int(fields[4]), int(fields[5])))
                elif key == "waypoint":
                    t, x, y, theta = (float(v) for v in fields)
                    waypoints.append((t, Pose2(x, y, theta)))
                elif key == "rate":
                    rate = float(value)
                    if not (rate > 0.0 and math.isfinite(rate)):
                        raise ValueError("rate must be finite and positive")
                elif key in _SENSOR_KEYS:
                    name, parse = _SENSOR_KEYS[key]
                    sensor[name] = parse(value)
                    # Each key alone; the range pair is checked as a pair below.
                    replace(_OPEN_RANGE, **{name: sensor[name]})
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    if not segments:
        raise ValueError(f"{path}: scenario has no segments")
    if not waypoints:
        raise ValueError(f"{path}: scenario has no waypoints")
    world = World(np.asarray(segments, dtype=np.float64), dynamics)
    try:
        script = TrajectoryScript(sorted(waypoints, key=lambda w: w[0]))
        model = SensorModel(**sensor)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return world, script, model, rate

