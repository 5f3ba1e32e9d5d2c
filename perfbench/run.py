"""Benchmark of the sdfslam pipeline: simulate -> slam -> merge -> localize.

    python3 perfbench/run.py --workload slam-clean --seed 7 --seconds 8 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy. ``perfbench/README.md``
describes the workloads, the metrics and which per-layer metric should move
which end-to-end metric. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "sdfslam" / "__init__.py").is_file():
    sys.exit(f"error: no sdfslam package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from sdfslam import kernels, slam, submaps  # noqa: E402
from sdfslam.evaluate import evaluate_trajectory  # noqa: E402
from sdfslam.geometry import IDENTITY  # noqa: E402
from sdfslam.matching import SingularHessian, TooFewPoints, predict_pose  # noqa: E402
from sdfslam.simulate import rectangle_circuit, run_scenario  # noqa: E402

import tracer as tracing  # noqa: E402

FRAMES = 400  # one lap; the frame count sets the step between frames
SUBMAP_CELLS = 200  # the smallest submap that tracks the lap (see README)
LOCALIZE_ITERS = 5  # per stage, as ``sdfslam localize`` uses
SETUP_REPEATS = 7
LOCALIZE_LOGS = 2  # from seeds n+1 and n+2, so one log's hard frames weigh less


@dataclass(frozen=True)
class Workload:
    noise_sigma: float
    outlier_rate: float


WORKLOADS = {
    "slam-clean": Workload(noise_sigma=0.005, outlier_rate=0.0),
    "slam-outliers": Workload(noise_sigma=0.01, outlier_rate=0.05),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "slam_ms_per_scan": "ms",
    "merge_s": "s",
    "localize_p50_ms": "ms",
    "localize_p90_ms": "ms",
    "slam_match_ok_frac": "frac",
    "localize_match_ok_frac": "frac",
    "peak_rss_mb": "MB",
}
TIMED_METRICS = ("setup_s", "slam_ms_per_scan", "merge_s", "localize_p50_ms",
                 "localize_p90_ms")


def timed_calls(fn, seconds: float, min_calls: int):
    """Yield ``(result, duration)`` until ``fn`` has run ``min_calls`` times
    and for ``seconds``. Each result is dropped by the caller before the next
    call, so the number of calls does not change peak memory."""
    total, calls = 0.0, 0
    while calls < min_calls or total < seconds:
        start = perf_counter()
        result = fn()
        duration = perf_counter() - start
        total += duration
        calls += 1
        yield result, duration


def simulate(wl: Workload, seed: int, frames: int):
    """Map log from ``seed`` and the localization logs from the next seeds."""
    def log(s):
        world, script, model, rate = rectangle_circuit(
            noise_sigma=wl.noise_sigma, outlier_rate=wl.outlier_rate, seed=s,
            scans=FRAMES)
        return run_scenario(world, script, model, rate)[:frames]
    return log(seed), [log(seed + 1 + k) for k in range(LOCALIZE_LOGS)]


def localize_pass(merged, log):
    """Localize every record in order; a raised frame keeps its prediction.

    The first frame starts at the map origin, which is where SLAM put the
    first pose of the map log, and the logs share their true trajectory.
    """
    trajectory, frame_s, failures = [], [], 0
    for record in log:
        init = (IDENTITY if not trajectory
                else predict_pose(trajectory, target_time=record.timestamp))
        start = perf_counter()
        try:
            pose = submaps.pure_localize(merged, record.scan, init, LOCALIZE_ITERS).pose
        except (SingularHessian, TooFewPoints):
            failures += 1
            pose = init
        frame_s.append(perf_counter() - start)
        trajectory.append((record.timestamp, pose))
    return trajectory, frame_s, failures


def map_digest(merged) -> str:
    h = hashlib.blake2b(merged.grid.F.tobytes())
    h.update(merged.grid.W.tobytes())
    return h.hexdigest()


class Checks:
    """Correctness checks; a failed one makes the run report ``correct: false``."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    def trajectory(self, name: str, trajectory, log):
        self.require(len(trajectory) == len(log),
                     f"{name}: {len(trajectory)} poses for {len(log)} records")
        self.require(all(t == r.timestamp for (t, _), r in zip(trajectory, log)),
                     f"{name}: timestamps not aligned with the log")
        self.require(all(math.isfinite(v) for _, p in trajectory
                         for v in (p.x, p.y, p.theta)),
                     f"{name}: non-finite pose")


@dataclass
class Measurement:
    setup_s: float
    slam_pass_s: list
    merge_s: list
    localize_frame_s: list  # per log, per round, per frame: seconds
    slam_rmse: tuple
    localize_rmse: tuple
    slam_attempted: int
    slam_failed: int
    localize_attempted: int
    localize_failed: int
    submaps: int
    outputs: tuple  # (slam poses, map digest, localize poses per log)


def measure(wl: Workload, seed: int, frames: int, seconds: float,
            checks: Checks) -> Measurement:
    """Set up, then time SLAM for ``seconds`` and merge plus localize for
    twice that, each at least once."""
    sim_s = []
    for logs, duration in timed_calls(lambda: simulate(wl, seed, frames), 0.0,
                                      SETUP_REPEATS):
        sim_s.append(duration)
    map_log, loc_logs = logs
    setup_s = statistics.median(sim_s)
    params = slam.SlamParams(submap_cells=SUBMAP_CELLS)

    first, slam_s, slam_failed = None, [], 0
    for run, duration in timed_calls(lambda: slam.run_slam(map_log, params),
                                     seconds, 1):
        k = len(slam_s)
        slam_s.append(duration)
        slam_failed += run.match_failures
        checks.trajectory(f"slam pass {k}", run.trajectory, map_log)
        if first is None:
            first = run
        checks.require(run.trajectory == first.trajectory,
                       f"slam pass {k} differs from pass 0")
    finished = first.collection.submaps
    checks.require(bool(finished) and all(s.finished for s in finished),
                   "merge_submaps given an unfinished submap")

    # Rounds of one merge and one pass over each localization log fill one
    # window, so merge and localize sample the machine over the same stretch
    # of time. Each round localizes against the first merge's map.
    merged, merge_s, elapsed = None, [], 0.0
    loc_trajs = [None] * len(loc_logs)
    loc_frame_s = [[] for _ in loc_logs]
    loc_failed = 0
    while not merge_s or elapsed < 2 * seconds:
        start = perf_counter()
        result = submaps.merge_submaps(finished)
        merge_s.append(perf_counter() - start)
        if merged is None:
            merged, digest = result, map_digest(result)
        checks.require(map_digest(result) == digest, "repeated merges differ")

        elapsed += merge_s[-1]
        for k, log in enumerate(loc_logs):
            trajectory, frame_s, failures = localize_pass(merged, log)
            name = f"localize log {k} round {len(merge_s) - 1}"
            checks.trajectory(name, trajectory, log)
            if loc_trajs[k] is None:
                loc_trajs[k] = trajectory
            checks.require(trajectory == loc_trajs[k], f"{name} differs from round 0")
            loc_frame_s[k].append(frame_s)
            loc_failed += failures
            elapsed += sum(frame_s)
    checks.require(merged.provenance == sorted(s.id for s in finished),
                   "merged map provenance does not list every submap")
    checks.require(map_digest(merged) == digest, "localization changed the map")

    slam_eval = evaluate_trajectory([p for _, p in first.trajectory],
                                    [r.gt for r in map_log])
    # The map frame is the first SLAM pose, i.e. the true pose of the first
    # map-log record; pair the two as an anchor that the RMSE excludes.
    loc_eval = evaluate_trajectory([IDENTITY] + [p for _, p in loc_trajs[0]],
                                   [map_log[0].gt] + [r.gt for r in loc_logs[0]])
    return Measurement(
        setup_s=setup_s,
        slam_pass_s=slam_s,
        merge_s=merge_s,
        localize_frame_s=loc_frame_s,
        slam_rmse=(slam_eval.rmse_translation, slam_eval.rmse_rotation),
        localize_rmse=(loc_eval.rmse_translation, loc_eval.rmse_rotation),
        slam_attempted=len(slam_s) * (len(map_log) - 1),
        slam_failed=slam_failed,
        localize_attempted=len(merge_s) * sum(len(log) for log in loc_logs),
        localize_failed=loc_failed,
        submaps=len(finished),
        outputs=([p for _, p in first.trajectory], digest,
                 [[p for _, p in t] for t in loc_trajs]),
    )


def end_to_end(m: Measurement, frames: int) -> dict[str, float]:
    # Each frame's median time over the rounds, then percentiles over the
    # frames of all logs: the slow frames of the lap stay in the tail, while
    # a burst of machine load that hits one round does not.
    frame_ms = np.concatenate([np.median(np.asarray(rounds), axis=0)
                               for rounds in m.localize_frame_s]) * 1e3
    return {
        "setup_s": m.setup_s,
        "slam_ms_per_scan": statistics.median(m.slam_pass_s) / frames * 1e3,
        "merge_s": statistics.median(m.merge_s),
        "localize_p50_ms": float(np.percentile(frame_ms, 50)),
        "localize_p90_ms": float(np.percentile(frame_ms, 90)),
        "slam_match_ok_frac": 1.0 - m.slam_failed / m.slam_attempted,
        "localize_match_ok_frac": 1.0 - m.localize_failed / m.localize_attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def accuracy(m: Measurement) -> dict[str, tuple[float, str]]:
    return {
        "slam_rmse_mm": (m.slam_rmse[0] * 1e3, "mm"),
        "slam_rmse_mrad": (m.slam_rmse[1] * 1e3, "mrad"),
        "localize_rmse_mm": (m.localize_rmse[0] * 1e3, "mm"),
        "localize_rmse_mrad": (m.localize_rmse[1] * 1e3, "mrad"),
    }


def _ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3


def per_layer(tr: tracing.Tracer, m: Measurement, overhead: dict) -> dict:
    """Per-layer metrics with their units, from one traced measurement."""
    stats = tr.layer_stats()
    counts = tr.counts
    out = accuracy(m)

    def span_metrics(name, *fields):
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "durations": [0.0]})
        values = {
            "calls": (s["calls"], "count"),
            "self_s": (s["self_s"], "s"),
            "p50_ms": (_ms(s["durations"], 50), "ms"),
            "p95_ms": (_ms(s["durations"], 95), "ms"),
        }
        for f in fields:
            out[f"{name}.{f}"] = values[f]
        return s

    span_metrics("mapping.integrate_scan", "calls", "self_s", "p50_ms", "p95_ms")
    for kind in ("updated", "carved", "skipped"):
        out[f"mapping.cells_{kind}"] = (counts[f"mapping.cells_{kind}"], "count")

    span_metrics("submaps.add_scan", "self_s")
    out["submaps.submaps_created"] = (m.submaps, "count")
    out["submaps.merge_submaps.s"] = (
        statistics.median(stats["submaps.merge_submaps"]["durations"]), "s")
    span_metrics("submaps.pure_localize", "p50_ms", "p95_ms")

    span_metrics("matching.match_two_stage", "calls", "self_s", "p50_ms", "p95_ms")
    span_metrics("matching.gauss_newton", "calls", "self_s")
    span_metrics("matching.trim_points", "self_s")
    matches = max(counts["matching.matches"], 1)
    out["matching.iters_stage1.mean"] = (counts["matching.iters_stage1"] / matches, "iters")
    out["matching.iters_stage2.mean"] = (counts["matching.iters_stage2"] / matches, "iters")
    out["matching.trimmed_frac"] = (
        counts["matching.points_trimmed"] / max(counts["matching.points_valid"], 1), "frac")
    out["matching.converged_frac"] = (counts["matching.converged"] / matches, "frac")
    for kind in ("singular_hessian", "too_few_points"):
        out[f"matching.fail.{kind}"] = (counts[f"matching.fail.{kind}"], "count")

    for kernel in ("bilinear_wf", "bilinear_fw", "bicubic_fw", "traverse_free"):
        name = f"kernels.{kernel}"
        s = span_metrics(name, "calls", "self_s")
        points = counts[f"{name}.points"]
        out[f"{name}.points"] = (points, "count")
        out[f"{name}.ns_per_point"] = (s["self_s"] / max(points, 1) * 1e9, "ns")

    for metric, delta in overhead.items():
        out[f"trace.overhead.{metric}"] = (delta, END_TO_END_UNITS[metric])
    return out


def labels(frames: int) -> dict:
    return {
        "kernels.BACKEND": kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "frames": frames,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="SLAM measuring time; merge and localize share twice it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--frames", type=int, default=FRAMES,
                    help="use only the first N frames of the lap (smoke tests)")
    args = ap.parse_args(argv)
    if not 2 <= args.frames <= FRAMES:
        ap.error(f"--frames must be in [2, {FRAMES}]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    checks = Checks()
    print("labels", json.dumps(labels(args.frames), sort_keys=True))

    if args.trace:
        # Fixed work (one SLAM pass, one merge and localize round) so
        # per-layer counts compare across commits; the untraced twin gives
        # the tracing overhead.
        plain = measure(wl, args.seed, args.frames, 0.0, checks)
        tr = tracing.Tracer()
        with tracing.installed(tr):
            traced = measure(wl, args.seed, args.frames, 0.0, checks)
        checks.require(traced.outputs == plain.outputs,
                       "tracing changed the pipeline's outputs")
        base = end_to_end(plain, args.frames)
        with_trace = end_to_end(traced, args.frames)
        overhead = {k: with_trace[k] - base[k] for k in TIMED_METRICS}
        m = traced
        metrics = per_layer(tr, traced, overhead)
        print(f"spans {len(tr.spans)}")
    else:
        m = measure(wl, args.seed, args.frames, args.seconds, checks)
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(m, args.frames).items()}

    print(f"samples slam_passes={len(m.slam_pass_s)} merges={len(m.merge_s)} "
          f"localize_rounds={len(m.localize_frame_s[0])} localize_frames="
          f"{sum(len(rounds[0]) for rounds in m.localize_frame_s)}")
    print("accuracy", " ".join(f"{k}={v:.4f}" for k, (v, _) in accuracy(m).items()))
    for what in checks.failures:
        print(f"check failed: {what}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    attempted = m.slam_attempted + m.localize_attempted
    failed = m.slam_failed + m.localize_failed
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
