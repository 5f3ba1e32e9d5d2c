"""Command-line entry points tying the pipeline together.

Subcommands: ``simulate`` (scenario to scan log), ``slam`` (scan log to
submaps, trajectory, and merged map), ``merge`` (submap set to merged map),
``localize`` (merged map plus scan log to trajectory and timing), ``eval``
(two trajectories to RMSE), ``export`` (map file to PGM image). Usage errors
exit 2, runtime errors exit 1 with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .evaluate import TimingStats, evaluate_trajectory
from .geometry import IDENTITY, Pose2
from . import logio
from .matching import MatchConfig, SingularHessian, TooFewPoints, predict_pose
from .simulate import parse_scenario, rectangle_circuit, run_scenario
from .slam import SlamParams, run_slam
from .submaps import MergedMap, merge_submaps, pure_localize

BUILTIN_SCENARIOS = ("rectangle-circuit",)


def _default(func, name: str):
    """The default value of ``func``'s parameter ``name``."""
    return inspect.signature(func).parameters[name].default


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _add_map_flags(p: argparse.ArgumentParser):
    p.add_argument("--resolution", type=float, default=SlamParams.resolution,
                   help="cell size, meters")
    p.add_argument("--truncation", type=float, default=SlamParams.truncation,
                   help="distance band half-width, meters")
    p.add_argument("--w-max", type=float, default=SlamParams.w_max, help="weight cap")
    p.add_argument("--max-expansions", type=int, default=SlamParams.max_expansions,
                   help="neighbor-ring budget (default: by resolution)")


def _from_flags(cls, args, **given):
    """``cls`` built from ``given`` and from every flag whose dest names a field.

    Each settings flag's dest is the field it sets, so its default is read
    from ``cls`` and is written nowhere else.
    """
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**flags, **given)


def _flag_names(p: argparse.ArgumentParser) -> dict[str, str]:
    """The flag of each of ``p``'s settings, by the field it sets."""
    settings = {f.name for cls in (SlamParams, MatchConfig) for f in fields(cls)}
    return {a.dest: a.option_strings[0] for a in p._actions if a.dest in settings}


def _checked(build, args):
    """``build(args)``, once each settings flag has been built alone.

    Every other setting then keeps the library's default, so a bad value's
    error can name its flag, and it shows before any file is read.
    """
    for dest, flag in args.flag_names.items():
        try:
            build(argparse.Namespace(**{dest: getattr(args, dest)}))
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    return build(args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdfslam")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write a scan log")
    p.add_argument("--scenario", required=True,
                   help="config file path or builtin name "
                        f"({', '.join(BUILTIN_SCENARIOS)})")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--gt-out", type=Path, default=None,
                   help="also write the true trajectory")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--outlier-rate", type=float, default=None)
    p.add_argument("--scans", type=int, default=None,
                   help="write only the first N frames of a builtin scenario's "
                        f"lap (default: all {_default(rectangle_circuit, 'scans')})")

    p = sub.add_parser("slam", help="build submaps and a merged map from a log")
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--out-dir", required=True, type=Path)
    _add_map_flags(p)
    p.add_argument("--iters1", dest="max_iters_stage1", type=int,
                   default=MatchConfig.max_iters_stage1, help="stage-1 iteration cap")
    p.add_argument("--iters2", dest="max_iters_stage2", type=int,
                   default=MatchConfig.max_iters_stage2, help="stage-2 iteration cap")
    p.add_argument("--submap-scans", type=int, default=SlamParams.submap_scans,
                   help="scans per submap before it is finished")
    p.add_argument("--submap-cells", type=int, default=SlamParams.submap_cells,
                   help="submap side length in cells")
    p.set_defaults(flag_names=_flag_names(p))

    p = sub.add_parser("merge", help="merge a submap set into one map file")
    p.add_argument("--submaps", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("localize", help="localize a scan log against a merged map")
    p.add_argument("--map", required=True, type=Path)
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--loc-iters", type=_positive_int,
                   default=_default(pure_localize, "iters"),
                   help="iteration cap for both stages")
    p.add_argument("--init", type=_finite_float, nargs=3, metavar=("X", "Y", "THETA"),
                   default=None,
                   help="initial pose in the map frame, whose origin is the "
                        "first SLAM pose (default: the origin)")

    p = sub.add_parser("eval", help="RMSE between two trajectory files")
    p.add_argument("--est", required=True, type=Path)
    p.add_argument("--gt", required=True, type=Path)
    p.add_argument("--anchor-gt", type=Path, default=None,
                   help="true trajectory of the map log: compare in the world "
                        "frame through its first pose instead of aligning the "
                        "first frames, and also print p95 and max")

    p = sub.add_parser("export", help="write a map file as a PGM image")
    p.add_argument("--map", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    return ap


def cmd_simulate(args) -> int:
    if args.scenario == "rectangle-circuit":
        # --scans cuts the lap short; it never changes the frame spacing.
        lap = _default(rectangle_circuit, "scans")
        if args.scans is not None and args.scans < 2:
            raise ValueError("scans must be at least 2")
        if args.scans is not None and args.scans > lap:
            print(f"error: --scans must be at most {lap}, the frames of one lap",
                  file=sys.stderr)
            return 2
        world, script, model, rate = rectangle_circuit()
    elif args.scans is not None:
        print("error: --scans applies to builtin scenarios only", file=sys.stderr)
        return 2
    else:
        world, script, model, rate = parse_scenario(args.scenario)
    overrides = {"seed": args.seed, "noise_sigma": args.noise_sigma,
                 "outlier_rate": args.outlier_rate}
    model = replace(model, **{k: v for k, v in overrides.items() if v is not None})
    records = run_scenario(world, script, model, rate)[:args.scans]
    logio.write_scan_log(records, args.out)
    if args.gt_out is not None:
        logio.write_trajectory(args.gt_out, [(r.timestamp, r.gt) for r in records])
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_slam(args) -> int:
    params = _checked(
        lambda ns: _from_flags(SlamParams, ns, match=_from_flags(MatchConfig, ns)), args)
    records = logio.parse_scan_log(args.log)
    if not records:
        print("error: empty scan log", file=sys.stderr)
        return 1
    result = run_slam(records, params)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    logio.write_trajectory(out / "trajectory.txt", result.trajectory)
    logio.write_submaps(result.collection.submaps, out / "submaps")
    merged = merge_submaps(result.collection.submaps)
    logio.save_map(merged.grid, out / "map.sdf2")
    print(f"slam: {len(records)} scans, {len(result.collection.submaps)} submaps, "
          f"{result.match_failures} match failures")
    return 0


def cmd_merge(args) -> int:
    submaps = logio.read_submaps(args.submaps)
    merged = merge_submaps(submaps)
    logio.save_map(merged.grid, args.out)
    print(f"merged {len(submaps)} submaps into {args.out}")
    return 0


def cmd_localize(args) -> int:
    grid = logio.load_map(args.map)
    merged = MergedMap(grid=grid, provenance=[])
    records = logio.parse_scan_log(args.log)
    if not records:
        print("error: empty scan log", file=sys.stderr)
        return 1

    pose = IDENTITY if args.init is None else Pose2(*args.init)
    trajectory: list[tuple[float, Pose2]] = []
    timings = []
    failures = 0
    for record in records:
        init = pose if not trajectory else predict_pose(
            trajectory, target_time=record.timestamp)
        start = time.perf_counter()
        try:
            pose = pure_localize(merged, record.scan, init, args.loc_iters).pose
        except (SingularHessian, TooFewPoints):
            # As in run_slam: keep the prediction and count the frame.
            failures += 1
            pose = init
        timings.append(time.perf_counter() - start)
        trajectory.append((record.timestamp, pose))
    logio.write_trajectory(args.out, trajectory)
    print(f"localize: {len(records)} scans, {failures} match failures")
    stats = TimingStats.from_samples(timings)
    print("timing[s] median mean max std")
    print(f"timing[s] {stats.table_row()}")
    return 0


def cmd_eval(args) -> int:
    est = logio.read_trajectory(args.est)
    gt = logio.read_trajectory(args.gt)
    for (te, _), (tg, _) in zip(est, gt):
        if not math.isclose(te, tg, rel_tol=0.0, abs_tol=1e-6):
            print("error: trajectories are not timestamp-aligned", file=sys.stderr)
            return 1
    anchor = None
    if args.anchor_gt is not None:
        map_gt = logio.read_trajectory(args.anchor_gt)
        if not map_gt:
            print("error: empty anchor trajectory", file=sys.stderr)
            return 1
        anchor = map_gt[0][1]
    report = evaluate_trajectory([p for _, p in est], [p for _, p in gt], anchor)
    print(f"rmse_translation {report.rmse_translation:.6f}")
    print(f"rmse_rotation {report.rmse_rotation:.6f}")
    if anchor is not None:
        print(f"p95_translation {report.p95_translation:.6f}")
        print(f"max_translation {report.max_translation:.6f}")
    return 0


def cmd_export(args) -> int:
    grid = logio.load_map(args.map)
    logio.export_image(grid, args.out)
    print(f"wrote {grid.geometry.width}x{grid.geometry.height} image to {args.out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "slam": cmd_slam,
    "merge": cmd_merge,
    "localize": cmd_localize,
    "eval": cmd_eval,
    "export": cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
