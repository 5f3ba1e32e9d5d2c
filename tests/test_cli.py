"""The command-line pipeline end to end, through ``cli.main``.

One short lap runs simulate -> slam -> merge -> localize -> eval -> export
with default flags: the first 120 frames of the 400-frame
``rectangle-circuit`` log.
"""

import contextlib
import io
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from sdfslam import cli

FRAMES = 120
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    """``cli.main`` on ``argv``; returns the exit code and the printed text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def usage_error(*argv):
    """The exit code and message of a command that argparse rejects."""
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main([str(a) for a in argv])
    return exc.value.code, err.getvalue()


def rmse_translation(text):
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "rmse_translation":
            return float(value)
    raise AssertionError(f"no rmse_translation in {text!r}")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    steps = {}
    steps["simulate"] = run("simulate", "--scenario", "rectangle-circuit",
                            "--out", d / "full.log", "--gt-out", d / "full_gt.txt")
    for full, short in (("full.log", "log.txt"), ("full_gt.txt", "gt.txt")):
        lines = (d / full).read_text().splitlines(keepends=True)
        (d / short).write_text("".join(lines[:FRAMES]))
    steps["slam"] = run("slam", "--log", d / "log.txt", "--out-dir", d / "slam")
    steps["merge"] = run("merge", "--submaps", d / "slam" / "submaps",
                         "--out", d / "merged.sdf2")
    steps["localize"] = run("localize", "--map", d / "slam" / "map.sdf2",
                            "--log", d / "log.txt", "--out", d / "loc.txt")
    # The same log with no valid range in its middle record.
    lines = (d / "log.txt").read_text().splitlines()
    tokens = lines[FRAMES // 2].split()
    count = int(tokens[5])
    tokens[6:6 + count] = ["inf"] * count
    lines[FRAMES // 2] = " ".join(tokens)
    (d / "gap.txt").write_text("\n".join(lines) + "\n")
    steps["localize-gap"] = run("localize", "--map", d / "slam" / "map.sdf2",
                                "--log", d / "gap.txt", "--out", d / "loc_gap.txt")
    steps["eval-slam"] = run("eval", "--est", d / "slam" / "trajectory.txt",
                             "--gt", d / "gt.txt")
    steps["eval-localize"] = run("eval", "--est", d / "loc.txt", "--gt", d / "gt.txt")
    steps["eval-localize-world"] = run("eval", "--est", d / "loc.txt", "--gt", d / "gt.txt",
                                       "--anchor-gt", d / "gt.txt")
    steps["export"] = run("export", "--map", d / "slam" / "map.sdf2",
                          "--out", d / "map.pgm")
    return d, steps


class TestPipeline:
    def test_every_step_succeeds(self, pipeline):
        _, steps = pipeline
        assert {name: code for name, (code, _) in steps.items()} == {
            name: 0 for name in steps}

    def test_simulate_writes_full_lap(self, pipeline):
        d, steps = pipeline
        assert "wrote 400 records" in steps["simulate"][1]
        assert len((d / "log.txt").read_text().splitlines()) == FRAMES

    def test_slam_has_no_match_failures(self, pipeline):
        _, steps = pipeline
        assert f"slam: {FRAMES} scans" in steps["slam"][1]
        assert "0 match failures" in steps["slam"][1]

    def test_merge_reproduces_slam_map(self, pipeline):
        d, _ = pipeline
        assert (d / "merged.sdf2").read_bytes() == (d / "slam" / "map.sdf2").read_bytes()

    def test_slam_accuracy(self, pipeline):
        _, steps = pipeline
        assert rmse_translation(steps["eval-slam"][1]) < 0.010

    def test_localize_from_map_origin(self, pipeline):
        # No --init: the first frame starts at the map origin, which is
        # where SLAM put the first pose of the same log.
        d, steps = pipeline
        assert len((d / "loc.txt").read_text().splitlines()) == FRAMES
        assert "0 match failures" in steps["localize"][1]
        assert rmse_translation(steps["eval-localize"][1]) < 0.005

    def test_eval_in_the_world_frame(self, pipeline):
        # The localized log is the map log, so its gt's first pose is the
        # map-to-world transform. Only the anchored eval adds p95 and max.
        _, steps = pipeline
        keys = ["rmse_translation", "rmse_rotation"]
        world = steps["eval-localize-world"][1]
        assert [line.split()[0] for line in steps["eval-localize"][1].splitlines()] == keys
        assert [line.split()[0] for line in world.splitlines()] == keys + [
            "p95_translation", "max_translation"]
        values = {line.split()[0]: float(line.split()[1]) for line in world.splitlines()}
        assert values["rmse_translation"] <= values["max_translation"] < 0.015
        assert values["p95_translation"] <= values["max_translation"]

    def test_localize_survives_a_failed_frame(self, pipeline):
        # The empty record cannot be matched: it keeps its predicted pose,
        # and every other frame is still localized and written.
        d, steps = pipeline
        assert "localize: 120 scans, 1 match failures" in steps["localize-gap"][1]
        assert len((d / "loc_gap.txt").read_text().splitlines()) == FRAMES

    def test_merge_rejects_a_non_finite_anchor(self, pipeline, tmp_path):
        d, _ = pipeline
        shutil.copytree(d / "slam" / "submaps", tmp_path / "submaps")
        index = tmp_path / "submaps" / "index.txt"
        lines = index.read_text().splitlines()
        tokens = lines[0].split()
        tokens[3] = "nan"  # the first anchor's x
        lines[0] = " ".join(tokens)
        index.write_text("\n".join(lines) + "\n")
        code, text = run("merge", "--submaps", tmp_path / "submaps",
                         "--out", tmp_path / "merged.sdf2")
        assert (code, text) == (1, "error: line 1: non-finite x: nan\n")
        assert not (tmp_path / "merged.sdf2").exists()

    @pytest.mark.parametrize("plane, value, reason", [
        ("F", float("nan"), "non-finite"), ("W", -1.0, "negative or non-finite")])
    def test_localize_rejects_a_corrupt_map(self, pipeline, tmp_path, plane, value, reason):
        # The first cell of the plane, which is unknown, holds ``value``.
        d, _ = pipeline
        data = bytearray((d / "slam" / "map.sdf2").read_bytes())
        offset = 64 if plane == "F" else 64 + (len(data) - 64) // 2
        data[offset:offset + 4] = struct.pack("<f", value)
        (tmp_path / "bad.sdf2").write_bytes(bytes(data))
        code, text = run("localize", "--map", tmp_path / "bad.sdf2", "--log", d / "log.txt",
                         "--out", tmp_path / "loc.txt")
        assert (code, text) == (1, f"error: {plane} plane holds a {reason} value at cell 0\n")
        assert not (tmp_path / "loc.txt").exists()

    @pytest.mark.parametrize("flag", ["--est", "--gt", "--anchor-gt"])
    def test_eval_rejects_a_non_finite_pose(self, pipeline, tmp_path, flag):
        # The fifth pose's heading is infinite in the file given to ``flag``.
        d, _ = pipeline
        lines = (d / "gt.txt").read_text().splitlines()
        tokens = lines[4].split()
        tokens[3] = "inf"
        lines[4] = " ".join(tokens)
        (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
        files = {"--est": d / "loc.txt", "--gt": d / "gt.txt", "--anchor-gt": d / "gt.txt",
                 flag: tmp_path / "bad.txt"}
        code, text = run("eval", *(arg for pair in files.items() for arg in pair))
        assert (code, text) == (1, "error: line 5: non-finite theta: inf\n")

    def test_scans_cut_the_lap_short(self, pipeline, tmp_path):
        # --scans 60 writes the lap's first 60 frames, so the frame spacing
        # stays the reference lap's and every match succeeds.
        d, _ = pipeline
        code, text = run("simulate", "--scenario", "rectangle-circuit", "--scans", 60,
                         "--out", tmp_path / "scans.log")
        assert code == 0 and "wrote 60 records" in text
        full = (d / "full.log").read_text().splitlines(keepends=True)
        assert (tmp_path / "scans.log").read_text() == "".join(full[:60])
        code, text = run("slam", "--log", tmp_path / "scans.log",
                         "--out-dir", tmp_path / "slam")
        assert code == 0
        assert "slam: 60 scans" in text and "0 match failures" in text

    def test_slam_rejects_one_scan_submaps(self, pipeline, tmp_path):
        # Every submap would finish before it could be a matching target.
        d, _ = pipeline
        code, text = run("slam", "--log", d / "log.txt", "--out-dir", tmp_path / "slam",
                         "--submap-scans", 1)
        assert code == 1
        assert "scans_per_submap must be at least 2" in text
        assert not (tmp_path / "slam").exists()

    def test_slam_rejects_one_cell_submaps(self, pipeline, tmp_path):
        # Bilinear sampling needs two nodes per axis.
        d, _ = pipeline
        code, text = run("slam", "--log", d / "log.txt", "--out-dir", tmp_path / "slam",
                         "--submap-cells", 1)
        assert code == 1
        assert "cells must be at least 2" in text
        assert not (tmp_path / "slam").exists()

    def test_export_writes_image(self, pipeline):
        d, steps = pipeline
        assert (d / "map.pgm").read_bytes().startswith(b"P5\n")
        assert "image" in steps["export"][1]


class TestUsage:
    def test_localize_has_no_stage_iteration_flags(self, tmp_path):
        # localize caps both stages with --loc-iters alone.
        with pytest.raises(SystemExit) as exc:
            run("localize", "--map", tmp_path / "m.sdf2", "--log", tmp_path / "l.txt",
                "--out", tmp_path / "o.txt", "--iters1", 3)
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--iters1", 0, "max_iters_stage1 must be positive"),
        ("--max-expansions", -1, "max_expansions must be >= 0"),
        ("--w-max", "inf", "w_max must be positive and finite"),
    ])
    def test_bad_slam_flag_stops_with_its_name(self, tmp_path, flag, value, message):
        # Checked before the log is read: the log does not exist.
        code, text = run("slam", "--log", tmp_path / "missing.log",
                         "--out-dir", tmp_path / "slam", flag, value)
        assert code == 1
        assert text == f"error: {flag}: {message}\n"
        assert not (tmp_path / "slam").exists()

    @pytest.mark.parametrize("sigma", [-0.05, "inf"])
    def test_bad_noise_stops_with_a_diagnostic(self, tmp_path, sigma):
        code, text = run("simulate", "--scenario", "rectangle-circuit",
                         "--out", tmp_path / "scans.log", "--noise-sigma", sigma)
        assert code == 1
        assert "noise_sigma must be non-negative and finite" in text
        assert not (tmp_path / "scans.log").exists()

    @pytest.mark.parametrize("scans", [1, 0, -3])
    def test_too_few_scans_stop_with_a_diagnostic(self, tmp_path, scans):
        code, text = run("simulate", "--scenario", "rectangle-circuit",
                         "--out", tmp_path / "scans.log", "--scans", scans)
        assert code == 1
        assert "scans must be at least 2" in text
        assert not (tmp_path / "scans.log").exists()

    def test_more_scans_than_one_lap_stop_with_a_diagnostic(self, tmp_path):
        code, text = run("simulate", "--scenario", "rectangle-circuit",
                         "--out", tmp_path / "scans.log", "--scans", 401)
        assert code == 2
        assert "--scans" in text and "400" in text
        assert not (tmp_path / "scans.log").exists()

    @pytest.mark.parametrize("flag, values", [
        ("--init", ["0", "0", "nan"]),
        ("--init", ["inf", "0", "0"]),
        ("--loc-iters", ["0"]),
        ("--loc-iters", ["-2"]),
    ])
    def test_bad_localize_flag_stops_with_its_name(self, tmp_path, flag, values):
        # Rejected before any file is read: neither input exists.
        code, text = usage_error("localize", "--map", tmp_path / "m.sdf2",
                                 "--log", tmp_path / "l.txt", "--out", tmp_path / "o.txt",
                                 flag, *values)
        assert code == 2
        assert f"argument {flag}" in text
        assert not (tmp_path / "o.txt").exists()

    def test_scans_rejected_for_scenario_file(self, tmp_path):
        # A scenario file sets its own frame count from its waypoints.
        code, text = run("simulate", "--scenario", tmp_path / "room.txt",
                         "--out", tmp_path / "scans.log", "--scans", 10)
        assert code == 2
        assert "--scans" in text
        assert not (tmp_path / "scans.log").exists()


class TestModuleEntry:
    def test_python_m_runs_simulate_and_slam(self, tmp_path):
        # ``python -m sdfslam`` as a process of its own, from another
        # directory. A submap worker starts at scan 25, so slam runs it too.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def sdfslam(*argv):
            return subprocess.run(
                [sys.executable, *(f"-W{w}" for w in sys.warnoptions), "-m", "sdfslam",
                 *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120)

        simulate = sdfslam("simulate", "--scenario", "rectangle-circuit", "--scans", "30",
                           "--out", "scans.log")
        assert simulate.returncode == 0, simulate.stderr
        slam = sdfslam("slam", "--log", "scans.log", "--out-dir", "slam")
        assert slam.returncode == 0, slam.stderr
        assert "slam: 30 scans" in slam.stdout
        assert (tmp_path / "slam" / "map.sdf2").is_file()
