"""The command-line pipeline end to end, through ``cli.main``.

One short lap runs simulate -> slam -> merge -> localize -> eval -> export
with default flags: the first 120 frames of the 400-frame
``rectangle-circuit`` log.
"""

import contextlib
import io

import pytest

from sdfslam import cli

FRAMES = 120


def run(*argv):
    """``cli.main`` on ``argv``; returns the exit code and the printed text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


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

    def test_slam_rejects_one_scan_submaps(self, pipeline, tmp_path):
        # Every submap would finish before it could be a matching target.
        d, _ = pipeline
        code, text = run("slam", "--log", d / "log.txt", "--out-dir", tmp_path / "slam",
                         "--submap-scans", 1)
        assert code == 1
        assert "scans_per_submap must be at least 2" in text
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

    def test_nan_setting_stops_with_a_diagnostic(self, tmp_path):
        # The settings are checked before any file is read.
        code, text = run("localize", "--map", tmp_path / "m.sdf2", "--log",
                         tmp_path / "l.txt", "--out", tmp_path / "o.txt", "--trim", "nan")
        assert code == 1
        assert "trim_threshold must be positive" in text
        assert not (tmp_path / "o.txt").exists()

    def test_negative_noise_stops_with_a_diagnostic(self, tmp_path):
        code, text = run("simulate", "--scenario", "rectangle-circuit",
                         "--out", tmp_path / "scans.log", "--noise-sigma", -0.05)
        assert code == 1
        assert "noise_sigma must be non-negative" in text
        assert not (tmp_path / "scans.log").exists()

    def test_scans_rejected_for_scenario_file(self, tmp_path):
        # A scenario file sets its own frame count from its waypoints.
        code, text = run("simulate", "--scenario", tmp_path / "room.txt",
                         "--out", tmp_path / "scans.log", "--scans", 10)
        assert code == 2
        assert "--scans" in text
        assert not (tmp_path / "scans.log").exists()
