import json
import logging
import shutil
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from gaitnorm import figures
from gaitnorm.cli import main
from gaitnorm.kinematics import JOINT_NAMES, MISSING_REASONS, angle_series_set
from gaitnorm.pose_io import (KeypointFrame, PoseSequence, load_cycles,
                              load_norm_model, load_report,
                              parse_pose_sequence, save_cycles,
                              serialize_annotations, serialize_pose_sequence)
from gaitnorm.synth import (demo_profiles, generate_cohort,
                            generate_pose_sequence)

from helpers import dimmed_walker

FIXTURES = Path(__file__).parent / "fixtures"
KEYPOINTS = FIXTURES / "demo.keypoints.jsonl"
ANNOTATIONS = FIXTURES / "demo.cycles.json"


def test_synth_build_detect_figures_flow(tmp_path):
    cycles_path = tmp_path / "cohort.json"
    model_path = tmp_path / "model.json"
    reports_dir = tmp_path / "reports"
    figures_dir = tmp_path / "figures"

    assert main(["synth", "--out", str(cycles_path), "--n", "25",
                 "--seed", "3"]) == 0
    cohort = load_cycles(cycles_path.read_bytes())
    assert len(cohort) == 25

    assert main(["build-norm", "--cycles", str(cycles_path),
                 "--out", str(model_path)]) == 0
    model = load_norm_model(model_path.read_bytes())
    assert len(model.joints) == 10
    assert len(model.provenance) == 25

    assert main(["detect", "--cycles", str(cycles_path),
                 "--model", str(model_path),
                 "--out-dir", str(reports_dir), "--video-id", "demo"]) == 0
    report_files = sorted(reports_dir.glob("demo.c*.report.json"))
    assert len(report_files) == 25
    report = load_report(report_files[0].read_bytes())
    assert set(report.z) == set(model.joints)

    assert main(["figures", "--model", str(model_path),
                 "--report", str(report_files[0]),
                 "--cycles", str(cycles_path),
                 "--out-dir", str(figures_dir)]) == 0
    assert (figures_dir / "demo.band.left_knee.svg").exists()
    assert (figures_dir / "demo.heatmap.svg").exists()
    assert (figures_dir / "demo.multijoint.svg").exists()
    assert (figures_dir / "demo.heatmap.svg.json").exists()


def test_angles_and_segment(tmp_path):
    angles_path = tmp_path / "angles.json"
    cycles_path = tmp_path / "cycles.json"
    assert main(["angles", "--keypoints", str(KEYPOINTS),
                 "--out", str(angles_path)]) == 0
    doc = json.loads(angles_path.read_text())
    assert len(doc["joints"]) == 10

    assert main(["segment", "--keypoints", str(KEYPOINTS),
                 "--annotations", str(ANNOTATIONS),
                 "--out", str(cycles_path)]) == 0
    assert json.loads(cycles_path.read_text())["grid_points"] == 101
    cycles = load_cycles(cycles_path.read_bytes())
    assert len(cycles) == 4
    assert [c.label for c in cycles] == ["typical"] * 3 + ["atypical"]
    assert all(all(c.valid.values()) for c in cycles)


def _cohort_60(tmp_path):
    """``synth --n 60 --seed 3``: the cohort path."""
    cohort = tmp_path / "cohort.json"
    assert main(["synth", "--n", "60", "--seed", "3",
                 "--out", str(cohort)]) == 0
    return cohort


def test_segment_and_synth_angles_have_at_most_3_decimals(tmp_path):
    # Cycle angles are computed at 1/1000 deg and written as they are:
    # read as number text, no angle of segment or synth has more than 3
    # decimals, so a stage or writer that goes back to full precision
    # fails here.
    demo = tmp_path / "demo.cycles.json"
    assert main(["segment", "--keypoints", str(KEYPOINTS),
                 "--annotations", str(ANNOTATIONS), "--out", str(demo)]) == 0
    n = 0
    for path in (demo, _cohort_60(tmp_path)):
        doc = json.loads(path.read_text(), parse_float=str)
        for cycle in doc["cycles"]:
            for joint, entry in cycle["joints"].items():
                for text in entry["angle"] or ():
                    assert Decimal(str(text)).as_tuple().exponent >= -3, \
                        (path.name, cycle["cycle_id"], joint, text)
                    n += 1
    assert n == 4 * 10 * 101 + 60 * 10 * 101 == 64_640


def test_detect_reports_are_strict_json_with_z_at_thousandths(tmp_path):
    # Every report is strict JSON (no NaN or Infinity token), and holds
    # each z at 1/1000 SD.
    cohort, model = _cohort_60(tmp_path), tmp_path / "model.json"
    assert main(["build-norm", "--cycles", str(cohort),
                 "--out", str(model)]) == 0
    assert main(["detect", "--cycles", str(cohort), "--model", str(model),
                 "--out-dir", str(tmp_path / "all")]) == 0

    def refuse(token):
        raise ValueError(f"non-finite token {token}")

    paths = sorted((tmp_path / "all").glob("*.report.json"))
    assert len(paths) == 60
    n = 0
    for path in paths:
        doc = json.loads(path.read_text(), parse_constant=refuse)
        for joint, entry in doc["joints"].items():
            for z in entry["z"]:
                assert round(z, 3) == z, (path.name, joint, z)
                n += 1
    assert n == 60 * 10 * 101


def test_angles_output_holds_the_angle_columns(tmp_path):
    # Nothing reads gaitnorm-angles/1 back: decode it with the standard
    # library and compare it with the columns angle_series_set computes.
    out = tmp_path / "angles.json"
    assert main(["angles", "--keypoints", str(KEYPOINTS),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    series = angle_series_set(parse_pose_sequence(KEYPOINTS.read_bytes()))
    assert doc["schema"] == "gaitnorm-angles/1"
    assert sorted(doc["joints"]) == sorted(JOINT_NAMES)
    for joint, rows in doc["joints"].items():
        assert len(rows) == 121
        assert all(isinstance(r, list) and len(r) == 3
                   and type(r[0]) is int and type(r[1]) in (float, type(None))
                   and (r[2] is None or isinstance(r[2], str)) for r in rows)
        s = series[joint]
        assert [r[0] for r in rows] == s.frames.tolist()
        assert [repr(r[1]) for r in rows] == [
            repr(None if a != a else a) for a in s.angles.tolist()]
        assert [r[2] for r in rows] == [
            MISSING_REASONS[code] for code in s.reasons.tolist()]


def test_run_end_to_end(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run", "--keypoints", str(KEYPOINTS),
                 "--annotations", str(ANNOTATIONS),
                 "--out-dir", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert "synthetic-walk.model.json" in names
    assert "synthetic-walk.c0.report.json" in names
    assert "synthetic-walk.c3.report.json" in names
    assert "synthetic-walk.c0.multijoint.svg" in names
    assert "synthetic-walk.c0.heatmap.svg" in names
    assert "synthetic-walk.band.left_knee.svg" in names
    assert "synthetic-walk.overlays.json" in names
    model = load_norm_model((out_dir / "synthetic-walk.model.json").read_bytes())
    assert len(model.provenance) == 3  # typical cycles only

    overlays = json.loads((out_dir / "synthetic-walk.overlays.json").read_text())
    assert len(overlays) == 121
    statuses = {v for rec in overlays for v in rec["joint_status"].values()}
    assert statuses <= {"normal", "abnormal", "unknown"}


def test_run_with_existing_model(tmp_path):
    cohort = tmp_path / "cohort.json"
    model_path = tmp_path / "model.json"
    out_dir = tmp_path / "out"
    # build a model from a synthetic keypoint-derived cohort via segment
    assert main(["segment", "--keypoints", str(KEYPOINTS),
                 "--annotations", str(ANNOTATIONS), "--out", str(cohort)]) == 0
    assert main(["build-norm", "--cycles", str(cohort),
                 "--out", str(model_path)]) == 0
    assert main(["run", "--keypoints", str(KEYPOINTS),
                 "--annotations", str(ANNOTATIONS), "--model", str(model_path),
                 "--out-dir", str(out_dir)]) == 0
    assert not (out_dir / "synthetic-walk.model.json").exists()


def test_validation_error_exits_1(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"frame": 0, "keypoints": {"left_knee": [1, 2, 9.0]}}\n'
                   '{"frame": 1, "keypoints": {}}\n')
    assert main(["angles", "--keypoints", str(bad),
                 "--out", str(tmp_path / "o.json")]) == 1


def test_missing_file_exits_2(tmp_path):
    assert main(["angles", "--keypoints", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "o.json")]) == 2


def test_usage_error_exits_1(tmp_path, capsys):
    assert main(["angles", "--keypoints"]) == 1
    assert main(["no-such-command"]) == 1


def test_config_file_overrides_flags(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 3, "seed": 11}))
    out = tmp_path / "cohort.json"
    assert main(["synth", "--out", str(out), "--n", "50", "--seed", "1",
                 "--config", str(config)]) == 0
    assert len(load_cycles(out.read_bytes())) == 3


def test_config_from_environment(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 2}))
    monkeypatch.setenv("GAITNORM_CONFIG", str(config))
    out = tmp_path / "cohort.json"
    assert main(["synth", "--out", str(out), "--n", "50"]) == 0
    assert len(load_cycles(out.read_bytes())) == 2


def test_unknown_config_key_exits_1(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid_pointz": 51}))
    assert main(["synth", "--out", str(tmp_path / "c.json"),
                 "--config", str(config)]) == 1


def test_detect_reports_model_missing_joint_as_unknown(tmp_path):
    # cohort covers two joints, model covers one: the scoreless joint must
    # surface as unknown instead of failing the run
    cohort_path = tmp_path / "cohort.json"
    two_joint = tmp_path / "profiles.json"
    two_joint.write_text(json.dumps({
        "left_knee": {"baseline_deg": 120.0, "harmonics": [],
                      "noise_sd_deg": 1.0},
        "left_hip": {"baseline_deg": 150.0, "harmonics": [],
                     "noise_sd_deg": 1.0},
    }))
    assert main(["synth", "--out", str(cohort_path), "--n", "6",
                 "--profiles", str(two_joint)]) == 0

    one_joint = tmp_path / "knee_only.json"
    one_joint.write_text(json.dumps({
        "left_knee": {"baseline_deg": 120.0, "harmonics": [],
                      "noise_sd_deg": 1.0}}))
    knee_cohort = tmp_path / "knee_cohort.json"
    model_path = tmp_path / "model.json"
    assert main(["synth", "--out", str(knee_cohort), "--n", "6",
                 "--profiles", str(one_joint)]) == 0
    assert main(["build-norm", "--cycles", str(knee_cohort),
                 "--out", str(model_path)]) == 0

    reports_dir = tmp_path / "reports"
    assert main(["detect", "--cycles", str(cohort_path),
                 "--model", str(model_path), "--out-dir", str(reports_dir),
                 "--video-id", "v"]) == 0
    report = load_report((reports_dir / "v.c0.report.json").read_bytes())
    assert "left_hip" in report.unknown_joints
    assert set(report.z) == {"left_knee"}


def _write_walk(tmp_path, seq, annotations):
    kp_path = tmp_path / "walk.keypoints.jsonl"
    ann_path = tmp_path / "walk.cycles.json"
    kp_path.write_bytes(serialize_pose_sequence(seq))
    ann_path.write_bytes(serialize_annotations(seq.video_id, annotations))
    return kp_path, ann_path


def test_run_reports_a_cycle_with_every_joint_unknown(tmp_path):
    # cycle 1 keeps too few knots for any joint: it is reported, drawn and
    # overlaid as unknown, and the run goes on
    kp_path, ann_path = _write_walk(tmp_path, *dimmed_walker(4, 30, 1))
    out = tmp_path / "out"
    assert main(["run", "--keypoints", str(kp_path), "--annotations",
                 str(ann_path), "--out-dir", str(out)]) == 0
    prefix = out / "dimmed-walk"
    report = load_report(Path(f"{prefix}.c1.report.json").read_bytes())
    assert report.unknown_joints == list(JOINT_NAMES)
    assert report.z == report.severity == {}
    heatmap = json.loads(Path(f"{prefix}.c1.heatmap.svg.json").read_text())
    assert heatmap["blank_rows"] == list(JOINT_NAMES)
    assert heatmap["max_severity"] is None
    multi = json.loads(Path(f"{prefix}.c1.multijoint.svg.json").read_text())
    assert not any(p["rendered"] for p in multi["panels"])
    overlay = json.loads(Path(f"{prefix}.overlays.json").read_text())
    assert {s for r in overlay[31:59] for s in r["joint_status"].values()} \
        == {"unknown"}
    assert "normal" in overlay[10]["joint_status"].values()
    for i in (0, 2, 3):
        assert load_report(Path(f"{prefix}.c{i}.report.json").read_bytes()
                           ).unknown_joints == []

    # figures draws the same report the same way
    assert main(["segment", "--keypoints", str(kp_path), "--annotations",
                 str(ann_path), "--out", str(tmp_path / "cycles.json")]) == 0
    assert main(["figures", "--model", f"{prefix}.model.json",
                 "--report", f"{prefix}.c1.report.json",
                 "--cycles", str(tmp_path / "cycles.json"),
                 "--out-dir", str(tmp_path / "fig")]) == 0
    for name in ("heatmap.svg", "heatmap.svg.json", "multijoint.svg"):
        assert (tmp_path / "fig" / f"dimmed-walk.{name}").read_bytes() == \
            Path(f"{prefix}.c1.{name}").read_bytes()


def _one_cycle_cohort(tmp_path):
    path = tmp_path / "one.cycles.json"
    assert main(["synth", "--out", str(path), "--n", "1"]) == 0
    return path


def _invalid_cohort(tmp_path):
    path = tmp_path / "invalid.cycles.json"
    path.write_text(json.dumps({
        "schema": "gaitnorm-cycles/1", "grid_points": 3,
        "cycles": [{"label": "typical", "cycle_id": c,
                    "joints": {"left_knee": {"valid": False, "angle": None}}}
                   for c in "abc"]}))
    return path


def _atypical_cohort(tmp_path):
    path = tmp_path / "atypical.cycles.json"
    cohort = generate_cohort(demo_profiles(), 3, seed=2)
    for cycle in cohort:
        cycle.label = "atypical"
    path.write_bytes(save_cycles(cohort))
    return path


@pytest.mark.parametrize("cohort,n", [(_one_cycle_cohort, 1),
                                      (_invalid_cohort, 3),
                                      (_atypical_cohort, 0)],
                         ids=["one-typical-cycle", "every-joint-invalid",
                              "no-typical-cycle"])
def test_build_norm_refuses_a_model_without_joints(tmp_path, capsys, cohort,
                                                    n):
    model = tmp_path / "model.json"
    assert main(["build-norm", "--cycles", str(cohort(tmp_path)),
                 "--out", str(model)]) == 1
    assert capsys.readouterr().err.endswith(
        f"gaitnorm: validation error: cannot build a normative model: no "
        f"joint is valid in 2 or more of the {n} typical cycle(s)\n")
    assert not model.exists()


def test_run_refuses_a_model_from_one_typical_cycle(tmp_path, capsys):
    seq, annotations = generate_pose_sequence(n_cycles=2)  # 1 typical
    kp_path, ann_path = _write_walk(tmp_path, seq, annotations)
    out = tmp_path / "out"
    assert main(["run", "--keypoints", str(kp_path), "--annotations",
                 str(ann_path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        "no joint is valid in 2 or more of the 1 typical cycle(s)\n")
    assert not out.exists()


def test_custom_profiles(tmp_path):
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps({
        "left_knee": {"baseline_deg": 120.0,
                      "harmonics": [[15.0, 1, 0.0]],
                      "noise_sd_deg": 1.0},
        "left_hip": {"baseline_deg": 150.0, "harmonics": [],
                     "noise_sd_deg": 1.0},
    }))
    out = tmp_path / "cohort.json"
    assert main(["synth", "--out", str(out), "--n", "4",
                 "--profiles", str(profiles)]) == 0
    cohort = load_cycles(out.read_bytes())
    assert set(cohort[0].angles) == {"left_knee", "left_hip"}


def test_run_time_phases_drive_overlay_statuses(tmp_path):
    # Uneven timestamps: under --phase-source time each frame's overlay
    # status must read the grid sample of its time-linear phase, the same
    # phase its cycle was resampled on.
    keypoints, cycles, times, annotations = _jittered_walker(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--keypoints", str(keypoints), "--annotations",
                 str(cycles), "--out-dir", str(out_dir), "--k", "0.5",
                 "--phase-source", "time"]) == 0

    overlays = json.loads((out_dir / "jitter.overlays.json").read_text())
    checked = flagged = 0
    for i, ann in enumerate(annotations):
        report = load_report(
            (out_dir / f"jitter.c{i}.report.json").read_bytes())
        t0, t1 = times[ann.start_frame], times[ann.end_frame]
        # a shared boundary frame belongs to the earlier cycle
        first = ann.start_frame + (1 if i else 0)
        for f in range(first, ann.end_frame + 1):
            phase = 100.0 * (times[f] - t0) / (t1 - t0)
            g = round(phase / 100.0 * (report.grid_points - 1))
            for joint, flags in report.flag.items():
                expected = "abnormal" if flags[g] else "normal"
                assert overlays[f]["joint_status"][joint] == expected
                checked += 1
                flagged += bool(flags[g])
    assert checked == len(times) * 10 and flagged > 0


def test_figures_overlays_follow_the_report_phase_source(tmp_path):
    # After `run --phase-source time`, `figures --keypoints` on one cycle's
    # report must map statuses with the same time-linear phases as `run`.
    keypoints, cycles, _, annotations = _jittered_walker(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--keypoints", str(keypoints), "--annotations",
                 str(cycles), "--out-dir", str(out_dir), "--k", "0.5",
                 "--phase-source", "time"]) == 0
    last = len(annotations) - 1
    report = out_dir / f"jitter.c{last}.report.json"
    assert json.loads(report.read_text())["cycle"]["phase_source"] == "time"
    fig_dir = tmp_path / "figures"
    assert main(["figures", "--model", str(out_dir / "jitter.model.json"),
                 "--report", str(report), "--keypoints", str(keypoints),
                 "--out-dir", str(fig_dir)]) == 0

    run_overlays = json.loads((out_dir / "jitter.overlays.json").read_text())
    fig_overlays = json.loads((fig_dir / "jitter.overlays.json").read_text())
    ann = annotations[last]
    # the shared start frame belongs to the previous cycle in `run`
    frames = range(ann.start_frame + 1, ann.end_frame + 1)
    assert len(frames) == 30
    for f in frames:
        assert fig_overlays[f]["joint_status"] == \
            run_overlays[f]["joint_status"]


def _demo_run(tmp_path, grid_points):
    """``run --grid-points N`` on the demo fixture: (model, cycle 1's
    report)."""
    out = tmp_path / f"run{grid_points}"
    assert main(["run", "--keypoints", str(KEYPOINTS), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(out),
                 "--grid-points", str(grid_points)]) == 0
    return (out / "synthetic-walk.model.json",
            out / "synthetic-walk.c1.report.json")


@pytest.mark.parametrize("report_grid,model_grid", [(51, 101), (101, 51)])
def test_figures_overlays_map_flags_on_the_reports_grid(tmp_path, report_grid,
                                                        model_grid):
    # The overlay used to map the report's flags on the model's grid: a
    # 51-point report over a 101-point model indexed past the flags (an
    # IndexError), and a 101-point report over a 51-point model wrote
    # wrong statuses.  Now a model on another grid writes the overlay of
    # the report drawn over a model on its own grid.
    own_model, report = _demo_run(tmp_path, report_grid)
    other_model, _ = _demo_run(tmp_path, model_grid)
    overlays = {}
    for name, model in (("own", own_model), ("other", other_model)):
        assert main(["figures", "--model", str(model), "--report",
                     str(report), "--keypoints", str(KEYPOINTS),
                     "--out-dir", str(tmp_path / name)]) == 0
        overlays[name] = (tmp_path / name / "synthetic-walk.overlays.json"
                          ).read_bytes()
    assert overlays["other"] == overlays["own"]
    statuses = [r["joint_status"] for r in json.loads(overlays["own"])]
    assert {"normal", "abnormal"} <= {v for s in statuses for v in s.values()}


def test_figures_repeated_joint_renders_one_band_plot(tmp_path, capsys,
                                                      monkeypatch):
    drawn = []
    real = figures.render_band_plot

    def recording(model, joint, **kwargs):
        drawn.append(joint)
        return real(model, joint, **kwargs)

    monkeypatch.setattr(figures, "render_band_plot", recording)
    argv = _figures_argv(tmp_path)
    capsys.readouterr()
    assert main(argv + ["--joint", "right_knee", "--joint", "left_knee",
                        "--joint", "right_knee"]) == 0
    assert drawn == ["right_knee", "left_knee"]
    assert "wrote 2 figure document(s)" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "fig").glob("*.svg")) == \
        ["model.band.left_knee.svg", "model.band.right_knee.svg"]


def _retimed_demo(tmp_path, frame, time_s, **more):
    """The demo keypoints with one frame's ``time_s`` replaced, and the
    ``time_s`` of each frame ``f<N>`` given in ``more``."""
    times = {frame: time_s, **{int(k[1:]): t for k, t in more.items()}}
    lines = []
    for line in KEYPOINTS.read_text().splitlines():
        record = json.loads(line)
        record["time_s"] = times.get(record["frame"], record["time_s"])
        lines.append(json.dumps(record))
    path = tmp_path / f"retimed{frame}.keypoints.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("frame,time_s", [(15, 5.0), (1, -0.01)])
def test_frame_timed_outside_its_cycle_exits_1(tmp_path, capsys, frame,
                                               time_s):
    # A frame timed after its cycle's end used to index past the flag
    # array (IndexError); one timed before its start wrapped to the last
    # grid point and exited 0 with a wrong overlay status.  Either breaks
    # the strict increase of times on one side.
    run_dir = tmp_path / "run"
    assert main(["run", "--keypoints", str(KEYPOINTS), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(run_dir),
                 "--phase-source", "time"]) == 0
    retimed = _retimed_demo(tmp_path, frame, time_s)
    late, early = (frame + 1, frame) if time_s > 1 else (frame, frame - 1)
    times = {early: repr(early / 30), late: repr(late / 30), frame: time_s}
    message = (f"gaitnorm: validation error: cycle [0, 30]: frame {late} is "
               f"timed {times[late]} s, not after frame {early} "
               f"({times[early]} s); timestamps must strictly increase "
               f"inside a cycle\n")
    capsys.readouterr()
    assert main(["figures", "--model",
                 str(run_dir / "synthetic-walk.model.json"),
                 "--report", str(run_dir / "synthetic-walk.c0.report.json"),
                 "--keypoints", str(retimed),
                 "--out-dir", str(tmp_path / "figures")]) == 1
    err = capsys.readouterr().err
    assert err == message and "Traceback" not in err
    assert main(["run", "--keypoints", str(retimed), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(tmp_path / "again"),
                 "--phase-source", "time"]) == 1
    err = capsys.readouterr().err
    assert err == message and "knot abscissae" not in err


def test_cycle_timed_past_the_float_range_exits_1(tmp_path, capsys):
    # Cycle 0 timed from -1e308 s to 1e308 s: 100 * (t1 - t0) overflows.
    # `figures --keypoints` ended in an IndexError traceback, and `run`
    # printed numpy RuntimeWarnings from the cycle's NaN phases before it
    # named the next cycle.
    run_dir = tmp_path / "run"
    assert main(["run", "--keypoints", str(KEYPOINTS), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(run_dir),
                 "--phase-source", "time"]) == 0
    retimed = _retimed_demo(tmp_path, 0, -1e308, f30=1e308)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["figures", "--model",
                     str(run_dir / "synthetic-walk.model.json"),
                     "--report", str(run_dir / "synthetic-walk.c0.report.json"),
                     "--keypoints", str(retimed),
                     "--out-dir", str(tmp_path / "figures")]) == 1
        figures_err = capsys.readouterr().err
        assert main(["run", "--keypoints", str(retimed), "--annotations",
                     str(ANNOTATIONS), "--out-dir", str(tmp_path / "again"),
                     "--phase-source", "time"]) == 1
        run_err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    for err in (figures_err, run_err):
        assert err.startswith("gaitnorm: validation error: cycle [0, 30]: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "figures").exists()
    assert not (tmp_path / "again").exists()


def test_figures_writes_nothing_when_a_later_stage_fails(tmp_path):
    # The band plots used to be written before the overlay stage found
    # the retimed frame, leaving 22 files behind.
    run_dir = tmp_path / "run"
    assert main(["run", "--keypoints", str(KEYPOINTS), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(run_dir),
                 "--phase-source", "time"]) == 0
    fig_dir = tmp_path / "figures"
    assert main(["figures", "--model",
                 str(run_dir / "synthetic-walk.model.json"),
                 "--report", str(run_dir / "synthetic-walk.c0.report.json"),
                 "--keypoints", str(_retimed_demo(tmp_path, 15, 5.0)),
                 "--out-dir", str(fig_dir)]) == 1
    assert not fig_dir.exists()


@pytest.mark.parametrize("time_s", [0.2, 0.4666666666666667])
def test_timestamps_going_back_inside_a_cycle_exit_1(tmp_path, capsys,
                                                      time_s):
    # Frame 15 timed at or before frame 14 (0.4667 s) but inside [0, 1] s
    # used to reach the spline fit ("knot abscissae must be strictly
    # increasing") in `run`, and `figures` mapped it without complaint.
    run_dir = tmp_path / "run"
    assert main(["run", "--keypoints", str(KEYPOINTS), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(run_dir),
                 "--phase-source", "time"]) == 0
    retimed = _retimed_demo(tmp_path, 15, time_s)
    message = (f"gaitnorm: validation error: cycle [0, 30]: frame 15 is timed "
               f"{time_s} s, not after frame 14 (0.4666666666666667 s); "
               f"timestamps must strictly increase inside a cycle\n")
    capsys.readouterr()
    assert main(["run", "--keypoints", str(retimed), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(tmp_path / "again"),
                 "--phase-source", "time"]) == 1
    assert capsys.readouterr().err == message
    assert main(["figures", "--model",
                 str(run_dir / "synthetic-walk.model.json"),
                 "--report", str(run_dir / "synthetic-walk.c0.report.json"),
                 "--keypoints", str(retimed),
                 "--out-dir", str(tmp_path / "figures")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "figures").exists()


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_output_names_follow_frame_order_not_file_order(tmp_path, order):
    doc = json.loads(ANNOTATIONS.read_text())
    doc["cycles"] = doc["cycles"][::-1] if order == "reversed" else \
        [doc["cycles"][i] for i in (2, 0, 3, 1)]
    permuted = tmp_path / "permuted.cycles.json"
    permuted.write_text(json.dumps(doc))
    outputs = []
    for annotations in (ANNOTATIONS, permuted):
        out_dir = tmp_path / annotations.stem
        assert main(["run", "--keypoints", str(KEYPOINTS), "--annotations",
                     str(annotations), "--out-dir", str(out_dir)]) == 0
        cycles = out_dir / "cycles.json"
        assert main(["segment", "--keypoints", str(KEYPOINTS),
                     "--annotations", str(annotations),
                     "--out", str(cycles)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert len(outputs[0]) == 43 and outputs[0] == outputs[1]


def test_figures_rejects_a_scored_joint_the_cycle_lacks(tmp_path, capsys):
    # The report scores every joint; the cycles file, segmented with a
    # stricter visibility, has some of them invalid.  Drawing those would
    # write "nan" coordinates and count the dots as normal.
    run_dir = tmp_path / "run"
    assert main(["run", "--keypoints", str(KEYPOINTS), "--annotations",
                 str(ANNOTATIONS), "--out-dir", str(run_dir)]) == 0
    strict = tmp_path / "strict.cycles.json"
    assert main(["segment", "--keypoints", str(KEYPOINTS), "--annotations",
                 str(ANNOTATIONS), "--min-visibility", "0.95",
                 "--out", str(strict)]) == 0
    report = run_dir / "synthetic-walk.c0.report.json"
    cycle = load_cycles(strict.read_bytes())[0]
    invalid = [j for j, ok in cycle.valid.items()
               if not ok and j in load_report(report.read_bytes()).flag]
    assert invalid
    capsys.readouterr()
    fig_dir = tmp_path / "figures"
    assert main(["figures", "--model",
                 str(run_dir / "synthetic-walk.model.json"),
                 "--report", str(report), "--cycles", str(strict),
                 "--out-dir", str(fig_dir)]) == 1
    err = capsys.readouterr().err
    assert any(repr(j) in err for j in invalid) and "Traceback" not in err
    assert not fig_dir.exists()

def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _bad_cycles(tmp_path, cycles):
    path = _write_json(tmp_path / "bad.cycles.json",
                       {"schema": "gaitnorm-cycles/1", "grid_points": 3,
                        "cycles": cycles})
    return ["build-norm", "--cycles", path, "--out", str(tmp_path / "m.json")]


def _bad_model(tmp_path):
    path = _write_json(tmp_path / "bad.model.json",
                       {"schema": "gaitnorm/1", "grid_points": 3,
                        "std_kind": "sample", "joints": {"a": 7}})
    return ["figures", "--model", path, "--out-dir", str(tmp_path / "fig")]


def _bad_report(tmp_path, mutate):
    cohort, model = tmp_path / "cohort.json", tmp_path / "model.json"
    assert main(["synth", "--out", str(cohort), "--n", "4"]) == 0
    assert main(["build-norm", "--cycles", str(cohort),
                 "--out", str(model)]) == 0
    assert main(["detect", "--cycles", str(cohort), "--model", str(model),
                 "--out-dir", str(tmp_path), "--video-id", "v"]) == 0
    report = tmp_path / "v.c0.report.json"
    doc = json.loads(report.read_text())
    mutate(doc)
    return ["figures", "--model", str(model),
            "--report", _write_json(report, doc),
            "--out-dir", str(tmp_path / "fig")]


def _first_joint(doc):
    return next(iter(doc["joints"].values()))


WRONG_FIELD_TYPES = {
    "cycles-entry-not-object": lambda t: _bad_cycles(t, [5]),
    "cycles-joint-not-object": lambda t: _bad_cycles(
        t, [{"label": "typical", "cycle_id": "a",
             "joints": {"left_knee": 7}}]),
    "model-joint-not-object": _bad_model,
    "report-string-start-frame": lambda t: _bad_report(
        t, lambda d: d["cycle"].update(start_frame="3", end_frame=40)),
    "report-string-in-z": lambda t: _bad_report(
        t, lambda d: _first_joint(d)["z"].__setitem__(5, "x")),
    "report-bool-in-z": lambda t: _bad_report(
        t, lambda d: _first_joint(d)["z"].__setitem__(3, True)),
    "report-without-label": lambda t: _bad_report(
        t, lambda d: d["cycle"].pop("label")),
    # flags and severity are derived from z and the config on load
    "report-without-config-k": lambda t: _bad_report(
        t, lambda d: d["config"].pop("k")),
    "report-unversioned": lambda t: _bad_report(
        t, lambda d: d.pop("schema")),
}


@pytest.mark.parametrize("case", sorted(WRONG_FIELD_TYPES))
def test_wrong_field_types_exit_1_without_traceback(tmp_path, capsys, case):
    argv = WRONG_FIELD_TYPES[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and "Traceback" not in err


def test_report_scoring_a_joint_it_lists_unknown_exits_1(tmp_path, capsys):
    # figures used to draw the joint as scored (no blank row)
    argv = _bad_report(tmp_path,
                       lambda d: d["unknown_joints"].append("left_knee"))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "'left_knee' is both scored and listed in 'unknown_joints'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "fig").exists()


def _figures_of_a_k2_report(tmp_path):
    """``figures`` argv for cycle 0 of a 12-cycle cohort detected at
    ``--k 2``, and that report's path."""
    cohort, model = tmp_path / "cohort.json", tmp_path / "model.json"
    assert main(["synth", "--out", str(cohort), "--n", "12",
                 "--seed", "4"]) == 0
    assert main(["build-norm", "--cycles", str(cohort),
                 "--out", str(model)]) == 0
    assert main(["detect", "--cycles", str(cohort), "--model", str(model),
                 "--out-dir", str(tmp_path / "det"), "--video-id", "v",
                 "--k", "2"]) == 0
    report = tmp_path / "det" / "v.c0.report.json"
    return ["figures", "--model", str(model), "--report", str(report),
            "--cycles", str(cohort), "--out-dir", str(tmp_path / "fig")], \
        report


@pytest.mark.parametrize("explicit", [[], ["--k", "2"]])
def test_figures_draw_the_band_at_the_reports_k(tmp_path, explicit):
    # The band used to be drawn at figures' own default k of 1 while the
    # dots were coloured by the report's k of 2: 34 samples lay outside
    # the drawn left-knee band, 4 of them drawn abnormal.
    argv, report_path = _figures_of_a_k2_report(tmp_path)
    assert main(argv + explicit) == 0
    report = load_report(report_path.read_bytes())
    band = json.loads((tmp_path / "fig" / "v.band.left_knee.svg.json"
                       ).read_text())
    multi = json.loads((tmp_path / "fig" / "v.multijoint.svg.json"
                        ).read_text())
    assert band["k"] == multi["k"] == report.config.k == 2.0
    drawn = {s["kind"]: s["points"] for s in band["series"]}
    outside = int((np.abs(report.z["left_knee"]) > band["k"]).sum())
    assert drawn["abnormal"] == outside > 0
    assert drawn["normal"] == report.grid_points - outside


@pytest.mark.parametrize("how", ["flag", "config"])
def test_figures_k_other_than_the_reports_exits_1(tmp_path, capsys, how):
    argv, _ = _figures_of_a_k2_report(tmp_path)
    if how == "flag":
        argv += ["--k", "1.5"]
    else:
        argv += ["--config", _write_json(tmp_path / "c.json", {"k": 1.5})]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--k 1.5 differs from the report's config.k 2.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "fig").exists()


def _jittered_walker(tmp_path):
    """A 6-cycle walker whose frames carry uneven ``time_s``; returns the
    keypoint and annotation paths, the frame times and the cycles."""
    seq, annotations = generate_pose_sequence(n_cycles=6, frames_per_cycle=30,
                                              seed=5, video_id="jitter")
    rng = np.random.default_rng(8)
    times = np.cumsum(rng.uniform(0.005, 0.06, len(seq.frames))).tolist()
    frames = tuple(KeypointFrame(f.frame_index, f.keypoints, t)
                   for f, t in zip(seq.frames, times))
    keypoints = tmp_path / "jitter.keypoints.jsonl"
    keypoints.write_bytes(serialize_pose_sequence(
        PoseSequence("jitter", frames)))
    cycles = tmp_path / "jitter.cycles.json"
    cycles.write_bytes(serialize_annotations("jitter", annotations))
    return keypoints, cycles, times, annotations


def _config(tmp_path, doc) -> list:
    return ["--config", _write_json(tmp_path / "cfg.json", doc)]


def _angles_argv(tmp_path):
    return ["angles", "--keypoints", str(KEYPOINTS),
            "--out", str(tmp_path / "angles.json")]


def _synth_argv(tmp_path):
    return ["synth", "--out", str(tmp_path / "cohort.json"), "--n", "2"]


def _run_argv(tmp_path):
    return ["run", "--keypoints", str(KEYPOINTS),
            "--annotations", str(ANNOTATIONS),
            "--out-dir", str(tmp_path / "out")]


def _figures_argv(tmp_path):
    model = tmp_path / "model.json"
    assert main(_synth_argv(tmp_path)) == 0
    assert main(["build-norm", "--cycles", str(tmp_path / "cohort.json"),
                 "--out", str(model)]) == 0
    return ["figures", "--model", str(model),
            "--out-dir", str(tmp_path / "fig")]


# case -> (figures argv builder, extra flags, expected warnings)
IGNORED_FIGURES_FLAGS = {
    "keypoints-with-a-detect-report": (
        lambda t: _bad_report(t, lambda doc: None),
        ["--keypoints", str(KEYPOINTS)],
        ["ignoring --keypoints: report {report} carries no cycle bounds to "
         "map frames by"]),
    "keypoints-without-report": (
        _figures_argv, ["--keypoints", str(KEYPOINTS)],
        ["ignoring --keypoints: it needs --report"]),
    "cycles-without-report": (
        _figures_argv, ["--cycles", "absent.cycles.json"],
        ["ignoring --cycles: it needs --report"]),
    "both-without-report": (
        _figures_argv, ["--keypoints", str(KEYPOINTS),
                        "--cycles", "absent.cycles.json"],
        ["ignoring --cycles: it needs --report",
         "ignoring --keypoints: it needs --report"]),
}


@pytest.mark.parametrize("case", sorted(IGNORED_FIGURES_FLAGS))
def test_figures_warns_of_each_flag_it_ignores(tmp_path, capsys, caplog,
                                               case):
    # These flags used to be dropped without a word.  Now each is named
    # in one WARNING; stdout, the exit code and the files stay the same,
    # and an ignored file is not even read.
    build, extra, expected = IGNORED_FIGURES_FLAGS[case]
    argv = build(tmp_path)
    fig_dir = tmp_path / "fig"
    outputs = []
    for flags in ([], extra):
        capsys.readouterr()
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main(argv + flags) == 0
        outputs.append((capsys.readouterr().out,
                        {p.name: p.read_bytes() for p in fig_dir.iterdir()}))
        shutil.rmtree(fig_dir)
    assert outputs[1] == outputs[0]
    report = argv[argv.index("--report") + 1] if "--report" in argv else None
    assert [r.getMessage() for r in caplog.records] == \
        [m.format(report=report) for m in expected]
    assert {r.levelname for r in caplog.records} == {"WARNING"}


# (argv builder, config document, key the error message must name)
BAD_CONFIG_VALUES = {
    "run-k-not-a-number": (_run_argv, {"k": "x"}, "'k'"),
    "run-k-bool": (_run_argv, {"k": True}, "'k'"),
    "run-k-null": (_run_argv, {"k": None}, "'k'"),
    "run-phase-source-not-a-choice": (_run_argv, {"phase_source": "seconds"},
                                      "'phase_source'"),
    "synth-grid-points-text": (_synth_argv, {"grid_points": "five"},
                               "'grid_points'"),
    "synth-grid-points-fraction": (_synth_argv, {"grid-points": 5.5},
                                   "'grid-points'"),
    "synth-profiles-list": (_synth_argv, {"profiles": ["a.json"]},
                            "'profiles'"),
    "angles-strict-string": (_angles_argv, {"strict": "no"}, "'strict'"),
    "angles-strict-number": (_angles_argv, {"strict": 1}, "'strict'"),
    "figures-joint-string": (_figures_argv, {"joint": "left_knee"},
                             "'joint'"),
    "figures-joint-numbers": (_figures_argv, {"joint": [1]}, "'joint'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_values_exit_1_naming_the_key(tmp_path, capsys, case):
    build, doc, key = BAD_CONFIG_VALUES[case]
    argv = build(tmp_path) + _config(tmp_path, doc)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and key in err
    assert "Traceback" not in err


def test_config_values_go_through_the_flag_type(tmp_path):
    # "5" is what the command line passes to --grid-points 5.
    out = tmp_path / "cohort.json"
    assert main(_synth_argv(tmp_path)
                + _config(tmp_path, {"grid_points": "5", "seed": 4})) == 0
    cohort = load_cycles(out.read_bytes())
    assert [c.grid_points for c in cohort] == [5, 5]
    assert cohort[0].cycle_id == "synth-4"


def test_config_store_true_takes_booleans(tmp_path):
    bad = tmp_path / "bad.keypoints.jsonl"
    bad.write_text('{"frame": 0, "keypoints": {"nose": [1, 2, 1]}}\n'
                   '{"frame": 1, "keypoints": {}}\n')
    argv = ["angles", "--keypoints", str(bad),
            "--out", str(tmp_path / "a.json")]
    assert main(argv + _config(tmp_path, {"strict": True})) == 1
    assert main(argv + ["--strict"]
                + _config(tmp_path, {"strict": False})) == 0


def test_config_joint_list_selects_band_plots(tmp_path):
    argv = _figures_argv(tmp_path)
    assert main(argv + _config(tmp_path, {"joint": ["left_knee"]})) == 0
    assert sorted(p.name for p in (tmp_path / "fig").glob("*.svg")) == \
        ["model.band.left_knee.svg"]


HUGE_INT = "9" * 401  # parses as an int, too large for a float
OVER_DIGIT_LIMIT = "9" * 5000  # past the interpreter's int digit limit


def _write_with_number(path, doc, number) -> str:
    """``doc`` as JSON, with the string "N" replaced by ``number``."""
    path.write_text(json.dumps(doc).replace('"N"', number))
    return str(path)


def _cycles_with_number(tmp_path, number):
    doc = {"schema": "gaitnorm-cycles/1", "grid_points": 2,
           "cycles": [{"label": "typical", "cycle_id": "a",
                       "joints": {"left_knee": {"valid": True,
                                                "angle": [1.0, "N"]}}}]}
    return ["build-norm",
            "--cycles", _write_with_number(tmp_path / "c.json", doc, number),
            "--out", str(tmp_path / "m.json")]


def _keypoints_with_number(tmp_path, number):
    path = tmp_path / "big.keypoints.jsonl"
    path.write_text(json.dumps({"frame": 0, "keypoints": {}}) + "\n" +
                    json.dumps({"frame": 1, "keypoints": {
                        "left_knee": ["N", 2.0, 1.0]}}).replace('"N"', number))
    return ["angles", "--keypoints", str(path),
            "--out", str(tmp_path / "a.json")]


def _annotations_with_number(tmp_path, number):
    doc = {"cycles": [{"start_frame": 0, "end_frame": "N",
                       "label": "typical"}]}
    return ["run", "--keypoints", str(KEYPOINTS),
            "--annotations", _write_with_number(tmp_path / "a.json", doc,
                                                number),
            "--out-dir", str(tmp_path / "out")]


def _config_with_number(tmp_path, number):
    return _run_argv(tmp_path) + [
        "--config", _write_with_number(tmp_path / "cfg.json", {"k": "N"},
                                       number)]


# case -> (argv builder, text the error message must hold)
HUGE_NUMBERS = {
    "cycles-float-overflow":
        (lambda t: _cycles_with_number(t, HUGE_INT), "too large"),
    "keypoints-float-overflow":
        (lambda t: _keypoints_with_number(t, HUGE_INT), "too large"),
    "cycles-digit-limit":
        (lambda t: _cycles_with_number(t, OVER_DIGIT_LIMIT), "digits"),
    "keypoints-digit-limit":
        (lambda t: _keypoints_with_number(t, OVER_DIGIT_LIMIT), "digits"),
    "annotations-digit-limit":
        (lambda t: _annotations_with_number(t, OVER_DIGIT_LIMIT), "digits"),
    "config-digit-limit":
        (lambda t: _config_with_number(t, OVER_DIGIT_LIMIT), "digits"),
}


@pytest.mark.parametrize("case", sorted(HUGE_NUMBERS))
def test_huge_integers_exit_1_without_traceback(tmp_path, capsys, case):
    build, expected = HUGE_NUMBERS[case]
    argv = build(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and expected in err
    assert "Traceback" not in err


BAD_PROFILES = {
    "entry-not-object": {"left_knee": 5},
    "entry-empty": {"left_knee": {}},
    "baseline-string": {"left_knee": {"baseline_deg": "x"}},
    "harmonic-one-element": {"left_knee": {"baseline_deg": 90.0,
                                           "harmonics": [[5.0]]}},
    "harmonic-not-a-list": {"left_knee": {"baseline_deg": 90.0,
                                          "harmonics": [5.0]}},
    "harmonics-not-a-list": {"left_knee": {"baseline_deg": 90.0,
                                           "harmonics": 5}},
    "harmonic-fractional-cycles": {"left_knee": {
        "baseline_deg": 90.0, "harmonics": [[5.0, 1.5, 0.0]]}},
    "negative-noise": {"left_knee": {"baseline_deg": 90.0,
                                     "noise_sd_deg": -1.0}},
    "document-not-object": [],
    "harmonic-cycles-past-float-range": {"left_knee": {
        "baseline_deg": 90.0, "harmonics": [[5.0, 10 ** 400, 0.0]]}},
}


@pytest.mark.parametrize("case", sorted(BAD_PROFILES))
def test_bad_synth_profiles_exit_1_without_traceback(tmp_path, capsys, case):
    profiles = _write_json(tmp_path / "profiles.json", BAD_PROFILES[case])
    capsys.readouterr()
    assert main(_synth_argv(tmp_path) + ["--profiles", profiles]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and "Traceback" not in err


def test_negative_synth_seed_exits_1_without_traceback(tmp_path, capsys):
    assert main(_synth_argv(tmp_path) + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err


def _escaping_run(tmp_path, video_id):
    ann = json.loads(ANNOTATIONS.read_text())
    ann["video_id"] = video_id
    return ["run", "--keypoints", str(KEYPOINTS), "--annotations",
            _write_json(tmp_path / "in" / "ann.json", ann)]


def _cohort(tmp_path):
    cycles = tmp_path / "in" / "cohort.json"
    model = tmp_path / "in" / "model.json"
    assert main(["synth", "--out", str(cycles), "--n", "3"]) == 0
    assert main(["build-norm", "--cycles", str(cycles), "--out",
                 str(model)]) == 0
    return str(cycles), str(model)


def _escaping_detect(tmp_path, video_id):
    cycles, model = _cohort(tmp_path)
    return ["detect", "--cycles", cycles, "--model", model,
            "--video-id", video_id]


def _report_figures(tmp_path):
    cycles, model = _cohort(tmp_path)
    assert main(["detect", "--cycles", cycles, "--model", model,
                 "--out-dir", str(tmp_path / "in"), "--video-id", "v"]) == 0
    report = tmp_path / "in" / "v.c0.report.json"
    return ["figures", "--model", model, "--report", str(report),
            "--cycles", cycles], report


def _escaping_figures(tmp_path, video_id):
    return _report_figures(tmp_path)[0] + ["--video-id", video_id]


def _escaping_report(tmp_path, video_id):
    argv, report = _report_figures(tmp_path)
    doc = json.loads(report.read_text())
    doc["video_id"] = video_id
    report.write_text(json.dumps(doc))
    return argv


ESCAPING_IDS = {
    "run": _escaping_run,
    "detect": _escaping_detect,
    "figures": _escaping_figures,
    "figures-report": _escaping_report,
}


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("video_id", ["../escaped", "a/b", "<tmp>/abs",
                                      "nul\0id"])
@pytest.mark.parametrize("command", sorted(ESCAPING_IDS))
def test_video_id_with_a_path_is_rejected(tmp_path, capsys, command,
                                          video_id):
    video_id = video_id.replace("<tmp>", str(tmp_path))  # absolute
    (tmp_path / "in").mkdir(exist_ok=True)
    argv = ESCAPING_IDS[command](tmp_path, video_id)
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(tmp_path / "box" / "out")]) == 1
    err = capsys.readouterr().err
    assert "path separator or NUL" in err and "Traceback" not in err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("video_id", [".", "..", "..."])
def test_dot_video_ids_stay_inside_out_dir(tmp_path, video_id):
    (tmp_path / "in").mkdir()
    out = tmp_path / "box" / "out"
    assert main(_escaping_run(tmp_path, video_id) + ["--out-dir",
                                                    str(out)]) == 0
    outside = [p for p in _files(tmp_path)
               if p.parts[0] != "in" and p.parts[:2] != ("box", "out")]
    assert outside == [] and len(_files(out)) == 42


@pytest.mark.parametrize("grid_points", ["-1", "0", "1"])
def test_synth_grid_points_below_2_exit_1(tmp_path, capsys, grid_points):
    out = tmp_path / "cohort.json"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--grid-points",
                 grid_points]) == 1
    err = capsys.readouterr().err
    assert "grid_points must be >= 2" in err and "Traceback" not in err
    assert not out.exists()


def _detect_argv(tmp_path):
    model = tmp_path / "model.json"
    assert main(_synth_argv(tmp_path)) == 0
    assert main(["build-norm", "--cycles", str(tmp_path / "cohort.json"),
                 "--out", str(model)]) == 0
    return ["detect", "--cycles", str(tmp_path / "cohort.json"),
            "--model", str(model), "--out-dir", str(tmp_path / "out")]


# A NaN sigma floor used to make every z NaN, so every joint read normal;
# an infinite k or severity clip wrote reports no loader could read back.
@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["k", "sigma_floor_deg", "severity_clip"])
@pytest.mark.parametrize("build", [_detect_argv, _run_argv],
                         ids=["detect", "run"])
def test_nonfinite_detection_config_exits_1(tmp_path, capsys, build, field,
                                            value, how):
    argv = build(tmp_path)
    if how == "flag":
        argv += [f"--{field.replace('_', '-')}", value]
    else:
        argv += _config(tmp_path, {field: float(value)})
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"validation error: {field} must be finite, got {value}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _zero_sd_model(tmp_path) -> Path:
    """A model built from two copies of one synthetic cycle: every SD is
    0, so only the sigma floor keeps z finite."""
    cycle = generate_cohort(demo_profiles(), 1, seed=5)[0]
    twins = tmp_path / "twins.json"
    twins.write_bytes(save_cycles([cycle, cycle]))
    model = tmp_path / "zero-sd.model.json"
    assert main(["build-norm", "--cycles", str(twins),
                 "--out", str(model)]) == 0
    assert not any(j.std.any()
                   for j in load_norm_model(model.read_bytes()).joints.values())
    return model


# With no sigma floor, a zero SD made z infinite (NaN on the mean): detect
# wrote reports with Infinity and NaN tokens, and read every NaN joint as
# normal.
@pytest.mark.parametrize("floor", ["0", "5e-324"])
@pytest.mark.parametrize("command", ["detect", "run"])
def test_nonfinite_z_exits_1_and_writes_nothing(tmp_path, capsys, command,
                                                floor):
    model = _zero_sd_model(tmp_path)
    if command == "detect":
        cohort = tmp_path / "cohort.json"
        cohort.write_bytes(save_cycles(
            generate_cohort(demo_profiles(), 3, seed=6)))
        argv = ["detect", "--cycles", str(cohort), "--model", str(model),
                "--out-dir", str(tmp_path / "out")]
    else:
        argv = _run_argv(tmp_path) + ["--model", str(model)]
    capsys.readouterr()
    assert main(argv + ["--sigma-floor-deg", floor]) == 1
    err = capsys.readouterr().err
    assert "validation error: cycle " in err
    assert " z is inf at grid point " in err or " z is -inf" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cycle_on_a_zero_sd_mean_exits_1(tmp_path, capsys):
    # the cycle the model was built from: 0 / 0 at every grid point
    model = _zero_sd_model(tmp_path)
    capsys.readouterr()
    assert main(["detect", "--cycles", str(tmp_path / "twins.json"),
                 "--model", str(model), "--out-dir", str(tmp_path / "out"),
                 "--sigma-floor-deg", "0"]) == 1
    err = capsys.readouterr().err
    assert "z is nan at grid point 0" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
