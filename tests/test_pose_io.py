import hashlib
import json
import logging
import random
import re
from pathlib import Path

import numpy as np
import pytest

from gaitnorm import (CycleAnnotation, NormalizedCycle, ValidationError,
                      load_cycles, load_norm_model, load_report,
                      parse_pose_sequence,
                      save_cycles, save_norm_model, save_report)
from gaitnorm.cli import main
from gaitnorm.detect import DetectionConfig, build_report
from gaitnorm.normative import JointNormals, NormativeModel
from gaitnorm.pose_io import (_dump, _float_list, at_precision,
                              parse_annotation_document, save_angle_series,
                              serialize_annotations, serialize_pose_sequence)

from helpers import (at_thousandths, compact_canonical, json_structure,
                     object_keys, same_json)
from test_golden import STAGE_COMMANDS


def _line(frame, kps, time_s=None):
    record = {"frame": frame, "keypoints": kps}
    if time_s is not None:
        record["time_s"] = time_s
    return json.dumps(record)


def _stream(*lines):
    return ("\n".join(lines) + "\n").encode()


MINIMAL = _stream(
    _line(0, {"left_knee": [10.0, 20.0, 0.9], "left_hip": [10.0, 0.0, 1.0]}),
    _line(1, {"left_knee": [11.0, 20.5, 0.8]}, time_s=0.033),
)


class TestParsePoseSequence:
    def test_minimal_roundtrip(self):
        seq = parse_pose_sequence(MINIMAL, video_id="v1")
        assert seq.video_id == "v1"
        assert len(seq.frames) == 2
        kp = seq.frames[0].keypoints["left_knee"]
        assert (kp.point.x, kp.point.y, kp.visibility) == (10.0, 20.0, 0.9)
        assert seq.frames[1].time_s == pytest.approx(0.033)

    def test_deterministic(self):
        assert parse_pose_sequence(MINIMAL) == parse_pose_sequence(MINIMAL)

    def test_serialize_roundtrip(self):
        seq = parse_pose_sequence(MINIMAL, video_id="v1")
        again = parse_pose_sequence(serialize_pose_sequence(seq), video_id="v1")
        assert again == seq

    def test_visibility_out_of_range(self):
        bad = _stream(_line(0, {"left_knee": [1, 2, 1.5]}),
                      _line(1, {"left_knee": [1, 2, 0.5]}))
        with pytest.raises(ValidationError, match="visibility out of range"):
            parse_pose_sequence(bad)

    def test_out_of_order_frames_sorted_with_warning(self, caplog):
        data = _stream(_line(3, {"left_knee": [1, 2, 1.0]}),
                       _line(1, {"left_knee": [1, 2, 1.0]}))
        with caplog.at_level(logging.WARNING):
            seq = parse_pose_sequence(data)
        assert [f.frame_index for f in seq.frames] == [1, 3]
        assert any("out of order" in r.message for r in caplog.records)

    def test_duplicate_frame_index(self):
        data = _stream(_line(2, {"left_knee": [1, 2, 1.0]}),
                       _line(2, {"left_knee": [1, 2, 1.0]}))
        with pytest.raises(ValidationError, match="duplicate frame index"):
            parse_pose_sequence(data)

    def test_single_frame_rejected(self):
        with pytest.raises(ValidationError, match="at least 2"):
            parse_pose_sequence(_stream(_line(0, {"left_knee": [1, 2, 1.0]})))

    def test_malformed_line(self):
        data = b'{"frame": 0, "keypoints": {}}\nnot json\n'
        with pytest.raises(ValidationError, match="line 2"):
            parse_pose_sequence(data)

    def test_unknown_name_lenient_skips_with_warning(self, caplog):
        data = _stream(
            _line(0, {"left_knee": [1, 2, 1.0], "nose": [5, 5, 1.0]}),
            _line(1, {"left_knee": [1, 2, 1.0]}))
        with caplog.at_level(logging.WARNING):
            seq = parse_pose_sequence(data, strict=False)
        assert "nose" not in seq.frames[0].keypoints
        assert any("unknown keypoint" in r.message for r in caplog.records)

    def test_unknown_name_strict_rejected(self):
        data = _stream(
            _line(0, {"left_knee": [1, 2, 1.0], "nose": [5, 5, 1.0]}),
            _line(1, {"left_knee": [1, 2, 1.0]}))
        with pytest.raises(ValidationError, match="unknown keypoint"):
            parse_pose_sequence(data, strict=True)

    def test_nonfinite_coordinate_rejected(self):
        data = _stream(_line(0, {"left_knee": [float("nan"), 2, 1.0]}),
                       _line(1, {"left_knee": [1, 2, 1.0]}))
        with pytest.raises(ValidationError, match="finite"):
            parse_pose_sequence(data)

    def test_negative_frame_rejected(self):
        data = _stream(_line(-1, {"left_knee": [1, 2, 1.0]}),
                       _line(0, {"left_knee": [1, 2, 1.0]}))
        with pytest.raises(ValidationError, match="non-negative"):
            parse_pose_sequence(data)

    def test_wrong_arity_keypoint_rejected(self):
        data = _stream(_line(0, {"left_knee": [1, 2]}),
                       _line(1, {"left_knee": [1, 2, 1.0]}))
        with pytest.raises(ValidationError, match="x, y, visibility"):
            parse_pose_sequence(data)


class TestAnnotations:
    def test_single(self):
        doc = json.dumps({"video_id": "v", "cycles": [
            {"start_frame": 10, "end_frame": 40, "label": "typical"}]}).encode()
        cycles = parse_annotation_document(doc)[1]
        assert cycles == [CycleAnnotation(10, 40, "typical")]

    def test_video_id_exposed(self):
        doc = json.dumps({"video_id": "walk7", "cycles": []}).encode()
        video_id, cycles = parse_annotation_document(doc)
        assert video_id == "walk7" and cycles == []

    def test_shared_boundary_accepted(self):
        doc = json.dumps({"video_id": "v", "cycles": [
            {"start_frame": 10, "end_frame": 40, "label": "typical"},
            {"start_frame": 40, "end_frame": 70, "label": "atypical"}]}).encode()
        cycles = parse_annotation_document(doc)[1]
        assert len(cycles) == 2

    def test_cycles_come_back_in_frame_order(self):
        entries = [{"start_frame": s, "end_frame": s + 30, "label": "typical"}
                   for s in (60, 0, 90, 30)]
        doc = json.dumps({"video_id": "v", "cycles": entries}).encode()
        cycles = parse_annotation_document(doc)[1]
        assert [c.start_frame for c in cycles] == [0, 30, 60, 90]

    def test_true_overlap_rejected(self):
        doc = json.dumps({"video_id": "v", "cycles": [
            {"start_frame": 10, "end_frame": 40, "label": "typical"},
            {"start_frame": 30, "end_frame": 60, "label": "typical"}]}).encode()
        with pytest.raises(ValidationError, match="overlap"):
            parse_annotation_document(doc)

    def test_reversed_bounds_rejected(self):
        doc = json.dumps({"video_id": "v", "cycles": [
            {"start_frame": 40, "end_frame": 10, "label": "typical"}]}).encode()
        with pytest.raises(ValidationError, match="exceed"):
            parse_annotation_document(doc)

    def test_end_frame_past_int64_rejected(self):
        # a cycle's cut searches its bounds in int64 frame arrays, as the
        # keypoint parser holds frame indices
        CycleAnnotation(0, 2 ** 63 - 1, "typical")
        with pytest.raises(ValidationError, match="below 2"):
            CycleAnnotation(0, 2 ** 63, "typical")

    def test_unknown_label_rejected(self):
        doc = json.dumps({"video_id": "v", "cycles": [
            {"start_frame": 1, "end_frame": 9, "label": "weird"}]}).encode()
        with pytest.raises(ValidationError, match="unknown cycle label"):
            parse_annotation_document(doc)

    def test_serialize_roundtrip(self):
        cycles = [CycleAnnotation(0, 30, "typical"),
                  CycleAnnotation(30, 61, "atypical")]
        video_id, again = parse_annotation_document(
            serialize_annotations("v9", cycles))
        assert video_id == "v9" and again == cycles


def _small_model(grid=101):
    rng = np.random.default_rng(5)
    joints = {}
    for name in ("left_knee", "right_hip"):
        mean = np.clip(rng.uniform(40, 140, grid), 0, 180)
        std = rng.uniform(0.5, 6.0, grid)
        joints[name] = JointNormals(mean=mean, std=std, n_cycles=12)
    return NormativeModel(grid_points=grid, std_kind="sample", joints=joints,
                          provenance=[f"c{i}" for i in range(12)])


class TestNormModelFile:
    def test_roundtrip_exact(self):
        model = _small_model()
        again = load_norm_model(save_norm_model(model))
        assert again == model  # field-for-field, bit-stable floats

    def test_save_is_canonical(self):
        model = _small_model()
        assert save_norm_model(model) == save_norm_model(model)

    def test_length_mismatch_rejected(self):
        model = _small_model()
        doc = json.loads(save_norm_model(model).decode())
        doc["joints"]["left_knee"]["mean"] = \
            doc["joints"]["left_knee"]["mean"][:100]
        with pytest.raises(ValidationError, match="length 101"):
            load_norm_model(json.dumps(doc).encode())

    def test_negative_std_rejected(self):
        model = _small_model()
        doc = json.loads(save_norm_model(model).decode())
        doc["joints"]["left_knee"]["std"][3] = -0.1
        with pytest.raises(ValidationError, match="std"):
            load_norm_model(json.dumps(doc).encode())

    def test_schema_mismatch_rejected(self):
        doc = json.loads(save_norm_model(_small_model()).decode())
        doc["schema"] = "gaitnorm/0"
        with pytest.raises(ValidationError, match="schema mismatch"):
            load_norm_model(json.dumps(doc).encode())

    def test_mean_out_of_range_rejected(self):
        doc = json.loads(save_norm_model(_small_model()).decode())
        doc["joints"]["left_knee"]["mean"][0] = 300.0
        with pytest.raises(ValidationError, match="mean"):
            load_norm_model(json.dumps(doc).encode())


class TestCyclesFile:
    def _cycles(self):
        rng = np.random.default_rng(6)
        c1 = NormalizedCycle(
            label="typical", grid_points=101,
            angles={"left_knee": np.clip(rng.uniform(30, 150, 101), 0, 180),
                    "left_hip": np.full(101, np.nan)},
            valid={"left_knee": True, "left_hip": False},
            cycle_id="a")
        c2 = NormalizedCycle(
            label="atypical", grid_points=101,
            angles={"left_knee": np.clip(rng.uniform(30, 150, 101), 0, 180),
                    "left_hip": np.clip(rng.uniform(100, 170, 101), 0, 180)},
            valid={"left_knee": True, "left_hip": True},
            cycle_id="b")
        return [c1, c2]

    def test_roundtrip(self):
        cycles = self._cycles()
        again = load_cycles(save_cycles(cycles))
        assert again == cycles

    def test_mixed_grid_rejected_on_save(self):
        cycles = self._cycles()
        cycles[1] = NormalizedCycle(label="typical", grid_points=51,
                                    angles={"left_knee": np.full(51, 90.0)},
                                    valid={"left_knee": True}, cycle_id="c")
        with pytest.raises(ValidationError, match="mix grid sizes"):
            save_cycles(cycles)

    def test_bad_label_rejected_on_load(self):
        doc = json.loads(save_cycles(self._cycles()).decode())
        doc["cycles"][0]["label"] = "meh"
        with pytest.raises(ValidationError, match="unknown label"):
            load_cycles(json.dumps(doc).encode())

    @pytest.mark.parametrize("grid_points", [-1, 0, 1])
    def test_grid_points_below_two_rejected_on_load(self, grid_points):
        doc = {"schema": "gaitnorm-cycles/1", "grid_points": grid_points,
               "cycles": [{"cycle_id": "a", "label": "typical",
                           "joints": {"left_knee": {"valid": False,
                                                    "angle": None}}}]}
        with pytest.raises(ValidationError, match="grid_points"):
            load_cycles(json.dumps(doc).encode())


class TestReportFile:
    def test_roundtrip(self):
        model = _small_model()
        rng = np.random.default_rng(7)
        cycle = NormalizedCycle(
            label="atypical", grid_points=101,
            angles={"left_knee": np.clip(
                model.joints["left_knee"].mean + rng.normal(0, 5, 101), 0, 180),
                "right_hip": model.joints["right_hip"].mean.copy()},
            valid={"left_knee": True, "right_hip": True},
            cycle_id="walk:0-30")
        report = build_report(cycle, model, DetectionConfig(),
                              video_id="walk",
                              annotation=CycleAnnotation(0, 30, "atypical"))
        again = load_report(save_report(report))
        assert again.video_id == "walk"
        assert again.cycle_id == "walk:0-30"
        assert again.annotation == report.annotation
        assert again.unknown_joints == report.unknown_joints
        for j in report.z:
            np.testing.assert_array_equal(again.z[j], report.z[j])
            np.testing.assert_array_equal(again.flag[j], report.flag[j])
            np.testing.assert_array_equal(again.severity[j], report.severity[j])
        assert again.phase_source == "frames"

    def test_phase_source_written_only_for_time_phases(self):
        model = _small_model()
        cycle = NormalizedCycle(
            label="typical", grid_points=101,
            angles={"left_knee": model.joints["left_knee"].mean.copy()},
            valid={"left_knee": True}, cycle_id="walk:0-30")
        frames = save_report(build_report(cycle, model))
        assert "phase_source" not in json.loads(frames)["cycle"]
        timed = save_report(build_report(cycle, model, phase_source="time"))
        assert json.loads(timed)["cycle"]["phase_source"] == "time"
        assert load_report(timed).phase_source == "time"
        doc = json.loads(timed)
        doc["cycle"]["phase_source"] = "seconds"
        with pytest.raises(ValidationError, match="phase_source"):
            load_report(json.dumps(doc).encode())


    def _doc(self):
        model = _small_model()
        cycle = NormalizedCycle(
            label="typical", grid_points=101,
            angles={"left_knee": model.joints["left_knee"].mean + 4.0},
            valid={"left_knee": True}, cycle_id="walk:0-30")
        return json.loads(save_report(build_report(cycle, model)))

    def test_stores_only_z_and_the_config(self):
        doc = self._doc()
        assert doc["schema"] == "gaitnorm-report/2"
        assert list(doc["joints"]["left_knee"]) == ["z"]
        assert doc["config"] == {"k": 1.0, "sigma_floor_deg": 0.5,
                                 "severity_clip": 3.0}

    def test_unversioned_report_rejected(self):
        # a pre-0.4 report: flags and severity stored, no schema
        doc = self._doc()
        del doc["schema"]
        doc["joints"]["left_knee"].update(flag=[True] * 101,
                                          severity=[0.5] * 101)
        with pytest.raises(ValidationError, match=re.escape(
                "schema mismatch: expected 'gaitnorm-report/2', got None; "
                "re-run 'gaitnorm detect' to rewrite an older report")):
            load_report(json.dumps(doc).encode())

    @pytest.mark.parametrize("key", ["k", "sigma_floor_deg", "severity_clip"])
    def test_every_config_field_required(self, key):
        doc = self._doc()
        del doc["config"][key]
        with pytest.raises(ValidationError,
                           match=rf"^'config\.{key}' must be a number"):
            load_report(json.dumps(doc).encode())
        del doc["config"]
        with pytest.raises(ValidationError, match="^'config' must be an"):
            load_report(json.dumps(doc).encode())

    def test_flags_follow_the_stored_config(self):
        doc = self._doc()  # left knee 4 degrees above the mean
        doc["config"]["k"] = 1e6
        assert not load_report(json.dumps(doc).encode()).flag[
            "left_knee"].any()

    @pytest.mark.parametrize("grid_points", [1, 0, -3])
    def test_grid_below_two_points_rejected(self, grid_points):
        doc = self._doc()
        doc["grid_points"], doc["joints"] = grid_points, {}
        with pytest.raises(ValidationError, match="'grid_points' must be"):
            load_report(json.dumps(doc).encode())


    def test_z_written_at_thousandths(self):
        doc = self._doc()  # left knee 4 degrees above the mean
        z = doc["joints"]["left_knee"]["z"]
        knee = _small_model().joints["left_knee"]
        exact = [((m + 4.0) - m) / s for m, s in
                 zip(knee.mean.tolist(), knee.std.tolist())]
        assert z == [at_thousandths(v) for v in exact] != exact
        assert all(round(v, 3) == v for v in z)

    def test_full_precision_report_judged_on_its_z(self):
        # a report written before 0.6.0 holds z in full; it loads as it
        # is, and is judged on the z it holds
        doc = self._doc()
        doc["joints"]["left_knee"]["z"] = [1.0004, -1.0004] * 50 + [1.0]
        report = load_report(json.dumps(doc).encode())
        assert report.z["left_knee"][:2].tolist() == [1.0004, -1.0004]
        assert report.flag["left_knee"].tolist() == [True] * 100 + [False]


class TestAtPrecision:
    """``at_precision`` rounds report z and overlay keypoints to 1/1000,
    and keeps NaN, infinities and magnitudes of 2**42 or more."""

    @staticmethod
    def _every_magnitude(seed, n=200_000):
        """Finite floats of random sign, exponent and mantissa bits, so
        every magnitude from subnormals to 1.8e308 is drawn, plus floats
        just below and above 2**42 and near half-thousandths."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2 ** 63, n, dtype=np.uint64, endpoint=True)
        bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
        v = bits.view(np.float64)
        edge = 2.0 ** 42 + rng.integers(-4096, 4096, n // 10) * 2.0 ** -11
        half = (rng.integers(0, 10 ** 9, n // 10) + 0.5) / 1000 * 2.0 ** (
            rng.integers(-10, 13, n // 10).astype(float))
        v = np.concatenate((v, edge, -edge, half, -half))
        return v[np.isfinite(v)]

    @pytest.mark.parametrize("seed", range(3))
    def test_moves_every_value_less_than_a_thousandth(self, seed):
        v = self._every_magnitude(seed)
        w = at_precision(v, 3)
        small = np.abs(v) < 2.0 ** 42
        moved = np.abs(w[small] - v[small])
        # half a thousandth, plus the float rounding of v * 1000 and of
        # the quotient back
        assert (moved <= 0.0005 + 2 * np.spacing(np.abs(v[small]))).all()
        assert (moved < 0.001).all()
        assert not np.signbit(w[small][w[small] == 0]).any()
        assert w[~small].tobytes() == v[~small].tobytes()
        assert small.sum() > len(v) // 4 and (~small).sum() > len(v) // 4

    def test_equals_the_scalar_rule(self):
        v = self._every_magnitude(3, n=20_000)
        assert at_precision(v, 3).tobytes() == np.array(
            [at_thousandths(x) for x in v.tolist()]).tobytes()

    def test_nonfinite_kept(self):
        v = np.array([np.nan, np.inf, -np.inf, -0.0004, -0.0])
        assert repr(at_precision(v, 3).tolist()) == \
            "[nan, inf, -inf, 0.0, 0.0]"


class TestAngleSeriesFile:
    def test_every_missing_reason_written_by_name(self):
        from gaitnorm.kinematics import AngleSeries
        series = {"left_knee": AngleSeries(
            "left_knee", frames=[0, 3, 4, 9, 12],
            angles=[91.5, np.nan, np.nan, np.nan, 0.0],
            reasons=[0, 1, 2, 3, 0])}
        doc = json.loads(save_angle_series(series, video_id="v"))
        assert doc == {
            "schema": "gaitnorm-angles/1", "video_id": "v",
            "min_visibility": 0.5,
            "joints": {"left_knee": [
                [0, 91.5, None], [3, None, "absent_keypoint"],
                [4, None, "low_visibility"],
                [9, None, "degenerate_geometry"], [12, 0.0, None]]}}


def _indented(doc) -> bytes:
    """``doc`` as every JSON file was written before 0.9.0."""
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


_SCALARS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    2.2250738585072014e-308 / 3, 1.7976931348623157e308, 0.1, -123.456,
    10 ** 30, -(10 ** 25), 2 ** 63, True, False, 0, 1, None,
    np.float64(1.5), np.float64(-0.0), np.float64("nan"),
    "", 'say "hi"', "back\\slash", "\x00\x1f\n\t\r\x7f",
    "ünïcødé ☃ 𝄞", "\u2028 / \\u0041",
]
_KEYS = ["", "a", "b", 'q"uote', "back\\slash", "ctl\x01\n", "ключ", "☃𝄞",
         "z" * 40]


def _random_doc(rng: random.Random, depth: int):
    kind = rng.random()
    if depth >= 4 or kind < 0.35:
        return rng.choice(_SCALARS + [rng.uniform(-1e6, 1e6),
                                      rng.randrange(-10 ** 20, 10 ** 20)])
    n = rng.choice([0, 0, 1, 2, 3, 6])
    if kind < 0.6:
        return [_random_doc(rng, depth + 1) for _ in range(n)]
    if kind < 0.7:
        return tuple(_random_doc(rng, depth + 1) for _ in range(n))
    return {rng.choice(_KEYS): _random_doc(rng, depth + 1) for _ in range(n)}


def _assert_compact_canonical(doc):
    """``_dump(doc)`` has no whitespace outside its strings, ends in one
    newline, and decodes to what the pre-0.9.0 indented file decoded to."""
    data = _dump(doc)
    text = data.decode("ascii")
    assert text.endswith("\n")
    assert not set(json_structure(text[:-1])) & set(" \t\r\n"), text
    assert same_json(json.loads(data), json.loads(_indented(doc))), doc


class TestCanonicalEncoder:
    """Every document is compact canonical JSON (0.9.0): sorted keys, no
    whitespace outside strings, ``repr`` floats, one trailing newline."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_documents_match_stdlib(self, seed):
        doc = _random_doc(random.Random(seed), 0)
        _assert_compact_canonical(doc)
        for keys in object_keys(_dump(doc)):  # every key a str here
            assert keys == sorted(keys)

    # Written out by hand.
    EXPECTED = [
        ({"b": [1, 2.5, None], "a": {}, "c": (), "A": [[]]},
         b'{"A":[[]],"a":{},"b":[1,2.5,null],"c":[]}\n'),
        ([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300,
          0.1, np.float64(-123.456), 10 ** 30, True, False, None],
         b'[NaN,Infinity,-Infinity,-0.0,5e-324,1e+300,0.1,-123.456,'
         b'1000000000000000000000000000000,true,false,null]\n'),
        ({"k\u043b\u044e\u0447": 'a "b" \\ \u2603\n'},
         b'{"k\\u043b\\u044e\\u0447":"a \\"b\\" \\\\ \\u2603\\n"}\n'),
        ({2: "int", 10: "int"}, b'{"2":"int","10":"int"}\n'),
        ({"deep": {"a": [{"b": [[1, 2.5, None]], "c": {}}]}},
         b'{"deep":{"a":[{"b":[[1,2.5,null]],"c":{}}]}}\n'),
        ("top", b'"top"\n'), ([], b"[]\n"), ({}, b"{}\n"), (3.25, b"3.25\n"),
    ]

    def test_edge_cases_match_stdlib(self):
        for doc, expected in self.EXPECTED:
            assert _dump(doc) == expected
        docs = [
            {"scalars": _SCALARS, "tuple": tuple(_SCALARS),
             "keys": {k: k for k in _KEYS}},
            [[], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}]]],
            {1: "int", 2: [1.5], 10: {}}, {0.5: "float", -1e300: [None]},
            {None: [True, False, 0, 1]}, {True: 1}, {False: 0},
            {np.float64(2.5): "np"},
            [True, 1, False, 0, 1.0, 0.0], [np.float64(0.1), 0.1],
            (), None, True,
        ] + [doc for doc, _ in self.EXPECTED]
        for doc in docs:
            _assert_compact_canonical(doc)

    def test_unencodable_values_still_raise(self):
        for doc in ([object()], {"a": [set()]}, {(1, 2): 1}):
            with pytest.raises(TypeError):
                _dump(doc)

    def test_demo_run_documents_match_stdlib(self, demo_outputs):
        # run and figures include the overlay that overlay_chunks writes
        counts = {}
        for name in STAGE_COMMANDS:
            paths = sorted((demo_outputs / name).glob("*.json"))
            for path in paths:
                data = path.read_bytes()
                assert data == compact_canonical(data), path.name
            counts[name] = len(paths)
        assert counts == {"angles": 1, "segment": 1, "build-norm": 1,
                          "detect": 4, "run": 24, "figures": 13, "synth": 1}


@pytest.fixture(scope="module")
def demo_outputs(tmp_path_factory):
    """Every subcommand of the golden test on the demo fixture, run once,
    each writing into the directory named after it."""
    root = tmp_path_factory.mktemp("demo")
    dirs = {name: root / name for name in STAGE_COMMANDS}
    for name, argv in STAGE_COMMANDS.items():
        dirs[name].mkdir()
        assert main([a.format(**{k: str(v) for k, v in dirs.items()})
                     for a in argv]) == 0, name
    return root


class TestFilesWrittenBefore090:
    """Model, cycles and report files that 0.9.0 wrote for the demo
    fixture, with cycle angles at full precision, and the same files
    written indented, as 0.8.0 and earlier wrote them, still load."""

    WRITTEN_BY_0_9_0 = Path(__file__).parent / "fixtures" / "0.9.0"
    # sha256 of the demo fixture's files as 0.9.0 wrote them (committed
    # under ``fixtures/0.9.0``) and as 0.8.0 wrote them.
    PINNED_0_9_0 = {
        "segment/demo.cycles.json":
            "ed2a32c1c7ef3d93fad2d08087477d72fcc50f2343317b82d7cc5381323ca909",
        "build-norm/demo.model.json":
            "44a48584c2a2dfc13dbba4c02276f69ae68813321b69dc7736021bccbe6da231",
        "detect/demo.cycles.c3.report.json":
            "c8c314954c4db6ec36d1756bd01d63336387cb950e81fbdc6c3d7f0191cb5bb3",
    }
    PINNED_0_8_0 = {
        "segment/demo.cycles.json":
            "e0fa5324d20f979855cffe4079b7682f5b23b77f781681ba828957221a98a35c",
        "build-norm/demo.model.json":
            "78170288251a400390454c19df6fb4b476c032f5f6e15afeff2dfd2232f88d0a",
        "detect/demo.cycles.c3.report.json":
            "00ddf3f05a7dbce16499b91a8afe7c06ad47e1df806ec9244d028c0eeddeb4fa",
    }
    LOADERS = {
        "segment/demo.cycles.json": (load_cycles, save_cycles),
        "build-norm/demo.model.json": (load_norm_model, save_norm_model),
        "detect/demo.cycles.c3.report.json": (load_report, save_report),
    }

    def test_fixtures_are_the_bytes_0_9_0_wrote(self):
        for name, digest in self.PINNED_0_9_0.items():
            data = (self.WRITTEN_BY_0_9_0 / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_indented_files_load_to_equal_objects(self):
        for name, (load, save) in self.LOADERS.items():
            compact = (self.WRITTEN_BY_0_9_0 / name).read_bytes()
            old = _indented(json.loads(compact))
            # the very bytes 0.8.0 wrote
            assert hashlib.sha256(old).hexdigest() == self.PINNED_0_8_0[name]
            assert len(compact) < len(old)
            assert save(load(old)) == compact, name
            if load is not load_report:  # a report holds arrays in a dict
                assert load(old) == load(compact), name

    def test_full_precision_cycles_load_to_their_exact_values(self):
        data = (self.WRITTEN_BY_0_9_0 / "segment/demo.cycles.json").read_bytes()
        entries = json.loads(data)["cycles"]
        cycles = load_cycles(data)
        written = [(c.angles[j].tolist(), e["joints"][j]["angle"])
                   for c, e in zip(cycles, entries, strict=True)
                   for j in c.angles if c.valid[j]]
        assert len(written) == 40
        for loaded, angle in written:
            assert loaded == angle
        # the loader never rounds: these angles are not at 1/1000 deg
        assert sum(v != at_thousandths(v) for _, angle in written
                   for v in angle) > 3900


class TestFloatList:
    def test_values_match_per_value_conversion(self):
        values = [0, 1, -0.0, 5e-324, 2 ** 53 + 1, 10 ** 30, -(2 ** 70),
                  0.1, 179.99999999999997]
        arr = _float_list(values, "x", len(values))
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert arr.tobytes() == np.array([float(v) for v in values]).tobytes()

    @pytest.mark.parametrize("bad, message", [
        (True, "x must be a number, got True"),
        (False, "x must be a number, got False"),
        ("1.0", "x must be a number, got '1.0'"),
        (None, "x must be a number, got None"),
        ([1.0], "x must be a number, got [1.0]"),
        (float("nan"), "x must be finite, got nan"),
        (float("inf"), "x must be finite, got inf"),
        (float("-inf"), "x must be finite, got -inf"),
    ])
    def test_bad_element_message(self, bad, message):
        # A later bad value must not mask the first one.
        values = [1.0, 2, bad, "later", 4.0]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            _float_list(values, "x", len(values))

    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0] * 4, (1.0,) * 3,
                                        None, {"a": 1.0}, "abc"])
    def test_wrong_container_or_length(self, values):
        with pytest.raises(ValidationError,
                           match=r"^x: expected an array of length 3$"):
            _float_list(values, "x", 3)


def _profiles(data):
    from gaitnorm.synth import profiles_from_json
    return profiles_from_json(data)


# Every loader decodes through the same helper.
LOADERS = {
    "pose-sequence": parse_pose_sequence,
    "annotations": parse_annotation_document,
    "model": load_norm_model,
    "cycles": load_cycles,
    "report": load_report,
    "profiles": _profiles,
}

UNDECODABLE = {
    "int-past-digit-limit": b"[" + b"9" * 5000 + b"]",
    "nesting-past-recursion-limit": b"[" * 100_000,
    "not-utf8": b'{"a": "\xff"}',
    "truncated": b'{"a": [1, 2',
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("data", sorted(UNDECODABLE))
def test_loaders_turn_undecodable_json_into_validation_errors(loader, data):
    with pytest.raises(ValidationError, match="malformed"):
        LOADERS[loader](UNDECODABLE[data])


def test_float_list_rejects_ints_too_large_for_a_float():
    with pytest.raises(ValidationError, match="too large"):
        _float_list([1.0, 10 ** 400], "angle", 2)
