import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gaitnorm import (DetectionConfig, ValidationError, annotate_frames,
                      build_normative_model, build_report, frame_statuses,
                      generate_cohort, generate_cycle, render_band_plot,
                      render_heatmap, render_multi_joint, severity_matrix,
                      write_figure)
from gaitnorm.detect import STATUS_NORMAL, STATUS_UNKNOWN
from gaitnorm.cycles import NormalizedCycle
from gaitnorm.figures import _fmt, _panel, _points
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.synth import demo_profiles, generate_pose_sequence
from gaitnorm.pose_io import CycleAnnotation

from helpers import reference_multi_joint


@pytest.fixture(scope="module")
def model():
    return build_normative_model(generate_cohort(demo_profiles(), 40, seed=90),
                                 101)


@pytest.fixture(scope="module")
def cycle():
    return generate_cycle(demo_profiles(), 101, seed=990)


def _svg_root(doc):
    return ET.fromstring(doc.svg)


def _count(doc, tag, cls=None):
    ns = "{http://www.w3.org/2000/svg}"
    nodes = _svg_root(doc).iter(f"{ns}{tag}")
    if cls is None:
        return sum(1 for _ in nodes)
    return sum(1 for n in nodes if n.get("class") == cls)


class TestBandPlot:
    def test_model_only(self, model):
        doc = render_band_plot(model, "left_knee")
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds == {"mean": 101, "band": 202}
        assert _count(doc, "polyline", "mean") == 1
        assert _count(doc, "polygon", "band") == 1
        assert _count(doc, "circle") == 0

    def test_overlay_counts_match_svg(self, model, cycle):
        cfg = DetectionConfig()
        z = build_report(cycle, model, cfg).z
        flags = np.abs(z["left_knee"]) > cfg.k
        doc = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds["normal"] + kinds["abnormal"] == 101
        assert kinds["abnormal"] == int(flags.sum())
        assert _count(doc, "circle", "normal") == kinds["normal"]
        assert _count(doc, "circle", "abnormal") == kinds["abnormal"]

    def test_zero_flags_zero_abnormal_points(self, model, cycle):
        flags = np.zeros(101, dtype=bool)
        doc = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds["abnormal"] == 0
        assert _count(doc, "circle", "abnormal") == 0

    def test_ten_flags(self, model, cycle):
        flags = np.zeros(101, dtype=bool)
        flags[10:20] = True
        doc = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds["abnormal"] == 10

    def test_invalid_overlay_joint_rejected(self, model, cycle):
        # an invalid joint's angles are NaN: drawing them would write
        # "nan" coordinates and count the dots as normal
        broken = NormalizedCycle(
            label="typical", grid_points=101,
            angles={**cycle.angles, "left_knee": np.full(101, np.nan)},
            valid={**cycle.valid, "left_knee": False}, cycle_id="v:0-30")
        flags = np.zeros(101, dtype=bool)
        with pytest.raises(ValidationError, match="'left_knee'.*'v:0-30'"):
            render_band_plot(model, "left_knee", overlay=(broken, flags))
        render_band_plot(model, "left_hip", overlay=(broken, flags))

    def test_absent_joint_rejected(self, model):
        with pytest.raises(ValidationError, match="absent"):
            render_band_plot(model, "left_eyebrow")

    def test_deterministic(self, model, cycle):
        flags = np.zeros(101, dtype=bool)
        a = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        b = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        assert a.svg == b.svg and a.sidecar == b.sidecar


class TestMultiJoint:
    def test_all_joints_rendered(self, model, cycle):
        flags = {j: np.zeros(101, dtype=bool) for j in JOINT_NAMES}
        doc = render_multi_joint(flags, cycle, model)
        panels = doc.sidecar["panels"]
        assert len(panels) == 10
        assert all(p["rendered"] for p in panels)
        assert sum(p["abnormal"] for p in panels) == 0

    def test_invalid_joints_get_placeholders(self, model, cycle):
        flags = {j: np.zeros(101, dtype=bool) for j in JOINT_NAMES}
        broken = generate_cycle(demo_profiles(), 101, seed=991)
        for j in ("left_hip", "right_hip", "left_ankle"):
            broken.valid[j] = False
        doc = render_multi_joint(flags, broken, model)
        rendered = [p for p in doc.sidecar["panels"] if p["rendered"]]
        placeholders = [p for p in doc.sidecar["panels"] if not p["rendered"]]
        assert len(rendered) == 7 and len(placeholders) == 3
        assert doc.svg.count("insufficient data") == 3

    def test_panel_order_is_canonical(self, model, cycle):
        flags = {j: np.zeros(101, dtype=bool) for j in JOINT_NAMES}
        doc = render_multi_joint(flags, cycle, model)
        assert [p["joint"] for p in doc.sidecar["panels"]] == list(JOINT_NAMES)


class TestHeatmap:
    def test_zero_matrix_uniformly_light(self):
        doc = render_heatmap(np.zeros((10, 101)))
        assert doc.sidecar["max_severity"] == 0.0
        root_cells = _count(doc, "rect", "cell")
        assert root_cells == 10 * 101
        assert doc.svg.count("rgb(255,255,255)") == 10 * 101

    def test_single_saturated_cell(self):
        matrix = np.zeros((10, 101))
        matrix[3, 40] = 1.0
        doc = render_heatmap(matrix)
        assert doc.svg.count("rgb(0,0,0)") == 1
        assert doc.sidecar["max_severity"] == 1.0

    def test_shape_in_sidecar(self):
        doc = render_heatmap(np.zeros((10, 101)))
        assert doc.sidecar["rows"] == 10
        assert doc.sidecar["cols"] == 101
        assert doc.sidecar["joints"] == list(JOINT_NAMES)

    def test_nan_rows_reported_blank(self):
        matrix = np.zeros((10, 101))
        matrix[2, :] = np.nan
        doc = render_heatmap(matrix)
        assert doc.sidecar["blank_rows"] == [JOINT_NAMES[2]]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            render_heatmap(np.zeros((0, 0)))

    def test_darkness_monotone_in_severity(self):
        matrix = np.zeros((10, 101))
        matrix[0, 0] = 0.25
        matrix[0, 1] = 0.75
        doc = render_heatmap(matrix)
        # darker cell = smaller rgb value
        assert "rgb(191,191,191)" in doc.svg  # 0.25
        assert "rgb(64,64,64)" in doc.svg     # 0.75


class TestAnnotateFrames:
    def test_statuses_applied(self, model):
        seq, anns = generate_pose_sequence(n_cycles=2, frames_per_cycle=20,
                                           seed=17, atypical_last=False)
        flags = {j: np.zeros(101, dtype=bool) for j in JOINT_NAMES}
        statuses = frame_statuses([(anns[0], flags)], seq.frame_index, 101)
        records = annotate_frames(seq, statuses)
        assert len(records) == len(seq.frames)
        first = records[0]
        assert first["joint_status"]["left_knee"] == STATUS_NORMAL
        # frames after the first cycle have no flags -> unknown
        assert records[-1]["joint_status"]["left_knee"] == STATUS_UNKNOWN
        assert set(first["keypoints"]) >= {"left_knee", "right_hallux"}
        assert sorted(first) == ["frame", "joint_status", "keypoints",
                                 "time_s"]

    def test_frames_outside_every_cycle_are_unknown(self):
        seq, _ = generate_pose_sequence(n_cycles=1, frames_per_cycle=10,
                                        seed=18)
        records = annotate_frames(seq, frame_statuses([], seq.frame_index,
                                                      101))
        assert all(v == STATUS_UNKNOWN
                   for v in records[0]["joint_status"].values())

    @pytest.mark.parametrize("shape", [(10, 10), (12, 9), (0, 10)])
    def test_one_status_row_per_frame_and_joint(self, shape):
        seq, _ = generate_pose_sequence(n_cycles=1, frames_per_cycle=10,
                                        seed=18)
        with pytest.raises(ValidationError, match=r"statuses must have "
                                                  r"shape \(11, 10\)"):
            annotate_frames(seq, np.full(shape, STATUS_UNKNOWN, object))


class TestWriteFigure:
    def test_files_written(self, tmp_path, model):
        doc = render_band_plot(model, "left_knee")
        path = tmp_path / "band.svg"
        write_figure(doc, path)
        assert path.read_text().startswith("<svg")
        sidecar = json.loads((tmp_path / "band.svg.json").read_text())
        assert sidecar == doc.sidecar


def _random_cycle(rng, seed, offset=0.0):
    """A demo cycle shifted by ``offset`` degrees, with random joints
    invalid (all-NaN, as resampling leaves them)."""
    base = generate_cycle(demo_profiles(), 101, seed=seed)
    angles, valid = {}, {}
    for joint in JOINT_NAMES:
        valid[joint] = bool(rng.uniform() > 0.3)
        angles[joint] = (base.angles[joint] + offset if valid[joint]
                         else np.full(101, np.nan))
    return NormalizedCycle(label="typical", grid_points=101, angles=angles,
                           valid=valid, cycle_id=f"r:{seed}")


def _random_flags(rng, share):
    return {j: rng.uniform(size=101) < share for j in JOINT_NAMES}


class TestMultiJointAgainstReference:
    """Panel markup is cached per (panel, scale); every document must equal
    the renderer that formats each panel from scratch."""

    def _check(self, flags, cycle, model, cfg=None):
        doc = render_multi_joint(flags, cycle, model, cfg)
        svg, sidecar = reference_multi_joint(flags, cycle, model, cfg)
        assert doc.svg == svg
        assert doc.sidecar == sidecar

    def test_random_cycles_with_invalid_joints(self, model):
        rng = np.random.default_rng(61)
        for seed in range(20):
            cycle = _random_cycle(rng, 2000 + seed)
            flags = _random_flags(rng, float(rng.uniform()))
            if seed % 4 == 0:
                del flags[JOINT_NAMES[seed % 10]]
            self._check(flags, cycle, model,
                        DetectionConfig(k=float(rng.choice([0.5, 1.0, 2.0]))))

    def test_all_abnormal_flags(self, model, cycle):
        self._check({j: np.ones(101, dtype=bool) for j in JOINT_NAMES},
                    cycle, model)

    def test_extreme_angles_force_new_scales(self, model):
        rng = np.random.default_rng(62)
        for offset in (-150.0, -60.5, -0.25, 33.3, 95.0, 180.0):
            self._check(_random_flags(rng, 0.5),
                        _random_cycle(rng, 3000, offset), model)

    def test_alternating_models_of_one_shape(self, model):
        other = build_normative_model(
            generate_cohort(demo_profiles(), 40, seed=91), 101)
        rng = np.random.default_rng(63)
        cycle = _random_cycle(rng, 4000)
        flags = _random_flags(rng, 0.3)
        for m in (model, other, model, other, model):
            self._check(flags, cycle, m)
        assert render_multi_joint(flags, cycle, model).svg != \
            render_multi_joint(flags, cycle, other).svg

    def test_flags_must_match_the_grid(self, model, cycle):
        flags = {j: np.zeros(101, dtype=bool) for j in JOINT_NAMES}
        flags["left_knee"] = np.zeros(100, dtype=bool)
        with pytest.raises(ValidationError):
            render_multi_joint(flags, cycle, model)

    def test_cache_is_bounded(self, model):
        maxsize = _panel.cache_info().maxsize
        assert maxsize is not None
        rng = np.random.default_rng(64)
        flags = _random_flags(rng, 0.5)
        cycle = generate_cycle(demo_profiles(), 101, seed=5000)
        for step in range(maxsize // 10 + 5):
            # a whole-degree shift per document: every panel a new scale
            shifted = NormalizedCycle(
                label="typical", grid_points=101,
                angles={j: a + 200.0 + step for j, a in cycle.angles.items()},
                valid=dict(cycle.valid))
            render_multi_joint(flags, shifted, model)
        assert _panel.cache_info().currsize <= maxsize


class TestEndToEndFigures:
    def test_report_to_figures(self, model, cycle):
        report = build_report(cycle, model, video_id="demo",
                              annotation=CycleAnnotation(0, 30, "typical"))
        heat = render_heatmap(severity_matrix(report))
        assert heat.sidecar["rows"] == 10
        multi = render_multi_joint(report.flag, cycle, model)
        assert sum(p["rendered"] for p in multi.sidecar["panels"]) == 10


class TestArrayFormatting:
    def test_points_equal_per_value_fmt(self):
        # one %-format per array must match formatting value by value,
        # negative zero included
        rng = np.random.default_rng(60)
        xs = np.concatenate((rng.uniform(-500, 500, 300),
                             [-0.0, -0.0004, -0.0005, -0.0006, 0.0004, 1e-9]))
        ys = rng.permutation(xs)
        expected = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        assert _points(xs, ys) == expected
        assert "-0.000," not in expected and " -0.000" not in expected
