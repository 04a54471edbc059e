import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from gaitnorm import (DetectionConfig, ValidationError, annotate_frames,
                      build_normative_model, build_report, frame_statuses,
                      generate_cohort, generate_cycle, load_cycles,
                      load_norm_model, load_report, render_band_plot,
                      render_heatmap, render_multi_joint, severity_matrix,
                      write_figure)
from gaitnorm.cli import main
from gaitnorm.detect import STATUS_NORMAL, STATUS_UNKNOWN
from gaitnorm.cycles import NormalizedCycle
from gaitnorm.figures import _dots, _fmt, _panel, _path
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.synth import demo_profiles, generate_pose_sequence
from gaitnorm.pose_io import (CycleAnnotation, serialize_annotations,
                              serialize_pose_sequence)

from helpers import (BAND_PLOT_BOX, compact_canonical, decode_dots,
                     decode_heatmap, decode_series, hex_rgb, reference_heatmap,
                     reference_multi_joint, reference_panel_series,
                     without_geometry)

FIXTURES = Path(__file__).parent / "fixtures"


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


def _dot_counts(doc):
    """Dots drawn per class, over every panel of ``doc``."""
    dots = [d for panel in decode_dots(doc.svg) for d in panel]
    return {cls: sum(1 for d in dots if d[2] == cls)
            for cls in ("normal", "abnormal")}


class TestBandPlot:
    def test_model_only(self, model):
        doc = render_band_plot(model, "left_knee")
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds == {"mean": 101, "band": 202}
        assert _count(doc, "path", "mean") == 1
        assert _count(doc, "path", "band") == 1
        assert decode_series(doc.svg) == [reference_panel_series(
            model.joints["left_knee"], 1.0, None, BAND_PLOT_BOX)]
        assert decode_dots(doc.svg) == []

    def test_overlay_counts_match_svg(self, model, cycle):
        cfg = DetectionConfig()
        z = build_report(cycle, model, cfg).z
        flags = np.abs(z["left_knee"]) > cfg.k
        doc = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds["normal"] + kinds["abnormal"] == 101
        assert kinds["abnormal"] == int(flags.sum())
        assert _dot_counts(doc) == {"normal": kinds["normal"],
                                    "abnormal": kinds["abnormal"]}
        # the y range takes in the cycle's angles
        assert decode_series(doc.svg) == [reference_panel_series(
            model.joints["left_knee"], cfg.k, cycle.angles["left_knee"],
            BAND_PLOT_BOX)]

    def test_zero_flags_zero_abnormal_points(self, model, cycle):
        flags = np.zeros(101, dtype=bool)
        doc = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds["abnormal"] == 0
        assert _dot_counts(doc) == {"normal": 101, "abnormal": 0}
        # a class without dots has no path
        assert _count(doc, "path", "abnormal") == 0
        assert _count(doc, "path", "normal") == 1

    def test_ten_flags(self, model, cycle):
        flags = np.zeros(101, dtype=bool)
        flags[10:20] = True
        doc = render_band_plot(model, "left_knee", overlay=(cycle, flags))
        kinds = {s["kind"]: s["points"] for s in doc.sidecar["series"]}
        assert kinds["abnormal"] == 10
        [dots] = decode_dots(doc.svg)
        assert sorted(round((x - 50.0) / 5.7) for x, _, cls in dots
                      if cls == "abnormal") == list(range(10, 20))

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
        cells = decode_heatmap(doc.svg)
        assert sorted(cells) == [(r, c) for r in range(10)
                                 for c in range(101)]
        assert set(cells.values()) == {(255, 255, 255)}
        # one path per shade used
        assert _count(doc, "path") == 1

    def test_single_saturated_cell(self):
        matrix = np.zeros((10, 101))
        matrix[3, 40] = 1.0
        doc = render_heatmap(matrix)
        cells = decode_heatmap(doc.svg)
        assert [rc for rc, rgb in cells.items()
                if rgb == (0, 0, 0)] == [(3, 40)]
        assert doc.sidecar["max_severity"] == 1.0

    def test_severity_exactly_0_and_1_and_beyond(self):
        matrix = np.zeros((10, 101))
        matrix[:, ::2] = 1.0
        matrix[0, :4] = [-0.0, 1.5, -2.0, np.inf]
        cells = decode_heatmap(render_heatmap(matrix).svg)
        assert cells == reference_heatmap(matrix)
        assert cells[0, 0] == (255, 255, 255)
        assert cells[0, 1] == cells[0, 3] == cells[1, 2] == (0, 0, 0)
        assert cells[0, 2] == cells[1, 1] == (255, 255, 255)

    def test_nan_row_drawn_as_blank_cells(self):
        matrix = np.full((10, 101), 0.5)
        matrix[2, :] = np.nan
        matrix[5, 7] = np.nan  # one NaN cell in a scored row
        doc = render_heatmap(matrix)
        cells = decode_heatmap(doc.svg)
        assert cells == reference_heatmap(matrix)
        blank = sorted(rc for rc, rgb in cells.items()
                       if rgb == (0xfd, 0xe0, 0xdd))
        assert blank == [(2, c) for c in range(101)] + [(5, 7)]
        assert doc.sidecar["blank_rows"] == [JOINT_NAMES[2]]
        # the NaN colour comes after every gray
        assert doc.svg.rindex('stroke="#') == \
            doc.svg.index('stroke="#fde0dd"')

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices_against_reference(self, seed):
        rng = np.random.default_rng(seed)
        cols = [101, 1, 7, 51, 101, 300][seed]
        matrix = rng.uniform(-0.2, 1.2, (10, cols))
        # half-gray steps, exact ends, NaN cells and an all-NaN row
        matrix[rng.uniform(size=matrix.shape) < 0.2] = np.nan
        steps = rng.integers(0, 511, matrix.shape) / 510.0
        matrix = np.where(rng.uniform(size=matrix.shape) < 0.3, steps, matrix)
        matrix[rng.integers(10)] = np.nan
        doc = render_heatmap(matrix)
        assert decode_heatmap(doc.svg) == reference_heatmap(matrix)
        strokes = [el.get("stroke") for el in _svg_root(doc).iter()
                   if el.tag.endswith("path")]
        order = [256 if s == "#fde0dd" else hex_rgb(s)[0] for s in strokes]
        assert order == sorted(set(order))

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

    @pytest.mark.parametrize("rows", [1, 9, 11])
    def test_one_row_per_joint_required(self, rows):
        with pytest.raises(ValidationError, match=rf"^{rows} matrix rows but "
                                                  rf"10 joints"):
            render_heatmap(np.zeros((rows, 101)))

    def test_darkness_monotone_in_severity(self):
        matrix = np.zeros((10, 101))
        matrix[0, 0] = 0.25
        matrix[0, 1] = 0.75
        doc = render_heatmap(matrix)
        # darker cell = smaller rgb value
        assert 'stroke="#bfbfbf"' in doc.svg  # 0.25, gray 191
        assert 'stroke="#404040"' in doc.svg  # 0.75, gray 64

    def test_cell_markup(self):
        # one group in cell units, a unit stroke per cell, grays in hex
        # (three digits where each pair repeats), the NaN colour last;
        # rows 2-9 are white
        matrix = np.zeros((10, 3))
        matrix[:2] = [[0.0, 1.0, np.nan], [0.5, 0.2, 2 / 255]]
        svg = render_heatmap(matrix).svg
        white = "".join(f"M{c} {r}h1" for r in range(2, 10) for c in range(3))
        assert svg[svg.index("<g "):svg.index("</g>") + 4] == (
            '<g transform="translate(110 32) scale(8 24)">'
            '<path stroke="#000" d="M1 0h1"/>'
            '<path stroke="#808080" d="M0 1h1"/>'
            '<path stroke="#ccc" d="M1 1h1"/>'
            '<path stroke="#fdfdfd" d="M2 1h1"/>'
            f'<path stroke="#fff" d="M0 0h1{white}"/>'
            '<path stroke="#fde0dd" d="M2 0h1"/></g>')
        assert svg.index("</g>") < svg.index("<text")

    def test_a_blank_row_is_not_drawn_as_a_near_normal_one(self):
        # gray 245, a severity of 10/255 (|z| about 0.12), used to be the
        # NaN fill as well; no gray is the NaN colour now
        matrix = np.full((10, 5), 10 / 255)
        matrix[1] = np.nan
        cells = decode_heatmap(render_heatmap(matrix).svg)
        assert cells[0, 0] == (245, 245, 245)
        assert cells[1, 0] == (0xfd, 0xe0, 0xdd)


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
    """Panel markup is cached per (panel, scale); every document must draw
    what the renderer that formats each panel from scratch draws: the same
    markup apart from the dots and the band and mean path data, and the
    same dots, bands and mean lines, decoded."""

    def _check(self, flags, cycle, model, cfg=None):
        doc = render_multi_joint(flags, cycle, model, cfg)
        svg, dots, series, sidecar = reference_multi_joint(flags, cycle,
                                                           model, cfg)
        assert without_geometry(doc.svg) == svg
        assert decode_dots(doc.svg) == dots
        assert decode_series(doc.svg) == series
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

    def test_one_class_empty(self, model, cycle):
        flags = {j: np.full(101, j.startswith("left")) for j in JOINT_NAMES}
        self._check(flags, cycle, model)
        doc = render_multi_joint(flags, cycle, model)
        assert _count(doc, "path", "normal") == 5
        assert _count(doc, "path", "abnormal") == 5

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


class TestDotCoordinates:
    def test_negative_zero_and_trailing_zeros(self):
        # cy values formatting as -0.000, 0.000, whole numbers and fewer
        # than three decimals; -0.0004 and 0.0004 round to 0.000
        xs = (26.0, 29.6, 33.2, 36.8, 40.4, 44.0, 47.6)
        ys = np.array([-0.0004, -0.0, 0.0004, 12.5, 100.0, -7.25, 3.14159])
        flags = np.array([False, True, False, True, False, True, False])
        prefixes = tuple(f"M{x:g} " for x in xs)
        markup, n_normal, n_abnormal = _dots(prefixes, ys, flags,
                                             lambda v: v)
        assert (n_normal, n_abnormal) == (4, 3)
        assert "-0h" not in markup and "-0.000" not in markup
        [dots] = decode_dots(f'<svg xmlns="http://www.w3.org/2000/svg">'
                             f'{markup}</svg>')
        assert dots == {(x, float(_fmt(y)), "abnormal" if f else "normal")
                        for x, y, f in zip(xs, ys.tolist(), flags.tolist())}
        assert markup == (
            '<path class="normal" d="M26 0h0M33.2 0h0M40.4 100h0'
            'M47.6 3.142h0"/>'
            '<path class="abnormal" d="M29.6 0h0M36.8 12.5h0M44 -7.25h0"/>')


def _run_figures_against_reference(tmp_path, keypoints, annotations):
    """``run`` on a keypoint file, then every heatmap and multi-joint
    panel it drew decoded and compared with the references, drawn from
    its own reports and model and from ``segment``'s cycles."""
    out, seg = tmp_path / "run", tmp_path / "seg.json"
    assert main(["run", "--keypoints", str(keypoints),
                 "--annotations", str(annotations),
                 "--out-dir", str(out)]) == 0
    assert main(["segment", "--keypoints", str(keypoints),
                 "--annotations", str(annotations), "--out", str(seg)]) == 0
    model = load_norm_model(next(out.glob("*.model.json")).read_bytes())
    cycles = load_cycles(seg.read_bytes())
    reports = sorted(out.glob("*.report.json"),
                     key=lambda p: int(p.name.split(".")[-3][1:]))
    assert len(reports) == len(cycles) > 0
    for path, cycle in zip(reports, cycles):
        report = load_report(path.read_bytes())
        prefix = str(path)[:-len(".report.json")]
        heat = Path(prefix + ".heatmap.svg").read_text()
        assert decode_heatmap(heat) == reference_heatmap(
            severity_matrix(report))
        multi = Path(prefix + ".multijoint.svg").read_text()
        svg, dots, series, sidecar = reference_multi_joint(
            report.flag, cycle, model, report.config)
        assert without_geometry(multi) == svg
        assert decode_dots(multi) == dots
        assert decode_series(multi) == series
        assert json.loads(Path(prefix + ".multijoint.svg.json").read_text()) \
            == sidecar
    return len(reports)


class TestRunFiguresAgainstReference:
    def test_demo_fixture(self, tmp_path):
        assert _run_figures_against_reference(
            tmp_path, FIXTURES / "demo.keypoints.jsonl",
            FIXTURES / "demo.cycles.json") == 4

    def test_forty_cycle_walk(self, tmp_path):
        seq, cycles = generate_pose_sequence(n_cycles=40, seed=3,
                                             video_id="walk")
        keypoints = tmp_path / "walk.keypoints.jsonl"
        annotations = tmp_path / "walk.cycles.json"
        keypoints.write_bytes(serialize_pose_sequence(seq))
        annotations.write_bytes(serialize_annotations("walk", cycles))
        assert _run_figures_against_reference(tmp_path, keypoints,
                                              annotations) == 40


class TestEndToEndFigures:
    def test_report_to_figures(self, model, cycle):
        report = build_report(cycle, model, video_id="demo",
                              annotation=CycleAnnotation(0, 30, "typical"))
        heat = render_heatmap(severity_matrix(report))
        assert heat.sidecar["rows"] == 10
        multi = render_multi_joint(report.flag, cycle, model)
        assert sum(p["rendered"] for p in multi.sidecar["panels"]) == 10


class TestArrayFormatting:
    def test_path_points_equal_per_value_fmt(self):
        # the relative steps must add back up to formatting value by
        # value, negative zero and half-thousandth ties included;
        # decode_series refuses a "-0" step
        rng = np.random.default_rng(60)
        xs = np.concatenate((rng.uniform(-500, 500, 300),
                             [-0.0, -0.0004, -0.0005, -0.0006, 0.0004, 1e-9,
                              0.0625, -0.0625, 2.0625, 1e6 + 0.0625]))
        ys = rng.permutation(xs)
        d = _path(xs, ys)
        [panel] = decode_series(
            f'<svg xmlns="http://www.w3.org/2000/svg">'
            f'<path class="band" d="{d}z"/></svg>')
        assert panel["band"] == [(int(_fmt(x).replace(".", "")),
                                  int(_fmt(y).replace(".", "")))
                                 for x, y in zip(xs.tolist(), ys.tolist())]

    def test_path_markup(self):
        # -0.0004 is 0.000 and 0.0625 is 0.062 (a tie, to even): the steps
        # are differences of those, in the short form, a minus sign
        # standing in for the space before a negative number
        xs = np.array([26.0, 29.6, 33.2, 36.8, 40.4])
        ys = np.array([-0.0004, 5.824, 0.0625, 2.1875, 2.1875])
        assert _path(xs, ys) == "M26 0l3.6 5.824 3.6-5.762 3.6 2.126 3.6 0"
        assert _path(xs[::-1], -ys[::-1]) == \
            "M40.4-2.188l-3.6 0-3.6 2.126-3.6-5.762-3.6 5.824"


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """{"demo": the demo fixture's ``run`` directory, "walk": that of a
    40-cycle walker (seed 3)}, the inputs of the CI figure checks."""
    work = tmp_path_factory.mktemp("run-outputs")
    seq, cycles = generate_pose_sequence(n_cycles=40, seed=3,
                                         video_id="walk")
    inputs = {"demo": (FIXTURES / "demo.keypoints.jsonl",
                       FIXTURES / "demo.cycles.json"),
              "walk": (work / "walk.keypoints.jsonl",
                       work / "walk.cycles.json")}
    inputs["walk"][0].write_bytes(serialize_pose_sequence(seq))
    inputs["walk"][1].write_bytes(serialize_annotations("walk", cycles))
    for name, (keypoints, annotations) in inputs.items():
        assert main(["run", "--keypoints", str(keypoints),
                     "--annotations", str(annotations),
                     "--out-dir", str(work / name)]) == 0
    return {name: work / name for name in inputs}


def _sidecar(svg_path):
    return json.loads(Path(f"{svg_path}.json").read_text())


@pytest.mark.parametrize("name", ["demo", "walk"])
class TestRunOutputsAgainstSidecars:
    """Every figure ``run`` writes, decoded, draws what its sidecar
    states."""

    def test_every_heatmap_cell_drawn_once(self, run_outputs, name):
        heatmaps = sorted(run_outputs[name].glob("*.heatmap.svg"))
        assert len(heatmaps) == {"demo": 4, "walk": 40}[name]
        for path in heatmaps:
            side = _sidecar(path)
            assert sorted(decode_heatmap(path.read_text())) == [
                (r, c) for r in range(side["rows"])
                for c in range(side["cols"])], path.name

    def test_panel_dots_per_class_match_the_sidecar(self, run_outputs, name):
        panels = sorted(run_outputs[name].glob("*.multijoint.svg"))
        assert len(panels) == len(list(
            run_outputs[name].glob("*.heatmap.svg")))
        for path in panels:
            side = _sidecar(path)
            dots = decode_dots(path.read_text())
            assert len(dots) == len(side["panels"]), path.name
            for drawn, panel in zip(dots, side["panels"]):
                counts = {cls: sum(d[2] == cls for d in drawn)
                          for cls in ("normal", "abnormal")}
                assert counts == {cls: panel.get(cls, 0) for cls in counts}, \
                    (path.name, panel["joint"])

    def test_band_and_mean_points_match_the_sidecar(self, run_outputs, name):
        for path in sorted(run_outputs[name].glob("*.multijoint.svg")):
            side = _sidecar(path)
            n = side["grid_points"]
            series = decode_series(path.read_text())
            assert len(series) == len(side["panels"]), path.name
            for drawn, panel in zip(series, side["panels"]):
                assert {k: len(v) for k, v in drawn.items()} == (
                    {"band": 2 * n, "mean": n} if panel["rendered"] else {})
        bands = sorted(run_outputs[name].glob("*.band.*.svg"))
        assert len(bands) == 10
        for path in bands:
            [drawn] = decode_series(path.read_text())
            stated = {s["kind"]: s["points"] for s in _sidecar(path)["series"]}
            assert {k: len(v) for k, v in drawn.items()} == stated, path.name


def test_a_reloaded_report_draws_the_pipelines_heatmap(run_outputs, tmp_path):
    out = run_outputs["walk"]
    assert main(["figures", "--report", str(out / "walk.c0.report.json"),
                 "--model", str(out / "walk.model.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "walk.heatmap.svg").read_bytes() == \
        (out / "walk.c0.heatmap.svg").read_bytes()


@pytest.mark.parametrize("name", ["demo", "walk"])
def test_overlay_keypoints_are_within_half_a_thousandth_of_the_input(
        run_outputs, name):
    # read with the standard library alone: one record per keypoint line,
    # no edge list, every input landmark and no other
    keypoints = {"demo": FIXTURES / "demo.keypoints.jsonl",
                 "walk": run_outputs["walk"].parent / "walk.keypoints.jsonl"}
    lines = [json.loads(line) for line in
             keypoints[name].read_text().splitlines() if line.strip()]
    [overlay] = run_outputs[name].glob("*.overlays.json")
    records = json.loads(overlay.read_text())
    assert len(records) == len(lines)
    given = {line["frame"]: line["keypoints"] for line in lines}
    for record in records:
        assert "edges" not in record, record["frame"]
        inputs = given[record["frame"]]
        assert sorted(record["keypoints"]) == sorted(inputs)
        for landmark, values in record["keypoints"].items():
            assert len(values) == len(inputs[landmark])
            for got, want in zip(values, inputs[landmark]):
                # 0.0005, plus the float rounding of want * 1000 / 1000
                assert abs(got - want) <= 0.0005 + 1e-9, \
                    (record["frame"], landmark, got, want)


def test_every_json_file_of_a_run_is_compact_canonical(run_outputs):
    # re-encoding with the writer's settings gives back the exact bytes,
    # so a writer that drifts back to pretty-printing fails here
    counts = {}
    for name, out in run_outputs.items():
        paths = sorted(out.glob("*.json"))
        for path in paths:
            data = path.read_bytes()
            assert data == compact_canonical(data), path.name
        counts[name] = len(paths)
    assert counts == {"demo": 24, "walk": 132}
