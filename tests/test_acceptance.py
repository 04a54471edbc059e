"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line on success; the conftest terminal summary adds
a PASS/FAIL line per criterion at the end of the run.  Statistical
criteria use pinned RNG seeds chosen once and frozen, so the suite is
fully deterministic.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gaitnorm import (DetectionConfig, build_normative_model, build_report,
                      generate_cohort, generate_cycle, inject_abnormality,
                      joint_angle, noise_free_curve, severity_matrix)
from gaitnorm.cli import main
from gaitnorm.cycles import resample_cycle, segment_cycles
from gaitnorm.kinematics import JOINT_KEYPOINTS, JOINT_NAMES, angle_series_set
from gaitnorm.pose_io import parse_annotation_document, parse_pose_sequence
from gaitnorm.spline import eval_spline, fit_natural_cubic
from gaitnorm.synth import (AbnormalitySpec, demo_profiles,
                            generate_pose_sequence)

from helpers import (arccos_angle, bent_left_knee, dense_natural_spline_m,
                     random_knots, spline_second_derivative)

FIXTURES = Path(__file__).parent / "fixtures"
SIGMA_TRUE = 2.0  # noise SD of every demo profile, in degrees

# Frozen seeds: the reference cohort, a disjoint held-out cohort, and the
# single held-out cycle used for the injection criterion.
TRAIN_SEED = 0
HELDOUT_SEED = 50_000
INJECT_SEED = 60_215


@pytest.fixture(scope="module")
def profiles():
    return demo_profiles()


@pytest.fixture(scope="module")
def reference_model(profiles):
    return build_normative_model(generate_cohort(profiles, 200, TRAIN_SEED),
                                 101)


def test_c01_angle_oracle_equivalence():
    """10,000 random non-degenerate triples: atan2 route matches the
    arccos-of-normalized-dot oracle within 1e-6 degrees, in under 1 s."""
    rng = np.random.default_rng(101)
    triples = rng.uniform(-100.0, 100.0, size=(10_000, 3, 2))
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for a, b, c in triples:
        if math.hypot(a[0] - b[0], a[1] - b[1]) < 1e-6 \
                or math.hypot(c[0] - b[0], c[1] - b[1]) < 1e-6:
            continue
        diff = abs(joint_angle(a, b, c) - arccos_angle(a, b, c))
        worst = max(worst, diff)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 9_990
    assert worst < 1e-6, f"worst disagreement {worst:.2e} deg"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: {checked} triples, worst diff {worst:.2e} deg, "
          f"{elapsed:.2f}s")


def test_c02_angle_similarity_invariance():
    """1,000 random similarity transforms change the angle by < 1e-9 deg."""
    rng = np.random.default_rng(102)
    checked = 0
    worst = 0.0
    while checked < 1_000:
        pts = rng.uniform(-10.0, 10.0, size=(3, 2))
        if math.hypot(*(pts[0] - pts[1])) < 0.5 \
                or math.hypot(*(pts[2] - pts[1])) < 0.5:
            continue
        base = joint_angle(pts[0], pts[1], pts[2])
        theta = rng.uniform(0.0, 2.0 * math.pi)
        scale = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        shift = rng.uniform(-50.0, 50.0, size=2)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T * scale + shift
        if rng.integers(2):
            moved = moved * np.array([-1.0, 1.0])
        worst = max(worst, abs(joint_angle(moved[0], moved[1], moved[2]) - base))
        checked += 1
    assert worst < 1e-9, f"worst change {worst:.2e} deg"
    print(f"criterion 2: 1000 transforms, worst change {worst:.2e} deg")


def test_c03_wraparound_rule():
    """Rays at +170 and -170 degrees: raw difference 340 folds to 20.0."""
    ang = math.radians(170.0)
    a = (math.cos(-ang), math.sin(-ang))
    c = (math.cos(ang), math.sin(ang))
    result = joint_angle(a, (0.0, 0.0), c)
    assert result == pytest.approx(20.0, abs=1e-9)
    print(f"criterion 3: +/-170 deg rays -> {result!r}")


def test_c04_spline_oracle():
    """Tridiagonal solve matches a dense solve on 200 random knot sets;
    knots reproduce exactly; natural boundary holds; hand case checks out."""
    rng = np.random.default_rng(104)
    worst_m = 0.0
    for _ in range(200):
        knots = random_knots(rng, int(rng.integers(3, 13)))
        s = fit_natural_cubic(knots)
        x = np.array([p[0] for p in knots])
        y = np.array([p[1] for p in knots])
        worst_m = max(worst_m, float(np.max(np.abs(
            s.m - dense_natural_spline_m(x, y)))))
        for xi, yi in knots:
            assert abs(eval_spline(s, xi) - yi) <= 1e-12 * max(1.0, abs(yi))
        assert abs(spline_second_derivative(s, 0, s.x[0])) < 1e-9
        assert abs(spline_second_derivative(s, len(knots) - 2, s.x[-1])) < 1e-9
    assert worst_m < 1e-9, f"worst coefficient gap {worst_m:.2e}"

    hand = fit_natural_cubic([(0, 0), (1, 1), (2, 0)])
    assert eval_spline(hand, 0.5) == pytest.approx(0.6875, abs=1e-9)
    print(f"criterion 4: 200 knot sets, worst coefficient gap {worst_m:.2e}; "
          f"hand case eval(0.5)={eval_spline(hand, 0.5)!r}")


def test_c05_normative_recovery(profiles):
    """500-cycle cohort: mean within 0.2 deg RMS of truth, SD within 15%
    of sigma at >= 99% of grid points, in under 10 s."""
    start = time.perf_counter()
    cohort = generate_cohort(profiles, 500, seed=1_000)
    model = build_normative_model(cohort, 101)
    elapsed = time.perf_counter() - start
    worst_rms = 0.0
    worst_bad_frac = 0.0
    for joint, jn in model.joints.items():
        truth = noise_free_curve(profiles[joint], 101)
        rms = float(np.sqrt(np.mean((jn.mean - truth) ** 2)))
        worst_rms = max(worst_rms, rms)
        assert rms < 0.2, f"{joint}: mean RMS {rms:.3f} deg"
        bad = float(np.mean(np.abs(jn.std - SIGMA_TRUE) > 0.15 * SIGMA_TRUE))
        worst_bad_frac = max(worst_bad_frac, bad)
        assert bad <= 0.01, f"{joint}: std off at {bad:.1%} of grid points"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 5: worst mean RMS {worst_rms:.3f} deg, worst std-miss "
          f"fraction {worst_bad_frac:.3f}, {elapsed:.2f}s")


def test_c06_flag_rate_calibration(profiles, reference_model):
    """100 held-out typical cycles from the training process flag at the
    two-tailed 1-SD Gaussian rate, 0.3173 +/- 0.05, in under 10 s."""
    cfg = DetectionConfig()
    start = time.perf_counter()
    held_out = generate_cohort(profiles, 100, seed=HELDOUT_SEED)
    total = 0
    flagged = 0
    for cycle in held_out:
        flags = build_report(cycle, reference_model, cfg).flag
        for joint in flags:
            total += flags[joint].size
            flagged += int(flags[joint].sum())
    elapsed = time.perf_counter() - start
    rate = flagged / total
    assert total >= 10_000
    assert abs(rate - 0.3173) <= 0.05, f"rate {rate:.4f}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 6: flag rate {rate:.4f} over {total} samples, "
          f"{elapsed:.2f}s")


def _walker_cycles(n_cycles, seed, bend=None):
    """The typical cycles of a synthetic walker, through angles,
    segmentation and resampling, as ``run`` computes them; with ``bend``
    (degrees), after ``bent_left_knee`` moved its keypoints."""
    seq, annotations = generate_pose_sequence(n_cycles=n_cycles, seed=seed,
                                              atypical_last=False)
    if bend is not None:
        seq = bent_left_knee(seq, annotations, bend)
    return [resample_cycle(s) for s in
            segment_cycles(angle_series_set(seq), annotations, video_id="w")]


def test_c06_flag_rate_calibration_through_the_pipeline():
    """c06 with the cycles ``run`` computes rather than ``synth`` cycles: a
    model from a 300-cycle walker (seed 1) flags 100 cycles of another
    (seed 2) at the two-tailed 1-SD normal rate, 2*Phi(-1) +/- 0.05.
    The SD floor is 0: this walker's SD (median about 0.55 deg) is near
    the default 0.5 deg floor, which lowers the rate by design."""
    cfg = DetectionConfig(sigma_floor_deg=0.0)
    model = build_normative_model(_walker_cycles(300, 1), 101)
    fractions = [float(np.mean([f.mean() for f in
                                build_report(c, model, cfg).flag.values()]))
                 for c in _walker_cycles(100, 2)]
    assert len(fractions) == 100
    rate, nominal = float(np.mean(fractions)), math.erfc(1.0 / math.sqrt(2.0))
    assert abs(rate - nominal) <= 0.05, f"rate {rate:.4f}"
    print(f"criterion 6 (pipeline): flag rate {rate:.4f} against "
          f"{nominal:.4f}")


@pytest.mark.parametrize("delta", [(3.0, "SD"), (-3.0, "SD"), (5.0, "deg")],
                         ids=["+3SD", "-3SD", "+5deg"])
def test_c07_injection_detection_through_the_pipeline(delta):
    """c07 with the deviation put in the keypoints rather than in
    ``synth`` cycles: the left foot turned about the left knee by delta in
    the frames at 30-60% of each of 100 walker cycles (seed 2) changes
    the knee angle by delta there.  Against a 300-cycle walker model
    (seed 1) the left knee is flagged at >= 95% of the window's grid
    points, every other joint flags exactly as in the clean run, and
    outside the window widened by two frames a side no grid point of the
    knee moves by more than 10% of delta: angles, segmentation and spline
    resampling keep the deviation in its joint and its phase."""
    start = time.perf_counter()
    cfg = DetectionConfig()
    model = build_normative_model(_walker_cycles(300, 1), 101)
    sd = float(np.median(model.joints["left_knee"].std))
    value, unit = delta
    bend = value * sd if unit == "SD" else value
    clean, bent = _walker_cycles(100, 2), _walker_cycles(100, 2, bend)
    grid = np.linspace(0.0, 100.0, 101)
    widened = 2 * 100.0 / 30  # two frames of a 30-frame cycle, in percent
    outside = (grid < 30.0 - widened) | (grid > 60.0 + widened)
    rates, worst = [], 0.0
    for c, b in zip(clean, bent):
        flags, clean_flags = (build_report(b, model, cfg).flag,
                              build_report(c, model, cfg).flag)
        rates.append(float(np.mean(flags["left_knee"][30:61])))
        for joint in JOINT_NAMES:
            if joint != "left_knee":
                np.testing.assert_array_equal(flags[joint],
                                              clean_flags[joint])
        moved = np.abs(b.angles["left_knee"] - c.angles["left_knee"])
        worst = max(worst, float(moved[outside].max()))
    rate = float(np.mean(rates))
    assert len(rates) == 100
    assert rate >= 0.95, f"window flag rate {rate:.3f}"
    assert worst <= 0.1 * abs(bend), f"moved {worst:.3f} deg outside"
    print(f"criterion 7 (pipeline, delta {bend:+.2f} deg): window rate "
          f"{rate:.3f}, largest move outside {worst:.3f} deg, "
          f"{time.perf_counter() - start:.1f}s")


def test_c07_injection_detection(profiles, reference_model):
    """A +3 sigma offset on the left knee over 30-60% of the cycle is
    flagged almost everywhere in the window, leaves every other joint at
    its typical flag rate (bit-identical flags, in fact), and confines
    the dark region of the severity matrix to the left-knee row."""
    cfg = DetectionConfig()
    held = generate_cycle(profiles, 101, seed=INJECT_SEED)
    spec = AbnormalitySpec(joint="left_knee", window=(30.0, 60.0),
                           kind="offset", magnitude=3.0 * SIGMA_TRUE)
    injected = inject_abnormality(held, spec)

    report = build_report(injected, reference_model, cfg)
    flags = report.flag
    window_rate = float(np.mean(flags["left_knee"][30:61]))
    assert window_rate >= 0.95, f"window flag rate {window_rate:.3f}"

    others = [j for j in JOINT_NAMES if j != "left_knee"]
    pooled = float(np.mean(np.concatenate([flags[j] for j in others])))
    assert abs(pooled - 0.3173) <= 0.05, f"other-joint rate {pooled:.4f}"

    # the injection must not leak: other joints flag exactly as they
    # would have without it
    clean_flags = build_report(held, reference_model, cfg).flag
    for joint in others:
        np.testing.assert_array_equal(flags[joint], clean_flags[joint])

    matrix = severity_matrix(report)
    knee_row = list(JOINT_NAMES).index("left_knee")
    knee_window_severity = float(np.mean(matrix[knee_row, 30:61]))
    other_row_severity = max(float(np.mean(matrix[r]))
                             for r in range(len(JOINT_NAMES)) if r != knee_row)
    darkest = np.unravel_index(np.nanargmax(matrix), matrix.shape)
    assert knee_window_severity >= 0.75
    assert other_row_severity <= 0.45
    assert darkest[0] == knee_row
    print(f"criterion 7: window rate {window_rate:.3f}, other-joint rate "
          f"{pooled:.4f}, knee window severity {knee_window_severity:.3f} vs "
          f"max other row {other_row_severity:.3f}")


def test_c08_end_to_end_determinism(tmp_path):
    """Two full `run` invocations on the bundled fixture produce
    byte-identical models, reports, figures and sidecars."""
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = main(["run",
                     "--keypoints", str(FIXTURES / "demo.keypoints.jsonl"),
                     "--annotations", str(FIXTURES / "demo.cycles.json"),
                     "--out-dir", str(out_dir)])
        assert code == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out_dir.iterdir())})
    first, second = outputs
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    kinds = {n.split(".")[-1] for n in first}
    assert kinds == {"json", "svg"}
    print(f"criterion 8: {len(first)} files byte-identical across two runs")


def test_c09_shape_contracts(profiles, reference_model):
    """Severity matrix is 10 x 101, normalized cycles carry 101 points,
    and the standard joint set reproduces the ten documented rows."""
    cfg = DetectionConfig()
    cycle = generate_cycle(profiles, 101, seed=42)
    report = build_report(cycle, reference_model, cfg)
    matrix = severity_matrix(report)
    assert matrix.shape == (10, 101)
    assert all(len(arr) == 101 for arr in cycle.angles.values())

    # cycles produced from keypoints obey the same contract
    data = (FIXTURES / "demo.keypoints.jsonl").read_bytes()
    seq = parse_pose_sequence(data, video_id="fixture")
    _, annotations = parse_annotation_document(
        (FIXTURES / "demo.cycles.json").read_bytes())
    slices = segment_cycles(angle_series_set(seq), annotations,
                            video_id="fixture")
    for s in slices:
        resampled = resample_cycle(s, 101)
        assert all(len(arr) == 101 for arr in resampled.angles.values())

    expected_rows = [
        ("left_shoulder", "left_hip", "left_shoulder", "left_elbow"),
        ("right_shoulder", "right_hip", "right_shoulder", "right_elbow"),
        ("left_elbow", "left_shoulder", "left_elbow", "left_wrist"),
        ("right_elbow", "right_shoulder", "right_elbow", "right_wrist"),
        ("left_hip", "left_shoulder", "left_hip", "left_knee"),
        ("right_hip", "right_shoulder", "right_hip", "right_knee"),
        ("left_knee", "left_hip", "left_knee", "left_ankle"),
        ("right_knee", "right_hip", "right_knee", "right_ankle"),
        ("left_ankle", "left_knee", "left_ankle", "left_hallux"),
        ("right_ankle", "right_knee", "right_ankle", "right_hallux"),
    ]
    got = [(name, *triple) for name, triple in JOINT_KEYPOINTS.items()]
    assert got == expected_rows
    print("criterion 9: shapes 10x101 / 101-point cycles / 10 joint rows ok")


def test_c10_scale_reference(profiles):
    """A 351-cycle cohort (the reference cohort size) builds in < 5 s."""
    start = time.perf_counter()
    cohort = generate_cohort(profiles, 351, seed=2_000)
    model = build_normative_model(cohort, 101)
    elapsed = time.perf_counter() - start
    assert len(model.provenance) == 351
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 10: 351-cycle model in {elapsed:.2f}s")
