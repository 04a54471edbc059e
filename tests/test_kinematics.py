import math
from pathlib import Path

import numpy as np
import pytest

from gaitnorm import (DegenerateGeometryError, JOINT_KEYPOINTS, JOINT_NAMES,
                      angle_series_set, joint_angle)
from gaitnorm.kinematics import (MISSING_ABSENT_KEYPOINT,
                                 MISSING_DEGENERATE,
                                 MISSING_LOW_VISIBILITY, MISSING_REASONS)
from gaitnorm.pose_io import (KEYPOINT_NAMES, Keypoint, KeypointFrame,
                              Point2D, PoseSequence, parse_pose_sequence)

from helpers import arccos_angle


class TestJointAngle:
    def test_perpendicular(self):
        assert joint_angle((0, 1), (0, 0), (1, 0)) == pytest.approx(90.0)

    def test_collinear_opposite(self):
        assert joint_angle((-1, 0), (0, 0), (1, 0)) == pytest.approx(180.0)

    def test_wraparound_from_rounded_coordinates(self):
        # rays at roughly +/-170 degrees; raw |difference| is ~340 and the
        # fold-back rule brings it to ~20
        a = (-0.98481, -0.17365)
        c = (-0.98481, 0.17365)
        assert joint_angle(a, (0, 0), c) == pytest.approx(20.0, abs=5e-4)

    def test_wraparound_exact_rays(self):
        ang = math.radians(170.0)
        a = (math.cos(-ang), math.sin(-ang))
        c = (math.cos(ang), math.sin(ang))
        assert joint_angle(a, (0.0, 0.0), c) == pytest.approx(20.0, abs=1e-9)

    def test_degenerate_vertex(self):
        with pytest.raises(DegenerateGeometryError):
            joint_angle((0, 0), (0, 0), (1, 1))
        with pytest.raises(DegenerateGeometryError):
            joint_angle((1, 1), (0, 0), (0, 0))

    def test_range_property(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            a, b, c = rng.uniform(-100, 100, size=(3, 2))
            if np.allclose(a, b) or np.allclose(c, b):
                continue
            angle = joint_angle(a, b, c)
            assert 0.0 <= angle <= 180.0

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a, b, c = rng.uniform(-100, 100, size=(3, 2))
            assert joint_angle(a, b, c) == pytest.approx(
                joint_angle(c, b, a), abs=1e-12)

    def test_matches_arccos_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            a, b, c = rng.uniform(-100, 100, size=(3, 2))
            if math.hypot(*(a - b)) < 1e-6 or math.hypot(*(c - b)) < 1e-6:
                continue
            assert joint_angle(a, b, c) == pytest.approx(
                arccos_angle(a, b, c), abs=1e-6)

    def test_similarity_invariance(self):
        # rotation + translation + uniform scale + optional reflection,
        # applied identically to all three points, leave the angle alone
        rng = np.random.default_rng(14)
        for _ in range(500):
            pts = rng.uniform(-10, 10, size=(3, 2))
            if (math.hypot(*(pts[0] - pts[1])) < 0.5
                    or math.hypot(*(pts[2] - pts[1])) < 0.5):
                continue
            base = joint_angle(pts[0], pts[1], pts[2])
            theta = rng.uniform(0, 2 * math.pi)
            scale = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            t = rng.uniform(-50, 50, size=2)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            moved = pts @ rot.T * scale + t
            if rng.integers(2):
                moved = moved * np.array([-1.0, 1.0])
            assert joint_angle(moved[0], moved[1], moved[2]) == pytest.approx(
                base, abs=1e-9)


# A hip, knee and ankle where the knee-to-hip ray's x (-2e308) is past
# the float limit.
OVERFLOW_HIP, OVERFLOW_KNEE, OVERFLOW_ANKLE = \
    (-1e308, -5e307), (1e308, 0.0), (1e308, 1e308)


class TestRayOverflow:
    """A ray past the float limit keeps its direction: the angle is the
    one of the same points halved, which no ray of overflows."""

    # joint_angle on the points halved; the arccos oracle on the points
    # scaled (exactly) to moderate values agrees.
    HALVED = 104.03624346792648

    def test_joint_angle(self):
        points = (OVERFLOW_HIP, OVERFLOW_KNEE, OVERFLOW_ANKLE)
        assert joint_angle(*[(x / 2, y / 2) for x, y in points]) \
            == joint_angle(*points) == self.HALVED
        scaled = [(math.ldexp(x, -1000), math.ldexp(y, -1000))
                  for x, y in points]
        assert arccos_angle(*scaled) == pytest.approx(self.HALVED, abs=1e-9)

    def test_angle_series_set(self):
        keypoints = np.full((1, len(KEYPOINT_NAMES), 3), np.nan)
        for name, xy in (("left_hip", OVERFLOW_HIP),
                         ("left_knee", OVERFLOW_KNEE),
                         ("left_ankle", OVERFLOW_ANKLE)):
            keypoints[0, KEYPOINT_NAMES.index(name)] = (*xy, 1.0)
        seq = PoseSequence("v", frame_index=[0], time_s=[np.nan],
                           keypoints=keypoints)
        assert angle_series_set(seq)["left_knee"].angles.tolist() == \
            [self.HALVED]


class TestStandardJointSet:
    # (joint, proximal, axis, distal)
    EXPECTED = {
        "left_shoulder": ("left_hip", "left_shoulder", "left_elbow"),
        "right_shoulder": ("right_hip", "right_shoulder", "right_elbow"),
        "left_elbow": ("left_shoulder", "left_elbow", "left_wrist"),
        "right_elbow": ("right_shoulder", "right_elbow", "right_wrist"),
        "left_hip": ("left_shoulder", "left_hip", "left_knee"),
        "right_hip": ("right_shoulder", "right_hip", "right_knee"),
        "left_knee": ("left_hip", "left_knee", "left_ankle"),
        "right_knee": ("right_hip", "right_knee", "right_ankle"),
        "left_ankle": ("left_knee", "left_ankle", "left_hallux"),
        "right_ankle": ("right_knee", "right_ankle", "right_hallux"),
    }

    def test_has_ten_joints_in_canonical_order(self):
        assert len(JOINT_KEYPOINTS) == 10
        assert JOINT_NAMES == tuple(JOINT_KEYPOINTS) == (
            "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
            "left_hip", "right_hip", "left_knee", "right_knee",
            "left_ankle", "right_ankle")

    def test_left_knee_row(self):
        assert JOINT_KEYPOINTS["left_knee"] == \
            ("left_hip", "left_knee", "left_ankle")

    def test_right_ankle_row(self):
        assert JOINT_KEYPOINTS["right_ankle"] == \
            ("right_knee", "right_ankle", "right_hallux")

    def test_all_rows(self):
        assert JOINT_KEYPOINTS == self.EXPECTED
        assert all(len(set(triple)) == 3 and set(triple) <= set(KEYPOINT_NAMES)
                   for triple in JOINT_KEYPOINTS.values())


def _frame(index, coords, vis=1.0):
    kps = {name: Keypoint(Point2D(*xy), vis if np.isscalar(vis) else vis[name])
           for name, xy in coords.items()}
    return KeypointFrame(frame_index=index, keypoints=kps)


def _right_angle_coords():
    return {"left_hip": (0.0, -50.0), "left_knee": (0.0, 0.0),
            "left_ankle": (50.0, 0.0)}


class TestAngleSeries:
    def test_constant_geometry(self):
        seq = PoseSequence("v", tuple(_frame(i, _right_angle_coords())
                                      for i in range(3)))
        series = angle_series_set(seq, 0.5)["left_knee"]
        assert [s.angle_deg for s in series.samples] == [90.0, 90.0, 90.0]
        assert [s.frame_index for s in series.samples] == [0, 1, 2]

    def test_low_visibility(self):
        coords = _right_angle_coords()
        ok = _frame(0, coords)
        dim = _frame(1, coords, vis={"left_hip": 1.0, "left_knee": 0.1,
                                     "left_ankle": 1.0})
        seq = PoseSequence("v", (ok, dim))
        series = angle_series_set(seq, 0.5)["left_knee"]
        assert series.samples[0].angle_deg == pytest.approx(90.0)
        assert series.samples[1].angle_deg is None
        assert series.samples[1].missing_reason == MISSING_LOW_VISIBILITY

    def test_absent_keypoint(self):
        coords = _right_angle_coords()
        missing = {k: v for k, v in coords.items() if k != "left_ankle"}
        seq = PoseSequence("v", (_frame(0, coords), _frame(1, missing)))
        series = angle_series_set(seq, 0.5)["left_knee"]
        assert series.samples[1].missing_reason == MISSING_ABSENT_KEYPOINT

    def test_ankle_missing_hallux(self):
        coords = {"left_knee": (0.0, -50.0), "left_ankle": (0.0, 0.0)}
        seq = PoseSequence("v", (_frame(0, coords), _frame(1, coords)))
        series = angle_series_set(seq, 0.5)["left_ankle"]
        assert all(s.missing_reason == MISSING_ABSENT_KEYPOINT
                   for s in series.samples)

    def test_degenerate_geometry_becomes_missing(self):
        coords = _right_angle_coords()
        degenerate = dict(coords, left_hip=(0.0, 0.0))  # hip == knee
        seq = PoseSequence("v", (_frame(0, coords), _frame(1, degenerate)))
        series = angle_series_set(seq, 0.5)["left_knee"]
        assert series.samples[1].missing_reason == MISSING_DEGENERATE

    def test_bad_min_visibility(self):
        seq = PoseSequence("v", tuple(_frame(i, _right_angle_coords())
                                      for i in range(2)))
        with pytest.raises(ValueError):
            angle_series_set(seq, 1.5)

    def test_series_set_covers_all_joints(self):
        seq = PoseSequence("v", tuple(_frame(i, _right_angle_coords())
                                      for i in range(2)))
        series = angle_series_set(seq)
        assert set(series) == set(JOINT_NAMES)
        # only the knee triple is present in these frames
        assert series["left_knee"].samples[0].angle_deg is not None
        assert series["right_knee"].samples[0].angle_deg is None


FIXTURES = Path(__file__).parent / "fixtures"


def _reference_samples(seq, joint, min_visibility):
    """The per-frame rule, one sample at a time: (angle or None, reason)."""
    out = []
    for frame in seq.frames:
        kps = [frame.keypoints.get(n) for n in JOINT_KEYPOINTS[joint]]
        if any(kp is None for kp in kps):
            out.append((None, MISSING_ABSENT_KEYPOINT))
        elif any(kp.visibility < min_visibility for kp in kps):
            out.append((None, MISSING_LOW_VISIBILITY))
        else:
            try:
                out.append((joint_angle(kps[0].point, kps[1].point,
                                        kps[2].point), None))
            except DegenerateGeometryError:
                out.append((None, MISSING_DEGENERATE))
    return out


def _assert_columns_match_reference(seq, min_visibility=0.5):
    series = angle_series_set(seq, min_visibility)
    for joint in JOINT_NAMES:
        s = series[joint]
        assert s.frames.tolist() == [f.frame_index for f in seq.frames]
        got = [(a.angle_deg, a.missing_reason) for a in s.samples]
        # exact equality: the column kernel must reproduce joint_angle bit
        # for bit, and every missing reason
        assert got == _reference_samples(seq, joint, min_visibility)
        codes = s.reasons.tolist()
        assert [MISSING_REASONS[c] for c in codes] == [r for _, r in got]
        assert np.array_equal(np.isnan(s.angles), s.reasons != 0)


class TestAngleColumns:
    def test_demo_fixture_matches_joint_angle(self):
        seq = parse_pose_sequence(
            (FIXTURES / "demo.keypoints.jsonl").read_bytes())
        _assert_columns_match_reference(seq)

    def test_missing_reasons_match_per_sample_rule(self):
        rng = np.random.default_rng(15)
        frames = []
        for i in range(300):
            kps = {}
            for name in KEYPOINT_NAMES:
                roll = rng.uniform()
                if roll < 0.05:
                    continue  # absent
                x, y = rng.integers(0, 4, size=2)  # small grid: coincidences
                vis = 0.2 if roll < 0.12 else 0.9
                kps[name] = Keypoint(Point2D(float(x), float(y)), vis)
            frames.append(KeypointFrame(frame_index=3 * i, keypoints=kps))
        seq = PoseSequence("v", tuple(frames))
        reasons = {r for s in angle_series_set(seq).values()
                   for r in s.reasons.tolist()}
        assert reasons == {0, 1, 2, 3}  # every path is exercised
        _assert_columns_match_reference(seq)
        _assert_columns_match_reference(seq, min_visibility=0.0)
