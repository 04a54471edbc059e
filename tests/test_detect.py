import numpy as np
import pytest

from gaitnorm import (CycleAnnotation, DetectionConfig, NormalizedCycle,
                      ValidationError, build_report, flag_abnormal,
                      frame_statuses, severity_matrix, severity_values,
                      z_scores)
from gaitnorm.detect import (STATUS_ABNORMAL, STATUS_NORMAL, STATUS_UNKNOWN)
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.normative import JointNormals, NormativeModel

from helpers import reference_frame_statuses


def _model(mean=60.0, std=5.0, joints=("left_knee",), grid=5):
    return NormativeModel(
        grid_points=grid, std_kind="sample",
        joints={j: JointNormals(mean=np.full(grid, float(mean)),
                                std=np.full(grid, float(std)), n_cycles=10)
                for j in joints},
        provenance=[f"c{i}" for i in range(10)])


def _cycle(value, joints=("left_knee",), grid=5, label="typical"):
    return NormalizedCycle(
        label=label, grid_points=grid,
        angles={j: np.full(grid, float(value)) for j in joints},
        valid={j: True for j in joints},
        cycle_id="x")


class TestZScores:
    def test_basic_value(self):
        z = z_scores(_cycle(66.0), _model(60.0, 5.0))
        np.testing.assert_allclose(z["left_knee"], 1.2)

    def test_zero_when_on_mean(self):
        z = z_scores(_cycle(60.0), _model(60.0, 5.0))
        np.testing.assert_allclose(z["left_knee"], 0.0)

    def test_sigma_floor(self):
        z = z_scores(_cycle(61.0), _model(60.0, 0.0),
                     DetectionConfig(sigma_floor_deg=0.5))
        np.testing.assert_allclose(z["left_knee"], 2.0)

    def test_signed(self):
        z = z_scores(_cycle(55.0), _model(60.0, 5.0))
        np.testing.assert_allclose(z["left_knee"], -1.0)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="grid mismatch"):
            z_scores(_cycle(60.0, grid=7), _model())

    def test_joint_absent_from_model_rejected(self):
        with pytest.raises(ValidationError, match="absent from model"):
            z_scores(_cycle(60.0, joints=("left_knee", "left_hip")), _model())

    def test_invalid_joint_skipped(self):
        cycle = _cycle(60.0, joints=("left_knee", "left_hip"))
        cycle.valid["left_hip"] = False
        z = z_scores(cycle, _model())
        assert set(z) == {"left_knee"}


class TestFlags:
    def test_above_threshold_flagged(self):
        flags = flag_abnormal({"j": np.array([1.2])}, DetectionConfig())
        assert flags["j"][0]

    def test_below_threshold_not_flagged(self):
        flags = flag_abnormal({"j": np.array([0.8])}, DetectionConfig())
        assert not flags["j"][0]

    def test_exactly_at_threshold_not_flagged(self):
        # a sample exactly at k standard deviations is within the band
        flags = flag_abnormal({"j": np.array([1.0, -1.0])}, DetectionConfig())
        assert not flags["j"].any()

    def test_threshold_consistency_property(self):
        rng = np.random.default_rng(41)
        cfg = DetectionConfig(k=1.0, sigma_floor_deg=0.5)
        for _ in range(500):
            angle = rng.uniform(0, 180)
            mean = rng.uniform(0, 180)
            std = rng.uniform(0, 6)
            model = _model(mean, std, grid=1)
            cycle = _cycle(angle, grid=1)
            z = z_scores(cycle, model, cfg)
            flag = flag_abnormal(z, cfg)["left_knee"][0]
            sigma = max(std, cfg.sigma_floor_deg)
            assert flag == (abs(angle - mean) > cfg.k * sigma)

    def test_monotonicity_property(self):
        rng = np.random.default_rng(42)
        cfg = DetectionConfig()
        mean, std = 90.0, 4.0
        deltas = np.sort(rng.uniform(0, 40, size=30))
        zs = [abs(z_scores(_cycle(mean + d), _model(mean, std), cfg)
                  ["left_knee"][0]) for d in deltas]
        sev = [severity_values(np.array([z]), cfg)[0] for z in zs]
        assert all(b >= a for a, b in zip(zs, zs[1:]))
        assert all(b >= a for a, b in zip(sev, sev[1:]))


class TestSeverity:
    def test_zero_z_gives_zero_matrix(self):
        z = {j: np.zeros(101) for j in JOINT_NAMES}
        matrix = severity_matrix(z)
        assert matrix.shape == (10, 101)
        np.testing.assert_allclose(matrix, 0.0)

    def test_clip_boundary(self):
        z = {j: np.zeros(101) for j in JOINT_NAMES}
        z["left_knee"][7] = 3.0
        matrix = severity_matrix(z, DetectionConfig(severity_clip=3.0))
        row = list(JOINT_NAMES).index("left_knee")
        assert matrix[row, 7] == 1.0

    def test_beyond_clip_saturates(self):
        sev = severity_values(np.array([9.0]), DetectionConfig())
        assert sev[0] == 1.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(43)
        z = rng.normal(0, 2, size=101)
        np.testing.assert_array_equal(severity_values(z), severity_values(-z))

    def test_shape_with_all_joints(self):
        z = {j: np.zeros(101) for j in JOINT_NAMES}
        assert severity_matrix(z).shape == (10, 101)

    def test_missing_joint_yields_nan_row(self):
        z = {j: np.zeros(101) for j in JOINT_NAMES if j != "left_hip"}
        matrix = severity_matrix(z)
        row = list(JOINT_NAMES).index("left_hip")
        assert np.all(np.isnan(matrix[row]))
        assert matrix.shape == (10, 101)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            severity_matrix({})


class TestFrameStatuses:
    def _flags(self, joint="left_knee", grid=101, where=()):
        flags = np.zeros(grid, dtype=bool)
        for g in where:
            flags[g] = True
        return {joint: flags}

    def test_nearest_grid_point(self):
        # cycle of 1000 frames: frame 504 sits at phase 50.4% -> grid 50
        ann = CycleAnnotation(0, 1000, "typical")
        flags = self._flags(where=[50])
        (status,) = frame_statuses([(ann, flags)], [504], 101)
        assert status.status["left_knee"] == STATUS_ABNORMAL
        (status,) = frame_statuses([(ann, flags)], [496], 101)
        assert status.status["left_knee"] == STATUS_ABNORMAL  # 49.6 -> 50
        (status,) = frame_statuses([(ann, flags)], [514], 101)
        assert status.status["left_knee"] == STATUS_NORMAL  # 51.4 -> 51

    def test_frame_outside_cycles_unknown(self):
        ann = CycleAnnotation(100, 150, "typical")
        (status,) = frame_statuses([(ann, self._flags())], [10], 101)
        assert all(v == STATUS_UNKNOWN for v in status.status.values())

    def test_flagged_window_maps_to_frames(self):
        ann = CycleAnnotation(0, 100, "typical")
        flags = self._flags(where=range(30, 61))
        statuses = frame_statuses([(ann, flags)], range(0, 101), 101)
        for s in statuses:
            expected = STATUS_ABNORMAL if 30 <= s.frame_index <= 60 \
                else STATUS_NORMAL
            assert s.status["left_knee"] == expected

    def test_joint_without_flags_unknown(self):
        ann = CycleAnnotation(0, 100, "typical")
        (status,) = frame_statuses([(ann, self._flags())], [50], 101)
        assert status.status["left_hip"] == STATUS_UNKNOWN

    def test_boundary_frame_belongs_to_earlier_cycle(self):
        a1 = CycleAnnotation(0, 50, "typical")
        a2 = CycleAnnotation(50, 100, "typical")
        f1 = self._flags(where=[100])  # flagged at 100% of first cycle
        f2 = self._flags(where=[])
        (status,) = frame_statuses([(a1, f1), (a2, f2)], [50], 101)
        assert status.status["left_knee"] == STATUS_ABNORMAL

    def test_time_phases_pick_grid_point(self):
        # frame 5 is at 50% by index but 25% by time (quadratic timestamps)
        ann = CycleAnnotation(0, 10, "typical")
        times = {f: 0.1 * f * f for f in range(11)}
        flags = self._flags(where=[25])
        (status,) = frame_statuses([(ann, flags)], [5], 101,
                                   frame_times=times)
        assert status.status["left_knee"] == STATUS_ABNORMAL
        (status,) = frame_statuses([(ann, flags)], [5], 101)
        assert status.status["left_knee"] == STATUS_NORMAL

    def _pairs(self, rng, n, joints=("left_knee",)):
        pairs = []
        for _ in range(n):
            start = int(rng.integers(0, 80))
            ann = CycleAnnotation(start, start + int(rng.integers(1, 30)),
                                  "typical")
            pairs.append((ann, {j: rng.uniform(size=101) < 0.3
                                for j in joints}))
        return pairs

    def _check(self, pairs, frames, joint_order=JOINT_NAMES, times=None):
        got = frame_statuses(pairs, frames, 101, joint_order,
                             frame_times=times)
        expected = reference_frame_statuses(pairs, frames, 101, joint_order,
                                            frame_times=times)
        assert [(s.frame_index, s.status) for s in got] == expected
        assert all(type(s.frame_index) is int for s in got)
        assert [list(s.status) for s in got] == [list(joint_order)] * len(got)

    def test_bisection_matches_linear_scan(self):
        # unsorted, overlapping and nested cycles: each frame still takes
        # the first cycle, in start order, that contains it
        rng = np.random.default_rng(41)
        for _ in range(50):
            pairs = self._pairs(rng, int(rng.integers(1, 8)))
            self._check(pairs, range(-2, 115))

    def test_equals_scalar_reference_on_random_inputs(self):
        # Shuffled frames with repeats and frames outside every cycle,
        # adjacent cycles sharing boundaries in shuffled order, joints
        # without flags, and frame or jittered-time phases.
        rng = np.random.default_rng(42)
        joints = list(JOINT_NAMES[:6]) + ["extra"]
        for trial in range(60):
            bounds = np.cumsum(rng.integers(1, 25, int(rng.integers(1, 7))))
            bounds += int(rng.integers(3, 40))
            if rng.uniform() < 0.5:
                bounds = np.concatenate(([bounds[0] - 3], bounds))
            pairs = [(CycleAnnotation(int(a), int(b), "typical"),
                      {j: rng.uniform(size=101) < 0.4
                       for j in rng.permutation(joints)[:4].tolist()})
                     for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
                     if rng.uniform() < 0.85]
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            frames = rng.integers(0, int(bounds[-1]) + 10, 80).tolist()
            times = None
            if trial % 2:
                times = dict(enumerate(np.cumsum(rng.uniform(
                    0.01, 0.05, int(bounds[-1]) + 10)).tolist()))
            self._check(pairs, frames, joints, times)
            self._check(pairs, np.array(frames), joints, times)
        self._check([], [3, 1, 2])
        self._check(self._pairs(rng, 3), [])

    @pytest.mark.parametrize("time_s", [-0.01, 5.0])
    def test_frame_timed_outside_its_cycle_rejected(self, time_s):
        ann = CycleAnnotation(0, 30, "typical")
        times = {f: f / 30 for f in range(31)}
        times[15] = time_s
        with pytest.raises(ValidationError, match=r"^cycle \[0, 30\]: frame "
                                                  r"15 lies outside"):
            frame_statuses([(ann, self._flags())], range(31), 101,
                           frame_times=times)


class TestConfigAndReport:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DetectionConfig(k=0.0)
        with pytest.raises(ValidationError):
            DetectionConfig(sigma_floor_deg=-1.0)
        with pytest.raises(ValidationError):
            DetectionConfig(severity_clip=0.0)

    def test_report_contents(self):
        model = _model(60.0, 5.0, joints=("left_knee", "left_hip"), grid=4)
        cycle = _cycle(66.0, joints=("left_knee", "left_hip"), grid=4)
        cycle.valid["left_hip"] = False
        report = build_report(cycle, model, video_id="v",
                              annotation=CycleAnnotation(0, 30, "typical"))
        assert report.flagged_fraction["left_knee"] == 1.0  # |z|=1.2 > 1
        assert "left_hip" in report.unknown_joints
        assert "left_knee" not in report.unknown_joints
        np.testing.assert_allclose(report.severity["left_knee"], 1.2 / 3.0)
        assert report.video_id == "v"
        assert report.grid_points == 4
