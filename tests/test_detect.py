import logging

import numpy as np
import pytest

from gaitnorm import (CycleAnnotation, DetectionConfig, NormalizedCycle,
                      ValidationError, build_report, frame_statuses,
                      judge, load_report, save_report, severity_matrix)
from gaitnorm.detect import (STATUS_ABNORMAL, STATUS_NORMAL, STATUS_UNKNOWN)
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.normative import (JointNormals, NormativeModel,
                                build_normative_model)
from gaitnorm.synth import demo_profiles, generate_cohort

from helpers import reference_frame_statuses, reference_report


def _model(mean=60.0, std=5.0, joints=("left_knee",), grid=5):
    return NormativeModel(
        grid_points=grid, std_kind="sample",
        joints={j: JointNormals(mean=np.full(grid, float(mean)),
                                std=np.full(grid, float(std)), n_cycles=10)
                for j in joints},
        provenance=[f"c{i}" for i in range(10)])


def _cycle(value, joints=("left_knee",), grid=5, label="typical"):
    """A cycle holding ``value`` (a number, or one per grid point) for
    every joint of ``joints``."""
    return NormalizedCycle(
        label=label, grid_points=grid,
        angles={j: np.broadcast_to(np.asarray(value, float), grid).copy()
                for j in joints},
        valid={j: True for j in joints},
        cycle_id="x")


def _knee(cycle, model, cfg=None):
    """The left knee's z-scores, flags and severity from ``build_report``,
    the only place they are computed."""
    report = build_report(cycle, model, cfg)
    return (report.z["left_knee"], report.flag["left_knee"],
            report.severity["left_knee"])


class TestZScores:
    def test_basic_value(self):
        z, _, _ = _knee(_cycle(66.0), _model(60.0, 5.0))
        np.testing.assert_allclose(z, 1.2)

    def test_zero_when_on_mean(self):
        z, _, _ = _knee(_cycle(60.0), _model(60.0, 5.0))
        np.testing.assert_allclose(z, 0.0)

    def test_sigma_floor(self):
        z, _, _ = _knee(_cycle(61.0), _model(60.0, 0.0),
                        DetectionConfig(sigma_floor_deg=0.5))
        np.testing.assert_allclose(z, 2.0)

    def test_signed(self):
        z, _, _ = _knee(_cycle(55.0), _model(60.0, 5.0))
        np.testing.assert_allclose(z, -1.0)

    # A zero SD with no sigma floor, or a subnormal one, used to give
    # reports infinite or NaN z (and NaN read normal).
    @pytest.mark.parametrize("value, floor, z", [
        (66.0, 0.0, "inf"), (54.0, 0.0, "-inf"), (60.0, 0.0, "nan"),
        (61.0, 5e-324, "inf")])
    def test_nonfinite_z_rejected(self, value, floor, z):
        model = _model(60.0, 5.0)
        model.joints["left_knee"].std[2] = 0.0
        with pytest.raises(ValidationError, match=(
                rf"^cycle x: joint 'left_knee' z is {z} at grid point 2 "
                rf"\(angle {value}, mean 60.0, SD after the sigma floor "
                rf"{floor}\); raise the sigma floor$")):
            build_report(_cycle([61.0, 59.0, value, 61.0, 59.0]), model,
                         DetectionConfig(sigma_floor_deg=floor))

    def test_z_rounded_to_a_thousandth_before_flags(self):
        # 65.0025 is 1.0005 SD before rounding, written 1.0 and within
        # the band; 65.0035 is 1.0007, written 1.001 and abnormal
        report = build_report(_cycle([65.0025, 65.0035, 60.0, 55.0, 59.9999]),
                              _model(60.0, 5.0))
        assert report.z["left_knee"].tolist() == [1.0, 1.001, 0.0, -1.0, 0.0]
        assert report.flag["left_knee"].tolist() == [
            False, True, False, False, False]
        assert not np.signbit(report.z["left_knee"][4])  # -0.00002: 0.0

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="grid mismatch"):
            build_report(_cycle(60.0, grid=7), _model())

    def test_joint_absent_from_model_reported_unknown(self, caplog):
        # a valid joint the model cannot score is unknown, with a warning,
        # never dropped and never normal
        cycle = _cycle(60.0, joints=("left_knee", "left_hip"))
        with caplog.at_level(logging.WARNING, logger="gaitnorm.detect"):
            report = build_report(cycle, _model())
        assert set(report.z) == set(report.flag) == set(report.severity) \
            == {"left_knee"}
        assert "left_hip" in report.unknown_joints
        assert "left_knee" not in report.unknown_joints
        assert [r.getMessage() for r in caplog.records] == [
            "cycle x: joint(s) left_hip absent from the model; reporting "
            "them unknown"]

    def test_invalid_joint_skipped(self):
        cycle = _cycle(60.0, joints=("left_knee", "left_hip"))
        cycle.valid["left_hip"] = False
        report = build_report(cycle, _model())
        assert set(report.z) == {"left_knee"}
        assert "left_hip" in report.unknown_joints


class TestFlags:
    def test_above_threshold_flagged(self):
        _, flags, _ = _knee(_cycle(66.0), _model(60.0, 5.0))  # z = 1.2
        assert flags.all()

    def test_below_threshold_not_flagged(self):
        _, flags, _ = _knee(_cycle(64.0), _model(60.0, 5.0))  # z = 0.8
        assert not flags.any()

    def test_exactly_at_threshold_not_flagged(self):
        # a sample exactly at k standard deviations is within the band
        z, flags, _ = _knee(_cycle([65.0, 55.0], grid=2),
                            _model(60.0, 5.0, grid=2))
        assert z.tolist() == [1.0, -1.0]
        assert not flags.any()

    def test_threshold_consistency_property(self):
        rng = np.random.default_rng(41)
        cfg = DetectionConfig(k=1.0, sigma_floor_deg=0.5)
        for _ in range(500):
            angle = rng.uniform(0, 180)
            mean = rng.uniform(0, 180)
            std = rng.uniform(0, 6)
            model = _model(mean, std, grid=1)
            cycle = _cycle(angle, grid=1)
            _, flags, _ = _knee(cycle, model, cfg)
            sigma = max(std, cfg.sigma_floor_deg)
            assert flags[0] == (abs(angle - mean) > cfg.k * sigma)

    def test_monotonicity_property(self):
        rng = np.random.default_rng(42)
        cfg = DetectionConfig()
        mean, std = 90.0, 4.0
        deltas = np.sort(rng.uniform(0, 40, size=30))
        scored = [_knee(_cycle(mean + d, grid=1), _model(mean, std, grid=1),
                        cfg) for d in deltas]
        zs = [abs(z[0]) for z, _, _ in scored]
        sev = [severity[0] for _, _, severity in scored]
        assert all(b >= a for a, b in zip(zs, zs[1:]))
        assert all(b >= a for a, b in zip(sev, sev[1:]))


def _full_report(value=60.0, grid=101, invalid=(), cfg=None):
    """A report over every joint of ``JOINT_NAMES`` against a 60 +/- 5
    degree band, ``invalid`` joints unknown."""
    cycle = _cycle(value, joints=JOINT_NAMES, grid=grid)
    for joint in invalid:
        cycle.valid[joint] = False
        cycle.angles[joint][:] = np.nan
    return build_report(cycle, _model(60.0, 5.0, JOINT_NAMES, grid), cfg)


class TestSeverity:
    def test_zero_z_gives_zero_matrix(self):
        matrix = severity_matrix(_full_report())
        assert matrix.shape == (10, 101)
        np.testing.assert_allclose(matrix, 0.0)

    def test_clip_boundary(self):
        values = np.full(101, 60.0)
        values[7] = 75.0  # z = 3
        matrix = severity_matrix(
            _full_report(values, cfg=DetectionConfig(severity_clip=3.0)))
        row = list(JOINT_NAMES).index("left_knee")
        assert matrix[row, 7] == 1.0

    def test_beyond_clip_saturates(self):
        _, sev = judge(np.array([[9.0]]), DetectionConfig())
        assert sev[0, 0] == 1.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(43)
        z = rng.normal(0, 2, size=(3, 101))
        cfg = DetectionConfig()
        np.testing.assert_array_equal(judge(z, cfg)[1], judge(-z, cfg)[1])

    def test_shape_with_all_joints(self):
        assert severity_matrix(_full_report()).shape == (10, 101)

    def test_missing_joint_yields_nan_row(self):
        matrix = severity_matrix(_full_report(invalid=["left_hip"]))
        row = list(JOINT_NAMES).index("left_hip")
        assert np.all(np.isnan(matrix[row]))
        assert not np.isnan(np.delete(matrix, row, axis=0)).any()
        assert matrix.shape == (10, 101)

    def test_every_joint_unknown_gives_all_nan_rows(self):
        # a cycle with no scored joint still has a full-shape matrix
        report = _full_report(grid=7, invalid=JOINT_NAMES)
        assert report.severity == {}
        matrix = severity_matrix(report)
        assert matrix.shape == (10, 7)
        assert np.isnan(matrix).all()
        assert severity_matrix(report, ["left_knee"]).shape == (1, 7)
        assert severity_matrix(report, []).shape == (0, 7)

    def test_reads_the_reports_severity(self):
        # the matrix is the report's own severity, rows in joint order,
        # not a recomputation from z under some other clip
        values = np.linspace(40.0, 80.0, 101)
        report = _full_report(values, cfg=DetectionConfig(severity_clip=1.5))
        loaded = load_report(save_report(report))
        order = list(reversed(JOINT_NAMES))
        for r in (report, loaded):
            matrix = severity_matrix(r, order)
            for row, joint in zip(matrix, order):
                assert row.tobytes() == report.severity[joint].tobytes()
        assert severity_matrix(report).max() == 1.0  # saturates at 1.5 SD


def _status(pairs, frame, **kwargs):
    """{joint: status} of one frame."""
    (row,) = frame_statuses(pairs, [frame], 101, **kwargs)
    return dict(zip(JOINT_NAMES, row))


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
        status = _status([(ann, flags)], 504)
        assert status["left_knee"] == STATUS_ABNORMAL
        status = _status([(ann, flags)], 496)
        assert status["left_knee"] == STATUS_ABNORMAL  # 49.6 -> 50
        status = _status([(ann, flags)], 514)
        assert status["left_knee"] == STATUS_NORMAL  # 51.4 -> 51

    def test_frame_outside_cycles_unknown(self):
        ann = CycleAnnotation(100, 150, "typical")
        status = _status([(ann, self._flags())], 10)
        assert all(v == STATUS_UNKNOWN for v in status.values())

    def test_flagged_window_maps_to_frames(self):
        ann = CycleAnnotation(0, 100, "typical")
        flags = self._flags(where=range(30, 61))
        statuses = frame_statuses([(ann, flags)], range(0, 101), 101)
        knee = list(JOINT_NAMES).index("left_knee")
        for frame, row in enumerate(statuses):
            expected = STATUS_ABNORMAL if 30 <= frame <= 60 \
                else STATUS_NORMAL
            assert row[knee] == expected

    def test_joint_without_flags_unknown(self):
        ann = CycleAnnotation(0, 100, "typical")
        status = _status([(ann, self._flags())], 50)
        assert status["left_hip"] == STATUS_UNKNOWN

    def test_boundary_frame_belongs_to_earlier_cycle(self):
        a1 = CycleAnnotation(0, 50, "typical")
        a2 = CycleAnnotation(50, 100, "typical")
        f1 = self._flags(where=[100])  # flagged at 100% of first cycle
        f2 = self._flags(where=[])
        status = _status([(a1, f1), (a2, f2)], 50)
        assert status["left_knee"] == STATUS_ABNORMAL

    def test_time_phases_pick_grid_point(self):
        # frame 5 is at 50% by index but 25% by time (quadratic timestamps)
        ann = CycleAnnotation(0, 10, "typical")
        times = {f: 0.1 * f * f for f in range(11)}
        flags = self._flags(where=[25])
        status = _status([(ann, flags)], 5, frame_times=times)
        assert status["left_knee"] == STATUS_ABNORMAL
        status = _status([(ann, flags)], 5)
        assert status["left_knee"] == STATUS_NORMAL

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
        assert got.shape == (len(frames), len(joint_order))
        assert got.dtype == object
        assert got.tolist() == expected

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
        assert report.flag["left_knee"].all()  # |z|=1.2 > 1
        assert "left_hip" in report.unknown_joints
        assert "left_knee" not in report.unknown_joints
        np.testing.assert_allclose(report.severity["left_knee"], 1.2 / 3.0)
        assert report.video_id == "v"
        assert report.grid_points == 4


class TestReportEqualsPerJointReference:
    """``build_report`` scores every joint of a cycle as one array; the
    reference scores one joint and one sample at a time."""

    def _assert_equal(self, cycle, model, cfg):
        report = build_report(cycle, model, cfg)
        expected = reference_report(cycle, model, cfg)
        for field in ("z", "flag", "severity"):
            got = getattr(report, field)
            assert list(got) == list(expected[field])
            for joint, values in expected[field].items():
                assert got[joint].dtype == values.dtype
                assert got[joint].tobytes() == values.tobytes()
        assert report.unknown_joints == expected["unknown_joints"]
        return report

    @pytest.mark.parametrize("cfg", [
        DetectionConfig(), DetectionConfig(2.5, 0.0, 1.5),
        DetectionConfig(0.5, 4.0, 10.0)])
    def test_synthetic_cohort(self, cfg):
        cycles = generate_cohort(demo_profiles(), 60, seed=4)
        model = build_normative_model(cycles[:30], cycles[0].grid_points)
        for cycle in cycles:
            self._assert_equal(cycle, model, cfg)

    def test_floor_exact_threshold_and_invalid_joints(self):
        grid, rng = 101, np.random.default_rng(8)
        cfg = DetectionConfig(k=2.0, sigma_floor_deg=0.5)
        # Whole-degree means and SDs of a few binary fractions, some below
        # the floor, so mean +/- k * max(SD, floor) is exactly k SDs away.
        model = NormativeModel(
            grid_points=grid, std_kind="sample",
            joints={j: JointNormals(
                np.round(rng.uniform(20.0, 160.0, grid)),
                rng.choice([0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0], grid), 12)
                for j in JOINT_NAMES},
            provenance=[])
        angles, valid = {}, {}
        for j, normals in model.joints.items():
            sigma = np.maximum(normals.std, cfg.sigma_floor_deg)
            angles[j] = normals.mean + rng.choice([-1.0, 1.0], grid) * (
                cfg.k * sigma)
            angles[j][::3] += rng.normal(0.0, 3.0, len(angles[j][::3]))
            valid[j] = j not in ("right_elbow", "left_ankle")
            if not valid[j]:
                angles[j][:] = np.nan
        cycle = NormalizedCycle("typical", grid, angles, valid, "c0")
        report = self._assert_equal(cycle, model, cfg)
        z = np.concatenate(list(report.z.values()))
        at_k = np.abs(z) == cfg.k  # exactly at k: within the band
        assert at_k.sum() > 400
        assert not np.concatenate(list(report.flag.values()))[at_k].any()
        assert report.unknown_joints == ["right_elbow", "left_ankle"]

    def test_joints_absent_from_the_model(self, caplog):
        cycles = generate_cohort(demo_profiles(), 12, seed=6)
        model = build_normative_model(cycles[:6], cycles[0].grid_points)
        del model.joints["right_ankle"], model.joints["left_knee"]
        with caplog.at_level(logging.WARNING, logger="gaitnorm.detect"):
            for cycle in cycles[6:]:
                report = self._assert_equal(cycle, model, DetectionConfig())
                assert report.unknown_joints == ["left_knee", "right_ankle"]
        assert len(caplog.records) == 6
        assert "left_knee, right_ankle absent" in caplog.records[0].message
