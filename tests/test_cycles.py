import logging

import numpy as np
import pytest

from gaitnorm import (CycleAnnotation, ValidationError, resample_cycle,
                      segment_cycles)
from gaitnorm import cycles as cycles_module, spline
from gaitnorm.cycles import CycleSlice, _phases
from gaitnorm.kinematics import AngleSeries, angle_series_set
from gaitnorm.synth import generate_pose_sequence

from helpers import occluded_walker, reference_phase, reference_resample


def _series(joint, values_by_frame):
    """A series from (frame, angle or None) pairs; None is low visibility."""
    return AngleSeries(
        joint, frames=[f for f, _ in values_by_frame],
        angles=[np.nan if v is None else v for _, v in values_by_frame],
        reasons=[0 if v is not None else 2 for _, v in values_by_frame])


def _constant_series(joint, frames, value=90.0):
    return _series(joint, [(f, value) for f in frames])


def phase_of_frame(ann, frame_index, frame_times=None):
    return float(_phases(ann, np.array([frame_index], dtype=np.int64),
                         frame_times)[0])


class TestPhaseOfFrame:
    def test_start_is_zero(self):
        assert phase_of_frame(CycleAnnotation(100, 150, "typical"), 100) == 0.0

    def test_end_is_hundred(self):
        assert phase_of_frame(CycleAnnotation(100, 150, "typical"), 150) == 100.0

    def test_midpoint(self):
        assert phase_of_frame(CycleAnnotation(100, 150, "typical"), 125) == 50.0

    def test_outside_rejected(self):
        ann = CycleAnnotation(100, 150, "typical")
        with pytest.raises(ValidationError, match=r"^cycle \[100, 150\]: "
                                                  r"frame 99 lies outside"):
            phase_of_frame(ann, 99)
        with pytest.raises(ValidationError, match="frame 151 lies outside"):
            phase_of_frame(ann, 151)

    @pytest.mark.parametrize("time_s", [-0.01, 1.01, float("nan")])
    def test_timed_outside_rejected(self, time_s):
        ann = CycleAnnotation(0, 10, "typical")
        times = {f: 0.1 * f for f in range(11)}
        times[4] = time_s
        with pytest.raises(ValidationError, match=r"^cycle \[0, 10\]: frame 4 "
                                                  r"lies outside the cycle "
                                                  r"\(timed"):
            _phases(ann, np.arange(11), times)

    def test_timestamps_must_increase(self):
        ann = CycleAnnotation(0, 10, "typical")
        for times in ({0: 1.0, 10: 1.0}, {0: 1.0, 10: float("nan")}):
            with pytest.raises(ValidationError, match="do not increase"):
                _phases(ann, np.array([0, 10]), times)

    @pytest.mark.parametrize("frame,time_s,before", [
        (4, 0.2, 3),            # back before the previous frame
        (4, 0.1 * 3, 3),        # level with the previous frame
        (1, 0.0, 0),            # level with the cycle's start
        (9, 1.0, None),         # level with the cycle's end
    ])
    def test_timestamps_must_strictly_increase_inside(self, frame, time_s,
                                                      before):
        ann = CycleAnnotation(0, 10, "typical")
        times = {f: 0.1 * f for f in range(11)}
        times[10] = 1.0
        times[frame] = time_s
        if before is None:  # the end frame is the one not after its neighbour
            frame, before = 10, frame
        message = (rf"^cycle \[0, 10\]: frame {frame} is timed [0-9.e-]+ s, "
                   rf"not after frame {before} \(")
        for frames in (np.arange(11), np.arange(11)[::-1]):
            with pytest.raises(ValidationError, match=message):
                _phases(ann, frames, times)

    def test_strictly_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            start = int(rng.integers(0, 1000))
            end = start + int(rng.integers(2, 200))
            ann = CycleAnnotation(start, end, "typical")
            f1, f2 = sorted(rng.integers(start, end + 1, size=2))
            if f1 == f2:
                continue
            assert phase_of_frame(ann, f1) < phase_of_frame(ann, f2)


class TestSegmentCycles:
    def test_one_annotation_thirty_one_pairs(self):
        frames = range(100, 200)
        series = {"left_knee": _constant_series("left_knee", frames),
                  "left_hip": _constant_series("left_hip", frames, 120.0)}
        ann = CycleAnnotation(110, 140, "typical")
        slices = segment_cycles(series, [ann], video_id="v")
        assert len(slices) == 1
        for joint in series:
            phases, angles = slices[0].columns[joint]
            assert len(phases) == len(angles) == 31
            assert phases[0] == 0.0
            assert phases[-1] == 100.0

    def test_adjacent_cycles_share_boundary_frame(self):
        frames = range(100, 201)
        series = {"left_knee": _constant_series("left_knee", frames)}
        anns = [CycleAnnotation(100, 150, "typical"),
                CycleAnnotation(150, 200, "typical")]
        s1, s2 = segment_cycles(series, anns)
        assert s1.columns["left_knee"][0][-1] == 100.0
        assert s2.columns["left_knee"][0][0] == 0.0
        # same frame 150 feeds both
        assert len(s1.columns["left_knee"][0]) == 51
        assert len(s2.columns["left_knee"][0]) == 51

    def test_annotation_beyond_series_rejected(self):
        series = {"left_knee": _constant_series("left_knee", range(0, 20))}
        with pytest.raises(ValidationError, match="absent from the series"):
            segment_cycles(series, [CycleAnnotation(10, 40, "typical")])

    def test_missing_samples_preserved(self):
        values = [(f, 90.0 if f != 5 else None) for f in range(0, 11)]
        series = {"left_knee": _series("left_knee", values)}
        (s,) = segment_cycles(series, [CycleAnnotation(0, 10, "typical")])
        angles = s.columns["left_knee"][1]
        assert np.isnan(angles[5]) and np.isnan(angles).sum() == 1

    def test_time_based_phases(self):
        frames = list(range(0, 11))
        series = {"left_knee": _constant_series("left_knee", frames)}
        # quadratic timestamps: time-based phase differs from frame-based
        times = {f: 0.1 * f * f for f in frames}
        ann = CycleAnnotation(0, 10, "typical")
        (s,) = segment_cycles(series, [ann], frame_times=times)
        phases = s.columns["left_knee"][0].tolist()
        assert phases[0] == 0.0 and phases[-1] == 100.0
        assert phases[5] == pytest.approx(25.0)  # 2.5 / 10.0 seconds

    def test_time_mode_requires_timestamps(self):
        frames = list(range(0, 11))
        series = {"left_knee": _constant_series("left_knee", frames)}
        times = {f: 0.1 * f for f in frames if f != 5}
        with pytest.raises(ValidationError, match="no timestamp"):
            segment_cycles(series, [CycleAnnotation(0, 10, "typical")],
                           frame_times=times)

    def test_frame_timed_outside_its_cycle_rejected(self):
        # Without the check the phases reach the spline out of order, and
        # the message would name knot abscissae instead of the frame.
        frames = list(range(0, 21))
        series = {"left_knee": _constant_series("left_knee", frames)}
        times = {f: 0.1 * f for f in frames}
        times[15] = 5.0
        anns = [CycleAnnotation(0, 10, "typical"),
                CycleAnnotation(10, 20, "typical")]
        with pytest.raises(ValidationError, match=r"^cycle \[10, 20\]: frame "
                                                  r"15 lies outside"):
            segment_cycles(series, anns, frame_times=times)


class TestSegmentPhases:
    """Array phases against the one-frame-at-a-time mappings, exactly."""

    def _walk(self):
        seq, anns = generate_pose_sequence(n_cycles=5, frames_per_cycle=23,
                                           seed=4)
        return angle_series_set(seq), anns

    def test_frame_phases_equal_phase_of_frame(self):
        series, anns = self._walk()
        slices = segment_cycles(series, anns, video_id="v")
        for ann, s in zip(anns, slices):
            expected = [reference_phase(ann, f)
                        for f in range(ann.start_frame, ann.end_frame + 1)]
            for joint, (phases, angles) in s.columns.items():
                assert phases.tolist() == expected
                lo, hi = ann.start_frame, ann.end_frame + 1
                assert np.array_equal(angles, series[joint].angles[lo:hi])

    def test_time_phases_equal_phase_function(self):
        series, anns = self._walk()
        rng = np.random.default_rng(32)
        n = anns[-1].end_frame + 1
        times = dict(enumerate(np.cumsum(rng.uniform(0.01, 0.05, n)).tolist()))
        slices = segment_cycles(series, anns, frame_times=times)
        for ann, s in zip(anns, slices):
            frames = range(ann.start_frame, ann.end_frame + 1)
            expected = [reference_phase(ann, f, times) for f in frames]
            phases, _ = s.columns["left_knee"]
            assert phases.tolist() == expected
            assert phases.tolist() != [reference_phase(ann, f)
                                       for f in frames]

    def test_series_with_own_frames_cut_separately(self):
        knee = _constant_series("left_knee", range(0, 21))
        hip = _series("left_hip", [(f, 100.0 + f) for f in range(0, 21, 2)])
        (s,) = segment_cycles({"left_knee": knee, "left_hip": hip},
                              [CycleAnnotation(4, 12, "typical")])
        phases, angles = s.columns["left_hip"]
        assert phases.tolist() == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert angles.tolist() == [104.0, 106.0, 108.0, 110.0, 112.0]
        assert len(s.columns["left_knee"][0]) == 9


def _columns(pairs):
    """(phases, angles) columns from (phase, angle or None) pairs."""
    return (np.array([p for p, _ in pairs], dtype=float),
            np.array([np.nan if a is None else a for _, a in pairs],
                     dtype=float))


def _slice(values_by_phase, label="typical", joint="left_knee"):
    ann = CycleAnnotation(0, len(values_by_phase) - 1, label)
    return CycleSlice(ann, video_id="v",
                      columns={joint: _columns(values_by_phase)})


class TestResampleCycle:
    def test_constant_maps_to_constant(self):
        pairs = [(p, 90.0) for p in np.linspace(0, 100, 31)]
        cycle = resample_cycle(_slice(pairs), 101)
        assert cycle.grid_points == 101
        assert cycle.valid["left_knee"]
        np.testing.assert_allclose(cycle.angles["left_knee"], 90.0, atol=1e-12)

    def test_interior_gap_on_linear_data(self):
        phases = np.linspace(0, 100, 21)
        pairs = [(p, 50.0 + 0.3 * p if i != 10 else None)
                 for i, p in enumerate(phases)]
        cycle = resample_cycle(_slice(pairs), 101)
        grid = np.linspace(0, 100, 101)
        np.testing.assert_allclose(cycle.angles["left_knee"], 50.0 + 0.3 * grid,
                                   atol=1e-9)

    def test_too_few_samples_invalidates_joint(self):
        pairs = [(0.0, 90.0), (50.0, 95.0), (100.0, 90.0)]
        ann = CycleAnnotation(0, 100, "typical")
        cycle = resample_cycle(
            CycleSlice(ann, columns={"left_knee": _columns(pairs)}), 101)
        assert not cycle.valid["left_knee"]
        assert np.all(np.isnan(cycle.angles["left_knee"]))

    def test_edge_gap_invalidates_joint(self):
        # first usable sample sits at 2%: too far from the cycle start
        pairs = [(p, 90.0) if p >= 2.0 else (p, None)
                 for p in np.linspace(0, 100, 51)]
        cycle = resample_cycle(_slice(pairs), 101)
        assert not cycle.valid["left_knee"]

    def test_half_percent_edge_tolerance_is_honored(self):
        # knots start at 0.4%: inside the coverage tolerance, so the grid
        # point at 0% takes the first knot's value instead of extrapolating
        pairs = [(0.4, 80.0)] + [(p, 80.0) for p in np.linspace(5, 100, 25)]
        cycle = resample_cycle(_slice(pairs), 101)
        assert cycle.valid["left_knee"]
        assert cycle.angles["left_knee"][0] == pytest.approx(80.0, abs=1e-9)

    def test_output_length_equals_grid_points(self):
        pairs = [(p, 90.0 + 10.0 * np.sin(p / 15.0))
                 for p in np.linspace(0, 100, 41)]
        for grid_points in (11, 101, 201):
            cycle = resample_cycle(_slice(pairs), grid_points)
            assert len(cycle.angles["left_knee"]) == grid_points

    def test_overshoot_clamped_with_warning(self, caplog):
        # violent oscillation near the ceiling forces >1 degree of overshoot
        pairs = [(0.0, 90.0), (10.0, 178.0), (20.0, 2.0), (30.0, 178.0),
                 (40.0, 2.0), (50.0, 178.0), (60.0, 2.0), (70.0, 178.0),
                 (80.0, 2.0), (90.0, 178.0), (100.0, 90.0)]
        with caplog.at_level(logging.WARNING):
            cycle = resample_cycle(_slice(pairs), 101)
        values = cycle.angles["left_knee"]
        assert values.min() >= 0.0 and values.max() <= 180.0
        assert any("clamped" in r.message for r in caplog.records)

    def test_label_and_id_carried(self):
        pairs = [(p, 90.0) for p in np.linspace(0, 100, 11)]
        cycle = resample_cycle(_slice(pairs, label="atypical"), 101)
        assert cycle.label == "atypical"
        assert cycle.cycle_id == "v:0-10"


def _layouts(cycle_slice):
    """Distinct knot layouts among the joints the coverage rule keeps."""
    valid = reference_resample(cycle_slice)[1]
    return {phases[~np.isnan(angles)].tobytes()
            for joint, (phases, angles) in cycle_slice.columns.items()
            if valid[joint]}


class TestResampleAgainstPerJointFits:
    """``resample_cycle`` fits each knot layout once; it must equal one fit
    per joint bit for bit, with the same warnings in the same order."""

    def _check(self, slices, caplog):
        for s in slices:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="gaitnorm.cycles"):
                cycle = resample_cycle(s, 101)
            angles, valid, warnings = reference_resample(s, 101)
            assert cycle.valid == valid
            assert list(cycle.angles) == list(angles)
            for joint in angles:
                assert cycle.angles[joint].tobytes() == \
                    angles[joint].tobytes(), (s.cycle_id, joint)
            assert [r.getMessage() for r in caplog.records] == warnings

    def test_occluded_walker(self, caplog):
        seq, anns = occluded_walker()
        slices = segment_cycles(angle_series_set(seq), anns, video_id="v")
        # the walker reaches several layouts per cycle and invalid joints
        assert max(len(_layouts(s)) for s in slices) >= 3
        assert not all(all(reference_resample(s)[1].values())
                       for s in slices)
        self._check(slices, caplog)

    def test_occluded_walker_jittered_time_phases(self, caplog):
        seq, anns = occluded_walker()
        rng = np.random.default_rng(43)
        times = dict(zip(seq.frame_index.tolist(), np.cumsum(
            rng.uniform(0.02, 0.05, len(seq.frame_index))).tolist()))
        slices = segment_cycles(angle_series_set(seq), anns, video_id="v",
                                frame_times=times)
        self._check(slices, caplog)

    def test_overshoot_warnings_follow_joint_order(self, caplog):
        # Joints a and c share a layout that b does not: the fits run per
        # layout, the warnings still come in joint order.  d has as many
        # knots as b at other phases, so it must not share b's fit.
        spiky = [2.0, 178.0] * 5 + [90.0]
        phases = np.linspace(0.0, 100.0, 11)
        other = np.concatenate((phases[:5], phases[6:]))
        ann = CycleAnnotation(0, 10, "typical")
        columns = {
            "a": (phases, np.array(spiky)),
            "b": (other, np.array(spiky[:5] + spiky[6:])),
            "gap": (phases, np.array([np.nan] + spiky[1:])),
            "c": (phases, 180.0 - np.array(spiky)),
            "flat": (phases, np.full(11, 90.0)),
            "d": (phases, 90.0 + 10.0 * np.sin(phases / 9.0)),
        }
        columns["d"][1][7] = np.nan
        s = CycleSlice(ann, video_id="v", columns=columns)
        self._check([s], caplog)
        assert [r.getMessage().split()[3] for r in caplog.records] == \
            ["a:", "b:", "c:"]

    def test_one_fit_per_layout(self, monkeypatch):
        fits = []

        def counting_fit(knots):
            fits.append(np.shape(knots))
            return spline.fit_natural_cubic(knots)

        monkeypatch.setattr(cycles_module, "fit_natural_cubic", counting_fit)
        clean, anns = generate_pose_sequence(n_cycles=3, seed=4)
        for s in segment_cycles(angle_series_set(clean), anns):
            fits.clear()
            resample_cycle(s)
            assert fits == [(31, 11)]
        seq, anns = occluded_walker()
        for s in segment_cycles(angle_series_set(seq), anns):
            fits.clear()
            resample_cycle(s)
            assert len(fits) == len(_layouts(s))
