"""The columnar keypoint path against the per-record references.

``parse_pose_sequence`` checks a whole video as arrays and the overlay
document is written from those arrays; ``helpers.reference_frames`` and
``helpers.reference_overlay_records`` do the same work one record at a
time.  Values, error messages and output bytes must be equal.
"""

import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from gaitnorm.detect import frame_statuses
from gaitnorm.errors import ValidationError
from gaitnorm import pose_io
from gaitnorm.figures import annotate_frames, overlay_chunks, overlay_json
from gaitnorm.kinematics import JOINT_NAMES, JointDefinition, angle_series
from gaitnorm.pose_io import (KEYPOINT_NAMES, Keypoint, KeypointFrame, Point2D,
                              PoseSequence, _dump, parse_annotation_document,
                              parse_pose_sequence, serialize_pose_sequence)
from gaitnorm.synth import generate_pose_sequence

from helpers import reference_frames, reference_overlay_records

DEMO = Path(__file__).parent / "fixtures" / "demo.keypoints.jsonl"

# Integers a float64 cannot hold exactly, and ones past int64.
BIG_INTS = [2 ** 53 + 1, 2 ** 53 - 1, -(2 ** 53 + 3), 2 ** 63 - 1, 2 ** 63,
            2 ** 63 + 1, -(2 ** 63) - 1, 2 ** 64 + 7, 10 ** 20]


def _exact(frames):
    """Frames as text that tells every float bit pattern apart (-0.0)."""
    return [(f.frame_index, repr(f.time_s),
             sorted((name, repr((kp.point.x, kp.point.y, kp.visibility)))
                    for name, kp in f.keypoints.items()))
            for f in frames]


def _random_keypoint_file(seed, n=80) -> bytes:
    """Out-of-order frames with absent landmarks, unknown names, integer
    and near-2**53 / 2**63 coordinates, and mixed present/absent times."""
    rng = np.random.default_rng(seed)
    indices = rng.permutation(np.concatenate((
        rng.choice(10_000, n - 2, replace=False), [2 ** 62, 2 ** 63 - 1])))
    lines = []
    for frame in indices.tolist():
        kps = {}
        for name in rng.permutation(KEYPOINT_NAMES).tolist():
            if rng.uniform() < 0.2:
                continue  # absent
            kind = rng.integers(4)
            if kind == 0:
                x, y = rng.uniform(-1e3, 1e3, 2).tolist()
            elif kind == 1:
                x, y = rng.integers(-500, 500, 2).tolist()
            elif kind == 2:
                x, y = rng.choice(BIG_INTS, 2).tolist()
            else:
                x, y = rng.choice([-0.0, 5e-324, 1e300, 0.1], 2).tolist()
            vis = [0, 1, float(rng.uniform())][rng.integers(3)]
            kps[name] = [x, y, vis]
        if rng.uniform() < 0.2:
            kps["nose"] = "not checked when skipped"
        record = {"keypoints": kps, "frame": frame}
        roll = rng.uniform()
        if roll < 0.4:
            record["time_s"] = float(rng.uniform(0, 100))
        elif roll < 0.5:
            record["time_s"] = int(rng.integers(100))
        elif roll < 0.6:
            record["time_s"] = None
        lines.append(json.dumps(record))
        if rng.uniform() < 0.1:
            lines.append("   ")
    return ("\n".join(lines) + "\n").encode()


def _occluded_walker(seed):
    """A walker with the far-side arm and toe dimmed in runs of frames,
    some landmarks gone, and some frames without a time."""
    seq, annotations = generate_pose_sequence(n_cycles=3, frames_per_cycle=60,
                                              seed=seed)
    rng = np.random.default_rng(seed)
    frames = []
    for frame in seq.frames:
        kps = dict(frame.keypoints)
        if 40 <= frame.frame_index % 90 < 70:
            for name in ("right_elbow", "right_wrist", "right_hallux"):
                kp = kps[name]
                kps[name] = Keypoint(kp.point, float(rng.uniform(0.05, 0.45)))
        if rng.uniform() < 0.15:
            del kps[rng.choice(sorted(kps))]
        time_s = frame.time_s if rng.uniform() < 0.8 else None
        frames.append(KeypointFrame(frame.frame_index, kps, time_s))
    return PoseSequence(seq.video_id, tuple(frames)), annotations


def _statuses(seq, annotations, seed, phase_times=False):
    rng = np.random.default_rng(seed)
    cycle_flags = [(ann, {j: rng.uniform(size=101) < 0.3
                          for j in JOINT_NAMES[:7]})
                   for ann in annotations[:-1]]
    times = None
    if phase_times:
        timed = ~np.isnan(seq.time_s)
        times = dict(zip(seq.frame_index[timed].tolist(),
                         seq.time_s[timed].tolist()))
    return frame_statuses(cycle_flags, seq.frame_index, 101,
                          frame_times=times)


class TestParseEqualsReference:
    def test_demo_fixture(self):
        data = DEMO.read_bytes()
        seq = parse_pose_sequence(data, video_id="demo")
        expected = reference_frames(data, video_id="demo")
        assert _exact(seq.frames) == _exact(expected)
        assert seq == PoseSequence("demo", expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequence(self, seed, caplog):
        data = _random_keypoint_file(seed)
        with caplog.at_level(logging.WARNING, logger="gaitnorm.pose_io"):
            seq = parse_pose_sequence(data, video_id="v")
            logged = [r.getMessage() for r in caplog.records]
            caplog.clear()
            expected = reference_frames(data, video_id="v")
            assert logged == [r.getMessage() for r in caplog.records]
        assert any("out of order" in m for m in logged)
        assert any("unknown keypoint" in m for m in logged)
        assert _exact(seq.frames) == _exact(expected)
        assert seq == PoseSequence("v", expected)
        assert np.isnan(seq.time_s).any() and not np.isnan(seq.time_s).all()

    def test_serialize_roundtrip_keeps_every_bit(self):
        seq = parse_pose_sequence(_random_keypoint_file(9))
        again = parse_pose_sequence(serialize_pose_sequence(seq))
        assert again.keypoints.tobytes() == seq.keypoints.tobytes()
        assert again.time_s.tobytes() == seq.time_s.tobytes()


GOOD = '{"frame": %d, "keypoints": {"left_knee": [1.0, 2.0, 0.5]}}'

# The second record of a three-record file, as raw JSON text.
MALFORMED = {
    "not-json": "{frame: 1}",
    "not-an-object": "[1, 2]",
    "a-string": '"frame"',
    "deep-nesting": "[" * 100_000,
    "missing-frame": '{"keypoints": {}}',
    "bool-frame": '{"frame": true, "keypoints": {}}',
    "float-frame": '{"frame": 1.0, "keypoints": {}}',
    "string-frame": '{"frame": "1", "keypoints": {}}',
    "negative-frame": '{"frame": -3, "keypoints": {}}',
    "string-time": '{"frame": 1, "time_s": "0.1", "keypoints": {}}',
    "bool-time": '{"frame": 1, "time_s": false, "keypoints": {}}',
    "nan-time": '{"frame": 1, "time_s": NaN, "keypoints": {}}',
    "overflowing-time": '{"frame": 1, "time_s": 1e400, "keypoints": {}}',
    "huge-int-time": '{"frame": 1, "time_s": 1%s, "keypoints": {}}' % ("0" * 400),
    "missing-keypoints": '{"frame": 1}',
    "list-keypoints": '{"frame": 1, "keypoints": []}',
    "entry-number": '{"frame": 1, "keypoints": {"left_knee": 5}}',
    "entry-string": '{"frame": 1, "keypoints": {"left_knee": "abc"}}',
    "entry-object": '{"frame": 1, "keypoints": {"left_knee": {"x": 1}}}',
    "entry-short": '{"frame": 1, "keypoints": {"left_knee": [1, 2]}}',
    "entry-long": '{"frame": 1, "keypoints": {"left_knee": [1, 2, 0, 4]}}',
    "string-x": '{"frame": 1, "keypoints": {"left_knee": ["1", 2, 0.5]}}',
    "bool-y": '{"frame": 1, "keypoints": {"left_knee": [1, true, 0.5]}}',
    "null-visibility": '{"frame": 1, "keypoints": {"left_knee": [1, 2, null]}}',
    "nested-x": '{"frame": 1, "keypoints": {"left_knee": [[1], 2, 0.5]}}',
    "visibility-above-1": '{"frame": 1, "keypoints": {"left_knee": [1, 2, 1.5]}}',
    "visibility-below-0": '{"frame": 1, "keypoints": {"left_knee": [1, 2, -0.1]}}',
    "nan-x": '{"frame": 1, "keypoints": {"left_knee": [NaN, 2, 0.5]}}',
    "infinite-y": '{"frame": 1, "keypoints": {"left_knee": [1, -Infinity, 0.5]}}',
    "huge-int-x": '{"frame": 1, "keypoints": {"left_knee": [1%s, 2, 0.5]}}' % ("0" * 400),
    "second-entry-bad": '{"frame": 1, "keypoints": {"left_hip": [1, 2, 0.5], '
                        '"left_knee": [1, 2, 7]}}',
    "unknown-then-bad": '{"frame": 1, "keypoints": {"nose": [0, 0, 1], '
                        '"left_knee": [1, 2, 7]}}',
}


def _file(*records) -> bytes:
    return ("\n".join(records) + "\n").encode()


def _errors_equal(data, strict=False):
    with pytest.raises(ValidationError) as got:
        parse_pose_sequence(data, strict)
    with pytest.raises(ValidationError) as expected:
        reference_frames(data, strict)
    assert str(got.value) == str(expected.value)
    return str(got.value)


class TestErrorsEqualReference:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("strict", [False, True])
    def test_malformed_record(self, case, strict):
        data = _file(GOOD % 0, "", MALFORMED[case], GOOD % 2)
        assert _errors_equal(data, strict).startswith("line 3: ")

    def test_first_bad_line_wins(self):
        data = _file(GOOD % 0, MALFORMED["visibility-above-1"],
                     MALFORMED["not-json"])
        assert _errors_equal(data).startswith("line 2: visibility")

    def test_unknown_name_strict(self):
        data = _file(GOOD % 0, '{"frame": 1, "keypoints": {"nose": [1, 2, 1]}}')
        assert "unknown keypoint name 'nose'" in _errors_equal(data, True)

    def test_warnings_before_the_error_are_the_same(self, caplog):
        data = _file('{"frame": 0, "keypoints": {"ear": 1}}',
                     MALFORMED["unknown-then-bad"])
        with caplog.at_level(logging.WARNING, logger="gaitnorm.pose_io"):
            with pytest.raises(ValidationError):
                parse_pose_sequence(data)
            logged = [r.getMessage() for r in caplog.records]
            caplog.clear()
            with pytest.raises(ValidationError):
                reference_frames(data)
            assert logged == [r.getMessage() for r in caplog.records]
        assert len(logged) == 2
        _errors_equal(data)

    @pytest.mark.parametrize("data", [
        b"", b"\n  \n", _file(GOOD % 0), _file(GOOD % 4, GOOD % 2, GOOD % 4),
        _file(GOOD % 7, GOOD % 3, GOOD % 3, GOOD % 7)])
    def test_sequence_level(self, data):
        _errors_equal(data)

    def test_frame_past_int64(self):
        data = _file(GOOD % 0, GOOD % 2 ** 63)
        with pytest.raises(ValidationError, match=r"^line 2: 'frame' must "
                                                  r"be below 2\*\*63"):
            parse_pose_sequence(data)


class TestOverlayEqualsReference:
    def _check(self, seq, frames, statuses, joint_order=JOINT_NAMES):
        records = reference_overlay_records(frames, statuses, joint_order)
        assert overlay_json(seq, statuses, joint_order) == _dump(records)
        assert annotate_frames(seq, statuses, joint_order) == records

    def test_demo_fixture(self):
        data = DEMO.read_bytes()
        seq = parse_pose_sequence(data)
        _, annotations = parse_annotation_document(
            (DEMO.parent / "demo.cycles.json").read_bytes())
        assert not np.isnan(seq.time_s).any()
        for phase_times in (False, True):
            statuses = _statuses(seq, annotations, 1, phase_times)
            self._check(seq, reference_frames(data), statuses)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_sequence(self, seed):
        data = _random_keypoint_file(seed)
        seq = parse_pose_sequence(data)
        statuses = _statuses(seq, _occluded_walker(seed)[1], seed)[::2]
        self._check(seq, reference_frames(data), statuses)
        self._check(seq, reference_frames(data), [], ("left_knee", "extra"))

    @pytest.mark.parametrize("seed", range(2))
    def test_occluded_walker(self, seed):
        seq, annotations = _occluded_walker(seed)
        assert (seq.keypoints[..., 2] < 0.5).any()
        assert not seq.present().all()
        data = serialize_pose_sequence(seq)
        parsed = parse_pose_sequence(data)
        statuses = _statuses(parsed, annotations, seed)
        self._check(parsed, reference_frames(data), statuses)

    def test_nonfinite_values_use_json_spelling(self):
        kps = {"left_knee": Keypoint(Point2D(math.nan, 2.0), 1.0),
               "left_hip": Keypoint(Point2D(math.inf, -math.inf), 0.5)}
        frames = (KeypointFrame(0, kps, math.inf), KeypointFrame(1, kps))
        seq = PoseSequence("v", frames)
        text = overlay_json(seq, []).decode()
        assert "NaN" in text and "-Infinity" in text and "nan" not in text
        assert text.encode() == _dump(reference_overlay_records(
            seq.frames, []))

    def test_empty_sequence(self):
        assert overlay_json(PoseSequence("v"), []) == _dump([])


class TestChunks:
    """Keypoint lines are parsed, and the overlay document written,
    ``pose_io.CHUNK_FRAMES`` frames at a time; the results must not
    depend on the chunk size."""

    @staticmethod
    def _sizes(n):
        return [1, 7, n - 1, n, n + 1]

    @pytest.mark.parametrize("seed", range(2))
    def test_overlay_equals_reference_at_every_chunk_size(self, monkeypatch,
                                                          seed):
        seq, annotations = _occluded_walker(seed)
        assert not seq.present().all() and np.isnan(seq.time_s).any()
        statuses = _statuses(seq, annotations, seed)
        assert any(set(s.status.values()) == {"unknown"} for s in statuses)
        expected = _dump(reference_overlay_records(seq.frames, statuses))
        n = len(seq.frame_index)
        for size in self._sizes(n):
            monkeypatch.setattr(pose_io, "CHUNK_FRAMES", size)
            chunks = list(overlay_chunks(seq, statuses))
            assert len(chunks) == -(-n // size) + 1
            assert b"".join(chunks) == expected
            assert overlay_json(seq, statuses) == expected

    @pytest.mark.parametrize("seed", range(2))
    def test_parse_equals_reference_at_every_chunk_size(self, monkeypatch,
                                                        seed, caplog):
        data = _random_keypoint_file(seed)
        with caplog.at_level(logging.WARNING, logger="gaitnorm.pose_io"):
            expected = reference_frames(data)
            warnings = [r.getMessage() for r in caplog.records]
            n = len(expected)
            for size in self._sizes(n):
                monkeypatch.setattr(pose_io, "CHUNK_FRAMES", size)
                caplog.clear()
                seq = parse_pose_sequence(data)
                assert _exact(seq.frames) == _exact(expected)
                assert [r.getMessage() for r in caplog.records] == warnings

    @staticmethod
    def _unknown(frame):
        return ('{"frame": %d, "keypoints": {"nose": [1, 2, 1], '
                '"left_knee": [1.0, 2.0, 0.5], "ear": [0, 0, 0]}}' % frame)

    def _parse_logged(self, data):
        """(error or None, warnings) of one parse."""
        handler = logging.Handler()
        handler.emit = lambda record: logged.append(record.getMessage())
        logged = []
        logger = logging.getLogger("gaitnorm.pose_io")
        logger.addHandler(handler)
        try:
            parse_pose_sequence(data)
            return None, logged
        except ValidationError as exc:
            return str(exc), logged
        finally:
            logger.removeHandler(handler)

    def test_bad_record_in_a_later_chunk(self, monkeypatch):
        data = _file(*[self._unknown(f) for f in range(5)],
                     MALFORMED["unknown-then-bad"].replace("1", "5", 1),
                     GOOD % 9)
        whole = self._parse_logged(data)
        assert whole[0] == ("line 6: visibility out of range for "
                            "'left_knee': 7.0 (must be in [0, 1])")
        assert len(whole[1]) == len(set(whole[1])) == 11
        for size in (2, 3, 5):  # the bad record in the second or third
            monkeypatch.setattr(pose_io, "CHUNK_FRAMES", size)
            assert self._parse_logged(data) == whole

    def test_warnings_keep_frame_order_across_chunks(self, monkeypatch):
        data = _file(*[self._unknown(f) if f % 3 else GOOD % f
                       for f in range(12)])
        monkeypatch.setattr(pose_io, "CHUNK_FRAMES", 4)
        error, logged = self._parse_logged(data)
        assert error is None
        assert logged == [f"frame {f}: skipping unknown keypoint name {n!r}"
                          for f in range(12) if f % 3
                          for n in ("nose", "ear")]


class TestPoseSequence:
    def test_frames_roundtrip_through_arrays(self):
        frames = reference_frames(_random_keypoint_file(5))
        seq = PoseSequence("v", frames, 25.0)
        assert seq.fps == 25.0
        assert _exact(seq.frames) == _exact(frames)
        assert seq.keypoints.shape == (len(frames), len(KEYPOINT_NAMES), 3)
        assert seq.frame_index.tolist() == [f.frame_index for f in frames]

    def test_equality_treats_nan_as_equal(self):
        frames = reference_frames(_random_keypoint_file(6))
        assert np.isnan(PoseSequence("v", frames).keypoints).any()
        assert PoseSequence("v", frames) == PoseSequence("v", frames)
        assert PoseSequence("v", frames) != PoseSequence("w", frames)
        assert PoseSequence("v", frames) != PoseSequence("v", frames[1:])

    def test_unknown_landmark_rejected(self):
        frame = KeypointFrame(0, {"nose": Keypoint(Point2D(1.0, 2.0), 1.0)})
        with pytest.raises(ValidationError, match="unknown keypoint name"):
            PoseSequence("v", (frame,))


def test_joint_on_a_landmark_the_format_lacks_is_absent():
    seq = parse_pose_sequence(DEMO.read_bytes())
    joint = JointDefinition("left_nose", "left_hip", "left_knee", "nose")
    series = angle_series(seq, joint)
    assert series.reasons.tolist() == [1] * len(seq.frame_index)
    assert np.isnan(series.angles).all()
