"""Property check: the chunk size never changes a parsed video or the
overlay bytes, and the overlay is ``_dump`` of its records built one
value at a time.

Keypoint lines are parsed, and the overlay document written,
``pose_io.CHUNK_FRAMES`` frames at a time.  Runs only where hypothesis is
installed; ``TestChunks`` in ``test_columnar.py`` covers fixed sizes
without it.
"""

import json
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm import pose_io  # noqa: E402
from gaitnorm.detect import (STATUS_ABNORMAL, STATUS_NORMAL,  # noqa: E402
                             STATUS_UNKNOWN)
from gaitnorm.figures import overlay_chunks  # noqa: E402
from gaitnorm.kinematics import JOINT_NAMES  # noqa: E402
from gaitnorm.pose_io import (KEYPOINT_NAMES, _dump,  # noqa: E402
                              parse_pose_sequence)

from helpers import reference_frames, reference_overlay_records  # noqa: E402

# Negative, huge, subnormal and integer coordinates; the parser refuses
# NaN and infinities.
_coordinates = (st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-2 ** 60, 2 ** 60))
_times = st.none() | st.floats(min_value=0.0, max_value=1e6)
_statuses = st.sampled_from([STATUS_NORMAL, STATUS_ABNORMAL, STATUS_UNKNOWN])


@st.composite
def _videos(draw):
    """(keypoint file bytes, status rows, chunk size from 1 to n + 1)."""
    n = draw(st.integers(2, 12))  # a video needs 2 frames
    frames = draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=n,
                           max_size=n, unique=True))
    lines = []
    for frame in frames:
        present = draw(st.lists(st.booleans(), min_size=len(KEYPOINT_NAMES),
                                max_size=len(KEYPOINT_NAMES)))
        keypoints = {
            name: [draw(_coordinates), draw(_coordinates),
                   draw(st.floats(0.0, 1.0))]
            for name, held in zip(KEYPOINT_NAMES, present) if held}
        record = {"frame": frame, "keypoints": keypoints}
        time_s = draw(_times)
        if time_s is not None:  # untimed: no time_s key at all
            record["time_s"] = time_s
        lines.append(json.dumps(record))
    statuses = np.array(draw(st.lists(
        st.lists(_statuses, min_size=len(JOINT_NAMES),
                 max_size=len(JOINT_NAMES)), min_size=n, max_size=n)),
        dtype=object)
    return ("\n".join(lines) + "\n").encode(), statuses, \
        draw(st.integers(1, n + 1))


def _parse_and_overlay(data, statuses, chunk_frames):
    with mock.patch.object(pose_io, "CHUNK_FRAMES", chunk_frames):
        seq = parse_pose_sequence(data)
        chunks = list(overlay_chunks(seq, statuses))
    return seq, chunks


@hypothesis.settings(deadline=None)
@hypothesis.given(_videos())
def test_chunk_size_changes_no_value_and_no_byte(video):
    data, statuses, size = video
    n = len(statuses)
    whole, [*one_chunk, tail] = _parse_and_overlay(data, statuses, n)
    assert len(one_chunk) == 1
    seq, chunks = _parse_and_overlay(data, statuses, size)
    assert len(chunks) == -(-n // size) + 1
    assert b"".join(chunks) == b"".join(one_chunk) + tail
    # absent landmarks and untimed frames (NaN times) included
    assert b"".join(chunks) == _dump(reference_overlay_records(
        reference_frames(data), statuses))
    assert seq.frame_index.tobytes() == whole.frame_index.tobytes()
    assert seq.time_s.tobytes() == whole.time_s.tobytes()
    assert seq.keypoints.tobytes() == whole.keypoints.tobytes()
