"""Property check of the angle contract: for any keypoints, every angle
``angle_series_set`` returns is in [0, 180] degrees, or missing (NaN)
with the reason the keypoints give, and a present angle equals the
arccos-of-the-dot-product oracle.

Coordinates include coincident points, exactly collinear triples, huge
and subnormal values.  Runs only where hypothesis is installed;
``test_kinematics.py`` and criterion c01 check fixed and random
well-formed triples without it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm.kinematics import (MISSING_ABSENT_KEYPOINT,  # noqa: E402
                                 MISSING_DEGENERATE, MISSING_LOW_VISIBILITY,
                                 MISSING_REASONS, JOINT_KEYPOINTS,
                                 angle_series_set)
from gaitnorm.pose_io import KEYPOINT_NAMES, PoseSequence  # noqa: E402

from helpers import arccos_angle  # noqa: E402

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0,
          1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
_coordinates = (st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from(_EDGES))
_visibility = st.sampled_from([0.0, 0.49, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _points(draw):
    """A pool of 1 to 6 points that landmarks share, so points coincide
    often: free floats, or integer points on one line scaled by a power
    of two, exactly collinear and subnormal, moderate or huge."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(_coordinates, _coordinates),
                             min_size=1, max_size=6))
    bx, by, dx, dy = (draw(st.integers(-50, 50)) for _ in range(4))
    e = draw(st.sampled_from([-1074, -1060, -1022, 0, 900, 960]))
    return [(math.ldexp(bx + k * dx, e), math.ldexp(by + k * dy, e))
            for k in draw(st.lists(st.integers(-5, 5), min_size=1,
                                   max_size=6))]


@st.composite
def _sequences(draw):
    """1 to 3 frames; a landmark is absent (NaN) or at a pool point."""
    n = draw(st.integers(1, 3))
    pool = draw(_points())
    keypoints = np.full((n, len(KEYPOINT_NAMES), 3), np.nan)
    for row in keypoints:
        for landmark in row:
            if draw(st.integers(0, 9)):
                landmark[:] = (*draw(st.sampled_from(pool)),
                               draw(_visibility))
    return PoseSequence("p", frame_index=np.arange(n),
                        time_s=np.full(n, np.nan), keypoints=keypoints)


def _ray(p, b):
    """p - b, taken exactly with ``Fraction`` (so a difference past the
    float limit is no problem) and scaled by a power of two to a longest
    component in [0.5, 2), so the oracle's dot product neither overflows
    nor loses a subnormal ray's direction."""
    d = [Fraction(u) - Fraction(v) for u, v in zip(p[:2], b[:2])]
    longest = max(map(abs, d))
    e = longest.numerator.bit_length() - longest.denominator.bit_length()
    return tuple(float(c / Fraction(2) ** e) for c in d)


@hypothesis.settings(deadline=None)
@hypothesis.given(_sequences(), st.sampled_from([0.0, 0.5, 1.0]))
def test_angles_in_range_or_missing_with_their_reason(seq, min_visibility):
    series = angle_series_set(seq, min_visibility)
    column = {name: i for i, name in enumerate(KEYPOINT_NAMES)}
    for joint, triple in JOINT_KEYPOINTS.items():
        s = series[joint]
        points = seq.keypoints[:, [column[n] for n in triple]].tolist()
        for angle, code, (a, b, c) in zip(s.angles.tolist(),
                                          s.reasons.tolist(), points):
            if math.isnan(a[0]) or math.isnan(b[0]) or math.isnan(c[0]):
                want = MISSING_ABSENT_KEYPOINT
            elif min(a[2], b[2], c[2]) < min_visibility:
                want = MISSING_LOW_VISIBILITY
            elif a[:2] == b[:2] or c[:2] == b[:2]:
                want = MISSING_DEGENERATE
            else:
                want = None
            assert MISSING_REASONS[code] == want, (joint, a, b, c)
            if want is not None:
                assert math.isnan(angle)
                continue
            assert 0.0 <= angle <= 180.0, (joint, angle)
            # 1e-5 degrees: arccos near 0 and 180 keeps only about half
            # the float digits
            assert abs(angle - arccos_angle(_ray(a, b), (0.0, 0.0),
                                            _ray(c, b))) <= 1e-5, \
                (joint, a, b, c)
