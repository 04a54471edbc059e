"""Clinical joint angles computed per frame from 2D keypoints.

The measure is the unsigned included angle at an axis keypoint between the
rays toward a proximal and a distal keypoint, always in [0, 180] degrees.
It is computed directly in image coordinates from a single lateral view,
with no perspective correction, which mirrors how the angle would be read
off the video by hand.

Ten angles make up the standard set: shoulder, elbow, hip, knee and ankle,
each side.  ``JOINT_KEYPOINTS`` defines them in their canonical order
(proximal to distal, left before right) used for matrix rows and figure
panels; ``JOINT_NAMES`` is that order.

Angles are computed a video at a time, indexing the ``(n_frames, 16, 3)``
keypoint array of a ``PoseSequence`` directly.  Every joint's angles come
out as one ``(n_frames, n_joints)`` float array, NaN where a sample is
missing, with a parallel uint8 array of missing-reason codes (indexes
into ``MISSING_REASONS``).  ``AngleSeries`` is one column of those arrays;
its per-sample ``AngleSample`` list is built only when ``samples`` is
read.  The ray headings use ``math.atan2`` one element at a time:
``np.arctan2`` may take a SIMD path (SVML on AVX-512 hosts) that differs
from libm ``atan2`` in the last bit, which would change output bytes.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DegenerateGeometryError, ValidationError
from .pose_io import KEYPOINT_NAMES, PoseSequence

# Keypoints (proximal, axis, distal) of each joint, in the canonical joint
# order for matrices and figures.  The angle opens at ``axis`` between the
# rays toward ``proximal`` and ``distal``.
JOINT_KEYPOINTS: Dict[str, Tuple[str, str, str]] = {
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
JOINT_NAMES: Tuple[str, ...] = tuple(JOINT_KEYPOINTS)
# ``(10, 3)`` keypoint columns of each joint's triple.
_JOINT_COLUMNS = np.array([[KEYPOINT_NAMES.index(n) for n in triple]
                           for triple in JOINT_KEYPOINTS.values()])

MISSING_LOW_VISIBILITY = "low_visibility"
MISSING_ABSENT_KEYPOINT = "absent_keypoint"
MISSING_DEGENERATE = "degenerate_geometry"

# Missing-reason codes: a code indexes this tuple, and code 0 (no reason)
# marks a present sample.
MISSING_REASONS: Tuple[Optional[str], ...] = (
    None, MISSING_ABSENT_KEYPOINT, MISSING_LOW_VISIBILITY, MISSING_DEGENERATE)
_REASON_CODES = {reason: code for code, reason in enumerate(MISSING_REASONS)}

DEFAULT_MIN_VISIBILITY = 0.5


@dataclass(frozen=True)
class AngleSample:
    """Angle at one frame, or a missing marker with its reason."""

    frame_index: int
    angle_deg: Optional[float]
    missing_reason: Optional[str] = None


class AngleSeries:
    """Per-frame angles of one joint as parallel arrays over strictly
    increasing frames.

    ``frames`` holds the frame indices (int64), ``angles`` the angles in
    degrees (NaN where missing) and ``reasons`` the missing-reason codes
    (uint8, indexes into ``MISSING_REASONS``).  Reading ``samples`` builds
    a list of ``AngleSample`` from the arrays.
    """

    def __init__(self, joint: str, *, frames, angles, reasons):
        self.joint = joint
        self.frames = np.asarray(frames, dtype=np.int64)
        self.angles = np.asarray(angles, dtype=float)
        self.reasons = np.asarray(reasons, dtype=np.uint8)

    @property
    def samples(self) -> List[AngleSample]:
        return [AngleSample(f, None if a != a else a, MISSING_REASONS[r])
                for f, a, r in zip(self.frames.tolist(), self.angles.tolist(),
                                   self.reasons.tolist())]


def _rays(points, axis) -> np.ndarray:
    """Rays from ``axis`` to ``points``, x and y on the last axis.  A ray
    with a component past the float limit is taken between the halved
    points instead: ``atan2`` is unchanged under a positive scale and
    halving a normal float is exact, so the ray keeps its direction, and
    a ray that does not overflow keeps every bit."""
    with np.errstate(over="ignore"):
        rays = points - axis
    overflow = np.isinf(rays).any(axis=-1, keepdims=True)
    return np.where(overflow, points / 2 - axis / 2, rays)


def joint_angle(a, b, c) -> float:
    """Included angle at vertex ``b`` between rays b->a and b->c, in degrees.

    Computed as the absolute difference of the two ray headings
    (``atan2``), converted to degrees; results beyond 180 are folded back
    by subtracting from 360 so the value always lands in [0, 180].

    ``a``, ``b``, ``c`` are (x, y) pairs.  Raises
    ``DegenerateGeometryError`` when ``a`` or ``c`` coincides with ``b``.
    """
    a, b, c = np.array((a, b, c), dtype=float)
    if (a == b).all() or (c == b).all():
        raise DegenerateGeometryError(
            "joint angle undefined: vertex coincides with an endpoint")
    (ax, ay), (cx, cy) = _rays(np.array((a, c)), b).tolist()
    radians = math.atan2(cy, cx) - math.atan2(ay, ax)
    angle = abs(math.degrees(radians))
    if angle > 180.0:
        angle = 360.0 - angle
    return angle


def _angle_columns(seq: PoseSequence,
                   min_visibility: float = DEFAULT_MIN_VISIBILITY,
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles of every joint over every frame of ``seq``, column per joint.

    Returns ``(frames, angles, reasons)``: the frame indices, an
    ``(n_frames, 10)`` float array of angles in degrees, and a parallel
    uint8 array of missing-reason codes.  A missing sample has a NaN angle
    and a non-zero code.  Failures never abort a column: a frame lacking
    any of the three keypoints is ``absent_keypoint``, one where any
    visibility falls below ``min_visibility`` is ``low_visibility``, and
    coincident keypoints are ``degenerate_geometry``, checked in that
    order.  Each present angle equals ``joint_angle`` on the same points.
    """
    if not 0.0 <= min_visibility <= 1.0:
        raise ValidationError(
            f"min_visibility must be in [0, 1], got {min_visibility}")
    # x, y, visibility per frame, joint and (proximal, axis, distal).
    kp = seq.keypoints[:, _JOINT_COLUMNS]
    xy, vis = kp[..., :2], kp[..., 2]
    proximal, axis, distal = xy[:, :, 0], xy[:, :, 1], xy[:, :, 2]
    absent = np.isnan(vis).any(axis=2)
    low = (vis < min_visibility).any(axis=2)
    degenerate = (proximal == axis).all(axis=2) | (distal == axis).all(axis=2)
    reasons = np.zeros(absent.shape, dtype=np.uint8)
    reasons[degenerate] = _REASON_CODES[MISSING_DEGENERATE]
    reasons[low] = _REASON_CODES[MISSING_LOW_VISIBILITY]
    reasons[absent] = _REASON_CODES[MISSING_ABSENT_KEYPOINT]

    ok = reasons == 0

    def headings(points):
        rays = _rays(points[ok], axis[ok])
        return np.array(list(map(math.atan2, rays[:, 1].tolist(),
                                 rays[:, 0].tolist())), dtype=float)

    angle = np.abs(np.degrees(headings(distal) - headings(proximal)))
    angles = np.full(absent.shape, np.nan)
    angles[ok] = np.where(angle > 180.0, 360.0 - angle, angle)
    return seq.frame_index, angles, reasons


def angle_series_set(seq: PoseSequence,
                     min_visibility: float = DEFAULT_MIN_VISIBILITY,
                     ) -> Dict[str, AngleSeries]:
    """Angle series for every joint of ``JOINT_KEYPOINTS``, each a column
    of one ``_angle_columns`` call; missing samples carry their reason as
    described there."""
    frames, angles, reasons = _angle_columns(seq, min_visibility)
    return {name: AngleSeries(name, frames=frames, angles=angles[:, i],
                              reasons=reasons[:, i])
            for i, name in enumerate(JOINT_NAMES)}
