"""Clinical joint angles computed per frame from 2D keypoints.

The measure is the unsigned included angle at an axis keypoint between the
rays toward a proximal and a distal keypoint, always in [0, 180] degrees.
It is computed directly in image coordinates from a single lateral view,
with no perspective correction, which mirrors how the angle would be read
off the video by hand.

Ten angles make up the standard set: shoulder, elbow, hip, knee and ankle,
each side.  ``JOINT_NAMES`` fixes their canonical order (proximal to
distal, left before right) used for matrix rows and figure panels.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateGeometryError, ValidationError
from .pose_io import KEYPOINT_NAMES, PoseSequence

# Canonical joint order for matrices and figures.
JOINT_NAMES: Tuple[str, ...] = (
    "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow",
    "left_hip", "right_hip",
    "left_knee", "right_knee",
    "left_ankle", "right_ankle",
)

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
class JointDefinition:
    """Keypoint triple defining one joint angle.

    ``axis`` is the vertex; the angle opens between the rays toward
    ``proximal`` and ``distal``.
    """

    name: str
    proximal: str
    axis: str
    distal: str

    def __post_init__(self):
        if len({self.proximal, self.axis, self.distal}) != 3:
            raise ValidationError(
                f"joint {self.name!r}: proximal/axis/distal keypoints must "
                f"be distinct")


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


def joint_angle(a, b, c) -> float:
    """Included angle at vertex ``b`` between rays b->a and b->c, in degrees.

    Computed as the absolute difference of the two ray headings
    (``atan2``), converted to degrees; results beyond 180 are folded back
    by subtracting from 360 so the value always lands in [0, 180].

    ``a``, ``b``, ``c`` are (x, y) pairs.  Raises
    ``DegenerateGeometryError`` when ``a`` or ``c`` coincides with ``b``.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    if (ax == bx and ay == by) or (cx == bx and cy == by):
        raise DegenerateGeometryError(
            "joint angle undefined: vertex coincides with an endpoint")
    radians = math.atan2(cy - by, cx - bx) - math.atan2(ay - by, ax - bx)
    angle = abs(math.degrees(radians))
    if angle > 180.0:
        angle = 360.0 - angle
    return angle


def standard_joint_set() -> List[JointDefinition]:
    """The ten standard joint definitions, in canonical order.

    Shoulder opens hip-shoulder-elbow, elbow opens shoulder-elbow-wrist,
    hip opens shoulder-hip-knee, knee opens hip-knee-ankle, and ankle
    opens knee-ankle-hallux; each for the left and right side.
    """
    triples = {
        "shoulder": ("hip", "shoulder", "elbow"),
        "elbow": ("shoulder", "elbow", "wrist"),
        "hip": ("shoulder", "hip", "knee"),
        "knee": ("hip", "knee", "ankle"),
        "ankle": ("knee", "ankle", "hallux"),
    }
    out = []
    for kind in ("shoulder", "elbow", "hip", "knee", "ankle"):
        proximal, axis, distal = triples[kind]
        for side in ("left", "right"):
            out.append(JointDefinition(
                name=f"{side}_{kind}",
                proximal=f"{side}_{proximal}",
                axis=f"{side}_{axis}",
                distal=f"{side}_{distal}"))
    # Reorder to canonical (left/right within each kind already adjacent).
    by_name = {j.name: j for j in out}
    return [by_name[n] for n in JOINT_NAMES]


def _angle_columns(seq: PoseSequence, joints: Sequence[JointDefinition],
                  min_visibility: float = DEFAULT_MIN_VISIBILITY,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles of ``joints`` over every frame of ``seq``, column per joint.

    Returns ``(frames, angles, reasons)``: the frame indices, an
    ``(n_frames, len(joints))`` float array of angles in degrees, and a
    parallel uint8 array of missing-reason codes.  A missing sample has a
    NaN angle and a non-zero code.  Failures never abort a column: a frame
    lacking any of the three keypoints is ``absent_keypoint``, one where
    any visibility falls below ``min_visibility`` is ``low_visibility``,
    and coincident keypoints are ``degenerate_geometry``, checked in that
    order.  Each present angle equals ``joint_angle`` on the same points.
    """
    if not 0.0 <= min_visibility <= 1.0:
        raise ValidationError(
            f"min_visibility must be in [0, 1], got {min_visibility}")
    # x, y, visibility per frame and landmark; the last, all-NaN column
    # stands in for a landmark the keypoint format lacks.
    kp = np.concatenate((seq.keypoints,
                         np.full((len(seq.keypoints), 1, 3), np.nan)), axis=1)

    def gather(attr):
        idx = [KEYPOINT_NAMES.index(n) if n in KEYPOINT_NAMES else -1
               for n in (getattr(j, attr) for j in joints)]
        return kp[:, idx, 0], kp[:, idx, 1], kp[:, idx, 2]

    (ax, ay, av), (bx, by, bv), (cx, cy, cv) = (
        gather("proximal"), gather("axis"), gather("distal"))
    absent = np.isnan(av) | np.isnan(bv) | np.isnan(cv)
    low = (av < min_visibility) | (bv < min_visibility) | (cv < min_visibility)
    degenerate = ((ax == bx) & (ay == by)) | ((cx == bx) & (cy == by))
    reasons = np.zeros(absent.shape, dtype=np.uint8)
    reasons[degenerate] = _REASON_CODES[MISSING_DEGENERATE]
    reasons[low] = _REASON_CODES[MISSING_LOW_VISIBILITY]
    reasons[absent] = _REASON_CODES[MISSING_ABSENT_KEYPOINT]

    ok = reasons == 0
    # A ray near the float limit overflows to inf; atan2 still takes it.
    with np.errstate(over="ignore"):
        distal = list(map(math.atan2, (cy - by)[ok].tolist(),
                          (cx - bx)[ok].tolist()))
        proximal = list(map(math.atan2, (ay - by)[ok].tolist(),
                            (ax - bx)[ok].tolist()))
    angle = np.abs(np.degrees(np.array(distal) - np.array(proximal)))
    angles = np.full(absent.shape, np.nan)
    angles[ok] = np.where(angle > 180.0, 360.0 - angle, angle)
    return seq.frame_index, angles, reasons


def angle_series_set(seq: PoseSequence,
                     min_visibility: float = DEFAULT_MIN_VISIBILITY,
                     joints: Optional[List[JointDefinition]] = None,
                     ) -> Dict[str, AngleSeries]:
    """Angle series for every joint of the standard set (or ``joints``),
    each a column of one ``_angle_columns`` call; missing samples carry
    their reason as described there."""
    if joints is None:
        joints = standard_joint_set()
    frames, angles, reasons = _angle_columns(seq, joints, min_visibility)
    return {j.name: AngleSeries(j.name, frames=frames, angles=angles[:, i],
                                reasons=reasons[:, i])
            for i, j in enumerate(joints)}
