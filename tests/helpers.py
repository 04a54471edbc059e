"""Independent oracles shared by unit and acceptance tests.

These deliberately re-derive results along different routes than the
package (dense linear solves, dot-product trigonometry, one object per
keypoint record) so agreement is meaningful.
"""

import logging
import math

import numpy as np

from gaitnorm.detect import STATUS_UNKNOWN
from gaitnorm.errors import ValidationError
from gaitnorm.figures import SKELETON_EDGES
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.pose_io import (KEYPOINT_NAMES, Keypoint, KeypointFrame, Point2D,
                              _load_json, _require_int, _require_number)

logger = logging.getLogger("gaitnorm.pose_io")


def arccos_angle(a, b, c) -> float:
    """Included angle at b via the normalized dot product, in degrees."""
    bax, bay = a[0] - b[0], a[1] - b[1]
    bcx, bcy = c[0] - b[0], c[1] - b[1]
    na = math.hypot(bax, bay)
    nc = math.hypot(bcx, bcy)
    cos_v = (bax * bcx + bay * bcy) / (na * nc)
    return math.degrees(math.acos(min(1.0, max(-1.0, cos_v))))


def dense_natural_spline_m(x, y) -> np.ndarray:
    """Knot second derivatives via a dense solve of the full system.

    Builds the complete n x n natural-spline equations (boundary rows
    pin M[0] = M[n-1] = 0) and solves them with ``np.linalg.solve``,
    independent of any tridiagonal elimination.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    a[0, 0] = 1.0
    a[n - 1, n - 1] = 1.0
    h = np.diff(x)
    for i in range(1, n - 1):
        a[i, i - 1] = h[i - 1]
        a[i, i] = 2.0 * (h[i - 1] + h[i])
        a[i, i + 1] = h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    return np.linalg.solve(a, rhs)


def _segment(spline, i, t):
    x, y, m = spline.x, spline.y, spline.m
    h = x[i + 1] - x[i]
    return x, y, m, h, x[i + 1] - t, t - x[i]


def spline_value_on_segment(spline, i, t) -> float:
    """S(t) evaluated with segment ``i``'s cubic (re-derivation)."""
    x, y, m, h, left, right = _segment(spline, i, t)
    return (m[i] * left ** 3 / (6 * h) + m[i + 1] * right ** 3 / (6 * h)
            + (y[i] / h - m[i] * h / 6) * left
            + (y[i + 1] / h - m[i + 1] * h / 6) * right)


def spline_first_derivative(spline, i, t) -> float:
    x, y, m, h, left, right = _segment(spline, i, t)
    return (-m[i] * left ** 2 / (2 * h) + m[i + 1] * right ** 2 / (2 * h)
            - (y[i] / h - m[i] * h / 6) + (y[i + 1] / h - m[i + 1] * h / 6))


def spline_second_derivative(spline, i, t) -> float:
    x, _, m, h, left, right = _segment(spline, i, t)
    return m[i] * left / h + m[i + 1] * right / h


def random_knots(rng, n) -> list:
    """Strictly increasing x with well-separated spacing, bounded y."""
    gaps = rng.uniform(0.2, 2.0, size=n - 1)
    x = np.concatenate([[rng.uniform(-5, 5)], gaps]).cumsum()
    y = rng.uniform(-50.0, 50.0, size=n)
    return list(zip(x, y))


def reference_frames(data: bytes, strict: bool = False, *,
                     video_id: str = "") -> tuple:
    """The keypoint-file parser one record at a time: every value checked
    on its own, one ``KeypointFrame`` per line, sorted by frame index."""
    frames = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = _load_json(line, "record")
            if not isinstance(record, dict):
                raise ValidationError("malformed record: not a JSON object")
            frames.append(_reference_frame(record, strict))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc

    if len(frames) < 2:
        raise ValidationError(
            f"a pose sequence needs at least 2 frames, got {len(frames)}")
    indices = [f.frame_index for f in frames]
    if len(set(indices)) != len(indices):
        dupes = sorted({i for i in indices if indices.count(i) > 1})
        raise ValidationError(f"duplicate frame index: {dupes[0]}")
    if indices != sorted(indices):
        logger.warning("pose sequence %r: frames arrived out of order; sorted "
                       "by frame index", video_id)
        frames.sort(key=lambda f: f.frame_index)
    return tuple(frames)


def _reference_frame(record: dict, strict: bool) -> KeypointFrame:
    if "frame" not in record:
        raise ValidationError("malformed record: missing 'frame'")
    frame_index = _require_int(record["frame"], "'frame'")
    if frame_index < 0:
        raise ValidationError(f"'frame' must be non-negative, got {frame_index}")

    time_s = None
    if record.get("time_s") is not None:
        time_s = _require_number(record["time_s"], "'time_s'")

    raw_kps = record.get("keypoints")
    if not isinstance(raw_kps, dict):
        raise ValidationError("malformed record: 'keypoints' must be an object")

    keypoints = {}
    for name, entry in raw_kps.items():
        if name not in KEYPOINT_NAMES:
            if strict:
                raise ValidationError(f"unknown keypoint name {name!r}")
            logger.warning("frame %d: skipping unknown keypoint name %r",
                           frame_index, name)
            continue
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValidationError(
                f"keypoint {name!r} must be [x, y, visibility], got {entry!r}")
        x = _require_number(entry[0], f"keypoint {name!r} x")
        y = _require_number(entry[1], f"keypoint {name!r} y")
        vis = _require_number(entry[2], f"keypoint {name!r} visibility")
        if not 0.0 <= vis <= 1.0:
            raise ValidationError(
                f"visibility out of range for {name!r}: {vis} (must be in [0, 1])")
        keypoints[name] = Keypoint(Point2D(x, y), vis)
    return KeypointFrame(frame_index=frame_index, keypoints=keypoints,
                         time_s=time_s)


def reference_overlay_records(frames, statuses,
                              joint_order=JOINT_NAMES) -> list:
    """Overlay records built one ``KeypointFrame`` at a time."""
    by_frame = {s.frame_index: s for s in statuses}
    records = []
    for frame in frames:
        status = by_frame.get(frame.frame_index)
        joint_status = (dict(status.status) if status is not None
                        else {j: STATUS_UNKNOWN for j in joint_order})
        keypoints = {
            name: [kp.point.x, kp.point.y, kp.visibility]
            for name, kp in sorted(frame.keypoints.items())
        }
        edges = [[a, b] for a, b in SKELETON_EDGES
                 if a in frame.keypoints and b in frame.keypoints]
        records.append({
            "frame": frame.frame_index,
            "time_s": frame.time_s,
            "keypoints": keypoints,
            "edges": edges,
            "joint_status": joint_status,
        })
    return records
