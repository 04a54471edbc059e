"""Independent oracles shared by unit and acceptance tests.

These deliberately re-derive results along different routes than the
package (dense linear solves, dot-product trigonometry, one object per
keypoint record, one spline fit per joint, every figure panel formatted
from scratch, one frame at a time for phases and statuses) so agreement
is meaningful.
"""

import logging
import math

import numpy as np

from gaitnorm.cycles import EDGE_COVERAGE_PERCENT, MIN_KNOTS_PER_CYCLE
from gaitnorm.detect import (STATUS_ABNORMAL, STATUS_NORMAL, STATUS_UNKNOWN,
                             DetectionConfig)
from gaitnorm.errors import ValidationError
from gaitnorm.figures import _STYLE, SKELETON_EDGES, _fmt
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.pose_io import (KEYPOINT_NAMES, Keypoint, KeypointFrame, Point2D,
                              PoseSequence, _load_json, _require_int,
                              _require_number)
from gaitnorm.synth import generate_pose_sequence

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


def reference_phase(ann, frame_index, frame_times=None) -> float:
    """Percent position of one frame in cycle ``ann``: linear in frame
    index, or in time with ``frame_times`` (frame index -> seconds)."""
    if frame_times is None:
        if not ann.start_frame <= frame_index <= ann.end_frame:
            raise ValidationError(
                f"frame {frame_index} outside cycle "
                f"[{ann.start_frame}, {ann.end_frame}]")
        span = ann.end_frame - ann.start_frame
        return 100.0 * (frame_index - ann.start_frame) / span
    t0, t1 = frame_times[ann.start_frame], frame_times[ann.end_frame]
    return 100.0 * (frame_times[frame_index] - t0) / (t1 - t0)


def reference_frame_statuses(seq_cycles, frames, grid_points,
                             joint_order=JOINT_NAMES, frame_times=None):
    """(frame, {joint: status}) per frame, one frame at a time: a linear
    scan for the first cycle in (start, end) order that holds the frame,
    then ``round`` of its scalar phase to the nearest grid point."""
    ordered = sorted(seq_cycles, key=lambda p: (p[0].start_frame,
                                                p[0].end_frame))
    out = []
    for f in frames:
        hit = next(((a, fl) for a, fl in ordered
                    if a.start_frame <= f <= a.end_frame), None)
        if hit is None:
            out.append((f, {j: STATUS_UNKNOWN for j in joint_order}))
            continue
        ann, flags = hit
        g = int(round(reference_phase(ann, f, frame_times) / 100.0
                      * (grid_points - 1)))
        out.append((f, {j: STATUS_UNKNOWN if j not in flags else
                        STATUS_ABNORMAL if flags[j][g] else STATUS_NORMAL
                        for j in joint_order}))
    return out


def reference_report(cycle, model, cfg=None, joint_order=JOINT_NAMES):
    """z, flag, severity and flagged fraction per valid joint, and the
    unknown joints, one joint and one grid sample at a time in Python
    floats: ``(angle - mean) / max(std, floor)``, ``|z| > k``,
    ``min(|z|, clip) / clip`` and the count of flags over the grid."""
    cfg = cfg or DetectionConfig()
    out = {"z": {}, "flag": {}, "severity": {}, "flagged_fraction": {}}
    for joint, angles in cycle.angles.items():
        if not cycle.valid.get(joint, False):
            continue
        normals = model.joints[joint]
        z = [(a - m) / max(s, cfg.sigma_floor_deg) for a, m, s in
             zip(angles.tolist(), normals.mean.tolist(), normals.std.tolist())]
        flags = [abs(v) > cfg.k for v in z]
        out["z"][joint] = np.array(z)
        out["flag"][joint] = np.array(flags)
        out["severity"][joint] = np.array(
            [min(abs(v), cfg.severity_clip) / cfg.severity_clip for v in z])
        out["flagged_fraction"][joint] = sum(flags) / len(flags)
    out["unknown_joints"] = [j for j in joint_order if j not in out["z"]]
    return out


def reference_spline_values(knot_x, knot_y, t) -> np.ndarray:
    """One natural cubic spline through (knot_x, knot_y), evaluated at the
    array ``t``: a scalar Thomas sweep over one right-hand side and one
    libm ``pow`` per cube, the arithmetic the batched fit must repeat bit
    for bit."""
    x = np.asarray(knot_x, dtype=float)
    y = np.asarray(knot_y, dtype=float)
    n = len(x)
    m = np.zeros(n)
    if n > 2:
        h = np.diff(x)
        slope = np.diff(y) / h
        sub, sup = h[:-1], h[1:]
        d = 2.0 * (h[:-1] + h[1:])
        r = 6.0 * (slope[1:] - slope[:-1])
        for j in range(1, n - 2):
            w = sub[j] / d[j - 1]
            d[j] -= w * sup[j - 1]
            r[j] -= w * r[j - 1]
        u = np.empty(n - 2)
        u[-1] = r[-1] / d[-1]
        for j in range(n - 4, -1, -1):
            u[j] = (r[j] - sup[j] * u[j + 1]) / d[j]
        m[1:-1] = u
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).ravel()
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
    h = x[i + 1] - x[i]
    left = x[i + 1] - t
    right = t - x[i]
    cube_left = np.array([math.pow(v, 3.0) for v in left.tolist()])
    cube_right = np.array([math.pow(v, 3.0) for v in right.tolist()])
    return (m[i] * cube_left / (6.0 * h) + m[i + 1] * cube_right / (6.0 * h)
            + (y[i] / h - m[i] * h / 6.0) * left
            + (y[i + 1] / h - m[i + 1] * h / 6.0) * right).reshape(shape)


def reference_resample(cycle_slice, grid_points=101):
    """``resample_cycle`` as one spline fit per joint: (angles, valid,
    warning messages), with the package's coverage rule and clamp."""
    grid = np.linspace(0.0, 100.0, grid_points)
    angles, valid, warnings = {}, {}, []
    for joint, (phases, raw) in cycle_slice.columns.items():
        present = ~np.isnan(raw)
        knot_x = phases[present]
        if len(knot_x) < MIN_KNOTS_PER_CYCLE \
                or knot_x[0] > EDGE_COVERAGE_PERCENT \
                or knot_x[-1] < 100.0 - EDGE_COVERAGE_PERCENT:
            angles[joint] = np.full(grid_points, np.nan)
            valid[joint] = False
            continue
        values = reference_spline_values(
            knot_x, raw[present], np.clip(grid, knot_x[0], knot_x[-1]))
        clamped = np.clip(values, 0.0, 180.0)
        worst = float(np.max(np.abs(values - clamped)))
        if worst > 1.0:
            warnings.append(f"cycle {cycle_slice.cycle_id} joint {joint}: "
                            f"clamped spline overshoot of {worst:.2f} deg "
                            f"into [0, 180]")
        angles[joint] = clamped
        valid[joint] = True
    return angles, valid, warnings


def _reference_scales(values_min, values_max, x0, x1, y0, y1, grid_points):
    lo = float(np.floor(values_min)) - 5.0
    hi = float(np.ceil(values_max)) + 5.0
    if hi <= lo:
        hi = lo + 1.0
    xs = x0 + (x1 - x0) * np.arange(grid_points) / (grid_points - 1)

    def sy(v):
        return y1 - (y1 - y0) * (v - lo) / (hi - lo)

    return xs, sy, lo, hi


def _reference_points(xs, ys) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}"
                    for x, y in zip(xs.tolist(), ys.tolist()))


def reference_multi_joint(flags_by_joint, cycle, model, cfg=None,
                          joint_order=JOINT_NAMES):
    """The multi-joint renderer that formats every panel from scratch, one
    value at a time: (svg, sidecar)."""
    cfg = cfg or DetectionConfig()
    n = model.grid_points
    if cycle.grid_points != n:
        raise ValidationError("cycle grid size does not match model")
    panel_w, panel_h, pad, cols = 380.0, 170.0, 16.0, 2
    rows = (len(joint_order) + cols - 1) // cols
    width = cols * panel_w + (cols + 1) * pad
    height = rows * panel_h + (rows + 1) * pad
    body, panels = [], []
    for i, joint in enumerate(joint_order):
        ox = pad + (i % cols) * (panel_w + pad)
        oy = pad + (i // cols) * (panel_h + pad)
        body.append(f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" '
                    f'width="{_fmt(panel_w)}" height="{_fmt(panel_h)}" '
                    f'fill="none" stroke="#999"/>')
        body.append(f'<text x="{_fmt(ox + 6)}" y="{_fmt(oy + 14)}" '
                    f'font-size="11">{joint}</text>')
        if not (joint in model.joints and cycle.valid.get(joint, False)
                and joint in flags_by_joint):
            body.append(f'<text x="{_fmt(ox + panel_w / 2)}" '
                        f'y="{_fmt(oy + panel_h / 2)}" font-size="11" '
                        f'text-anchor="middle" fill="#888">insufficient data'
                        f'</text>')
            panels.append({"joint": joint, "rendered": False})
            continue
        jn = model.joints[joint]
        angles = cycle.angles[joint]
        flags = np.asarray(flags_by_joint[joint], dtype=bool)
        upper, lower = jn.mean + cfg.k * jn.std, jn.mean - cfg.k * jn.std
        x0, x1 = ox + 10.0, ox + panel_w - 10.0
        y0, y1 = oy + 20.0, oy + panel_h - 10.0
        xs, sy, lo, hi = _reference_scales(
            min(float(np.min(lower)), float(np.min(angles))),
            max(float(np.max(upper)), float(np.max(angles))),
            x0, x1, y0, y1, n)
        band = _reference_points(np.concatenate((xs, xs[::-1])),
                                 np.concatenate((sy(upper), sy(lower)[::-1])))
        body.append(f'<polygon class="band" points="{band}"/>')
        body.append(f'<polyline class="mean" '
                    f'points="{_reference_points(xs, sy(jn.mean))}"/>')
        for x, y, f in zip(xs.tolist(), sy(angles).tolist(), flags.tolist()):
            cls = "abnormal" if f else "normal"
            body.append(f'<circle class="{cls}" cx="{_fmt(x)}" '
                        f'cy="{_fmt(y)}" r="2"/>')
        body.append(f'<line class="axis" x1="{_fmt(x0)}" y1="{_fmt(y1)}" '
                    f'x2="{_fmt(x1)}" y2="{_fmt(y1)}"/>')
        body.append(f'<line class="axis" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
                    f'x2="{_fmt(x0)}" y2="{_fmt(y1)}"/>')
        n_abnormal = int(np.count_nonzero(flags))
        panels.append({"joint": joint, "rendered": True,
                       "normal": len(angles) - n_abnormal,
                       "abnormal": n_abnormal})
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
           f'<style>{_STYLE}</style>' + "".join(body) + "</svg>\n")
    sidecar = {"figure_kind": "multi_joint", "grid_points": n, "k": cfg.k,
               "panels": panels}
    return svg, sidecar


def occluded_walker(video_id="occluded-walk"):
    """Six 40-frame cycles; the far-side elbow, wrist, knee and toe drop
    below the visibility threshold in three short runs each, and the toe
    stays hidden for most of the fourth cycle."""
    seq, annotations = generate_pose_sequence(
        n_cycles=6, frames_per_cycle=40, seed=5, video_id=video_id)
    keypoints = seq.keypoints.copy()
    rng = np.random.default_rng(5)
    n = len(seq.frame_index)
    for name in ("right_elbow", "right_wrist", "right_knee", "right_hallux"):
        col = KEYPOINT_NAMES.index(name)
        for _ in range(3):
            start = int(rng.integers(0, n - 12))
            stop = start + int(rng.integers(2, 8))
            keypoints[start:stop, col, 2] = rng.uniform(0.05, 0.45,
                                                        stop - start)
    keypoints[122:160, KEYPOINT_NAMES.index("right_hallux"), 2] = 0.2
    occluded = PoseSequence(video_id, frame_index=seq.frame_index,
                            time_s=seq.time_s, keypoints=keypoints,
                            fps=seq.fps)
    return occluded, annotations
