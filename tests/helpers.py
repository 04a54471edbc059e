"""Independent oracles shared by unit and acceptance tests.

These deliberately re-derive results along different routes than the
package (dense linear solves, dot-product trigonometry, one object per
keypoint record, one spline fit per joint, every figure panel formatted
from scratch, one frame at a time for phases and statuses) so agreement
is meaningful.  Figures are compared as drawings: ``decode_heatmap``,
``decode_dots`` and ``decode_series`` read the cells, dots and band and
mean points back out of a document, and the references compute them one
value at a time.
"""

import functools
import json
import logging
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np

from gaitnorm.cli import main
from gaitnorm.cycles import (EDGE_COVERAGE_PERCENT, MIN_KNOTS_PER_CYCLE,
                             NormalizedCycle)
from gaitnorm.detect import (STATUS_ABNORMAL, STATUS_NORMAL, STATUS_UNKNOWN,
                             DetectionConfig)
from gaitnorm.errors import ValidationError
from gaitnorm.figures import _STYLE, _fmt
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.pose_io import (CYCLE_LABELS, CYCLES_SCHEMA, KEYPOINT_NAMES,
                              Keypoint, KeypointFrame, Point2D, PoseSequence,
                              _float_list, _load_json, _require_int,
                              _require_number, _require_object, save_cycles)
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


def at_thousandths(v: float) -> float:
    """One cycle angle, overlay keypoint or report z value as computed and
    written, in Python floats:
    rounded to 1/1000 half to even, ``-0.0`` made ``0.0``; NaN, infinities
    and |v| >= 2**42, where a float step is 1/1024 or more, are kept."""
    if abs(v) < 2.0 ** 42:  # False for NaN
        return round(v * 1000.0) / 1000.0 + 0.0
    return v


def unrounded(module: str, fn, *args):
    """``fn(*args)`` with ``gaitnorm.<module>.at_precision`` left out, so
    the values it computes come back unrounded."""
    with mock.patch(f"gaitnorm.{module}.at_precision",
                    lambda values, decimals: values):
        return fn(*args)


def assert_rounded(got, exact):
    """Each of the arrays' ``got`` values is its ``exact`` value rounded by
    ``at_thousandths``: unchanged by a second rounding, in [0, 180], and
    within ``thousandths_bound`` of the exact value."""
    for g, e in zip(got.tolist(), exact.tolist(), strict=True):
        assert g == at_thousandths(e) == at_thousandths(g), (g, e)
        assert 0.0 <= g <= 180.0, g
        assert abs(g - e) <= thousandths_bound(e), (g, e)


def thousandths_bound(v) -> float:
    """How far ``at_thousandths`` may move ``v``: half a thousandth, plus
    the float rounding of ``v * 1000`` and of the quotient back, under two
    float steps of ``v`` together (``round(0.40549999999999997, 3)`` is
    0.406, 0.0005 plus 1.008 steps away)."""
    return 0.0005 + 2 * math.ulp(v)


def compact_canonical(data: bytes) -> bytes:
    """``data`` decoded and written again as every ``gaitnorm`` JSON file
    is: sorted keys, no whitespace, one trailing newline."""
    return (json.dumps(json.loads(data), sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def json_structure(text: str) -> str:
    """The characters of JSON ``text`` outside its string literals, read
    one at a time with the escapes followed by hand: brackets, colons,
    commas, numbers and literals, and any whitespace a writer put
    between them."""
    out = []
    in_string = escaped = False
    for ch in text:
        if escaped:
            escaped = False
        elif in_string:
            escaped = ch == "\\"
            in_string = ch != '"'
        elif ch == '"':
            in_string = True
        else:
            out.append(ch)
    return "".join(out)


def same_json(a, b) -> bool:
    """Equal as decoded JSON values: the same types and keys, floats
    equal by ``repr`` (so NaN equals NaN and -0.0 differs from 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


def object_keys(data: bytes) -> list:
    """The keys of every JSON object in ``data``, in the order written."""
    keys = []

    def pairs(items):
        keys.append([k for k, _ in items])
        return dict(items)

    json.loads(data, object_pairs_hook=pairs)
    return keys


def altered_cycle(cycle, cycle_id=None, label=None, invalid=()):
    """``cycle`` under another id or label, with the ``invalid`` joints
    failing their coverage rule (all-NaN angles), as a cycles file can
    hold them."""
    angles = {j: np.full(cycle.grid_points, np.nan) if j in invalid else a
              for j, a in cycle.angles.items()}
    return NormalizedCycle(
        label=label or cycle.label, grid_points=cycle.grid_points,
        angles=angles,
        valid={j: v and j not in invalid for j, v in cycle.valid.items()},
        cycle_id=cycle.cycle_id if cycle_id is None else cycle_id)


def reference_load_cycles(data: bytes) -> list:
    """``load_cycles`` one cycle at a time, as 0.9.0 and earlier loaded a
    cycles file: each cycle checked and built in file order, each angle
    list its own array, so the first invalid value in the file raises.
    Since 0.11.0 a joint's ``valid`` flag must be JSON ``true`` or
    ``false``; any other value, or none, is an error naming the cycle
    index and joint (README, "File formats")."""
    doc = _load_json(data, "cycles file")
    if not isinstance(doc, dict) or doc.get("schema") != CYCLES_SCHEMA:
        raise ValidationError(
            f"schema mismatch: expected {CYCLES_SCHEMA!r}, got "
            f"{doc.get('schema') if isinstance(doc, dict) else None!r}")
    grid_points = _require_int(doc.get("grid_points"), "'grid_points'")
    if grid_points < 2:
        raise ValidationError(f"'grid_points' must be >= 2, got {grid_points}")
    raw = doc.get("cycles")
    if not isinstance(raw, list):
        raise ValidationError("'cycles' must be a list")
    out = []
    for i, entry in enumerate(raw):
        _require_object(entry, f"cycle {i}")
        label = entry.get("label")
        if label not in CYCLE_LABELS:
            raise ValidationError(f"cycle {i}: unknown label {label!r}")
        cycle_id = entry.get("cycle_id")
        if cycle_id is not None and not isinstance(cycle_id, str):
            raise ValidationError(
                f"cycle {i}: cycle_id must be a string or null")
        joints = _require_object(entry.get("joints"), f"cycle {i}: 'joints'")
        angles, valid = {}, {}
        for name, jentry in joints.items():
            _require_object(jentry, f"cycle {i} joint {name!r}")
            flag = jentry.get("valid")
            if flag is not True and flag is not False:
                raise ValidationError(f"cycle {i} joint {name!r}: 'valid' "
                                      f"must be true or false, got {flag!r}")
            valid[name] = flag
            if valid[name]:
                vals = _float_list(jentry.get("angle"),
                                   f"cycle {i} joint {name!r} angle",
                                   grid_points)
                if vals.min() < 0.0 or vals.max() > 180.0:
                    raise ValidationError(
                        f"cycle {i} joint {name!r}: angles must be in "
                        f"[0, 180]")
                angles[name] = vals
            else:
                angles[name] = np.full(grid_points, np.nan)
        out.append(NormalizedCycle(label=label, grid_points=grid_points,
                                   angles=angles, valid=valid,
                                   cycle_id=cycle_id))
    return out


_MARK = "@@gaitnorm-test-mark@@"


def with_raw_json(doc, edits) -> bytes:
    """``doc`` encoded as JSON with the value at each ``(path, token)`` of
    ``edits`` replaced by the raw JSON text ``token`` (``NaN``,
    ``1e400``, ``true``, ...); a path is a sequence of keys and indices."""
    doc = json.loads(json.dumps(doc))
    tokens = []
    for path, token in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = f"{_MARK}{len(tokens)}"
        tokens.append(token)
    text = json.dumps(doc)
    for i, token in enumerate(tokens):
        text = text.replace(f'"{_MARK}{i}"', token)
    return text.encode()


def load_outcome(load, data):
    """``("ok", result)`` or ``("error", message)`` of ``load(data)``."""
    try:
        return "ok", load(data)
    except ValidationError as exc:
        return "error", str(exc)


def build_norm_file(cycles, directory) -> bytes:
    """The model file ``gaitnorm build-norm`` writes for a cycles file
    holding ``cycles`` in the given order, or ``b""`` when it exits 1."""
    cycles_path = directory / "cohort.cycles.json"
    model_path = directory / "cohort.model.json"
    cycles_path.write_bytes(save_cycles(cycles))
    model_path.unlink(missing_ok=True)
    code = main(["build-norm", "--cycles", str(cycles_path),
                 "--out", str(model_path)])
    assert code in (0, 1)
    return model_path.read_bytes() if code == 0 else b""


def reference_overlay_records(frames, statuses) -> list:
    """Overlay records built one ``KeypointFrame`` and one value at a
    time, each frame with its row of ``statuses`` (one status per joint
    of ``JOINT_NAMES``)."""
    records = []
    for frame, row in zip(frames, statuses, strict=True):
        joint_status = dict(zip(JOINT_NAMES, row, strict=True))
        keypoints = {
            name: [at_thousandths(v)
                   for v in (kp.point.x, kp.point.y, kp.visibility)]
            for name, kp in sorted(frame.keypoints.items())
        }
        records.append({
            "frame": frame.frame_index,
            "time_s": frame.time_s,
            "keypoints": keypoints,
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
                             frame_times=None):
    """A list of statuses per frame, one per joint of ``JOINT_NAMES``,
    one frame at a time: a linear scan for the first cycle in (start,
    end) order that holds the frame, then ``round`` of its scalar phase
    to the nearest grid point."""
    ordered = sorted(seq_cycles, key=lambda p: (p[0].start_frame,
                                                p[0].end_frame))
    out = []
    for f in frames:
        hit = next(((a, fl) for a, fl in ordered
                    if a.start_frame <= f <= a.end_frame), None)
        if hit is None:
            out.append([STATUS_UNKNOWN] * len(JOINT_NAMES))
            continue
        ann, flags = hit
        g = int(round(reference_phase(ann, f, frame_times) / 100.0
                      * (grid_points - 1)))
        out.append([STATUS_UNKNOWN if j not in flags else
                    STATUS_ABNORMAL if flags[j][g] else STATUS_NORMAL
                    for j in JOINT_NAMES])
    return out


def reference_report(cycle, model, cfg=None):
    """z, flag and severity per valid joint, and the unknown joints, one
    joint and one grid sample at a time in Python floats:
    ``(angle - mean) / max(std, floor)`` at 1/1000 (``at_thousandths``),
    then ``|z| > k`` and ``min(|z|, clip) / clip``, both of the rounded
    z.  A valid joint the model lacks is unknown, like an invalid one."""
    cfg = cfg or DetectionConfig()
    out = {"z": {}, "flag": {}, "severity": {}}
    for joint, angles in cycle.angles.items():
        if not cycle.valid.get(joint, False) or joint not in model.joints:
            continue
        normals = model.joints[joint]
        z = [at_thousandths((a - m) / max(s, cfg.sigma_floor_deg))
             for a, m, s in zip(angles.tolist(), normals.mean.tolist(),
                                normals.std.tolist())]
        out["z"][joint] = np.array(z)
        out["flag"][joint] = np.array([abs(v) > cfg.k for v in z])
        out["severity"][joint] = np.array(
            [min(abs(v), cfg.severity_clip) / cfg.severity_clip for v in z])
    out["unknown_joints"] = [j for j in JOINT_NAMES if j not in out["z"]]
    return out


def assert_same_judgment(got, want):
    """``got``'s z, flag and severity rows equal ``want``'s bit for bit;
    ``want`` is a ``DeviationReport`` or a ``reference_report`` dict."""
    want = want if isinstance(want, dict) else vars(want)
    for name in ("z", "flag", "severity"):
        rows = getattr(got, name)
        assert sorted(rows) == sorted(want[name])
        for joint, values in want[name].items():
            assert rows[joint].dtype == values.dtype
            assert rows[joint].tobytes() == values.tobytes()


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
    warning messages), with the package's coverage rule and clamp, and
    each clamped value rounded to 1/1000 deg by ``at_thousandths``.  The
    overshoot warning reads the values before rounding."""
    grid = np.linspace(0.0, 100.0, grid_points)
    angles, valid, warnings = {}, {}, []
    for joint, raw in cycle_slice.angles.items():
        present = ~np.isnan(raw)
        knot_x = cycle_slice.phases[present]
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
        angles[joint] = np.array([at_thousandths(v)
                                  for v in clamped.tolist()])
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


def _reference_points(xs, ys) -> list:
    """Each point's ``_fmt`` text, as whole thousandths."""
    return [(int(_fmt(x).replace(".", "")), int(_fmt(y).replace(".", "")))
            for x, y in zip(xs.tolist(), ys.tolist())]


# A band plot's one panel: x from 50 to 620 px, y from 30 to 360 px.
BAND_PLOT_BOX = (50.0, 620.0, 30.0, 360.0)


def reference_panel_series(normals, k, angles, box):
    """{"band": points, "mean": points} of one band panel, as
    ``decode_series`` gives them: the band from the +k SD edge left to
    right and back along the -k SD edge, the y range whole degrees with
    5 of margin around the band and ``angles`` (None: no overlay)."""
    upper = normals.mean + k * normals.std
    lower = normals.mean - k * normals.std
    lows, highs = [float(np.min(lower))], [float(np.max(upper))]
    if angles is not None:
        lows.append(float(np.min(angles)))
        highs.append(float(np.max(angles)))
    xs, sy, _, _ = _reference_scales(min(lows), max(highs), *box,
                                     len(normals.mean))
    return {"band": _reference_points(np.concatenate((xs, xs[::-1])),
                                      np.concatenate((sy(upper),
                                                      sy(lower)[::-1]))),
            "mean": _reference_points(xs, sy(normals.mean))}


def reference_multi_joint(flags_by_joint, cycle, model, cfg=None):
    """The multi-joint renderer that formats every panel from scratch, one
    value at a time: (svg as ``without_geometry`` leaves it, the dots of
    each panel as ``decode_dots`` gives them, the band and mean points
    of each panel as ``decode_series`` gives them, sidecar).  A dot is
    centred at its grid point's x and the cycle's y, each at three
    decimals."""
    cfg = cfg or DetectionConfig()
    n = model.grid_points
    if cycle.grid_points != n:
        raise ValidationError("cycle grid size does not match model")
    panel_w, panel_h, pad, cols = 380.0, 170.0, 16.0, 2
    rows = (len(JOINT_NAMES) + cols - 1) // cols
    width = cols * panel_w + (cols + 1) * pad
    height = rows * panel_h + (rows + 1) * pad
    body, dots, series, panels = [], [], [], []
    for i, joint in enumerate(JOINT_NAMES):
        ox = pad + (i % cols) * (panel_w + pad)
        oy = pad + (i // cols) * (panel_h + pad)
        body.append(f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" '
                    f'width="{_fmt(panel_w)}" height="{_fmt(panel_h)}" '
                    f'fill="none" stroke="#999"/>')
        body.append(f'<text x="{_fmt(ox + 6)}" y="{_fmt(oy + 14)}" '
                    f'font-size="11">{joint}</text>')
        dots.append(set())
        series.append({})
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
        series[-1] = reference_panel_series(jn, cfg.k, angles,
                                            (x0, x1, y0, y1))
        body.append('<path class="band" d=""/><path class="mean" d=""/>')
        for x, y, f in zip(xs.tolist(), sy(angles).tolist(), flags.tolist()):
            dots[-1].add((float(_fmt(x)), float(_fmt(y)),
                          "abnormal" if f else "normal"))
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
    return svg, dots, series, sidecar


# Heatmap geometry: one 8 x 24 cell per (row, col), the first at (110, 20).
HEAT_LEFT, HEAT_TOP, CELL_W, CELL_H = 110.0, 20.0, 8.0, 24.0


def hex_rgb(color: str) -> tuple:
    """(r, g, b) of an SVG hex colour, ``#rrggbb`` or ``#rgb``."""
    m = re.fullmatch(r"#([0-9a-f]{3}|[0-9a-f]{6})", color)
    assert m, f"not a hex colour: {color!r}"
    digits = m.group(1)
    if len(digits) == 3:
        digits = "".join(d * 2 for d in digits)
    return tuple(int(digits[i:i + 2], 16) for i in (0, 2, 4))


@functools.lru_cache(maxsize=1)
def nan_cell_color() -> str:
    """The colour of a NaN heatmap cell, as the README states it."""
    [color] = re.findall(
        r"A NaN cell is drawn in `(#[0-9a-f]{6})`",
        (Path(__file__).resolve().parents[1] / "README.md").read_text())
    return color


def reference_heatmap(severity) -> dict:
    """{(row, col): (r, g, b)} of a severity matrix, one value at a time:
    gray ``round(255 * (1 - clip(s, 0, 1)))``, half to even, or where
    ``s`` is NaN the README's ``nan_cell_color()``."""
    cells, nan = {}, hex_rgb(nan_cell_color())
    for r, row in enumerate(np.asarray(severity, dtype=float).tolist()):
        for c, s in enumerate(row):
            if math.isnan(s):
                cells[r, c] = nan
            else:
                v = round(255.0 * (1.0 - min(max(s, 0.0), 1.0)))
                cells[r, c] = (v, v, v)
    return cells


_SVG = "{http://www.w3.org/2000/svg}"
_NUM = r"(-?\d+(?:\.\d+)?)"
# A number as the figures write cells and dots: at most three decimals,
# no trailing zero, no trailing ".", no "-0".
_SHORT = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d{0,2}[1-9])?")
_CELL_UNITS = re.compile(rf"translate\({_NUM} {_NUM}\) scale\({_NUM} {_NUM}\)")
_UNIT_STROKE = re.compile(rf"M{_NUM} {_NUM}h1")
_DOT_PATH = re.compile(rf"M{_NUM} {_NUM}h0")
_DOT_ELEMENT = re.compile(r'<path class="(?:normal|abnormal)" d="[^"]*"/>')
_SERIES_DATA = re.compile(r'(<path class="(?:band|mean)" d=")[^"]*"')


def _subpaths(pattern, d: str) -> list:
    """The numbers of each subpath of ``d``, which must be ``pattern``
    repeated, every number in the short form."""
    found, pos = [], 0
    for m in pattern.finditer(d):
        assert m.start() == pos, f"unreadable path data at {pos}: {d[:80]!r}"
        for token in m.groups():
            assert _SHORT.fullmatch(token) and token != "-0", token
        found.append(tuple(map(float, m.groups())))
        pos = m.end()
    assert found and pos == len(d), f"unreadable path data: {d[:80]!r}"
    return found


def decode_heatmap(svg: str) -> dict:
    """{(row, col): (r, g, b)} of a heatmap document.  Its cells are the
    unit strokes ``M{x} {y}h1`` of the paths in its one ``<g>``: at the
    default width 1 and butt caps a stroke covers the unit square
    [x, x + 1] x [y - 1/2, y + 1/2], which the group's transform must map
    onto one 8 x 24 pixel cell of the grid.  Every cell is drawn once,
    and outside the group the document draws nothing but text."""
    groups = []
    for el in ET.fromstring(svg):
        tag = el.tag.replace(_SVG, "")
        if tag == "g":
            groups.append(el)
        else:
            assert tag in ("style", "text"), f"{tag} outside the cell group"
    assert len(groups) == 1, f"{len(groups)} cell groups"
    [group] = groups
    assert list(group.attrib) == ["transform"], group.attrib
    m = _CELL_UNITS.fullmatch(group.get("transform"))
    assert m, group.get("transform")
    tx, ty, sx, sy = map(float, m.groups())
    assert (sx, sy) == (CELL_W, CELL_H), (sx, sy)
    cells = {}
    for el in group:
        assert el.tag == _SVG + "path" and len(el) == 0, el.tag
        assert sorted(el.attrib) == ["d", "stroke"], el.attrib
        rgb = hex_rgb(el.get("stroke"))
        for x, y in _subpaths(_UNIT_STROKE, el.get("d")):
            left, top = tx + sx * x, ty + sy * (y - 0.5)
            row, col = (top - HEAT_TOP) / CELL_H, (left - HEAT_LEFT) / CELL_W
            assert row == int(row) >= 0 and col == int(col) >= 0, (x, y)
            assert (int(row), int(col)) not in cells, f"cell {(row, col)} twice"
            cells[int(row), int(col)] = rgb
    return cells


def decode_dots(svg: str) -> list:
    """The dots of each panel of a band plot or multi-joint document, one
    set of (cx, cy, class) per panel: a panel starts at its frame
    ``<rect>`` (a band plot has none and is one panel).  Within a panel
    each class is at most one non-empty path, normal before abnormal, and
    no dot is drawn twice."""
    panels, classes = [], []
    for el in ET.fromstring(svg):
        tag = el.tag.replace(_SVG, "")
        if tag == "rect":
            panels.append(set())
            classes.append([])
        assert tag != "circle", "a dot drawn as a circle"
        cls = el.get("class")
        if tag != "path" or cls not in ("normal", "abnormal"):
            continue
        if not panels:
            panels.append(set())
            classes.append([])
        classes[-1].append(cls)
        assert classes[-1] in (["normal"], ["abnormal"],
                               ["normal", "abnormal"]), classes[-1]
        for cx, cy in _subpaths(_DOT_PATH, el.get("d")):
            assert (cx, cy, cls) not in panels[-1], (cx, cy, cls)
            panels[-1].add((cx, cy, cls))
    return panels


def _thousandths(token: str) -> int:
    """A number in the short form as whole thousandths, read as text."""
    whole, _, frac = token.lstrip("-").partition(".")
    t = int(whole) * 1000 + int(frac.ljust(3, "0"))
    return -t if token.startswith("-") else t


def _path_numbers(text: str) -> list:
    """The numbers of path data ``text`` as whole thousandths: each in the
    short form, separated by one space, or by nothing before a ``-``."""
    tokens = re.findall(r"-?[^ -]+", text)
    assert " ".join(tokens).replace(" -", "-") == text, text[:80]
    for token in tokens:
        assert _SHORT.fullmatch(token) and token != "-0", (token, text[:80])
    return [_thousandths(token) for token in tokens]


def _series_points(d: str, closed: bool) -> list:
    """The absolute points of a band (``closed``) or mean path: ``M`` to
    the first point, then one ``l`` of relative steps, summed here."""
    m = re.fullmatch(r"M([^Ml]+)l([^Mlz]+)" + ("z" if closed else ""), d)
    assert m, f"unreadable path data: {d[:80]!r}"
    start, steps = _path_numbers(m.group(1)), _path_numbers(m.group(2))
    assert len(start) == 2 and len(steps) % 2 == 0, d[:80]
    points = [tuple(start)]
    for dx, dy in zip(steps[::2], steps[1::2]):
        points.append((points[-1][0] + dx, points[-1][1] + dy))
    return points


def decode_series(svg: str) -> list:
    """The band and mean points of each panel of a band plot or
    multi-joint document, in whole thousandths: one {"band": points,
    "mean": points} per panel, a panel starting at its frame ``<rect>``
    (a band plot has none and is one panel; a placeholder panel is
    ``{}``).  A panel draws one band, then one mean line."""
    panels = []
    for el in ET.fromstring(svg):
        tag = el.tag.replace(_SVG, "")
        assert tag not in ("polygon", "polyline"), f"a series drawn as {tag}"
        if tag == "rect":
            panels.append({})
        cls = el.get("class")
        if tag != "path" or cls not in ("band", "mean"):
            continue
        if not panels:
            panels.append({})
        assert list(panels[-1]) == ([] if cls == "band" else ["band"]), cls
        panels[-1][cls] = _series_points(el.get("d"), closed=cls == "band")
    return panels


def without_geometry(svg: str) -> str:
    """``svg`` with its dot paths taken out and its band and mean path
    data left empty: the markup that is compared byte for byte, beside
    the decoded dots and series."""
    return _SERIES_DATA.sub(r'\1"', _DOT_ELEMENT.sub("", svg))


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


def dimmed_walker(n_cycles, frames_per_cycle, dimmed_cycle,
                  video_id="dimmed-walk"):
    """A walker whose every landmark drops below the visibility threshold
    on the frames of ``dimmed_cycle`` but its first and its last two, too
    few knots for any joint: every joint of that cycle is unknown."""
    seq, annotations = generate_pose_sequence(
        n_cycles=n_cycles, frames_per_cycle=frames_per_cycle, seed=7,
        video_id=video_id)
    keypoints = seq.keypoints.copy()
    start = dimmed_cycle * frames_per_cycle
    keypoints[start + 1:start + frames_per_cycle - 1, :, 2] = 0.2
    dimmed = PoseSequence(video_id, frame_index=seq.frame_index,
                          time_s=seq.time_s, keypoints=keypoints, fps=seq.fps)
    return dimmed, annotations


def bent_left_knee(seq, annotations, delta_deg, window=(30.0, 60.0)):
    """A copy of ``seq`` whose left ankle, heel and hallux are rotated
    about the left knee by ``delta_deg``, in the frames at ``window``
    percent of each cycle (by frame index).  Each frame turns in the
    sense that opens its knee angle, so the knee angle changes by
    ``delta_deg`` while the foot keeps its shape and the ankle angle its
    value: a deviation put in the keypoints, at a known joint and phase."""
    keypoints = seq.keypoints.copy()
    col = {name: KEYPOINT_NAMES.index(name) for name in (
        "left_hip", "left_knee", "left_ankle", "left_heel", "left_hallux")}
    for ann in annotations:
        for f in range(ann.start_frame, ann.end_frame + 1):
            phase = 100.0 * (f - ann.start_frame) / (ann.end_frame
                                                     - ann.start_frame)
            if not window[0] <= phase <= window[1]:
                continue
            xy = keypoints[f, :, :2]
            knee = xy[col["left_knee"]].copy()
            thigh = xy[col["left_hip"]] - knee
            shank = xy[col["left_ankle"]] - knee
            # the shank turns away from the thigh: the side it lies on
            opens = math.copysign(1.0, thigh[0] * shank[1] - thigh[1] * shank[0])
            a = math.radians(delta_deg) * opens
            turn = np.array([[math.cos(a), -math.sin(a)],
                             [math.sin(a), math.cos(a)]])
            for name in ("left_ankle", "left_heel", "left_hallux"):
                xy[col[name]] = knee + turn @ (xy[col[name]] - knee)
    return PoseSequence(seq.video_id, frame_index=seq.frame_index,
                        time_s=seq.time_s, keypoints=keypoints, fps=seq.fps)
