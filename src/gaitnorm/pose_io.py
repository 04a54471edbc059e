"""Read, validate and persist the package's external data formats.

Six file families are handled here:

* keypoint sequences -- line-delimited JSON, one frame per line, so long
  videos can be streamed with bounded memory
* cycle annotations -- one JSON document per video
* per-joint angle series -- ``gaitnorm-angles/1``, write-only (the
  ``angles`` output; nothing reads it back)
* normalized-cycle cohorts -- ``gaitnorm-cycles/1``
* normative models -- ``gaitnorm/1``
* deviation reports -- ``gaitnorm-report/2``, one document per analyzed
  cycle, holding z per scored joint and the config that decides the rest

Keypoint and annotation files are inputs; their serializers write test
and benchmark inputs.  Joint profiles (``synth --profiles``) are
read-only, parsed by ``synth.profiles_from_json``.

Parsing is pure and deterministic: the same bytes always produce the same
structures, and parsed values are never mutated afterwards, so they are
safe to share across threads.  Serializers emit floats at full precision
(``repr`` round-trip) with sorted keys, so ``load(save(x))`` reproduces
``x`` exactly and equal inputs produce byte-identical files.  Three values
are written at a stated precision: cycle angles (1/1000 deg), report z
(1/1000 SD) and overlay keypoints (1/1000 px).  ``at_precision`` rounds
each where it is computed (``cycles``, ``synth``, ``detect``), before any
use, so ``save_cycles`` and ``save_report`` write what they get in full.

A keypoint sequence is held as arrays, not one object per sample: a
``PoseSequence`` carries ``frame_index`` ``(n,)``, ``time_s`` ``(n,)`` and
``keypoints`` ``(n, 16, 3)``, NaN where a time or a landmark is absent.
``parse_pose_sequence`` decodes the lines ``CHUNK_FRAMES`` at a time and
checks the numbers of each chunk as one array; it re-checks record by
record only to name the first invalid value and its line.
``PoseSequence.frames`` builds the per-frame ``KeypointFrame`` objects on
demand.

Every JSON document is written by ``_dump``: compact canonical JSON,
``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"``, one
call of the standard library's C encoder with no whitespace outside
strings.  Files written indented before 0.9.0 decode to the same objects.
Loaders decode through ``_load_json`` and check each list of numbers as
one array.
"""

import json
import logging
from dataclasses import dataclass, fields
from itertools import chain, compress
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError

logger = logging.getLogger(__name__)

# The closed set of landmark names accepted in keypoint files: eight
# bilateral landmark kinds.  "hallux" maps to the pose model's foot-index
# landmark (tip of the big toe).
KEYPOINT_NAMES: Tuple[str, ...] = (
    "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow",
    "left_wrist", "right_wrist",
    "left_hip", "right_hip",
    "left_knee", "right_knee",
    "left_ankle", "right_ankle",
    "left_heel", "right_heel",
    "left_hallux", "right_hallux",
)
_KEYPOINT_COLUMN = {name: i for i, name in enumerate(KEYPOINT_NAMES)}

CYCLE_LABELS: Tuple[str, ...] = ("typical", "atypical")

# How a cycle's phase grid maps to frames: linear in frame index, or in
# the frames' ``time_s``.
PHASE_SOURCES: Tuple[str, ...] = ("frames", "time")

# Frames per chunk wherever a whole video's records are handled a piece at
# a time: keypoint lines decoded and checked here, overlay records written
# by ``figures.overlay_chunks``.  Large enough that each chunk's array
# operations and ``%`` formatting amortize their per-call cost, small
# enough that a chunk's JSON objects and strings stay a few MB whatever
# the length of the video.  The bytes do not depend on it.
CHUNK_FRAMES = 512

# Decimals of the three values written at a stated precision rather than
# in full (see ``at_precision``): overlay keypoints at 1/1000 px, far below
# the noise of any 2D pose estimator; report z at 1/1000 SD, a step of
# 0.0005 deg of joint angle where the SD sits at the default 0.5 deg
# sigma floor and 0.005 deg at an SD of 5 deg; cycle angles at 1/1000 deg,
# 500 times finer than that floor.
OVERLAY_DECIMALS = 3
REPORT_Z_DECIMALS = 3
CYCLE_ANGLE_DECIMALS = 3
# From 2**42 up a float64 step is 1/1024 or more, so a thousandth is no
# finer than the float grid: rounding there could only move a value (by
# up to 0.5 below 2**52), never shorten it, and ``np.round`` would
# overflow near the float64 maximum.
_UNROUNDED = 2.0 ** 42

NORM_MODEL_SCHEMA = "gaitnorm/1"
CYCLES_SCHEMA = "gaitnorm-cycles/1"
ANGLES_SCHEMA = "gaitnorm-angles/1"
REPORT_SCHEMA = "gaitnorm-report/2"


class Point2D(NamedTuple):
    """Pixel position in image coordinates (origin top-left, y down)."""

    x: float
    y: float


class Keypoint(NamedTuple):
    """One detected landmark: position plus visibility in [0, 1]."""

    point: Point2D
    visibility: float


@dataclass(frozen=True)
class KeypointFrame:
    """Landmarks detected in a single video frame.

    Missing landmarks are absent from ``keypoints`` rather than stored as
    zero coordinates: (0, 0) is a valid pixel.
    """

    frame_index: int
    keypoints: Dict[str, Keypoint]
    time_s: Optional[float] = None


class PoseSequence:
    """Keypoints of one video as arrays over frames sorted by strictly
    increasing index.

    ``frame_index`` is int64 with shape ``(n,)``; ``time_s`` is float with
    shape ``(n,)``, NaN where a frame has no time; ``keypoints`` is float
    with shape ``(n, 16, 3)``: x, y and visibility per landmark in
    ``KEYPOINT_NAMES`` order, NaN where a landmark is absent.

    ``PoseSequence(video_id, frames, fps)`` builds the arrays from
    ``KeypointFrame`` objects, and reading ``frames`` builds those objects
    from the arrays.  Equality compares contents, NaN equal to NaN.
    """

    def __init__(self, video_id: str, frames: Sequence[KeypointFrame] = (),
                 fps: Optional[float] = None, *, frame_index=None,
                 time_s=None, keypoints=None):
        if frame_index is None:
            keypoints = np.full((len(frames), len(KEYPOINT_NAMES), 3), np.nan)
            for row, frame in zip(keypoints, frames):
                for name, ((x, y), vis) in frame.keypoints.items():
                    if name not in _KEYPOINT_COLUMN:
                        raise ValidationError(
                            f"unknown keypoint name {name!r}")
                    row[_KEYPOINT_COLUMN[name]] = (x, y, vis)
            frame_index = [f.frame_index for f in frames]
            time_s = [np.nan if f.time_s is None else f.time_s for f in frames]
        self.video_id = video_id
        self.fps = fps
        self.frame_index = np.asarray(frame_index, dtype=np.int64)
        self.time_s = np.asarray(time_s, dtype=float)
        self.keypoints = np.asarray(keypoints, dtype=float).reshape(
            len(self.frame_index), len(KEYPOINT_NAMES), 3)

    def present(self) -> np.ndarray:
        """``(n, 16)`` bool: which landmarks each frame holds."""
        return ~np.isnan(self.keypoints).all(axis=2)

    @property
    def frames(self) -> Tuple[KeypointFrame, ...]:
        return tuple(
            KeypointFrame(f, {name: Keypoint(Point2D(x, y), vis)
                              for name, held, (x, y, vis)
                              in zip(KEYPOINT_NAMES, present, row) if held},
                          None if t != t else t)
            for f, t, present, row in zip(
                self.frame_index.tolist(), self.time_s.tolist(),
                self.present().tolist(), self.keypoints.tolist()))

    def __eq__(self, other):
        if not isinstance(other, PoseSequence):
            return NotImplemented
        return (self.video_id == other.video_id and self.fps == other.fps
                and np.array_equal(self.frame_index, other.frame_index)
                and np.array_equal(self.time_s, other.time_s, equal_nan=True)
                and np.array_equal(self.keypoints, other.keypoints,
                                   equal_nan=True))

    def __repr__(self):
        return (f"PoseSequence(video_id={self.video_id!r}, "
                f"n_frames={len(self.frame_index)}, fps={self.fps!r})")


@dataclass(frozen=True)
class CycleAnnotation:
    """One gait cycle: left initial heel strike to the next one.

    ``start_frame`` and ``end_frame`` are both heel-strike frames, so
    adjacent cycles share their boundary frame.
    """

    start_frame: int
    end_frame: int
    label: str

    def __post_init__(self):
        if self.end_frame <= self.start_frame:
            raise ValidationError(
                f"cycle end_frame must exceed start_frame "
                f"(got [{self.start_frame}, {self.end_frame}])")
        if self.start_frame < 0:
            raise ValidationError("cycle start_frame must be non-negative")
        if self.end_frame >= 2 ** 63:  # frame indices are int64
            raise ValidationError("cycle end_frame must be below 2**63")
        if self.label not in CYCLE_LABELS:
            raise ValidationError(
                f"unknown cycle label {self.label!r}; expected one of {CYCLE_LABELS}")


def _load_json(data: bytes, what: str):
    """Decode one JSON document; any malformed input is a ValidationError
    naming ``what``, integers past the interpreter's digit limit and
    nesting past its recursion limit included."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ValidationError(f"{what} must be finite, got an integer too "
                              f"large for a float") from None
    if not np.isfinite(v):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return v


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def parse_pose_sequence(data: bytes, strict: bool = False, *,
                        video_id: str = "") -> PoseSequence:
    """Parse a line-delimited keypoint file into a ``PoseSequence``.

    Each non-blank line is one JSON object::

        {"frame": 17, "time_s": 0.567,
         "keypoints": {"left_knee": [412.0, 615.5, 0.97], ...}}

    ``frame`` is required and non-negative, ``time_s`` is optional, and
    every keypoint entry is ``[x, y, visibility]`` with finite pixel
    coordinates and visibility in [0, 1].  Unknown landmark names are an
    error in ``strict`` mode and are skipped with a warning otherwise.
    Frames arriving out of order are sorted (with a warning); duplicate
    frame indices are rejected.

    Lines are decoded ``CHUNK_FRAMES`` at a time, and the numbers of each
    chunk are checked at once, as one array.  Only when that check fails
    are the records checked one by one, from the first line, which names
    the first bad value and its line.  Unknown-name warnings are logged
    once every chunk has passed, in line order.

    The line format carries no video identity, so callers supply
    ``video_id``; the sequence's ``fps`` is None.
    """
    lines = [(lineno, line) for lineno, raw
             in enumerate(data.splitlines(), start=1) if (line := raw.strip())]
    chunks, skipped = [], []
    # An empty file is one empty chunk.
    for start in range(0, len(lines), CHUNK_FRAMES) or [0]:
        columns = _columns([line for _, line in
                            lines[start:start + CHUNK_FRAMES]], strict)
        if columns is None:
            _raise_first_error(lines, strict)
        chunks.append(columns[:3])
        skipped += columns[3]
    for frame, name in skipped:
        logger.warning("frame %d: skipping unknown keypoint name %r",
                       frame, name)
    frame_index, time_s, keypoints = map(np.concatenate, zip(*chunks))

    if len(frame_index) < 2:
        raise ValidationError(
            f"a pose sequence needs at least 2 frames, got {len(frame_index)}")
    indices, counts = np.unique(frame_index, return_counts=True)
    if (counts > 1).any():
        raise ValidationError(
            f"duplicate frame index: {indices[counts > 1][0]}")
    if (np.diff(frame_index) < 0).any():
        logger.warning("pose sequence %r: frames arrived out of order; sorted "
                       "by frame index", video_id)
        order = np.argsort(frame_index)
        frame_index, time_s, keypoints = (
            frame_index[order], time_s[order], keypoints[order])
    return PoseSequence(video_id, frame_index=frame_index, time_s=time_s,
                        keypoints=keypoints)


def _raise_first_error(lines: List[Tuple[int, bytes]], strict: bool):
    """Check (line number, line) records one by one and raise the first
    invalid value's error, naming its line."""
    for lineno, line in lines:
        try:
            record = _load_json(line, "record")
            if not isinstance(record, dict):
                raise ValidationError("malformed record: not a JSON object")
            _check_record(record, strict)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    raise AssertionError("the array check rejected valid records")


def _columns(lines: List[bytes], strict: bool):
    """``(frame_index, time_s, keypoints, skipped)`` of the records on
    ``lines``, or None when any record is invalid: three arrays, and the
    (frame, name) pairs of unknown landmark names, in line order, that
    the caller warns about.

    The checks run over all ``lines`` at once: exact types per list (so
    bool, an int subclass, is rejected), one float64 array of every
    number, one ``isfinite`` and one visibility range comparison.
    """
    try:
        records = list(map(json.loads, lines))
    except (ValueError, RecursionError):
        return None
    if not {dict}.issuperset(map(type, records)):
        return None
    frames = [r.get("frame") for r in records]
    times = [r.get("time_s") for r in records]
    docs = [r.get("keypoints") for r in records]
    if not ({int}.issuperset(map(type, frames))
            and {dict}.issuperset(map(type, docs))):
        return None
    # Landmark column per key, by each distinct key layout of a record.
    layouts = list(map(tuple, docs))
    column = {layout: [_KEYPOINT_COLUMN.get(n, -1) for n in layout]
              for layout in set(layouts)}
    entries = list(chain.from_iterable(map(dict.values, docs)))
    cols = np.fromiter(chain.from_iterable(map(column.__getitem__, layouts)),
                       dtype=np.intp, count=len(entries))
    rows = np.repeat(np.arange(len(docs)), list(map(len, layouts)))
    known = cols >= 0
    if not known.all():
        if strict:
            return None
        entries = list(compress(entries, known.tolist()))
        rows, cols = rows[known], cols[known]
    if not ({list}.issuperset(map(type, entries))
            and {3}.issuperset(map(len, entries))):
        return None
    timed = [t is not None for t in times]
    numbers = list(chain(chain.from_iterable(entries), compress(times, timed)))
    if not _JSON_NUMBERS.issuperset(map(type, numbers)):
        return None
    try:
        frame_index = np.array(frames, dtype=np.int64)
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an int too large for an int64 or a float
        return None
    xyv = values[:3 * len(entries)].reshape(-1, 3)
    if not (np.isfinite(values).all() and (frame_index >= 0).all()
            and ((xyv[:, 2] >= 0.0) & (xyv[:, 2] <= 1.0)).all()):
        return None

    skipped = [] if known.all() else [
        (frame, name) for frame, layout in zip(frames, layouts)
        for name, col in zip(layout, column[layout]) if col < 0]
    keypoints = np.full((len(docs), len(KEYPOINT_NAMES), 3), np.nan)
    keypoints[rows, cols] = xyv
    time_s = np.full(len(docs), np.nan)
    time_s[timed] = values[3 * len(entries):]
    return frame_index, time_s, keypoints, skipped


def _check_record(record: dict, strict: bool) -> None:
    """Check one keypoint record, raising on its first invalid value."""
    if "frame" not in record:
        raise ValidationError("malformed record: missing 'frame'")
    frame_index = _require_int(record["frame"], "'frame'")
    if frame_index < 0:
        raise ValidationError(f"'frame' must be non-negative, got {frame_index}")
    if frame_index >= 2 ** 63:
        raise ValidationError(
            f"'frame' must be below 2**63, got {frame_index}")
    if record.get("time_s") is not None:
        _require_number(record["time_s"], "'time_s'")

    raw_kps = record.get("keypoints")
    if not isinstance(raw_kps, dict):
        raise ValidationError("malformed record: 'keypoints' must be an object")
    for name, entry in raw_kps.items():
        if name not in _KEYPOINT_COLUMN:
            if strict:
                raise ValidationError(f"unknown keypoint name {name!r}")
            logger.warning("frame %d: skipping unknown keypoint name %r",
                           frame_index, name)
            continue
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValidationError(
                f"keypoint {name!r} must be [x, y, visibility], got {entry!r}")
        _require_number(entry[0], f"keypoint {name!r} x")
        _require_number(entry[1], f"keypoint {name!r} y")
        vis = _require_number(entry[2], f"keypoint {name!r} visibility")
        if not 0.0 <= vis <= 1.0:
            raise ValidationError(
                f"visibility out of range for {name!r}: {vis} (must be in [0, 1])")


def serialize_pose_sequence(seq: PoseSequence) -> bytes:
    """Inverse of ``parse_pose_sequence`` (minus video_id/fps, which the
    line format does not carry)."""
    lines = []
    for f, t, present, row in zip(
            seq.frame_index.tolist(), seq.time_s.tolist(),
            seq.present().tolist(), seq.keypoints.tolist()):
        record = {"frame": f, "keypoints": dict(
            compress(zip(KEYPOINT_NAMES, row), present))}
        if t == t:  # not NaN: the frame has a time
            record["time_s"] = t
        lines.append(json.dumps(record, sort_keys=True))
    return ("\n".join(lines) + "\n").encode()


def parse_annotation_document(data: bytes) -> Tuple[str, List[CycleAnnotation]]:
    """Parse a cycle annotation file, returning (video_id, cycles), the
    cycles sorted by (start_frame, end_frame) whatever their order in the
    file, so that per-cycle output names follow frame order.

    Expected document::

        {"video_id": "walk01",
         "cycles": [{"start_frame": 10, "end_frame": 40, "label": "typical"}]}

    Cycles may touch at a shared boundary frame (the heel strike that ends
    one cycle starts the next) but must not otherwise overlap.
    """
    doc = _load_json(data, "annotation document")
    if not isinstance(doc, dict) or not isinstance(doc.get("cycles"), list):
        raise ValidationError("annotation document must contain a 'cycles' list")
    video_id = doc.get("video_id", "")
    if not isinstance(video_id, str):
        raise ValidationError("'video_id' must be a string")

    cycles: List[CycleAnnotation] = []
    for i, entry in enumerate(doc["cycles"]):
        if not isinstance(entry, dict):
            raise ValidationError(f"cycle {i}: must be an object")
        start = _require_int(entry.get("start_frame"), f"cycle {i} start_frame")
        end = _require_int(entry.get("end_frame"), f"cycle {i} end_frame")
        label = entry.get("label")
        if not isinstance(label, str):
            raise ValidationError(f"cycle {i}: 'label' must be a string")
        cycles.append(CycleAnnotation(start_frame=start, end_frame=end, label=label))

    ordered = sorted(cycles, key=lambda c: (c.start_frame, c.end_frame))
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.start_frame < prev.end_frame:
            raise ValidationError(
                f"cycles [{prev.start_frame}, {prev.end_frame}] and "
                f"[{nxt.start_frame}, {nxt.end_frame}] overlap beyond a "
                f"shared boundary frame")
    return video_id, ordered


def serialize_annotations(video_id: str, cycles: List[CycleAnnotation]) -> bytes:
    doc = {
        "video_id": video_id,
        "cycles": [
            {"start_frame": c.start_frame, "end_frame": c.end_frame,
             "label": c.label}
            for c in cycles
        ],
    }
    return _dump(doc)


_JSON_NUMBERS = frozenset((int, float))

# Canonical compact JSON text: sorted keys, no whitespace, ``repr`` floats.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _dump(doc) -> bytes:
    return (_json(doc) + "\n").encode()


def at_precision(values: np.ndarray, decimals: int) -> np.ndarray:
    """``values`` rounded to ``decimals`` (3 or fewer) places, half to even,
    with ``-0.0`` made ``0.0``.  NaN, infinities and |v| >= 2**42 are kept
    as they are.  Every value moves by less than one unit of the last
    place: at most half a unit plus the float rounding of
    ``v * 10**decimals`` and of the quotient back, under two float steps
    of ``v`` together."""
    small = np.abs(values) < _UNROUNDED
    rounded = np.round(np.where(small, values, 0.0), decimals) + 0.0
    return np.where(small, rounded, values)


def _floats(values) -> List[float]:
    return np.asarray(values, dtype=float).tolist()


def _float_list(values, what: str, n: int) -> np.ndarray:
    if not isinstance(values, list) or len(values) != n:
        raise ValidationError(f"{what}: expected an array of length {n}")
    # Exact types, so bool (an int subclass) is still rejected.
    if _JSON_NUMBERS.issuperset(map(type, values)):
        try:
            arr = np.array(values, dtype=float)
            if np.isfinite(arr).all():
                return arr
        except OverflowError:  # an int too large for a float
            pass
    # Per value, to name the first offending one.
    return np.array([_require_number(v, what) for v in values], dtype=float)


def _require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object")
    return value


def save_norm_model(model) -> bytes:
    """Serialize a ``NormativeModel`` to the ``gaitnorm/1`` JSON schema.

    Floats keep full precision so ``load_norm_model`` reproduces the model
    exactly, field for field.
    """
    joints = {}
    for name, jn in model.joints.items():
        joints[name] = {
            "mean": _floats(jn.mean),
            "std": _floats(jn.std),
            "n_cycles": int(jn.n_cycles),
        }
    doc = {
        "schema": NORM_MODEL_SCHEMA,
        "grid_points": int(model.grid_points),
        "std_kind": model.std_kind,
        "joints": joints,
        "provenance": list(model.provenance),
    }
    return _dump(doc)


def load_norm_model(data: bytes):
    """Parse and validate a ``gaitnorm/1`` normative model file."""
    from .normative import STD_KINDS, JointNormals, NormativeModel  # deferred: avoids import cycle

    doc = _load_json(data, "model file")
    if not isinstance(doc, dict):
        raise ValidationError("model file must be a JSON object")
    if doc.get("schema") != NORM_MODEL_SCHEMA:
        raise ValidationError(
            f"schema mismatch: expected {NORM_MODEL_SCHEMA!r}, "
            f"got {doc.get('schema')!r}")
    grid_points = _require_int(doc.get("grid_points"), "'grid_points'")
    if grid_points < 2:
        raise ValidationError(f"'grid_points' must be >= 2, got {grid_points}")
    std_kind = doc.get("std_kind")
    if std_kind not in STD_KINDS:
        raise ValidationError(f"unknown std_kind {std_kind!r}")
    raw_joints = _require_object(doc.get("joints"), "'joints'")

    joints = {}
    for name, entry in raw_joints.items():
        _require_object(entry, f"joint {name!r}")
        mean = _float_list(entry.get("mean"), f"joint {name!r} mean", grid_points)
        std = _float_list(entry.get("std"), f"joint {name!r} std", grid_points)
        n_cycles = _require_int(entry.get("n_cycles"), f"joint {name!r} n_cycles")
        if n_cycles < 1:
            raise ValidationError(f"joint {name!r}: n_cycles must be >= 1")
        if std.min() < 0.0:
            raise ValidationError(f"joint {name!r}: std values must be >= 0")
        if mean.min() < 0.0 or mean.max() > 180.0:
            raise ValidationError(f"joint {name!r}: mean values must be in [0, 180]")
        joints[name] = JointNormals(mean=mean, std=std, n_cycles=n_cycles)

    provenance = doc.get("provenance", [])
    if not isinstance(provenance, list) or not all(isinstance(p, str) for p in provenance):
        raise ValidationError("'provenance' must be a list of strings")
    return NormativeModel(grid_points=grid_points, std_kind=std_kind,
                          joints=joints, provenance=list(provenance))


def save_cycles(cycles) -> bytes:
    """Serialize normalized cycles to the ``gaitnorm-cycles/1`` schema."""
    if not cycles:
        raise ValidationError("no cycles to save")
    grid_points = cycles[0].grid_points
    entries = []
    for c in cycles:
        if c.grid_points != grid_points:
            raise ValidationError("cannot mix grid sizes in one cycles file")
        joints = {}
        for name in c.angles:
            valid = bool(c.valid.get(name, False))
            joints[name] = {
                "valid": valid,
                "angle": _floats(c.angles[name]) if valid else None,
            }
        entries.append({
            "cycle_id": c.cycle_id,
            "label": c.label,
            "joints": joints,
        })
    doc = {"schema": CYCLES_SCHEMA, "grid_points": int(grid_points),
           "cycles": entries}
    return _dump(doc)


def load_cycles(data: bytes):
    """Parse a ``gaitnorm-cycles/1`` cohort file.  Angles load as written,
    as rows of one array that ``_cycle_columns`` checks at once.  Each
    joint's ``valid`` must be JSON ``true`` or ``false``."""
    from .cycles import NormalizedCycle  # deferred: avoids import cycle

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

    columns = _cycle_columns(raw, grid_points)
    if columns is None:
        _raise_first_cycle_error(raw, grid_points)
    heads, rows = columns[0], iter(columns[1])
    return [NormalizedCycle(
        label=label, grid_points=grid_points, cycle_id=cycle_id, valid=valid,
        angles={name: next(rows) if ok else np.full(grid_points, np.nan)
                for name, ok in valid.items()})
        for label, cycle_id, valid in heads]


def _cycle_columns(raw: list, grid_points: int):
    """Each cycle's (label, id, joint -> valid), and the valid joints'
    angles as one ``(n_valid, grid_points)`` array in file order; or None
    when any value is invalid.  Exact types (so no bool angle, and a
    ``valid`` flag that is only ``true`` or ``false``), one length, and
    one [0, 180] comparison, which NaN and infinities fail."""
    heads, lists = [], []
    for entry in raw:
        joints = entry.get("joints") if type(entry) is dict else None
        if type(joints) is not dict or not {dict}.issuperset(
                map(type, joints.values())):
            return None
        valid = {name: j.get("valid") for name, j in joints.items()}
        if not {bool}.issuperset(map(type, valid.values())):
            return None
        lists += [j.get("angle") for j in joints.values() if j["valid"]]
        heads.append((entry.get("label"), entry.get("cycle_id"), valid))
    if not (all(label in CYCLE_LABELS for label, _, _ in heads)
            and {str, type(None)}.issuperset(type(h[1]) for h in heads)
            and {list}.issuperset(map(type, lists))
            and {grid_points}.issuperset(map(len, lists))
            and _JSON_NUMBERS.issuperset(
                map(type, chain.from_iterable(lists)))):
        return None
    try:
        table = np.array(lists, dtype=float).reshape(len(lists), grid_points)
    except OverflowError:  # an int too large for a float
        return None
    if not ((table >= 0.0) & (table <= 180.0)).all():
        return None
    return heads, table


def _raise_first_cycle_error(raw: list, grid_points: int):
    """Check the cycles of ``raw`` one by one and raise the first error."""
    for i, entry in enumerate(raw):
        _require_object(entry, f"cycle {i}")
        label = entry.get("label")
        if label not in CYCLE_LABELS:
            raise ValidationError(f"cycle {i}: unknown label {label!r}")
        cycle_id = entry.get("cycle_id")
        if cycle_id is not None and not isinstance(cycle_id, str):
            raise ValidationError(f"cycle {i}: cycle_id must be a string or null")
        joints = _require_object(entry.get("joints"), f"cycle {i}: 'joints'")
        for name, jentry in joints.items():
            _require_object(jentry, f"cycle {i} joint {name!r}")
            valid = jentry.get("valid")
            if type(valid) is not bool:
                raise ValidationError(f"cycle {i} joint {name!r}: 'valid' "
                                      f"must be true or false, got {valid!r}")
            if valid:
                vals = _float_list(jentry.get("angle"),
                                   f"cycle {i} joint {name!r} angle", grid_points)
                if vals.min() < 0.0 or vals.max() > 180.0:
                    raise ValidationError(
                        f"cycle {i} joint {name!r}: angles must be in [0, 180]")
    raise AssertionError("the array check rejected valid cycles")


def save_report(report) -> bytes:
    """Serialize a ``DeviationReport``: z per scored joint, and the config."""
    joints = {name: {"z": _floats(z)} for name, z in report.z.items()}
    cycle_meta = {"cycle_id": report.cycle_id, "label": report.label}
    if report.annotation is not None:
        cycle_meta["start_frame"] = report.annotation.start_frame
        cycle_meta["end_frame"] = report.annotation.end_frame
    if report.phase_source != "frames":
        cycle_meta["phase_source"] = report.phase_source
    doc = {
        "schema": REPORT_SCHEMA,
        "video_id": report.video_id,
        "cycle": cycle_meta,
        "grid_points": int(report.grid_points),
        "config": {
            "k": report.config.k,
            "sigma_floor_deg": report.config.sigma_floor_deg,
            "severity_clip": report.config.severity_clip,
        },
        "joints": joints,
        "unknown_joints": list(report.unknown_joints),
    }
    return _dump(doc)


def load_report(data: bytes):
    """Parse a deviation report file; flags and severity are derived from
    its z and config, as ``build_report`` derives them."""
    from .detect import DetectionConfig, DeviationReport  # deferred: avoids import cycle

    doc = _load_json(data, "report file")
    if not isinstance(doc, dict) or not isinstance(doc.get("joints"), dict):
        raise ValidationError("report file must contain a 'joints' object")
    if doc.get("schema") != REPORT_SCHEMA:
        raise ValidationError(f"schema mismatch: expected {REPORT_SCHEMA!r}, "
                              f"got {doc.get('schema')!r}; re-run 'gaitnorm "
                              f"detect' to rewrite an older report")
    grid_points = _require_int(doc.get("grid_points"), "'grid_points'")
    if grid_points < 2:
        raise ValidationError(f"'grid_points' must be >= 2, got {grid_points}")
    cfg_doc = _require_object(doc.get("config"), "'config'")
    config = DetectionConfig(**{
        f.name: _require_number(cfg_doc.get(f.name), f"'config.{f.name}'")
        for f in fields(DetectionConfig)})
    z = {}
    for name, entry in doc["joints"].items():
        _require_object(entry, f"joint {name!r}")
        z[name] = _float_list(entry.get("z"), f"joint {name!r} z", grid_points)

    cycle_meta = _require_object(doc.get("cycle"), "'cycle'")
    label = cycle_meta.get("label")
    if label not in CYCLE_LABELS:
        raise ValidationError(f"'cycle.label': unknown label {label!r}")
    cycle_id = cycle_meta.get("cycle_id")
    if cycle_id is not None and not isinstance(cycle_id, str):
        raise ValidationError("'cycle.cycle_id' must be a string or null")
    phase_source = cycle_meta.get("phase_source", "frames")
    if phase_source not in PHASE_SOURCES:
        raise ValidationError(
            f"'cycle.phase_source' must be one of {PHASE_SOURCES}, got "
            f"{phase_source!r}")
    annotation = None
    if "start_frame" in cycle_meta and "end_frame" in cycle_meta:
        annotation = CycleAnnotation(
            start_frame=_require_int(cycle_meta["start_frame"],
                                     "'cycle.start_frame'"),
            end_frame=_require_int(cycle_meta["end_frame"],
                                   "'cycle.end_frame'"),
            label=label,
        )
    video_id = doc.get("video_id", "")
    if not isinstance(video_id, str):
        raise ValidationError("'video_id' must be a string")
    unknown_joints = doc.get("unknown_joints", [])
    if not isinstance(unknown_joints, list) or not all(
            isinstance(j, str) for j in unknown_joints):
        raise ValidationError("'unknown_joints' must be a list of strings")
    both = [j for j in unknown_joints if j in z]
    if both:
        raise ValidationError(
            f"joint {both[0]!r} is both scored and listed in 'unknown_joints'")
    return DeviationReport(
        video_id=video_id,
        cycle_id=cycle_id,
        label=label,
        annotation=annotation,
        grid_points=grid_points,
        config=config,
        z=z,
        unknown_joints=list(unknown_joints),
        phase_source=phase_source,
    )


def save_angle_series(series_by_joint: dict, *, video_id: str = "",
                      min_visibility: float = 0.5) -> bytes:
    """Serialize per-joint angle series (the ``angles`` CLI output)."""
    from .kinematics import MISSING_REASONS  # deferred: avoids import cycle

    joints = {}
    for name, series in series_by_joint.items():
        joints[name] = [
            [f, None if a != a else a, MISSING_REASONS[r]]
            for f, a, r in zip(series.frames.tolist(), series.angles.tolist(),
                               series.reasons.tolist())
        ]
    doc = {"schema": ANGLES_SCHEMA, "video_id": video_id,
           "min_visibility": min_visibility, "joints": joints}
    return _dump(doc)

