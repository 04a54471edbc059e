"""Static vector figures and overlay records for clinician review.

All documents are plain SVG built by string assembly with fixed-precision
coordinates, so identical inputs produce byte-identical files (raster
backends and plotting libraries do not guarantee that).  Coordinates are
computed as arrays and each series is formatted by one ``%`` operation.
Markup that does not depend on the analyzed cycle is built once and
cached by the values it formats: the heatmap cells per matrix shape, and
a band panel's band, mean line, axes and dot ``cx`` per (panel box, y
range, k, mean and SD bytes), so a cycle's panel formats only its dots'
``cy`` and classes.  Every figure carries a machine-readable sidecar
describing exactly what was plotted (series kinds and point counts);
acceptance checks compare sidecars against the document instead of pixel
content.

Four figure families:

* band plot -- one joint's normative mean with the +/- k*SD envelope,
  optionally overlaid with an analyzed cycle's normal/abnormal samples
* multi-joint -- the band plot repeated as a 10-panel grid
* heatmap -- joints x cycle-percent severity, darker = larger deviation
* frame overlays -- per-frame skeleton + joint status records meant to be
  drawn over video frames by downstream tooling

The overlay document is written by ``overlay_chunks`` straight from a
``PoseSequence``'s arrays, ``pose_io.CHUNK_FRAMES`` frames at a time, so
a long video is streamed to its file in bounded memory: one ``%``
template per (present landmarks, has a time), itself written by the
package's JSON writer, filled with every value of a chunk in one ``%``
operation.  ``overlay_json`` joins the chunks and ``annotate_frames``
returns that document decoded, so there is one overlay format.
"""

import functools
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import pose_io
from .cycles import NormalizedCycle
from .detect import (STATUS_UNKNOWN, DetectionConfig, FrameStatus)
from .errors import ValidationError
from .kinematics import JOINT_NAMES
from .normative import NormativeModel
from .pose_io import KEYPOINT_NAMES, PoseSequence, _dump, _encode

# Drawn between keypoints that are both present in a frame.
SKELETON_EDGES: Tuple[Tuple[str, str], ...] = (
    ("left_shoulder", "right_shoulder"),
    ("left_hip", "right_hip"),
    ("left_shoulder", "left_hip"),
    ("right_shoulder", "right_hip"),
    ("left_shoulder", "left_elbow"), ("left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow"), ("right_elbow", "right_wrist"),
    ("left_hip", "left_knee"), ("left_knee", "left_ankle"),
    ("left_ankle", "left_heel"), ("left_heel", "left_hallux"),
    ("right_hip", "right_knee"), ("right_knee", "right_ankle"),
    ("right_ankle", "right_heel"), ("right_heel", "right_hallux"),
)

_STYLE = (
    "polyline.mean{fill:none;stroke:#1f4e8c;stroke-width:1.5}"
    "polygon.band{fill:#9ec3e6;fill-opacity:0.45;stroke:none}"
    "circle.normal{fill:#1f4e8c}"
    "circle.abnormal{fill:#c0392b}"
    "line.axis{stroke:#444;stroke-width:1}"
    "line.tick{stroke:#444;stroke-width:1}"
    "text{font-family:sans-serif;fill:#222}"
)


@dataclass
class FigureDoc:
    """A rendered SVG document plus its machine-readable sidecar."""

    svg: str
    sidecar: dict


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _fmt_all(template: str, values: Sequence) -> str:
    """``template % values`` where every float is ``%.3f``, with the same
    negative-zero fix-up as ``_fmt``."""
    return (template % tuple(values)).replace("-0.000", "0.000")


def _interleave(*columns) -> List:
    return [v for row in zip(*columns) for v in row]


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """SVG ``points`` text: "x,y x,y ..." at three decimals."""
    return _fmt_all(" ".join(["%.3f,%.3f"] * len(xs)),
                    _interleave(xs.tolist(), ys.tolist()))


@functools.lru_cache(maxsize=256)
def _panel(box: Tuple[float, float, float, float], lo: float, hi: float,
           k: float, mean: bytes, std: bytes, labels: bool):
    """Everything in a band panel that does not depend on the analyzed
    cycle: the band polygon and mean line (drawn under the dots), the dot
    template with each ``cx`` filled in and a class and ``cy`` slot per
    grid point, the axes (drawn over the dots), and the degrees -> pixel y
    map (y up).  ``mean`` and ``std`` are float64 bytes.  A pure function of the
    values it formats, so an entry can never go stale."""
    x0, x1, y0, y1 = box
    mean, std = np.frombuffer(mean), np.frombuffer(std)
    xs = x0 + (x1 - x0) * np.arange(len(mean)) / (len(mean) - 1)

    def sy(v):
        return y1 - (y1 - y0) * (v - lo) / (hi - lo)

    band = _points(np.concatenate((xs, xs[::-1])),
                   np.concatenate((sy(mean + k * std),
                                   sy(mean - k * std)[::-1])))
    under = (f'<polygon class="band" points="{band}"/>'
             f'<polyline class="mean" points="{_points(xs, sy(mean))}"/>')
    dots = "".join(f'<circle class="%s" cx="{cx}" cy="%.3f" r="2"/>'
                   for cx in map(_fmt, xs.tolist()))
    return under, dots, "".join(_axes(x0, x1, y0, y1, lo, hi, sy, labels)), sy


def _band_panel(box, normals, k: float, angles: Optional[np.ndarray],
                labels: bool):
    """``_panel`` for one joint's band, its y range whole degrees with 5
    degrees of margin around the band and ``angles``."""
    values = [normals.mean + k * normals.std, normals.mean - k * normals.std]
    if angles is not None:
        values.append(angles)
    lo = float(np.floor(min(float(v.min()) for v in values))) - 5.0
    hi = float(np.ceil(max(float(v.max()) for v in values))) + 5.0
    return _panel(box, lo, hi if hi > lo else lo + 1.0, k,
                  np.asarray(normals.mean, float).tobytes(),
                  np.asarray(normals.std, float).tobytes(), labels)


def _dots(template: str, angles: np.ndarray, flags: np.ndarray,
          sy) -> Tuple[str, int, int]:
    """The cycle's grid samples as dots in ``_panel``'s template, abnormal
    ones in the alert style: (markup, normal count, abnormal count)."""
    flags = np.asarray(flags, dtype=bool)
    if len(flags) != len(angles):
        raise ValidationError("overlay flags do not match the grid")
    classes = ["abnormal" if f else "normal" for f in flags.tolist()]
    dots = _fmt_all(template, _interleave(classes, sy(angles).tolist()))
    n_abnormal = int(np.count_nonzero(flags))
    return dots, len(angles) - n_abnormal, n_abnormal


def _axes(x0, x1, y0, y1, lo, hi, sy, with_labels: bool = True) -> List[str]:
    parts = [
        f'<line class="axis" x1="{_fmt(x0)}" y1="{_fmt(y1)}" '
        f'x2="{_fmt(x1)}" y2="{_fmt(y1)}"/>',
        f'<line class="axis" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
        f'x2="{_fmt(x0)}" y2="{_fmt(y1)}"/>',
    ]
    if not with_labels:
        return parts
    for pct in (0, 25, 50, 75, 100):
        x = x0 + (x1 - x0) * pct / 100.0
        parts.append(f'<line class="tick" x1="{_fmt(x)}" y1="{_fmt(y1)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(y1 + 4)}"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y1 + 16)}" '
                     f'font-size="10" text-anchor="middle">{pct}</text>')
    for i in range(5):
        v = lo + (hi - lo) * i / 4.0
        y = sy(v)
        parts.append(f'<line class="tick" x1="{_fmt(x0 - 4)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(x0)}" y2="{_fmt(y)}"/>')
        parts.append(f'<text x="{_fmt(x0 - 7)}" y="{_fmt(y + 3)}" '
                     f'font-size="10" text-anchor="end">{v:.0f}</text>')
    return parts


def _document(width: float, height: float, body: List[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
            f'<style>{_STYLE}</style>')
    return head + "".join(body) + "</svg>\n"


def render_band_plot(model: NormativeModel, joint: str,
                     overlay: Optional[Tuple[NormalizedCycle, np.ndarray]] = None,
                     cfg: Optional[DetectionConfig] = None) -> FigureDoc:
    """Normative band for one joint, optionally with an analyzed cycle.

    The band spans mean +/- k*SD over cycle percent.  With an overlay the
    cycle's grid samples are drawn as dots, abnormal ones in the alert
    style.
    """
    cfg = cfg or DetectionConfig()
    if joint not in model.joints:
        raise ValidationError(f"joint {joint!r} absent from model")
    jn = model.joints[joint]
    n = model.grid_points

    angles = None
    if overlay is not None:
        cycle, flags = overlay
        if len(flags) != n or cycle.grid_points != n:
            raise ValidationError("overlay grid size does not match model")
        if not cycle.valid.get(joint, False):
            raise ValidationError(f"overlay joint {joint!r} is invalid in "
                                  f"cycle {cycle.cycle_id!r}")
        angles = cycle.angles[joint]

    x0, y0 = 50.0, 30.0
    under, template, over, sy = _band_panel((x0, 620.0, y0, 360.0), jn,
                                            cfg.k, angles, labels=True)
    body = [f'<text x="{_fmt(x0)}" y="18" font-size="13">{joint} '
            f'(mean and {cfg.k:g} SD band, degrees vs cycle percent)</text>',
            under]
    series = [{"kind": "mean", "points": n}, {"kind": "band", "points": 2 * n}]
    if overlay is not None:
        dots, n_normal, n_abnormal = _dots(template, angles, flags, sy)
        body.append(dots)
        series.append({"kind": "normal", "points": n_normal})
        series.append({"kind": "abnormal", "points": n_abnormal})
    body.append(over)

    sidecar = {
        "figure_kind": "band",
        "joint": joint,
        "grid_points": n,
        "k": cfg.k,
        "series": series,
    }
    return FigureDoc(svg=_document(640, 400, body), sidecar=sidecar)


def render_multi_joint(flags_by_joint: Dict[str, np.ndarray],
                       cycle: NormalizedCycle,
                       model: NormativeModel,
                       cfg: Optional[DetectionConfig] = None,
                       joint_order: Sequence[str] = JOINT_NAMES) -> FigureDoc:
    """All joints of one analyzed cycle as a panel grid.

    Each renderable panel repeats the band-plot styling; joints invalid in
    the cycle (or absent from model/flags) become "insufficient data"
    placeholders so the layout stays fixed.
    """
    cfg = cfg or DetectionConfig()
    n = model.grid_points
    if cycle.grid_points != n:
        raise ValidationError("cycle grid size does not match model")
    panel_w, panel_h = 380.0, 170.0
    pad = 16.0
    cols = 2
    rows = (len(joint_order) + cols - 1) // cols
    width = cols * panel_w + (cols + 1) * pad
    height = rows * panel_h + (rows + 1) * pad

    body = []
    panels = []
    for i, joint in enumerate(joint_order):
        col, row = i % cols, i // cols
        ox = pad + col * (panel_w + pad)
        oy = pad + row * (panel_h + pad)
        renderable = (joint in model.joints
                      and cycle.valid.get(joint, False)
                      and joint in flags_by_joint)
        body.append(f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" '
                    f'width="{_fmt(panel_w)}" height="{_fmt(panel_h)}" '
                    f'fill="none" stroke="#999"/>')
        body.append(f'<text x="{_fmt(ox + 6)}" y="{_fmt(oy + 14)}" '
                    f'font-size="11">{joint}</text>')
        if not renderable:
            body.append(f'<text x="{_fmt(ox + panel_w / 2)}" '
                        f'y="{_fmt(oy + panel_h / 2)}" font-size="11" '
                        f'text-anchor="middle" fill="#888">insufficient data</text>')
            panels.append({"joint": joint, "rendered": False})
            continue
        angles = cycle.angles[joint]
        under, template, over, sy = _band_panel(
            (ox + 10.0, ox + panel_w - 10.0, oy + 20.0, oy + panel_h - 10.0),
            model.joints[joint], cfg.k, angles, labels=False)
        dots, n_normal, n_abnormal = _dots(template, angles,
                                           flags_by_joint[joint], sy)
        body += [under, dots, over]
        panels.append({"joint": joint, "rendered": True,
                       "normal": n_normal, "abnormal": n_abnormal})

    sidecar = {
        "figure_kind": "multi_joint",
        "grid_points": n,
        "k": cfg.k,
        "panels": panels,
    }
    return FigureDoc(svg=_document(width, height, body), sidecar=sidecar)


_CELL_W, _CELL_H = 8.0, 24.0
_HEAT_LEFT, _HEAT_TOP = 110.0, 20.0
_FILLS = tuple(f"rgb({v},{v},{v})" for v in range(256)) + ("#f5f5f5",)


@functools.lru_cache(maxsize=8)
def _heatmap_rows(n_rows: int, n_cols: int) -> Tuple[str, ...]:
    """Per row, the markup of its cells with a ``%s`` slot for each fill:
    everything in a heatmap that depends only on the matrix shape."""
    cell_x = [_fmt(_HEAT_LEFT + c * _CELL_W) for c in range(n_cols)]
    size = f'width="{_fmt(_CELL_W)}" height="{_fmt(_CELL_H)}"'
    rows = []
    for r in range(n_rows):
        y = _fmt(_HEAT_TOP + r * _CELL_H)
        rows.append("".join(f'<rect class="cell" x="{x}" y="{y}" {size} '
                            f'fill="%s"/>' for x in cell_x))
    return tuple(rows)


def render_heatmap(severity: np.ndarray,
                   joint_names: Sequence[str] = JOINT_NAMES) -> FigureDoc:
    """Severity matrix as a grayscale heatmap, darker = larger deviation.

    Severity 0 maps to white and 1 to black.  All-NaN rows (joints with
    no data) render as blank rows and are listed in the sidecar.
    """
    severity = np.asarray(severity, dtype=float)
    if severity.ndim != 2 or severity.size == 0:
        raise ValidationError("severity matrix must be 2-D and non-empty")
    n_rows, n_cols = severity.shape
    if len(joint_names) != n_rows:
        raise ValidationError(
            f"{n_rows} matrix rows but {len(joint_names)} joint names")

    left, top = _HEAT_LEFT, _HEAT_TOP
    width = left + n_cols * _CELL_W + 20.0
    height = top + n_rows * _CELL_H + 40.0

    blank = np.all(np.isnan(severity), axis=1)
    blank_rows = [joint_names[r] for r in np.flatnonzero(blank)]
    # Shade 0-255 indexes _FILLS; index 256 is the NaN fill.
    shade = np.rint(255.0 * (1.0 - np.clip(severity, 0.0, 1.0)))
    codes = np.where(np.isnan(severity), 256, shade).astype(int).tolist()
    body = []
    for r, row_template in enumerate(_heatmap_rows(n_rows, n_cols)):
        y = top + r * _CELL_H
        body.append(f'<text x="{_fmt(left - 6)}" y="{_fmt(y + _CELL_H / 2 + 4)}" '
                    f'font-size="11" text-anchor="end">{joint_names[r]}</text>')
        body.append(row_template % tuple(_FILLS[c] for c in codes[r]))
    for pct in (0, 25, 50, 75, 100):
        x = left + pct / 100.0 * (n_cols - 1) * _CELL_W + _CELL_W / 2.0
        body.append(f'<text x="{_fmt(x)}" y="{_fmt(top + n_rows * _CELL_H + 16)}" '
                    f'font-size="10" text-anchor="middle">{pct}</text>')

    finite = severity[np.isfinite(severity)]
    sidecar = {
        "figure_kind": "heatmap",
        "rows": n_rows,
        "cols": n_cols,
        "joints": list(joint_names),
        "blank_rows": blank_rows,
        "max_severity": float(finite.max()) if finite.size else None,
    }
    return FigureDoc(svg=_document(width, height, body), sidecar=sidecar)


# Landmark columns in the sorted-key order JSON writes them.
_SORTED_KEYPOINTS = sorted(range(len(KEYPOINT_NAMES)),
                           key=KEYPOINT_NAMES.__getitem__)


class _Literal(str):
    """A JSON token that ``%r`` writes unquoted."""

    __repr__ = str.__str__


@functools.lru_cache(maxsize=1024)
def _record_template(present: Tuple[bool, ...], timed: bool) -> str:
    """One overlay record as ``_encode`` writes it, with a ``%`` slot for
    every value: the frame, the joint-status object, x, y and visibility
    of each ``present`` landmark (a mask in ``KEYPOINT_NAMES`` order; the
    slots follow the sorted names), and the time when ``timed``."""
    names = {n for n, held in zip(KEYPOINT_NAMES, present) if held}
    record = {
        "frame": "%d",
        "time_s": "%r" if timed else None,
        "keypoints": {n: ["%r"] * 3 for n in names},
        "edges": [[a, b] for a, b in SKELETON_EDGES
                  if a in names and b in names],
        "joint_status": "%s",
    }
    text = _encode(record, 1)
    for slot in ("%d", "%r", "%s"):
        text = text.replace(f'"{slot}"', slot)
    return text


def overlay_chunks(seq: PoseSequence, statuses: List[FrameStatus],
                   joint_order: Sequence[str] = JOINT_NAMES
                   ) -> Iterator[bytes]:
    """The overlay document, ``pose_io.CHUNK_FRAMES`` frames at a time:
    per frame, the keypoint pixel positions, the skeleton edges whose
    endpoints are both present, and the per-joint status key
    (normal/abnormal/unknown).  Frames without a status entry report every
    joint unknown.

    The joined bytes are ``_dump`` of ``annotate_frames``'s records,
    written from the arrays of ``seq``: one cached template per (present
    landmarks, has a time) and one ``%`` over every value of a chunk.
    Floats go through ``%r``, the ``float.__repr__`` the JSON encoder
    uses.
    """
    n = len(seq.frame_index)
    if n == 0:
        yield _dump([])
        return
    all_present, all_timed = seq.present(), ~np.isnan(seq.time_s)
    by_frame = {s.frame_index: s.status for s in statuses}
    unknown = {j: STATUS_UNKNOWN for j in joint_order}
    status_text = {}  # status items -> their JSON, shared by every chunk
    for lo in range(0, n, pose_io.CHUNK_FRAMES):
        hi = min(lo + pose_io.CHUNK_FRAMES, n)
        frames = seq.frame_index[lo:hi].tolist()
        present, timed = all_present[lo:hi], all_timed[lo:hi]
        status_items = [tuple(by_frame.get(f, unknown).items())
                        for f in frames]
        for items in set(status_items).difference(status_text):
            status_text[items] = _encode(dict(items), 2)
        # Per frame: frame, status, x, y, visibility per landmark, time.
        floats = np.concatenate(
            (seq.keypoints[lo:hi, _SORTED_KEYPOINTS].reshape(hi - lo, -1),
             seq.time_s[lo:hi, None]), axis=1)
        cells = np.empty((hi - lo, 2 + floats.shape[1]), dtype=object)
        cells[:, 0] = frames
        cells[:, 1] = [status_text[items] for items in status_items]
        cells[:, 2:] = floats
        used = np.ones(cells.shape, dtype=bool)
        used[:, 2:-1] = np.repeat(present[:, _SORTED_KEYPOINTS], 3, axis=1)
        used[:, -1] = timed
        nonfinite = np.zeros(cells.shape, dtype=bool)
        nonfinite[:, 2:] = ~np.isfinite(floats)
        values = cells[used]
        for i in np.flatnonzero(nonfinite[used]).tolist():
            values[i] = _Literal(_encode(values[i], 0))  # NaN, Infinity
        templates = map(_record_template, map(tuple, present.tolist()),
                        timed.tolist())
        text = ",\n ".join(templates) % tuple(values)
        yield (("[\n " if lo == 0 else ",\n ") + text).encode()
    yield b"\n]\n"


def overlay_json(seq: PoseSequence, statuses: List[FrameStatus],
                 joint_order: Sequence[str] = JOINT_NAMES) -> bytes:
    """The whole overlay document: ``overlay_chunks`` joined."""
    return b"".join(overlay_chunks(seq, statuses, joint_order))


def annotate_frames(seq: PoseSequence,
                    statuses: List[FrameStatus],
                    joint_order: Sequence[str] = JOINT_NAMES) -> List[dict]:
    """Per-frame overlay records for drawing skeletons over video: the
    ``overlay_json`` document, decoded."""
    return json.loads(overlay_json(seq, statuses, joint_order))


def write_figure(doc: FigureDoc, svg_path) -> None:
    """Write the SVG plus its sidecar (``<svg_path>.json``)."""
    with open(svg_path, "wb") as fh:
        fh.write(doc.svg.encode())
    sidecar_path = str(svg_path) + ".json"
    with open(sidecar_path, "wb") as fh:
        fh.write(_dump(doc.sidecar))
