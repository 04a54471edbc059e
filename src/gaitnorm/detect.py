"""Compare an analyzed cycle against the normative model.

Per joint and grid point the deviation is the signed z-score
``(angle - mean) / max(std, sigma_floor)``.  A sample is flagged abnormal
when ``|z|`` strictly exceeds the SD multiplier ``k`` (default 1, the
one-standard-deviation rule); a sample exactly at k standard deviations
counts as within the band.  Severity compresses ``|z|`` into [0, 1] by
clipping at ``severity_clip`` standard deviations, for heatmap shading.

The sigma floor (default half a degree) keeps a near-deterministic cohort
from dividing deviations by ~0; sub-half-degree precision is beyond what
2D pose estimates deliver anyway.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .cycles import NormalizedCycle, _phases
from .errors import ValidationError
from .kinematics import JOINT_NAMES
from .normative import NormativeModel
from .pose_io import CycleAnnotation

STATUS_NORMAL = "normal"
STATUS_ABNORMAL = "abnormal"
STATUS_UNKNOWN = "unknown"
# Status by code: a flag (False, True) indexes the first two.
_STATUSES = np.array([STATUS_NORMAL, STATUS_ABNORMAL, STATUS_UNKNOWN],
                     dtype=object)


@dataclass(frozen=True)
class DetectionConfig:
    """Tunables for deviation detection."""

    k: float = 1.0                 # SD multiplier for the abnormality threshold
    sigma_floor_deg: float = 0.5   # lower bound on the SD used in z-scores
    severity_clip: float = 3.0     # |z| at which severity shading saturates

    def __post_init__(self):
        if not self.k > 0:
            raise ValidationError(f"k must be > 0, got {self.k}")
        if self.sigma_floor_deg < 0:
            raise ValidationError(
                f"sigma_floor_deg must be >= 0, got {self.sigma_floor_deg}")
        if not self.severity_clip > 0:
            raise ValidationError(
                f"severity_clip must be > 0, got {self.severity_clip}")


@dataclass
class DeviationReport:
    """Deviation of one analyzed cycle from the normative model.

    Joints that were invalid in the analyzed cycle appear in
    ``unknown_joints`` rather than in the per-joint arrays: unknown is
    never silently reported as normal.  ``phase_source`` names the rule
    that mapped the cycle's frames to its phase grid (see
    ``frame_statuses``).
    """

    video_id: str
    cycle_id: Optional[str]
    label: str
    annotation: Optional[CycleAnnotation]
    grid_points: int
    config: DetectionConfig
    z: Dict[str, np.ndarray]
    flag: Dict[str, np.ndarray]
    severity: Dict[str, np.ndarray]
    flagged_fraction: Dict[str, float]
    unknown_joints: List[str] = field(default_factory=list)
    phase_source: str = "frames"


def z_scores(cycle: NormalizedCycle, model: NormativeModel,
             cfg: Optional[DetectionConfig] = None) -> Dict[str, np.ndarray]:
    """Signed per-grid-point z-scores for every valid joint of ``cycle``.

    Raises on a grid size mismatch or when a valid joint of the cycle has
    no entry in the model.
    """
    cfg = cfg or DetectionConfig()
    if cycle.grid_points != model.grid_points:
        raise ValidationError(
            f"grid mismatch: cycle has {cycle.grid_points} points, model "
            f"has {model.grid_points}")
    out: Dict[str, np.ndarray] = {}
    for joint in cycle.angles:
        if not cycle.valid.get(joint, False):
            continue
        if joint not in model.joints:
            raise ValidationError(f"joint {joint!r} absent from model")
        jn = model.joints[joint]
        sigma = np.maximum(jn.std, cfg.sigma_floor_deg)
        out[joint] = (cycle.angles[joint] - jn.mean) / sigma
    return out


def flag_abnormal(z_by_joint: Dict[str, np.ndarray],
                  cfg: Optional[DetectionConfig] = None
                  ) -> Dict[str, np.ndarray]:
    """Boolean abnormality flags: ``|z| > k`` (strict inequality)."""
    cfg = cfg or DetectionConfig()
    return {joint: np.abs(z) > cfg.k for joint, z in z_by_joint.items()}


def severity_values(z: np.ndarray,
                    cfg: Optional[DetectionConfig] = None) -> np.ndarray:
    """Map signed z-scores to severity in [0, 1]: ``min(|z|, clip)/clip``."""
    cfg = cfg or DetectionConfig()
    return np.minimum(np.abs(z), cfg.severity_clip) / cfg.severity_clip


def severity_matrix(z_by_joint: Dict[str, np.ndarray],
                    cfg: Optional[DetectionConfig] = None,
                    joint_order: Sequence[str] = JOINT_NAMES) -> np.ndarray:
    """Severity matrix, one row per joint of ``joint_order``.

    Rows follow the canonical ten-joint order unless overridden.  Joints
    missing from ``z_by_joint`` produce all-NaN rows so the shape stays
    fixed for a full-joint analysis.
    """
    cfg = cfg or DetectionConfig()
    lengths = {len(z) for z in z_by_joint.values()}
    if len(lengths) > 1:
        raise ValidationError(f"joints disagree on grid size: {sorted(lengths)}")
    if not lengths:
        raise ValidationError("no z-scores given")
    grid = lengths.pop()
    rows = []
    for joint in joint_order:
        if joint in z_by_joint:
            rows.append(severity_values(z_by_joint[joint], cfg))
        else:
            rows.append(np.full(grid, np.nan))
    return np.vstack(rows)


@dataclass(frozen=True)
class FrameStatus:
    """Per-joint normal/abnormal/unknown status for one video frame."""

    frame_index: int
    status: Dict[str, str]


def frame_statuses(seq_cycles: Sequence[Tuple[CycleAnnotation, Dict[str, np.ndarray]]],
                   frames: Iterable[int],
                   grid_points: int,
                   joint_order: Sequence[str] = JOINT_NAMES,
                   frame_times: Optional[Mapping[int, float]] = None,
                   ) -> List[FrameStatus]:
    """Map per-cycle grid flags back onto video frames.

    Each frame inside an annotated cycle takes the flag at the nearest
    grid point of its phase; a frame on a shared boundary belongs to the
    earlier cycle.  Phases follow ``cycles._phases``, the rule segmentation
    used: linear in frame index, or in time when ``frame_times`` (frame
    index -> seconds) is given, where a frame timed outside its cycle is a
    ``ValidationError``.  Frames outside every cycle, and joints without
    flags for their cycle, are reported unknown.
    """
    ordered = sorted(seq_cycles, key=lambda p: (p[0].start_frame, p[0].end_frame))
    frames = np.fromiter(frames, dtype=np.int64)
    # The first cycle (in start order) that ends at or after frame f is the
    # search position of f in the running maximum of end frames; it holds f
    # when it also starts at or before f.
    reach = np.maximum.accumulate(
        np.array([ann.end_frame for ann, _ in ordered], dtype=np.int64))
    which = np.searchsorted(reach, frames, side="left")
    by_cycle = np.argsort(which, kind="stable")
    bounds = np.searchsorted(which[by_cycle], np.arange(len(ordered) + 1))
    codes = np.full((len(frames), len(joint_order)), 2, dtype=np.int8)
    for (ann, flags), lo, hi in zip(ordered, bounds, bounds[1:]):
        at = by_cycle[lo:hi]
        at = at[frames[at] >= ann.start_frame]
        if len(at):
            phase = _phases(ann, frames[at], frame_times)
            g = np.rint(phase / 100.0 * (grid_points - 1)).astype(np.int64)
            for col, joint in enumerate(joint_order):
                if joint in flags:
                    codes[at, col] = np.asarray(flags[joint])[g]
    return [FrameStatus(f, dict(zip(joint_order, row)))
            for f, row in zip(frames.tolist(), _STATUSES[codes].tolist())]


def build_report(cycle: NormalizedCycle, model: NormativeModel,
                 cfg: Optional[DetectionConfig] = None,
                 *,
                 video_id: str = "",
                 annotation: Optional[CycleAnnotation] = None,
                 joint_order: Sequence[str] = JOINT_NAMES,
                 phase_source: str = "frames") -> DeviationReport:
    """Run the full per-cycle comparison and bundle it into a report."""
    cfg = cfg or DetectionConfig()
    z = z_scores(cycle, model, cfg)
    flags = flag_abnormal(z, cfg)
    severity = {j: severity_values(z[j], cfg) for j in z}
    flagged_fraction = {j: float(np.mean(flags[j])) for j in flags}
    unknown = [j for j in joint_order if j not in z]
    return DeviationReport(
        video_id=video_id,
        cycle_id=cycle.cycle_id,
        label=cycle.label,
        annotation=annotation,
        grid_points=cycle.grid_points,
        config=cfg,
        z=z,
        flag=flags,
        severity=severity,
        flagged_fraction=flagged_fraction,
        unknown_joints=unknown,
        phase_source=phase_source,
    )
