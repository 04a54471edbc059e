"""Compare an analyzed cycle against the normative model.

Per joint and grid point the deviation is the signed z-score
``(angle - mean) / max(std, sigma_floor)``.  A sample is flagged abnormal
when ``|z|`` strictly exceeds the SD multiplier ``k`` (default 1, the
one-standard-deviation rule); a sample exactly at k standard deviations
counts as within the band.  Severity compresses ``|z|`` into [0, 1] by
clipping at ``severity_clip`` standard deviations, for heatmap shading.
A report stores only z, at 1/1000 SD, and the config; ``build_report``
rounds z to that precision before anything is decided from it, and
``judge`` derives the rest whenever a ``DeviationReport`` is made, by
``build_report`` or ``load_report``.  Unknown joints, severity rows and
frame-status columns follow ``kinematics.JOINT_NAMES``.

The sigma floor (default half a degree) keeps a near-deterministic cohort
from dividing deviations by ~0; sub-half-degree precision is beyond what
2D pose estimates deliver anyway.  A floor of 0 (or a subnormal one) on a
model with zero SD can still make z infinite or NaN, and ``build_report``
rejects such a cycle rather than write it.
"""

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cycles import NormalizedCycle, _cut, _phases
from .errors import ValidationError
from .kinematics import JOINT_NAMES
from .normative import NormativeModel
from .pose_io import REPORT_Z_DECIMALS, CycleAnnotation, at_precision

logger = logging.getLogger(__name__)

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
        for name in ("k", "sigma_floor_deg", "severity_clip"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
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

    Joints that were invalid in the analyzed cycle, or that the model
    lacks, appear in ``unknown_joints`` rather than in the per-joint
    arrays: unknown is never silently reported as normal.
    ``phase_source`` names the rule that mapped the cycle's frames to its
    phase grid (see ``frame_statuses``).
    """

    video_id: str
    cycle_id: Optional[str]
    label: str
    annotation: Optional[CycleAnnotation]
    grid_points: int
    config: DetectionConfig
    z: Dict[str, np.ndarray]
    unknown_joints: List[str] = field(default_factory=list)
    phase_source: str = "frames"
    # Derived from z and config by ``judge``, never stored or passed in.
    flag: Dict[str, np.ndarray] = field(init=False)
    severity: Dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        z = np.array(list(self.z.values()), float).reshape(
            len(self.z), self.grid_points)
        flags, severity = judge(z, self.config)
        self.flag = dict(zip(self.z, flags))
        self.severity = dict(zip(self.z, severity))


def judge(z: np.ndarray, cfg: DetectionConfig) -> Tuple[np.ndarray, ...]:
    """Flags and severity of a ``(joints, grid)`` z matrix: ``|z| > k``
    and ``min(|z|, clip)/clip`` in [0, 1].  The only place these are
    decided."""
    flags = np.abs(z) > cfg.k
    severity = np.minimum(np.abs(z), cfg.severity_clip) / cfg.severity_clip
    return flags, severity


def severity_matrix(report: DeviationReport) -> np.ndarray:
    """The report's severity as a ``(len(JOINT_NAMES), grid_points)``
    matrix, one row per joint of ``JOINT_NAMES``.  A joint with no
    severity in the report (unknown, or not in the analysis) is an
    all-NaN row, so the shape stays fixed even when every joint of the
    cycle is unknown."""
    blank = np.full(report.grid_points, np.nan)
    return np.array([report.severity.get(j, blank) for j in JOINT_NAMES],
                    dtype=float)


def frame_statuses(seq_cycles: Sequence[Tuple[CycleAnnotation, Dict[str, np.ndarray]]],
                   frames: Iterable[int],
                   grid_points: int,
                   *,
                   times: Optional[np.ndarray] = None,
                   ) -> np.ndarray:
    """Map per-cycle grid flags back onto video frames: an object array
    of status strings, one row per frame of ``frames`` (which must
    strictly increase) and one column per joint of ``JOINT_NAMES``.

    Each frame inside an annotated cycle takes the flag at the nearest
    grid point of its phase; the first cycle in (start, end) order that
    holds a frame decides it, so a frame on a shared boundary belongs to
    the earlier cycle.  Each cycle is cut and phased as segmentation does
    (``cycles._cut`` and ``cycles._phases``): linear in frame index, or
    in time when ``times`` (seconds, one per frame of ``frames``, NaN for
    none) is given.  A
    cycle holding none of ``frames`` is not phased.  Frames outside every
    cycle, and joints without flags for their cycle, are reported
    unknown.  A joint whose flags are not ``grid_points`` long is a
    ``ValidationError``.
    """
    frames = np.fromiter(frames, dtype=np.int64)
    if (frames[1:] <= frames[:-1]).any():
        raise ValidationError("frames must strictly increase")
    if times is not None and len(times) != len(frames):
        raise ValidationError(f"{len(times)} times for {len(frames)} frames")
    mapped = []  # (cut, grid point per frame, flag columns), in cycle order
    for ann, flags in sorted(seq_cycles,
                             key=lambda p: (p[0].start_frame, p[0].end_frame)):
        columns = [(col, np.asarray(flags[joint]))
                   for col, joint in enumerate(JOINT_NAMES) if joint in flags]
        for col, row in columns:
            if row.shape != (grid_points,):
                raise ValidationError(
                    f"cycle [{ann.start_frame}, {ann.end_frame}]: joint "
                    f"{JOINT_NAMES[col]!r} has flags of shape {row.shape} "
                    f"on a {grid_points}-point grid")
        cut = _cut(ann, frames)
        if cut.start < cut.stop:
            phase = _phases(ann, frames[cut],
                            None if times is None else times[cut])
            mapped.append((cut, np.rint(phase / 100.0 * (grid_points - 1))
                           .astype(np.int64), columns))
    codes = np.full((len(frames), len(JOINT_NAMES)), 2, dtype=np.int8)
    # From the last cycle to the first, each cut reset to unknown before
    # its flags are written: the first cycle holding a frame writes last.
    for cut, g, columns in reversed(mapped):
        codes[cut] = 2
        for col, row in columns:
            codes[cut, col] = row[g]
    return _STATUSES[codes]


def build_report(cycle: NormalizedCycle, model: NormativeModel,
                 cfg: Optional[DetectionConfig] = None,
                 *,
                 video_id: str = "",
                 annotation: Optional[CycleAnnotation] = None,
                 phase_source: str = "frames") -> DeviationReport:
    """Score one cycle against the model: the only place z-scores are
    computed, rounded to ``REPORT_Z_DECIMALS`` (flags and severity follow
    from the rounded z, see ``judge``, so they are what the written
    report yields).

    Every valid joint the model holds is scored in one ``(joints, grid)``
    operation, and each per-joint array is one row of it.  A valid joint
    absent from the model is logged and reported unknown, like an
    invalid one: never silently dropped, never normal without a band.
    Raises on a grid size mismatch and on a z that is not finite.
    """
    cfg = cfg or DetectionConfig()
    if cycle.grid_points != model.grid_points:
        raise ValidationError(
            f"grid mismatch: cycle has {cycle.grid_points} points, model "
            f"has {model.grid_points}")
    valid = [j for j in cycle.angles if cycle.valid.get(j, False)]
    absent = sorted(set(valid).difference(model.joints))
    if absent:
        logger.warning("cycle %s: joint(s) %s absent from the model; "
                       "reporting them unknown", cycle.cycle_id,
                       ", ".join(absent))
    joints = [j for j in valid if j in model.joints]
    shape = (len(joints), model.grid_points)
    angles = np.array([cycle.angles[j] for j in joints], float).reshape(shape)
    mean = np.array([model.joints[j].mean for j in joints], float).reshape(shape)
    std = np.array([model.joints[j].std for j in joints], float).reshape(shape)
    sigma = np.maximum(std, cfg.sigma_floor_deg)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = (angles - mean) / sigma
    bad = np.argwhere(~np.isfinite(z))
    if len(bad):
        row, g = bad[0]
        raise ValidationError(
            f"cycle {cycle.cycle_id}: joint {joints[row]!r} z is "
            f"{z[row, g]} at grid point {g} (angle {angles[row, g]}, mean "
            f"{mean[row, g]}, SD after the sigma floor {sigma[row, g]}); "
            f"raise the sigma floor")
    z = at_precision(z, REPORT_Z_DECIMALS)
    unknown = [j for j in JOINT_NAMES if j not in joints]
    return DeviationReport(
        video_id=video_id,
        cycle_id=cycle.cycle_id,
        label=cycle.label,
        annotation=annotation,
        grid_points=cycle.grid_points,
        config=cfg,
        z=dict(zip(joints, z)),
        unknown_joints=unknown,
        phase_source=phase_source,
    )
