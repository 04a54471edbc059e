"""Slice angle series into gait cycles and resample onto the phase grid.

A cycle runs from one left initial heel strike to the next.  The start
frame sits at 0% and the end frame at 100%; every frame in between gets a
linearly interpolated phase.  Each cycle is then resampled per joint onto
a fixed grid (101 points, i.e. 1% steps, by default) with a natural cubic
spline fitted through the non-missing samples, which also fills interior
gaps.  Joints without enough coverage are marked invalid instead of being
extrapolated: spline extrapolation is wild and clinically misleading.

The work is array-at-a-time.  A cycle is cut from a joint's sorted frame
indices with two ``np.searchsorted`` calls, so each cut costs
O(log frames), and its phases come as one array from ``_phases``, the one
frame -> phase rule, which ``detect.frame_statuses`` shares.  ``CycleSlice``
holds those (phase, angle) columns, NaN marking a missing angle.  Resampling
groups a cycle's joints by the bytes of their knot phases and fits each
group with one multi-series spline (see ``spline``): one solve per knot
layout, usually one per cycle, with values bit-identical to per-joint fits.
"""

import logging
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .kinematics import AngleSeries
from .pose_io import CYCLE_ANGLE_DECIMALS, CycleAnnotation, at_precision
from .spline import eval_spline, fit_natural_cubic

logger = logging.getLogger(__name__)

DEFAULT_GRID_POINTS = 101

# A valid joint needs at least this many non-missing samples per cycle
# (fewer degenerate the cubic fit) ...
MIN_KNOTS_PER_CYCLE = 4
# ... and non-missing samples at or before this phase and at or after its
# mirror image, so no grid point sits more than half a grid step outside
# the fitted span.
EDGE_COVERAGE_PERCENT = 0.5

class CycleSlice:
    """Raw per-joint (phase, angle) samples for one annotated cycle.

    ``columns[joint]`` is a pair of equal-length float arrays, phases in
    percent and angles in degrees.  Missing samples stay in place as NaN
    angles so the resampler can see (and refuse to bridge) coverage gaps
    at the cycle edges.
    """

    def __init__(self, annotation: CycleAnnotation, video_id: str = "", *,
                 columns: Optional[Dict[str, Tuple[np.ndarray,
                                                   np.ndarray]]] = None):
        self.annotation = annotation
        self.video_id = video_id
        self.columns = columns if columns is not None else {}

    @property
    def cycle_id(self) -> str:
        return (f"{self.video_id}:"
                f"{self.annotation.start_frame}-{self.annotation.end_frame}")


@dataclass(eq=False)
class NormalizedCycle:
    """One cycle's joint angles on the fixed 0-100% phase grid.

    ``valid[j]`` is False when joint ``j`` failed the coverage rule; its
    angle array is then all-NaN.  Valid arrays are clamped to [0, 180].
    """

    label: str
    grid_points: int
    angles: Dict[str, np.ndarray]
    valid: Dict[str, bool]
    cycle_id: Optional[str] = None

    def __eq__(self, other):
        if not isinstance(other, NormalizedCycle):
            return NotImplemented
        if (self.label, self.grid_points, self.cycle_id) != \
                (other.label, other.grid_points, other.cycle_id):
            return False
        if self.valid != other.valid or set(self.angles) != set(other.angles):
            return False
        return all(np.array_equal(self.angles[k], other.angles[k], equal_nan=True)
                   for k in self.angles)


def segment_cycles(series_by_joint: Mapping[str, AngleSeries],
                   annotations: List[CycleAnnotation],
                   *,
                   video_id: str = "",
                   frame_times: Optional[Mapping[int, float]] = None,
                   ) -> List[CycleSlice]:
    """Cut per-joint angle series into one ``CycleSlice`` per annotation.

    Adjacent annotations may share a boundary frame; that frame appears in
    both slices (at 100% of the first and 0% of the second).  By default
    phase is linear in frame index; passing ``frame_times`` (frame index
    -> seconds) switches to linear-in-time phases for variable frame
    rates.

    Raises ``ValidationError`` when an annotation's boundary frames are
    not present in the series.
    """
    if not series_by_joint:
        raise ValidationError("no angle series given")
    frames = next(iter(series_by_joint.values())).frames

    slices = []
    for ann in annotations:
        cut = _cut(frames, ann)
        if cut.stop - cut.start < 2 or frames[cut.start] != ann.start_frame \
                or frames[cut.stop - 1] != ann.end_frame:
            raise ValidationError(
                f"cycle [{ann.start_frame}, {ann.end_frame}] references "
                f"frames absent from the series")
        columns = {}
        for joint, series in series_by_joint.items():
            own = _cut(series.frames, ann)
            columns[joint] = (_phases(ann, series.frames[own], frame_times),
                              series.angles[own])
        slices.append(CycleSlice(ann, video_id=video_id, columns=columns))
    return slices


def _cut(frames: np.ndarray, ann: CycleAnnotation) -> slice:
    """Positions of the frames within ``ann`` in sorted ``frames``."""
    return slice(int(np.searchsorted(frames, ann.start_frame, side="left")),
                 int(np.searchsorted(frames, ann.end_frame, side="right")))


def _phases(ann: CycleAnnotation, frames: np.ndarray,
            frame_times: Optional[Mapping[int, float]]) -> np.ndarray:
    """Phases in percent of ``frames`` (int64) in cycle ``ann``: linear in
    frame index, or in time when ``frame_times`` (frame index -> seconds)
    is given.  A frame without a timestamp, a frame outside the cycle (by
    index or by time), or timestamps that do not strictly increase with
    frame index inside the cycle is a ``ValidationError``."""
    if frame_times is None:
        x, x0, x1 = frames, ann.start_frame, ann.end_frame
    else:
        try:
            x0, x1 = frame_times[ann.start_frame], frame_times[ann.end_frame]
            if not x0 < x1:
                raise ValidationError(
                    f"cycle [{ann.start_frame}, {ann.end_frame}]: timestamps "
                    f"do not increase across the cycle")
            x = np.array([frame_times[f] for f in frames.tolist()],
                         dtype=float)
        except KeyError as exc:
            raise ValidationError(
                f"time-based phases requested but frame {exc.args[0]} has "
                f"no timestamp") from None
    outside = ~((x >= x0) & (x <= x1))
    if outside.any():
        i = int(np.argmax(outside))
        where = "" if frame_times is None else \
            f" (timed {float(x[i])} s, not in [{x0}, {x1}] s)"
        raise ValidationError(
            f"cycle [{ann.start_frame}, {ann.end_frame}]: frame "
            f"{int(frames[i])} lies outside the cycle{where}")
    if frame_times is not None:
        # The cycle's frames with its boundaries, in frame order: each later
        # frame must be timed strictly after the one before it.
        f = np.concatenate(([ann.start_frame], frames, [ann.end_frame]))
        t = np.concatenate(([x0], x, [x1]))
        order = np.argsort(f, kind="stable")
        f, t = f[order], t[order]
        stuck = (np.diff(f) > 0) & ~(np.diff(t) > 0)
        if stuck.any():
            i = int(np.argmax(stuck))
            raise ValidationError(
                f"cycle [{ann.start_frame}, {ann.end_frame}]: frame "
                f"{int(f[i + 1])} is timed {float(t[i + 1])} s, not after "
                f"frame {int(f[i])} ({float(t[i])} s); timestamps must "
                f"strictly increase inside a cycle")
    return 100.0 * (x - x0) / (x1 - x0)


def resample_cycle(cycle_slice: CycleSlice,
                   grid_points: int = DEFAULT_GRID_POINTS) -> NormalizedCycle:
    """Resample one cycle onto the fixed phase grid.

    Per joint, a natural cubic spline is fitted through the non-missing
    (phase, angle) samples and evaluated at all grid phases; joints whose
    samples sit at the same phases share one fit.  A joint is marked
    invalid (all-NaN, ``valid=False``) instead of fitted when it has fewer
    than 4 usable samples or its coverage leaves more than half a percent
    uncovered at either cycle edge.  Grid phases inside that half-percent
    tolerance but outside the fitted span take the nearest knot's value
    rather than extrapolating.

    Spline overshoot is clamped to [0, 180]; a warning is logged when the
    clamp moves any value by more than 1 degree.  The clamped values are
    rounded to 1/1000 deg (``pose_io.CYCLE_ANGLE_DECIMALS``).
    """
    if grid_points < 2:
        raise ValidationError(f"grid_points must be >= 2, got {grid_points}")
    grid = np.linspace(0.0, 100.0, grid_points)
    valid: Dict[str, bool] = {}
    layouts = {}  # knot abscissae bytes -> (abscissae, joints, knot angles)
    fitted = {}  # joint -> (grid values clamped, largest move of the clamp)
    for joint, (phases, raw) in cycle_slice.columns.items():
        present = ~np.isnan(raw)
        knot_x = phases[present]
        valid[joint] = not (len(knot_x) < MIN_KNOTS_PER_CYCLE
                            or knot_x[0] > EDGE_COVERAGE_PERCENT
                            or knot_x[-1] < 100.0 - EDGE_COVERAGE_PERCENT)
        if valid[joint]:
            _, joints, knot_y = layouts.setdefault(knot_x.tobytes(),
                                                   (knot_x, [], []))
            joints.append(joint)
            knot_y.append(raw[present])
        else:
            logger.debug("cycle %s joint %s: insufficient coverage "
                         "(%d usable samples)", cycle_slice.cycle_id, joint,
                         len(knot_x))
            fitted[joint] = (np.full(grid_points, np.nan), 0.0)

    for knot_x, joints, knot_y in layouts.values():
        coeffs = fit_natural_cubic(np.column_stack([knot_x] + knot_y))
        values = eval_spline(coeffs, np.clip(grid, knot_x[0], knot_x[-1]))
        values = values.reshape(grid_points, len(joints))
        clamped = np.clip(values, 0.0, 180.0)
        worst = np.max(np.abs(values - clamped), axis=0)
        rounded = at_precision(clamped, CYCLE_ANGLE_DECIMALS)
        fitted.update(zip(joints, zip(rounded.T.copy(), worst.tolist())))

    angles: Dict[str, np.ndarray] = {}
    for joint in valid:
        angles[joint], worst = fitted[joint]
        if worst > 1.0:
            logger.warning("cycle %s joint %s: clamped spline overshoot of "
                           "%.2f deg into [0, 180]", cycle_slice.cycle_id,
                           joint, worst)

    return NormalizedCycle(label=cycle_slice.annotation.label,
                           grid_points=grid_points, angles=angles,
                           valid=valid, cycle_id=cycle_slice.cycle_id)
