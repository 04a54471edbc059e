"""Slice angle series into gait cycles and resample onto the phase grid.

A cycle runs from one left initial heel strike to the next.  The start
frame sits at 0% and the end frame at 100%; every frame in between gets a
linearly interpolated phase.  Each cycle is then resampled per joint onto
a fixed grid (101 points, i.e. 1% steps, by default) with a natural cubic
spline fitted through the non-missing samples, which also fills interior
gaps.  Joints without enough coverage are marked invalid instead of being
extrapolated: spline extrapolation is wild and clinically misleading.

The work is array-at-a-time.  Every joint's series runs over the same
frames, so a cycle is cut once by ``_cut`` (two ``np.searchsorted``
calls) and phased once by ``_phases``, over frame indices or over the
frames' times.  ``detect.frame_statuses`` cuts and phases each cycle with
the same two functions.  ``CycleSlice`` holds that one ``phases`` array
and each joint's angles at those phases, NaN marking a missing angle.
Resampling groups a cycle's joints by the bytes of their knot phases and
fits each group with one multi-series spline (see ``spline``): one solve
per knot layout, with values bit-identical to per-joint fits.
"""

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

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

@dataclass(eq=False)
class CycleSlice:
    """The raw samples of one annotated cycle.

    ``phases`` holds the percent phase of each frame of the cycle, and
    ``angles[joint]`` that joint's angle in degrees at each of them.
    Missing samples stay in place as NaN angles so the resampler can see
    (and refuse to bridge) coverage gaps at the cycle edges.
    """

    annotation: CycleAnnotation
    video_id: str
    phases: np.ndarray
    angles: Dict[str, np.ndarray]

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
                   times: Optional[np.ndarray] = None,
                   ) -> List[CycleSlice]:
    """Cut per-joint angle series into one ``CycleSlice`` per annotation.

    Adjacent annotations may share a boundary frame; that frame appears in
    both slices (at 100% of the first and 0% of the second).  By default
    phase is linear in frame index; passing ``times`` (seconds per frame
    of the series, NaN where a frame has none) switches to linear-in-time
    phases for variable frame rates.

    Raises ``ValidationError`` when the series do not all hold the same
    frames, when ``times`` is not one per frame, or when an annotation's
    boundary frames are not among them.
    """
    if not series_by_joint:
        raise ValidationError("no angle series given")
    frames = next(iter(series_by_joint.values())).frames
    for joint, series in series_by_joint.items():
        if not np.array_equal(series.frames, frames):
            raise ValidationError(f"angle series {joint!r} holds other "
                                  f"frames than the first series")
    if times is not None and len(times) != len(frames):
        raise ValidationError(f"{len(times)} times for {len(frames)} frames")

    slices = []
    for ann in annotations:
        cut = _cut(ann, frames)
        held = frames[cut]
        if len(held) < 2 or held[0] != ann.start_frame \
                or held[-1] != ann.end_frame:
            raise ValidationError(
                f"cycle [{ann.start_frame}, {ann.end_frame}] references "
                f"frames absent from the series")
        slices.append(CycleSlice(
            ann, video_id,
            _phases(ann, held, None if times is None else times[cut]),
            {joint: series.angles[cut]
             for joint, series in series_by_joint.items()}))
    return slices


def _cut(ann: CycleAnnotation, frames: np.ndarray) -> slice:
    """The positions of strictly increasing ``frames`` that cycle ``ann``
    holds, boundaries included."""
    return slice(int(np.searchsorted(frames, ann.start_frame, side="left")),
                 int(np.searchsorted(frames, ann.end_frame, side="right")))


def _phases(ann: CycleAnnotation, frames: np.ndarray,
            times: Optional[np.ndarray]) -> np.ndarray:
    """Phases in percent of a non-empty cut's ``frames`` (int64) in cycle
    ``ann``: linear in frame index, or in time when ``times`` (seconds,
    aligned with ``frames``, NaN for none) is given.  Time phases need
    both boundary frames in the cut, a time for every frame, times that
    strictly increase, and a span whose percent steps stay finite; a
    break of any is a ``ValidationError``."""
    if times is None:
        x, x0, x1 = frames, ann.start_frame, ann.end_frame
    else:
        where = f"cycle [{ann.start_frame}, {ann.end_frame}]"
        untimed = [f for f, held in ((ann.start_frame, frames[0]),
                                     (ann.end_frame, frames[-1])) if f != held]
        untimed += frames[np.isnan(times)].tolist()
        if untimed:
            raise ValidationError(f"time-based phases requested but frame "
                                  f"{untimed[0]} has no timestamp")
        # With both boundaries in the cut, an end timed before the start
        # or a frame timed outside the cycle breaks the increase too.
        stuck = np.flatnonzero(~(times[1:] > times[:-1]))
        if len(stuck):
            i = int(stuck[0])
            raise ValidationError(
                f"{where}: frame {int(frames[i + 1])} is timed "
                f"{float(times[i + 1])} s, not after frame {int(frames[i])} "
                f"({float(times[i])} s); timestamps must strictly increase "
                f"inside a cycle")
        x, x0, x1 = times, float(times[0]), float(times[-1])
        # Bounds every 100 * (x - x0) of the cut.
        if not math.isfinite(100.0 * (x1 - x0)):
            raise ValidationError(f"{where}: timed from {x0} s to {x1} s, "
                                  f"a span past the float range")
    return 100.0 * (x - x0) / (x1 - x0)


def resample_cycle(cycle_slice: CycleSlice,
                   grid_points: int = DEFAULT_GRID_POINTS) -> NormalizedCycle:
    """Resample one cycle onto the fixed phase grid.

    Per joint, a natural cubic spline is fitted through the slice's
    phases where the joint's angle is present and evaluated at all grid
    phases; joints missing the same samples share one fit.  A joint is
    marked invalid (all-NaN, ``valid=False``) instead of fitted when it
    has fewer than 4 usable samples or its coverage leaves more than half
    a percent uncovered at either cycle edge.  Grid phases inside that
    half-percent tolerance but outside the fitted span take the nearest
    knot's value rather than extrapolating.

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
    for joint, raw in cycle_slice.angles.items():
        present = ~np.isnan(raw)
        knot_x = cycle_slice.phases[present]
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
