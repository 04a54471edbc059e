"""Build normative gait parameters from a cohort of typical cycles.

For every joint and every grid point, the model stores the mean and
standard deviation of the angle across the cohort.  Joints are modeled
independently; there is no cross-joint covariance.  The sample SD
(divide by n-1) is the default because small cohorts bias the population
SD low, which would inflate false abnormality flags downstream; the
population SD remains selectable.

Cycles are canonically ordered by ``cycle_id``, then by their content,
before reduction, so the model is bit-identical no matter how the input
list was ordered, even when cycle ids repeat.
"""

import logging
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .cycles import NormalizedCycle
from .errors import ValidationError

logger = logging.getLogger(__name__)

STD_KINDS = ("sample", "population")


@dataclass(eq=False)
class JointNormals:
    """Per-grid-point mean and SD of one joint's angle over the cohort."""

    mean: np.ndarray
    std: np.ndarray
    n_cycles: int

    def __eq__(self, other):
        if not isinstance(other, JointNormals):
            return NotImplemented
        return (self.n_cycles == other.n_cycles
                and np.array_equal(self.mean, other.mean)
                and np.array_equal(self.std, other.std))


@dataclass(eq=False)
class NormativeModel:
    """Normative kinematic parameters for a reference cohort.

    ``provenance`` lists the contributing cycle identifiers for clinical
    traceability.
    """

    grid_points: int
    std_kind: str
    joints: Dict[str, JointNormals]
    provenance: List[str]

    def __eq__(self, other):
        if not isinstance(other, NormativeModel):
            return NotImplemented
        return (self.grid_points == other.grid_points
                and self.std_kind == other.std_kind
                and self.provenance == other.provenance
                and self.joints == other.joints)


def _canonical_order(c: NormalizedCycle):
    """Sort key: the cycle id, then each joint's validity and angle bytes
    in joint-name order, so cycles sharing an id still sort one way."""
    return (c.cycle_id or "",
            [(j, bool(c.valid.get(j, False)),
              np.asarray(c.angles[j], dtype=float).tobytes())
             for j in sorted(c.angles)])


def build_normative_model(cycles: List[NormalizedCycle],
                          grid_points: int,
                          std_kind: str = "sample") -> NormativeModel:
    """Reduce a cohort of typical cycles to per-joint mean/SD bands.

    Every cycle must be labeled typical and share ``grid_points``.  A
    joint enters the model only when at least 2 cycles have valid data
    for it (the sample SD needs n >= 2); joints below that are omitted
    with a warning, and a model with no joint left is refused.
    """
    if std_kind not in STD_KINDS:
        raise ValidationError(f"unknown std_kind {std_kind!r}; expected one "
                              f"of {STD_KINDS}")
    for c in cycles:
        if c.grid_points != grid_points:
            raise ValidationError(
                f"mixed grid sizes: cycle {c.cycle_id!r} has "
                f"{c.grid_points} points, expected {grid_points}")
        if c.label != "typical":
            raise ValidationError(
                f"cycle {c.cycle_id!r} is labeled {c.label!r}; only typical "
                f"cycles may form the normative cohort")

    ordered = sorted(cycles, key=_canonical_order)
    joint_names = sorted({j for c in ordered for j in c.angles})

    ddof = 1 if std_kind == "sample" else 0
    joints: Dict[str, JointNormals] = {}
    for joint in joint_names:
        stack = [c.angles[joint] for c in ordered if c.valid.get(joint, False)]
        if len(stack) < 2:
            logger.warning("joint %s: only %d valid cycle(s); omitted from "
                           "the normative model", joint, len(stack))
            continue
        arr = np.vstack(stack)
        joints[joint] = JointNormals(
            mean=arr.mean(axis=0),
            std=arr.std(axis=0, ddof=ddof),
            n_cycles=arr.shape[0])
    if not joints:
        raise ValidationError(
            f"cannot build a normative model: no joint is valid in 2 or "
            f"more of the {len(cycles)} typical cycle(s)")

    provenance = [c.cycle_id or "" for c in ordered]
    return NormativeModel(grid_points=grid_points, std_kind=std_kind,
                          joints=joints, provenance=provenance)

