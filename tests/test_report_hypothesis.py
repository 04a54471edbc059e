"""Property check of the report format: a report stores only z, at
1/1000 SD, and its config, and reading it back derives the flags and
severity ``build_report`` derived, bit for bit.

Runs only where hypothesis is installed; ``test_parallel.py`` checks the
reports ``run`` and ``detect`` write without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm import (DetectionConfig, NormalizedCycle,  # noqa: E402
                      build_report, load_report, save_report,
                      severity_matrix)
from gaitnorm.kinematics import JOINT_NAMES  # noqa: E402
from gaitnorm.normative import JointNormals, NormativeModel  # noqa: E402

from helpers import (assert_same_judgment, at_thousandths,  # noqa: E402
                     reference_report, thousandths_bound)

GRID = 7
# Mean 0 and SD 1, above the 0.5 floor: each angle is its own z-score.
MODEL = NormativeModel(
    grid_points=GRID, std_kind="sample",
    joints={j: JointNormals(np.zeros(GRID), np.ones(GRID), 10)
            for j in JOINT_NAMES},
    provenance=[])


@st.composite
def _scored_cycles(draw):
    """A config and a cycle whose scored joints hold random z, values
    exactly at +/-k and +/-clip, within and beyond half a thousandth of
    +/-k, +/-0.0, +/-2**42 and +/-1e300 among them."""
    cfg = DetectionConfig(k=draw(st.sampled_from([0.5, 1.0, 2.0, 2.5])),
                          severity_clip=draw(st.sampled_from(
                              [0.75, 1.0, 3.0, 4.5])))
    near_k = [cfg.k + d for d in (-0.0006, -0.0004, 0.0004, 0.0006)]
    edges = [cfg.k, -cfg.k, cfg.severity_clip, -cfg.severity_clip,
             *near_k, *(-v for v in near_k),
             0.0, -0.0, 2.0 ** 42, -2.0 ** 42, 1e300, -1e300]
    value = st.sampled_from(edges) | st.floats(allow_nan=False,
                                               allow_infinity=False)
    scored = draw(st.lists(st.sampled_from(JOINT_NAMES), unique=True))
    angles = {j: np.array(draw(st.lists(value, min_size=GRID,
                                        max_size=GRID)))
              if j in scored else np.full(GRID, np.nan)
              for j in JOINT_NAMES}
    cycle = NormalizedCycle("typical", GRID, angles,
                            {j: j in scored for j in JOINT_NAMES}, "c0")
    return cfg, cycle


@hypothesis.given(_scored_cycles())
def test_reloaded_report_equals_the_built_one(case):
    cfg, cycle = case
    report = build_report(cycle, MODEL, cfg)
    for joint, z in report.z.items():
        # mean 0 and SD 1: the unrounded z is the angle itself
        assert z.tobytes() == np.array(
            [at_thousandths(v) for v in cycle.angles[joint].tolist()]).tobytes()
    loaded = load_report(save_report(report))
    assert_same_judgment(loaded, report)
    assert loaded.config == cfg
    assert loaded.unknown_joints == report.unknown_joints
    assert severity_matrix(loaded).tobytes() == \
        severity_matrix(report).tobytes()
    expected = reference_report(cycle, MODEL, cfg)
    assert_same_judgment(report, expected)
    assert report.unknown_joints == expected["unknown_joints"]


@hypothesis.given(_scored_cycles())
def test_stored_z_is_within_a_thousandth_and_decides_the_flags(case):
    cfg, cycle = case
    report = build_report(cycle, MODEL, cfg)
    for joint, z in report.z.items():
        for stored, exact, flag in zip(z.tolist(),
                                       cycle.angles[joint].tolist(),
                                       report.flag[joint].tolist()):
            bound = thousandths_bound(exact)
            assert abs(stored - exact) <= bound
            # the flag is decided on the stored z: it can differ from the
            # unrounded z's only within rounding distance of k
            assert flag == (abs(stored) > cfg.k)
            if abs(abs(exact) - cfg.k) > bound:
                assert flag == (abs(exact) > cfg.k)
