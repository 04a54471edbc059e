"""Property checks of cycle angles and the cycles file (0.10.0).

Every angle that ``resample_cycle``, ``generate_cycle`` and
``inject_abnormality`` compute is at 1/1000 deg; a cohort round-trips
through ``save_cycles``/``load_cycles`` exactly; and a mutated cycles
file loads, or fails with the message, exactly as the per-cycle loader
``helpers.reference_load_cycles`` does.

Runs only where hypothesis is installed; ``test_cycle_precision.py``
holds seeded cases of each property that run without it.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm import (CycleAnnotation, generate_cycle,  # noqa: E402
                      inject_abnormality, load_cycles, resample_cycle,
                      save_cycles)
from gaitnorm.cycles import CycleSlice, NormalizedCycle  # noqa: E402
from gaitnorm.synth import AbnormalitySpec, JointProfile  # noqa: E402

from helpers import (assert_rounded, load_outcome,  # noqa: E402
                     reference_load_cycles, unrounded, with_raw_json)

JOINTS = ("a", "b", "c")
ANGLE = (st.floats(0.0, 180.0)
         | st.sampled_from([0.0, -0.0, 180.0, 5e-324, 179.99999999999997]))


@st.composite
def _profiles(draw):
    """Joint profiles whose noise-free curve stays in [0, 180] and whose
    noise may push samples past either end."""
    out = {}
    for joint in draw(st.lists(st.sampled_from(JOINTS), min_size=1,
                               unique=True)):
        amplitude = draw(st.floats(0.0, 20.0))
        baseline = draw(st.floats(25.0, 155.0))
        out[joint] = JointProfile(
            baseline, ((amplitude, draw(st.integers(1, 3)),
                        draw(st.floats(-4.0, 4.0))),),
            draw(st.floats(0.0, 30.0)))
    return out


@hypothesis.given(_profiles(), st.integers(2, 40), st.integers(0, 2 ** 32),
                  st.sampled_from(["offset", "amplitude_scale",
                                   "phase_shift"]),
                  st.floats(-250.0, 250.0), st.floats(0.0, 99.0),
                  st.floats(0.5, 100.0))
def test_synthetic_angles_are_at_thousandths(profiles, grid_points, seed,
                                             kind, magnitude, start, width):
    cycle = generate_cycle(profiles, grid_points, seed)
    exact = unrounded("synth", generate_cycle, profiles, grid_points, seed)
    for joint in profiles:
        assert_rounded(cycle.angles[joint], exact.angles[joint])
    joint = min(profiles)
    spec = AbnormalitySpec(joint, (start, min(start + width, 100.0)), kind,
                           magnitude)
    injected = inject_abnormality(exact, spec)
    assert_rounded(injected.angles[joint],
                    unrounded("synth", inject_abnormality, exact,
                           spec).angles[joint])


@hypothesis.given(st.integers(4, 30), st.integers(2, 30), st.data())
def test_resampled_angles_are_at_thousandths(n_knots, grid_points, data):
    # Knots at least 1% apart from 0 to 100 percent, with values past both
    # ends of [0, 180], so the spline overshoots and the clamp bites.
    inner = data.draw(st.lists(st.integers(1, 99), min_size=n_knots - 2,
                               max_size=n_knots - 2, unique=True))
    phases = np.array([0.0] + sorted(map(float, inner)) + [100.0])
    columns = {j: (phases, np.array(data.draw(st.lists(
        st.floats(-30.0, 210.0), min_size=n_knots, max_size=n_knots))))
        for j in JOINTS}
    s = CycleSlice(CycleAnnotation(0, 10, "typical"), "v", columns=columns)
    cycle = resample_cycle(s, grid_points)
    exact = unrounded("cycles", resample_cycle, s, grid_points)
    for joint in JOINTS:
        assert cycle.valid[joint]
        assert_rounded(cycle.angles[joint], exact.angles[joint])


@st.composite
def _cohorts(draw):
    grid_points = draw(st.integers(2, 12))
    cycles = []
    for i in range(draw(st.integers(1, 4))):
        joints = draw(st.lists(st.sampled_from(JOINTS), unique=True))
        valid = {j: draw(st.booleans()) for j in joints}
        cycles.append(NormalizedCycle(
            label=draw(st.sampled_from(["typical", "atypical"])),
            grid_points=grid_points,
            angles={j: np.array(draw(st.lists(ANGLE, min_size=grid_points,
                                              max_size=grid_points)))
                    if ok else np.full(grid_points, np.nan)
                    for j, ok in valid.items()},
            valid=valid,
            cycle_id=draw(st.none() | st.text(max_size=4))))
    return cycles


@hypothesis.given(_cohorts())
def test_cohorts_round_trip_exactly(cycles):
    loaded = load_cycles(save_cycles(cycles))
    assert loaded == cycles
    for got, want in zip(loaded, cycles, strict=True):
        for joint, ok in want.valid.items():
            if ok:  # -0.0 stays -0.0
                assert got.angles[joint].tobytes() == \
                    want.angles[joint].tobytes()


# Raw JSON put in place of one value of a cycles file.
TOKENS = ["true", "false", "null", '"90"', "NaN", "Infinity", "-Infinity",
          "1e400", "-0.1", "180.1", "-0.0", "0", "180", "90.5", "[]",
          "[1.0]", "{}", '{"angle": null}', "1" + "0" * 400, "1",
          '"false"']
VALID_ANGLES = ("-0.0", "0", "1", "180", "90.5")


def _paths(doc):
    """Every path whose value a mutation may replace."""
    for i, cycle in enumerate(doc["cycles"]):
        yield ("cycles", i)
        for key in ("label", "cycle_id", "joints"):
            yield ("cycles", i, key)
        for joint, entry in cycle["joints"].items():
            yield ("cycles", i, "joints", joint)
            yield ("cycles", i, "joints", joint, "valid")
            yield ("cycles", i, "joints", joint, "angle")
            for k in range(len(entry["angle"] or ())):
                yield ("cycles", i, "joints", joint, "angle", k)


@hypothesis.settings(max_examples=300)
@hypothesis.given(_cohorts().filter(lambda c: any(any(x.valid.values())
                                                  for x in c)),
                  st.data())
def test_mutated_files_load_as_the_per_cycle_loader_loads_them(cycles, data):
    doc = json.loads(save_cycles(cycles))
    paths = list(_paths(doc))
    edits = data.draw(st.lists(st.tuples(st.sampled_from(paths),
                                         st.sampled_from(TOKENS)),
                               min_size=1, max_size=3,
                               unique_by=lambda e: e[0]))
    # A replaced container takes the edits inside it with it.
    edits = [(p, t) for p, t in edits
             if not any(q != p and p[:len(q)] == q for q, _ in edits)]
    raw = with_raw_json(doc, edits)
    got = load_outcome(load_cycles, raw)
    assert got == load_outcome(reference_load_cycles, raw)
    # A bad value in the angles of a joint that stays valid must raise,
    # and so must a valid flag that is not true or false.
    edited = {p for p, _ in edits}
    if any(p[-1] == "valid" and t not in ("true", "false")
           for p, t in edits):
        assert got[0] == "error"
    if any(len(p) == 6 and t not in VALID_ANGLES
           and doc["cycles"][p[1]]["joints"][p[3]]["valid"]
           and p[:4] + ("valid",) not in edited for p, t in edits):
        assert got[0] == "error"
