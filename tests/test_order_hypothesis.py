"""Property check: the order of a cohort's cycles never changes the model
file ``gaitnorm build-norm`` writes.

``normative._canonical_order`` sorts the cycles before their angles are
summed, by id and then by contents, so the float sums run in one order
whatever the order of the cycles file.  Runs only where hypothesis is
installed; ``test_normative.py`` holds a seeded case without it.
"""

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm.kinematics import JOINT_NAMES  # noqa: E402
from gaitnorm.synth import demo_profiles, generate_cohort  # noqa: E402

from helpers import altered_cycle, build_norm_file  # noqa: E402

_PROFILES = demo_profiles()


@st.composite
def _cohorts(draw):
    """(cycles, a permutation of them): ids shared or not, some joints
    invalid, some cycles atypical."""
    n = draw(st.integers(2, 12))
    cohort = generate_cohort(_PROFILES, n, draw(st.integers(0, 10 ** 6)),
                             grid_points=draw(st.sampled_from([2, 5, 101])))
    cycles = [altered_cycle(
        c, cycle_id=draw(st.sampled_from([None, "", "a", "a", "a"])),
        label=draw(st.sampled_from([None, None, None, "atypical"])),
        invalid=draw(st.sets(st.sampled_from(JOINT_NAMES), max_size=10)))
        for c in cohort]
    return cycles, draw(st.permutations(cycles))


@hypothesis.settings(deadline=None)
@hypothesis.given(_cohorts())
def test_model_file_is_the_same_for_every_cycle_order(cohort):
    cycles, permuted = cohort
    with tempfile.TemporaryDirectory() as tmp:
        assert build_norm_file(permuted, Path(tmp)) == \
            build_norm_file(cycles, Path(tmp))
