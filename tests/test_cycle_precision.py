"""Cycle angles at 1/1000 deg (0.10.0).

Every stage that computes a cycle angle rounds it there: resampling, the
synthetic cohort and abnormality injection.  ``save_cycles`` writes what
it is given and ``load_cycles`` never rounds, so a file round-trips
exactly, full-precision files written before 0.10.0 included.
``load_cycles`` checks a file's angles as one array; on any invalid value
it raises what the per-cycle check (``helpers.reference_load_cycles``)
raises.  Since 0.11.0 a joint's ``valid`` flag that is not JSON ``true``
or ``false`` is such a value.
"""

import json

import numpy as np
import pytest

from gaitnorm import (ValidationError, generate_cohort, generate_cycle,
                      inject_abnormality, load_cycles, resample_cycle,
                      save_cycles, segment_cycles)
from gaitnorm.cli import main
from gaitnorm.kinematics import angle_series_set
from gaitnorm.synth import AbnormalitySpec, JointProfile, demo_profiles

from helpers import (altered_cycle, assert_rounded, at_thousandths,
                     load_outcome, occluded_walker, reference_load_cycles,
                     unrounded, with_raw_json)


def assert_at_thousandths(cycle, exact):
    """Every valid angle of ``cycle`` is ``exact``'s, rounded."""
    assert cycle.valid == exact.valid
    assert any(cycle.valid.values())
    for joint, ok in cycle.valid.items():
        if ok:
            assert_rounded(cycle.angles[joint], exact.angles[joint])
        else:
            assert np.isnan(cycle.angles[joint]).all()


CLIPPING = {  # noise pushes these past both ends of [0, 180]
    "low": JointProfile(2.0, ((1.0, 1, 0.0),), 6.0),
    "high": JointProfile(178.0, ((1.0, 2, 1.0),), 6.0),
    "flat": JointProfile(90.0),
}


class TestComputedAnglesAtThousandths:
    @pytest.mark.parametrize("time_phases", [False, True])
    def test_resample_cycle(self, time_phases):
        seq, anns = occluded_walker()
        times = None if not time_phases else dict(zip(
            seq.frame_index.tolist(), (seq.time_s * 1.03).tolist()))
        slices = segment_cycles(angle_series_set(seq), anns, video_id="v",
                                frame_times=times)
        for s in slices:
            assert_at_thousandths(resample_cycle(s),
                                  unrounded("cycles", resample_cycle, s))

    @pytest.mark.parametrize("grid_points", [2, 7, 101])
    @pytest.mark.parametrize("seed", [0, 1, 19])
    def test_generate_cycle(self, grid_points, seed):
        for profiles in (demo_profiles(), CLIPPING):
            cycle = generate_cycle(profiles, grid_points, seed)
            assert_at_thousandths(cycle, unrounded(
                "synth", generate_cycle, profiles, grid_points, seed))

    def test_clipped_values_stay_at_the_bounds(self):
        values = np.concatenate([generate_cycle(CLIPPING, 101, s).angles[j]
                                 for s in range(20) for j in ("low", "high")])
        assert (values == 0.0).any() and (values == 180.0).any()

    def test_generate_cohort(self):
        cohort = generate_cohort(demo_profiles(), 12, seed=40)
        exact = unrounded("synth", generate_cohort, demo_profiles(), 12, 40)
        for cycle, want in zip(cohort, exact, strict=True):
            assert_at_thousandths(cycle, want)

    @pytest.mark.parametrize("kind, magnitude", [
        ("offset", 7.3), ("offset", -200.0), ("offset", 200.0),
        ("amplitude_scale", 1.7), ("phase_shift", 13.3)])
    def test_inject_abnormality(self, kind, magnitude):
        spec = AbnormalitySpec("left_knee", (10.0, 57.5), kind, magnitude)
        # Full-precision angles in: the changed joint comes out rounded,
        # every other joint exactly as it went in.
        base = unrounded("synth", generate_cycle, demo_profiles(), 101, 3)
        cycle = inject_abnormality(base, spec)
        exact = unrounded("synth", inject_abnormality, base, spec)
        assert_rounded(cycle.angles["left_knee"], exact.angles["left_knee"])
        for joint, values in cycle.angles.items():
            if joint != "left_knee":
                assert values is base.angles[joint]


def _cohort(seed=7, n=6, grid_points=101):
    """A cohort with invalid joints, a null id and an atypical cycle."""
    cycles = generate_cohort(demo_profiles(), n, seed, grid_points)
    cycles[1] = altered_cycle(cycles[1], invalid=("left_knee", "right_hip"))
    cycles[2] = altered_cycle(cycles[2], label="atypical")
    cycles[3].cycle_id = None
    return cycles


class TestLoadCyclesRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_rounded_cohorts(self, seed):
        cycles = _cohort(seed, n=4 + seed, grid_points=2 + 20 * seed)
        loaded = load_cycles(save_cycles(cycles))
        assert loaded == cycles
        assert loaded == reference_load_cycles(save_cycles(cycles))

    def test_full_precision_angles_load_exactly(self):
        cycles = unrounded("synth", generate_cohort, demo_profiles(), 4, 9)
        loaded = load_cycles(save_cycles(cycles))
        assert loaded == cycles
        assert any(at_thousandths(v) != v for c in loaded
                   for a in c.angles.values() for v in a.tolist())

    def test_each_valid_joint_is_a_row_of_one_array(self):
        loaded = load_cycles(save_cycles(_cohort()))
        rows = [a for c in loaded for j, a in c.angles.items() if c.valid[j]]
        assert len({id(a.base) for a in rows}) == 1
        assert rows[0].base.shape == (len(rows), 101)
        assert rows[0].base.dtype == np.float64


def _doc():
    return json.loads(save_cycles(_cohort()))


def _angle(i, joint, k=None):
    path = ("cycles", i, "joints", joint, "angle")
    return path if k is None else path + (k,)


def _valid(i, joint):
    return ("cycles", i, "joints", joint, "valid")


# (path, raw JSON token, the message the per-cycle check raises)
MUTATIONS = {
    "bool": (_angle(2, "left_knee", 5), "true",
             "cycle 2 joint 'left_knee' angle must be a number, got True"),
    "string": (_angle(2, "left_knee", 5), '"90"',
               "cycle 2 joint 'left_knee' angle must be a number, got '90'"),
    "null": (_angle(2, "left_knee", 0), "null",
             "cycle 2 joint 'left_knee' angle must be a number, got None"),
    "nan": (_angle(4, "right_ankle", 100), "NaN",
            "cycle 4 joint 'right_ankle' angle must be finite, got nan"),
    "1e400": (_angle(4, "right_ankle", 3), "1e400",
              "cycle 4 joint 'right_ankle' angle must be finite, got inf"),
    "-infinity": (_angle(0, "left_hip", 3), "-Infinity",
                  "cycle 0 joint 'left_hip' angle must be finite, got -inf"),
    "huge-int": (_angle(0, "left_hip", 3), "1" + "0" * 400,
                 "cycle 0 joint 'left_hip' angle must be finite, got an "
                 "integer too large for a float"),
    "below-0": (_angle(5, "right_elbow", 50), "-0.1",
                "cycle 5 joint 'right_elbow': angles must be in [0, 180]"),
    "above-180": (_angle(5, "right_elbow", 50), "180.1",
                  "cycle 5 joint 'right_elbow': angles must be in [0, 180]"),
    "nested-list": (_angle(3, "left_ankle", 7), "[1.0]",
                    "cycle 3 joint 'left_ankle' angle must be a number, "
                    "got [1.0]"),
    "short": (_angle(3, "left_ankle"), "[1.0, 2.0]",
              "cycle 3 joint 'left_ankle' angle: expected an array of "
              "length 101"),
    "long": (_angle(3, "left_ankle"), "[" + ", ".join(["1.0"] * 102) + "]",
             "cycle 3 joint 'left_ankle' angle: expected an array of "
             "length 101"),
    "not-a-list": (_angle(3, "left_ankle"), '{"0": 1.0}',
                   "cycle 3 joint 'left_ankle' angle: expected an array of "
                   "length 101"),
    "null-angle": (_angle(3, "left_ankle"), "null",
                   "cycle 3 joint 'left_ankle' angle: expected an array of "
                   "length 101"),
    "truthy-valid": (_valid(1, "left_knee"), '"no"',
                     "cycle 1 joint 'left_knee': 'valid' must be true or "
                     "false, got 'no'"),
    # 0.11.0: a flag is only true or false, so "false" and 1 no longer
    # load as valid, nor 0 with a real angle list as invalid
    "string-false-valid": (_valid(3, "right_knee"), '"false"',
                           "cycle 3 joint 'right_knee': 'valid' must be "
                           "true or false, got 'false'"),
    "one-valid": (_valid(1, "left_knee"), "1",
                  "cycle 1 joint 'left_knee': 'valid' must be true or "
                  "false, got 1"),
    "zero-valid": (_valid(0, "left_knee"), "0",
                   "cycle 0 joint 'left_knee': 'valid' must be true or "
                   "false, got 0"),
    "float-valid": (_valid(0, "left_knee"), "1.0",
                    "cycle 0 joint 'left_knee': 'valid' must be true or "
                    "false, got 1.0"),
    "null-valid": (_valid(2, "right_hip"), "null",
                   "cycle 2 joint 'right_hip': 'valid' must be true or "
                   "false, got None"),
    "no-valid": (("cycles", 2, "joints", "right_hip"), '{"angle": null}',
                 "cycle 2 joint 'right_hip': 'valid' must be true or "
                 "false, got None"),
    "list-valid": (_valid(4, "left_hip"), "[true]",
                   "cycle 4 joint 'left_hip': 'valid' must be true or "
                   "false, got [True]"),
    "label": (("cycles", 2, "label"), '"walking"',
              "cycle 2: unknown label 'walking'"),
    "null-label": (("cycles", 2, "label"), "null",
                   "cycle 2: unknown label None"),
    "id": (("cycles", 1, "cycle_id"), "5",
           "cycle 1: cycle_id must be a string or null"),
    "list-id": (("cycles", 1, "cycle_id"), '["a"]',
                "cycle 1: cycle_id must be a string or null"),
    "joints": (("cycles", 3, "joints"), "[]",
               "cycle 3: 'joints' must be an object"),
    "joint-entry": (("cycles", 3, "joints", "left_knee"), "[true]",
                    "cycle 3 joint 'left_knee' must be an object"),
    "cycle-entry": (("cycles", 5), '"c5"', "cycle 5 must be an object"),
}


class TestLoadCyclesErrors:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_raises_the_per_cycle_message(self, name):
        path, token, message = MUTATIONS[name]
        data = with_raw_json(_doc(), [(path, token)])
        assert load_outcome(reference_load_cycles, data) == ("error", message)
        with pytest.raises(ValidationError) as exc:
            load_cycles(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("first, second", [
        # a value fault before a fault of the entry's type
        ("nan", "cycle-entry"),
        ("huge-int", "cycle-entry"),
        ("short", "cycle-entry"),
        ("label", "nan"),
        ("id", "null-label"),
        ("joint-entry", "below-0"),
        ("zero-valid", "bool"),
        ("truthy-valid", "label"),
        ("label", "string-false-valid"),
    ])
    def test_the_first_fault_in_file_order_is_named(self, first, second):
        (p1, t1, message), (p2, t2, _) = MUTATIONS[first], MUTATIONS[second]
        assert p1[1] < p2[1]
        data = with_raw_json(_doc(), [(p1, t1), (p2, t2)])
        assert load_outcome(load_cycles, data) == ("error", message)
        assert load_outcome(reference_load_cycles, data) == ("error", message)

    def test_first_joint_in_a_cycle_is_named(self):
        data = with_raw_json(_doc(), [(_angle(4, "right_ankle", 0), "181"),
                                      (_angle(4, "left_hip", 0), "true")])
        # left_hip comes before right_ankle in the file
        assert load_outcome(load_cycles, data) == (
            "error", "cycle 4 joint 'left_hip' angle must be a number, "
                     "got True")

    def test_build_norm_refuses_a_flag_that_is_not_a_boolean(
            self, tmp_path, capsys):
        # "false" and 1 used to load as valid, so both angle lists
        # entered the model
        data = with_raw_json(_doc(), [(_valid(0, "left_knee"), '"false"'),
                                      (_valid(2, "left_knee"), "1")])
        cycles, model = tmp_path / "cohort.json", tmp_path / "model.json"
        cycles.write_bytes(data)
        assert main(["build-norm", "--cycles", str(cycles),
                     "--out", str(model)]) == 1
        assert not model.exists()
        assert capsys.readouterr().err == (
            "gaitnorm: validation error: cycle 0 joint 'left_knee': 'valid' "
            "must be true or false, got 'false'\n")

    @pytest.mark.parametrize("path, token", [
        (("cycles", 1, "cycle_id"), "null"),
        (_valid(0, "left_knee"), "false"),
        (("cycles", 1, "joints", "left_knee", "angle"), '"ignored"'),
        (_angle(2, "left_knee", 5), "90"),
        (_angle(2, "left_knee", 5), "-0.0"),
        (_angle(2, "left_knee", 5), "180"),
        (("cycles", 0, "joints"), "{}"),
    ])
    def test_valid_edits_load_as_the_per_cycle_loader_loads_them(
            self, path, token):
        data = with_raw_json(_doc(), [(path, token)])
        kind, cycles = load_outcome(load_cycles, data)
        assert kind == "ok"
        assert ("ok", cycles) == load_outcome(reference_load_cycles, data)
