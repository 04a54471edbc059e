import logging
import math

import numpy as np
import pytest

from gaitnorm import (NormalizedCycle, ValidationError, build_normative_model,
                      save_norm_model)
from gaitnorm.synth import demo_profiles, generate_cohort, noise_free_curve

from helpers import altered_cycle, build_norm_file


def _cycle(value, cycle_id, label="typical", joint="left_knee", grid=101,
           valid=True):
    return NormalizedCycle(
        label=label, grid_points=grid,
        angles={joint: np.full(grid, float(value))},
        valid={joint: valid},
        cycle_id=cycle_id)


class TestBuild:
    def test_identical_cycles_zero_std(self):
        model = build_normative_model([_cycle(90, "a"), _cycle(90, "b")], 101)
        jn = model.joints["left_knee"]
        np.testing.assert_allclose(jn.mean, 90.0)
        np.testing.assert_allclose(jn.std, 0.0)
        assert jn.n_cycles == 2

    def test_sample_std_hand_case(self):
        cycles = [_cycle(80, "a"), _cycle(90, "b"), _cycle(100, "c")]
        model = build_normative_model(cycles, 101)
        jn = model.joints["left_knee"]
        np.testing.assert_allclose(jn.mean, 90.0)
        np.testing.assert_allclose(jn.std, 10.0)  # sample SD of {80,90,100}

    def test_population_std_hand_case(self):
        cycles = [_cycle(80, "a"), _cycle(90, "b"), _cycle(100, "c")]
        model = build_normative_model(cycles, 101, std_kind="population")
        np.testing.assert_allclose(model.joints["left_knee"].std,
                                   math.sqrt(200.0 / 3.0))

    def test_underpopulated_joint_omitted_with_warning(self, caplog):
        lonely = NormalizedCycle(
            label="typical", grid_points=101,
            angles={"left_knee": np.full(101, 90.0),
                    "left_elbow": np.full(101, 150.0)},
            valid={"left_knee": True, "left_elbow": True},
            cycle_id="a")
        other = _cycle(92, "b")
        with caplog.at_level(logging.WARNING):
            model = build_normative_model([lonely, other], 101)
        assert "left_elbow" not in model.joints
        assert "left_knee" in model.joints
        assert any("left_elbow" in r.message for r in caplog.records)

    def test_invalid_joint_data_not_counted(self):
        cycles = [_cycle(90, "a"), _cycle(94, "b"),
                  _cycle(200, "c", valid=False)]
        cycles[2].angles["left_knee"][:] = np.nan
        model = build_normative_model(cycles, 101)
        assert model.joints["left_knee"].n_cycles == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="no joint is valid in 2 or "
                                                  "more of the 0 typical"):
            build_normative_model([], 101)

    # The same rule refuses every model without a joint valid in 2 or
    # more cycles.
    @pytest.mark.parametrize("cycles", [
        [_cycle(90, "a")],
        [_cycle(90, "a", valid=False), _cycle(90, "b", valid=False)],
        [_cycle(90, "a", joint="left_hip"), _cycle(90, "b")]],
        ids=["one-cycle", "every-joint-invalid", "no-joint-twice"])
    def test_no_joint_in_two_cycles_rejected(self, cycles):
        with pytest.raises(ValidationError, match=(
                r"^cannot build a normative model: no joint is valid in 2 "
                rf"or more of the {len(cycles)} typical cycle\(s\)$")):
            build_normative_model(cycles, 101)

    def test_mixed_grids_rejected(self):
        with pytest.raises(ValidationError, match="mixed grid"):
            build_normative_model([_cycle(90, "a"), _cycle(90, "b", grid=51)],
                                  101)

    def test_atypical_rejected(self):
        with pytest.raises(ValidationError, match="typical"):
            build_normative_model([_cycle(90, "a"),
                                   _cycle(90, "b", label="atypical")], 101)

    def test_bad_std_kind_rejected(self):
        with pytest.raises(ValidationError, match="std_kind"):
            build_normative_model([_cycle(90, "a"), _cycle(90, "b")], 101,
                                  std_kind="robust")


class TestInvariants:
    def test_permutation_invariance_bit_identical(self):
        cohort = generate_cohort(demo_profiles(), 24, seed=400)
        shuffled = list(cohort)
        np.random.default_rng(1).shuffle(shuffled)
        a = save_norm_model(build_normative_model(cohort, 101))
        b = save_norm_model(build_normative_model(shuffled, 101))
        assert a == b

    def test_repeated_cycle_ids_order_invariant(self):
        # All ids equal: the id alone leaves the reduction order to the
        # input order, and float sums depend on it.
        cohort = [NormalizedCycle(label=c.label, grid_points=c.grid_points,
                                  angles=c.angles, valid=c.valid,
                                  cycle_id="synth-0")
                  for c in generate_cohort(demo_profiles(), 30, seed=0)]
        shuffled = list(cohort)
        np.random.default_rng(2).shuffle(shuffled)
        forward = build_normative_model(cohort, 101)
        for other in (cohort[::-1], shuffled):
            model = build_normative_model(other, 101)
            assert save_norm_model(model) == save_norm_model(forward)

    def test_build_norm_file_ignores_cycle_order(self, tmp_path):
        # Shared ids, invalid joints and atypical cycles among them: the
        # model file is the same bytes for every order of the cycles file.
        cohort = generate_cohort(demo_profiles(), 12, seed=600)
        cohort = [altered_cycle(
            c, cycle_id="shared" if i % 3 == 0 else None,
            label="atypical" if i == 5 else None,
            invalid={"left_knee", "right_hip"} if i % 4 == 1 else ())
            for i, c in enumerate(cohort)]
        forward = build_norm_file(cohort, tmp_path)
        assert b'"n_cycles":9' in forward and b'"n_cycles":11' in forward
        rng = np.random.default_rng(3)
        for _ in range(3):
            order = rng.permutation(len(cohort)).tolist()
            assert build_norm_file([cohort[i] for i in order],
                                   tmp_path) == forward
        assert build_norm_file(cohort[::-1], tmp_path) == forward

    def test_population_std_unchanged_under_duplication(self):
        cohort = generate_cohort(demo_profiles(), 16, seed=500)
        doubled = cohort + [
            NormalizedCycle(label=c.label, grid_points=c.grid_points,
                            angles={j: a.copy() for j, a in c.angles.items()},
                            valid=dict(c.valid),
                            cycle_id=c.cycle_id + "-dup")
            for c in cohort]
        base = build_normative_model(cohort, 101, std_kind="population")
        dup = build_normative_model(doubled, 101, std_kind="population")
        for j in base.joints:
            np.testing.assert_allclose(dup.joints[j].std, base.joints[j].std,
                                       atol=1e-12)
            np.testing.assert_allclose(dup.joints[j].mean, base.joints[j].mean,
                                       atol=1e-12)

    def test_std_converges_to_true_sigma(self):
        profiles = demo_profiles()
        cohort = generate_cohort(profiles, 500, seed=600)
        model = build_normative_model(cohort, 101)
        sigma = 2.0
        for joint, jn in model.joints.items():
            bad = np.mean(np.abs(jn.std - sigma) > 0.15 * sigma)
            assert bad <= 0.01, f"{joint}: {bad:.3f} of grid points off"


class TestSummary:
    """The counts ``build-norm`` prints and the band's extremes."""

    def test_total_matches_cohort_size(self):
        cohort = generate_cohort(demo_profiles(), 351, seed=700)
        model = build_normative_model(cohort, 101)
        assert len(model.provenance) == 351
        assert len(model.joints) == 10

    def test_identical_cycles_max_std_zero(self):
        model = build_normative_model([_cycle(90, "a"), _cycle(90, "b")], 101)
        assert model.joints["left_knee"].std.max() == 0.0

    def test_mean_tracks_noise_free_curve(self):
        profiles = demo_profiles()
        model = build_normative_model(generate_cohort(profiles, 200, seed=800),
                                      101)
        for joint, jn in model.joints.items():
            truth = noise_free_curve(profiles[joint], 101)
            assert np.max(np.abs(jn.mean - truth)) < 1.0
