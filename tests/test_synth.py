import hashlib

import numpy as np
import pytest

from gaitnorm import (ValidationError, build_normative_model, generate_cohort,
                      generate_cycle, inject_abnormality, noise_free_curve,
                      save_cycles)
from gaitnorm.kinematics import angle_series_set
from gaitnorm.cycles import resample_cycle, segment_cycles
from gaitnorm.pose_io import serialize_pose_sequence
from gaitnorm.synth import (AbnormalitySpec, JointProfile, demo_profiles,
                            generate_pose_sequence, profiles_from_json)


FLAT = {"left_knee": JointProfile(baseline_deg=90.0)}
ONE_HARMONIC = {"left_knee": JointProfile(90.0, ((10.0, 1, 0.0),))}


class TestGenerateCycle:
    def test_flat_profile(self):
        cycle = generate_cycle(FLAT, 101, seed=1)
        np.testing.assert_array_equal(cycle.angles["left_knee"],
                                      np.full(101, 90.0))
        assert cycle.label == "typical"
        assert cycle.valid["left_knee"]

    def test_same_seed_identical(self):
        profiles = demo_profiles()
        assert generate_cycle(profiles, 101, 7) == generate_cycle(profiles, 101, 7)

    def test_different_seeds_differ(self):
        profiles = demo_profiles()
        assert generate_cycle(profiles, 101, 7) != generate_cycle(profiles, 101, 8)

    def test_harmonic_peak_at_quarter_cycle(self):
        cycle = generate_cycle(ONE_HARMONIC, 101, seed=1)
        assert cycle.angles["left_knee"][25] == pytest.approx(100.0, abs=1e-12)

    def test_insertion_order_does_not_matter(self):
        profiles = demo_profiles()
        reordered = dict(reversed(list(profiles.items())))
        a = generate_cycle(profiles, 101, 3)
        b = generate_cycle(reordered, 101, 3)
        assert a == b

    def test_out_of_range_profile_rejected(self):
        bad = {"left_knee": JointProfile(175.0, ((10.0, 1, 0.0),))}
        with pytest.raises(ValidationError, match=r"\[0, 180\]"):
            generate_cycle(bad, 101, 1)

    def test_values_clamped(self):
        nearly = {"left_knee": JointProfile(179.0, noise_sd_deg=5.0)}
        cycle = generate_cycle(nearly, 101, seed=2)
        assert cycle.angles["left_knee"].max() <= 180.0


class TestGenerateCohort:
    def test_sizes_and_labels(self):
        cohort = generate_cohort(demo_profiles(), 351, seed=0)
        assert len(cohort) == 351
        assert all(c.label == "typical" for c in cohort)

    def test_singleton(self):
        (only,) = generate_cohort(FLAT, 1, seed=5)
        assert only.cycle_id == "synth-5"

    def test_no_two_identical_with_noise(self):
        cohort = generate_cohort(demo_profiles(), 30, seed=0)
        for i in range(len(cohort)):
            for j in range(i + 1, len(cohort)):
                assert cohort[i] != cohort[j]

    def test_byte_for_byte_determinism(self):
        a = save_cycles(generate_cohort(demo_profiles(), 12, seed=9))
        b = save_cycles(generate_cohort(demo_profiles(), 12, seed=9))
        assert a == b

    def test_zero_size_rejected(self):
        with pytest.raises(ValidationError):
            generate_cohort(FLAT, 0, seed=0)

    def test_mean_recovery(self):
        # a 500-cycle cohort recovers each noise-free curve to 0.2 deg RMS
        profiles = demo_profiles()
        model = build_normative_model(generate_cohort(profiles, 500, seed=0),
                                      101)
        for joint, jn in model.joints.items():
            truth = noise_free_curve(profiles[joint], 101)
            rms = np.sqrt(np.mean((jn.mean - truth) ** 2))
            assert rms < 0.2, f"{joint}: RMS {rms:.3f}"


class TestInjectAbnormality:
    def test_offset_exact_inside_ramped_at_edges(self):
        profiles = {"left_knee": JointProfile(90.0, ((10.0, 1, 0.0),), 2.0),
                    "left_hip": JointProfile(120.0, (), 2.0)}
        cycle = generate_cycle(profiles, 101, seed=11)
        spec = AbnormalitySpec("left_knee", (30.0, 60.0), "offset", 15.0)
        out = inject_abnormality(cycle, spec)
        before = cycle.angles["left_knee"]
        after = out.angles["left_knee"]
        # full offset from the second in-window point to the second-to-last
        np.testing.assert_array_equal(after[32:59], before[32:59] + 15.0)
        # half-strength ramp on the first and last in-window points
        assert after[30] - before[30] == pytest.approx(7.5, abs=1e-9)
        assert after[60] - before[60] == pytest.approx(7.5, abs=1e-9)
        # untouched outside the window
        np.testing.assert_array_equal(after[:30], before[:30])
        np.testing.assert_array_equal(after[61:], before[61:])
        # other joints untouched
        np.testing.assert_array_equal(out.angles["left_hip"],
                                      cycle.angles["left_hip"])

    def test_amplitude_scale_identity(self):
        cycle = generate_cycle(demo_profiles(), 101, seed=12)
        spec = AbnormalitySpec("left_knee", (10.0, 90.0), "amplitude_scale", 1.0)
        assert inject_abnormality(cycle, spec) == cycle

    def test_amplitude_scale_expands_deviation(self):
        cycle = generate_cycle(ONE_HARMONIC, 101, seed=1)
        spec = AbnormalitySpec("left_knee", (0.0, 100.0), "amplitude_scale", 2.0)
        out = inject_abnormality(cycle, spec)
        # interior points (full weight): deviation from the grid mean doubles
        ref = cycle.angles["left_knee"].mean()
        inner = slice(2, 99)
        np.testing.assert_allclose(
            out.angles["left_knee"][inner] - ref,
            2.0 * (cycle.angles["left_knee"][inner] - ref), atol=1e-9)

    def test_phase_shift_moves_curve(self):
        cycle = generate_cycle(ONE_HARMONIC, 101, seed=1)
        spec = AbnormalitySpec("left_knee", (20.0, 80.0), "phase_shift", 10.0)
        out = inject_abnormality(cycle, spec)
        before = cycle.angles["left_knee"]
        after = out.angles["left_knee"]
        # full-weight interior: value equals the curve 10% earlier
        np.testing.assert_allclose(after[30:71], before[20:61], atol=1e-9)
        np.testing.assert_array_equal(after[:20], before[:20])

    def test_reversed_window_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            AbnormalitySpec("left_knee", (60.0, 30.0), "offset", 5.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            AbnormalitySpec("left_knee", (10.0, 20.0), "wobble", 5.0)

    def test_unknown_joint_rejected(self):
        cycle = generate_cycle(FLAT, 101, seed=1)
        with pytest.raises(ValidationError, match="not present"):
            inject_abnormality(cycle, AbnormalitySpec(
                "right_knee", (10.0, 20.0), "offset", 5.0))

    def test_locality_property(self):
        rng = np.random.default_rng(44)
        cycle = generate_cycle(demo_profiles(), 101, seed=13)
        for _ in range(50):
            start = float(rng.integers(0, 90))
            end = float(rng.integers(int(start) + 5, 101))
            kind = ("offset", "amplitude_scale", "phase_shift")[rng.integers(3)]
            magnitude = {"offset": 8.0, "amplitude_scale": 1.5,
                         "phase_shift": 5.0}[kind]
            out = inject_abnormality(cycle, AbnormalitySpec(
                "left_knee", (start, end), kind, magnitude))
            percent = np.linspace(0, 100, 101)
            outside = (percent < start) | (percent > end)
            np.testing.assert_array_equal(
                out.angles["left_knee"][outside],
                cycle.angles["left_knee"][outside])


class TestProfilesJson:
    def test_parses_the_documented_format(self):
        doc = (b'{"left_knee": {"baseline_deg": 145.0, "noise_sd_deg": 2.0,'
               b' "harmonics": [[18.0, 1, -1.5708], [10.0, 2, 0.0]]},'
               b' "right_knee": {"baseline_deg": 90}}')
        assert profiles_from_json(doc) == {
            "left_knee": JointProfile(
                145.0, ((18.0, 1, -1.5708), (10.0, 2, 0.0)), 2.0),
            "right_knee": JointProfile(90.0)}

    def test_cycles_past_the_float_range_name_the_profile(self):
        cycles = b"1" + b"0" * 400
        doc = b'{"left_knee": {"baseline_deg": 90, "harmonics": [[1, %s, 0]]}}'
        with pytest.raises(ValidationError,
                           match="profile 'left_knee' harmonic cycles"):
            profiles_from_json(doc % cycles)

    def test_demo_profiles_cover_standard_joints(self):
        from gaitnorm.kinematics import JOINT_NAMES
        assert set(demo_profiles()) == set(JOINT_NAMES)

    def test_demo_curves_stay_physical(self):
        for joint, p in demo_profiles().items():
            curve = noise_free_curve(p, 101)
            assert curve.min() >= 0.0 and curve.max() <= 180.0, joint


class TestGeneratePoseSequence:
    def test_deterministic(self):
        a, ann_a = generate_pose_sequence(seed=3)
        b, ann_b = generate_pose_sequence(seed=3)
        assert a == b and ann_a == ann_b

    def test_negative_seed_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, "
                                                  r"got -1$"):
            generate_pose_sequence(seed=-1)

    def test_annotations_tile_the_video(self):
        seq, anns = generate_pose_sequence(n_cycles=4, frames_per_cycle=30)
        assert len(anns) == 4
        assert anns[0].start_frame == 0
        assert anns[-1].end_frame == 120
        for prev, nxt in zip(anns, anns[1:]):
            assert prev.end_frame == nxt.start_frame
        assert anns[-1].label == "atypical"
        assert len(seq.frames) == 121

    def test_feeds_the_whole_pipeline(self):
        seq, anns = generate_pose_sequence(n_cycles=3, frames_per_cycle=24,
                                           seed=5, atypical_last=False)
        series = angle_series_set(seq)
        slices = segment_cycles(series, anns, video_id=seq.video_id)
        cycles = [resample_cycle(s, 101) for s in slices]
        assert all(all(c.valid.values()) for c in cycles)
        model = build_normative_model(cycles, 101)
        assert len(model.joints) == 10

    # The serialized walker at the benchmark's two walker shapes (smoke
    # sizes): (cycles, frames per cycle) -> seed -> sha256.  The bench
    # inputs, and with them every bench digest, depend on these bytes.
    WALKER_SHA256 = {
        (6, 30): {
            1: "2a6fc2a1259735f6fd33790d02032b4e71c6d89d49aaf8b01f8e37e7b83a7250",
            2: "d977213af4803ec649f59aafc0dbb538d96fa06270494ed2ef9bbdb3871be1ef",
        },
        (3, 400): {
            1: "83e222cec25d0dded939f1dbb4ad17fe22dcf1ddc6c9431d5b6644b51af9c9d0",
            2: "d581f2c4eb34c180decd77dde20dcc7ab7d9feba6cf1e6ca250dc980f4f8cd2f",
        },
    }

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("shape", sorted(WALKER_SHA256))
    def test_serialized_walker_bytes_are_pinned(self, shape, seed):
        seq, _ = generate_pose_sequence(n_cycles=shape[0],
                                        frames_per_cycle=shape[1], seed=seed)
        digest = hashlib.sha256(serialize_pose_sequence(seq)).hexdigest()
        assert digest == self.WALKER_SHA256[shape][seed]
        assert seq.keypoints.shape == (shape[0] * shape[1] + 1, 16, 3)
        assert (seq.time_s == seq.frame_index / 30.0).all()
