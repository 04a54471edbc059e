"""Seeded synthetic cohorts with known ground truth.

Cycles are built from harmonic joint profiles: a baseline angle plus a
few sinusoids over the gait cycle plus i.i.d. Gaussian noise per grid
point.  Two harmonics are enough to imitate the double-bump shape of
knee/hip flexion curves qualitatively; none of the shipped parameters are
clinical norms, they exist so the pipeline can be tested end to end with
a known mean curve and noise level.

Everything is deterministic given the seed: the same (profiles, n, seed)
reproduce a cohort byte for byte.  ``generate_pose_sequence`` additionally
animates a full 16-keypoint skeleton so the keypoint-level pipeline can be
driven without any real video.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .cycles import DEFAULT_GRID_POINTS, NormalizedCycle
from .errors import ValidationError
from .pose_io import (CYCLE_ANGLE_DECIMALS, CycleAnnotation, PoseSequence,
                      _load_json, _require_int, _require_number,
                      _require_object, at_precision)

INJECTION_KINDS = ("offset", "amplitude_scale", "phase_shift")

# Edge ramp weights: half strength on the first/last in-window grid point,
# full strength from the second one on (raised cosine, so injected curves
# stay smooth instead of stepping).
_RAMP_LEN = 2


@dataclass(frozen=True)
class JointProfile:
    """Harmonic generator for one joint's angle curve.

    ``harmonics`` entries are (amplitude_deg, cycles_per_gait_cycle,
    phase_rad).  The noise-free curve must stay within [0, 180]; noisy
    samples are clamped back into that range.
    """

    baseline_deg: float
    harmonics: Tuple[Tuple[float, int, float], ...] = ()
    noise_sd_deg: float = 0.0


@dataclass(frozen=True)
class AbnormalitySpec:
    """A controlled deviation injected into one joint over a phase window.

    ``magnitude`` means degrees for ``offset``, a scale factor for
    ``amplitude_scale`` and percent of the cycle for ``phase_shift``.
    """

    joint: str
    window: Tuple[float, float]  # (start_percent, end_percent)
    kind: str
    magnitude: float

    def __post_init__(self):
        start, end = self.window
        if not (0.0 <= start < end <= 100.0):
            raise ValidationError(
                f"injection window must satisfy 0 <= start < end <= 100, "
                f"got {self.window}")
        if self.kind not in INJECTION_KINDS:
            raise ValidationError(
                f"unknown injection kind {self.kind!r}; expected one of "
                f"{INJECTION_KINDS}")


def noise_free_curve(profile: JointProfile,
                     grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """The profile's exact mean curve on the phase grid (no noise)."""
    percent = np.linspace(0.0, 100.0, grid_points)
    curve = np.full(grid_points, float(profile.baseline_deg))
    for amplitude, cycles, phase in profile.harmonics:
        curve = curve + amplitude * np.sin(
            2.0 * np.pi * cycles * percent / 100.0 + phase)
    return curve


def generate_cycle(profiles: Dict[str, JointProfile],
                   grid_points: int = DEFAULT_GRID_POINTS,
                   seed: int = 0) -> NormalizedCycle:
    """One typical cycle: noise-free curves plus seeded noise, at 1/1000 deg.

    Joints are processed in sorted name order so the RNG stream, and with
    it the output, is independent of dict insertion order.
    """
    if grid_points < 2:
        raise ValidationError(f"grid_points must be >= 2, got {grid_points}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    angles = {}
    valid = {}
    for joint in sorted(profiles):
        profile = profiles[joint]
        curve = noise_free_curve(profile, grid_points)
        if curve.min() < 0.0 or curve.max() > 180.0:
            raise ValidationError(
                f"profile for {joint!r} leaves [0, 180] even without noise "
                f"(range [{curve.min():.1f}, {curve.max():.1f}])")
        noisy = curve + rng.normal(0.0, profile.noise_sd_deg, grid_points)
        angles[joint] = at_precision(np.clip(noisy, 0.0, 180.0),
                                     CYCLE_ANGLE_DECIMALS)
        valid[joint] = True
    return NormalizedCycle(label="typical", grid_points=grid_points,
                           angles=angles, valid=valid,
                           cycle_id=f"synth-{seed}")


def generate_cohort(profiles: Dict[str, JointProfile],
                    n: int,
                    seed: int = 0,
                    grid_points: int = DEFAULT_GRID_POINTS,
                    ) -> List[NormalizedCycle]:
    """``n`` typical cycles drawn with consecutive seeds seed..seed+n-1."""
    if n < 1:
        raise ValidationError(f"cohort size must be >= 1, got {n}")
    return [generate_cycle(profiles, grid_points, seed + i) for i in range(n)]


def _ramp_weights(m: int) -> np.ndarray:
    """Blend weights for ``m`` in-window grid points: 0.5, then 1.0, ...
    mirrored at the far edge."""

    def edge(p: int) -> float:
        if p >= _RAMP_LEN:
            return 1.0
        return 0.5 * (1.0 - math.cos(math.pi * (p + 1) / 2.0))

    return np.array([min(edge(j), edge(m - 1 - j)) for j in range(m)])


def inject_abnormality(cycle: NormalizedCycle,
                       spec: AbnormalitySpec) -> NormalizedCycle:
    """Return a copy of ``cycle`` with ``spec`` applied to one joint.

    Outside the window nothing changes; at the window edges the deviation
    ramps in over 2 grid points; the joint is rounded to 1/1000 deg.  The
    label and cycle id are preserved (callers decide how to relabel).
    """
    if spec.joint not in cycle.angles:
        raise ValidationError(f"joint {spec.joint!r} not present in cycle")
    if not cycle.valid.get(spec.joint, False):
        raise ValidationError(f"joint {spec.joint!r} is invalid in this cycle")

    percent = np.linspace(0.0, 100.0, cycle.grid_points)
    start, end = spec.window
    inside = (percent >= start) & (percent <= end)
    idx = np.flatnonzero(inside)
    values = cycle.angles[spec.joint]
    out = values.copy()

    if idx.size:
        w = _ramp_weights(idx.size)
        if spec.kind == "offset":
            delta = spec.magnitude * w
        elif spec.kind == "amplitude_scale":
            reference = values.mean()
            delta = (spec.magnitude - 1.0) * (values[idx] - reference) * w
        else:  # phase_shift
            shifted = np.interp(percent[idx] - spec.magnitude, percent, values)
            delta = (shifted - values[idx]) * w
        out[idx] = np.clip(values[idx] + delta, 0.0, 180.0)

    angles = dict(cycle.angles)
    angles[spec.joint] = at_precision(out, CYCLE_ANGLE_DECIMALS)
    return NormalizedCycle(label=cycle.label, grid_points=cycle.grid_points,
                           angles=angles, valid=dict(cycle.valid),
                           cycle_id=cycle.cycle_id)


def demo_profiles() -> Dict[str, JointProfile]:
    """Illustrative profiles for all ten joints (not clinical norms).

    Left and right sides share a waveform half a cycle out of phase, knee
    and ankle carry a second harmonic for the double bump, and every
    joint gets 2 degrees of grid-point noise.
    """
    sd = 2.0
    base = {
        "shoulder": JointProfile(15.0, ((6.0, 1, 0.0),), sd),
        "elbow": JointProfile(155.0, ((8.0, 1, math.pi / 3),), sd),
        "hip": JointProfile(160.0, ((12.0, 1, math.pi),), sd),
        "knee": JointProfile(145.0, ((18.0, 1, -math.pi / 2), (10.0, 2, 0.0)), sd),
        "ankle": JointProfile(105.0, ((10.0, 1, math.pi / 4), (5.0, 2, math.pi / 2)), sd),
    }
    out = {}
    for kind, p in base.items():
        out[f"left_{kind}"] = p
        out[f"right_{kind}"] = JointProfile(
            p.baseline_deg,
            tuple((a, c, ph + math.pi) for a, c, ph in p.harmonics),
            p.noise_sd_deg)
    return out


def profiles_from_json(data: bytes) -> Dict[str, JointProfile]:
    """Parse and validate a joint profiles file (``synth --profiles``)::

        {"left_knee": {"baseline_deg": 145.0, "noise_sd_deg": 2.0,
                       "harmonics": [[18.0, 1, -1.5708], [10.0, 2, 0.0]]}}

    one entry per joint, ``baseline_deg`` required, harmonics (default
    none) as [amplitude_deg, cycles, phase_rad] with ``cycles`` an integer
    a float can hold, and ``noise_sd_deg`` (default 0) non-negative."""
    out = {}
    doc = _require_object(_load_json(data, "profiles file"), "profiles file")
    for joint, entry in doc.items():
        what = f"profile {joint!r}"
        harmonics = _require_object(entry, what).get("harmonics", [])
        if not isinstance(harmonics, list) or not all(
                isinstance(h, list) and len(h) == 3 for h in harmonics):
            raise ValidationError(f"{what}: harmonics must be a list of "
                                  f"[amplitude_deg, cycles, phase_rad]")
        noise_sd = _require_number(entry.get("noise_sd_deg", 0.0),
                                   f"{what} noise_sd_deg")
        if noise_sd < 0.0:
            raise ValidationError(f"{what}: noise_sd_deg must be >= 0")
        for _, cycles, _ in harmonics:  # an int that converts to a float
            _require_number(_require_int(cycles, f"{what} harmonic cycles"),
                            f"{what} harmonic cycles")
        out[joint] = JointProfile(
            baseline_deg=_require_number(entry.get("baseline_deg"),
                                         f"{what} baseline_deg"),
            harmonics=tuple((_require_number(a, f"{what} harmonic amplitude"),
                             c, _require_number(ph, f"{what} harmonic phase"))
                            for a, c, ph in harmonics),
            noise_sd_deg=noise_sd)
    return out


def generate_pose_sequence(n_cycles: int = 4,
                           frames_per_cycle: int = 30,
                           seed: int = 7,
                           video_id: str = "synthetic-walk",
                           atypical_last: bool = True,
                           ) -> Tuple[PoseSequence, List[CycleAnnotation]]:
    """Animate a 16-keypoint stick walker plus matching cycle annotations.

    The skeleton swings arms and legs harmonically with the gait phase
    and drifts rightward; a seeded sub-pixel jitter makes the cycles
    differ so a normative model built from them has non-zero spread.  The
    last cycle is labeled atypical when ``atypical_last`` so the output
    exercises both labels downstream.
    """
    if n_cycles < 1 or frames_per_cycle < 8:
        raise ValidationError("need n_cycles >= 1 and frames_per_cycle >= 8")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    fps = 30.0
    n_frames = n_cycles * frames_per_cycle + 1
    # x, y, visibility per frame, side (left, right) and landmark kind in
    # KEYPOINT_NAMES order; swapping the side and kind axes gives the
    # KEYPOINT_NAMES columns.
    keypoints = np.empty((n_frames, 2, 8, 3))
    keypoints[..., 2] = 0.97
    for t in range(n_frames):
        phi = 2.0 * math.pi * t / frames_per_cycle
        x0 = 300.0 + 1.5 * t
        shoulder_y = 200.0 + 3.0 * math.sin(2.0 * phi)
        hip_y = 320.0 + 2.0 * math.sin(2.0 * phi)
        for side, side_phase in enumerate((0.0, math.pi)):
            ps = phi + side_phase
            shoulder = (x0, shoulder_y)
            hip = (x0 + 2.0 * math.sin(ps), hip_y)
            # legs: thigh and shank angles from vertical-down
            theta = 0.55 * math.sin(ps)
            knee = (hip[0] + 95.0 * math.sin(theta),
                    hip[1] + 95.0 * math.cos(theta))
            psi = theta - 0.35 * (1.0 + math.sin(ps - 0.9))
            ankle = (knee[0] + 90.0 * math.sin(psi),
                     knee[1] + 90.0 * math.cos(psi))
            heel = (ankle[0] + 22.0 * math.sin(psi + 2.5),
                    ankle[1] + 22.0 * math.cos(psi + 2.5))
            hallux = (ankle[0] + 38.0 * math.sin(psi - 1.25),
                      ankle[1] + 38.0 * math.cos(psi - 1.25))
            # arms counter-swing the legs
            alpha = -0.45 * math.sin(ps)
            elbow = (shoulder[0] + 70.0 * math.sin(alpha),
                     shoulder[1] + 70.0 * math.cos(alpha))
            beta = alpha + 0.5 + 0.25 * math.sin(ps + 0.6)
            wrist = (elbow[0] + 65.0 * math.sin(beta),
                     elbow[1] + 65.0 * math.cos(beta))
            keypoints[t, side, :, :2] = (shoulder, elbow, wrist, hip, knee,
                                         ankle, heel, hallux)
    # One seeded jitter per value, drawn in frame, side, landmark, then x,
    # y, visibility order.
    keypoints += rng.normal(0.0, (0.4, 0.4, 0.01), keypoints.shape)
    keypoints[..., 2] = np.clip(keypoints[..., 2], 0.9, 1.0)
    frame_index = np.arange(n_frames)
    seq = PoseSequence(video_id, fps=fps, frame_index=frame_index,
                       time_s=frame_index / fps,
                       keypoints=keypoints.transpose(0, 2, 1, 3))

    annotations = []
    for i in range(n_cycles):
        label = "atypical" if (atypical_last and i == n_cycles - 1) else "typical"
        annotations.append(CycleAnnotation(
            start_frame=i * frames_per_cycle,
            end_frame=(i + 1) * frames_per_cycle,
            label=label))
    return seq, annotations
