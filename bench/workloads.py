"""Seeded benchmark inputs, written to files before any timing starts.

Each workload is a list of ``gaitnorm`` command lines plus the input
files they read. The program only ever sees those files; the seed and the
sizes stay on this side.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from gaitnorm.pose_io import (Keypoint, KeypointFrame, PoseSequence,
                              save_cycles, serialize_annotations,
                              serialize_pose_sequence)
from gaitnorm.synth import demo_profiles, generate_cohort, generate_pose_sequence

NAMES = ("walk-many", "walk-dense", "cohort")

# (cycles, frames per cycle) at full size and at the smoke-check size.
# walk-many: many short cycles, so per-cycle layers (segment, resample,
# figures, report writing) dominate. walk-dense: few long, densely sampled
# cycles, so per-frame layers (keypoint parse, angles, overlays) dominate.
# cohort: a synthetic cycles file, so only load/build/detect/save run.
SIZES = {
    "walk-many": {"full": (200, 30), "tiny": (6, 30)},
    "walk-dense": {"full": (20, 400), "tiny": (3, 400)},
    "cohort": {"full": (1000, 0), "tiny": (40, 0)},
}

# Far-side keypoints that a lateral camera loses in walk-dense.
OCCLUDED_KEYPOINTS = ("right_elbow", "right_wrist", "right_hallux")
OCCLUDED_SHARE = 0.10
OCCLUSION_RUN_FRAMES = (20, 160)


@dataclass(frozen=True)
class Inputs:
    """Generated input files and the command lines that consume them.

    Every command uses ``workload`` as its video id, so output file names
    start with it.
    """

    workload: str
    cycles: int
    frames: int
    input_bytes: int
    commands: List[List[str]]


def occlude(seq: PoseSequence, rng: np.random.Generator) -> PoseSequence:
    """Drop the visibility of ``OCCLUDED_KEYPOINTS`` below 0.5 in random
    runs of frames until about ``OCCLUDED_SHARE`` of the video is hit."""
    n = len(seq.frames)
    hidden = np.zeros(n, dtype=bool)
    while hidden.mean() < OCCLUDED_SHARE:
        length = int(rng.integers(*OCCLUSION_RUN_FRAMES))
        start = int(rng.integers(0, n - length))
        hidden[start:start + length] = True
    frames = []
    for frame, off in zip(seq.frames, hidden):
        if off:
            kps = dict(frame.keypoints)
            for name in OCCLUDED_KEYPOINTS:
                kp = kps[name]
                kps[name] = Keypoint(kp.point, float(rng.uniform(0.05, 0.45)))
            frame = KeypointFrame(frame.frame_index, kps, frame.time_s)
        frames.append(frame)
    return PoseSequence(seq.video_id, tuple(frames), seq.fps)


def make_inputs(workload: str, seed: int, in_dir: Path, out_dir: Path,
                tiny: bool = False) -> Inputs:
    """Write ``workload``'s inputs for ``seed`` under ``in_dir``; the
    commands write their outputs under ``out_dir``."""
    n_cycles, frames_per_cycle = SIZES[workload]["tiny" if tiny else "full"]
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cohort":
        # Consecutive cycle seeds, so space the bases to keep seeds disjoint.
        cohort = generate_cohort(demo_profiles(), n_cycles, seed * n_cycles)
        cycles_path = in_dir / "cohort.cycles.json"
        cycles_path.write_bytes(save_cycles(cohort))
        model_path = out_dir / "cohort.model.json"
        commands = [
            ["build-norm", "--cycles", str(cycles_path), "--out",
             str(model_path)],
            ["detect", "--cycles", str(cycles_path), "--model",
             str(model_path), "--out-dir", str(out_dir),
             "--video-id", workload],
        ]
        return Inputs(workload, n_cycles, 0, cycles_path.stat().st_size,
                      commands)

    seq, annotations = generate_pose_sequence(
        n_cycles=n_cycles, frames_per_cycle=frames_per_cycle, seed=seed,
        video_id=workload)
    if workload == "walk-dense":
        seq = occlude(seq, np.random.default_rng([seed, 1]))
    kp_path = in_dir / f"{workload}.keypoints.jsonl"
    ann_path = in_dir / f"{workload}.cycles.json"
    kp_path.write_bytes(serialize_pose_sequence(seq))
    ann_path.write_bytes(serialize_annotations(workload, annotations))
    commands = [["run", "--keypoints", str(kp_path), "--annotations",
                 str(ann_path), "--out-dir", str(out_dir)]]
    size = kp_path.stat().st_size + ann_path.stat().st_size
    return Inputs(workload, n_cycles, len(seq.frames), size, commands)
