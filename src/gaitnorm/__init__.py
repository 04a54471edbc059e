"""Clinical gait kinematics from 2D human-pose keypoint time series.

The pipeline: parse keypoint sequences and heel-strike cycle annotations,
compute ten clinical joint angles per frame, phase-normalize each gait
cycle onto a fixed 0-100% grid with natural cubic splines, build a
normative mean/SD band per joint from a typical-cycle cohort, and flag,
score and visualize per-joint deviations of analyzed cycles.
"""

from .cycles import (CycleSlice, NormalizedCycle, resample_cycle,
                     segment_cycles)
from .detect import (DetectionConfig, DeviationReport, build_report,
                     frame_statuses, judge, severity_matrix)
from .errors import DegenerateGeometryError, GaitNormError, ValidationError
from .figures import (FigureDoc, annotate_frames, render_band_plot,
                      render_heatmap, render_multi_joint, write_figure)
from .kinematics import (JOINT_KEYPOINTS, JOINT_NAMES, AngleSample,
                         AngleSeries, angle_series_set, joint_angle)
from .normative import JointNormals, NormativeModel, build_normative_model
from .pose_io import (KEYPOINT_NAMES, CycleAnnotation, Keypoint,
                      KeypointFrame, Point2D, PoseSequence, load_cycles,
                      load_norm_model, load_report, parse_annotation_document,
                      parse_pose_sequence, save_cycles, save_norm_model,
                      save_report)
from .spline import SplineCoefficients, eval_spline, fit_natural_cubic
from .synth import (AbnormalitySpec, JointProfile, demo_profiles,
                    generate_cohort, generate_cycle, generate_pose_sequence,
                    inject_abnormality, noise_free_curve)

__version__ = "0.14.0"

__all__ = [
    "AbnormalitySpec", "AngleSample", "AngleSeries", "CycleAnnotation",
    "CycleSlice", "DegenerateGeometryError", "DetectionConfig",
    "DeviationReport", "FigureDoc", "GaitNormError", "JOINT_KEYPOINTS",
    "JOINT_NAMES", "JointNormals", "JointProfile", "KEYPOINT_NAMES",
    "Keypoint", "KeypointFrame", "NormalizedCycle", "NormativeModel",
    "Point2D", "PoseSequence", "SplineCoefficients", "ValidationError",
    "angle_series_set", "annotate_frames", "build_normative_model",
    "build_report", "demo_profiles", "eval_spline", "fit_natural_cubic",
    "frame_statuses", "generate_cohort", "generate_cycle",
    "generate_pose_sequence", "inject_abnormality", "joint_angle", "judge",
    "load_cycles", "load_norm_model", "load_report",
    "noise_free_curve", "parse_annotation_document", "parse_pose_sequence",
    "render_band_plot", "render_heatmap", "render_multi_joint",
    "resample_cycle", "save_cycles", "save_norm_model", "save_report",
    "segment_cycles", "severity_matrix", "write_figure",
]
