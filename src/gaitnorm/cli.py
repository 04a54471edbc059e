"""Command-line pipeline driver.

Subcommands mirror the processing stages::

    angles      keypoints -> per-frame joint angle series
    segment     keypoints + annotations -> phase-normalized cycles
    build-norm  cycles -> normative model
    detect      cycles + model -> per-cycle deviation reports
    figures     model [+ report + cycles + keypoints] -> SVG documents
    synth       -> synthetic cycle cohorts with known ground truth
    run         keypoints + annotations -> everything above, end to end

A JSON config file (``--config`` or ``$GAITNORM_CONFIG``) may carry any
flag value by its long name; config values override command-line flags.
Exit codes: 0 on success, 1 on a validation error, 2 on an I/O error.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import figures as figs
from .cycles import (DEFAULT_GRID_POINTS, NormalizedCycle, resample_cycle,
                     segment_cycles)
from .detect import (DetectionConfig, build_report, frame_statuses,
                     severity_matrix)
from .errors import ValidationError
from .kinematics import DEFAULT_MIN_VISIBILITY, JOINT_NAMES, angle_series_set
from .normative import build_normative_model, model_summary
from .pose_io import (PHASE_SOURCES, _dump, load_cycles, load_norm_model,
                      load_report, parse_annotation_document,
                      parse_pose_sequence, save_angle_series, save_cycles,
                      save_norm_model, save_report)
from .synth import demo_profiles, generate_cohort, profiles_from_json

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "GAITNORM_CONFIG"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 (validation), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_detection_flags(p):
    p.add_argument("--k", type=float, default=1.0,
                   help="SD multiplier for the abnormality threshold")
    p.add_argument("--sigma-floor-deg", type=float, default=0.5,
                   help="lower bound on the SD used in z-scores")
    p.add_argument("--severity-clip", type=float, default=3.0,
                   help="|z| at which severity shading saturates")


def _detection_config(args) -> DetectionConfig:
    return DetectionConfig(k=args.k, sigma_floor_deg=args.sigma_floor_deg,
                           severity_clip=args.severity_clip)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help=f"JSON config file; values override flags "
                             f"(default: ${CONFIG_ENV_VAR})")

    parser = _Parser(prog="gaitnorm",
                     description="Clinical gait kinematics from 2D pose "
                                 "keypoint time series.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("angles", parents=[common],
                       help="compute joint angle series from keypoints")
    p.add_argument("--keypoints", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--video-id", default=None)
    p.add_argument("--min-visibility", type=float,
                   default=DEFAULT_MIN_VISIBILITY)
    p.add_argument("--strict", action="store_true",
                   help="reject unknown keypoint names instead of skipping")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("segment", parents=[common],
                       help="slice keypoints into phase-normalized cycles")
    p.add_argument("--keypoints", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--min-visibility", type=float,
                   default=DEFAULT_MIN_VISIBILITY)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--phase-source", choices=PHASE_SOURCES,
                   default="frames",
                   help="interpolate cycle phase over frame index or time_s")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("build-norm", parents=[common],
                       help="build a normative model from typical cycles")
    p.add_argument("--cycles", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--std-kind", choices=("sample", "population"),
                   default="sample")
    p.set_defaults(func=cmd_build_norm)

    p = sub.add_parser("detect", parents=[common],
                       help="compare cycles against a normative model")
    p.add_argument("--cycles", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--video-id", default=None)
    _add_detection_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("figures", parents=[common],
                       help="render band plots, multi-joint panels, heatmap")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--report", default=None,
                   help="deviation report to overlay / render")
    p.add_argument("--cycles", default=None,
                   help="cycles file holding the report's analyzed cycle")
    p.add_argument("--keypoints", default=None,
                   help="with a report carrying cycle bounds: also write "
                        "frame overlay records")
    p.add_argument("--joint", action="append", default=None,
                   help="render band plots only for these joints (repeatable)")
    p.add_argument("--video-id", default=None)
    _add_detection_flags(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic typical-cycle cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--profiles", default=None,
                   help="JSON joint profiles (default: bundled demo set)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", parents=[common],
                       help="full pipeline: keypoints to model, reports, figures")
    p.add_argument("--keypoints", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", default=None,
                   help="existing normative model (default: build one from "
                        "the video's typical cycles)")
    p.add_argument("--video-id", default=None)
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--min-visibility", type=float,
                   default=DEFAULT_MIN_VISIBILITY)
    p.add_argument("--std-kind", choices=("sample", "population"),
                   default="sample")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--phase-source", choices=PHASE_SOURCES,
                   default="frames")
    _add_detection_flags(p)
    p.set_defaults(func=cmd_run)

    return parser


def _apply_config(args) -> None:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return
    data = Path(path).read_bytes()
    try:
        overrides = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest in ("func", "command", "config") or not hasattr(args, dest):
            raise ValidationError(
                f"config key {key!r} is not a flag of 'gaitnorm "
                f"{args.command}'")
        setattr(args, dest, value)


def _load_sequence(args):
    data = Path(args.keypoints).read_bytes()
    video_id = getattr(args, "video_id", None) or Path(args.keypoints).stem
    return parse_pose_sequence(data, strict=getattr(args, "strict", False),
                               video_id=video_id)


def _frame_times(seq, phase_source):
    """Frame index -> seconds for time phases, else None."""
    if phase_source != "time":
        return None
    return {f.frame_index: f.time_s for f in seq.frames if f.time_s is not None}


def _segment_and_resample(args, seq, annotations, frame_times):
    series = angle_series_set(seq, args.min_visibility)
    slices = segment_cycles(series, annotations, video_id=seq.video_id,
                            frame_times=frame_times)
    return [(s, resample_cycle(s, args.grid_points)) for s in slices]


def cmd_angles(args) -> int:
    seq = _load_sequence(args)
    series = angle_series_set(seq, args.min_visibility)
    out = save_angle_series(series, video_id=seq.video_id,
                            min_visibility=args.min_visibility)
    Path(args.out).write_bytes(out)
    print(f"wrote angle series for {len(series)} joints over "
          f"{len(seq.frames)} frames to {args.out}")
    return 0


def cmd_segment(args) -> int:
    seq_data = Path(args.keypoints).read_bytes()
    ann_data = Path(args.annotations).read_bytes()
    ann_video_id, annotations = parse_annotation_document(ann_data)
    video_id = args.video_id if getattr(args, "video_id", None) else \
        (ann_video_id or Path(args.keypoints).stem)
    seq = parse_pose_sequence(seq_data, strict=args.strict, video_id=video_id)
    pairs = _segment_and_resample(args, seq, annotations,
                                  _frame_times(seq, args.phase_source))
    cycles = [c for _, c in pairs]
    Path(args.out).write_bytes(save_cycles(cycles))
    print(f"wrote {len(cycles)} normalized cycles to {args.out}")
    return 0


def cmd_build_norm(args) -> int:
    cycles = load_cycles(Path(args.cycles).read_bytes())
    typical = [c for c in cycles if c.label == "typical"]
    dropped = len(cycles) - len(typical)
    if dropped:
        logger.warning("ignoring %d atypical cycle(s) for the normative "
                       "cohort", dropped)
    if not typical:
        raise ValidationError("no typical cycles in input; cannot build a "
                              "normative model")
    model = build_normative_model(typical, grid_points=typical[0].grid_points,
                                  std_kind=args.std_kind)
    Path(args.out).write_bytes(save_norm_model(model))
    summary = model_summary(model)
    print(f"built normative model: {summary['n_joints']} joints from "
          f"{summary['total_cycles']} cycles -> {args.out}")
    return 0


def _mask_joints_missing_from_model(cycle, model):
    """Demote valid joints the model cannot score to unknown (a joint is
    never silently dropped, and never reported normal without a band)."""
    missing = sorted(j for j, ok in cycle.valid.items()
                     if ok and j not in model.joints)
    if not missing:
        return cycle
    logger.warning("cycle %s: joint(s) %s absent from the model; reporting "
                   "them unknown", cycle.cycle_id, ", ".join(missing))
    valid = dict(cycle.valid)
    for j in missing:
        valid[j] = False
    return NormalizedCycle(label=cycle.label, grid_points=cycle.grid_points,
                           angles=cycle.angles, valid=valid,
                           cycle_id=cycle.cycle_id)


def cmd_detect(args) -> int:
    cycles = load_cycles(Path(args.cycles).read_bytes())
    model = load_norm_model(Path(args.model).read_bytes())
    cfg = _detection_config(args)
    video_id = args.video_id or Path(args.cycles).stem
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, cycle in enumerate(cycles):
        cycle = _mask_joints_missing_from_model(cycle, model)
        report = build_report(cycle, model, cfg, video_id=video_id)
        path = out_dir / f"{video_id}.c{i}.report.json"
        path.write_bytes(save_report(report))
    print(f"wrote {len(cycles)} deviation report(s) to {out_dir}")
    return 0


def _model_joint_order(model):
    ordered = [j for j in JOINT_NAMES if j in model.joints]
    ordered += sorted(j for j in model.joints if j not in JOINT_NAMES)
    return ordered


def cmd_figures(args) -> int:
    model = load_norm_model(Path(args.model).read_bytes())
    cfg = _detection_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = None
    if args.report:
        report = load_report(Path(args.report).read_bytes())
    cycle = None
    if args.cycles and report is not None:
        candidates = load_cycles(Path(args.cycles).read_bytes())
        cycle = next((c for c in candidates if c.cycle_id == report.cycle_id),
                     None)
        if cycle is None:
            raise ValidationError(
                f"no cycle with id {report.cycle_id!r} in {args.cycles}")

    base = args.video_id or (report.video_id if report is not None
                             else Path(args.model).stem)
    joints = args.joint or _model_joint_order(model)
    written = 0
    for joint in joints:
        overlay = None
        if cycle is not None and joint in report.flag:
            overlay = (cycle, report.flag[joint])
        doc = figs.render_band_plot(model, joint, overlay=overlay, cfg=cfg)
        figs.write_figure(doc, out_dir / f"{base}.band.{joint}.svg")
        written += 1

    if report is not None:
        heat = figs.render_heatmap(severity_matrix(report.z, cfg))
        figs.write_figure(heat, out_dir / f"{base}.heatmap.svg")
        written += 1
        if cycle is not None:
            multi = figs.render_multi_joint(report.flag, cycle, model, cfg)
            figs.write_figure(multi, out_dir / f"{base}.multijoint.svg")
            written += 1
        if args.keypoints and report.annotation is not None:
            seq = _load_sequence(args)
            statuses = frame_statuses(
                [(report.annotation, report.flag)], seq.frame_indices(),
                model.grid_points,
                frame_times=_frame_times(seq, report.phase_source))
            records = figs.annotate_frames(seq, statuses)
            (out_dir / f"{base}.overlays.json").write_bytes(_dump(records))
            written += 1

    print(f"wrote {written} figure document(s) to {out_dir}")
    return 0


def cmd_synth(args) -> int:
    if args.profiles:
        profiles = profiles_from_json(Path(args.profiles).read_bytes())
    else:
        profiles = demo_profiles()
    cohort = generate_cohort(profiles, args.n, args.seed, args.grid_points)
    Path(args.out).write_bytes(save_cycles(cohort))
    print(f"wrote {args.n} synthetic typical cycles to {args.out}")
    return 0


def cmd_run(args) -> int:
    ann_data = Path(args.annotations).read_bytes()
    ann_video_id, annotations = parse_annotation_document(ann_data)
    video_id = args.video_id or ann_video_id or Path(args.keypoints).stem
    seq = parse_pose_sequence(Path(args.keypoints).read_bytes(),
                              strict=args.strict, video_id=video_id)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    frame_times = _frame_times(seq, args.phase_source)
    phase_source = "frames" if frame_times is None else "time"
    pairs = _segment_and_resample(args, seq, annotations, frame_times)
    files = []

    if args.model:
        model = load_norm_model(Path(args.model).read_bytes())
    else:
        typical = [c for _, c in pairs if c.label == "typical"]
        if len(typical) < 2:
            raise ValidationError(
                f"cannot build a normative model from {len(typical)} typical "
                f"cycle(s); pass --model or annotate more typical cycles")
        model = build_normative_model(typical,
                                      grid_points=args.grid_points,
                                      std_kind=args.std_kind)
        model_path = out_dir / f"{video_id}.model.json"
        model_path.write_bytes(save_norm_model(model))
        files.append(model_path)

    cfg = _detection_config(args)
    cycle_flags = []
    for i, (cycle_slice, cycle) in enumerate(pairs):
        cycle = _mask_joints_missing_from_model(cycle, model)
        report = build_report(cycle, model, cfg, video_id=video_id,
                              annotation=cycle_slice.annotation,
                              phase_source=phase_source)
        report_path = out_dir / f"{video_id}.c{i}.report.json"
        report_path.write_bytes(save_report(report))
        files.append(report_path)
        cycle_flags.append((cycle_slice.annotation, report.flag))

        multi = figs.render_multi_joint(report.flag, cycle, model, cfg)
        multi_path = out_dir / f"{video_id}.c{i}.multijoint.svg"
        figs.write_figure(multi, multi_path)
        files.append(multi_path)

        heat = figs.render_heatmap(severity_matrix(report.z, cfg))
        heat_path = out_dir / f"{video_id}.c{i}.heatmap.svg"
        figs.write_figure(heat, heat_path)
        files.append(heat_path)

    for joint in _model_joint_order(model):
        doc = figs.render_band_plot(model, joint, cfg=cfg)
        band_path = out_dir / f"{video_id}.band.{joint}.svg"
        figs.write_figure(doc, band_path)
        files.append(band_path)

    statuses = frame_statuses(cycle_flags, seq.frame_indices(),
                              model.grid_points, frame_times=frame_times)
    records = figs.annotate_frames(seq, statuses)
    overlay_path = out_dir / f"{video_id}.overlays.json"
    overlay_path.write_bytes(_dump(records))
    files.append(overlay_path)

    print(f"analyzed {len(pairs)} cycle(s) of {video_id!r}; wrote "
          f"{len(files)} file(s) (plus figure sidecars) to {out_dir}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValidationError as exc:
        print(f"gaitnorm: validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gaitnorm: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
