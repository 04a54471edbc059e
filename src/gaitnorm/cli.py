"""Command-line pipeline driver.

The method is one cycle-wise chain: joint angles -> phase-normalized
cycles -> normative band -> per-cycle deviations -> figures.  Each stage
is written once, and every subcommand is a slice of the stages::

    _load_sequence  parse a keypoint file                angles, figures
    _segment        annotations + keypoints -> angles    segment, run
                    -> cycle slices -> resampled cycles
    _score          score every cycle, in the parent     detect, run
    _write_cycles   write each cycle's report (and, in   detect, run
                    run, its _cycle_figures) on the pool
    _band_plots     band plot per model joint            figures, run
    _cycle_figures  multi-joint panel, severity heatmap  figures, run
    _overlays       per-frame skeleton status records    figures, run

``angles`` stops at the angle series and ``synth`` writes a synthetic
cohort.  ``run`` composes every stage.  Its model step uses the video's
typical cycles; ``build-norm`` drops atypical cycles with a warning.
Both build with ``build_normative_model``, which needs a joint valid in
two of them.

``detect`` and ``run`` score every cycle in the parent, and ``run`` also
maps every frame's status and renders its band plots, before
``--out-dir`` is made, so a cycle that fails to score, or a band too
wide to draw, writes nothing.  Then each cycle is one job of
``_write_cycles``: serialize its report and, under ``run``, render its
multi-joint panel and heatmap, and write them.  ``_map_cycles`` runs the
jobs on a ``fork`` process pool with one worker per CPU the process may
use (its affinity mask, so ``taskset`` restricts it) and per 16 cycles,
or in-process when that makes one; the bytes are the same.  While the
workers write, the parent writes ``run``'s model, band plots and overlay,
the overlay streamed in chunks of frames.  Loading, the warnings and the
summary stay in the parent.  ``figures`` renders every document, and
maps the overlay's frame statuses, before it makes ``--out-dir``, so a
failing stage writes nothing.

Flags that subcommands share are declared once, in argparse parent
parsers.  A JSON config file (``--config`` or ``$GAITNORM_CONFIG``) may
carry any flag value by its long name; config values override
command-line flags and are checked by the flag's own type and choices.
Exit codes: 0 on success, 1 on a validation error, 2 on an I/O error.
"""

import argparse
import logging
import os
import sys
from pathlib import Path

from . import figures as figs
from .cycles import DEFAULT_GRID_POINTS, resample_cycle, segment_cycles
from .detect import (DetectionConfig, build_report, frame_statuses,
                     severity_matrix)
from .errors import ValidationError
from .kinematics import DEFAULT_MIN_VISIBILITY, JOINT_NAMES, angle_series_set
from .normative import STD_KINDS, build_normative_model
from .pose_io import (PHASE_SOURCES, _load_json, load_cycles,
                      load_norm_model, load_report, parse_annotation_document,
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


def _flags(*parents):
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    common = _flags()
    common.add_argument("--config", help=f"JSON config file; values override "
                        f"flags (default: ${CONFIG_ENV_VAR})")
    out, out_dir = _flags(), _flags()
    out.add_argument("--out", required=True)
    out_dir.add_argument("--out-dir", required=True)
    video = _flags()
    video.add_argument("--video-id")
    grid = _flags()
    grid.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    keypoints = _flags()
    keypoints.add_argument("--keypoints", required=True)
    keypoints.add_argument("--min-visibility", type=float,
                           default=DEFAULT_MIN_VISIBILITY)
    keypoints.add_argument("--strict", action="store_true",
                           help="reject unknown keypoint names, don't skip")
    segment = _flags(keypoints, grid)
    segment.add_argument("--annotations", required=True)
    segment.add_argument("--phase-source", choices=PHASE_SOURCES,
                         default="frames",
                         help="interpolate cycle phase over frame index or "
                              "time_s")
    std_kind = _flags()
    std_kind.add_argument("--std-kind", choices=STD_KINDS,
                          default=STD_KINDS[0])
    detection, defaults = _flags(), DetectionConfig()
    detection.add_argument("--k", type=float, default=defaults.k,
                           help="SD multiplier for the abnormality threshold")
    detection.add_argument("--sigma-floor-deg", type=float,
                           default=defaults.sigma_floor_deg,
                           help="lower bound on the SD used in z-scores")
    detection.add_argument("--severity-clip", type=float,
                           default=defaults.severity_clip,
                           help="|z| at which severity shading saturates")

    parser = _Parser(prog="gaitnorm",
                     description="Clinical gait kinematics from 2D pose "
                                 "keypoint time series.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name, func, parents, help):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=func)
        return p

    command("angles", cmd_angles, [keypoints, out, video],
            "compute joint angle series from keypoints")
    command("segment", cmd_segment, [segment, out],
            "slice keypoints into phase-normalized cycles")

    p = command("build-norm", cmd_build_norm, [out, std_kind],
                "build a normative model from typical cycles")
    p.add_argument("--cycles", required=True)

    p = command("detect", cmd_detect, [out_dir, video, detection],
                "compare cycles against a normative model")
    p.add_argument("--cycles", required=True)
    p.add_argument("--model", required=True)

    p = command("figures", cmd_figures, [out_dir, video],
                "render band plots, multi-joint panels, heatmap")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=float, help=f"SD multiplier of the band "
                   f"(default: the report's config.k, else {defaults.k:g})")
    p.add_argument("--report", help="deviation report to overlay / render")
    p.add_argument("--cycles",
                   help="cycles file holding the report's analyzed cycle")
    p.add_argument("--keypoints", help="with a report carrying cycle bounds: "
                                       "also write frame overlay records")
    p.add_argument("--joint", action="append",
                   help="render band plots only for these joints (repeatable)")

    p = command("synth", cmd_synth, [out, grid],
                "generate a synthetic typical-cycle cohort")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profiles",
                   help="JSON joint profiles (default: bundled demo set)")

    p = command("run", cmd_run, [segment, out_dir, video, std_kind, detection],
                "full pipeline: keypoints to model, reports, figures")
    p.add_argument("--model", help="existing normative model (default: build "
                                   "one from the video's typical cycles)")
    return parser


def _config_value(action, key, value):
    """``value`` checked as the flag checks its command-line text."""
    parsed = value
    if action.nargs == 0:  # store_true: a JSON boolean
        ok = isinstance(value, bool)
    elif isinstance(action, argparse._AppendAction):  # --joint: strings
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif type(value) in (str, int, float):
        text = value if isinstance(value, str) else repr(value)
        try:
            parsed = action.type(text) if action.type else text
        except ValueError:
            ok = False
        else:
            ok = action.choices is None or parsed in action.choices
    else:
        ok = False
    if not ok:
        raise ValidationError(f"config key {key!r}: invalid value {value!r} "
                              f"for {action.option_strings[-1]}")
    return parsed


def _apply_config(parser, args) -> None:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return
    overrides = _load_json(Path(path).read_bytes(), f"config file {path}")
    if not isinstance(overrides, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices[args.command]._actions
             if a.dest not in ("help", "config")}
    for key, value in overrides.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValidationError(
                f"config key {key!r} is not a flag of 'gaitnorm "
                f"{args.command}'")
        setattr(args, action.dest, _config_value(action, key, value))


def _detection_config(args) -> DetectionConfig:
    return DetectionConfig(args.k, args.sigma_floor_deg, args.severity_clip)


def _model_joints(model):
    ordered = [j for j in JOINT_NAMES if j in model.joints]
    ordered += sorted(j for j in model.joints if j not in JOINT_NAMES)
    return ordered


def _prefix(out_dir, video_id) -> str:
    """``<out_dir>/<video_id>``, the start of every output name.  An id
    holding a path separator or NUL is rejected, so that every name stays
    inside ``out_dir``."""
    if any(sep and sep in video_id for sep in ("/", os.sep, os.altsep, "\0")):
        raise ValidationError(f"video id {video_id!r} must not contain a "
                              f"path separator or NUL")
    return os.path.join(out_dir, video_id)


def _load_sequence(path, video_id=None, strict=False):
    """Parse a keypoint file; the video id defaults to the file's stem."""
    return parse_pose_sequence(Path(path).read_bytes(), strict=strict,
                               video_id=video_id or Path(path).stem)


def _segment(args, video_id=None):
    """Annotations + keypoints -> angles -> segment -> resample: returns
    the sequence and a (cycle slice, normalized cycle) pair per
    annotation."""
    doc_video_id, annotations = parse_annotation_document(
        Path(args.annotations).read_bytes())
    seq = _load_sequence(args.keypoints, video_id or doc_video_id,
                         args.strict)
    series = angle_series_set(seq, args.min_visibility)
    slices = segment_cycles(series, annotations, video_id=seq.video_id,
                            times=seq.time_s if args.phase_source == "time"
                            else None)
    return seq, [(s, resample_cycle(s, args.grid_points)) for s in slices]


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset`` restricts it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A worker is forked only for this many cycles or more: starting and
# stopping the pool costs some 30 ms, the time of ten ``detect`` cycle
# jobs or five ``run`` ones.
_MIN_CYCLES_PER_WORKER = 16

_job = None  # the per-cycle job a fork worker inherits from ``_map_cycles``


def _set_job(job):
    global _job
    _job = job


def _run_job(i):
    return _job(i)


def _map_cycles(job, n, meanwhile=lambda: None):
    """``[job(i) for i in range(n)]`` on a fork pool of one worker per usable
    CPU and per ``_MIN_CYCLES_PER_WORKER`` cycles, in-process when that
    makes one, while the parent calls ``meanwhile()`` (in-process: after
    the last job).  Workers inherit ``job`` and everything it closes over;
    only indices go out and results come back.  The error of the
    lowest-numbered failing cycle is raised, as in the serial loop, ahead
    of any error of ``meanwhile``; a worker that dies (killed by a signal)
    is an ``OSError``.
    """
    workers = min(_cpus(), n // _MIN_CYCLES_PER_WORKER)
    if workers <= 1 or not hasattr(os, "fork"):
        results = list(map(job, range(n)))
        meanwhile()
        return results
    # Imported here: they would add to every command's start-up time.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context
    # About eight chunks per worker: enough to even out the load, few
    # enough that queueing stays a small share of the work.
    chunk = max(1, n // (8 * workers))
    try:
        with ProcessPoolExecutor(workers, get_context("fork"),
                                 initializer=_set_job,
                                 initargs=(job,)) as pool:
            results = pool.map(_run_job, range(n), chunksize=chunk)
            try:
                meanwhile()
            finally:
                results = list(results)
            return results
    except BrokenProcessPool:
        raise OSError("a worker process writing per-cycle outputs died "
                      "before finishing") from None


def _score(annotated_cycles, model, cfg, video_id, phase_source="frames"):
    """Score each (annotation or None, cycle) pair, in cycle order, into
    (report, cycle) pairs."""
    return [(build_report(cycle, model, cfg, video_id=video_id,
                          annotation=annotation, phase_source=phase_source),
             cycle) for annotation, cycle in annotated_cycles]


def _write_cycles(scored, model, cfg, prefix, figures=False,
                  meanwhile=lambda: None):
    """Write each scored cycle's ``<prefix>.c<i>.report.json`` and, with
    ``figures``, its multi-joint panel and heatmap (``_cycle_figures``),
    each cycle one job of ``_map_cycles``, which calls ``meanwhile`` in
    the parent."""
    def job(i):
        report, cycle = scored[i]
        outputs = [(f"{prefix}.c{i}.report.json", save_report(report))]
        if figures:
            outputs += _cycle_figures(report, cycle, model, cfg,
                                      f"{prefix}.c{i}")
        _write(outputs)

    _map_cycles(job, len(scored), meanwhile)


def _write(outputs) -> int:
    """Write (path, bytes, figure document or iterable of byte chunks)
    pairs in order; returns how many documents were written (a figure's
    sidecar is not counted)."""
    for path, data in outputs:
        if isinstance(data, bytes):
            Path(path).write_bytes(data)
        elif isinstance(data, figs.FigureDoc):
            figs.write_figure(data, path)
        else:
            with open(path, "wb") as fh:
                fh.writelines(data)
    return len(outputs)


def _band_plots(model, joints, cfg, prefix, report=None, cycle=None):
    """``<prefix>.band.<joint>.svg`` per joint, with the cycle's curve and
    flags drawn over the band when a report and its cycle are given."""
    overlays = {j: (cycle, report.flag[j]) for j in joints
                if cycle is not None and j in report.flag}
    return [(f"{prefix}.band.{j}.svg",
             figs.render_band_plot(model, j, overlay=overlays.get(j), cfg=cfg))
            for j in joints]


def _cycle_figures(report, cycle, model, cfg, prefix):
    """``<prefix>.multijoint.svg`` when the cycle is at hand, and the
    severity heatmap ``<prefix>.heatmap.svg``."""
    outputs = []
    if cycle is not None:
        outputs.append((f"{prefix}.multijoint.svg",
                        figs.render_multi_joint(report.flag, cycle, model,
                                                cfg)))
    outputs.append((f"{prefix}.heatmap.svg",
                    figs.render_heatmap(severity_matrix(report))))
    return outputs


def _overlays(seq, cycle_flags, grid_points, phase_source, prefix):
    """``<prefix>.overlays.json``: per-frame skeleton status records for
    (annotation, flags) pairs, phases mapped by the segmentation rule
    under ``phase_source``.  The statuses are mapped here; ``_write``
    streams the document in chunks of frames."""
    statuses = frame_statuses(
        cycle_flags, seq.frame_index, grid_points,
        times=seq.time_s if phase_source == "time" else None)
    return [(f"{prefix}.overlays.json", figs.overlay_chunks(seq, statuses))]


def cmd_angles(args) -> int:
    seq = _load_sequence(args.keypoints, args.video_id, args.strict)
    series = angle_series_set(seq, args.min_visibility)
    out = save_angle_series(series, video_id=seq.video_id,
                            min_visibility=args.min_visibility)
    Path(args.out).write_bytes(out)
    print(f"wrote angle series for {len(series)} joints over "
          f"{len(seq.frame_index)} frames to {args.out}")
    return 0


def cmd_segment(args) -> int:
    cycles = [c for _, c in _segment(args)[1]]
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
    # One file holds one grid; with no typical cycle the model is refused
    # whatever the grid.
    grid_points = typical[0].grid_points if typical else 0
    model = build_normative_model(typical, grid_points=grid_points,
                                  std_kind=args.std_kind)
    Path(args.out).write_bytes(save_norm_model(model))
    print(f"built normative model: {len(model.joints)} joints from "
          f"{len(model.provenance)} cycles -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    cycles = load_cycles(Path(args.cycles).read_bytes())
    model = load_norm_model(Path(args.model).read_bytes())
    video_id = args.video_id or Path(args.cycles).stem
    prefix = _prefix(args.out_dir, video_id)
    cfg = _detection_config(args)
    # Every cycle is scored before out_dir is made: a failing cycle
    # writes nothing.
    scored = _score([(None, c) for c in cycles], model, cfg, video_id)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_cycles(scored, model, cfg, prefix)
    print(f"wrote {len(scored)} deviation report(s) to {out_dir}")
    return 0


def cmd_figures(args) -> int:
    model = load_norm_model(Path(args.model).read_bytes())
    report = cycle = None
    if args.report:
        report = load_report(Path(args.report).read_bytes())
        # The band is drawn at the k the report's flags were decided at,
        # so every dot outside the band is drawn abnormal.
        if args.k not in (None, report.config.k):
            raise ValidationError(f"--k {args.k} differs from the report's "
                                  f"config.k {report.config.k}")
        cfg = report.config
        if args.cycles:
            candidates = load_cycles(Path(args.cycles).read_bytes())
            cycle = next((c for c in candidates
                          if c.cycle_id == report.cycle_id), None)
            if cycle is None:
                raise ValidationError(
                    f"no cycle with id {report.cycle_id!r} in {args.cycles}")
    else:
        cfg = DetectionConfig() if args.k is None else DetectionConfig(args.k)
        for flag in ("cycles", "keypoints"):
            if getattr(args, flag):
                logger.warning("ignoring --%s: it needs --report", flag)

    prefix = _prefix(args.out_dir, args.video_id or (
        report.video_id if report is not None else Path(args.model).stem))
    # Each --joint once, in first-seen order.
    joints = list(dict.fromkeys(args.joint or _model_joints(model)))
    outputs = _band_plots(model, joints, cfg, prefix, report, cycle)
    if report is not None:
        outputs += _cycle_figures(report, cycle, model, cfg, prefix)
        if args.keypoints and report.annotation is None:
            logger.warning("ignoring --keypoints: report %s carries no "
                           "cycle bounds to map frames by", args.report)
        elif args.keypoints:
            seq = _load_sequence(args.keypoints, args.video_id)
            outputs += _overlays(seq, [(report.annotation, report.flag)],
                                 report.grid_points, report.phase_source,
                                 prefix)

    # Everything is rendered, and the overlay's statuses mapped, before
    # out_dir is made, so a failing stage writes nothing.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"wrote {_write(outputs)} figure document(s) to {out_dir}")
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
    seq, pairs = _segment(args, args.video_id)
    prefix = _prefix(args.out_dir, seq.video_id)
    outputs = []
    if args.model:
        model = load_norm_model(Path(args.model).read_bytes())
    else:
        typical = [c for _, c in pairs if c.label == "typical"]
        model = build_normative_model(typical, grid_points=args.grid_points,
                                      std_kind=args.std_kind)
        outputs.append((f"{prefix}.model.json", save_norm_model(model)))

    cfg = _detection_config(args)
    # Every cycle is scored and every frame status mapped before out_dir
    # is made: a failing cycle writes nothing.
    scored = _score([(s.annotation, c) for s, c in pairs], model, cfg,
                    seq.video_id, args.phase_source)
    outputs += _overlays(seq, [(r.annotation, r.flag) for r, _ in scored],
                         model.grid_points, args.phase_source, prefix)
    # The band plots are rendered before out_dir too.  A multi-joint
    # panel's box is shorter than a band plot's and its cycle's angles
    # lie in [0, 180], so when every band plot passes _band_panel's
    # float-range check, every panel does.
    outputs = _band_plots(model, _model_joints(model), cfg,
                          prefix) + outputs
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The parent writes the band plots and streams the overlay while the
    # pool writes the cycles' files.
    _write_cycles(scored, model, cfg, prefix, figures=True,
                  meanwhile=lambda: _write(outputs))
    # band plots, model and overlay, report + multi-joint panel + heatmap
    # per cycle
    written = len(outputs) + 3 * len(scored)
    print(f"analyzed {len(pairs)} cycle(s) of {seq.video_id!r}; wrote "
          f"{written} file(s) (plus figure sidecars) to {out_dir}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args)
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
