"""In-memory spans around the calls ``gaitnorm.cli`` makes into each layer.

Only traced invocations install the wrappers, each in its own process.
They replace module attributes: the names ``gaitnorm.cli`` looks up at
call time, plus the spline fit that ``gaitnorm.cycles`` calls. A name the
program no longer has is skipped, and the metrics it feeds are left out
of the result instead of failing the run.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

# Root span of one CLI command; its self time is everything not covered by
# a layer span: argument parsing, the overlay JSON encoding, file writes.
ROOT = "cli"


def _bytes_in(args, kwargs, result):
    data = args[0] if args else None
    return {"input_bytes": len(data)} if isinstance(data, bytes) else {}


def _parsed(args, kwargs, result):
    counts = _bytes_in(args, kwargs, result)
    frames = getattr(result, "frames", None)
    if frames is not None:
        counts["frames"] = len(frames)
    return counts


def _angles(args, kwargs, result):
    samples = [s for series in result.values() for s in series.samples]
    return {"samples": len(samples),
            "valid_samples": sum(s.angle_deg is not None for s in samples)}


def _resampled(args, kwargs, result):
    return {"joint_cycles": len(result.valid),
            "valid_joint_cycles": sum(bool(v) for v in result.valid.values())}


def _report(args, kwargs, result):
    unknown = len(result.unknown_joints)
    return {"report_joints": len(result.z) + unknown,
            "unknown_joints": unknown}


def _called(counter):
    return lambda args, kwargs, result: {counter: 1}


# (module, attribute, span name, counter). The span name is the layer
# (module) and the stage within it.
WRAPPED = (
    ("gaitnorm.cli", "parse_pose_sequence", "pose_io.parse", _parsed),
    ("gaitnorm.cli", "parse_annotation_document", "pose_io.parse", _bytes_in),
    ("gaitnorm.cli", "load_cycles", "pose_io.load", _bytes_in),
    ("gaitnorm.cli", "load_norm_model", "pose_io.load", _bytes_in),
    ("gaitnorm.cli", "load_report", "pose_io.load", _bytes_in),
    ("gaitnorm.cli", "save_report", "pose_io.save", None),
    ("gaitnorm.cli", "save_norm_model", "pose_io.save", None),
    ("gaitnorm.cli", "save_cycles", "pose_io.save", None),
    ("gaitnorm.cli", "save_angle_series", "pose_io.save", None),
    ("gaitnorm.cli", "angle_series_set", "kinematics.angles", _angles),
    ("gaitnorm.cli", "segment_cycles", "cycles.segment", None),
    ("gaitnorm.cli", "resample_cycle", "cycles.resample", _resampled),
    ("gaitnorm.cycles", "fit_natural_cubic", "spline.fit", _called("fits")),
    ("gaitnorm.cli", "build_normative_model", "normative.build", None),
    ("gaitnorm.cli", "build_report", "detect.report", _report),
    ("gaitnorm.cli", "severity_matrix", "detect.severity", None),
    ("gaitnorm.cli", "frame_statuses", "detect.frame_status", None),
    ("gaitnorm.figures", "render_multi_joint", "figures.multijoint",
     _called("docs")),
    ("gaitnorm.figures", "render_heatmap", "figures.heatmap", _called("docs")),
    ("gaitnorm.figures", "render_band_plot", "figures.band", _called("docs")),
    ("gaitnorm.figures", "annotate_frames", "figures.overlay", None),
    ("gaitnorm.figures", "write_figure", "figures.write", None),
)

# Counting runs inside a span of this name, so it is charged to no layer.
COUNT_SPAN = "trace.count"


class Tracer:
    """Records one process's spans as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.installed: set = set()
        self.broken_counters: set = set()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None and name not in self.broken_counters:
                with self.span(COUNT_SPAN):
                    try:
                        counts = counter(args, kwargs, result)
                    except (AttributeError, TypeError, KeyError):
                        # The layer's result changed shape: drop its counts.
                        self.broken_counters.add(name)
                        counts = {}
                    for key, value in counts.items():
                        self.counts[key] += value
            return result
        return wrapper

    def install(self):
        """Wrap every target in ``WRAPPED`` that exists."""
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, name, counter))
                self.installed.add(name)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus its children's spans."""
        total: Dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                total[self.spans[parent][0]] -= end - start
        return dict(total)

    def records(self, t0: float) -> List[dict]:
        """Spans as JSON-ready records, times in seconds from ``t0``."""
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent}
                for name, start, end, parent in self.spans]
