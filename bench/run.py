"""gaitnorm benchmark: one closed-loop client running ``gaitnorm`` commands.

Usage, from the root of a checkout::

    python3 bench/run.py --workload walk-many --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all        # every workload, defaults

A run writes the workload's inputs from ``--seed`` and measures the cold
start of ``import gaitnorm.cli``. It warms up on a tiny input of the same
shape, then runs the workload for ``--seconds``, one invocation at a time.
Each command runs in a fresh interpreter through ``gaitnorm.cli.main``, as
it does for a user; ``bench/invoke.py`` times it from the inside. The first
output set gets the full output check and every later one must hash to
it. With ``--trace 1`` the loop alternates untraced and traced invocations
and reports per-layer self times and counts instead. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See ``bench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SRC = ROOT_DIR / "src"
OUT = ROOT_DIR / "bench-out"
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import gaitnorm
    import gaitnorm.cli as cli
    from checks import check_outputs, digest, output_bytes
    from spans import COUNT_SPAN, ROOT
    from workloads import NAMES, make_inputs
except ImportError as exc:
    sys.exit(f"bench: cannot import gaitnorm from {SRC}: {exc}")
if not Path(gaitnorm.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: gaitnorm imported from {gaitnorm.__file__}, not {SRC}")

DEFAULT_SEED = 1
SECOND_SEED = 2
SETUP_REPEATS = 5
MIN_TIMED = 2
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CHILD_ENV.pop(cli.CONFIG_ENV_VAR, None)

# metric -> (unit, source spans, numerator count, denominator count or scale)
COUNT_METRICS = {
    "pose_io.frames": ("count", ("pose_io.parse",), "frames", 1),
    "pose_io.input_mb": ("MB", ("pose_io.parse", "pose_io.load"),
                         "input_bytes", 1e6),
    "kinematics.samples": ("count", ("kinematics.angles",), "samples", 1),
    "kinematics.valid_ratio": ("ratio", ("kinematics.angles",),
                               "valid_samples", "samples"),
    "spline.fits": ("count", ("spline.fit",), "fits", 1),
    "cycles.valid_ratio": ("ratio", ("cycles.resample",),
                           "valid_joint_cycles", "joint_cycles"),
    "detect.unknown_ratio": ("ratio", ("detect.report",), "unknown_joints",
                             "report_joints"),
    "figures.docs": ("count", ("figures.multijoint", "figures.heatmap",
                               "figures.band"), "docs", 1),
}


class Session:
    """One workload's inputs plus the invocations made on them."""

    def __init__(self, inputs, out_dir: Path):
        self.inputs = inputs
        self.out_dir = out_dir
        self.reference = None
        self.output_mb = None
        self.unknown_joint_cycles = None
        self.attempted = 0
        self.errors = []

    def _verify(self):
        """Full check of the first output set, digest match afterwards."""
        found = digest(self.out_dir)
        if self.reference is None:
            result = check_outputs(self.inputs, self.out_dir)
            if result["problems"]:
                return "output check: " + "; ".join(result["problems"][:3])
            self.reference = found
            self.output_mb = output_bytes(self.out_dir) / 1e6
            self.unknown_joint_cycles = result["unknown_joint_cycles"]
        elif found != self.reference:
            return f"output digest {found[:12]} != {self.reference[:12]}"
        return None

    def invoke(self, trace=False):
        """Run every command once, each in a fresh interpreter.

        Returns one result per command (see ``bench/invoke.py``), or None
        when a command fails or the output check does.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.attempted += 1
        results, error = [], None
        for argv in self.inputs.commands:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "invoke.py"),
                 json.dumps(argv)] + (["--trace"] if trace else []),
                cwd=ROOT_DIR, env=CHILD_ENV, capture_output=True, text=True)
            if proc.returncode != 0 or "Traceback" in proc.stderr:
                error = (f"exit code {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
                break
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        if error is None:
            error = self._verify()
        if error is not None:
            self.errors.append(error)
            print(f"bench: {self.inputs.workload}: {error}", file=sys.stderr)
            return None
        return results


def setup_seconds():
    """Median wall time of a fresh interpreter importing gaitnorm.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gaitnorm.cli"],
                       cwd=ROOT_DIR, env=CHILD_ENV, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_loop(session, seconds, trace):
    """Closed loop for ``seconds``: (untraced, traced) invocation results.

    With ``trace`` the loop alternates untraced and traced invocations, so
    both sides see the same drift. It stops before an invocation of the
    mean length would overrun ``seconds``, after at least ``MIN_TIMED``.
    """
    plain, traced = [], []
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        traced_turn = trace and len(lengths) % 2 == 1
        results = session.invoke(trace=traced_turn)
        if results is not None:
            (traced if traced_turn else plain).append(results)
        lengths.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        enough = len(lengths) >= MIN_TIMED and len(lengths) % (
            2 if trace else 1) == 0
        if enough and spent + statistics.mean(lengths) > seconds:
            return plain, traced


def wall(results):
    return sum(r["wall_s"] for r in results)


def layer_metrics(traced, plain):
    """Per-layer medians over the traced invocations."""
    per_invocation = []
    for results in traced:
        self_s, counts = defaultdict(float), defaultdict(float)
        for r in results:
            for name, seconds in r["self_s"].items():
                self_s[name] += seconds
            for name, value in r["counts"].items():
                counts[name] += value
        installed = {n for r in results for n in r["installed"]}
        broken = {n for r in results for n in r["broken"]}
        values = {}
        for name in sorted(installed | {ROOT}):
            metric = "cli.self_s" if name == ROOT else f"{name}_s"
            values[metric] = (self_s[name], "s")
        for metric, (unit, sources, num, den) in COUNT_METRICS.items():
            if not installed & set(sources) or broken & set(sources):
                continue
            den_value = counts[den] if isinstance(den, str) else den
            values[metric] = (counts[num] / den_value if den_value else 0.0,
                              unit)
        per_invocation.append(values)
    metrics = {}
    for metric in per_invocation[0] if per_invocation else ():
        metrics[metric] = {
            "value": statistics.median(v[metric][0] for v in per_invocation),
            "unit": per_invocation[0][metric][1]}
    if traced and plain:
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(map(wall, traced))
            / statistics.median(map(wall, plain)),
            "unit": "ratio"}
    return metrics


def span_records(traced):
    """Every traced span, tagged with its invocation and command."""
    for invocation, results in enumerate(traced):
        for command, r in enumerate(results):
            for span in r["spans"]:
                yield {**span, "invocation": invocation, "command": command}


def environment(args, inputs):
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT_DIR / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT_DIR,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "gaitnorm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
        "src_sha256": src.hexdigest(), "workload": inputs.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "frames": inputs.frames, "cycles": inputs.cycles,
        "input_bytes": inputs.input_bytes,
    }


def run_workload(args, workload):
    """Measure one workload; returns the result object (see module doc)."""
    work = OUT / f"work-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(workload, args.seed, work / "in", work / "out",
                             tiny=args.tiny)
        warm = Session(make_inputs(workload, args.seed, work / "warm-in",
                                   work / "warm-out", tiny=True),
                       work / "warm-out")
        session = Session(inputs, work / "out")
        env = environment(args, inputs)
        if not args.trace:
            setup_s = setup_seconds()
        warm.invoke()
        plain, traced = timed_loop(session, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if args.trace:
        metrics = layer_metrics(traced, plain)
        trace_path = OUT / f"trace-{workload}-seed{args.seed}.jsonl"
        trace_path.write_text("".join(
            json.dumps(r) + "\n" for r in span_records(traced)))
    elif plain:
        wall_s = statistics.median(map(wall, plain))
        peak_mb = statistics.median(
            max(r["maxrss_kib"] for r in results) * 1024 / 1e6
            for results in plain)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "cycles_per_s": {"value": inputs.cycles / wall_s,
                             "unit": "cycles/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "output_mb": {"value": session.output_mb, "unit": "MB"},
        }

    attempted = session.attempted + warm.attempted
    failed = len(session.errors) + len(warm.errors)
    report = {
        "env": env, "output_sha256": session.reference,
        "unknown_joint_cycles": session.unknown_joint_cycles,
        "untraced_s": [wall(r) for r in plain],
        "traced_s": [wall(r) for r in traced],
        "errors": session.errors + warm.errors,
    }
    print(f"{workload}: env {json.dumps(env, sort_keys=True)}")
    print(f"{workload}: output_sha256 {session.reference} "
          f"(unknown joint-cycles: {session.unknown_joint_cycles})")
    for kind in ("untraced_s", "traced_s"):
        if report[kind]:
            print(f"{workload}: {kind} {[round(t, 4) for t in report[kind]]}")
    for name, m in metrics.items():
        print(f"{workload}: {name} {m['value']:.6g} {m['unit']}")
    if "wall_s" in metrics:
        print(f"{workload}: wall_s n={len(plain)}, max "
              f"{max(report['untraced_s']):.6g} s; no percentile above the "
              f"median has ten samples beyond it")
    print(f"{workload}: error_rate {failed / attempted:.6g} "
          f"({failed}/{attempted} invocations failed)")
    if args.trace:
        spans = Counter(s["name"] for s in span_records(traced)
                        if s["name"] != COUNT_SPAN)
        report["spans"] = dict(sorted(spans.items()))
        print(f"{workload}: spans {report['spans']} -> {trace_path.name}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**report, **result}, indent=1) + "\n")
    return result


def parse_args(argv=None):
    run_seconds = json.loads(
        (ROOT_DIR / "BENCHMARK.json").read_text())["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; the second "
                        f"documented seed is {SECOND_SEED})")
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="measurement length per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-check sizes instead of the benchmark sizes")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workloads = NAMES if args.workload == "all" else (args.workload,)
    results = {w: run_workload(args, w) for w in workloads}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
