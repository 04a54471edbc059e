"""Per-cycle jobs on a fork pool: same bytes and same failures as in-process.

``detect`` and ``run`` score every cycle in this process, then hand the
writing of each cycle's report (and, under ``run``, its multi-joint panel
and heatmap) to ``cli._map_cycles``, which runs them on one forked worker
per usable CPU, when each worker gets at least
``cli._MIN_CYCLES_PER_WORKER`` cycles, while this process writes the band
plots and the overlay.  Pinning ``cli._cpus`` to 1 runs the same jobs in
this process; pinning it to 3 forks workers on any host.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gaitnorm import cli
from gaitnorm.cli import main
from gaitnorm.errors import ValidationError
from gaitnorm.pose_io import (load_report, save_cycles,
                              serialize_annotations, serialize_pose_sequence)
from gaitnorm.synth import (demo_profiles, generate_cohort,
                            generate_pose_sequence)

from helpers import assert_same_judgment, dimmed_walker, occluded_walker

SRC = Path(cli.__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
SERIAL, PARALLEL = 1, 3


@pytest.fixture
def cohort(tmp_path):
    """40 synthetic cycles and a model built from them."""
    cycles = generate_cohort(demo_profiles(), 40, seed=11)
    cycles_path = tmp_path / "cohort.cycles.json"
    cycles_path.write_bytes(save_cycles(cycles))
    model_path = tmp_path / "cohort.model.json"
    assert main(["build-norm", "--cycles", str(cycles_path),
                 "--out", str(model_path)]) == 0
    return cycles, cycles_path, model_path


def _detect(cycles_path, model_path, out_dir):
    return main(["detect", "--cycles", str(cycles_path), "--model",
                 str(model_path), "--out-dir", str(out_dir),
                 "--video-id", "demo"])


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _recording_pids(monkeypatch, log, name="save_report"):
    """Wrap ``cli.<name>`` so every call appends its process id."""
    real = getattr(cli, name)

    def recording(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, recording)


def _pids(log):
    return Path(log).read_text().split()


def test_cpus_follow_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert cli._cpus() == len(os.sched_getaffinity(0))
    assert cli._cpus() >= 1


@pytest.mark.parametrize("cpus,n,forked", [
    (8, cli._MIN_CYCLES_PER_WORKER - 1, False),  # too few cycles to fork
    (1, 4 * cli._MIN_CYCLES_PER_WORKER, False),  # one CPU
    (2, 2 * cli._MIN_CYCLES_PER_WORKER, True),
])
def test_cycles_fork_only_with_enough_cycles_and_cpus(monkeypatch, cpus, n,
                                                      forked):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    pids = cli._map_cycles(lambda i: (i, os.getpid()), n)
    assert [i for i, _ in pids] == list(range(n))
    in_parent = {pid for _, pid in pids} == {os.getpid()}
    assert in_parent is not forked


def test_detect_writes_the_same_bytes_on_one_or_many_cpus(
        tmp_path, monkeypatch, cohort):
    _, cycles_path, model_path = cohort
    outputs = {}
    for cpus in (SERIAL, PARALLEL):
        monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
        log = tmp_path / f"pids{cpus}"
        _recording_pids(monkeypatch, log)
        scored = tmp_path / f"scored{cpus}"
        _recording_pids(monkeypatch, scored, "build_report")
        out_dir = tmp_path / f"out{cpus}"
        assert _detect(cycles_path, model_path, out_dir) == 0
        outputs[cpus] = _files(out_dir)
        pids = _pids(log)
        assert len(pids) == 40
        if cpus == SERIAL:
            assert set(pids) == {str(os.getpid())}
        else:  # every report was written in a forked worker
            assert str(os.getpid()) not in pids and len(set(pids)) > 1
        # and every cycle was scored in this process, before the pool
        assert _pids(scored) == [str(os.getpid())] * 40
        monkeypatch.undo()
    assert len(outputs[SERIAL]) == 40
    assert outputs[SERIAL] == outputs[PARALLEL]


def test_run_writes_the_same_bytes_on_one_or_many_cpus(
        tmp_path, monkeypatch, capsys):
    seq, annotations = occluded_walker()
    kp_path = tmp_path / "walk.keypoints.jsonl"
    ann_path = tmp_path / "walk.cycles.json"
    kp_path.write_bytes(serialize_pose_sequence(seq))
    ann_path.write_bytes(serialize_annotations(seq.video_id, annotations))
    monkeypatch.setattr(cli, "_MIN_CYCLES_PER_WORKER", 1)  # fork for 6
    outputs, stdout = {}, {}
    for cpus in (SERIAL, PARALLEL):
        monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
        out_dir = tmp_path / f"out{cpus}"
        assert main(["run", "--keypoints", str(kp_path), "--annotations",
                     str(ann_path), "--out-dir", str(out_dir)]) == 0
        outputs[cpus] = _files(out_dir)
        stdout[cpus] = capsys.readouterr().out.replace(str(out_dir), "OUT")
    # 6 cycles x (report + 2 figures with sidecars), 10 band plots with
    # sidecars, model, overlays
    assert len(outputs[SERIAL]) == 6 * 5 + 20 + 2
    assert outputs[SERIAL] == outputs[PARALLEL]
    assert stdout[SERIAL] == stdout[PARALLEL]


def _failing_detect(tmp_path, monkeypatch, capsys, cohort, cpus, setup):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    _, cycles_path, model_path = cohort
    out_dir = tmp_path / f"out{cpus}"
    setup(out_dir)
    capsys.readouterr()
    rc = _detect(cycles_path, model_path, out_dir)
    err = capsys.readouterr().err.replace(str(out_dir), "OUT")
    assert "Traceback" not in err
    return rc, err


def test_lowest_failing_cycle_raises_the_serial_validation_error(
        tmp_path, monkeypatch, capsys, cohort):
    cycles = cohort[0]
    bad = {cycles[7].cycle_id, cycles[33].cycle_id}
    real = cli.build_report

    def failing(cycle, *args, **kwargs):
        if cycle.cycle_id in bad:
            raise ValidationError(f"cycle {cycle.cycle_id} is bad")
        return real(cycle, *args, **kwargs)

    monkeypatch.setattr(cli, "build_report", failing)
    results = [_failing_detect(tmp_path, monkeypatch, capsys, cohort, cpus,
                               lambda out_dir: None)
               for cpus in (SERIAL, PARALLEL)]
    expected = (f"gaitnorm: validation error: cycle {cycles[7].cycle_id} "
                f"is bad\n")
    assert results == [(1, expected)] * 2


def test_unwritable_report_path_exits_2_with_the_serial_message(
        tmp_path, monkeypatch, capsys, cohort):
    def block(out_dir):  # a directory where cycle 5's report goes
        (out_dir / "demo.c5.report.json").mkdir(parents=True)

    results = [_failing_detect(tmp_path, monkeypatch, capsys, cohort, cpus,
                               block)
               for cpus in (SERIAL, PARALLEL)]
    assert results[0] == results[1]
    rc, err = results[0]
    assert rc == 2
    assert err == ("gaitnorm: i/o error: [Errno 21] Is a directory: "
                   "'OUT/demo.c5.report.json'\n")


def test_run_with_an_all_unknown_cycle_writes_the_same_bytes_on_one_or_many_cpus(
        tmp_path, monkeypatch):
    # cycle 17 of 40 has every joint unknown; its report, heatmap and
    # multi-joint panel are written by a worker under PARALLEL
    seq, annotations = dimmed_walker(40, 20, 17)
    kp_path = tmp_path / "walk.keypoints.jsonl"
    ann_path = tmp_path / "walk.cycles.json"
    kp_path.write_bytes(serialize_pose_sequence(seq))
    ann_path.write_bytes(serialize_annotations(seq.video_id, annotations))
    outputs = {}
    for cpus in (SERIAL, PARALLEL):
        monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
        out_dir = tmp_path / f"out{cpus}"
        assert main(["run", "--keypoints", str(kp_path), "--annotations",
                     str(ann_path), "--out-dir", str(out_dir)]) == 0
        outputs[cpus] = _files(out_dir)
    assert len(outputs[SERIAL]) == 40 * 5 + 20 + 2
    assert b'"blank_rows": []' not in \
        outputs[SERIAL]["dimmed-walk.c17.heatmap.svg.json"]
    assert outputs[SERIAL] == outputs[PARALLEL]


@pytest.fixture
def walk(tmp_path):
    """Keypoint and annotation files of a 40-cycle walk."""
    seq, annotations = generate_pose_sequence(n_cycles=40,
                                              frames_per_cycle=20, seed=3)
    kp_path = tmp_path / "walk.keypoints.jsonl"
    ann_path = tmp_path / "walk.cycles.json"
    kp_path.write_bytes(serialize_pose_sequence(seq))
    ann_path.write_bytes(serialize_annotations(seq.video_id, annotations))
    return kp_path, ann_path


@pytest.mark.parametrize("cpus", [SERIAL, PARALLEL])
@pytest.mark.parametrize("command", ["detect", "run"])
def test_a_scoring_error_writes_nothing(tmp_path, monkeypatch, capsys,
                                        cohort, walk, command, cpus):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    real, calls = cli.build_report, []

    def failing(cycle, *args, **kwargs):
        calls.append(cycle.cycle_id)
        if len(calls) == 8:
            raise ValidationError(f"cycle {cycle.cycle_id} is bad")
        return real(cycle, *args, **kwargs)

    monkeypatch.setattr(cli, "build_report", failing)
    out_dir = tmp_path / "out"
    if command == "detect":
        rc = _detect(cohort[1], cohort[2], out_dir)
    else:
        rc = main(["run", "--keypoints", str(walk[0]), "--annotations",
                   str(walk[1]), "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == (f"gaitnorm: validation error: cycle "
                                       f"{calls[7]} is bad\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("cpus", [SERIAL, PARALLEL])
def test_a_band_too_wide_to_draw_writes_nothing(tmp_path, monkeypatch,
                                                capsys, walk, cpus):
    # the band plots are rendered before out_dir is made, and a panel
    # fails only where a band plot does
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    out_dir = tmp_path / "k1"
    assert main(["run", "--keypoints", str(walk[0]), "--annotations",
                 str(walk[1]), "--k", "1e308", "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "gaitnorm: validation error: the 1e+308 SD band is too wide to "
        "draw\n")
    assert not out_dir.exists()


def test_lowest_failing_write_raises_the_serial_validation_error(
        tmp_path, monkeypatch, capsys, cohort):
    cycles = cohort[0]
    bad = {cycles[7].cycle_id, cycles[33].cycle_id}
    real = cli.save_report

    def failing(report, *args, **kwargs):
        if report.cycle_id in bad:
            raise ValidationError(f"report {report.cycle_id} is bad")
        return real(report, *args, **kwargs)

    monkeypatch.setattr(cli, "save_report", failing)
    results = [_failing_detect(tmp_path, monkeypatch, capsys, cohort, cpus,
                               lambda out_dir: None)
               for cpus in (SERIAL, PARALLEL)]
    expected = (f"gaitnorm: validation error: report {cycles[7].cycle_id} "
                f"is bad\n")
    assert results == [(1, expected)] * 2


@pytest.mark.parametrize("cpus,forked", [(1, False), (2, True)])
def test_meanwhile_runs_in_the_parent(monkeypatch, cpus, forked):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    n, parent = 2 * cli._MIN_CYCLES_PER_WORKER, os.getpid()
    ran = []
    pids = cli._map_cycles(lambda i: os.getpid(), n,
                           lambda: ran.append(os.getpid()))
    assert ran == [parent]
    assert (parent not in pids) is forked


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_cycle_outranks_a_failing_meanwhile(monkeypatch, cpus):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)

    def job(i):
        if i in (9, 20):
            raise ValidationError(f"cycle {i}")
        return i

    def meanwhile():
        raise OSError("meanwhile")

    n = 2 * cli._MIN_CYCLES_PER_WORKER
    with pytest.raises(ValidationError, match="^cycle 9$"):
        cli._map_cycles(job, n, meanwhile)
    with pytest.raises(OSError, match="^meanwhile$"):
        cli._map_cycles(lambda i: i, n, meanwhile)


KILLED_WORKER = textwrap.dedent("""
    import os, signal, sys
    from gaitnorm import cli

    parent, real = os.getpid(), cli.save_report

    def dying(report, *args, **kwargs):
        if os.getpid() != parent and report.cycle_id == sys.argv[1]:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(report, *args, **kwargs)

    cli.save_report = dying
    cli._cpus = lambda: 2
    sys.exit(cli.main(sys.argv[2:]))
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_killed_worker_exits_2_with_one_line(tmp_path, cohort):
    cycles, cycles_path, model_path = cohort
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WORKER, cycles[12].cycle_id, "detect",
         "--cycles", str(cycles_path), "--model", str(model_path),
         "--out-dir", str(tmp_path / "out"), "--video-id", "demo"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("gaitnorm: i/o error: a worker process")


def _walker_files(tmp_path, inputs, walk):
    if inputs == "demo":
        return FIXTURES / "demo.keypoints.jsonl", FIXTURES / "demo.cycles.json"
    if inputs == "walk-40":
        return walk
    seq, annotations = occluded_walker()
    kp_path, ann_path = tmp_path / "occ.jsonl", tmp_path / "occ.cycles.json"
    kp_path.write_bytes(serialize_pose_sequence(seq))
    ann_path.write_bytes(serialize_annotations(seq.video_id, annotations))
    return kp_path, ann_path


@pytest.mark.parametrize("inputs", ["demo", "occluded", "walk-40"])
@pytest.mark.parametrize("command", ["detect", "run"])
def test_written_reports_reload_as_built(tmp_path, monkeypatch, walk,
                                         inputs, command):
    # A report stores only z and the config; reading it back derives the
    # flags and severity build_report derived, bit for bit, whichever
    # process wrote the file.
    kp_path, ann_path = _walker_files(tmp_path, inputs, walk)
    real, built = cli.build_report, []

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    out_dir = tmp_path / "out"
    if command == "run":
        monkeypatch.setattr(cli, "build_report", recording)
        assert main(["run", "--keypoints", str(kp_path), "--annotations",
                     str(ann_path), "--out-dir", str(out_dir)]) == 0
    else:
        cycles, model = tmp_path / "c.json", tmp_path / "m.json"
        assert main(["segment", "--keypoints", str(kp_path), "--annotations",
                     str(ann_path), "--out", str(cycles)]) == 0
        assert main(["build-norm", "--cycles", str(cycles),
                     "--out", str(model)]) == 0
        monkeypatch.setattr(cli, "build_report", recording)
        assert _detect(cycles, model, out_dir) == 0
    assert built
    for i, report in enumerate(built):
        path, = out_dir.glob(f"*.c{i}.report.json")
        loaded = load_report(path.read_bytes())
        assert_same_judgment(loaded, report)
        assert loaded.unknown_joints == report.unknown_joints
        assert loaded.config == report.config
