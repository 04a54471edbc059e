"""Golden-output lock for every subcommand on the demo fixture.

Every file ``gaitnorm run`` and each stage subcommand writes, figure
sidecars included, is pinned by its sha256, and so is each subcommand's
flag set.  Test c08 only shows that two runs agree with each other; these
tests show that a refactor left every output byte and every flag as it
was.  A change that alters output or flags on purpose re-pins them and
says why.
"""

import argparse
import hashlib
from pathlib import Path

import pytest

from gaitnorm.cli import build_parser, main
from gaitnorm.pose_io import load_report

FIXTURES = Path(__file__).parent / "fixtures"
VIDEO_ID = "synthetic-walk"

# File name (after the "<video_id>." prefix) -> sha256 of its bytes.
GOLDEN = {
    "band.left_ankle.svg":
        "087b195c29e98d9c919c7aebebc6905a6f5a09cf77bb7a5c8070f6a8945e2bc1",
    "band.left_ankle.svg.json":
        "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
    "band.left_elbow.svg":
        "531c8030b5709fba0e04a6602c0f08cc6bacd282ed95f2ad18d8a29c6c18d46d",
    "band.left_elbow.svg.json":
        "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
    "band.left_hip.svg":
        "6c028656cbfc779f57c7bbd5775b74f11d40a2e22bb12a319916dbfb6750ccad",
    "band.left_hip.svg.json":
        "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
    "band.left_knee.svg":
        "0997fd9584c63c2ac2852aa19fec7e1e51fc12640da8dd9754cb4edce510d7a3",
    "band.left_knee.svg.json":
        "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
    "band.left_shoulder.svg":
        "ee6204553f76f5a284936f1d74307aa9fc8acc1fd7d65cbf05f12a0403e6c3f8",
    "band.left_shoulder.svg.json":
        "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
    "band.right_ankle.svg":
        "3526c68b7ca953afc0a708ed6a6e58be5628e186fd39e9f9d18b775f09818ab0",
    "band.right_ankle.svg.json":
        "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
    "band.right_elbow.svg":
        "63b969fe3254127d8360477935f09644213a97b2622062bb76d31374cb860b36",
    "band.right_elbow.svg.json":
        "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
    "band.right_hip.svg":
        "9ed7ed8776fbfba9c718eb05dec95e88f030effd2690ac96d5dcecb9306fcd0f",
    "band.right_hip.svg.json":
        "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
    "band.right_knee.svg":
        "87786ba7e982864bb3f93f7a893fe7d8bf26506befc5796098e4825ce68f01c1",
    "band.right_knee.svg.json":
        "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
    "band.right_shoulder.svg":
        "e00e78fb7fc434e8842f890aaf40b84440b8e29020bae717121f64fbab0bb6d8",
    "band.right_shoulder.svg.json":
        "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
    "c0.heatmap.svg":
        "09f2904f0562564a5991bfb10f3ba9f47f2f56ccd96a1d269245f82d025e3520",
    "c0.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c0.multijoint.svg":
        "fb45babce56019e0a2ea476a8a54aef28e75daa3931a9cad1362fe0862708af2",
    "c0.multijoint.svg.json":
        "9ee17b13971b178ada59127a1108e9a45faeeec6cb01ca2bb0599d212401177a",
    "c0.report.json":
        "cf513c8907e3c8a8e09e298e0993d3b8013660af14df0d162349d3ef9b7e0428",
    "c1.heatmap.svg":
        "3e3bcec81e758bc20cfc79479d9cacca2fbf75168bd475a4d7fd83f98380dd1c",
    "c1.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c1.multijoint.svg":
        "e4ca29755e7e20fc82cc265895508f423d24b1a3759606e7dcfec7e71c482228",
    "c1.multijoint.svg.json":
        "33803c29d9bd8d4b714131886719865b950853231b5597103c60cfec2d38cff3",
    "c1.report.json":
        "2965e6033a3e0b5a5470251e8e5fc9712a74f14460e978a7d0cbf58cfbb7d991",
    "c2.heatmap.svg":
        "261bf954bfffb76cf171eaf594ae754bb471e28c3b10a991e21e36907ab440c2",
    "c2.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c2.multijoint.svg":
        "c4b510e51553033dea5d604ea249462db63daf127ad3caf3685e85af6e7937bc",
    "c2.multijoint.svg.json":
        "ed025ac9b404f5da886647c6018dba4893fd3901cef367b0b83c91ddc19a2535",
    "c2.report.json":
        "03a149d4127bfa45eed64072114695e8c736f1ccb3a045047952180a78040067",
    "c3.heatmap.svg":
        "3d9258aebff72c133640341c292f0d249edeff74e04779151f83c5dafb88394e",
    "c3.heatmap.svg.json":
        "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
    "c3.multijoint.svg":
        "f19f950f5a13af3638e4d652c44b6db96e96405e24d110d9650a5fd572de68b7",
    "c3.multijoint.svg.json":
        "79f4ffa374a85a64eec30df00a670b999bfca418913dd5cff6bc01e4ef075d63",
    "c3.report.json":
        "d0214bdcff9bfdbbf05ecbe6981b4fc6aab2417a036d5f0012946d9de66513cb",
    "model.json":
        "1341c1f22bdac6739a4ffd8d0a4ef02278eb838994fe149ffb4eb166a5620f33",
    "overlays.json":
        "8973b1a5b09c8535712888b227f473b3a6c5480c0e57d57328ecac103aa72ca6",
}

KEYPOINTS = str(FIXTURES / "demo.keypoints.jsonl")
ANNOTATIONS = str(FIXTURES / "demo.cycles.json")

# Subcommand -> argv, in dependency order.  "{name}" is the output
# directory of subcommand ``name``; a command's own directory holds only
# what it writes.
STAGE_COMMANDS = {
    "angles": ["angles", "--keypoints", KEYPOINTS,
               "--out", "{angles}/demo.angles.json"],
    "segment": ["segment", "--keypoints", KEYPOINTS,
                "--annotations", ANNOTATIONS,
                "--out", "{segment}/demo.cycles.json"],
    "build-norm": ["build-norm", "--cycles", "{segment}/demo.cycles.json",
                   "--out", "{build-norm}/demo.model.json"],
    "detect": ["detect", "--cycles", "{segment}/demo.cycles.json",
               "--model", "{build-norm}/demo.model.json",
               "--out-dir", "{detect}"],
    "run": ["run", "--keypoints", KEYPOINTS, "--annotations", ANNOTATIONS,
            "--out-dir", "{run}"],
    # The last cycle's report from ``run`` carries its frame bounds, so
    # the overlay records are written too.
    "figures": ["figures", "--model", "{build-norm}/demo.model.json",
                "--report", "{run}/synthetic-walk.c3.report.json",
                "--cycles", "{segment}/demo.cycles.json",
                "--keypoints", KEYPOINTS, "--out-dir", "{figures}"],
    "synth": ["synth", "--out", "{synth}/demo.synth.json",
              "--n", "5", "--seed", "0"],
}

# Subcommand -> file name -> sha256 of its bytes.
STAGE_GOLDEN = {
    "angles": {
        "demo.angles.json":
            "73c73d0f634749b122f84feb93c1c07bc7672731d05432aaba6ffc3150f6b876",
    },
    "segment": {
        "demo.cycles.json":
            "26f8e91ea54876829da0d035cde16790ac86f8fd861f76c3260c5cd7823d665f",
    },
    "build-norm": {
        "demo.model.json":
            "1341c1f22bdac6739a4ffd8d0a4ef02278eb838994fe149ffb4eb166a5620f33",
    },
    "detect": {
        "demo.cycles.c0.report.json":
            "c895591972fbf5ff9774e2410c261299c29e1ff9103a66e583db406b2ca07a08",
        "demo.cycles.c1.report.json":
            "8a22fc4f4f06d685a1a2c41ab2366f5417cec584571ba33e3dc420c976e6350d",
        "demo.cycles.c2.report.json":
            "3049d3f74166ee800d29cfa15b57dab9e317d177a17e31952e1f4278aedcbaa1",
        "demo.cycles.c3.report.json":
            "cccc9f4f1782faee90ddac575c729b1a693fca4276815d527a229fb846abe355",
    },
    "figures": {
        "synthetic-walk.band.left_ankle.svg":
            "22ee6f4811e5d6a47d1204a2186be7df7e8cf2342435a00b6845d5620923f196",
        "synthetic-walk.band.left_ankle.svg.json":
            "c1eada47dd3f774943465102bc523d11a3ad1daeb583b1707d734395fe2daa7e",
        "synthetic-walk.band.left_elbow.svg":
            "3e1afb3bfee9c398407122480bcf4a7e2a08c3af09923144485f25cd5be41cfe",
        "synthetic-walk.band.left_elbow.svg.json":
            "17dab4c49518cbf0006530a3dc73a108620279afcdf5bc48fea10ed040aac094",
        "synthetic-walk.band.left_hip.svg":
            "499e1f7a5e9bbcf0d44d9e723da8932f4ed8fa8b38ddd41c98396711874479da",
        "synthetic-walk.band.left_hip.svg.json":
            "096e25827afc6c2606cccdd8bfc28c0ef2872ee986d6114b0f27d4e42a4a5f6f",
        "synthetic-walk.band.left_knee.svg":
            "4109d356b4f46bdf04668d2dd6f1c9d0f09cedf31a145d63e188969a703e8819",
        "synthetic-walk.band.left_knee.svg.json":
            "5bc011a826f0181e49202396ffb258bdbab73f0fdb5b7a770e2d99f5026ec888",
        "synthetic-walk.band.left_shoulder.svg":
            "dc06f32ba7a4d0d45b6dbf113cdec06dbeadd9a9e3eafccee5f7f738b0723f6f",
        "synthetic-walk.band.left_shoulder.svg.json":
            "3c9cc0ea784838e37823e5dea4d5d617de57b9122fa0201b6d2b06f5c3fc239e",
        "synthetic-walk.band.right_ankle.svg":
            "2e76a4970948cec690a25fc6250bda174ec84a4ff3f6f125c5123e0853e7b332",
        "synthetic-walk.band.right_ankle.svg.json":
            "c27dcb0ec23fb656d4a9292143142798edae89ddad8662b83f945d7212e794cf",
        "synthetic-walk.band.right_elbow.svg":
            "d368af9cf9a5833aa63bff7aa562f2de680e360cb17becabb51a0d3a338f6ac1",
        "synthetic-walk.band.right_elbow.svg.json":
            "09c12c221b9e0aed543162afe64f4733ba028b2a65e721356367a16d0996eaf3",
        "synthetic-walk.band.right_hip.svg":
            "44f108ecce4464be28a279e6ad14becb783ea55939151a2a46260c5a4d68272b",
        "synthetic-walk.band.right_hip.svg.json":
            "defbac2472d438970fc1afcba7036d165c49d8e63c5f43a778294a46816a67de",
        "synthetic-walk.band.right_knee.svg":
            "5cd0f08771bb0c2b0b48a39ed07641853e97e3532ea909f5f23bbfd5618647ee",
        "synthetic-walk.band.right_knee.svg.json":
            "879632331d168a306fa596f656f3e321de03b386a5c7f421fdd4cfa36ff36906",
        "synthetic-walk.band.right_shoulder.svg":
            "f02a3adc384beaa1eb454fe8ddea349dbb0a1d991b9080583099a0ca6582da75",
        "synthetic-walk.band.right_shoulder.svg.json":
            "00c4d0ad47bbc38415a67fb4b14e914a55376f9ac3611cd0155853f6eb905939",
        "synthetic-walk.heatmap.svg":
            "3d9258aebff72c133640341c292f0d249edeff74e04779151f83c5dafb88394e",
        "synthetic-walk.heatmap.svg.json":
            "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
        "synthetic-walk.multijoint.svg":
            "f19f950f5a13af3638e4d652c44b6db96e96405e24d110d9650a5fd572de68b7",
        "synthetic-walk.multijoint.svg.json":
            "79f4ffa374a85a64eec30df00a670b999bfca418913dd5cff6bc01e4ef075d63",
        "synthetic-walk.overlays.json":
            "86de5c646c02958013c673a1b64ae03faf19653332f2a780a8befd09d32205f3",
    },
    "synth": {
        "demo.synth.json":
            "4e6ae55caa64ff4bbcd012e0c61da1b120e04cb304ab6133cd62a2b8133ba21c",
    },
}

# Subcommand -> flag -> (dest, default, type, choices, required, action).
_CONFIG = ("config", None, None, None, False, "store")
_DETECTION = {
    "--k": ("k", 1.0, "float", None, False, "store"),
    "--sigma-floor-deg": ("sigma_floor_deg", 0.5, "float", None, False,
                          "store"),
    "--severity-clip": ("severity_clip", 3.0, "float", None, False, "store"),
}
_PHASE_SOURCE = ("phase_source", "frames", None, ("frames", "time"), False,
                 "store")
_STD_KIND = ("std_kind", "sample", None, ("sample", "population"), False,
             "store")
FLAG_SETS = {
    "angles": {
        "--config": _CONFIG,
        "--keypoints": ("keypoints", None, None, None, True, "store"),
        "--out": ("out", None, None, None, True, "store"),
        "--video-id": ("video_id", None, None, None, False, "store"),
        "--min-visibility": ("min_visibility", 0.5, "float", None, False,
                             "store"),
        "--strict": ("strict", False, None, None, False, "store_true"),
    },
    "segment": {
        "--config": _CONFIG,
        "--keypoints": ("keypoints", None, None, None, True, "store"),
        "--annotations": ("annotations", None, None, None, True, "store"),
        "--out": ("out", None, None, None, True, "store"),
        "--grid-points": ("grid_points", 101, "int", None, False, "store"),
        "--min-visibility": ("min_visibility", 0.5, "float", None, False,
                             "store"),
        "--strict": ("strict", False, None, None, False, "store_true"),
        "--phase-source": _PHASE_SOURCE,
    },
    "build-norm": {
        "--config": _CONFIG,
        "--cycles": ("cycles", None, None, None, True, "store"),
        "--out": ("out", None, None, None, True, "store"),
        "--std-kind": _STD_KIND,
    },
    "detect": {
        "--config": _CONFIG,
        "--cycles": ("cycles", None, None, None, True, "store"),
        "--model": ("model", None, None, None, True, "store"),
        "--out-dir": ("out_dir", None, None, None, True, "store"),
        "--video-id": ("video_id", None, None, None, False, "store"),
        **_DETECTION,
    },
    "figures": {
        "--config": _CONFIG,
        "--model": ("model", None, None, None, True, "store"),
        "--out-dir": ("out_dir", None, None, None, True, "store"),
        "--report": ("report", None, None, None, False, "store"),
        "--cycles": ("cycles", None, None, None, False, "store"),
        "--keypoints": ("keypoints", None, None, None, False, "store"),
        "--joint": ("joint", None, None, None, False, "append"),
        "--video-id": ("video_id", None, None, None, False, "store"),
        # the heatmap draws the report's own severity, so of the
        # detection flags only --k (the band width) reaches a figure; it
        # defaults to the report's config.k, so the band and the dots
        # share one k (1.0 without a report)
        "--k": ("k", None, "float", None, False, "store"),
    },
    "synth": {
        "--config": _CONFIG,
        "--out": ("out", None, None, None, True, "store"),
        "--n": ("n", 20, "int", None, False, "store"),
        "--seed": ("seed", 0, "int", None, False, "store"),
        "--grid-points": ("grid_points", 101, "int", None, False, "store"),
        "--profiles": ("profiles", None, None, None, False, "store"),
    },
    "run": {
        "--config": _CONFIG,
        "--keypoints": ("keypoints", None, None, None, True, "store"),
        "--annotations": ("annotations", None, None, None, True, "store"),
        "--out-dir": ("out_dir", None, None, None, True, "store"),
        "--model": ("model", None, None, None, False, "store"),
        "--video-id": ("video_id", None, None, None, False, "store"),
        "--grid-points": ("grid_points", 101, "int", None, False, "store"),
        "--min-visibility": ("min_visibility", 0.5, "float", None, False,
                             "store"),
        "--std-kind": _STD_KIND,
        "--strict": ("strict", False, None, None, False, "store_true"),
        "--phase-source": _PHASE_SOURCE,
        **_DETECTION,
    },
}

_ACTION_NAMES = {argparse._StoreAction: "store",
                 argparse._StoreTrueAction: "store_true",
                 argparse._AppendAction: "append"}


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


def test_run_outputs_match_golden_hashes(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run",
                 "--keypoints", str(FIXTURES / "demo.keypoints.jsonl"),
                 "--annotations", str(FIXTURES / "demo.cycles.json"),
                 "--out-dir", str(out_dir)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out_dir.iterdir()}
    expected = {f"{VIDEO_ID}.{name}": digest
                for name, digest in GOLDEN.items()}
    assert sorted(written) == sorted(expected)
    changed = sorted(n for n in expected if written[n] != expected[n])
    assert not changed, f"output bytes changed: {changed}"


@pytest.fixture(scope="module")
def stage_outputs(tmp_path_factory):
    """Run every subcommand of ``STAGE_COMMANDS`` once, in order."""
    root = tmp_path_factory.mktemp("stages")
    dirs = {name: root / name for name in STAGE_COMMANDS}
    for name, argv in STAGE_COMMANDS.items():
        dirs[name].mkdir()
        filled = [a.format(**{k: str(v) for k, v in dirs.items()})
                  for a in argv]
        assert main(filled) == 0, name
    return dirs


@pytest.mark.parametrize("command", sorted(STAGE_GOLDEN))
def test_subcommand_outputs_match_golden_hashes(stage_outputs, command):
    written = _digests(stage_outputs[command])
    expected = STAGE_GOLDEN[command]
    assert sorted(written) == sorted(expected)
    changed = sorted(n for n in expected if written[n] != expected[n])
    assert not changed, f"output bytes changed: {changed}"


def test_subcommand_flag_sets_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flag_sets = {
        name: {a.option_strings[-1]: (a.dest, a.default,
                                      getattr(a.type, "__name__", a.type),
                                      a.choices, a.required,
                                      _ACTION_NAMES[type(a)])
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()}
    assert flag_sets == FLAG_SETS


def test_run_builds_and_scores_as_the_stage_commands_do(stage_outputs):
    # Cycle angles are rounded where they are computed, not by the
    # writer: the model ``run`` builds is the one ``build-norm`` builds
    # from ``segment``'s file, and ``detect`` on that file gives every
    # cycle the z ``run`` gave it.
    run, built = (stage_outputs["run"] / f"{VIDEO_ID}.model.json",
                  stage_outputs["build-norm"] / "demo.model.json")
    assert run.read_bytes() == built.read_bytes()
    for i in range(4):
        by_run = load_report(
            (stage_outputs["run"] / f"{VIDEO_ID}.c{i}.report.json")
            .read_bytes())
        by_detect = load_report(
            (stage_outputs["detect"] / f"demo.cycles.c{i}.report.json")
            .read_bytes())
        assert by_run.cycle_id == by_detect.cycle_id
        assert list(by_run.z) == list(by_detect.z)
        for joint, z in by_run.z.items():
            assert z.tobytes() == by_detect.z[joint].tobytes(), (i, joint)
