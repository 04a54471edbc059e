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

FIXTURES = Path(__file__).parent / "fixtures"
VIDEO_ID = "synthetic-walk"

# File name (after the "<video_id>." prefix) -> sha256 of its bytes.
GOLDEN = {
    "band.left_ankle.svg":
        "157726954213a75e69b2c498726185e914aacd8997707df3c2b3fffbe11d7a65",
    "band.left_ankle.svg.json":
        "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
    "band.left_elbow.svg":
        "229026952ae279ab22256c9c0821b144a6b35b6c645eb5b518d0385a295dd9cb",
    "band.left_elbow.svg.json":
        "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
    "band.left_hip.svg":
        "45954b379508251c3d0c30febd3883929626be8316d376fb590d87f39e88875c",
    "band.left_hip.svg.json":
        "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
    "band.left_knee.svg":
        "17695be50c6817df327ff9e3814835a5785e7c518bb54abb6e8755ca0b98bbc8",
    "band.left_knee.svg.json":
        "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
    "band.left_shoulder.svg":
        "3cb7dbdb92c8d18d04244d4d87c99a025d2c9189b1bfbc8af10ada6543161902",
    "band.left_shoulder.svg.json":
        "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
    "band.right_ankle.svg":
        "fee2be5a3fa913a5498a5e9bd3641ef14dd69e581a8755c9a24296e0e423b01c",
    "band.right_ankle.svg.json":
        "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
    "band.right_elbow.svg":
        "d4ec751e644688b98707f3a186cbd59df761376787b82daf211db086974f5ded",
    "band.right_elbow.svg.json":
        "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
    "band.right_hip.svg":
        "ba649770cf1d85cacacd001ffeb1d5b8d7c43b19e604eabaa44193084ed3930d",
    "band.right_hip.svg.json":
        "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
    "band.right_knee.svg":
        "d6dd6b7313a98402cebbb45a6acb328edc0a390de2d3e9fb0b1d1f1350ad1d66",
    "band.right_knee.svg.json":
        "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
    "band.right_shoulder.svg":
        "97badbab527f1eae65a462d92a7b85b84b54543543d4c4e37acf9c791d6d47f6",
    "band.right_shoulder.svg.json":
        "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
    "c0.heatmap.svg":
        "5b815a268d0db7f3fa7bb3c576e6ff8a4a14b382687af373cced43e13f07cd61",
    "c0.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c0.multijoint.svg":
        "fce76f9154e0d747c456baa50067ff68aadf82f80ebffc6dfedadf42a3633c87",
    "c0.multijoint.svg.json":
        "28941e77a88bfea7a3e45c6d6fac4e1cca519b6700b43484e9a6f9bf1a399bb4",
    "c0.report.json":
        "752559bcc50625a01b64015bd534153e32cc46809a239e44d6c4060561054b57",
    "c1.heatmap.svg":
        "a8b36a71368866c4745cc69c55f3e82a004ae29175093d3e42c165d03090d2aa",
    "c1.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c1.multijoint.svg":
        "af2752ab08fa0a2400db3888d787a6d80e0b9bba18db4b911b9de6489ece12e5",
    "c1.multijoint.svg.json":
        "778a82011c690e1ee42572af51669a78093ca28203d0c8c6225b1f4897a0e0c4",
    "c1.report.json":
        "5ffc90c8e615f63592566845b8e997fec0d3c1090142bef47e138a89bf604374",
    "c2.heatmap.svg":
        "2afc263be8a3b0ee0965c7f48effe935d7acd75e1957f642089e4be8a121d231",
    "c2.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c2.multijoint.svg":
        "d6aa407b6138b408052d78abbb206fcd19b07b11634f9e156d8f81b625d993f1",
    "c2.multijoint.svg.json":
        "ed025ac9b404f5da886647c6018dba4893fd3901cef367b0b83c91ddc19a2535",
    "c2.report.json":
        "1dfa14604e5e4c21abb832ec3e1359a4b79d198185f8fe6d81f2cdef4ddc5bec",
    "c3.heatmap.svg":
        "944b9cdeae6a1cdaed25edf71a91f32fb9b023e9940adf9c70a8374ea19a0bb1",
    "c3.heatmap.svg.json":
        "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
    "c3.multijoint.svg":
        "de07f91224d055772b2252bfa0a2c9f33026c8c90ecb7a1537c237b06a54ff3b",
    "c3.multijoint.svg.json":
        "79f4ffa374a85a64eec30df00a670b999bfca418913dd5cff6bc01e4ef075d63",
    "c3.report.json":
        "3c6d6c866174fab1d2489e12831bd755cdc37481cfe9c9f13db93ff60989dfd7",
    "model.json":
        "44a48584c2a2dfc13dbba4c02276f69ae68813321b69dc7736021bccbe6da231",
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
            "ed2a32c1c7ef3d93fad2d08087477d72fcc50f2343317b82d7cc5381323ca909",
    },
    "build-norm": {
        "demo.model.json":
            "44a48584c2a2dfc13dbba4c02276f69ae68813321b69dc7736021bccbe6da231",
    },
    "detect": {
        "demo.cycles.c0.report.json":
            "33ca36c4f636c934ae9dd1c8a199b6e9d229c212bc42dc17795a6b764c6acc88",
        "demo.cycles.c1.report.json":
            "1c2c7e91d52a19a07f443f83128c1aef2568e10c6443676d427f1f4dd07e3446",
        "demo.cycles.c2.report.json":
            "d326a2c29966b558bf0e28acf9f0741c55da31ad6dac465420e98e4f05395887",
        "demo.cycles.c3.report.json":
            "c8c314954c4db6ec36d1756bd01d63336387cb950e81fbdc6c3d7f0191cb5bb3",
    },
    "figures": {
        "synthetic-walk.band.left_ankle.svg":
            "b16b2637c69bcc5efcf3782f4857ad36aa824843e91e16f66cc414aebdc4bf4a",
        "synthetic-walk.band.left_ankle.svg.json":
            "c1eada47dd3f774943465102bc523d11a3ad1daeb583b1707d734395fe2daa7e",
        "synthetic-walk.band.left_elbow.svg":
            "a5fe289f4eb51333b56ed3ef68cfc551f45046e3c16a24e3a108c80fc65513fd",
        "synthetic-walk.band.left_elbow.svg.json":
            "17dab4c49518cbf0006530a3dc73a108620279afcdf5bc48fea10ed040aac094",
        "synthetic-walk.band.left_hip.svg":
            "2522d66c24c0d94a2caf99d793cd03c44b778e7b3a4b5e9df34fa5c1b04dabd4",
        "synthetic-walk.band.left_hip.svg.json":
            "096e25827afc6c2606cccdd8bfc28c0ef2872ee986d6114b0f27d4e42a4a5f6f",
        "synthetic-walk.band.left_knee.svg":
            "473c19731c8627562c7ce4b09e0d804c4a30b8638fc63dcddd355a4f1a09ef3e",
        "synthetic-walk.band.left_knee.svg.json":
            "5bc011a826f0181e49202396ffb258bdbab73f0fdb5b7a770e2d99f5026ec888",
        "synthetic-walk.band.left_shoulder.svg":
            "18038d278f21200b1bccc9fcc385927b5e87657547ff3013e6aaaf08df314ddf",
        "synthetic-walk.band.left_shoulder.svg.json":
            "3c9cc0ea784838e37823e5dea4d5d617de57b9122fa0201b6d2b06f5c3fc239e",
        "synthetic-walk.band.right_ankle.svg":
            "d939d16cbfae8c76306daf92f075a7af349081bbb29e8818ff6c62986caf1a1a",
        "synthetic-walk.band.right_ankle.svg.json":
            "c27dcb0ec23fb656d4a9292143142798edae89ddad8662b83f945d7212e794cf",
        "synthetic-walk.band.right_elbow.svg":
            "00d7633a2f7f28c3116176149fb90cb3c19a500a5769ac24faca50ba1794c9c1",
        "synthetic-walk.band.right_elbow.svg.json":
            "09c12c221b9e0aed543162afe64f4733ba028b2a65e721356367a16d0996eaf3",
        "synthetic-walk.band.right_hip.svg":
            "d2b732e8afb04fb85e30bac3a1fd065e9bbffef6d98b81ea0d9aea83ccb51034",
        "synthetic-walk.band.right_hip.svg.json":
            "defbac2472d438970fc1afcba7036d165c49d8e63c5f43a778294a46816a67de",
        "synthetic-walk.band.right_knee.svg":
            "6b54d3638f9c30040cde91d37e23b625e2058f9ca7d0503a9287f8c8d240f260",
        "synthetic-walk.band.right_knee.svg.json":
            "879632331d168a306fa596f656f3e321de03b386a5c7f421fdd4cfa36ff36906",
        "synthetic-walk.band.right_shoulder.svg":
            "ef45f9bd514cc0f3fedb5b88e97cdb5aa0d84d5c7e8daf50f497d9c7da338c4e",
        "synthetic-walk.band.right_shoulder.svg.json":
            "00c4d0ad47bbc38415a67fb4b14e914a55376f9ac3611cd0155853f6eb905939",
        "synthetic-walk.heatmap.svg":
            "944b9cdeae6a1cdaed25edf71a91f32fb9b023e9940adf9c70a8374ea19a0bb1",
        "synthetic-walk.heatmap.svg.json":
            "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
        "synthetic-walk.multijoint.svg":
            "de07f91224d055772b2252bfa0a2c9f33026c8c90ecb7a1537c237b06a54ff3b",
        "synthetic-walk.multijoint.svg.json":
            "79f4ffa374a85a64eec30df00a670b999bfca418913dd5cff6bc01e4ef075d63",
        "synthetic-walk.overlays.json":
            "86de5c646c02958013c673a1b64ae03faf19653332f2a780a8befd09d32205f3",
    },
    "synth": {
        "demo.synth.json":
            "f0a90ad95eb132de060986e89afda690db36bdb588a6baf9d08f069ee5ba4129",
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
