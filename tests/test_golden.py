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
        "f0bb9b67102332ede4b0b70da5107195147ed94c343c77dad037d4158c9f7c1a",
    "band.left_elbow.svg":
        "229026952ae279ab22256c9c0821b144a6b35b6c645eb5b518d0385a295dd9cb",
    "band.left_elbow.svg.json":
        "fad535fd1f82439452b09ef01f2c3cef5913a1840dbafeaa3a323c090029c9e9",
    "band.left_hip.svg":
        "45954b379508251c3d0c30febd3883929626be8316d376fb590d87f39e88875c",
    "band.left_hip.svg.json":
        "48135cc6bfc29db26dffeb7fae6418fd9ff0f0dd5fd5bfb70f9abedc7066b259",
    "band.left_knee.svg":
        "17695be50c6817df327ff9e3814835a5785e7c518bb54abb6e8755ca0b98bbc8",
    "band.left_knee.svg.json":
        "b0b6e8b7ce481656337a9e504b3555ed84cf3e88f2f77b7a83ecc505ade7ea7e",
    "band.left_shoulder.svg":
        "3cb7dbdb92c8d18d04244d4d87c99a025d2c9189b1bfbc8af10ada6543161902",
    "band.left_shoulder.svg.json":
        "6f1d580f30c46c53f1322dc12e187410ca7a766d0d1839943ae3f0c4782a4389",
    "band.right_ankle.svg":
        "fee2be5a3fa913a5498a5e9bd3641ef14dd69e581a8755c9a24296e0e423b01c",
    "band.right_ankle.svg.json":
        "53e3590cbc7bf790daf168f0d56483a257fc89b7af5cfc55d9de59274a9e8c9a",
    "band.right_elbow.svg":
        "d4ec751e644688b98707f3a186cbd59df761376787b82daf211db086974f5ded",
    "band.right_elbow.svg.json":
        "792084c670b85a74b165a94d18ef6ad8a7d5a28b0a9af0c87a4fd934f0bce345",
    "band.right_hip.svg":
        "ba649770cf1d85cacacd001ffeb1d5b8d7c43b19e604eabaa44193084ed3930d",
    "band.right_hip.svg.json":
        "f483cff522a308c3b23aea68c114be723ce00022c8cba82e6bcb5796e871e70c",
    "band.right_knee.svg":
        "d6dd6b7313a98402cebbb45a6acb328edc0a390de2d3e9fb0b1d1f1350ad1d66",
    "band.right_knee.svg.json":
        "e90f6711bb6900ae47ef1fe96774deb551f36a8ce00b90c6e61ce7831a92d395",
    "band.right_shoulder.svg":
        "97badbab527f1eae65a462d92a7b85b84b54543543d4c4e37acf9c791d6d47f6",
    "band.right_shoulder.svg.json":
        "7cf68ac66193ba1749ab11e7cfbe59128120ae23d49aa9b3175d89adea5a5325",
    "c0.heatmap.svg":
        "5b815a268d0db7f3fa7bb3c576e6ff8a4a14b382687af373cced43e13f07cd61",
    "c0.heatmap.svg.json":
        "c8ca81f0949232e1f2817ccce54c2528b9b09e40ddf0964fbaa3b6982316bab5",
    "c0.multijoint.svg":
        "fce76f9154e0d747c456baa50067ff68aadf82f80ebffc6dfedadf42a3633c87",
    "c0.multijoint.svg.json":
        "71e3e7d24322d2d0f93f7faea8d881a07f43dc2996d4ea6700eee3797156a01e",
    "c0.report.json":
        "41e4caff3e59292aba16f9e60c348331aea8a971c0c4d6d42c012762d8af8dae",
    "c1.heatmap.svg":
        "a8b36a71368866c4745cc69c55f3e82a004ae29175093d3e42c165d03090d2aa",
    "c1.heatmap.svg.json":
        "c8ca81f0949232e1f2817ccce54c2528b9b09e40ddf0964fbaa3b6982316bab5",
    "c1.multijoint.svg":
        "af2752ab08fa0a2400db3888d787a6d80e0b9bba18db4b911b9de6489ece12e5",
    "c1.multijoint.svg.json":
        "550de01127406d3bd48d4e067b0c4bcca7f189dee76e807ed0c506ec696fe105",
    "c1.report.json":
        "544dc4b65fcccfc38daa23b162e5c6db3fbe4098512dab61a33590c57f2c2a81",
    "c2.heatmap.svg":
        "2afc263be8a3b0ee0965c7f48effe935d7acd75e1957f642089e4be8a121d231",
    "c2.heatmap.svg.json":
        "c8ca81f0949232e1f2817ccce54c2528b9b09e40ddf0964fbaa3b6982316bab5",
    "c2.multijoint.svg":
        "d6aa407b6138b408052d78abbb206fcd19b07b11634f9e156d8f81b625d993f1",
    "c2.multijoint.svg.json":
        "7f939caee16941b395f1b38729a98c8dd3a1bdf24a82b5724303304fce8c0144",
    "c2.report.json":
        "fa63832760dac37dbe73fe60ffbb031fb08e1011dc2bd9d12c6778f100033747",
    "c3.heatmap.svg":
        "944b9cdeae6a1cdaed25edf71a91f32fb9b023e9940adf9c70a8374ea19a0bb1",
    "c3.heatmap.svg.json":
        "ecb3f8373f60ee79ae913c4cf287f2c596d4ab30e0985f224f436bdd3a176bcf",
    "c3.multijoint.svg":
        "de07f91224d055772b2252bfa0a2c9f33026c8c90ecb7a1537c237b06a54ff3b",
    "c3.multijoint.svg.json":
        "638d5eed203d3d59075a1c99ed74f7dc68b7ba240cafc89e8a697199dc225874",
    "c3.report.json":
        "56ca938e2f9bd49e0d4cb46f3d73df86c4daa533037edbd2721a910810e28651",
    "model.json":
        "78170288251a400390454c19df6fb4b476c032f5f6e15afeff2dfd2232f88d0a",
    "overlays.json":
        "8ca0139d1203118cbcc220c5ba69ce144f391c0592bcf671a38c541eaac04de1",
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
            "90288e3ffa11aad958f58989120e66fbf57af41f755887251b57a7f887e909f4",
    },
    "segment": {
        "demo.cycles.json":
            "e0fa5324d20f979855cffe4079b7682f5b23b77f781681ba828957221a98a35c",
    },
    "build-norm": {
        "demo.model.json":
            "78170288251a400390454c19df6fb4b476c032f5f6e15afeff2dfd2232f88d0a",
    },
    "detect": {
        "demo.cycles.c0.report.json":
            "a377d3e8a0749d48df39dabe0481614c15a7a3024f6ca21f28f5a84bb09b780c",
        "demo.cycles.c1.report.json":
            "856a39661fd3dca708839d7072300b6d95e43a3a57e1a12e62d119d20a304d84",
        "demo.cycles.c2.report.json":
            "39274914d9620de676acaeaee4cf3f99d05c1c035b594dfbe90d1e3c74479dd0",
        "demo.cycles.c3.report.json":
            "00ddf3f05a7dbce16499b91a8afe7c06ad47e1df806ec9244d028c0eeddeb4fa",
    },
    "figures": {
        "synthetic-walk.band.left_ankle.svg":
            "b16b2637c69bcc5efcf3782f4857ad36aa824843e91e16f66cc414aebdc4bf4a",
        "synthetic-walk.band.left_ankle.svg.json":
            "cae2ab608bf892613bce68667b57eec6b7a003c3156d99de10d1c8caa1a61c15",
        "synthetic-walk.band.left_elbow.svg":
            "a5fe289f4eb51333b56ed3ef68cfc551f45046e3c16a24e3a108c80fc65513fd",
        "synthetic-walk.band.left_elbow.svg.json":
            "4aa691cedbf46e1e2ab6c8bfdb0be7616f00378457872d62a3f5f1eae7f10132",
        "synthetic-walk.band.left_hip.svg":
            "2522d66c24c0d94a2caf99d793cd03c44b778e7b3a4b5e9df34fa5c1b04dabd4",
        "synthetic-walk.band.left_hip.svg.json":
            "9641c94b86feb256d7e76b5b240bb10b54c24acc12fb228d361809d80c7f8294",
        "synthetic-walk.band.left_knee.svg":
            "473c19731c8627562c7ce4b09e0d804c4a30b8638fc63dcddd355a4f1a09ef3e",
        "synthetic-walk.band.left_knee.svg.json":
            "61eda661e608fde697d34223a72d534ef75830e1bb07f8370e8acafc7dacacd1",
        "synthetic-walk.band.left_shoulder.svg":
            "18038d278f21200b1bccc9fcc385927b5e87657547ff3013e6aaaf08df314ddf",
        "synthetic-walk.band.left_shoulder.svg.json":
            "5609588c043e45c5a9a59709c2c3582e359e5bc54927b9a114822216bef14864",
        "synthetic-walk.band.right_ankle.svg":
            "d939d16cbfae8c76306daf92f075a7af349081bbb29e8818ff6c62986caf1a1a",
        "synthetic-walk.band.right_ankle.svg.json":
            "9d3ed3ef19ceb99f796479f50e6072ebc50b26ee340ad9344369761c67eed543",
        "synthetic-walk.band.right_elbow.svg":
            "00d7633a2f7f28c3116176149fb90cb3c19a500a5769ac24faca50ba1794c9c1",
        "synthetic-walk.band.right_elbow.svg.json":
            "417e0bb3df80f80c2df60d5770fd95850eaa6f7a29384ae9e81663bc2ba7a081",
        "synthetic-walk.band.right_hip.svg":
            "d2b732e8afb04fb85e30bac3a1fd065e9bbffef6d98b81ea0d9aea83ccb51034",
        "synthetic-walk.band.right_hip.svg.json":
            "a3816ff9cba33aeac0bf51027949cd4d8d27d2340f28aaf78e321cd95ad88f21",
        "synthetic-walk.band.right_knee.svg":
            "6b54d3638f9c30040cde91d37e23b625e2058f9ca7d0503a9287f8c8d240f260",
        "synthetic-walk.band.right_knee.svg.json":
            "c78b7fa6610e2bc33a7cde1adcf41291c102309208d8ef0e52685c4330442a97",
        "synthetic-walk.band.right_shoulder.svg":
            "ef45f9bd514cc0f3fedb5b88e97cdb5aa0d84d5c7e8daf50f497d9c7da338c4e",
        "synthetic-walk.band.right_shoulder.svg.json":
            "bf4806023e5b3d5506fbd871e6aac635d0f6493fb25214202208e96cdca40821",
        "synthetic-walk.heatmap.svg":
            "944b9cdeae6a1cdaed25edf71a91f32fb9b023e9940adf9c70a8374ea19a0bb1",
        "synthetic-walk.heatmap.svg.json":
            "ecb3f8373f60ee79ae913c4cf287f2c596d4ab30e0985f224f436bdd3a176bcf",
        "synthetic-walk.multijoint.svg":
            "de07f91224d055772b2252bfa0a2c9f33026c8c90ecb7a1537c237b06a54ff3b",
        "synthetic-walk.multijoint.svg.json":
            "638d5eed203d3d59075a1c99ed74f7dc68b7ba240cafc89e8a697199dc225874",
        "synthetic-walk.overlays.json":
            "576fb30e040082c9099f62887e1c2646f08bf268ae342f2a8fede879dd4a23f9",
    },
    "synth": {
        "demo.synth.json":
            "4a1d5332f9f9c416ddddf08ff273634e31138f1eaf4e8ac867ef741d95fe5b9e",
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
