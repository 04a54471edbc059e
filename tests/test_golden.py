"""Golden-output lock for ``gaitnorm run`` on the demo fixture.

Every file the run writes, figure sidecars included, is pinned by its
sha256.  Test c08 only shows that two runs agree with each other; this
test shows that a refactor left every output byte as it was.  A change
that alters output on purpose re-pins these hashes and says why.
"""

import hashlib
from pathlib import Path

from gaitnorm.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
VIDEO_ID = "synthetic-walk"

# File name (after the "<video_id>." prefix) -> sha256 of its bytes.
GOLDEN = {
    "band.left_ankle.svg":
        "d06a488305676d3f81cbe3add5118b0ca08d87f588afa5aca77b65b8704f8eb1",
    "band.left_ankle.svg.json":
        "f0bb9b67102332ede4b0b70da5107195147ed94c343c77dad037d4158c9f7c1a",
    "band.left_elbow.svg":
        "2f488c931cd5e3fb4ca7bcce3dd5415cfaabae5572161e454a102247d8a22462",
    "band.left_elbow.svg.json":
        "fad535fd1f82439452b09ef01f2c3cef5913a1840dbafeaa3a323c090029c9e9",
    "band.left_hip.svg":
        "fbd3a14343805e06e09f69ba211904025b30e2b2ff5572e59435c835460d9926",
    "band.left_hip.svg.json":
        "48135cc6bfc29db26dffeb7fae6418fd9ff0f0dd5fd5bfb70f9abedc7066b259",
    "band.left_knee.svg":
        "008cc155744c145609537696a4c31d5d15e370d9956547a1dec03bee83f7aedc",
    "band.left_knee.svg.json":
        "b0b6e8b7ce481656337a9e504b3555ed84cf3e88f2f77b7a83ecc505ade7ea7e",
    "band.left_shoulder.svg":
        "c60aa56a13cdf38f72f4fe7213794807f07ac9371c318cce5a94045f399222ae",
    "band.left_shoulder.svg.json":
        "6f1d580f30c46c53f1322dc12e187410ca7a766d0d1839943ae3f0c4782a4389",
    "band.right_ankle.svg":
        "090a1402c9b3929c3595970f0dc8e477767a979eef2b0da43f683da25d5589c6",
    "band.right_ankle.svg.json":
        "53e3590cbc7bf790daf168f0d56483a257fc89b7af5cfc55d9de59274a9e8c9a",
    "band.right_elbow.svg":
        "aa4147d66fc49c8fcb54102b044a1eaa84dbba68ceade0bf87d9fc3d6aeb8eb7",
    "band.right_elbow.svg.json":
        "792084c670b85a74b165a94d18ef6ad8a7d5a28b0a9af0c87a4fd934f0bce345",
    "band.right_hip.svg":
        "14412d037e3c9d0e3dbda69441a3f3cb32bbc5e85ee023629c3d3258c8f31ed3",
    "band.right_hip.svg.json":
        "f483cff522a308c3b23aea68c114be723ce00022c8cba82e6bcb5796e871e70c",
    "band.right_knee.svg":
        "7973ecace82186bb403688b371ea5bde2aa00f296e4c50e53e2fa4029ca48308",
    "band.right_knee.svg.json":
        "e90f6711bb6900ae47ef1fe96774deb551f36a8ce00b90c6e61ce7831a92d395",
    "band.right_shoulder.svg":
        "3319226ef472bba25e66c6312e373f4a5ea1f63256e862225820208bc2e2d620",
    "band.right_shoulder.svg.json":
        "7cf68ac66193ba1749ab11e7cfbe59128120ae23d49aa9b3175d89adea5a5325",
    "c0.heatmap.svg":
        "3f177bdafb20d78bc9e1e2349ffd84f620a463087273cf7c9317aa59be197428",
    "c0.heatmap.svg.json":
        "c9831e211aec1a86bdf5bdd1b245fbb53462172dee8c942e54f2c83dc5ae157b",
    "c0.multijoint.svg":
        "d3847c792b6a437c27670aba910f4da29aa6fb4df2a5fbaaa5598f7a71800921",
    "c0.multijoint.svg.json":
        "341287e8c513d90f5e2539d1ee7b6876dc46d78c05c9e543025c6b46032a8abf",
    "c0.report.json":
        "51a75d6c06c0f56a8b25f37dd6b615018603f858a580d676b4d1328f4dbecf2e",
    "c1.heatmap.svg":
        "f6d2bc5db73451a0067bf93e4b478b28e2abd04a0ae1cf5bf12a7debd585e98a",
    "c1.heatmap.svg.json":
        "161821a476bf902bf9cec4b35da7fdafe137a29dbfb725c3bd5d703f84832eee",
    "c1.multijoint.svg":
        "75dc09dbd8c36369a8baac759a93955827411863cd1687c89ef7873f6bda2e45",
    "c1.multijoint.svg.json":
        "f6880009df5d7117eaf4f23b5a013e53eefa51a39d74d944fa5e6b3f22b44b11",
    "c1.report.json":
        "3b1971723e1b1b923e327f7913520e633831d45dfa4cd6cfd841ec5e1f800b9e",
    "c2.heatmap.svg":
        "ef678f06fc8ec9d97d07dd5888159b08e3a7fb5cbfc5d8221b5671eef07220c5",
    "c2.heatmap.svg.json":
        "13f882a546362b7e95210174598f18f427bb4107e05041aeaf299516faeee8b0",
    "c2.multijoint.svg":
        "c56473113f16309776058f0e824b6f630961b4055e68dba55003e68ec42ab974",
    "c2.multijoint.svg.json":
        "7f939caee16941b395f1b38729a98c8dd3a1bdf24a82b5724303304fce8c0144",
    "c2.report.json":
        "758c0517e4b4a5761f8cbca32985679ea01322b30a22adc95fe809bc3262d70a",
    "c3.heatmap.svg":
        "535408ef29f6a7f94e2c7b38e0448ce8f957214f0da5cae37e1b85c0b171cda0",
    "c3.heatmap.svg.json":
        "ecb3f8373f60ee79ae913c4cf287f2c596d4ab30e0985f224f436bdd3a176bcf",
    "c3.multijoint.svg":
        "771ee7729eb772a8a4fbb455662cbe88349ce8466866ea5e871432fbfeb59df7",
    "c3.multijoint.svg.json":
        "638d5eed203d3d59075a1c99ed74f7dc68b7ba240cafc89e8a697199dc225874",
    "c3.report.json":
        "bbb10dd68aecdfd7adde8b264156b70d207c1d594e44d1a52406461786eac28e",
    "model.json":
        "78170288251a400390454c19df6fb4b476c032f5f6e15afeff2dfd2232f88d0a",
    "overlays.json":
        "bd96fcebec9bc378bba5de65d9f550136e210bd5297011dda0dfb37dff160273",
}


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
