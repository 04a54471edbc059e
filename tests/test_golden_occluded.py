"""Golden-output lock for ``gaitnorm run`` on an occluded walker.

The demo fixture is a clean walk: every joint of every cycle shares one
knot layout and renders a full panel.  This walker has far-side
landmarks dimmed in runs of frames, so within one cycle the joints fall
into several knot layouts, and some joint-cycles are invalid, both for an
edge gap and for too few knots ("insufficient data" panels, unknown
joints in the reports).  Every file ``run`` writes is pinned by its
sha256.
"""

import hashlib

from gaitnorm.cli import main
from gaitnorm.pose_io import serialize_annotations, serialize_pose_sequence

from helpers import occluded_walker

VIDEO_ID = "occluded-walk"

# File name (after the "<video_id>." prefix) -> sha256 of its bytes.
GOLDEN = {
    "band.left_ankle.svg":
        "f8a49039081c7d57d13b1790fc69e40e5cc57d6de49ac87080395a0b00af1397",
    "band.left_ankle.svg.json":
        "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
    "band.left_elbow.svg":
        "13a56996ee438e14e2ad9df84facf76c1070263f0dff3a075d4cfea100e784c3",
    "band.left_elbow.svg.json":
        "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
    "band.left_hip.svg":
        "e16805e93c4779f3ec27ddb9696a1ccd760b7ede0a363b74fb904038773030cb",
    "band.left_hip.svg.json":
        "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
    "band.left_knee.svg":
        "d61ee9bb4182b380b921383863acda1a8d44724b2657a7e495328e6348fea258",
    "band.left_knee.svg.json":
        "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
    "band.left_shoulder.svg":
        "8504831fdac6bc51eec4a39ddacbd37d334a8970f4c08a42f1ea8879f954ca55",
    "band.left_shoulder.svg.json":
        "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
    "band.right_ankle.svg":
        "bfcf96d378c0df21e0807fdf6f63eaed88ac46f874b238c29560a5c54e717ac7",
    "band.right_ankle.svg.json":
        "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
    "band.right_elbow.svg":
        "e97fbc676465d3626757472f136db2ec6e11de9500bdf706c3397f8e4f2c0c55",
    "band.right_elbow.svg.json":
        "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
    "band.right_hip.svg":
        "925901d1dbbbeffb246bb3ccb436890d0bf2502194067722bfb766cf727ecdb5",
    "band.right_hip.svg.json":
        "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
    "band.right_knee.svg":
        "56a989bc23e24209d9367293486aef9292483b6e98847e98b2e767b18327d8f7",
    "band.right_knee.svg.json":
        "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
    "band.right_shoulder.svg":
        "578bb12dc998c6ed662f083209f2deb0c3a4c9f9cd6ad84a190aac0dda740c64",
    "band.right_shoulder.svg.json":
        "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
    "c0.heatmap.svg":
        "95a6c70452b71f7ff392cccd13f2f2a2cfdd849baab07e01a687db55634d936d",
    "c0.heatmap.svg.json":
        "33c3ea824d34a295e3596114aab081eb653c680970f0a2261f0e63c45d2a2a9a",
    "c0.multijoint.svg":
        "8d4acc3c88b36fd873f88cd420e854d3afe5c7ad2650e37876c363dc38468594",
    "c0.multijoint.svg.json":
        "e0100691dabde494fc4884a1ddda7246b3848c0f1ef06170a70bd22539b70cb7",
    "c0.report.json":
        "9c6853274982b294388c06a1c0e08defe5ae10f6e1ce3cfc718334bd3dea2440",
    "c1.heatmap.svg":
        "3688f8b59c029d1bfe58697fbe9a7368d998c2e112b31aee09b7b7ebfb86f254",
    "c1.heatmap.svg.json":
        "d2ba0c41c9fa96a9967575673d9870d8062444f217f9428be57b77edac36341f",
    "c1.multijoint.svg":
        "51203211b05430ee617e6c545fe73521716dcfeaf87163732caf0bbe18a48aef",
    "c1.multijoint.svg.json":
        "85ebf556d072e9575e94951ae1f7de03230fd501e058caa7cec6890bc2454868",
    "c1.report.json":
        "894528eec5629fe2a7f808b3e728aa62c1ccd52edb97e3809f3e8e46d1fb242c",
    "c2.heatmap.svg":
        "08fe95f08ead464cd95139a88f8d0526ef95c4a454995dd221546e667345a30b",
    "c2.heatmap.svg.json":
        "aadcfc0c9a4ea76f61f9443cf8e99956e4a014b99942ea0c6885719982d42d28",
    "c2.multijoint.svg":
        "d698368d5ae52a1f4fb83cdc70cb70078811053278f65601fd2f08e11f01586d",
    "c2.multijoint.svg.json":
        "99dc74068ecb659b910509673977ee3d96bbbfee17a14b8aa93ac841623b324f",
    "c2.report.json":
        "2438b0c44d47459d2111dc2525b002754b8230e664417bd470778a4c34f3eaf7",
    "c3.heatmap.svg":
        "8ba8ed7ba9844a7ea538aee9b1b2f919af5e633c41e61445d96f2118e064dcc1",
    "c3.heatmap.svg.json":
        "444a066a4f3b9a574a667f7a6a9287a1772bf803772033f06c785336379d9224",
    "c3.multijoint.svg":
        "82b914968a188d4b3e19e1fcd4f658a46c2c7b2e71a5a1706bb1f3d611b7c0dd",
    "c3.multijoint.svg.json":
        "6341f5fac490fe1c3330b8a1d17f25eccd3a8e488f459080ac08fdda96698144",
    "c3.report.json":
        "eacdf7049a34533559894fe94c48d1d9dde83018bbb22e509e0d032425f47148",
    "c4.heatmap.svg":
        "2fa316799ab513bf38486fffde561f96a9ab388ead3c2c337a8d87893760fa42",
    "c4.heatmap.svg.json":
        "43d49bfc6f6db4a281bcd68e1e88887f49b563bd055bf0acafcc71b71851ef9f",
    "c4.multijoint.svg":
        "09df73df700c70e4b298ad4b6545f8bf50480528194c9307b8864e8811fd00f6",
    "c4.multijoint.svg.json":
        "6e39abe6cbe44ce5126b114cf0b175a549823c1624a8ea89037e9578dade9835",
    "c4.report.json":
        "5e3e58be69e5d62552dabf45467ef973ad8023ff61ffeb03976259608163f867",
    "c5.heatmap.svg":
        "d603dfb3216eb3745bed9c50c7c3fdb01f362ee8422cfb185744f4486e9a5d4a",
    "c5.heatmap.svg.json":
        "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
    "c5.multijoint.svg":
        "96f39a518f2771414850a7eb67ec3b45ed778ba143d592b51d2307724ed6e3ba",
    "c5.multijoint.svg.json":
        "af627d920c7f9e8c465efef972976ce37f7fa8181b74bad623583fd2cb549bf2",
    "c5.report.json":
        "4f0a7fe66295923f6e3dcc931d503bf3e7471629f6d66357d9aeb85c828f6dbf",
    "model.json":
        "d6c2616769bdd09c6d5fc3f432a66e9e0659dc8831eb1d67de06553e4aaa5768",
    "overlays.json":
        "862911ccd9cfaffaea36afa1cf8a8ef2bb5b9ae94ca5a26213bd9c59092e757c",
}


def test_occluded_run_outputs_match_golden_hashes(tmp_path):
    seq, annotations = occluded_walker(VIDEO_ID)
    kp_path = tmp_path / "walk.keypoints.jsonl"
    ann_path = tmp_path / "walk.cycles.json"
    kp_path.write_bytes(serialize_pose_sequence(seq))
    ann_path.write_bytes(serialize_annotations(VIDEO_ID, annotations))
    out_dir = tmp_path / "out"
    assert main(["run", "--keypoints", str(kp_path),
                 "--annotations", str(ann_path),
                 "--out-dir", str(out_dir)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out_dir.iterdir()}
    expected = {f"{VIDEO_ID}.{name}": digest
                for name, digest in GOLDEN.items()}
    assert sorted(written) == sorted(expected)
    changed = sorted(n for n in expected if written[n] != expected[n])
    assert not changed, f"output bytes changed: {changed}"
