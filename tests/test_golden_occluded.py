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
        "f0bb9b67102332ede4b0b70da5107195147ed94c343c77dad037d4158c9f7c1a",
    "band.left_elbow.svg":
        "13a56996ee438e14e2ad9df84facf76c1070263f0dff3a075d4cfea100e784c3",
    "band.left_elbow.svg.json":
        "fad535fd1f82439452b09ef01f2c3cef5913a1840dbafeaa3a323c090029c9e9",
    "band.left_hip.svg":
        "e16805e93c4779f3ec27ddb9696a1ccd760b7ede0a363b74fb904038773030cb",
    "band.left_hip.svg.json":
        "48135cc6bfc29db26dffeb7fae6418fd9ff0f0dd5fd5bfb70f9abedc7066b259",
    "band.left_knee.svg":
        "d61ee9bb4182b380b921383863acda1a8d44724b2657a7e495328e6348fea258",
    "band.left_knee.svg.json":
        "b0b6e8b7ce481656337a9e504b3555ed84cf3e88f2f77b7a83ecc505ade7ea7e",
    "band.left_shoulder.svg":
        "8504831fdac6bc51eec4a39ddacbd37d334a8970f4c08a42f1ea8879f954ca55",
    "band.left_shoulder.svg.json":
        "6f1d580f30c46c53f1322dc12e187410ca7a766d0d1839943ae3f0c4782a4389",
    "band.right_ankle.svg":
        "bfcf96d378c0df21e0807fdf6f63eaed88ac46f874b238c29560a5c54e717ac7",
    "band.right_ankle.svg.json":
        "53e3590cbc7bf790daf168f0d56483a257fc89b7af5cfc55d9de59274a9e8c9a",
    "band.right_elbow.svg":
        "e97fbc676465d3626757472f136db2ec6e11de9500bdf706c3397f8e4f2c0c55",
    "band.right_elbow.svg.json":
        "792084c670b85a74b165a94d18ef6ad8a7d5a28b0a9af0c87a4fd934f0bce345",
    "band.right_hip.svg":
        "925901d1dbbbeffb246bb3ccb436890d0bf2502194067722bfb766cf727ecdb5",
    "band.right_hip.svg.json":
        "f483cff522a308c3b23aea68c114be723ce00022c8cba82e6bcb5796e871e70c",
    "band.right_knee.svg":
        "56a989bc23e24209d9367293486aef9292483b6e98847e98b2e767b18327d8f7",
    "band.right_knee.svg.json":
        "e90f6711bb6900ae47ef1fe96774deb551f36a8ce00b90c6e61ce7831a92d395",
    "band.right_shoulder.svg":
        "578bb12dc998c6ed662f083209f2deb0c3a4c9f9cd6ad84a190aac0dda740c64",
    "band.right_shoulder.svg.json":
        "7cf68ac66193ba1749ab11e7cfbe59128120ae23d49aa9b3175d89adea5a5325",
    "c0.heatmap.svg":
        "95a6c70452b71f7ff392cccd13f2f2a2cfdd849baab07e01a687db55634d936d",
    "c0.heatmap.svg.json":
        "90bb446ba3a87d044cdbf5ee08fece6907917065ce3cb062dabfeac547301bf7",
    "c0.multijoint.svg":
        "8d4acc3c88b36fd873f88cd420e854d3afe5c7ad2650e37876c363dc38468594",
    "c0.multijoint.svg.json":
        "7fb7d0ef19bbd3077ce79b18a8edaea1946cc08faedfce8ca9a8e5c7009fa91a",
    "c0.report.json":
        "a3af86e80e40b5eb7a5c9dac1e267297b60aca13e0283be20ba0ee71e42acf0c",
    "c1.heatmap.svg":
        "3688f8b59c029d1bfe58697fbe9a7368d998c2e112b31aee09b7b7ebfb86f254",
    "c1.heatmap.svg.json":
        "22433f761ac48e08574497f1349cf7a47a2454293b2247eaf2d4ee69a60a07b0",
    "c1.multijoint.svg":
        "51203211b05430ee617e6c545fe73521716dcfeaf87163732caf0bbe18a48aef",
    "c1.multijoint.svg.json":
        "f17c84b0da4509f59f67143d715435c731326a86d88de53e1e22f2ca9462d497",
    "c1.report.json":
        "34b3d53897bf49550d1b06cd9a31b4add475f39f9d0093fe8b410619aebf5447",
    "c2.heatmap.svg":
        "08fe95f08ead464cd95139a88f8d0526ef95c4a454995dd221546e667345a30b",
    "c2.heatmap.svg.json":
        "8609869051bfa587e37625f1dd6763e50ad205f981d4b99f4bb6508fa9e9ffdd",
    "c2.multijoint.svg":
        "d698368d5ae52a1f4fb83cdc70cb70078811053278f65601fd2f08e11f01586d",
    "c2.multijoint.svg.json":
        "aa596ccb74aa1fe114748f922accd05f5874853dc87cee01fa71b5979669ee39",
    "c2.report.json":
        "038d70a9d7a352f783413cfe7faec4781a917af5c0259bfa8d6d4b84578c2948",
    "c3.heatmap.svg":
        "8ba8ed7ba9844a7ea538aee9b1b2f919af5e633c41e61445d96f2118e064dcc1",
    "c3.heatmap.svg.json":
        "76da23a813d5129a8a5e7c420799ec76e31985b5e235ed010c27c2b03a5bc99f",
    "c3.multijoint.svg":
        "82b914968a188d4b3e19e1fcd4f658a46c2c7b2e71a5a1706bb1f3d611b7c0dd",
    "c3.multijoint.svg.json":
        "ddd628999257270e09f1750c8bdbbbf7126ed8a81b2751e160efe4030c66c453",
    "c3.report.json":
        "1e2d16baeaf1671a290cb1b5b60366609d698f21390253a0754e8418d81816a8",
    "c4.heatmap.svg":
        "2fa316799ab513bf38486fffde561f96a9ab388ead3c2c337a8d87893760fa42",
    "c4.heatmap.svg.json":
        "f4d1887729d3d708a55136ff822d8cb5eb17cbc5533b090029eec1422e2b09c1",
    "c4.multijoint.svg":
        "09df73df700c70e4b298ad4b6545f8bf50480528194c9307b8864e8811fd00f6",
    "c4.multijoint.svg.json":
        "afd6f1669062a3211c3ed10e700891cd12ef7e40bfc9d5f99efd6b7dc9d36f9e",
    "c4.report.json":
        "65b3110e43f9401eb195f28bc27a5eb6c73b91c2494f35efac8f7e6fd1560d60",
    "c5.heatmap.svg":
        "d603dfb3216eb3745bed9c50c7c3fdb01f362ee8422cfb185744f4486e9a5d4a",
    "c5.heatmap.svg.json":
        "ecb3f8373f60ee79ae913c4cf287f2c596d4ab30e0985f224f436bdd3a176bcf",
    "c5.multijoint.svg":
        "96f39a518f2771414850a7eb67ec3b45ed778ba143d592b51d2307724ed6e3ba",
    "c5.multijoint.svg.json":
        "77f0da6f25eb5292d315ee206adcf0b9d9a74bb948ca84aae11d29395de950bb",
    "c5.report.json":
        "5ae2c175a1246fb7a03bcc4117567245e4f3f69c0eb49e03c1dcbc66c4af1610",
    "model.json":
        "fded178cc7a9a528e95326c7574af6a7ca14ab0838b0577b6f62f99daf84e6b8",
    "overlays.json":
        "202fd877dbeb5e9ccba3e5ad359e0bed196cab6d66240db4481e31b10a30a8af",
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
