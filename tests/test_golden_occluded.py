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
        "627a438442b5e5c7fabf3b76bf7c183a30d1153ff687578180d2f88e62c3ce35",
    "band.left_ankle.svg.json":
        "f0bb9b67102332ede4b0b70da5107195147ed94c343c77dad037d4158c9f7c1a",
    "band.left_elbow.svg":
        "cd3379376100b0a71264aeebbe85f4ee2507fd04dbee0c7c9a16feb3a1189976",
    "band.left_elbow.svg.json":
        "fad535fd1f82439452b09ef01f2c3cef5913a1840dbafeaa3a323c090029c9e9",
    "band.left_hip.svg":
        "39884241f5e2b3de654ddb59d657ccfe650b9372bae6bd9f131f5d5cc1e22272",
    "band.left_hip.svg.json":
        "48135cc6bfc29db26dffeb7fae6418fd9ff0f0dd5fd5bfb70f9abedc7066b259",
    "band.left_knee.svg":
        "7461d8936cf18b7591d403878ca58b8731e28b963bb4281344c24262058f629d",
    "band.left_knee.svg.json":
        "b0b6e8b7ce481656337a9e504b3555ed84cf3e88f2f77b7a83ecc505ade7ea7e",
    "band.left_shoulder.svg":
        "f9526d3a092aad09e8090010d80878251dcf24bd20acd82caecb2154e22bd42c",
    "band.left_shoulder.svg.json":
        "6f1d580f30c46c53f1322dc12e187410ca7a766d0d1839943ae3f0c4782a4389",
    "band.right_ankle.svg":
        "f20126e749829c8282c0f98661cd88e8df4f4ff40b7c36816a25af3a93669f34",
    "band.right_ankle.svg.json":
        "53e3590cbc7bf790daf168f0d56483a257fc89b7af5cfc55d9de59274a9e8c9a",
    "band.right_elbow.svg":
        "508cbc0f6376bdb1965e7c76199e6008dba86f72735b6d2ecba403e1a0f68bc2",
    "band.right_elbow.svg.json":
        "792084c670b85a74b165a94d18ef6ad8a7d5a28b0a9af0c87a4fd934f0bce345",
    "band.right_hip.svg":
        "361092341b0046b7216bcab84026f450c79b3e2f016e5d0ae8f06c88bf64052d",
    "band.right_hip.svg.json":
        "f483cff522a308c3b23aea68c114be723ce00022c8cba82e6bcb5796e871e70c",
    "band.right_knee.svg":
        "8fb0141e199d200e63fbc6c13ef9b5ee8add570c6793d55d866a39f2db519635",
    "band.right_knee.svg.json":
        "e90f6711bb6900ae47ef1fe96774deb551f36a8ce00b90c6e61ce7831a92d395",
    "band.right_shoulder.svg":
        "26def2edf5e03d1650472ecba9c118796f6c765d474cfe5b2481c54967ea37d6",
    "band.right_shoulder.svg.json":
        "7cf68ac66193ba1749ab11e7cfbe59128120ae23d49aa9b3175d89adea5a5325",
    "c0.heatmap.svg":
        "8e13c256d2e64c45e5e7f5936596b9c57995bae44b2b4cacd29623af8efe5369",
    "c0.heatmap.svg.json":
        "90bb446ba3a87d044cdbf5ee08fece6907917065ce3cb062dabfeac547301bf7",
    "c0.multijoint.svg":
        "82eed5e93ee53d58ef61de09be7f18af7368aa41b057dadeb6ba98b1fb31d3b9",
    "c0.multijoint.svg.json":
        "7fb7d0ef19bbd3077ce79b18a8edaea1946cc08faedfce8ca9a8e5c7009fa91a",
    "c0.report.json":
        "a3af86e80e40b5eb7a5c9dac1e267297b60aca13e0283be20ba0ee71e42acf0c",
    "c1.heatmap.svg":
        "0b8ae3fda59ba90a03f38506de938ea480a058bc95c5f53e619513a313d965cc",
    "c1.heatmap.svg.json":
        "22433f761ac48e08574497f1349cf7a47a2454293b2247eaf2d4ee69a60a07b0",
    "c1.multijoint.svg":
        "e68734b5d0ae9e17e371ba02515f8f8d16cd510bcf84b35b21aebe94592a67e8",
    "c1.multijoint.svg.json":
        "f17c84b0da4509f59f67143d715435c731326a86d88de53e1e22f2ca9462d497",
    "c1.report.json":
        "34b3d53897bf49550d1b06cd9a31b4add475f39f9d0093fe8b410619aebf5447",
    "c2.heatmap.svg":
        "fcee22e241e5eb8449058289d01863c4ddec0063f73331c392664049c1d42e4c",
    "c2.heatmap.svg.json":
        "8609869051bfa587e37625f1dd6763e50ad205f981d4b99f4bb6508fa9e9ffdd",
    "c2.multijoint.svg":
        "eb58cc434b8a5d7685ed6b49b077d692b5b0d1d35ac1660f1e2e7652d412d264",
    "c2.multijoint.svg.json":
        "aa596ccb74aa1fe114748f922accd05f5874853dc87cee01fa71b5979669ee39",
    "c2.report.json":
        "038d70a9d7a352f783413cfe7faec4781a917af5c0259bfa8d6d4b84578c2948",
    "c3.heatmap.svg":
        "ac0ad80537f3f0317f9d110d97707572b2539363bb430cac062eaa55c3b11018",
    "c3.heatmap.svg.json":
        "76da23a813d5129a8a5e7c420799ec76e31985b5e235ed010c27c2b03a5bc99f",
    "c3.multijoint.svg":
        "de885b6acbea2a1b76d3f42a0d6f890ccfbd5cb18524c158b654d4941e176a8d",
    "c3.multijoint.svg.json":
        "ddd628999257270e09f1750c8bdbbbf7126ed8a81b2751e160efe4030c66c453",
    "c3.report.json":
        "1e2d16baeaf1671a290cb1b5b60366609d698f21390253a0754e8418d81816a8",
    "c4.heatmap.svg":
        "f6655f1013c1434f4a03f64c29bef7c59ac875681514768b83f175fb63aaca9d",
    "c4.heatmap.svg.json":
        "f4d1887729d3d708a55136ff822d8cb5eb17cbc5533b090029eec1422e2b09c1",
    "c4.multijoint.svg":
        "5c38743fe0e15d48ce44f0649633777b65d8b24f1fc7d67026ceef34e207cf91",
    "c4.multijoint.svg.json":
        "afd6f1669062a3211c3ed10e700891cd12ef7e40bfc9d5f99efd6b7dc9d36f9e",
    "c4.report.json":
        "65b3110e43f9401eb195f28bc27a5eb6c73b91c2494f35efac8f7e6fd1560d60",
    "c5.heatmap.svg":
        "f81e171debf3ad2d77fae0d5aa9a83e7b8c862180f4cd08ad3f08408181b0899",
    "c5.heatmap.svg.json":
        "ecb3f8373f60ee79ae913c4cf287f2c596d4ab30e0985f224f436bdd3a176bcf",
    "c5.multijoint.svg":
        "2fb42370808b25cf56ee311b19d176519636c8c3c24bb488d93b8a98a2ace652",
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
