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
        "5c2170b5f63e58b3873b0c9ca08ae860efef0bfa51ec1fcd523edbdb37b66fd7",
    "c0.heatmap.svg.json":
        "cdbd6ec3fd84b01462b8e9b887e39e983f5832030037b98dcf0a0ad35df803d7",
    "c0.multijoint.svg":
        "82eed5e93ee53d58ef61de09be7f18af7368aa41b057dadeb6ba98b1fb31d3b9",
    "c0.multijoint.svg.json":
        "7fb7d0ef19bbd3077ce79b18a8edaea1946cc08faedfce8ca9a8e5c7009fa91a",
    "c0.report.json":
        "aec9ee0ef6695860a8373d1c372ace063ea7d13c304fe38bdb4fdf2049921a96",
    "c1.heatmap.svg":
        "1023ec58d14d8dac864c6102191462b6eb3aeb9727dea4b7681413edab7fe018",
    "c1.heatmap.svg.json":
        "8c8e32e47da60e1c4f0d89b0949dc55401402c0c91d6d8f600536cc8e10f454f",
    "c1.multijoint.svg":
        "e68734b5d0ae9e17e371ba02515f8f8d16cd510bcf84b35b21aebe94592a67e8",
    "c1.multijoint.svg.json":
        "f17c84b0da4509f59f67143d715435c731326a86d88de53e1e22f2ca9462d497",
    "c1.report.json":
        "4632343eec1e4a5db6701db5debb07f61e68a9289742f788809fdbae6e9f59b0",
    "c2.heatmap.svg":
        "d428f914cb51f165c6559bd750990ff130017f6a6dcd9ca2672b289924fca072",
    "c2.heatmap.svg.json":
        "d61ef3837b0a7067fd8d4b001147106b5fcb05d0099b001918bc395c52e805aa",
    "c2.multijoint.svg":
        "eb58cc434b8a5d7685ed6b49b077d692b5b0d1d35ac1660f1e2e7652d412d264",
    "c2.multijoint.svg.json":
        "aa596ccb74aa1fe114748f922accd05f5874853dc87cee01fa71b5979669ee39",
    "c2.report.json":
        "8a217bae3920461519a8b0dc772eda01b7a82a17a2f00b19f07931857da6bb1e",
    "c3.heatmap.svg":
        "52da360d7a0bca9dcf7f4927f0c1a9d6127ea6b38a67543632587cdd419884c0",
    "c3.heatmap.svg.json":
        "bf64d12cce87c8247dbec875210f6ba081e2bf7e0d7e254f007690897b8d2690",
    "c3.multijoint.svg":
        "c2db9fe3f845de036d2e327183a044a090dbcd33019152cec2b1d90db214c5ba",
    "c3.multijoint.svg.json":
        "e5279017841ba35b473b34a5de515bb201eb8dbaf05962ed1dd4fedd08b90f7a",
    "c3.report.json":
        "c77191c944868266b0ecef4be98cc6c581e506d240922a0ba46633ae1dee2b59",
    "c4.heatmap.svg":
        "037809ed9d1e144b503a3427b632fa342edbe31a9e1c51f6d1be1538b06f55fc",
    "c4.heatmap.svg.json":
        "67e6cb0b0cc303455f173b1c5ad08f85e6a69986fe27ad6c3b24355e44c5eb98",
    "c4.multijoint.svg":
        "5c38743fe0e15d48ce44f0649633777b65d8b24f1fc7d67026ceef34e207cf91",
    "c4.multijoint.svg.json":
        "afd6f1669062a3211c3ed10e700891cd12ef7e40bfc9d5f99efd6b7dc9d36f9e",
    "c4.report.json":
        "e5338b59828e135929b2ab6bb41ba47b5a40eb2e82a551370668fef81d1f8ac3",
    "c5.heatmap.svg":
        "3bc461fb586a954b3917d78554dca26ec5b6005c1aa668534f24389f1585bfb3",
    "c5.heatmap.svg.json":
        "ecb3f8373f60ee79ae913c4cf287f2c596d4ab30e0985f224f436bdd3a176bcf",
    "c5.multijoint.svg":
        "a43af0c9b4ac3d40ce51c3f67e4d6d80e056a80a448eb06215ec80418606973e",
    "c5.multijoint.svg.json":
        "2a6daf1b47ede7ad045fa2026598e0b38da9eeda37d438fc83de6184f450e1ce",
    "c5.report.json":
        "26f35484a9fd042258ca427eff97bbd5cdaed6c80298784a78a3cace71d46141",
    "model.json":
        "fded178cc7a9a528e95326c7574af6a7ca14ab0838b0577b6f62f99daf84e6b8",
    "overlays.json":
        "48d0e241c36cd57d382d964038057810d573a220af73a6fbe63a3b2b5e166ab4",
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
