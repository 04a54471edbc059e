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
        "16d27368fd4fdee7c7bc6bb6089f6e4f734a1150acea39b0d8faf2becaf35182",
    "band.left_ankle.svg.json":
        "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
    "band.left_elbow.svg":
        "51051e6a60e9933f302d713e25a0e13b6706d10c6bfc71539a57627e6182a7e9",
    "band.left_elbow.svg.json":
        "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
    "band.left_hip.svg":
        "b6a9ceff9f45a2ba2dbe7b84a508dd1caf718ca652ff54917c1139547bc83414",
    "band.left_hip.svg.json":
        "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
    "band.left_knee.svg":
        "067bb59f24fa73a110586dcbf8e11eff50c08855ac8401c89b88d5822503db75",
    "band.left_knee.svg.json":
        "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
    "band.left_shoulder.svg":
        "78162c24bf7e9b500fe4c1dadbb63440c44e402fc06c399c45e74822bd62a8ef",
    "band.left_shoulder.svg.json":
        "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
    "band.right_ankle.svg":
        "f4bfe930386651990307eaa36b84b56cdb25b8dc5d7ee799572cf83a85da4ff3",
    "band.right_ankle.svg.json":
        "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
    "band.right_elbow.svg":
        "c7abcee03cfcd46990bccfa1fe8432be52ac385b64efe4753cb45386e7d7a4e4",
    "band.right_elbow.svg.json":
        "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
    "band.right_hip.svg":
        "0eca70d0a137a01fb2dd02e71f44271aabdf861b35cba6d9fe3852ff7300ac30",
    "band.right_hip.svg.json":
        "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
    "band.right_knee.svg":
        "14e7aa8916a05d3de51df59bbd8b7b5b046452378a2d9a0e3832d2209c27701e",
    "band.right_knee.svg.json":
        "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
    "band.right_shoulder.svg":
        "8dd4737eadd5c2206e9e85a1517119dddb5ebdac5c688d86cd20cbd46a9db8f8",
    "band.right_shoulder.svg.json":
        "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
    "c0.heatmap.svg":
        "4f88034843e1270785540e6d0d1995da9c94cbcfa711d6db394a969b9e598816",
    "c0.heatmap.svg.json":
        "33c3ea824d34a295e3596114aab081eb653c680970f0a2261f0e63c45d2a2a9a",
    "c0.multijoint.svg":
        "781d06bc3048283472782ce12b99ea1e5022e96754edaed8db7c2beff3b0e9c7",
    "c0.multijoint.svg.json":
        "e0100691dabde494fc4884a1ddda7246b3848c0f1ef06170a70bd22539b70cb7",
    "c0.report.json":
        "75ed7ac6fbc2b664f81acbe98f0e17e1d98f32eaf4f75518fc7b759b494888f9",
    "c1.heatmap.svg":
        "76d7da47bf7f7c494d4c5e5853480222c92e748b79b6640e27b5852bd869ef13",
    "c1.heatmap.svg.json":
        "d2ba0c41c9fa96a9967575673d9870d8062444f217f9428be57b77edac36341f",
    "c1.multijoint.svg":
        "d689cd9eebc01d0cda7974bade12d62a745e3d4af2465e40fb07ad47df440c5e",
    "c1.multijoint.svg.json":
        "85ebf556d072e9575e94951ae1f7de03230fd501e058caa7cec6890bc2454868",
    "c1.report.json":
        "bcb3f7deb13fe4a6d770ddf754634de6dbb6c76564fd429f00a821f524800ef4",
    "c2.heatmap.svg":
        "9f8317fb775c886ca25f2ed926b301d0a42ef83dc2a531c17f9f40f86249faa8",
    "c2.heatmap.svg.json":
        "aadcfc0c9a4ea76f61f9443cf8e99956e4a014b99942ea0c6885719982d42d28",
    "c2.multijoint.svg":
        "c8085b89de93d22f68a927d3dc86cadc5987ff54f0752b6c5af2c61429f7dd22",
    "c2.multijoint.svg.json":
        "99dc74068ecb659b910509673977ee3d96bbbfee17a14b8aa93ac841623b324f",
    "c2.report.json":
        "39a374a9d5a9276255698c1a3f39c98dbcba205e8d1f0e36665409d795e23b63",
    "c3.heatmap.svg":
        "46ba586aac8e1a698236e20426f3aa92464c1b631a11cbf125376ddd19e84279",
    "c3.heatmap.svg.json":
        "444a066a4f3b9a574a667f7a6a9287a1772bf803772033f06c785336379d9224",
    "c3.multijoint.svg":
        "82f2c62b636e3798b571f96b1da23a16ebe4e8a62660cd2d50325f147e20441a",
    "c3.multijoint.svg.json":
        "6341f5fac490fe1c3330b8a1d17f25eccd3a8e488f459080ac08fdda96698144",
    "c3.report.json":
        "9342a248aed96674b4378d254b99023cfbcf31e2ced7f04c68090d84b2b3238a",
    "c4.heatmap.svg":
        "f4b80d5d2a8435584b9d8f245e65f6c78403cad98e9b8b063129b2ad55a4ba69",
    "c4.heatmap.svg.json":
        "2831c76e766f5c993c6590e8f9d2e0b6aaed5ecb482d77151275550290a7d91b",
    "c4.multijoint.svg":
        "137e4eb2190b727ec5bd982b40a7302e131c014c25985dee07428a4b3eb9f66f",
    "c4.multijoint.svg.json":
        "6e39abe6cbe44ce5126b114cf0b175a549823c1624a8ea89037e9578dade9835",
    "c4.report.json":
        "17f108b404e58964dd6de238c56da4171b5e0a2b2635d43402ed7e6a99679eac",
    "c5.heatmap.svg":
        "40556ebe8b09e6f05a8cc892655ced7e63c7241af7703d21525d525b7474c87d",
    "c5.heatmap.svg.json":
        "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
    "c5.multijoint.svg":
        "5b9fbcf8207f760036623a3c69badc918be11619ded2fc81af9a94f257e0655b",
    "c5.multijoint.svg.json":
        "14fdefef73d0c52ae25e2ced5ef7e73b572813d7d3f95bbfe0fced70973a510d",
    "c5.report.json":
        "19c4abfc011548f42a2826010e07b6e7fc9980bcbc5bbca573d7c59c39d91784",
    "model.json":
        "8e734f077d41b986b4d49db34ef0af9ed48719d5c4886fb3c6fe1dad719ad0d8",
    "overlays.json":
        "86dd370355a005897160a957eb9c2b552dd176157dc9602c69f19015d16f298a",
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
