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
        "51cfddf9151c73c8b5c9b9a8a29ab42078bba3d4a04873c4851f213d4b15d90d",
    "band.left_ankle.svg.json":
        "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
    "band.left_elbow.svg":
        "6307eb3d3f63d4e227e8e92e5d5f832a40c839ceacc1d65fa372c04f7a5727b0",
    "band.left_elbow.svg.json":
        "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
    "band.left_hip.svg":
        "9e8ba51e76aa786518d5f9462123e8434ff2a3fd05d90a512695e22fb75bb464",
    "band.left_hip.svg.json":
        "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
    "band.left_knee.svg":
        "5958ed29e94041fad75c004a1982dd2b8dccf037132baad7e4851fb1985a1efa",
    "band.left_knee.svg.json":
        "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
    "band.left_shoulder.svg":
        "c1e51a1e54cac596411eb14eb74aaf4856c6e3f1ac8b69467a4fde6a82565f89",
    "band.left_shoulder.svg.json":
        "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
    "band.right_ankle.svg":
        "b1370877b970a5bdabb13fa956541fea82dd711b6f3cf623cf43bc8594e41de6",
    "band.right_ankle.svg.json":
        "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
    "band.right_elbow.svg":
        "821a83fb407c8ce14315f0eb111981f5fab64b4f732c964ab1e41b946800fcae",
    "band.right_elbow.svg.json":
        "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
    "band.right_hip.svg":
        "6d914ac37f484fbb1b6754fd5c6be20ad56b371b6cc4970db0c30ef372cf2c2d",
    "band.right_hip.svg.json":
        "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
    "band.right_knee.svg":
        "a1a9357c147859618786f4e65fb16fa5940358988bf8ee45865ab6a44567022a",
    "band.right_knee.svg.json":
        "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
    "band.right_shoulder.svg":
        "68b28550752f80c74fecf911db0ebb9080a448e6656b6af573befe7f1d31aad1",
    "band.right_shoulder.svg.json":
        "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
    "c0.heatmap.svg":
        "8a75648239fed5ebc953a0c4d89af6ca602e9651cba1320712dc0d00aba55d14",
    "c0.heatmap.svg.json":
        "33c3ea824d34a295e3596114aab081eb653c680970f0a2261f0e63c45d2a2a9a",
    "c0.multijoint.svg":
        "ce81c0dfe8e1bf86158b356a0e0f8a47c594207ee5d61af931f7ac0cda661c98",
    "c0.multijoint.svg.json":
        "e0100691dabde494fc4884a1ddda7246b3848c0f1ef06170a70bd22539b70cb7",
    "c0.report.json":
        "75ed7ac6fbc2b664f81acbe98f0e17e1d98f32eaf4f75518fc7b759b494888f9",
    "c1.heatmap.svg":
        "f93b552298ed51821b027b1e5d67c6389e7f2c905183868ba15aedde82281121",
    "c1.heatmap.svg.json":
        "d2ba0c41c9fa96a9967575673d9870d8062444f217f9428be57b77edac36341f",
    "c1.multijoint.svg":
        "fac0f58dad0e07c8e20e58b015171fa92236c8ffc1ac32a8ab11edd6b2ebdee3",
    "c1.multijoint.svg.json":
        "85ebf556d072e9575e94951ae1f7de03230fd501e058caa7cec6890bc2454868",
    "c1.report.json":
        "bcb3f7deb13fe4a6d770ddf754634de6dbb6c76564fd429f00a821f524800ef4",
    "c2.heatmap.svg":
        "acef877b373587879565fec03b768dae88b908aa11638a07d97357f036772bdf",
    "c2.heatmap.svg.json":
        "aadcfc0c9a4ea76f61f9443cf8e99956e4a014b99942ea0c6885719982d42d28",
    "c2.multijoint.svg":
        "3d18feaa8b399a153e161b787b85d90df938e0f82ec1099a6319ae7b47c48ffb",
    "c2.multijoint.svg.json":
        "99dc74068ecb659b910509673977ee3d96bbbfee17a14b8aa93ac841623b324f",
    "c2.report.json":
        "39a374a9d5a9276255698c1a3f39c98dbcba205e8d1f0e36665409d795e23b63",
    "c3.heatmap.svg":
        "078b04df287a5647d6f5b7f20c8bb107d3b9b87ac462e3ffcc397edd48c8fe29",
    "c3.heatmap.svg.json":
        "444a066a4f3b9a574a667f7a6a9287a1772bf803772033f06c785336379d9224",
    "c3.multijoint.svg":
        "180e578feb3b2ef7988ccfec930cb14d6112fae9b7c1cf78b376932013a4c4f5",
    "c3.multijoint.svg.json":
        "6341f5fac490fe1c3330b8a1d17f25eccd3a8e488f459080ac08fdda96698144",
    "c3.report.json":
        "9342a248aed96674b4378d254b99023cfbcf31e2ced7f04c68090d84b2b3238a",
    "c4.heatmap.svg":
        "f63838f2dc0df8cb19bf464165683ce3307b854497c5fdd40a29131925574d1d",
    "c4.heatmap.svg.json":
        "2831c76e766f5c993c6590e8f9d2e0b6aaed5ecb482d77151275550290a7d91b",
    "c4.multijoint.svg":
        "a1119166aaae9c17afd2356cebdc7be6de2d0982c62c407a9ffca11930e5a1d4",
    "c4.multijoint.svg.json":
        "6e39abe6cbe44ce5126b114cf0b175a549823c1624a8ea89037e9578dade9835",
    "c4.report.json":
        "17f108b404e58964dd6de238c56da4171b5e0a2b2635d43402ed7e6a99679eac",
    "c5.heatmap.svg":
        "3c3802c49b19ddeef730836922c9a46df672c1456caddedce968e5a23935075d",
    "c5.heatmap.svg.json":
        "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
    "c5.multijoint.svg":
        "4b8f4f22f3b0a3a0d45c772638ef1b3b9c42d137868d9ed229bc629f184dee53",
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
