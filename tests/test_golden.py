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
import json
from pathlib import Path

import pytest

from gaitnorm.cli import build_parser, main
from gaitnorm.pose_io import load_report

FIXTURES = Path(__file__).parent / "fixtures"
VIDEO_ID = "synthetic-walk"

# File name (after the "<video_id>." prefix) -> sha256 of its bytes.
GOLDEN = {
    "band.left_ankle.svg":
        "54c89942d79ae0fec610e1c65249015263ff426c93bec760b6a803333b6c39be",
    "band.left_ankle.svg.json":
        "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
    "band.left_elbow.svg":
        "5855caa1c3f62493f576b4fed3083e1fc7c8ecbbaa87e1e874d9df02997a4dea",
    "band.left_elbow.svg.json":
        "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
    "band.left_hip.svg":
        "f59617409313f4e7f29b1131b5c1a32969ad08895df25e4b0a185ccb8ab61490",
    "band.left_hip.svg.json":
        "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
    "band.left_knee.svg":
        "f0630c6413018fb94df0346ad50d5d14b9d7223415dba17bdc54e112ff57993b",
    "band.left_knee.svg.json":
        "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
    "band.left_shoulder.svg":
        "7bc89490a0406a14518c183ca7d6a588d4169c8f47fad47203146ea7707f9deb",
    "band.left_shoulder.svg.json":
        "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
    "band.right_ankle.svg":
        "35293b60a4ff3f98d34126aaa8d448bf7f48d75ade3e7ab2f7a5827087e53196",
    "band.right_ankle.svg.json":
        "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
    "band.right_elbow.svg":
        "3cdf361fdd5d90e939eba3d67c49413bf1317ef13948de2cd981678e1b53ff0c",
    "band.right_elbow.svg.json":
        "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
    "band.right_hip.svg":
        "d37250818aebea5d72c6080aa24bc5ef6596497f4f27a771e6e5781dddda1ec1",
    "band.right_hip.svg.json":
        "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
    "band.right_knee.svg":
        "50a500bd2124cf9576ff51357088936a2def0357d81bff6874c2eb84132ec178",
    "band.right_knee.svg.json":
        "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
    "band.right_shoulder.svg":
        "5406f4af47c698979d360f3122022dce1afaccb41dc4bd92f5fcd9c4200fec78",
    "band.right_shoulder.svg.json":
        "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
    "c0.heatmap.svg":
        "6c788a0369374cee5508145f2659463ace9b30e2c889b403a899302e7025f0d9",
    "c0.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c0.multijoint.svg":
        "eed7cee48e2b58ba9978f5e21258a2cdc4e6d6f7be5aa0c82bba6ff6b4ffad61",
    "c0.multijoint.svg.json":
        "9ee17b13971b178ada59127a1108e9a45faeeec6cb01ca2bb0599d212401177a",
    "c0.report.json":
        "cf513c8907e3c8a8e09e298e0993d3b8013660af14df0d162349d3ef9b7e0428",
    "c1.heatmap.svg":
        "d3e1bd4eee0a016eb8b72b0bf2eecb8ad6ac534c882cffee0142eeee7bb3f271",
    "c1.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c1.multijoint.svg":
        "7e0daf1ea1fac21377676375cd796498c05905cc7f46d4916fd52c61d84e7411",
    "c1.multijoint.svg.json":
        "33803c29d9bd8d4b714131886719865b950853231b5597103c60cfec2d38cff3",
    "c1.report.json":
        "2965e6033a3e0b5a5470251e8e5fc9712a74f14460e978a7d0cbf58cfbb7d991",
    "c2.heatmap.svg":
        "5c36ed4a7bf2a51916f299aa44fe3df6d274aee17288fa25c35b92b474e95acb",
    "c2.heatmap.svg.json":
        "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
    "c2.multijoint.svg":
        "e94fc990fdb36ac3d38c5be0b1a61ab04af467b31bbace21dda2636bf7ca80bd",
    "c2.multijoint.svg.json":
        "ed025ac9b404f5da886647c6018dba4893fd3901cef367b0b83c91ddc19a2535",
    "c2.report.json":
        "03a149d4127bfa45eed64072114695e8c736f1ccb3a045047952180a78040067",
    "c3.heatmap.svg":
        "86543d5214b75c8683ad558fead941002b006dfe7a82abd927b302a81408f17f",
    "c3.heatmap.svg.json":
        "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
    "c3.multijoint.svg":
        "545b7987e6bf8d0c33b85f2ec2745492901566e199ba54d67980a323889607e8",
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
            "7c89f21102af6204853e31d903fe9098d571f11dc69e0683ee1c6fa7880bbdf7",
        "synthetic-walk.band.left_ankle.svg.json":
            "c1eada47dd3f774943465102bc523d11a3ad1daeb583b1707d734395fe2daa7e",
        "synthetic-walk.band.left_elbow.svg":
            "b7c373c3070f929765f2f257d1cc9a342f020d9c0b95cd3bbf822b28a371b350",
        "synthetic-walk.band.left_elbow.svg.json":
            "17dab4c49518cbf0006530a3dc73a108620279afcdf5bc48fea10ed040aac094",
        "synthetic-walk.band.left_hip.svg":
            "5375c7c0b1539dbf124a91b3891b393edb68f6f0f41aa27322127df831e32868",
        "synthetic-walk.band.left_hip.svg.json":
            "096e25827afc6c2606cccdd8bfc28c0ef2872ee986d6114b0f27d4e42a4a5f6f",
        "synthetic-walk.band.left_knee.svg":
            "d71e9d6ba60713acaa982bb2a775734f3fc70427809114bde2e1131ac642ef4f",
        "synthetic-walk.band.left_knee.svg.json":
            "5bc011a826f0181e49202396ffb258bdbab73f0fdb5b7a770e2d99f5026ec888",
        "synthetic-walk.band.left_shoulder.svg":
            "7b5d7760503a59269bcf3ff9621c7be386c713e68968154e0fb52e815e221cab",
        "synthetic-walk.band.left_shoulder.svg.json":
            "3c9cc0ea784838e37823e5dea4d5d617de57b9122fa0201b6d2b06f5c3fc239e",
        "synthetic-walk.band.right_ankle.svg":
            "852f919419529fd667d1d6105a64abe4984a4a0bf1324721d14035de38f459c8",
        "synthetic-walk.band.right_ankle.svg.json":
            "c27dcb0ec23fb656d4a9292143142798edae89ddad8662b83f945d7212e794cf",
        "synthetic-walk.band.right_elbow.svg":
            "364024cf3439b2d9abd3b1835e870f18e7a7e22f703cb879e588776c3a1d740a",
        "synthetic-walk.band.right_elbow.svg.json":
            "09c12c221b9e0aed543162afe64f4733ba028b2a65e721356367a16d0996eaf3",
        "synthetic-walk.band.right_hip.svg":
            "49b6ad5f14aec608d7fadce839f92c0a847e1598113bf2f8dab7f7df9c0c6e21",
        "synthetic-walk.band.right_hip.svg.json":
            "defbac2472d438970fc1afcba7036d165c49d8e63c5f43a778294a46816a67de",
        "synthetic-walk.band.right_knee.svg":
            "8abbc7f94da4de03f1b8e883b8fb95b07a6bb1f88c3c2a81f8a9675055b3b2c4",
        "synthetic-walk.band.right_knee.svg.json":
            "879632331d168a306fa596f656f3e321de03b386a5c7f421fdd4cfa36ff36906",
        "synthetic-walk.band.right_shoulder.svg":
            "2b6a2516bde1ee9192dcdf19a02a73818c731760610af3ae6275271691c544a6",
        "synthetic-walk.band.right_shoulder.svg.json":
            "00c4d0ad47bbc38415a67fb4b14e914a55376f9ac3611cd0155853f6eb905939",
        "synthetic-walk.heatmap.svg":
            "86543d5214b75c8683ad558fead941002b006dfe7a82abd927b302a81408f17f",
        "synthetic-walk.heatmap.svg.json":
            "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
        "synthetic-walk.multijoint.svg":
            "545b7987e6bf8d0c33b85f2ec2745492901566e199ba54d67980a323889607e8",
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

# Under ``--phase-source time`` on the demo keypoints retimed by
# ``_timed_keypoints``: command -> file name -> sha256 of its bytes.  The
# demo's own times are uniform, so there time phases equal frame phases
# and only the reports' ``phase_source`` field differs; uneven times make
# every phase, and so every file, depend on the time path.
TIME_GOLDEN = {
    "run": {
        "synthetic-walk.band.left_ankle.svg":
            "d7ce07d51f0bae74866ef5fd31aabfa167694dd4a6e627867cf136d1b3f9cc03",
        "synthetic-walk.band.left_ankle.svg.json":
            "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
        "synthetic-walk.band.left_elbow.svg":
            "cf96b1ae0201f94105cbaf51426063534f8dfc49aca11d0fabc6151cef4d1585",
        "synthetic-walk.band.left_elbow.svg.json":
            "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
        "synthetic-walk.band.left_hip.svg":
            "42359c39e2c029050d22fcb83f1fb7eec96f09aaac0bab5553b7a4eb579da299",
        "synthetic-walk.band.left_hip.svg.json":
            "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
        "synthetic-walk.band.left_knee.svg":
            "322da88e728058090ae70d12f50fb4d3c02fd282cb687c372fc5b46abd5e1a92",
        "synthetic-walk.band.left_knee.svg.json":
            "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
        "synthetic-walk.band.left_shoulder.svg":
            "08875a026e0a9b01c16d22de72c5dd2ce2e65c5f0b0a0551f13bca4b35f32e77",
        "synthetic-walk.band.left_shoulder.svg.json":
            "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
        "synthetic-walk.band.right_ankle.svg":
            "e24377501e17d2a8c67819f5462defa3b18ab5fb31edb1b94752e0e2154c4a54",
        "synthetic-walk.band.right_ankle.svg.json":
            "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
        "synthetic-walk.band.right_elbow.svg":
            "3b57a8d1a619235898671f1bf8e881f06cf235705c5d18e8c1e446079e71a5b0",
        "synthetic-walk.band.right_elbow.svg.json":
            "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
        "synthetic-walk.band.right_hip.svg":
            "d2bb90ec41103c42a7f67353c00e3282e358cd52fc4ac7bbfd34f24e28061a05",
        "synthetic-walk.band.right_hip.svg.json":
            "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
        "synthetic-walk.band.right_knee.svg":
            "39de407e9f913fbaac08a2ac90f29719e91cb19a3491cc146ff10575fa985103",
        "synthetic-walk.band.right_knee.svg.json":
            "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
        "synthetic-walk.band.right_shoulder.svg":
            "d4ccaf6e3ac7d1eb6ed75fb450ab23eaf81a66721e8b0f7326a42442cc41ad61",
        "synthetic-walk.band.right_shoulder.svg.json":
            "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
        "synthetic-walk.c0.heatmap.svg":
            "51e230c7c412f75f01e739d0268e7d3d7c6c6cd199c0306a3b2f797f84242ae9",
        "synthetic-walk.c0.heatmap.svg.json":
            "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
        "synthetic-walk.c0.multijoint.svg":
            "7a630b6e2e04cc68daa9f9fe28b558f9f43a09b8d4a45fa156474467ddffe300",
        "synthetic-walk.c0.multijoint.svg.json":
            "464358342124a21bf35d56c9539483a2d0bcd3c913302353d3e83596dd184508",
        "synthetic-walk.c0.report.json":
            "fa79b7bc40ae37ce609b7e4a2ab1cc17241c1a714eadf6abeb2463d233da4f21",
        "synthetic-walk.c1.heatmap.svg":
            "ce17c545605049b6fe1fed381e151df095d73df5193178eac07e75e33269f75c",
        "synthetic-walk.c1.heatmap.svg.json":
            "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
        "synthetic-walk.c1.multijoint.svg":
            "19db6e70339b0faab8566da1514c1a3f84292125b03008de7392d59ad443ed38",
        "synthetic-walk.c1.multijoint.svg.json":
            "7610a77bdbdd12a5c5c5cda80515ee792cb0b2485a0637aecf9d8d6b51eee047",
        "synthetic-walk.c1.report.json":
            "47a8b6a5fb125aaf5290fc04c460e5a6c9336b10660ed129a01a7fc9550a35d1",
        "synthetic-walk.c2.heatmap.svg":
            "c3797256831488f41350646262adb1c47adefd20476299b4f37220e2a2e6d93e",
        "synthetic-walk.c2.heatmap.svg.json":
            "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
        "synthetic-walk.c2.multijoint.svg":
            "4185980cb34b9bc8256e8b0899fbf8ba72ec67ddb43a6f158bb56a23f4528f58",
        "synthetic-walk.c2.multijoint.svg.json":
            "e3a33248a8db7eb44ab2874e31c1e655f9d8d113fb5b6848f7765ce23977c6b0",
        "synthetic-walk.c2.report.json":
            "2adc3239b32045aa23af864b9df3f729889c150744a3d25eb2bff12f26bde7f1",
        "synthetic-walk.c3.heatmap.svg":
            "e0125e885001b5e66454ead723d6713797c6a2852b2e3b34ef38f55096c4827f",
        "synthetic-walk.c3.heatmap.svg.json":
            "9d8e8d33800d056b60e108beed7bdfe84eb39b1e610dcc3c5d0a28722027687a",
        "synthetic-walk.c3.multijoint.svg":
            "964dcf415a36e73a9a862d8af4817c1ee0ae7a667255704549dcb106fffd3da9",
        "synthetic-walk.c3.multijoint.svg.json":
            "5fd428ad47c6fe9cb27f201b5c006c3fadb0b306de9c85fe3566c3fe1e8d4d65",
        "synthetic-walk.c3.report.json":
            "af38de48a7b450086bff2d04b0a415e868e14eb2fd27a9aae717095a4bdc85c9",
        "synthetic-walk.model.json":
            "6292c9582887ee6ebb44344cc2c48d77eda54ef45d62d36ea48208f6c270be3a",
        "synthetic-walk.overlays.json":
            "a0b50a873d92e4af101a8211d8b7860be1aa26a012a48b4ccd5b846d52ccd0d2",
    },
    "figures": {
        "synthetic-walk.band.left_ankle.svg":
            "d7ce07d51f0bae74866ef5fd31aabfa167694dd4a6e627867cf136d1b3f9cc03",
        "synthetic-walk.band.left_ankle.svg.json":
            "7180d9d2ecf008955b5942b5322ffe1c5f84187ebf7bf3011c42e5f7e7f4f56e",
        "synthetic-walk.band.left_elbow.svg":
            "cf96b1ae0201f94105cbaf51426063534f8dfc49aca11d0fabc6151cef4d1585",
        "synthetic-walk.band.left_elbow.svg.json":
            "38e1ff609d7bbd7e79af90ea45ef6e3c30012bbfd8d81e3057cc7713eef252bc",
        "synthetic-walk.band.left_hip.svg":
            "42359c39e2c029050d22fcb83f1fb7eec96f09aaac0bab5553b7a4eb579da299",
        "synthetic-walk.band.left_hip.svg.json":
            "803c3b6068e3029486d01111d1b27bb6431a08ef14c3a42ca980d15897341e7e",
        "synthetic-walk.band.left_knee.svg":
            "322da88e728058090ae70d12f50fb4d3c02fd282cb687c372fc5b46abd5e1a92",
        "synthetic-walk.band.left_knee.svg.json":
            "2691021c73ce586f712c82e18760523c8239de45f12d697ed505404f19297cc9",
        "synthetic-walk.band.left_shoulder.svg":
            "08875a026e0a9b01c16d22de72c5dd2ce2e65c5f0b0a0551f13bca4b35f32e77",
        "synthetic-walk.band.left_shoulder.svg.json":
            "da7daacb7d9b901a1465c8eafd1c990154eb93054689e0087f429d3e3e1ca934",
        "synthetic-walk.band.right_ankle.svg":
            "e24377501e17d2a8c67819f5462defa3b18ab5fb31edb1b94752e0e2154c4a54",
        "synthetic-walk.band.right_ankle.svg.json":
            "e92d32318fd85f6c691d2a3184ef900d12290abeedc2ab4eaec8fcf4776bede2",
        "synthetic-walk.band.right_elbow.svg":
            "3b57a8d1a619235898671f1bf8e881f06cf235705c5d18e8c1e446079e71a5b0",
        "synthetic-walk.band.right_elbow.svg.json":
            "bc41e0440e915603cdb7ce86775ed341e94c4f98372415f342c2afb9cea62cd4",
        "synthetic-walk.band.right_hip.svg":
            "d2bb90ec41103c42a7f67353c00e3282e358cd52fc4ac7bbfd34f24e28061a05",
        "synthetic-walk.band.right_hip.svg.json":
            "6e56756fde962130811f6e46df4022a90614681bec98eeb43dc70284276949a7",
        "synthetic-walk.band.right_knee.svg":
            "39de407e9f913fbaac08a2ac90f29719e91cb19a3491cc146ff10575fa985103",
        "synthetic-walk.band.right_knee.svg.json":
            "be445fe76b82551f7518e78442b4f83ab305cec9ee62f8916517c435d8de0cab",
        "synthetic-walk.band.right_shoulder.svg":
            "d4ccaf6e3ac7d1eb6ed75fb450ab23eaf81a66721e8b0f7326a42442cc41ad61",
        "synthetic-walk.band.right_shoulder.svg.json":
            "5da91b5a0ead84fa420790a46c429c0ab9a5fcc14599d0e660df9e1861f5af65",
        "synthetic-walk.heatmap.svg":
            "ce17c545605049b6fe1fed381e151df095d73df5193178eac07e75e33269f75c",
        "synthetic-walk.heatmap.svg.json":
            "a537802acb499a5452753b8b4fae22b61829216d4073357c9164ae9e136aded6",
        "synthetic-walk.overlays.json":
            "3673389f6d7356121693202ef8c8c5833ca1210ca9ad05750c77a2b60e353b59",
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


def _timed_keypoints(path: Path) -> str:
    """The demo keypoints with frame f timed at (30 f + f² mod 7) / 900 s:
    uneven, strictly increasing, and exact from integers."""
    lines = []
    for line in Path(KEYPOINTS).read_text().splitlines():
        record = json.loads(line)
        f = record["frame"]
        record["time_s"] = (30 * f + f * f % 7) / 900
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_time_phase_outputs_match_golden_hashes(tmp_path):
    # ``run`` under time phases, then ``figures --keypoints`` on cycle 1's
    # report, whose overlay maps statuses by the report's time phases.
    keypoints = _timed_keypoints(tmp_path / "timed.keypoints.jsonl")
    dirs = {name: tmp_path / name for name in TIME_GOLDEN}
    assert main(["run", "--keypoints", keypoints, "--annotations", ANNOTATIONS,
                 "--out-dir", str(dirs["run"]),
                 "--phase-source", "time"]) == 0
    assert main(["figures",
                 "--model", str(dirs["run"] / f"{VIDEO_ID}.model.json"),
                 "--report", str(dirs["run"] / f"{VIDEO_ID}.c1.report.json"),
                 "--keypoints", keypoints,
                 "--out-dir", str(dirs["figures"])]) == 0
    for name, expected in TIME_GOLDEN.items():
        written = _digests(dirs[name])
        assert sorted(written) == sorted(expected), name
        changed = sorted(n for n in expected if written[n] != expected[n])
        assert not changed, f"{name}: output bytes changed: {changed}"


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
