"""Output checks, run outside the program and outside the timed region.

``check_outputs`` inspects one invocation's output directory in full with
the package's own loaders. Later invocations of the same inputs only need
``digest`` to match, because equal bytes pass the same checks.
"""

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List

from gaitnorm.errors import ValidationError
from gaitnorm.kinematics import JOINT_NAMES
from gaitnorm.pose_io import load_norm_model, load_report

from workloads import Inputs


def digest(out_dir: Path) -> str:
    """sha256 over every output file's relative name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0"
                 .encode())
        h.update(data)
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def expected_files(inputs: Inputs, model_joints) -> set:
    vid = inputs.workload
    names = {f"{vid}.model.json"}
    names |= {f"{vid}.c{i}.report.json" for i in range(inputs.cycles)}
    if inputs.workload == "cohort":
        return names
    names.add(f"{vid}.overlays.json")
    svgs = {f"{vid}.c{i}.{kind}.svg" for i in range(inputs.cycles)
            for kind in ("multijoint", "heatmap")}
    svgs |= {f"{vid}.band.{j}.svg" for j in model_joints}
    return names | svgs | {s + ".json" for s in svgs}


def check_outputs(inputs: Inputs, out_dir: Path) -> Dict[str, object]:
    """Check one invocation's outputs; returns the problems found plus
    the counts a reader wants next to them."""
    problems: List[str] = []
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    model_path = out_dir / f"{inputs.workload}.model.json"
    try:
        model = load_norm_model(model_path.read_bytes())
    except (OSError, ValidationError) as exc:
        return {"problems": [f"model: {exc}"], "unknown_joint_cycles": None}
    expected = expected_files(inputs, model.joints)
    if found != expected:
        missing = sorted(expected - found)[:5]
        extra = sorted(found - expected)[:5]
        problems.append(f"file set differs: missing {missing}, extra {extra}")

    unknown = 0
    for name in sorted(found & expected):
        path = out_dir / name
        try:
            if name.endswith(".report.json"):
                report = load_report(path.read_bytes())
                scored, missing = set(report.z), set(report.unknown_joints)
                if scored & missing or scored | missing != set(JOINT_NAMES):
                    problems.append(f"{name}: joints not accounted for")
                unknown += len(missing)
            elif name.endswith(".svg"):
                ET.fromstring(path.read_bytes())
            elif name.endswith(".svg.json"):
                json.loads(path.read_bytes())
            elif name.endswith(".overlays.json"):
                records = json.loads(path.read_bytes())
                if len(records) != inputs.frames:
                    problems.append(f"{name}: {len(records)} records for "
                                    f"{inputs.frames} frames")
        except (ET.ParseError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    return {"problems": problems, "unknown_joint_cycles": unknown}
