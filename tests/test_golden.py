"""Message-flow regression: each operation must emit exactly the expected
kind sequence, byte for byte against the committed golden files, and every
bundled scenario must render the same four artifacts under every scheme and
every hash seed."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import crawsim
from crawsim.scenario import apply_overrides, validate_doc
from crawsim.sim import (
    Simulation,
    render_mainlist,
    render_metrics_csv,
    render_report,
    render_trace,
)

GOLDEN = Path(__file__).parent / "golden"
CASES = ("join", "join_ordinary", "leave", "move")


def run_kinds(name: str) -> str:
    doc = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    sim = Simulation(validate_doc(doc)).run()
    return "".join(f"{m.kind}\n" for m in sim.trace)


@pytest.mark.parametrize("name", CASES)
def test_operation_message_flow(name):
    expected = (GOLDEN / f"{name}.kinds").read_text(encoding="utf-8")
    assert run_kinds(name) == expected


@pytest.mark.parametrize("name", CASES)
def test_flow_is_stable_across_repeat_runs(name):
    assert run_kinds(name) == run_kinds(name)


# SHA-256 of the four run artifacts (trace.log, metrics.csv, report.txt,
# mainlist.json) of every bundled scenario under every scheme.  A refactor
# keeps these byte-identical for the same seed; a change that alters them on
# purpose updates the digests and says why.
ARTIFACT_SHA256 = {
    ("tables", "ckc_craw"): (
        "d55adb2eed6bc2c7183ffc0b5aa122c9fb0b221caeef67c6bbe935b7d4ff8000",
        "fda7a791ce64e48e9e0c18b454da51cd55794cf5e4a652819aa16a3459d8d0cb",
        "4919da0deb18edc3b6d600180a5b4691628bfe562dffc310503b1202fbe29a5c",
        "9dc3e4348edec7474d7e90b2a796fc34eec736723a775308bdc5883cb672e522",
    ),
    ("tables", "ckc_plain"): (
        "d6e7a82a2af05cf70fcce3917e890723cf7002dd48209002b40a70016e684e0b",
        "e3c374bd8521f537b3cf2760a982e00adb4c7c76d76470789c06fbb5c86c9447",
        "129359b5a1744aa3952682134f3f3cf2d4d716e526a8a0bd1f00d65dded62d1a",
        "d3040d0670c789f51963b381813f63f5f12a4c76f46697e15a74bcde645f1262",
    ),
    ("tables", "lkh"): (
        "2c7ef82353faea7374eba372a2c320c142ba841e3e8734c72c91e01f1259f9e5",
        "13cd8c6e8fbc91f45a0b801f281ff2cd62f44e567ac941098ded0dd919e9390b",
        "15c956fa366a36ac6afb182418db979a334e795fccb2fa6c690ff9e9acb1fe3f",
        "59da67904daae9d85d700839c30c7edc9b5104136e5fc98e637037d38070a2ca",
    ),
    ("handoff", "ckc_craw"): (
        "49483e584e92dbd9e5af8eb8169009c0ae760a895279129a1b1f8cf760493f7f",
        "86d1b4bed71c930fc1a4a4c65df980fd7422d845295197ef68d7c3ad37346a04",
        "7f52bb55e9463a7ae1521883a56417ddfeabfb5df8a2454f90a898ad220b628e",
        "e4d0879371ac99579b4b8d1c341f471144d4a774858913b83b7ee88c4d74b2f4",
    ),
    ("handoff", "ckc_plain"): (
        "ae5688cc4f482b561e8a0b1c18cfe947abd6ba573e1868c814627f44e159e3d6",
        "a0ada3877f4d856bde88acb7ab96dd5048e4d8c775b3ec6354b43aac08352328",
        "f6c448d83cbd21e7f15803c4e4694d26fa2c1a45b4f93c44e2524366ed325e77",
        "d64bf1b6924620515d6cd923d32fe7278c79f474fd19decc98bc9adcdb88f45e",
    ),
    ("handoff", "lkh"): (
        "c6aadf1b9339fcd67850ecb8c387a6bdcc92600d73bf1b30a095248725232f7b",
        "2edb903b5bf6ac5654f94eccbccbc00f0862a40e58ad8f4294f8444e8ace5ee8",
        "1bb3b33b11f3867acaaf6bf8f7bd9f81e53df0557d15f75399e8e5cd17308b99",
        "37fb336235ed5f7a7a888769aa17a695b3d062dae8d3a64ddf5f69150ca658e5",
    ),
    ("departed", "ckc_craw"): (
        "ae62bc1472b51e40e81a849c22dc3cd05c8a73662e7dcc59092826488d8ef7a3",
        "c098f8fbc1ff60dc68e5a415990d8af2b072d08987a252851b19c82acb64042c",
        "77ccb7dc8441f9febe7a57af32d4157ae2142880aef38b465e2644c1e5a45b59",
        "83dfb08fcb093984b7ec5e828355eddeb7eb2807e32f07d6ddb114d22d71d5cf",
    ),
    ("departed", "ckc_plain"): (
        "1528192fce6a7e9b741a007aa024e7c10f64aa5cba74ad44322fb0463d0b4bd0",
        "0e077146202d0457165b2d80e030795860eb6cc237d5505af7159d422126823b",
        "3d62adb5b9d964b7d286f507400215d2c625909162fd213fb01cb36b1fe91027",
        "672c34e02aed92f6edde6decd2a0b967857b2019f0167b93cbce02d7c43f97bc",
    ),
    ("departed", "lkh"): (
        "e9ee7156aa2347700e1ab74b55bda7a714270814905ad915a0d1a5ac316a375d",
        "7168a0947b7a1aa5317a4e4b1e473ea5c033739e9c9f5a643143d1d2332b19f1",
        "28632b3ad5084b1baafc5c4baa518f3db69fa0385cfa961613399dde7b62d759",
        "42c64e141433721b4cc0c873f85758ce750f5f1c88c567f6180824a81268abc6",
    ),
}


@pytest.mark.parametrize("name,scheme", sorted(ARTIFACT_SHA256))
def test_bundled_artifacts_byte_identical(name, scheme):
    raw = (resources.files("crawsim") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
    doc = apply_overrides(json.loads(raw), scheme=scheme)
    sim = Simulation(validate_doc(doc)).run()
    rendered = (
        render_trace(sim.trace),
        render_metrics_csv(sim.ledger),
        render_report(sim),
        render_mainlist(sim),
    )
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in rendered)
    assert digests == ARTIFACT_SHA256[(name, scheme)]


# Run every bundled scenario's byte-identity check above in a fresh
# interpreter; prints the cases that failed, or "ok".
_CHILD = """
from test_golden import ARTIFACT_SHA256, test_bundled_artifacts_byte_identical as check
failed = []
for name, scheme in sorted(ARTIFACT_SHA256):
    try:
        check(name, scheme)
    except AssertionError:
        failed.append(f"{name}/{scheme}")
print(" ".join(failed) or "ok")
"""


@pytest.mark.parametrize("hash_seed", ["0", "77"])
def test_bundled_artifacts_do_not_depend_on_the_hash_seed(hash_seed):
    # key sets are set[bytes], whose iteration order follows PYTHONHASHSEED:
    # an artifact built by iterating one would change from seed to seed
    paths = (Path(crawsim.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
