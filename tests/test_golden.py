"""The documented commands' outputs, pinned against the files in tests/golden/.

Each command runs in-process through cli.main.  Its payload (the --output
file), stdout, stderr and exit code must match the golden files byte for
byte; the 7.5 MB default sweep-delta CSV is pinned by its SHA-256.  The
verify report is pinned by its check names and pass flags exactly, and
its "max deviation" details only to their tolerances, since those digits
are roundoff that another numpy or BLAS build may move.  A change that
moves an output rewrites its golden file from the command itself and
lists the change.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from teleclone.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: golden name -> (argv, payload suffix or None for a refusal, exit code)
COMMANDS = {
    "sweep-delta": (["sweep-delta"], ".csv.sha256", 0),
    # one mu's curve and one point: the forms that evaluate the gap outside sweep_delta
    "sweep-delta-mu0.3": (["sweep-delta", "--mu", "0.3"], ".csv", 0),
    "sweep-delta-mu0.3-p0.5": (["sweep-delta", "--mu", "0.3", "--p", "0.5"], ".csv", 0),
    "sweep-fidelity": (["sweep-fidelity"], ".csv", 0),
    "mixed-seed7": (["mixed", "--seed", "7"], ".csv", 0),
    "mixed-n2-seed9-samples10": (["mixed", "--n", "2", "--seed", "9", "--samples", "10"], ".csv", 0),
    "run-seed3": (["run", "--input", "random", "--seed", "3"], ".json", 0),
    # odd n, where sqrt(d) is irrational
    "run-n3-seed3": (["run", "--n", "3", "--input", "random", "--seed", "3"], ".json", 0),
    # refused before anything is allocated, leaving no payload
    "run-n5": (["run", "--n", "5", "--input", "ghz", "--seed", "1"], None, 2),
    "mixed-n3": (["mixed", "--n", "3", "--samples", "1", "--seed", "1"], None, 2),
}


def golden_text(name: str) -> str:
    path = GOLDEN / name
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_is_golden(name, tmp_path, capsys):
    argv, suffix, code = COMMANDS[name]
    out = tmp_path / "payload"
    assert main(argv + ["--output", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == golden_text(f"{name}.stdout")
    assert captured.err == golden_text(f"{name}.stderr")
    if suffix is None:
        assert not out.exists()
    elif suffix.endswith(".sha256"):
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == golden_text(f"{name}{suffix}").strip()
    else:
        assert out.read_bytes() == (GOLDEN / f"{name}{suffix}").read_bytes()


DEVIATION = re.compile(r"max deviation (\S+) \(tolerance (\S+)\)")


def test_verify_report_matches_golden_to_tolerance(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--output", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    report = json.loads(out.read_text(encoding="utf-8"))
    golden = json.loads(golden_text("verify.json"))
    assert report["passed"] is golden["passed"] is True
    assert [g["name"] for g in report["groups"]] == [g["name"] for g in golden["groups"]]
    for group, expected in zip(report["groups"], golden["groups"]):
        assert group["passed"] is expected["passed"], group["name"]
        flags = [(c["name"], c["passed"]) for c in group["checks"]]
        assert flags == [(c["name"], c["passed"]) for c in expected["checks"]]
        for check, pinned in zip(group["checks"], expected["checks"]):
            got, want = (DEVIATION.fullmatch(c["detail"]) for c in (check, pinned))
            assert (got is None) == (want is None), check["name"]
            if got is not None:
                assert got[2] == want[2], check["name"]
                assert float(got[1]) <= float(got[2]), check["name"]
