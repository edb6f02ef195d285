"""Every query of ``scripts/golden_outputs.py`` prints what it printed when
``tests/golden_outputs.json`` (and, for the larger ``verify``,
``classify-tori``, ``orbits`` and ``twisted`` queries,
``tests/golden_verify_large.json``, ``tests/golden_tori_large.json``,
``tests/golden_orbits_large.json`` and ``tests/golden_twisted_large.json``)
was generated: same exit status, same stdout, same stderr, byte for byte.
The census and the reachability graph of ``scripts/`` print the stdout they
printed when ``SCRIPT_OUTPUTS`` was generated."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from golden_outputs import (  # noqa: E402
    golden,
    golden_orbits_large,
    golden_tori_large,
    golden_twisted_large,
    golden_verify_large,
)


def _assert_matches(name, actual):
    expected = json.loads((ROOT / "tests" / name).read_text())
    changed = sorted(q for q in expected if actual.get(q) != expected[q])
    assert not changed, f"{len(changed)} queries print differently: {changed[:10]}"
    assert actual.keys() == expected.keys()
    return expected


def test_cli_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_outputs.json", golden())) == 342


def test_large_verify_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_verify_large.json", golden_verify_large())) == 62


def test_large_tori_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_tori_large.json", golden_tori_large())) == 48


def test_large_orbits_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_orbits_large.json", golden_orbits_large())) == 28


def test_large_twisted_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_twisted_large.json", golden_twisted_large())) == 36


#: sha256 of the stdout of each script run, as printed by
#: ``PYTHONPATH=src python3 scripts/<script> <arguments> | sha256sum``.
SCRIPT_OUTPUTS = {
    ("orbit_census.py", "--max-order", "46080"): (
        "6eb27711f586696a195fc519e3985a61d071eb30e3f62852bd0881665ae01907"
    ),
    ("reachability_dot.py", "Upq", "2", "1"): (
        "f1cd09556e9f6f2ae50b9da496bd09734120ca0b9a61f6b64ca6b0e1633c9179"
    ),
}


@pytest.mark.parametrize("argv", SCRIPT_OUTPUTS, ids=" ".join)
def test_script_outputs_match_golden_hashes(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == SCRIPT_OUTPUTS[argv]
