"""Every query of ``scripts/golden_outputs.py`` prints what it printed when
``tests/golden_outputs.json`` (and, for the larger ``verify``,
``classify-tori``, ``orbits`` and ``twisted`` queries,
``tests/golden_verify_large.json``, ``tests/golden_tori_large.json``,
``tests/golden_orbits_large.json`` and ``tests/golden_twisted_large.json``)
was generated: same exit status, same stdout, same stderr, byte for byte."""

import json
import sys
from pathlib import Path

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
    _assert_matches("golden_verify_large.json", golden_verify_large())


def test_large_tori_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_tori_large.json", golden_tori_large())) == 48


def test_large_orbits_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_orbits_large.json", golden_orbits_large())) == 28


def test_large_twisted_outputs_match_golden_hashes():
    assert len(_assert_matches("golden_twisted_large.json", golden_twisted_large())) == 36
