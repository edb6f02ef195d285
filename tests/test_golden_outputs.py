"""Every query of ``scripts/golden_outputs.py`` prints what it printed when
``tests/golden_outputs.json`` (and, for the larger ``verify`` queries,
``tests/golden_verify_large.json``) was generated: same exit status, same
stdout, same stderr, byte for byte."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from golden_outputs import golden, golden_verify_large  # noqa: E402


def test_cli_outputs_match_golden_hashes():
    expected = json.loads((ROOT / "tests" / "golden_outputs.json").read_text())
    actual = golden()
    assert len(expected) == 342
    changed = sorted(q for q in expected if actual.get(q) != expected[q])
    assert not changed, f"{len(changed)} queries print differently: {changed[:10]}"
    assert actual.keys() == expected.keys()


def test_large_verify_outputs_match_golden_hashes():
    expected = json.loads((ROOT / "tests" / "golden_verify_large.json").read_text())
    actual = golden_verify_large()
    changed = sorted(q for q in expected if actual.get(q) != expected[q])
    assert not changed, f"{len(changed)} verify queries print differently: {changed[:10]}"
    assert actual.keys() == expected.keys()
