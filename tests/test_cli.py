import contextlib
import io
import json
import subprocess
import sys
from importlib import resources

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import example, given, settings

import korbits.catalog
import korbits.cli as cli
import korbits.tori
import korbits.weyl
from korbits.catalog import ClaimResult


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("korbits") / "schemas" / "cli_output.schema.json"
    return json.loads(ref.read_text())


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "korbits.cli", "twisted", "--family", "GL", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "|I| = 2" in proc.stdout


def test_missing_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "korbits.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_golden_twisted_table(capsys):
    code, out, err = run(["twisted", "--family", "GL", "--n", "3"], capsys)
    assert code == 0
    assert err == ""
    assert out == (
        "twisted GL(3)\n"
        "element  length  in-image\n"
        "-------  ------  --------\n"
        "e        0       yes\n"
        "(1 2 3)  2       yes\n"
        "(1 3 2)  2       yes\n"
        "(1 3)    3       yes\n"
        "|I| = 4, |I'| = 4, a_max = (1 3)\n"
    )


def test_golden_twisted_ustar_table(capsys):
    code, out, err = run(["twisted", "--family", "Ustar", "--n", "2"], capsys)
    assert code == 0
    assert err == ""
    assert out == (
        "twisted U*(4)\n"
        "element     length  in-image\n"
        "----------  ------  --------\n"
        "e           0       yes\n"
        "(2 3)       1       no\n"
        "(1 2)(3 4)  2       yes\n"
        "(1 2 3 4)   3       no\n"
        "(1 4 3 2)   3       no\n"
        "(1 3)(2 4)  4       yes\n"
        "(1 3 2 4)   5       no\n"
        "(1 4)       5       no\n"
        "(1 4 2 3)   5       no\n"
        "(1 4)(2 3)  6       no\n"
        "|I| = 10, |I'| = 3, a_max = (1 3)(2 4)\n"
    )


def test_golden_twisted_soodd1_dot(capsys):
    argv = ["twisted", "--family", "SOodd1", "--n", "2", "--format", "dot"]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == (
        "digraph twisted {\n"
        "  rankdir=BT;\n"
        '  "1,2,3" [label="e (0)"];\n'
        '  "2,1,3" [label="(1 2) (1)"];\n'
        '  "1,-2,-3" [label="e[+--] (2)"];\n'
        '  "3,-2,-1" [label="(1 3)[+--] (3)"];\n'
        '  "-1,2,-3" [label="e[-+-] (4)"];\n'
        '  "-1,3,-2" [label="(2 3)[-+-] (5)"];\n'
        '  "-1,-2,3" [label="e[--+] (6)"];\n'
        '  "-1,-3,2" [label="(2 3)[--+] (5)"];\n'
        '  "-2,-1,3" [label="(1 2)[--+] (5)"];\n'
        '  "-3,-2,1" [label="(1 3)[--+] (3)"];\n'
        '  "1,2,3" -> "2,1,3" [label="s1"];\n'
        '  "1,2,3" -> "1,-2,-3" [label="s2"];\n'
        '  "1,2,3" -> "1,-2,-3" [label="s3"];\n'
        '  "2,1,3" -> "3,-2,-1" [label="s2"];\n'
        '  "2,1,3" -> "-3,-2,1" [label="s3"];\n'
        '  "1,-2,-3" -> "-1,2,-3" [label="s1"];\n'
        '  "3,-2,-1" -> "-1,3,-2" [label="s1"];\n'
        '  "3,-2,-1" -> "-2,-1,3" [label="s3"];\n'
        '  "-1,2,-3" -> "-1,3,-2" [label="s2"];\n'
        '  "-1,2,-3" -> "-1,-3,2" [label="s3"];\n'
        '  "-1,3,-2" -> "-1,-2,3" [label="s3"];\n'
        '  "-1,-3,2" -> "-1,-2,3" [label="s2"];\n'
        '  "-2,-1,3" -> "-1,-2,3" [label="s1"];\n'
        '  "-3,-2,1" -> "-1,-3,2" [label="s1"];\n'
        '  "-3,-2,1" -> "-2,-1,3" [label="s2"];\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["twisted", "--family", "GL", "--n", "4", "--format", "json"],
            "{\n"
            '  "command": "twisted",\n'
            '  "family": "GL",\n'
            '  "params": [\n'
            "    4\n"
            "  ],\n"
            '  "rows": [\n'
            "    {\n"
            '      "element": "e",\n'
            '      "in_image": true,\n'
            '      "length": 0\n'
            "    },\n"
            "    {\n"
            '      "element": "(2 3)",\n'
            '      "in_image": true,\n'
            '      "length": 1\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 2)(3 4)",\n'
            '      "in_image": true,\n'
            '      "length": 2\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 2 3 4)",\n'
            '      "in_image": true,\n'
            '      "length": 3\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 4 3 2)",\n'
            '      "in_image": true,\n'
            '      "length": 3\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 3)(2 4)",\n'
            '      "in_image": true,\n'
            '      "length": 4\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 3 2 4)",\n'
            '      "in_image": true,\n'
            '      "length": 5\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 4)",\n'
            '      "in_image": true,\n'
            '      "length": 5\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 4 2 3)",\n'
            '      "in_image": true,\n'
            '      "length": 5\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 4)(2 3)",\n'
            '      "in_image": true,\n'
            '      "length": 6\n'
            "    }\n"
            "  ],\n"
            '  "summary": {\n'
            '    "a_max": "(1 4)(2 3)",\n'
            '    "image_size": 10,\n'
            '    "twisted_involutions": 10\n'
            "  }\n"
            "}\n",
        ),
        (
            ["twisted", "--family", "Ustar", "--n", "2", "--format", "dot"],
            "digraph twisted {\n"
            "  rankdir=BT;\n"
            '  "1,2,3,4" [label="e (0)"];\n'
            '  "1,3,2,4" [label="(2 3) (1)"];\n'
            '  "2,1,4,3" [label="(1 2)(3 4) (2)"];\n'
            '  "2,3,4,1" [label="(1 2 3 4) (3)"];\n'
            '  "3,4,1,2" [label="(1 3)(2 4) (4)"];\n'
            '  "3,4,2,1" [label="(1 3 2 4) (5)"];\n'
            '  "4,1,2,3" [label="(1 4 3 2) (3)"];\n'
            '  "4,2,3,1" [label="(1 4) (5)"];\n'
            '  "4,3,1,2" [label="(1 4 2 3) (5)"];\n'
            '  "4,3,2,1" [label="(1 4)(2 3) (6)"];\n'
            '  "1,2,3,4" -> "2,1,4,3" [label="s1"];\n'
            '  "1,2,3,4" -> "1,3,2,4" [label="s2"];\n'
            '  "1,2,3,4" -> "2,1,4,3" [label="s3"];\n'
            '  "1,3,2,4" -> "2,3,4,1" [label="s1"];\n'
            '  "1,3,2,4" -> "4,1,2,3" [label="s3"];\n'
            '  "2,1,4,3" -> "3,4,1,2" [label="s2"];\n'
            '  "2,3,4,1" -> "3,4,2,1" [label="s2"];\n'
            '  "2,3,4,1" -> "4,2,3,1" [label="s3"];\n'
            '  "3,4,1,2" -> "3,4,2,1" [label="s1"];\n'
            '  "3,4,1,2" -> "4,3,1,2" [label="s3"];\n'
            '  "3,4,2,1" -> "4,3,2,1" [label="s3"];\n'
            '  "4,1,2,3" -> "4,2,3,1" [label="s1"];\n'
            '  "4,1,2,3" -> "4,3,1,2" [label="s2"];\n'
            '  "4,2,3,1" -> "4,3,2,1" [label="s2"];\n'
            '  "4,3,1,2" -> "4,3,2,1" [label="s1"];\n'
            "}\n",
        ),
        (
            ["twisted", "--family", "SOodd1", "--n", "3"],
            "twisted SO(7,1)\n"
            "element      length  in-image\n"
            "-----------  ------  --------\n"
            "e            0       yes\n"
            "(2 3)        1       no\n"
            "(1 2)        1       no\n"
            "e[++--]      2       yes\n"
            "(1 3)        3       no\n"
            "(2 4)[++--]  3       no\n"
            "(1 2)[++--]  3       no\n"
            "(2 4)[+--+]  3       no\n"
            "e[+-+-]      4       yes\n"
            "(1 4)[++--]  5       no\n"
            "(3 4)[+-+-]  5       no\n"
            "(1 3)[+-+-]  5       no\n"
            "(3 4)[+--+]  5       no\n"
            "(2 3)[+--+]  5       no\n"
            "(1 4)[-+-+]  5       no\n"
            "e[+--+]      6       no\n"
            "e[-++-]      6       yes\n"
            "(1 4)[+-+-]  7       no\n"
            "(3 4)[-++-]  7       no\n"
            "(2 3)[-++-]  7       no\n"
            "(3 4)[-+-+]  7       no\n"
            "(1 3)[-+-+]  7       no\n"
            "(1 4)[--++]  7       no\n"
            "e[-+-+]      8       no\n"
            "(2 4)[-++-]  9       no\n"
            "(2 4)[--++]  9       no\n"
            "(1 2)[--++]  9       no\n"
            "(1 3)[----]  9       no\n"
            "e[--++]      10      no\n"
            "(2 3)[----]  11      no\n"
            "(1 2)[----]  11      no\n"
            "e[----]      12      no\n"
            "|I| = 32, |I'| = 4, a_max = e[-++-]\n",
        ),
        (
            ["twisted", "--family", "Restriction", "--r", "3", "--format", "json"],
            "{\n"
            '  "command": "twisted",\n'
            '  "family": "Restriction",\n'
            '  "params": [\n'
            "    3\n"
            "  ],\n"
            '  "rows": [\n'
            "    {\n"
            '      "element": "e",\n'
            '      "in_image": true,\n'
            '      "length": 0\n'
            "    },\n"
            "    {\n"
            '      "element": "(2 3)(5 6)",\n'
            '      "in_image": true,\n'
            '      "length": 2\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 2)(4 5)",\n'
            '      "in_image": true,\n'
            '      "length": 2\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 2 3)(4 6 5)",\n'
            '      "in_image": true,\n'
            '      "length": 4\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 3 2)(4 5 6)",\n'
            '      "in_image": true,\n'
            '      "length": 4\n'
            "    },\n"
            "    {\n"
            '      "element": "(1 3)(4 6)",\n'
            '      "in_image": true,\n'
            '      "length": 6\n'
            "    }\n"
            "  ],\n"
            '  "summary": {\n'
            '    "a_max": "(1 3)(4 6)",\n'
            '    "image_size": 6,\n'
            '    "twisted_involutions": 6\n'
            "  }\n"
            "}\n",
        ),
    ],
    ids=["GL-4-json", "Ustar-2-dot", "SOodd1-3", "Res-3-json"],
)
def test_golden_twisted(argv, expected, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["classify-tori", "--family", "Upq", "--p", "3", "--q", "2"],
        ["classify-tori", "--family", "SOodd1", "--n", "4"],
        ["orbits", "--family", "SL2n", "--n", "1"],
        ["orbits", "--family", "SOeven1", "--n", "2"],
        ["orbits", "--family", "Upq", "--p", "2", "--q", "1"],
        ["twisted", "--family", "Ustar", "--n", "2"],
        ["verify", "--family", "SL2n", "--n", "2"],
        ["verify", "--family", "Restriction", "--r", "2"],
    ],
)
def test_json_output_is_canonical_and_schema_valid(argv, capsys, schema):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


_json_scalars = st.none() | st.booleans() | st.integers() | st.text()
_flat_objects = st.dictionaries(st.text(), _json_scalars, max_size=5)


@given(
    st.fixed_dictionaries(
        {
            "command": st.text(),
            "family": st.text(),
            "params": st.lists(st.integers(), max_size=4),
            "rows": st.lists(_flat_objects, max_size=4),
            "summary": _flat_objects,
        }
    )
)
@example(
    {
        "command": "verify",
        "family": "Upq",
        "params": [],
        "rows": [],
        "summary": {"claims": 0, "failures": None},
    }
)
@example(
    {
        "command": 'say "hi"\n',
        "family": "caf\u00e9 \\ \u2603",
        "params": [-1, 0, 10**30],
        "rows": [{"detail": 'a\tb "c" \\ \u00df\n', "ok": False, "e\u0301": True}, {}],
        "summary": {},
    }
)
def test_json_writer_matches_json_dumps(payload):
    """The writer's C-encoded rows in its own frame give exactly the bytes
    of the indented pure-Python encoder."""
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_byte_identical_reruns(capsys):
    argv = ["orbits", "--family", "Upq", "--p", "2", "--q", "2", "--format", "json"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second


# The JSON key under each table column, in table order.
_COLUMN_KEYS = {
    "classify-tori": ("index", "representative", "minus_dimension", "class_size"),
    "orbits": (
        "torus_class",
        "representative",
        "springer_value",
        "length",
        "field_of_definition",
        "partner",
    ),
    "twisted": ("element", "length", "in_image"),
    "verify": ("ok", "claim", "detail"),
}


def _spelled(key, value):
    if key == "in_image":
        return "yes" if value else "no"
    if key == "ok":
        return "pass" if value else "FAIL"
    if key == "partner" and value is None:
        return "-"
    return str(value)


@pytest.mark.parametrize(
    "argv,summary,line",
    [
        (
            ["classify-tori", "--family", "Upq", "--p", "3", "--q", "2"],
            {"classes": 3},
            "3 torus classes",
        ),
        (
            ["orbits", "--family", "SL2n", "--n", "1"],
            {"parameters": 3, "fixed": 1, "pairs": 1},
            "3 parameters: 1 over Z[1/2] + 2 in 1 Galois pair",
        ),
        (
            ["twisted", "--family", "GL", "--n", "4"],
            {"twisted_involutions": 10, "image_size": 10, "a_max": "(1 4)(2 3)"},
            "|I| = 10, |I'| = 10, a_max = (1 4)(2 3)",
        ),
        (
            ["verify", "--family", "Upq", "--p", "2", "--q", "1"],
            {"claims": 10, "failures": 0},
            "10 claims: 10 passed, 0 failed",
        ),
    ],
)
def test_table_and_json_agree_on_summary(argv, summary, line, capsys):
    table_code, table_out, _ = run(argv, capsys)
    json_code, json_out, _ = run(argv + ["--format", "json"], capsys)
    payload = json.loads(json_out)
    assert table_code == json_code == 0
    assert payload["summary"] == summary
    _, _, dashes, *body, last = table_out.splitlines()
    assert last == line
    assert len(body) == len(payload["rows"])
    start, spans = 0, []
    for dash in dashes.split("  "):
        spans.append((start, start + len(dash)))
        start += len(dash) + 2
    keys = _COLUMN_KEYS[argv[0]]
    assert len(spans) == len(keys)
    for text, row in zip(body, payload["rows"]):
        cells = [text[a:b].rstrip() for a, b in spans]
        assert cells == [_spelled(k, row[k]) for k in keys]


def test_closed_stdout_ends_quietly():
    """A reader that stops after one line (``| head -1``) gets no traceback:
    the query still exits 0 and says nothing on stderr.  The output (about
    157 kB) is larger than a pipe buffer, so the write meets the closed pipe."""
    argv = ["orbits", "--family", "Upq", "--p", "4", "--q", "3", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "korbits.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_classify_tori_counts(capsys):
    code, out, _ = run(
        ["classify-tori", "--family", "Upq", "--p", "3", "--q", "2"], capsys
    )
    assert code == 0
    assert "3 torus classes" in out
    code, out, _ = run(["classify-tori", "--family", "SOodd1", "--n", "4"], capsys)
    assert code == 0
    assert "1 torus class\n" in out


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["classify-tori", "--family", "GL", "--n", "6"],
            "classify-tori GL(6)\n"
            "class  representative   minus-dim  size\n"
            "-----  ---------------  ---------  ----\n"
            "0      e                6          1\n"
            "1      (5 6)            5          15\n"
            "2      (3 4)(5 6)       4          45\n"
            "3      (1 2)(3 4)(5 6)  3          15\n"
            "4 torus classes\n",
        ),
        (
            ["classify-tori", "--family", "Upq", "--p", "4", "--q", "4"],
            "classify-tori U(4,4)\n"
            "class  representative        minus-dim  size\n"
            "-----  --------------------  ---------  ----\n"
            "0      e                     4          1\n"
            "1      (4 8)                 3          4\n"
            "2      (3 7)(4 8)            2          6\n"
            "3      (2 6)(3 7)(4 8)       1          4\n"
            "4      (1 5)(2 6)(3 7)(4 8)  0          1\n"
            "5 torus classes\n",
        ),
    ],
    ids=["GL6", "U44"],
)
def test_golden_classify_tori_table(argv, expected, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == expected


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["verify", "--family", "SOodd1", "--n", "5", "--format", "json"],
            "{\n"
            '  "command": "verify",\n'
            '  "family": "SOodd1",\n'
            '  "params": [\n'
            "    5\n"
            "  ],\n"
            '  "rows": [\n'
            "    {\n"
            '      "claim": "theta-squares-to-identity-on-torus",\n'
            '      "detail": "",\n'
            '      "ok": true\n'
            "    },\n"
            "    {\n"
            '      "claim": "theta-matches-lattice-involution",\n'
            '      "detail": "",\n'
            '      "ok": true\n'
            "    }\n"
            "  ],\n"
            '  "summary": {\n'
            '    "claims": 2,\n'
            '    "failures": 0\n'
            "  }\n"
            "}\n",
        ),
        (
            ["verify", "--family", "Upq", "--p", "4", "--q", "2"],
            "verify U(4,2)\n"
            "status  claim                               detail\n"
            "------  ----------------------------------  ----------------------------\n"
            "pass    theta-squares-to-identity-on-torus\n"
            "pass    theta-matches-lattice-involution\n"
            "pass    torus-0-realizer-det-unit           det = 4 (expect a unit, 2^2)\n"
            "pass    torus-0-theta-cocycle               weyl = (3 5)(4 6)\n"
            "pass    torus-0-galois-cocycle              weyl = (3 5)(4 6)\n"
            "pass    torus-0-conjugate-shape\n"
            "pass    torus-1-realizer-det-unit           det = 2 (expect a unit, 2^1)\n"
            "pass    torus-1-theta-cocycle               weyl = (4 6)\n"
            "pass    torus-1-galois-cocycle              weyl = (4 6)\n"
            "pass    torus-1-conjugate-shape\n"
            "pass    torus-2-realizer-det-unit           det = 1 (expect a unit, 2^0)\n"
            "pass    torus-2-theta-cocycle               weyl = e\n"
            "pass    torus-2-galois-cocycle              weyl = e\n"
            "pass    torus-2-conjugate-shape\n"
            "14 claims: 14 passed, 0 failed\n",
        ),
        (
            ["verify", "--family", "SL2n", "--n", "3"],
            "verify SL(6)/Sp\n"
            "status  claim                               detail\n"
            "------  ----------------------------------  ----------------------\n"
            "pass    theta-squares-to-identity-on-torus\n"
            "pass    theta-matches-lattice-involution\n"
            "pass    block-realizer-det-one              det = 1\n"
            "pass    block-realizer-galois-cocycle       weyl = (1 2)\n"
            "pass    torus-0-realizer-det-unit           det = 1\n"
            "pass    torus-0-realizer-theta-fixed\n"
            "pass    torus-0-galois-cocycle              weyl = e\n"
            "pass    torus-0-conjugate-shape\n"
            "pass    torus-1-realizer-det-unit           det = 1\n"
            "pass    torus-1-realizer-theta-fixed\n"
            "pass    torus-1-galois-cocycle              weyl = (1 2)\n"
            "pass    torus-1-conjugate-shape\n"
            "pass    torus-2-realizer-det-unit           det = 1\n"
            "pass    torus-2-realizer-theta-fixed\n"
            "pass    torus-2-galois-cocycle              weyl = (1 2)(3 4)\n"
            "pass    torus-2-conjugate-shape\n"
            "pass    torus-3-realizer-det-unit           det = 1\n"
            "pass    torus-3-realizer-theta-fixed\n"
            "pass    torus-3-galois-cocycle              weyl = (1 2)(3 4)(5 6)\n"
            "pass    torus-3-conjugate-shape\n"
            "20 claims: 20 passed, 0 failed\n",
        ),
    ],
    ids=["SOodd1-5-json", "U42", "SL2n-3"],
)
def test_golden_verify(argv, expected, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == expected


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["orbits", "--family", "SOodd1", "--n", "4", "--format", "json"],
            "{\n"
            '  "command": "orbits",\n'
            '  "family": "SOodd1",\n'
            '  "params": [\n'
            "    4\n"
            "  ],\n"
            '  "rows": [\n'
            "    {\n"
            '      "coset_size": 384,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 0,\n'
            '      "partner": null,\n'
            '      "representative": "e",\n'
            '      "springer_value": "e",\n'
            '      "torus_class": 0\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 384,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 1,\n'
            '      "partner": null,\n'
            '      "representative": "(4 5)",\n'
            '      "springer_value": "e[+++--]",\n'
            '      "torus_class": 0\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 384,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 2,\n'
            '      "partner": null,\n'
            '      "representative": "(3 5 4)",\n'
            '      "springer_value": "e[++-+-]",\n'
            '      "torus_class": 0\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 384,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 3,\n'
            '      "partner": null,\n'
            '      "representative": "(2 5 4 3)",\n'
            '      "springer_value": "e[+-++-]",\n'
            '      "torus_class": 0\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 384,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 4,\n'
            '      "partner": null,\n'
            '      "representative": "(1 5 4 3 2)",\n'
            '      "springer_value": "e[-+++-]",\n'
            '      "torus_class": 0\n'
            "    }\n"
            "  ],\n"
            '  "summary": {\n'
            '    "fixed": 5,\n'
            '    "pairs": 0,\n'
            '    "parameters": 5\n'
            "  }\n"
            "}\n",
        ),
        (
            ["orbits", "--family", "SOeven1", "--n", "3"],
            "orbits SO(6,1)\n"
            "torus  representative  value   length  field   partner\n"
            "-----  --------------  ------  ------  ------  -------\n"
            "0      e               e       0       Z[1/2]  -\n"
            "1      e               e[++-]  0       Z[1/2]  -\n"
            "1      (2 3)           e[+-+]  1       Z[1/2]  -\n"
            "1      (1 3 2)         e[-++]  2       Z[1/2]  -\n"
            "4 parameters: 4 over Z[1/2] + 0 in 0 Galois pairs\n",
        ),
        (
            ["orbits", "--family", "SL2n", "--n", "2", "--format", "json"],
            "{\n"
            '  "command": "orbits",\n'
            '  "family": "SL2n",\n'
            '  "params": [\n'
            "    2\n"
            "  ],\n"
            '  "rows": [\n'
            "    {\n"
            '      "coset_size": 24,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 0,\n'
            '      "partner": null,\n'
            '      "representative": "e",\n'
            '      "springer_value": "(1 4)(2 3)",\n'
            '      "torus_class": 0\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 0,\n'
            '      "partner": null,\n'
            '      "representative": "e",\n'
            '      "springer_value": "(1 4 2 3)",\n'
            '      "torus_class": 1\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 1,\n'
            '      "partner": null,\n'
            '      "representative": "(2 3)",\n'
            '      "springer_value": "(1 4 3 2)",\n'
            '      "torus_class": 1\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 2,\n'
            '      "partner": null,\n'
            '      "representative": "(2 3 4)",\n'
            '      "springer_value": "(2 3)",\n'
            '      "torus_class": 1\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 2,\n'
            '      "partner": null,\n'
            '      "representative": "(1 3 2)",\n'
            '      "springer_value": "(1 4)",\n'
            '      "torus_class": 1\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 3,\n'
            '      "partner": null,\n'
            '      "representative": "(1 3 4 2)",\n'
            '      "springer_value": "(1 2 3 4)",\n'
            '      "torus_class": 1\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 4,\n'
            '      "partner": null,\n'
            '      "representative": "(1 3)(2 4)",\n'
            '      "springer_value": "(1 3 2 4)",\n'
            '      "torus_class": 1\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 0,\n'
            '      "partner": null,\n'
            '      "representative": "e",\n'
            '      "springer_value": "(1 3)(2 4)",\n'
            '      "torus_class": 2\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 1,\n'
            '      "partner": null,\n'
            '      "representative": "(3 4)",\n'
            '      "springer_value": "(1 3)(2 4)",\n'
            '      "torus_class": 2\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 1,\n'
            '      "partner": null,\n'
            '      "representative": "(2 3)",\n'
            '      "springer_value": "(1 2)(3 4)",\n'
            '      "torus_class": 2\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 2,\n'
            '      "partner": null,\n'
            '      "representative": "(2 3 4)",\n'
            '      "springer_value": "e",\n'
            '      "torus_class": 2\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 2,\n'
            '      "partner": null,\n'
            '      "representative": "(2 4 3)",\n'
            '      "springer_value": "(1 2)(3 4)",\n'
            '      "torus_class": 2\n'
            "    },\n"
            "    {\n"
            '      "coset_size": 4,\n'
            '      "field_of_definition": "Z[1/2]",\n'
            '      "length": 3,\n'
            '      "partner": null,\n'
            '      "representative": "(2 4)",\n'
            '      "springer_value": "e",\n'
            '      "torus_class": 2\n'
            "    }\n"
            "  ],\n"
            '  "summary": {\n'
            '    "fixed": 13,\n'
            '    "pairs": 0,\n'
            '    "parameters": 13\n'
            "  }\n"
            "}\n",
        ),
        (
            ["orbits", "--family", "Upq", "--p", "3", "--q", "1"],
            "orbits U(3,1)\n"
            "torus  representative  value  length  field          partner\n"
            "-----  --------------  -----  ------  -------------  ----------\n"
            "0      e               (3 4)  0       Z[1/2,i]-pair  (1 3)(2 4)\n"
            "0      (2 3)           (2 4)  1       Z[1/2,i]-pair  (1 3 4 2)\n"
            "0      (2 3 4)         (2 3)  2       Z[1/2]         -\n"
            "0      (1 3 2)         (1 4)  2       Z[1/2]         -\n"
            "0      (1 3 4 2)       (1 3)  3       Z[1/2,i]-pair  (2 3)\n"
            "0      (1 3)(2 4)      (1 2)  4       Z[1/2,i]-pair  e\n"
            "1      e               e      0       Z[1/2,i]-pair  (1 4 3 2)\n"
            "1      (3 4)           e      1       Z[1/2,i]-pair  (2 4 3)\n"
            "1      (2 4 3)         e      2       Z[1/2,i]-pair  (3 4)\n"
            "1      (1 4 3 2)       e      3       Z[1/2,i]-pair  e\n"
            "10 parameters: 2 over Z[1/2] + 8 in 4 Galois pairs\n",
        ),
    ],
    ids=["SOodd1-4-json", "SOeven1-3", "SL2n-2-json", "U31"],
)
def test_golden_orbits(argv, expected, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "SL2n", "--n", "3"],
        ["--family", "SOodd1", "--n", "4"],
        ["--family", "Upq", "--p", "3", "--q", "2"],
        ["--family", "Restriction", "--r", "3"],
    ],
    ids=["SL2n-3", "SOodd1-4", "U32", "Res-3"],
)
def test_orbits_never_enumerates_a_group(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a subgroup")

    monkeypatch.setattr(korbits.weyl, "enumerate_subgroup", refuse)
    monkeypatch.setattr(korbits.catalog, "enumerate_subgroup", refuse)
    code, out, err = run(["orbits", *argv], capsys)
    assert code == 0, err
    assert err == ""
    assert out.startswith("orbits ")


def test_dot_output_only_for_twisted(capsys):
    code, out, _ = run(["twisted", "--family", "GL", "--n", "3", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph twisted {")
    assert out.rstrip().endswith("}")
    assert out.count("->") > 0
    with pytest.raises(SystemExit) as exc:
        run(["orbits", "--family", "GL", "--n", "3", "--format", "dot"], capsys)
    assert exc.value.code == 2


def test_invalid_params_exit_2(capsys):
    code, out, err = run(["classify-tori", "--family", "Upq", "--p", "1", "--q", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(["verify", "--family", "GL", "--n", "0"], capsys)
    assert code == 2
    code, _, err = run(["orbits", "--family", "GL", "--n", "3", "--p", "1"], capsys)
    assert code == 2
    assert "does not take" in err


def test_unknown_family_is_parser_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["orbits", "--family", "Sp2n", "--n", "2"], capsys)
    assert exc.value.code == 2


def test_unsupported_query_exit_3(capsys):
    code, out, err = run(["orbits", "--family", "GL", "--n", "3"], capsys)
    assert code == 3
    assert out == ""
    assert "little-Weyl-group" in err


def test_too_large_instance_exit_4(capsys):
    code, out, err = run(["twisted", "--family", "GL", "--n", "11"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_classify_tori_refuses_past_involution_cap(capsys, monkeypatch):
    # W(Psi0) = S6 has 76 involutions; with the cap below that the walk
    # over orthogonal root sets refuses with exit 4
    monkeypatch.setattr(korbits.tori, "SUBGROUP_CAP", 75)
    code, out, err = run(["classify-tori", "--family", "GL", "--n", "6"], capsys)
    assert code == 4
    assert out == ""
    assert err == (
        "error: instance too large to enumerate: "
        "involutions of W(Psi0) exceed cap 75\n"
    )
    monkeypatch.setattr(korbits.tori, "SUBGROUP_CAP", 76)
    code, out, err = run(["classify-tori", "--family", "GL", "--n", "6"], capsys)
    assert code == 0
    assert out.endswith("4 torus classes\n")


def test_over_cap_verify_claim_exit_4(capsys):
    code, out, err = run(["verify", "--family", "SOeven1", "--n", "9"], capsys)
    assert code == 4
    assert out == ""
    assert err == (
        "error: instance too large to enumerate: "
        "|B9| = 185794560 exceeds cap 10321920\n"
    )
    code, out, err = run(["verify", "--family", "SOeven1", "--n", "8"], capsys)
    assert code == 0
    assert err == ""
    assert out.endswith("8 claims: 8 passed, 0 failed\n")


def test_classify_tori_at_rank_1000(capsys):
    # B1000 has a million positive roots; Psi0 and the restricted lines come
    # from one pass over their sparse terms
    code, out, err = run(["classify-tori", "--family", "SOeven1", "--n", "1000"], capsys)
    assert code == 0
    assert err == ""
    assert "2 torus classes" in out.splitlines()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--family", "SL2n", "--n", "6"], "|S12| = 479001600 exceeds cap 10321920"),
        (["--family", "Upq", "--p", "10", "--q", "1"], "|S11| = 39916800 exceeds cap 10321920"),
    ],
    ids=["SL2n-6", "U10-1"],
)
def test_over_cap_orbits_refused_before_any_work(argv, message, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a closure before refusing")

    monkeypatch.setattr(korbits.weyl, "closure", refuse)
    code, out, err = run(["orbits", *argv], capsys)
    assert code == 4
    assert out == ""
    assert err == f"error: instance too large to enumerate: {message}\n"


@pytest.mark.parametrize("n", ["99999999999999999999", "100000"])
@pytest.mark.parametrize("command", ["classify-tori", "orbits", "twisted", "verify"])
def test_over_rank_cap_exit_4(command, n, capsys):
    code, out, err = run([command, "--family", "GL", "--n", n], capsys)
    assert code == 4
    assert out == ""
    assert err == (
        f"error: instance too large to enumerate: rank of S{n} = {n} exceeds cap 1024\n"
    )


def test_usage_errors_repeat_identically(capsys):
    # the parser is built once per process; reusing it must not change
    # what a usage error prints, nor what a later valid query prints
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["orbits", "--family", "GL", "--n", "3", "--format", "dot"], capsys)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "invalid choice: 'dot'" in errors[0]
    code, out, err = run(["twisted", "--family", "GL", "--n", "2"], capsys)
    assert code == 0 and err == "" and "|I| = 2" in out


#: Parameter values for the argument-space property, half of the draws
#: from 1-4: None leaves the option out, and 2000 and 10^20 exceed the
#: rank cap, so no query runs long.
_PARAM_VALUES = st.one_of(
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([None, -1, 0, 2000, 10**20, "x"]),
)


@st.composite
def _queries(draw):
    """An argv: subcommand, family (valid or not), each of the family's
    parameters, perhaps one option it does not take, and a format."""
    family = draw(st.sampled_from(sorted(korbits.catalog.FAMILIES) + ["Sp2n", "gl"]))
    wanted = korbits.catalog.FAMILIES.get(family, (None, ("n",)))[1]
    argv = [
        draw(st.sampled_from(["classify-tori", "orbits", "twisted", "verify"])),
        "--family",
        family,
        "--format",
        draw(st.sampled_from(["table", "json", "dot"])),
    ]
    for name in wanted:
        value = draw(_PARAM_VALUES)
        if value is not None:
            argv += [f"--{name}", str(value)]
    unwanted = [n for n in cli._PARAM_NAMES if n not in wanted] + ["s"]
    extra = draw(st.one_of(st.none(), st.sampled_from(unwanted)))
    if extra is not None:
        argv += [f"--{extra}", "1"]
    return argv


@settings(max_examples=60, deadline=None)
@given(_queries())
@example(["twisted", "--family", "Upq", "--format", "dot", "--p", "2000", "--q", "1"])
@example(["orbits", "--family", "GL", "--format", "json", "--n", "4"])
@example(["verify", "--family", "GL", "--format", "table", "--n", "x"])
def test_argument_space_ends_in_an_exit_code(argv):
    # missing, extra, negative, zero, non-integer and huge parameters all end
    # in an exit code, never a traceback; a refusal prints one error line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    if code >= 2:
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1


def test_failed_claims_exit_1(capsys, monkeypatch):
    def fake(spec):
        return (
            ClaimResult(name="det(realizer) = 1", ok=True),
            ClaimResult(name="cocycle lands on (1 2)", ok=False, detail="off by i"),
        )

    monkeypatch.setattr(cli, "verify_matrix_claims", fake)
    code, out, _ = run(["verify", "--family", "GL", "--n", "2"], capsys)
    assert code == 1
    assert "2 claims: 1 passed, 1 failed" in out
    code, out, _ = run(["verify", "--family", "GL", "--n", "2", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"] == {"claims": 2, "failures": 1}
    assert payload["rows"][1]["detail"] == "off by i"


def test_verify_all_families_pass(capsys):
    cases = [
        ["--family", "GL", "--n", "3"],
        ["--family", "SL2n", "--n", "2"],
        ["--family", "Ustar", "--n", "2"],
        ["--family", "SOodd1", "--n", "2"],
        ["--family", "SOeven1", "--n", "2"],
        ["--family", "Upq", "--p", "2", "--q", "1"],
        ["--family", "Restriction", "--r", "2"],
    ]
    for tail in cases:
        code, out, err = run(["verify"] + tail, capsys)
        assert code == 0, (tail, err)
        assert ", 0 failed" in out
