"""Every function in ``src/korbits`` is reached by some CLI query.

A child interpreter turns on ``sys.setprofile`` before it imports the
package, then runs, in-process through ``korbits.cli.main``, every command
in every format of ``scripts/golden_outputs.py`` on each catalog instance
with |W| <= 48, and the refusals and usage errors below.  It prints the
qualified name of every function it saw called.  The test asserts that each
``def`` in the package, found by ``ast``, is among them, apart from the
allow-list.  A fresh process keeps the result independent of what earlier
tests imported or cached.

    PYTHONPATH=src:scripts python3 tests/test_reachability.py
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "korbits"
MAX_ORDER = 48

#: Queries that fail, with the exit status each must end in (argparse
#: errors leave through SystemExit with status 2).
REFUSALS = [
    (["classify-tori", "--family", "Upq", "--p", "1", "--q", "2"], 2),
    (["verify", "--family", "GL", "--n", "0"], 2),
    (["orbits", "--family", "GL", "--n", "3", "--p", "1"], 2),
    (["orbits", "--family", "Sp2n", "--n", "2"], 2),
    (["orbits", "--family", "GL", "--n", "3", "--format", "dot"], 2),
    (["orbits", "--family", "GL", "--n", "3"], 3),
    (["twisted", "--family", "GL", "--n", "11"], 4),
    (["verify", "--family", "SOeven1", "--n", "9"], 4),
    (["orbits", "--family", "SL2n", "--n", "6"], 4),
    (["classify-tori", "--family", "GL", "--n", "100000"], 4),
]

#: Functions no query calls, each kept for the reason given.
ALLOWED = {
    # the subgroup closure the tests use; perfbench's tests read it as
    # korbits.catalog.enumerate_subgroup
    "weyl.enumerate_subgroup",
    # the element's printed form in error messages (NotAnInvolution's),
    # pinned by test_weyl.py::test_images_print_as_a_plain_tuple
    "weyl.SignedPerm.__repr__",
    # the lattice involution as dense rows: perfbench's checks read
    # spec.lattice.rows, and so do the dense references in tests/oracle.py
    "tori.ThetaLattice.rows",
    # the dense rows of a matrix: perfbench's checks read them (_matrix), and
    # so do the references in tests/oracle.py and test_dyadic.py
    "dyadic.ExactMatrix.entries",
}


def defined() -> set[str]:
    """``module.qualname`` of every def in the package, as ``co_qualname``
    spells it."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return names


def reached() -> set[str]:
    """Run the queries under the profiler; ``module.qualname`` of every
    package function called."""
    codes = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
    try:
        from golden_outputs import FORMATS, command_line
        from orbit_census import instances

        from korbits.cli import main

        queries = [
            (command_line(command, spec.family, spec.params, fmt), None)
            for spec in instances(MAX_ORDER)
            for command, formats in FORMATS.items()
            for fmt in formats
        ]
        for argv, expect in queries + REFUSALS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
            assert status == expect or (expect is None and status in (0, 3)), (argv, status)
    finally:
        sys.setprofile(None)
    return {
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if Path(code.co_filename).parent == PACKAGE
    }


def test_every_function_is_reached_by_a_query():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "scripts")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    seen = set(json.loads(proc.stdout))
    assert len(seen) > 100
    unreached = sorted(defined() - seen - ALLOWED)
    assert not unreached, f"{len(unreached)} functions no query calls: {unreached}"
    # the allow-list names only functions that exist and that no query calls
    assert ALLOWED <= defined() - seen, sorted(ALLOWED - (defined() - seen))


if __name__ == "__main__":
    print(json.dumps(sorted(reached())))
