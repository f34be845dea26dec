"""Raise sites: run the in-process Tier-1 suite under a line trace and list
every ``raise`` statement under src/pathamp that no test executed.

    python tests/raise_sites.py

The suite runs in this process with pytest (hypothesis seed 0, pytest's
cache off, no bytecode written), from a temporary working directory that
receives hypothesis's example database, so the tree gains no files.  A
``sys.settrace`` tracer records the lines executed in frames of
src/pathamp; a raise counts as executed when any line of its statement
ran.  Code that tests run in a child process (the CLI's subprocess tests)
is not traced.  ``cli.py``'s ``raise SystemExit(main())`` runs only as a
script, so it is exempt.  Exits 1 if any raise is listed or the suite
fails, 0 otherwise.
"""

import ast
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pathamp"
EXEMPT = {("cli.py", "raise SystemExit(main())")}


def raise_sites() -> dict:
    """{(path, first line): (last line, source)} of every raise under PACKAGE."""
    sites = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                source = ast.get_source_segment(text, node)
                if (path.name, source) not in EXEMPT:
                    sites[(str(path), node.lineno)] = (node.end_lineno, source)
    return sites


def traced_suite() -> tuple:
    """(pytest exit code, {(path, line)} executed in PACKAGE) of one run."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed = set()

    def local(frame, event, _arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    args = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, executed


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sites = raise_sites()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            code, executed = traced_suite()
        finally:
            os.chdir(here)
    missed = [(path, first, source) for (path, first), (last, source) in sites.items()
              if not any((path, line) in executed for line in range(first, last + 1))]
    for path, first, source in missed:
        where = pathlib.Path(path).relative_to(ROOT).as_posix()
        print(f"{where}:{first}: {source.splitlines()[0]}")
    print(f"{len(missed)} of {len(sites)} raise sites not executed")
    if code != 0:
        print(f"the suite failed (pytest exit code {code})")
    return 1 if missed or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
