"""Every module the test suite imports comes with ``pip install -e .[test]``.

Each import under tests/, at module level or inside a function, must
name a module of the standard library, the package, a sibling test
module, or a distribution listed in ``dependencies`` or in the ``test``
extra of pyproject.toml.  Otherwise a clean install, as CI makes it,
errors on the test that needs it.
"""

import ast
import pathlib
import re
import sys

TESTS = pathlib.Path(__file__).parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def _listed(key: str) -> set:
    """Import names of the requirements in the array ``key = [...]`` of
    pyproject.toml, read by regex: Python 3.10 has no tomllib."""
    array = re.search(rf"^{key} = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in re.findall(r'"([^"]+)"', array.group(1))}


def _imports():
    """(file:line, top-level module) of every absolute import under tests/."""
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name.split(".")[0]


def test_every_import_is_installed_with_the_test_extra():
    known = set(sys.stdlib_module_names) | {"pathamp"} \
        | {path.stem for path in TESTS.glob("*.py")} \
        | _listed("dependencies") | _listed("test")
    unlisted = [(where, name) for where, name in _imports() if name not in known]
    assert not unlisted, unlisted
