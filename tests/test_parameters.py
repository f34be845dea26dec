"""No public function or value class of the package keeps a parameter or
field that nothing sets.

A parameter with a default that no call ever passes is a constant in
disguise: it widens the API and every reader must check what it does.
Each such parameter of a public module-level function under
src/pathamp (cli.py aside, whose entry point takes argv), and each
defaulted field of a Record class, must be passed, by keyword or by
position, in at least one call of that function or class under src/,
tests/ or perfbench/.  A call with *args or **kwargs counts as passing
all of them.

Likewise a public method or property that nothing reads is dead API:
the name of each one defined on a class under src/pathamp must be read
as an attribute (``x.name``) somewhere under src/ or perfbench/.  A read
in tests/ does not count: public functions answer to the ledger of
tests/test_ledger.py, since many closed forms are library API that only
tests call, but a method has no ledger row, so a reader in the package
or the benchmark is what earns its place.  A bare name such as a local
variable does not count either.  The guard matches names only, so a
method named like an attribute of a builtin type (a ``real`` property,
read elsewhere as ``complex.real``) is beyond it.
"""

import ast
import importlib
import pathlib
import pkgutil

import pathamp
from pathamp.core_num import Record

PACKAGE = pathlib.Path(pathamp.__file__).parent
ROOT = PACKAGE.parent.parent


def _defaulted_parameters():
    """{(module path, function name): [(parameter, position or None)]}"""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            params = [(a.arg, i) for i, a in enumerate(positional)
                      if i >= len(positional) - len(args.defaults)]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if params:
                found[(path.relative_to(ROOT).as_posix(), node.name)] = params
    return found


def _defaulted_fields():
    """{(module, class name): [(field, position)]} over every Record class."""
    for info in pkgutil.walk_packages(pathamp.__path__, "pathamp."):
        importlib.import_module(info.name)
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls._defaults:
                found[(cls.__module__, cls.__name__)] = [
                    (name, cls.__slots__.index(name)) for name in cls._defaults]
    return found


def _public_methods():
    """{method name: [module path:Class.method]} over every class in the package."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found.setdefault(item.name, []).append(
                        f"{path.relative_to(ROOT).as_posix()}:{node.name}.{item.name}")
    return found


def _attribute_reads():
    """Every attribute name read in src and perfbench."""
    names = set()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def _calls():
    """{function name: [ast.Call]} over every call in src, tests and perfbench."""
    calls = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _unused(found):
    calls = _calls()
    return [f"{where}:{name}({param})"
            for (where, name), params in found.items()
            for param, position in params
            if not any(_passes(c, param, position) for c in calls.get(name, ()))]


def test_every_defaulted_parameter_is_passed_somewhere():
    assert _unused(_defaulted_parameters()) == []


def test_every_defaulted_record_field_is_passed_somewhere():
    assert _unused(_defaulted_fields()) == []


def test_every_public_method_is_referenced_somewhere():
    referenced = _attribute_reads()
    assert [where for name, defs in _public_methods().items()
            if name not in referenced for where in defs] == []
