"""No public function of the package keeps a parameter that nothing sets.

A parameter with a default that no call ever passes is a constant in
disguise: it widens the API and every reader must check what it does.
Each such parameter of a public module-level function under
src/pathamp (cli.py aside, whose entry point takes argv) must be passed,
by keyword or by position, in at least one call under src/, tests/ or
perfbench/.  A call to the function with *args or **kwargs counts as
passing all of them.
"""

import ast
import pathlib

import pathamp

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


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = _calls()
    unused = [f"{path}:{func}({param})"
              for (path, func), params in _defaulted_parameters().items()
              for param, position in params
              if not any(_passes(c, param, position) for c in calls.get(func, ()))]
    assert unused == []
