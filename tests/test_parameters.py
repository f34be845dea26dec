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

Likewise a public method or property that nothing reads is dead API.
Each one defined on a class under src/pathamp must be read as an
attribute (``x.name``) somewhere under src/ or perfbench/, on a receiver
of its class (or of a subclass that inherits it), as far as the AST shows
the receiver's class: ``self`` inside the class, a parameter annotated
with the class, a name bound only from the class's constructor, a
constructor call, or the class itself.  A read of another class's
attribute of the same name does not count.  Where no read shows the
class (a handler's ``args``, a loop variable, a function's result), the
method is listed in CALLERS with one function that reads it, and the
entry fails once that function stops reading it or a typed read makes
the entry redundant.  A read in tests/ does not count: public functions
answer to the ledger of tests/test_ledger.py, since many closed forms are
library API that only tests call, but a method has no ledger row, so a
reader in the package or the benchmark is what earns its place.
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


def _classes():
    """{class name: [(module path, ast.ClassDef)]} over every class in the package."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append(
                    (path.relative_to(ROOT).as_posix(), node))
    return found


def _public_methods():
    """{"module path:Class.method"} over every class in the package."""
    return {f"{path}:{name}.{item.name}" for name, defs in _classes().items()
            for path, node in defs for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def _class_named(node, classes):
    """The package class that node names (C, module.C, or "C" in an
    annotation), or None."""
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else \
        node.value if isinstance(node, ast.Constant) else None
    return name if name in classes else None


def _own_nodes(body):
    """The nodes of a scope's body, without the bodies of the functions,
    lambdas and classes defined in it."""
    todo = list(body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += getattr(node, "decorator_list", []) + node.args.defaults + [d for d in node.args.kw_defaults if d]
        elif isinstance(node, ast.ClassDef):
            todo += node.decorator_list + node.bases
        else:
            todo += ast.iter_child_nodes(node)


def _bindings(body, classes):
    """{name: class} for the names a scope binds only from one package
    class's constructor (x = C(...)); {name: None} for any other name it
    binds."""
    targets, found = set(), {}
    nodes = list(_own_nodes(body))
    for node in nodes:
        if isinstance(node, ast.Assign):
            cls = (_class_named(node.value.func, classes)
                   if isinstance(node.value, ast.Call) else None)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    targets.add(target)
                    found[target.id] = cls if found.get(target.id, cls) == cls else None
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                and node not in targets:
            found[node.id] = None
    return found


def _receiver_class(recv, types, classes):
    """The package class of an attribute read's receiver, given the
    classes of the names in scope, or None."""
    if isinstance(recv, ast.Call):
        return _class_named(recv.func, classes)
    if isinstance(recv, ast.Name) and recv.id in types:
        return types[recv.id]
    return _class_named(recv, classes)


def _reads(tree, classes):
    """(receiver class or None, attribute, qualified function) for every
    attribute read in tree.  The receiver's class is known where the AST
    shows it: self (the first parameter of a method) inside its class, a
    parameter annotated with a class, a name bound from a class's
    constructor, a constructor call, or the class itself."""
    found = []

    def scope(body, types, owner, where):
        types = {**types, **_bindings(body, classes)}
        for node in _own_nodes(body):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.append((_receiver_class(node.value, types, classes), node.attr, where))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args.posonlyargs + node.args.args
                inner = {**types, **{a.arg: a.annotation and _class_named(a.annotation, classes)
                                     for a in params + node.args.kwonlyargs}}
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if owner and params and not static:
                    inner[params[0].arg] = owner
                scope(node.body, inner, None, f"{where}.{node.name}".lstrip("."))
            elif isinstance(node, ast.Lambda):
                scope([node.body], {**types, **{a.arg: None for a in node.args.args}},
                      None, where)
            elif isinstance(node, ast.ClassDef):
                scope(node.body, types, node.name, f"{where}.{node.name}".lstrip("."))

    scope(tree.body, {}, None, "")
    return found


def _mro(name, classes):
    """name and its package base classes, nearest first."""
    order, todo = [], [name]
    while todo:
        cls = todo.pop(0)
        if cls in classes and cls not in order:
            order.append(cls)
            todo += [b for _path, node in classes[cls] for b in
                     (_class_named(base, classes) for base in node.bases) if b]
    return order


def _method_reads():
    """({module path:Class.method} read on a receiver of its class,
    {(file, function): attribute names read there on any receiver}) over
    src and perfbench."""
    classes, typed, by_function = _classes(), set(), {}
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            for cls, attr, func in _reads(ast.parse(path.read_text()), classes):
                by_function.setdefault((where, func), set()).add(attr)
                for owner in _mro(cls, classes) if cls else ():
                    defs = [f"{p}:{owner}.{attr}" for p, node in classes[owner]
                            if any(isinstance(i, ast.FunctionDef) and i.name == attr
                                   for i in node.body)]
                    if defs:
                        typed.update(defs)
                        break
    return typed, by_function


# Public methods that no read under src/ or perfbench/ reaches on a
# receiver of a known class (a handler's args, a loop variable, a
# function's result), each with one function that reads it, as
# "file:function"; "argparse" marks a method that the standard library's
# parser calls
CALLERS = {
    "src/pathamp/_cli_argparse.py:_Parser.error": "argparse",
    "src/pathamp/_cli_argparse.py:_LazyParser.parse_known_args": "argparse",
    "src/pathamp/cli.py:_Args.quantity": "src/pathamp/commands/reflection.py:_reflect",
    "src/pathamp/cli.py:_Args.require": "src/pathamp/commands/propagators.py:_propagator",
    "src/pathamp/cli.py:_Args.write_csv": "src/pathamp/commands/flavour.py:_ydse",
    "src/pathamp/core_num.py:Record.as_dict": "src/pathamp/commands/reflection.py:_reflect",
    "src/pathamp/flavour.py:SlitGeometry.path_difference":
        "src/pathamp/flavour.py:PhotonSlitResult.probability",
    "src/pathamp/flavour.py:PhotonSlitResult.probability": "src/pathamp/commands/flavour.py:_ydse",
    "src/pathamp/flavour.py:ElectronSlitResult.probability":
        "src/pathamp/commands/flavour.py:_ydse",
}


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
    typed, _ = _method_reads()
    assert sorted(_public_methods() - typed - set(CALLERS)) == []


def test_every_listed_caller_reads_its_method():
    # an entry goes once its method is read on a receiver of its class,
    # or is gone, or its caller no longer reads it
    import argparse
    typed, by_function = _method_reads()
    methods = _public_methods()
    for where, caller in CALLERS.items():
        name = where.rsplit(".", 1)[1]
        assert where in methods and where not in typed, where
        if caller == "argparse":
            assert hasattr(argparse.ArgumentParser, name), where
        else:
            assert name in by_function.get(tuple(caller.split(":")), ()), (where, caller)
