"""Every optional parameter in the package is one a program caller sets,
every definition in it is one that program code names, and no two of its
modules define one module-level name.

A parameter or dataclass field with a default is a value a caller may
choose.  One that no call in src/ or perfbench/ sets has only its default
in use, and is a constant with extra plumbing.  The scan is by name: a
call of `name(...)` or `obj.name(...)` sets the parameters of every
function or dataclass called `name` that it passes by position or keyword
(`*args` sets every positional one, `**kwargs` every keyword), `cls(...)`
in a class body stands for the class, and `replace(obj, field=...)` sets
the field.  The asymptotics experiments' keywords are exempt: the CLI binds
them from --config.

A function, method or class that no live code in src/ or perfbench/ names
is reached by no program input, only by tests: its place is in tests/, as
a reference.  That scan is by name too (see unreferenced_definitions).

A module-level name that two modules define is a copy of a value one of
them could import, or two helpers a reader takes for one (see
shared_module_names).
"""

import ast
import pathlib

from dynvertex import asymptotics

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dynvertex"
CALLERS = (PACKAGE, ROOT / "perfbench")


def _trees(folder):
    for path in sorted(folder.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_dataclass(cls):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _init_field(stmt):
    """Whether an annotated class statement is a dataclass __init__ field."""
    if _name(getattr(stmt.annotation, "value", stmt.annotation)) == "ClassVar":
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and _name(value.func) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", 1)
                        is False for k in value.keywords))


def _optional(tree):
    """(owner, parameter, position) of each parameter with a default;
    position is None for a keyword-only one."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            pos = args.posonlyargs + args.args
            skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
            first = len(pos) - len(args.defaults)
            for i, arg in enumerate(pos[first:], first):
                yield node.name, arg.arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name) and _init_field(s)]
            for i, stmt in enumerate(fields):
                if stmt.value is not None:
                    yield node.name, stmt.target.id, i


class _Calls(ast.NodeVisitor):
    """(callee name, positional count, keywords) of every call; None among
    the keywords stands for a ** argument."""

    def __init__(self):
        self.calls, self.classes = [], []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        name = _name(node.func)
        if name == "cls" and self.classes:
            name = self.classes[-1]
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        self.calls.append((name, float("inf") if starred else len(node.args),
                           {k.arg for k in node.keywords}))
        self.generic_visit(node)


def unset_parameters(package=PACKAGE, callers=CALLERS, exempt=()):
    """'owner(parameter)' for each optional parameter in package that no
    call in callers sets, owners in exempt aside."""
    visitor = _Calls()
    for folder in callers:
        for _, tree in _trees(folder):
            visitor.visit(tree)
    unset = []
    for path, tree in _trees(package):
        for owner, param, at in _optional(tree):
            if owner in exempt:
                continue
            if not any(name == owner and (
                    at is not None and npos > at or param in kws
                    or None in kws) or name == "replace" and param in kws
                    for name, npos, kws in visitor.calls):
                unset.append("%s.%s(%s)" % (path.stem, owner, param))
    return unset


def test_every_optional_parameter_is_set_by_a_program_caller():
    exempt = {fn.__name__ for fn in asymptotics._EXPERIMENTS.values()}
    assert unset_parameters(exempt=exempt) == []


def test_the_scan_finds_a_parameter_no_caller_sets(tmp_path):
    (tmp_path / "lib.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "class K:\n"
        "    def m(self, x=0, y=0):\n        pass\n"
        "@dataclass\nclass D:\n"
        "    u: int\n    v: int = 0\n    w: int = field(default=0)\n"
        "    n: ClassVar[int] = 1\n"
        "    h: dict = field(default_factory=dict, init=False)\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls(1, w=2)\n")
    (tmp_path / "use.py").write_text(
        "f(0, c=1)\nK().m(1)\nreplace(D(0), v=1)\n")
    assert unset_parameters(tmp_path, (tmp_path,)) == [
        "lib.f(b)", "lib.f(d)", "lib.m(y)"]
    (tmp_path / "more.py").write_text("f(*xs, **kw)\nK().m(0, 1)\n")
    assert unset_parameters(tmp_path, (tmp_path,)) == []


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node):
    """The names node's code reads, calls or imports from a module; the
    code of definitions nested in it aside."""
    names = {_name(node)}
    if isinstance(node, ast.ImportFrom):
        names |= {alias.name for alias in node.names}
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _DEFS):
            names |= _referenced(child)
    return names


def _definitions(node, parent=None):
    """(definition, the definition it is nested in or None) of each
    function, method or class under node."""
    for child in ast.iter_child_nodes(node):
        inner = parent
        if isinstance(child, _DEFS):
            yield child, parent
            inner = child
        yield from _definitions(child, inner)


def unreferenced_definitions(package=PACKAGE, callers=CALLERS):
    """'module.name' of each function, method or class in package, dunders
    aside, that no live code in callers names.  Module-level code is live.
    A definition is live when live code names it (a dunder needs no name)
    and the definition it is nested in, if any, is live; its code is then
    live too.  Definitions nested in one listed are not listed again."""
    defs, names = [], set()
    for folder in callers:
        for path, tree in _trees(folder):
            names |= _referenced(tree)
            defs += [(path, node, parent)
                     for node, parent in _definitions(tree)]
    live, grew = set(), True
    while grew:
        grew = False
        for path, node, parent in defs:
            if node not in live and (parent is None or parent in live) and (
                    node.name in names or node.name.startswith("__")):
                live.add(node)
                names |= _referenced(node)
                grew = True
    return ["%s.%s" % (path.stem, node.name) for path, node, parent in defs
            if node not in live and (parent is None or parent in live)
            and path.is_relative_to(package)
            and not node.name.startswith("__")]


def test_every_definition_is_named_by_live_code():
    assert unreferenced_definitions() == []


def test_the_scan_finds_a_definition_no_live_code_names(tmp_path):
    (tmp_path / "lib.py").write_text(
        "def live():\n    return helper()\n"
        "def helper():\n    pass\n"
        "def imported():\n    pass\n"
        "def dead():\n    return only_dead()\n"
        "def only_dead():\n"
        "    def live():\n        return via_nested()\n"
        "    return live()\n"
        "def via_nested():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class K:\n"
        "    def __init__(self):\n        via_dunder()\n"
        "    def used(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "def via_dunder():\n    pass\n"
        "live()\nK().used()\n")
    (tmp_path / "use.py").write_text("from lib import imported\n")
    assert unreferenced_definitions(tmp_path, (tmp_path,)) == [
        "lib.dead", "lib.only_dead", "lib.via_nested", "lib.recursive",
        "lib.unused"]
    (tmp_path / "more.py").write_text("dead()\nrecursive(1)\nK().unused()\n")
    assert unreferenced_definitions(tmp_path, (tmp_path,)) == []


def _module_names(tree):
    """The names a module's top-level statements define: functions,
    classes and assigned names, imports aside."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name))


def shared_module_names(package=PACKAGE):
    """'name: module, module, ...' for each module-level name, dunders
    aside, that two or more modules of package define: a copy of a value
    or a helper where one module could import the other's, or two helpers
    under one name that a reader takes for one."""
    where = {}
    for path, tree in _trees(package):
        for name in set(_module_names(tree)):
            if not name.startswith("__"):
                where.setdefault(name, []).append(path.stem)
    return ["%s: %s" % (name, ", ".join(stems))
            for name, stems in sorted(where.items()) if len(stems) > 1]


def test_no_two_modules_define_one_name():
    assert shared_module_names() == []


def test_the_scan_finds_a_name_two_modules_define(tmp_path):
    (tmp_path / "a.py").write_text(
        "from b import g\n_TOL = 1e-13\nx, (y, z) = 1, (2, 3)\n"
        "n: int = 0\n__all__ = []\n"
        "def f():\n    _local = 1\nclass K:\n    def f(self):\n        pass\n")
    (tmp_path / "b.py").write_text(
        "_TOL = 1e-13\n__all__ = []\ndef g():\n    pass\ndef z():\n    pass\n"
        "class K:\n    pass\n")
    (tmp_path / "c.py").write_text("def f():\n    pass\n_local = n = 2\n")
    assert shared_module_names(tmp_path) == [
        "K: a, b", "_TOL: a, b", "f: a, c", "n: a, c", "z: a, b"]
    for name in ("b.py", "c.py"):
        (tmp_path / name).unlink()
    assert shared_module_names(tmp_path) == []
