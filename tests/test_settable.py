"""Every optional parameter in the package is one a program caller sets.

A parameter or dataclass field with a default is a value a caller may
choose.  One that no call in src/ or perfbench/ sets has only its default
in use, and is a constant with extra plumbing.  The scan is by name: a
call of `name(...)` or `obj.name(...)` sets the parameters of every
function or dataclass called `name` that it passes by position or keyword
(`*args` sets every positional one, `**kwargs` every keyword), `cls(...)`
in a class body stands for the class, and `replace(obj, field=...)` sets
the field.  The asymptotics experiments' keywords are exempt: the CLI binds
them from --config.
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
