"""Every exception class of ``errors.py`` but the base is raised, or for a
warning warned, by some other module of zetakit: an error class that
outlives its last raiser fails here."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zetakit"


def _name(node):
    """The class a raise or warn names: X, X(...), or mod.X."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _raised(tree) -> set:
    """Names raised, and the categories of warn(msg, Category) calls."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(_name(node.exc))
        elif isinstance(node, ast.Call) and _name(node.func) == "warn":
            category = node.args[1:2] + [k.value for k in node.keywords if k.arg == "category"]
            names.update(_name(c) for c in category)
    return names


def _orphans(errors_source: str, other_sources) -> list:
    _, *rest = (node.name for node in ast.parse(errors_source).body
                if isinstance(node, ast.ClassDef))
    used = set().union(*(_raised(ast.parse(s)) for s in other_sources))
    return sorted(set(rest) - used)


def test_every_error_class_is_raised():
    others = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"]
    errors = (SRC / "errors.py").read_text()
    assert sum(isinstance(node, ast.ClassDef) for node in ast.parse(errors).body) >= 5
    assert _orphans(errors, others) == []


def test_an_unraised_class_is_caught():
    errors = ("class Base(Exception): pass\nclass A(Base): pass\nclass B(Base): pass\n"
              "class C(Base): pass\nclass W(UserWarning): pass\nclass V(UserWarning): pass\n")
    users = ["from .errors import A\nraise A('x') from None\n",
             "import warnings\nfrom . import errors\n"
             "def f():\n    raise errors.B\n    warnings.warn('m', W, stacklevel=2)\n"
             "    warnings.warn('m', category=V)\n",
             "from .errors import C\ntry:\n    pass\nexcept C:\n    pass\n"]
    assert _orphans(errors, users) == ["C"]
