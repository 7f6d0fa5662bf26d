"""One ``ast`` walker and one table of rules for the library's source guards.

No linter ships with the project. A rule's finder yields (line, text) for
each violation in a parsed ``Module``; the rule names the modules it does
not check and, per module, the top-level function whose body it skips. The
guard test files (``test_one_*``, ``test_reductions_along_stack_axis``,
``test_non_finite_raise_sites``, ``test_unused_imports``) say why each rule
holds, run it on the library and self-test its finder on planted violations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

SRC = Path(__file__).resolve().parent.parent / "src" / "qfg"


class Module:
    """A parsed module: its nodes outside the body of the top-level function ``exempt``, and its numpy names."""

    def __init__(self, source: str, exempt: str | None = None):
        self.tree = ast.parse(source)
        self.lines = source.splitlines()
        bodies = [f for f in self.tree.body if isinstance(f, ast.FunctionDef) and f.name == exempt]
        skip = {id(n) for f in bodies for n in ast.walk(f)}
        self.nodes = [n for n in ast.walk(self.tree) if id(n) not in skip]
        self.numpy, self.linalg = set(), set()  # names bound to the numpy and numpy.linalg modules
        self.from_numpy = {}  # each name imported from numpy: the name it has there
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "numpy.linalg" and a.asname:
                        self.linalg.add(a.asname)
                    elif a.name in ("numpy", "numpy.linalg"):
                        self.numpy.add(a.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy":
                for a in node.names:
                    if a.name == "linalg":
                        self.linalg.add(a.asname or a.name)
                    else:
                        self.from_numpy[a.asname or a.name] = a.name

    def is_numpy(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self.numpy

    def is_linalg(self, node: ast.expr) -> bool:
        """``node`` is numpy.linalg: an alias of it, or ``linalg`` of an alias of numpy or of it."""
        if isinstance(node, ast.Name):
            return node.id in self.linalg
        return isinstance(node, ast.Attribute) and node.attr == "linalg" and (
            self.is_numpy(node.value) or self.is_linalg(node.value))

    def imports_from(self, modules: set[str], names: set[str]) -> Iterator[tuple[int, str]]:
        for node in self.nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in modules:
                yield from ((node.lineno, f"from {node.module} import {a.name}") for a in node.names if a.name in names)


def references(names: set[str]) -> Callable[[Module], Iterator[tuple[int, str]]]:
    """The finder of each attribute, name or imported name whose last dotted part is in ``names``."""
    def find(m: Module):
        for node in m.nodes:
            if (isinstance(node, ast.Attribute) and node.attr in names) or (
                    isinstance(node, ast.Name) and node.id in names):
                yield node.lineno, ast.unparse(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from ((node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[-1] in names)
    return find


def _name(func: ast.expr) -> str | None:
    """The called name of ``f(...)`` or ``x.f(...)``."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == name


def _is_product(node: ast.AST) -> bool:
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)


def eigensolvers(m: Module):
    solvers = {"eigh", "eigvalsh"}
    for node in m.nodes:
        if isinstance(node, ast.Attribute) and node.attr in solvers and m.is_linalg(node.value):
            yield node.lineno, ast.unparse(node)
    yield from m.imports_from({"numpy.linalg"}, solvers)


def products(m: Module):
    kernels = {"matmul", "einsum"}
    for node in m.nodes:
        if _is_product(node) or (isinstance(node, ast.Attribute) and node.attr in kernels and (
                m.is_numpy(node.value) or m.is_linalg(node.value))):
            yield node.lineno, ast.unparse(node)
    yield from m.imports_from({"numpy", "numpy.linalg"}, kernels)


def traced_products(m: Module):
    for node in m.nodes:
        if isinstance(node, ast.Call) and _name(node.func) in ("trace", "traces") and (
                (node.args and _is_product(node.args[0]))
                or (isinstance(node.func, ast.Attribute) and _is_product(node.func.value))):
            yield node.lineno, ast.unparse(node)


def real_parts_of_complex_pairings(m: Module):
    for node in m.nodes:
        attribute = isinstance(node, ast.Attribute) and node.attr == "real" and _calls(node.value, "frobenius_inner")
        wrapped = _calls(node, "real") and node.args and _calls(node.args[0], "frobenius_inner")
        if attribute or wrapped:
            yield node.lineno, ast.unparse(node)


REDUCTIONS = {"max", "min", "amax", "amin", "nanmax", "nanmin"}
UFUNCS = {"maximum", "minimum"}


def _axis(call: ast.Call, position: int) -> ast.expr | None:
    """The call's axis argument, by keyword or at its positional index, or None if not given."""
    for keyword in call.keywords:
        if keyword.arg == "axis":
            return keyword.value
    return call.args[position] if len(call.args) > position else None


def row_reductions(m: Module):
    imported = {name for name, original in m.from_numpy.items() if original in REDUCTIONS | UFUNCS}
    for node in m.nodes:
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id in imported:
            position = 1  # numpy's function form, max(a, axis)
        elif isinstance(func, ast.Attribute) and func.attr == "reduce" and (
                (isinstance(func.value, ast.Attribute) and func.value.attr in UFUNCS)
                or (isinstance(func.value, ast.Name) and func.value.id in imported)):
            position = 1  # maximum.reduce(a, axis)
        elif isinstance(func, ast.Attribute) and func.attr in REDUCTIONS:
            position = 1 if m.is_numpy(func.value) else 0  # np.max(a, axis) or a.max(axis)
        else:
            continue
        axis = _axis(node, position)
        if axis is not None and not (isinstance(axis, ast.Constant) and axis.value in (0, None)):
            yield node.lineno, ast.unparse(node)


def non_finite_raises(m: Module):
    for node in m.nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            if _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "NonFiniteResult":
                yield node.lineno, ast.unparse(node)


def unused_imports(m: Module):
    imported = {}
    for node in m.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for a in node.names:
                if all("# noqa: F401" not in m.lines[line - 1] for line in (a.lineno, node.lineno)):
                    imported[a.asname or a.name.split(".")[0]] = a.lineno
    used = {node.id for node in ast.walk(m.tree) if isinstance(node, ast.Name)}
    return ((line, name) for name, line in imported.items() if name not in used)


@dataclass(frozen=True)
class Rule:
    """A finder, the modules it does not check, and per module the top-level function whose body it skips."""

    find: Callable[[Module], Iterator[tuple[int, str]]]
    skipped: frozenset[str] = frozenset()
    exempt: dict[str, str] = field(default_factory=dict)

    @property
    def modules(self) -> list[Path]:
        return sorted(p for p in SRC.glob("*.py") if p.name not in self.skipped)

    def violations(self, source: str, exempt: str | None = None) -> list[str]:
        """Each violation outside the body of the top-level function ``exempt``, as 'line n: text', in line order."""
        return [f"line {line}: {text}" for line, text in sorted(self.find(Module(source, exempt)))]

    def check(self, path: Path) -> list[str]:
        """The violations in a library module, its exempt function skipped."""
        return self.violations(path.read_text(encoding="utf-8"), self.exempt.get(path.name))

    def owners(self, source: str) -> list[str]:
        """The top-level functions and classes with a violation, in order; "<module>" for other code."""
        defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        nodes = [node for node in ast.parse(source).body if self.violations(ast.unparse(node))]
        return [node.name if isinstance(node, defines) else "<module>" for node in nodes]


RULES = {
    "eigensolver": Rule(eigensolvers, skipped=frozenset({"linalg.py"})),
    "lift": Rule(references({"from_eigenpairs"}), skipped=frozenset({"states.py"})),
    "derivative": Rule(references({"drho_stack", "_step_thetas", "_central_difference"}),
                       exempt={"sld.py": "walk_curve"}),
    "product": Rule(products, skipped=frozenset({"verify.py"}), exempt={"linalg.py": "matmul"}),
    "traced product": Rule(traced_products, skipped=frozenset({"verify.py"})),
    "complex real part": Rule(real_parts_of_complex_pairings, skipped=frozenset({"verify.py"})),
    "row reduction": Rule(row_reductions, skipped=frozenset({"verify.py"}), exempt={"linalg.py": "_reduce_rows"}),
    "non-finite raise": Rule(non_finite_raises, skipped=frozenset({"errors.py", "serialize.py"})),
    "unused import": Rule(unused_imports, skipped=frozenset({"__init__.py"})),
}
