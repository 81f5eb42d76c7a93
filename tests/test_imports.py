"""Source hygiene: every name a markerswarm or test module imports is used there,
every parameter a function takes is read in its body, every attribute a
module stores is read somewhere in the package or the benchmark, and
importing the CLI pulls in no test oracle, no network module and no
thread pool.

No lint tool is a dependency, so this walks each module's syntax tree
with the standard library: a deletion that leaves an import or a
parameter behind fails here. Names listed in ``__all__`` count as used
(package re-exports); ``self``, ``cls`` and a parameter whose name starts
with ``_`` (kept for a uniform signature) need not be read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "markerswarm"
MODULES = sorted(PACKAGE.rglob("*.py"))
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.glob("*.py"))


def module_id(path: Path) -> str:
    """A package module by its path in the package, a test module as ``tests/<name>``."""
    if path.is_relative_to(PACKAGE):
        return str(path.relative_to(PACKAGE))
    return str(path.relative_to(TESTS.parent))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds -> line number (``__future__`` excluded)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus those listed in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=module_id)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_accepts_every_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Any as Whatever\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x) -> Whatever:\n"
        "    return os.path.join(x)\n"
        "@dataclass\n"
        "class C:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 4: field"]


def unused_parameters(source: str) -> list[str]:
    """``line N: function(parameter)`` for each parameter its function never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "lambda")
        found += [
            f"line {node.lineno}: {name}({p.arg})"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
        ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_has_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_parameter_checker_flags_unused_and_accepts_every_kind_of_read():
    source = (
        "class C:\n"
        "    def m(self, tick, now, *args, _kept, **kwargs):\n"
        "        def inner():\n"
        "            return now\n"
        "        return inner, kwargs\n"
        "    @classmethod\n"
        "    def make(cls, size):\n"
        "        return [cls() for _ in range(size)]\n"
        "def parse(_p):\n"
        "    return 0\n"
        "f = lambda x, y: x\n"
    )
    assert unused_parameters(source) == ["line 2: m(tick)", "line 2: m(args)", "line 11: lambda(y)"]


PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _assigned_to(target: ast.expr):
    """The ``self.x`` attribute names a plain or augmented assignment target binds."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_to(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned_to(target.value)
    elif (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        yield target.attr


def stored_attributes(source: str) -> dict[str, int]:
    """Attribute name -> first line, for each ``self.x = ...``,
    ``object.__setattr__(self, "x", ...)`` and dataclass field."""
    stored = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            names = [name for target in node.targets for name in _assigned_to(target)]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names = list(_assigned_to(node.target))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and getattr(node.func.value, "id", None) == "object"
            and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
        ):
            names = [node.args[1].value]
        else:
            names = []
        for name in names:
            stored.setdefault(name, node.lineno)
        if isinstance(node, ast.ClassDef) and any(
            _is_dataclass_decorator(d) for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    stored.setdefault(stmt.target.id, stmt.lineno)
    return stored


def read_attributes(source: str) -> set[str]:
    """Every attribute name the source loads (``x.name``), augmented assignments excluded."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_attributes(stored_in: str, read_in: list[str]) -> list[str]:
    read = set().union(*(read_attributes(source) for source in read_in))
    return [
        f"line {line}: {name}"
        for name, line in stored_attributes(stored_in).items()
        if name not in read
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_stores_no_attribute_that_nothing_reads(path):
    # read anywhere in the package or the benchmark: an attribute one module
    # stores is often read by another
    readers = [p.read_text(encoding="utf-8") for p in MODULES + sorted(PERFBENCH.rglob("*.py"))]
    assert unread_attributes(path.read_text(encoding="utf-8"), readers) == []


def test_attribute_checker_flags_unread_and_accepts_every_kind_of_read():
    source = (
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Msg:\n"
        "    frame: int\n"
        "    stamp: float\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'cov', 0)\n"
        "@dataclasses.dataclass\n"
        "class Rec:\n"
        "    kept: int\n"
        "class Guard:\n"
        "    def __init__(self):\n"
        "        self.dropped = 0\n"
        "        self.seen, (self.left, *self.rest) = 0, (1, 2)\n"
        "        self.table = {}\n"
        "        self.total = 0\n"
        "    def accept(self, m):\n"
        "        self.dropped += 1\n"
        "        self.table[m.frame] = self.seen\n"
        "        self.total += 1\n"
        "        return self.total, self.left\n"
        "other.stamp = 1\n"
    )
    reader = "def use(rec, msg):\n    return rec.kept, msg.cov\n"
    assert unread_attributes(source, [source, reader]) == [
        "line 6: stamp", "line 14: dropped", "line 15: rest",
    ]


def test_package_modules_found():
    assert PACKAGE / "swarm" / "nodes.py" in MODULES


# test oracles (jsonschema, scipy) and the stdlib network stack, which
# xml.sax pulls in: a run uses none of them, and each adds to its start-up;
# concurrent.futures serves threaded runs only, which import it themselves,
# and markerswarm.svgplot serves ``plot`` only, which imports it itself;
# a mailbox is a plain list, so no locked queue is loaded either
NOT_AT_STARTUP = ("jsonschema", "referencing", "scipy", "ssl", "http.client", "email",
                  "urllib.request", "xml.sax", "concurrent.futures", "markerswarm.svgplot",
                  "queue")


def test_cli_import_loads_no_oracle_or_network_module():
    code = "import sys, markerswarm.cli; print(sorted(sys.modules))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout)
    assert [name for name in NOT_AT_STARTUP if name in loaded] == []


def defined_functions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of each function and method a module defines, dunders excluded."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((f"{prefix}{child.name}", child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def name_reads(tree: ast.Module) -> list[tuple[str, set[int]]]:
    """Each name or attribute the module loads, with the ids of the functions enclosing it."""
    reads = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return reads


def unread_functions(sources: list[str]) -> list[str]:
    """Functions and methods whose name no code reads outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    reads = [read for tree in trees for read in name_reads(tree)]
    return sorted(
        qualified
        for tree in trees
        for qualified, node in defined_functions(tree)
        if not any(name == node.name and id(node) not in enclosing for name, enclosing in reads)
    )


# perfbench/child.py counts its calls; it goes together with that harness
FUNCTIONS_READ_ONLY_BY_THE_BENCHMARK = {"QueueTransport.recv_line"}


def test_every_function_in_the_package_is_read_in_the_package():
    unread = unread_functions([path.read_text(encoding="utf-8") for path in MODULES])
    assert sorted(set(unread) - FUNCTIONS_READ_ONLY_BY_THE_BENCHMARK) == []
    assert FUNCTIONS_READ_ONLY_BY_THE_BENCHMARK <= set(unread)


def test_function_checker_flags_unread_and_accepts_every_kind_of_read():
    source = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def orphan():\n"
        "    return used()\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.go = self.method\n"
        "    def method(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def never(self):\n"
        "        return self.never()\n"
        "print(C().size)\n"
    )
    assert unread_functions([source]) == ["C.never", "orphan", "recursive"]
