"""Trust boundaries: covariances and floats are validated where values enter a run.

A run checks its inputs once: ``parse_scenario`` for the scenario file,
the protocol's ``_parse_*`` payload parsers and the ``from_dict``
constructors they call for every wire message. Values the run computes
itself are taken as given, so ``check_covariance`` (an eigendecomposition
per call) and ``check_float`` (a type check per number) stay out of
constructors and the per-tick filter. This walks each module's syntax
tree, like ``test_imports.py``, and fails on a use of either outside
those functions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "markerswarm"
MODULES = sorted(PACKAGE.rglob("*.py"))
CHECKS = ("check_covariance", "check_float")


def is_boundary(function: str) -> bool:
    return function in ("from_dict", "parse_scenario", *CHECKS) or function.startswith("_parse_")


def check_uses(source: str) -> list[str]:
    """``line N in F`` for each use of a check outside a boundary function.

    A use is the name itself (also under an import alias) or an attribute
    of that name; F is the innermost enclosing function, or ``<module>``.
    """
    tree = ast.parse(source)
    aliases = set(CHECKS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            aliases.update(a.asname for a in node.names if a.name in CHECKS and a.asname)
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        used = (isinstance(node, ast.Name) and node.id in aliases) or (
            isinstance(node, ast.Attribute) and node.attr in CHECKS
        )
        if used and not is_boundary(function):
            found.append(f"line {node.lineno} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_covariance_checked_only_at_boundaries(path):
    assert check_uses(path.read_text(encoding="utf-8")) == []


def test_checker_flags_uses_outside_boundaries():
    source = (
        "from markerswarm.geom import check_covariance\n"
        "from markerswarm.geom import check_covariance as checked\n"
        "from markerswarm import geom\n"
        "check_covariance(None)\n"
        "class Entry:\n"
        "    def __post_init__(self):\n"
        "        check_covariance(self.cov)\n"
        "    @staticmethod\n"
        "    def from_dict(data):\n"
        "        return check_covariance(data)\n"
        "def _parse_entry(p):\n"
        "    return geom.check_covariance(p)\n"
        "def parse_scenario(raw):\n"
        "    return checked(raw)\n"
        "def update(state):\n"
        "    validate = geom.check_covariance\n"
        "    return checked(state.cov)\n"
        "def from_dict(data):\n"
        "    def inner(cov):\n"
        "        return check_covariance(cov)\n"
        "    return inner(data)\n"
        "from markerswarm.geom import check_float as number\n"
        "def predict(state):\n"
        "    return number(state.dt) + geom.check_float(state.t)\n"
        "def _parse_time(p):\n"
        "    return number(p)\n"
    )
    assert check_uses(source) == [
        "line 4 in <module>",
        "line 7 in __post_init__",
        "line 16 in update",
        "line 17 in update",
        "line 20 in inner",
        "line 24 in predict",
        "line 24 in predict",
    ]
