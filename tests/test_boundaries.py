"""Trust boundaries: inputs are read and validated where they enter a run.

A run checks its inputs once: ``parse_scenario`` for the scenario file,
the protocol's ``_parse_*`` payload parsers and the ``from_dict``
constructors they call for every wire message. Values the run computes
itself are taken as given, so ``check_covariance`` (an eigendecomposition
per call) and ``check_float`` (a type check per number) stay out of
constructors and the per-tick filter, and no step, sensor, filter or map
method checks again what the scenario or a decoded line already checked.
A run reads JSON in three places only, each of which turns every failure
of the read (bad syntax, nesting past the recursion limit, an integer past
the digit limit) into its own refusal: ``protocol.decode`` (a malformed
line), ``scenario.load_scenario`` (``ScenarioError``) and ``cli.cmd_plot``
(a malformed report). This walks each module's syntax tree, like
``test_imports.py``, and fails on a use of either check outside those
functions, and on a JSON read outside those readers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "markerswarm"
MODULES = sorted(PACKAGE.rglob("*.py"))
CHECKS = ("check_covariance", "check_float")
JSON_READS = ("load", "loads", "JSONDecoder")  # of the json module
# (module, function) of each JSON reader
JSON_READERS = {("swarm/protocol.py", "decode"), ("scenario.py", "load_scenario"),
                ("cli.py", "cmd_plot")}


def module_id(path: Path) -> str:
    return path.relative_to(PACKAGE).as_posix()


def is_boundary(function: str) -> bool:
    return function in ("from_dict", "parse_scenario", *CHECKS) or function.startswith("_parse_")


def uses(tree: ast.AST, used) -> list[tuple[int, str]]:
    """(line, F) for each node that ``used`` accepts; F is its innermost
    enclosing function, or ``<module>``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if used(node):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


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

    def used(node):
        return (isinstance(node, ast.Name) and node.id in aliases) or (
            isinstance(node, ast.Attribute) and node.attr in CHECKS
        )

    return [f"line {line} in {function}" for line, function in uses(tree, used)
            if not is_boundary(function)]


def json_reads(source: str) -> list[tuple[int, str]]:
    """(line, F) for each JSON read: ``load``, ``loads`` or ``JSONDecoder``
    of the json module, also through ``import json as`` or ``from json import``."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names.update(a.asname or a.name for a in node.names if a.name in JSON_READS)

    def used(node):
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in JSON_READS
            and isinstance(node.value, ast.Name) and node.value.id in modules
        )

    return uses(tree, used)


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


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_json_read_only_in_readers(path):
    module = module_id(path)
    reads = json_reads(path.read_text(encoding="utf-8"))
    assert [f"line {line} in {function}" for line, function in reads
            if (module, function) not in JSON_READERS] == []


def test_each_reader_reads_json():
    found = {(module_id(path), function) for path in MODULES
             for _, function in json_reads(path.read_text(encoding="utf-8"))}
    assert found == JSON_READERS


def test_json_checker_flags_reads():
    source = (
        "import json\n"
        "import json as js\n"
        "from json import loads, load as read, dumps\n"
        "def cmd_plot(path):\n"
        "    return json.load(path)\n"
        "def decode(line):\n"
        "    return js.loads(line) or loads(line)\n"
        "def handle(handle):\n"
        "    text = json.dumps({}) + dumps([])\n"
        "    return read(handle), json.JSONDecoder().decode(text)\n"
        "DECODER = json.JSONDecoder()\n"
        "class Node:\n"
        "    def load(self, data):\n"
        "        return self.loads(data), data.load\n"
    )
    assert json_reads(source) == [
        (5, "cmd_plot"), (7, "decode"), (7, "decode"), (10, "handle"), (10, "handle"),
        (11, "<module>"),
    ]
