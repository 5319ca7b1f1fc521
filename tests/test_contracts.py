"""The static contracts no runtime test can see, checked in one AST pass.

Two conventions carry every paper number: generators are minted in one
place (the per-seed byte-identity of the Fig. 16 corpus rests on it),
and the Section 5.1 link budget keeps dBm, dB and mW apart by name.  A
third, the import-layer DAG, keeps the physics below the harnesses that
drive it.  :func:`check` parses each file once, walks it once, and
returns a sorted ``(rule, path, line)`` list:

* L001 -- no module imports a higher layer of :data:`LAYERS`.
  ``TYPE_CHECKING`` imports are exempt; lazy (function-level) imports
  count, since they are a runtime dependency however late they bind.
* L002 -- no cycle among module-level imports.  A lazy import is the
  sanctioned way to break one.
* L003 -- every ``repro`` subpackage belongs to a layer.
* T001 -- ``default_rng`` and ``RandomState`` are called only inside
  ``repro.determinism``; everything else uses ``resolve_rng``,
  ``spawn`` or ``derive``.
* U001 -- unit-suffixed parameters of ``repro`` functions are annotated
  numerically, and no call in any file passes a name in one unit into a
  keyword in another.
* U002 -- no bare ``float(<array parameter>)`` in ``repro/optics`` and
  ``repro/link``; the parameters of every enclosing function count.

One more contract needs the imported packages, not their source: no
object is listed in two packages' ``__all__``, so each public name
has one import path.

Module names root at the last ``repro`` directory below each given
path, so the fixture trees under ``tests/fixtures/program`` (each
embeds a ``repro/`` tree) scope exactly like ``src/repro``.  A file
that does not parse fails the test.  DESIGN.md §9 gives the rationale.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "program"

#: The import-layer DAG, bottom first.  A module may import its own
#: layer and any layer below it; the ``repro`` facade sits on top.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("foundation", ("constants", "determinism", "parallel",
                    "reporting")),
    ("device", ("geometry", "optics", "galvo", "vrh", "net",
                "stream")),
    ("pipeline", ("core", "link")),
    ("workload", ("motion", "plan", "analysis")),
    ("experiment", ("simulate", "baselines")),
    ("tooling", ("cli", "__main__")),
)
_HEIGHT = {member: height for height, (_, members) in enumerate(LAYERS)
           for member in members}

#: Unit suffixes, longest first so ``_dbm`` wins over ``_m``.
UNIT_SUFFIXES = ("_dbm", "_mrad", "_mm", "_mw", "_hz", "_db", "_m",
                 "_v", "_s")
#: Annotations that cannot hold a physical quantity (U001).
_NON_NUMERIC = frozenset({"str", "bool", "bytes", "dict", "Dict"})
#: The generator factories only ``repro.determinism`` may call (T001).
_MINTS = frozenset({"default_rng", "RandomState"})

Finding = Tuple[str, str, int]


def unit_suffix(name: str) -> Optional[str]:
    """The unit suffix of ``power_dbm``-style names; a bare ``s`` has none."""
    lowered = name.lower()
    for suffix in UNIT_SUFFIXES:
        if lowered.endswith(suffix) and len(lowered) > len(suffix):
            return suffix
    return None


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain rooted at a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def layer(module: str) -> Optional[int]:
    """The height of a ``repro`` module's layer, or None if unassigned."""
    if module == "repro":
        return len(LAYERS) - 1
    return _HEIGHT.get(module.split(".")[1])


class _FileVisitor(ast.NodeVisitor):
    """One walk of one file: its imports, and its T001/U findings."""

    def __init__(self, path: str, parts: Tuple[str, ...]) -> None:
        self.path = path
        names = list(parts)
        if names[-1] == "__init__.py":
            names.pop()
        else:
            names[-1] = names[-1][:-len(".py")]
        self.module = ".".join(names)
        self.package = self.module if parts[-1] == "__init__.py" \
            else self.module.rsplit(".", 1)[0]
        self.in_repro = parts[0] == "repro"
        self.in_u002_scope = self.in_repro and len(parts) > 2 and \
            parts[1] in ("optics", "link")
        #: (resolved target, imported module, line, lazy) per name.
        self.imports: List[Tuple[str, str, int, bool]] = []
        self.findings: List[Finding] = []
        #: Array parameters of each enclosing function; an import
        #: made while this is non-empty is lazy.
        self._arrays: List[Set[str]] = []
        self._type_checking = False

    def _find(self, rule: str, line: int) -> None:
        self.findings.append((rule, self.path, line))

    def visit_If(self, node: ast.If) -> None:
        if dotted(node.test) not in ("TYPE_CHECKING",
                                     "typing.TYPE_CHECKING"):
            self.generic_visit(node)
            return
        outer = self._type_checking
        self._type_checking = True
        for stmt in node.body:
            self.visit(stmt)
        self._type_checking = outer
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Import(self, node: ast.Import) -> None:
        if self._type_checking:
            return
        for alias in node.names:
            target = alias.name if alias.asname \
                else alias.name.split(".")[0]
            self.imports.append((target, alias.name, node.lineno,
                                 bool(self._arrays)))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._type_checking:
            return
        base = node.module or ""
        if node.level:
            anchor = self.package.split(".")
            drop = node.level - 1
            if drop >= len(anchor):
                return
            base = ".".join(anchor[:len(anchor) - drop]
                            + ([base] if base else []))
        for alias in node.names:
            self.imports.append((f"{base}.{alias.name}", base,
                                 node.lineno, bool(self._arrays)))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Decorators and defaults run in the enclosing scope.
        for expr in [*node.decorator_list, *node.args.defaults,
                     *node.args.kw_defaults]:
            if expr is not None:
                self.visit(expr)
        args = node.args
        arrays = set()
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotation = ast.unparse(arg.annotation) \
                if arg.annotation else None
            if annotation and ("ndarray" in annotation
                               or "Array" in annotation):
                arrays.add(arg.arg)
            if self.in_repro and unit_suffix(arg.arg) and \
                    (annotation is None or annotation in _NON_NUMERIC):
                self._find("U001", arg.lineno)
        outer = self._type_checking
        self._type_checking = False
        self._arrays.append(arrays)
        for stmt in node.body:
            self.visit(stmt)
        self._arrays.pop()
        self._type_checking = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = dotted(node.func) or ""
        if self.in_repro and self.module != "repro.determinism" and \
                func.rsplit(".", 1)[-1] in _MINTS and \
                func.split(".")[0] in ("np", "numpy", *_MINTS):
            self._find("T001", node.lineno)
        for keyword in node.keywords:
            expected = unit_suffix(keyword.arg or "")
            value = keyword.value
            if expected and isinstance(value, ast.Name) and \
                    unit_suffix(value.id) not in (None, expected):
                self._find("U001", value.lineno)
        args = [a for a in node.args if not isinstance(a, ast.Starred)]
        if self.in_u002_scope and func == "float" and len(args) == 1 \
                and isinstance(args[0], ast.Name) and \
                any(args[0].id in arrays for arrays in self._arrays):
            self._find("U002", node.lineno)
        self.generic_visit(node)


def _cycles(edges: Dict[str, Dict[str, int]]) -> Set[FrozenSet[str]]:
    """The strongly connected components of more than one module."""
    reach: Dict[str, Set[str]] = {}
    for start in edges:
        seen: Set[str] = set()
        todo = [start]
        while todo:
            for nxt in edges[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        reach[start] = seen
    return {frozenset(m for m in reach[start] if start in reach[m])
            for start in edges if start in reach[start]}


def check(paths: Sequence[Path]) -> List[Finding]:
    """Every contract violation under ``paths`` as (rule, path, line).

    A path is shown relative to the parent of the tree it was found
    in, e.g. ``repro/core/gma.py`` for a file under ``src/repro``.
    """
    files: Dict[str, _FileVisitor] = {}
    for tree in paths:
        tree = Path(tree)
        for path in sorted(tree.rglob("*.py")) if tree.is_dir() \
                else [tree]:
            shown = path.relative_to(tree.parent)
            parts = shown.parts
            if "repro" in parts:
                parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
            visitor = _FileVisitor(shown.as_posix(), parts)
            visitor.visit(ast.parse(path.read_text(encoding="utf-8"),
                                    str(path)))
            assert visitor.module not in files, \
                f"{path} and {files[visitor.module].path} are both " \
                f"module {visitor.module}"
            files[visitor.module] = visitor

    findings: List[Finding] = []
    edges: Dict[str, Dict[str, int]] = {}
    for module, visitor in files.items():
        findings += visitor.findings
        here = layer(module) if visitor.in_repro else None
        if visitor.in_repro and here is None:
            findings.append(("L003", visitor.path, 1))
        edges[module] = {}
        for target, imported, line, lazy in visitor.imports:
            if target not in files:
                target = imported
            if target not in files or not files[target].in_repro:
                continue
            there = layer(target)
            if here is not None and there is not None and there > here:
                findings.append(("L001", visitor.path, line))
            if not lazy and target != module:
                edges[module].setdefault(target, line)
    for cycle in _cycles(edges):
        anchor = min(cycle)
        first = min(line for target, line in edges[anchor].items()
                    if target in cycle)
        findings.append(("L002", files[anchor].path, first))
    return sorted(findings)


# ---------------------------------------------------------------------------
# The seeded fixture trees: each rule fires exactly where it should.
# ---------------------------------------------------------------------------

EXPECTED = {
    "layering": [
        ("L001", "layering/repro/geometry/__init__.py", 3),
        ("L002", "layering/repro/core/__init__.py", 3),
        ("L003", "layering/repro/experimental/__init__.py", 1),
    ],
    # determinism.py mints four times, and may.
    "rngflow": [("T001", "rngflow/repro/simulate/rig.py", 8)],
    # u001_tn.py and u002_tn.py are the true negatives.
    "units": [
        ("U001", "units/repro/core/u001_tp.py", 4),   # unannotated
        ("U001", "units/repro/core/u001_tp.py", 4),   # annotated str
        ("U001", "units/repro/core/u001_tp.py", 13),  # _db into _dbm
        ("U001", "units/repro/core/u001_tp.py", 13),  # _dbm into _db
        ("U002", "units/repro/optics/u002_tp.py", 6),
    ],
}


@pytest.mark.parametrize("tree", sorted(EXPECTED))
def test_fixture_tree_findings(tree):
    assert check([FIXTURES / tree]) == EXPECTED[tree]


def test_scope_rules(tmp_path):
    sources = {
        # The facade imports everything; it sits in the top layer.
        "repro/__init__.py": "from . import geometry, simulate\n",
        "repro/simulate/__init__.py": "def run():\n    return 1\n",
        "repro/geometry/__init__.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from ..simulate import run\n"
            "\n"
            "def late():\n"
            "    from ..simulate import run\n"   # L001: lazy counts
            "    return run()\n"),
        # A cycle broken by a lazy import is no L002.
        "repro/core/__init__.py": "from ..link import budget\n",
        "repro/link/__init__.py": (
            "import numpy as np\n"
            "\n"
            "def budget(power_mw: np.ndarray):\n"
            "    from ..core import budget as again\n"
            "    def total():\n"
            "        return float(power_mw)\n"  # U002: enclosing param
            "    return again, total\n"),
        # Outside repro/ only U001's keyword half applies.
        "bench_x.py": (
            "import numpy as np\n"
            "\n"
            "def launch(power_dbm, rng=np.random.default_rng(1)):\n"
            "    return launch(power_dbm=gain_db)\n"),
    }
    for name, source in sources.items():
        path = tmp_path / "tree" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    assert check([tmp_path / "tree"]) == [
        ("L001", "tree/repro/geometry/__init__.py", 6),
        ("U001", "tree/bench_x.py", 4),
        ("U002", "tree/repro/link/__init__.py", 6),
    ]


def test_unparsable_file_fails(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    with pytest.raises(SyntaxError):
        check([tmp_path])


# ---------------------------------------------------------------------------
# The repository itself holds every contract.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tree", ["src/repro", "benchmarks", "examples"])
def test_repository_holds_the_contracts(tree):
    assert check([ROOT / tree]) == []


def test_each_public_object_has_one_package():
    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg]
    homes: Dict[int, List[str]] = {}
    for package in packages:
        for name in package.__all__:
            obj = getattr(package, name)
            # A number's or a string's identity is an interpreter detail.
            if not isinstance(obj, (int, float, str)):
                homes.setdefault(id(obj), []).append(
                    f"{package.__name__}.{name}")
    assert [names for names in homes.values() if len(names) > 1] == []


@pytest.mark.skipif(importlib.util.find_spec("mypy") is None,
                    reason="mypy not installed in this environment")
def test_mypy_passes_on_typed_core():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file",
         str(ROOT / "pyproject.toml")],
        capture_output=True, text=True, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
