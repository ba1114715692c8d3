"""Every third-party import in ``src/repro`` is a declared dependency.

An import at module scope runs on ``import repro``, so its distribution
must be in ``[project] dependencies``; one inside a function runs only
when that function is called, and may come from an optional extra
instead (cffi, for the compiled pass).  ``TYPE_CHECKING`` blocks run
never and are skipped.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Import names whose distribution is named otherwise.
DISTRIBUTIONS = {"_cffi_backend": "cffi"}


def _table(text: str, name: str) -> str:
    """The body of TOML table ``[name]`` (comments stripped)."""
    match = re.search(
        rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S
    )
    assert match, f"pyproject.toml has no [{name}] table"
    return re.sub(r"#[^\n]*", "", match.group(1))


def _requirements(array: str) -> Set[str]:
    return {
        _normalise(re.match(r"[A-Za-z0-9_.-]+", req).group(0))
        for req in re.findall(r'"([^"]+)"', array)
    }


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def declared() -> Tuple[Set[str], Set[str]]:
    """The hard dependencies and the optional extras' distributions."""
    text = (ROOT / "pyproject.toml").read_text()
    project = _table(text, "project")
    hard = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)
    assert hard, "[project] declares no dependencies"
    extras = _table(text, "project.optional-dependencies")
    optional: Set[str] = set()
    for array in re.findall(r"=\s*\[(.*?)\]", extras, re.S):
        optional |= _requirements(array)
    return _requirements(hard.group(1)), optional


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(
    body: List[ast.stmt], module_level: bool = True
) -> Iterator[Tuple[str, bool, int]]:
    """``(top-level name, at module scope, line)`` of each absolute
    import that runs."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], module_level, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node.module.split(".")[0], module_level, node.lineno
        elif isinstance(node, ast.If) and _is_type_checking(node):
            yield from _imports(node.orelse, module_level)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield from _imports(node.body, False)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                block = getattr(node, field, None)
                if isinstance(block, list):
                    yield from _imports(
                        [s for s in block if isinstance(s, ast.AST)],
                        module_level,
                    )


def third_party_imports() -> Dict[str, List[Tuple[str, bool]]]:
    """Per distribution: ``(file:line, at module scope)`` of its imports."""
    found: Dict[str, List[Tuple[str, bool]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, module_level, line in _imports(tree.body):
            if name in sys.stdlib_module_names or name == "repro":
                continue
            where = f"{path.relative_to(ROOT)}:{line}"
            found.setdefault(
                _normalise(DISTRIBUTIONS.get(name, name)), []
            ).append((where, module_level))
    return found


def test_module_level_imports_are_hard_dependencies():
    hard, _ = declared()
    missing = {
        dist: [where for where, module_level in sites if module_level]
        for dist, sites in third_party_imports().items()
        if dist not in hard and any(level for _, level in sites)
    }
    assert missing == {}, f"undeclared hard dependencies: {missing}"


def test_every_third_party_import_is_declared():
    hard, optional = declared()
    missing = {
        dist: [where for where, _ in sites]
        for dist, sites in third_party_imports().items()
        if dist not in hard | optional
    }
    assert missing == {}, f"undeclared dependencies: {missing}"


def test_the_scan_sees_the_known_imports():
    found = third_party_imports()
    assert any(level for _, level in found["numpy"])
    assert any(level for _, level in found["networkx"])
    # The compiled pass's runtime backend, imported in a function.
    assert not any(level for _, level in found["cffi"])
