"""Contract rules CON001 and CON003: protocol obligations, statically.

The delta kernel relies on a duck-typed protocol whose omissions fail
silently: a transformation without a ``footprint()`` falls back to
full rescheduling (correct but quietly slow -- or wrong once
footprints gate cache keys).  CON001 makes that obligation a
compile-time error; CON003 keeps I/O out of the hot paths.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.config import LintConfig
from repro.lint.engine import ModuleInfo, Project, Rule
from repro.lint.findings import Finding

_IO_BUILTINS = {"print", "open", "input", "breakpoint"}


def _method_names(node: ast.ClassDef) -> Set[str]:
    return {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _is_protocol(node: ast.ClassDef) -> bool:
    for base in node.bases:
        target = base.value if isinstance(base, ast.Subscript) else base
        if isinstance(target, ast.Name) and target.id == "Protocol":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "Protocol":
            return True
    return False


class TransformationFootprintRule(Rule):
    """CON001: every concrete transformation declares its footprint."""

    id = "CON001"
    description = (
        "transformation class without a footprint() override: the "
        "delta kernel cannot bound its dirty set"
    )
    hint = (
        "implement footprint(design) returning the MoveFootprint "
        "dirty sets (see core.transformations)"
    )

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not config.is_kernel(module.layer):
            return
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        union_members = self._transformation_union(module)
        for name in union_members:
            node = classes.get(name)
            if node is None:
                continue
            missing = {"footprint", "apply", "describe"} - _method_names(
                node
            )
            if missing:
                yield module.finding(
                    self,
                    node,
                    f"`{name}` is a Transformation union member but "
                    f"lacks {', '.join(sorted(missing))}()",
                )
        for name, node in classes.items():
            if name in union_members or _is_protocol(node):
                continue
            methods = _method_names(node)
            if {"apply", "describe"} <= methods and "footprint" not in (
                methods
            ):
                yield module.finding(
                    self,
                    node,
                    f"`{name}` looks like a transformation (has "
                    "apply/describe) but declares no footprint(); the "
                    "delta kernel would have to assume everything is "
                    "dirty",
                )

    @staticmethod
    def _transformation_union(module: ModuleInfo) -> List[str]:
        """Class names in a ``Transformation = Union[...]`` alias."""
        members: List[str] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Name)
                and target.id == "Transformation"
            ):
                continue
            value = node.value
            if isinstance(value, ast.Subscript):
                head = value.value
                is_union = (
                    isinstance(head, ast.Name) and head.id == "Union"
                ) or (
                    isinstance(head, ast.Attribute)
                    and head.attr == "Union"
                )
                if is_union:
                    elts = (
                        value.slice.elts
                        if isinstance(value.slice, ast.Tuple)
                        else [value.slice]
                    )
                    members.extend(
                        elt.id
                        for elt in elts
                        if isinstance(elt, ast.Name)
                    )
        return members


class HotPathIORule(Rule):
    """CON003: no I/O inside scheduling/delta hot paths."""

    id = "CON003"
    description = (
        "print/open/logging inside a scheduling or delta-resume hot "
        "path"
    )
    hint = (
        "return the datum and report it at the experiments boundary; "
        "hot paths run millions of times per race"
    )

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not config.is_kernel(module.layer):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in config.hot_paths:
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                offender = self._io_call(module, inner)
                if offender is not None:
                    yield module.finding(
                        self,
                        inner,
                        f"`{offender}` inside hot path "
                        f"`{node.name}`",
                    )

    @staticmethod
    def _io_call(module: ModuleInfo, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _IO_BUILTINS:
            return func.id
        full = module.resolve(func)
        if full is not None:
            if full.startswith("logging.") or full.startswith("sys.std"):
                return full
        return None


CONTRACT_RULES = (
    TransformationFootprintRule,
    HotPathIORule,
)

__all__ = ["CONTRACT_RULES"]
