"""Determinism rules DET001..DET006 (kernel layers only).

The byte-identity contract -- seeded runs identical across cache
on/off, delta on/off, both engine cores and any shard count -- survives
only if the kernel layers (``model``, ``tdma``, ``sched``, ``engine``,
``search``, ``core``) never consult ambient state.  Each rule below
bans one ambient channel at the source level.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.config import LintConfig
from repro.lint.engine import ModuleInfo, Project, Rule
from repro.lint.findings import Finding

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: numpy.random attributes that construct *explicitly seeded* streams
#: (legitimate even in kernels when the seed is threaded in).
_NP_RANDOM_CONSTRUCTORS = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Direct consumers whose result does not depend on iteration order.
_ORDER_INSENSITIVE_CONSUMERS = {
    "len",
    "sum",
    "any",
    "all",
    "set",
    "frozenset",
}

_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}


def _kernel_module(module: ModuleInfo, config: LintConfig) -> bool:
    return config.is_kernel(module.layer)


class WallClockRule(Rule):
    """DET001: no wall-clock reads outside declared timing boundaries."""

    id = "DET001"
    description = (
        "wall-clock read (time.time/perf_counter/datetime.now) in a "
        "kernel layer outside the timing-boundary allowlist"
    )
    hint = (
        "move the read to a timing boundary (SearchStats/"
        "runtime_seconds sites) or add the function to "
        "[tool.repro-lint] timing-allowlist"
    )

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not _kernel_module(module, config):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            full = module.resolve(node.func)
            if full not in _WALL_CLOCK:
                continue
            if module.in_type_checking(node):
                continue
            if config.timing_allowed(module.module, module.qualname(node)):
                continue
            yield module.finding(
                self,
                node,
                f"wall-clock read `{full}` in kernel layer "
                f"'{module.layer}': results must not depend on when "
                "they run",
            )


class GlobalRngRule(Rule):
    """DET002: no module-global RNG; only seeded generators."""

    id = "DET002"
    description = (
        "module-global RNG call (random.*, np.random.*) in a kernel "
        "layer; randomness must come from a seeded Generator/Random "
        "threaded as a parameter"
    )
    hint = (
        "accept an np.random.Generator parameter (see utils.rng."
        "make_rng) instead of drawing from the shared global stream"
    )

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not _kernel_module(module, config):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            full = module.resolve(node.func)
            if full is None or module.in_type_checking(node):
                continue
            message = self._violation(full, node)
            if message is not None:
                yield module.finding(self, node, message)

    @staticmethod
    def _violation(full: str, call: ast.Call) -> Optional[str]:
        seeded = bool(call.args or call.keywords)
        if full.startswith("numpy.random."):
            attr = full[len("numpy.random."):]
            if attr in _NP_RANDOM_CONSTRUCTORS:
                return None
            if attr in ("default_rng", "RandomState"):
                if seeded:
                    return None
                return (
                    f"`{full}()` without a seed draws entropy from the "
                    "OS; pass the seed (or an existing SeedSequence)"
                )
            if "." in attr:  # e.g. numpy.random.mtrand.*
                return None
            return (
                f"`{full}` uses numpy's module-global RNG; draw from a "
                "seeded np.random.Generator parameter instead"
            )
        if full.startswith("random."):
            attr = full[len("random."):]
            if attr == "Random":
                if seeded:
                    return None
                return (
                    "`random.Random()` without a seed is "
                    "time-dependent; pass the seed explicitly"
                )
            if attr == "SystemRandom":
                return "`random.SystemRandom` is OS entropy by design"
            if "." in attr:
                return None
            return (
                f"`{full}` uses the interpreter-global RNG; draw from "
                "a seeded generator threaded as a parameter instead"
            )
        return None


class _SetishInference:
    """Syntactic set-ness for one module.

    An expression is *set-ish* when it is a set literal/comprehension,
    a ``set()``/``frozenset()`` call, a set operator over set-ish or
    dict-view operands, a set-method call on a set-ish receiver, a
    local name bound to a set-ish expression, or an attribute whose
    receiver's annotated class declares the field as a set (the
    project-wide dataclass registry).
    """

    def __init__(self, module: ModuleInfo, project: Project):
        self.module = module
        self.project = project
        #: local/parameter name -> True (set-ish) per enclosing scope
        self.set_names: Dict[str, Set[str]] = {}
        #: parameter name -> annotated class name per enclosing scope
        self.param_classes: Dict[str, Dict[str, str]] = {}
        self._collect()

    def _collect(self) -> None:
        from repro.lint.engine import _annotation_is_set

        for node in ast.walk(self.module.tree):
            scope = self.module.qualname(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A def's qualname already includes its own name.
                fn_scope = scope
                for arg in [
                    *node.args.posonlyargs,
                    *node.args.args,
                    *node.args.kwonlyargs,
                ]:
                    if arg.annotation is None:
                        continue
                    if _annotation_is_set(arg.annotation):
                        self.set_names.setdefault(fn_scope, set()).add(
                            arg.arg
                        )
                    else:
                        cls = self._annotation_class(arg.annotation)
                        if cls is not None and self.project.class_fields.get(
                            cls
                        ):
                            self.param_classes.setdefault(fn_scope, {})[
                                arg.arg
                            ] = cls
            elif isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    if self.is_setish(node.value, scope):
                        self.set_names.setdefault(scope, set()).add(
                            node.targets[0].id
                        )
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _annotation_is_set(node.annotation):
                    self.set_names.setdefault(scope, set()).add(
                        node.target.id
                    )

    @staticmethod
    def _annotation_class(annotation: ast.expr) -> Optional[str]:
        if isinstance(annotation, ast.Name):
            return annotation.id
        if isinstance(annotation, ast.Attribute):
            return annotation.attr
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return annotation.value.split("[")[0].strip().rsplit(".", 1)[-1]
        return None

    # ------------------------------------------------------------------
    def is_setish(self, node: ast.expr, scope: str) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_setish(func.value, scope)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return (
                self.is_setish(node.left, scope)
                or self.is_setish(node.right, scope)
                or self._is_dict_view(node.left)
                or self._is_dict_view(node.right)
            )
        if isinstance(node, ast.Name):
            for candidate in self._scope_chain(scope):
                if node.id in self.set_names.get(candidate, ()):
                    return True
            return False
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            for candidate in self._scope_chain(scope):
                cls = self.param_classes.get(candidate, {}).get(
                    node.value.id
                )
                if cls is not None:
                    return node.attr in self.project.set_typed_fields(cls)
            return False
        return False

    @staticmethod
    def _is_dict_view(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values", "items")
            and not node.args
        )

    @staticmethod
    def _scope_chain(scope: str) -> List[str]:
        """``a.b.c`` -> [``a.b.c``, ``a.b``, ``a``, ````]."""
        chain = [scope]
        while scope:
            scope = scope.rpartition(".")[0]
            chain.append(scope)
        return chain


class UnorderedIterationRule(Rule):
    """DET003: unordered set iteration reaching an order-sensitive
    consumer must pass through ``sorted()`` first."""

    id = "DET003"
    description = (
        "iteration over a set/frozenset feeding an order-sensitive "
        "consumer (for-loop, list()/tuple(), join, keyed sort) "
        "without sorted()"
    )
    hint = (
        "wrap the iterable in sorted(...); if the consumption is "
        "provably order-insensitive, suppress with the proof as the "
        "reason"
    )

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not _kernel_module(module, config):
            return
        inference = _SetishInference(module, project)

        def setish(expr: ast.expr, at: ast.AST) -> bool:
            return inference.is_setish(expr, module.qualname(at))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and setish(node.iter, node):
                yield module.finding(
                    self,
                    node.iter,
                    "for-loop over an unordered set: iterate "
                    "sorted(...) or prove order-insensitivity",
                )
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if setish(gen.iter, node):
                        yield module.finding(
                            self,
                            gen.iter,
                            "list comprehension over an unordered set "
                            "captures PYTHONHASHSEED-dependent order",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, setish)

    def _check_call(self, module, node: ast.Call, setish) -> Iterator:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        first = node.args[0] if node.args else None
        if name in ("list", "tuple") and first is not None:
            if setish(first, node):
                yield module.finding(
                    self,
                    node,
                    f"{name}() over an unordered set captures "
                    "PYTHONHASHSEED-dependent order",
                )
        elif name in ("sorted", "min", "max") and first is not None:
            # sorted/min/max canonicalize -- unless a key function
            # makes ties resolve by encounter order.
            has_key = any(kw.arg == "key" for kw in node.keywords)
            if has_key and setish(first, node):
                yield module.finding(
                    self,
                    node,
                    f"{name}(..., key=...) over an unordered set: key "
                    "ties resolve in hash order; sort the set itself "
                    "first",
                )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and first is not None
        ):
            if setish(first, node):
                yield module.finding(
                    self,
                    node,
                    "join() over an unordered set produces "
                    "hash-order-dependent text",
                )


class HashBuiltinRule(Rule):
    """DET004: no ``hash()`` of interned values in kernel layers."""

    id = "DET004"
    description = (
        "hash() call in a kernel layer: str/bytes hashes vary with "
        "PYTHONHASHSEED from one process run to the next"
    )
    hint = (
        "derive signatures/ordering keys from the value itself (tuples,"
        " sorted items, hashlib) instead of hash()"
    )

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not _kernel_module(module, config):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield module.finding(
                    self,
                    node,
                    "hash() is salted per interpreter (PYTHONHASHSEED): "
                    "its value must never reach an ordering or "
                    "signature position",
                )


class AmbientStateRule(Rule):
    """DET005: no environment/OS-entropy/uuid reads in kernels."""

    id = "DET005"
    description = (
        "ambient-state read (os.environ/os.getenv/os.urandom/uuid) in "
        "a kernel layer"
    )
    hint = (
        "read configuration at the experiments/CLI boundary and pass "
        "it down as parameters"
    )

    _CALLS = {"os.getenv", "os.urandom", "os.getrandom"}

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not _kernel_module(module, config):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                full = module.resolve(node.func)
                if full in self._CALLS or (
                    full is not None and full.startswith("uuid.")
                ):
                    yield module.finding(
                        self,
                        node,
                        f"`{full}` reads ambient state: kernel results "
                        "must be a pure function of their inputs",
                    )
            elif isinstance(node, ast.Attribute):
                if module.resolve(node) == "os.environ":
                    yield module.finding(
                        self,
                        node,
                        "`os.environ` read in a kernel layer: pass "
                        "configuration down as parameters",
                    )


class FloatEqualityRule(Rule):
    """DET006: no float ``==``/``!=`` in scheduler/metric modules."""

    id = "DET006"
    description = (
        "float equality comparison in scheduler/metric code: "
        "accumulation order and platform rounding make == fragile"
    )
    hint = (
        "compare integers (the kernels are integer-time), use "
        "math.isclose at reporting boundaries, or suppress with a "
        "proof that both sides are exact copies"
    )

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        if not config.float_eq_applies(module.module):
            return
        float_params = self._float_params(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                continue
            scope = module.qualname(node)
            operands = [node.left, *node.comparators]
            if any(
                self._is_floatish(operand, scope, float_params)
                for operand in operands
            ):
                yield module.finding(
                    self,
                    node,
                    "float == / != comparison: exact equality is only "
                    "sound for bit-copied values",
                )

    @staticmethod
    def _float_params(module: ModuleInfo) -> Dict[str, Set[str]]:
        """Per-scope parameter names annotated ``float``."""
        out: Dict[str, Set[str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fn_scope = module.qualname(node)
            for arg in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]:
                ann = arg.annotation
                if (isinstance(ann, ast.Name) and ann.id == "float") or (
                    isinstance(ann, ast.Constant) and ann.value == "float"
                ):
                    out.setdefault(fn_scope, set()).add(arg.arg)
        return out

    @classmethod
    def _is_floatish(
        cls, node: ast.expr, scope: str, float_params: Dict[str, Set[str]]
    ) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return cls._is_floatish(node.operand, scope, float_params)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return cls._is_floatish(
                node.left, scope, float_params
            ) or cls._is_floatish(node.right, scope, float_params)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, float)
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            chain = scope
            while True:
                if node.id in float_params.get(chain, ()):
                    return True
                if not chain:
                    return False
                chain = chain.rpartition(".")[0]
        return False


DETERMINISM_RULES = (
    WallClockRule,
    GlobalRngRule,
    UnorderedIterationRule,
    HashBuiltinRule,
    AmbientStateRule,
    FloatEqualityRule,
)

__all__ = ["DETERMINISM_RULES"]
