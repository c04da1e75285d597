"""The RPL rules of ``repro-lint``: per-file AST checks of this
repo's conventions.

The generic linters cannot know these conventions, so five rules
encode them directly:

* **RPL001** — every dotted metric-name string literal passed to a
  :class:`~repro.obs.metrics.MetricsRegistry` method (``inc``,
  ``value``, ``counter``, ``histogram``, ``timer``, ``total``) must
  exist in the canonical dotted namespace (the values of
  ``HIERARCHY_METRIC_NAMES`` / ``TLB_METRIC_NAMES`` plus the
  dynamically generated ``bus.*`` / ``misc.*`` families).  A typo in
  a metric name otherwise reads as a silent zero.
* **RPL002** — tracer emit sites must go through a pre-resolved
  category slot: the receiver must be an attribute or name starting
  with ``_tr`` (bound once at construction, ``None`` when the
  category is disabled) and the category argument must be a string
  literal from :data:`repro.obs.tracing.CATEGORIES`.
* **RPL003** — classes in modules reachable from the
  ``Multiprocessor._run_fast`` replay loop must declare
  ``__slots__`` (or be ``@dataclass(slots=True)``); a stray
  ``__dict__`` on a per-block object multiplies the simulator's
  footprint by the block count.
* **RPL004** — no dict display, dict/set comprehension or f-string
  inside the designated hot replay functions; these allocate per
  reference and belong outside the loop.
* **RPL005** — the SoA chunk loop (``repro.core.soa._walk``)
  must stay object-free per reference: **no attribute lookups at
  all** (every array, counter and bound method is hoisted into a
  local before the loop — an attribute read inside would re-introduce
  the per-reference ``CacheBlock``-style indirection the SoA core
  exists to remove) and no dict/list/set construction, comprehension
  or f-string.

Rules are scoped: RPL001/RPL002 skip ``tests/`` (tests construct
synthetic registries and tracers on purpose) and the defining modules
themselves; RPL003/RPL004 apply only to the hot-module allowlist;
RPL005 only to the chunk-loop function map.  The driver
(:mod:`repro.analysis.driver`) parses each file and calls
:func:`check_tree`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from .findings import Finding, module_key

#: Rule id -> one-line summary (``repro-lint --list-rules``).
RULES: dict[str, str] = {
    "RPL001": "dotted metric-name literals must exist in the "
    "MetricsRegistry namespace",
    "RPL002": "tracer emit sites must use a pre-resolved _tr* category "
    "slot and a literal category",
    "RPL003": "classes in hot modules must declare __slots__",
    "RPL004": "no dict/set/f-string allocation inside hot replay "
    "functions",
    "RPL005": "no attribute lookups or container construction inside "
    "the SoA chunk loop",
    "RPL000": "file must parse",
}

#: Registry methods whose string arguments are dotted metric names.
_METRIC_METHODS = frozenset(
    {"inc", "value", "counter", "histogram", "timer", "total"}
)

#: Metric families minted at runtime (``registry_from_result``).
_DYNAMIC_METRIC_PREFIXES = ("bus.", "misc.")

#: Modules whose classes sit on the ``_run_fast`` replay path.  Keys
#: are repo paths from the package root (see
#: :func:`~repro.analysis.findings.module_key`).
HOT_MODULES = frozenset(
    {
        "repro/cache/block.py",
        "repro/cache/replacement.py",
        "repro/cache/tagstore.py",
        "repro/cache/write_buffer.py",
        "repro/coherence/bus.py",
        "repro/coherence/messages.py",
        "repro/common/stats.py",
        "repro/core/soa.py",
        "repro/hierarchy/l1.py",
        "repro/hierarchy/rcache.py",
        "repro/hierarchy/stats.py",
        "repro/hierarchy/twolevel.py",
        "repro/mmu/tlb.py",
        "repro/system/multiprocessor.py",
    }
)

#: Per-reference functions where allocation is banned (RPL004).
HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "repro/cache/tagstore.py": frozenset({"access", "find"}),
    "repro/hierarchy/twolevel.py": frozenset({"access"}),
    "repro/mmu/tlb.py": frozenset({"translate"}),
    "repro/system/multiprocessor.py": frozenset({"_run_fast"}),
}

#: SoA chunk-loop functions held to the stricter RPL005 standard:
#: everything is pre-bound to locals, so *any* attribute lookup (let
#: alone a ``CacheBlock`` one) or container construction inside is a
#: per-reference allocation regression.
CHUNK_LOOP_FUNCTIONS: dict[str, frozenset[str]] = {
    "repro/core/soa.py": frozenset({"_walk"}),
}

#: Base classes that exempt a class from RPL003: their machinery is
#: incompatible with slots (enums, exceptions) or the class is an
#: interface declaration (Protocol, ABC).
_SLOTLESS_BASES = frozenset(
    {"ABC", "Enum", "Exception", "Flag", "IntEnum", "Protocol", "StrEnum"}
)


def known_metric_names() -> frozenset[str]:
    """The canonical dotted metric namespace (RPL001's universe)."""
    from ..obs.metrics import (
        COHERENCE_TO_L1_METRICS,
        HIERARCHY_METRIC_NAMES,
        SANITIZE_METRIC_NAMES,
        TLB_METRIC_NAMES,
    )

    return (
        frozenset(HIERARCHY_METRIC_NAMES.values())
        | frozenset(TLB_METRIC_NAMES.values())
        | frozenset(COHERENCE_TO_L1_METRICS)
        | frozenset(SANITIZE_METRIC_NAMES)
        | frozenset({"sim.refs", "wb.interval"})
    )


def tracer_categories() -> frozenset[str]:
    from ..obs.tracing import CATEGORIES

    return frozenset(CATEGORIES)


def _in_tests(path: str) -> bool:
    return "tests" in Path(path).parts


def _literal_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ---------------------------------------------------------------- RPL001


def _check_metric_names(
    tree: ast.AST, path: str, known: frozenset[str]
) -> Iterator[Finding]:
    key = module_key(path)
    if _in_tests(path) or key == "repro/obs/metrics.py":
        return
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_METHODS
        ):
            continue
        for arg in node.args:
            name = _literal_str(arg)
            if name is None or "." not in name:
                continue
            if name in known or name.startswith(_DYNAMIC_METRIC_PREFIXES):
                continue
            yield Finding(
                "RPL001",
                path,
                arg.lineno,
                arg.col_offset,
                f'unknown metric name "{name}" (not in the '
                "MetricsRegistry dotted namespace)",
            )
        for kw in node.keywords:
            if kw.arg != "prefix":
                continue
            prefix = _literal_str(kw.value)
            if prefix is None:
                continue
            if prefix.startswith(_DYNAMIC_METRIC_PREFIXES) or any(
                name.startswith(prefix) for name in known
            ):
                continue
            yield Finding(
                "RPL001",
                path,
                kw.value.lineno,
                kw.value.col_offset,
                f'metric prefix "{prefix}" matches no known metric name',
            )


# ---------------------------------------------------------------- RPL002


def _check_tracer_sites(
    tree: ast.AST, path: str, categories: frozenset[str]
) -> Iterator[Finding]:
    key = module_key(path)
    if (
        _in_tests(path)
        or not key.startswith("repro/")
        or key == "repro/obs/tracing.py"
    ):
        return
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Attribute):
            slot = receiver.attr
        elif isinstance(receiver, ast.Name):
            slot = receiver.id
        else:
            slot = None
        if slot is None or not slot.startswith("_tr"):
            yield Finding(
                "RPL002",
                path,
                node.lineno,
                node.col_offset,
                "emit receiver must be a pre-resolved tracer slot "
                '(attribute named "_tr*"), not '
                f'"{slot or ast.unparse(receiver)}"',
            )
        category = _literal_str(node.args[0]) if node.args else None
        if category is None:
            yield Finding(
                "RPL002",
                path,
                node.lineno,
                node.col_offset,
                "emit category must be a string literal",
            )
        elif category not in categories:
            yield Finding(
                "RPL002",
                path,
                node.args[0].lineno,
                node.args[0].col_offset,
                f'unknown trace category "{category}" (known: '
                f"{', '.join(sorted(categories))})",
            )


# ---------------------------------------------------------------- RPL003


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Subscript):  # Protocol[T], Generic[T]
        return _base_name(base.value)
    return None


def _slots_exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _base_name(base)
        if name is None:
            continue
        if name in _SLOTLESS_BASES or name.endswith(("Error", "Exception")):
            return True
    return False


def _dataclass_slots(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, (ast.Name, ast.Attribute))
        ):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else func.attr
        if name != "dataclass":
            continue
        for kw in decorator.keywords:
            if (
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(statement, ast.AnnAssign):
            target = statement.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _check_hot_slots(tree: ast.AST, path: str) -> Iterator[Finding]:
    if module_key(path) not in HOT_MODULES:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _slots_exempt(node) or _dataclass_slots(node):
            continue
        if _declares_slots(node):
            continue
        yield Finding(
            "RPL003",
            path,
            node.lineno,
            node.col_offset,
            f'hot-module class "{node.name}" must declare __slots__ '
            "(or be @dataclass(slots=True))",
        )


# ---------------------------------------------------------------- RPL004

_ALLOC_NODES = (ast.Dict, ast.DictComp, ast.SetComp, ast.JoinedStr)
_ALLOC_LABEL = {
    "Dict": "dict display",
    "DictComp": "dict comprehension",
    "SetComp": "set comprehension",
    "JoinedStr": "f-string",
}


def _alloc_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Outermost allocation nodes under *root* (an f-string's format
    spec is itself a JoinedStr — reporting it separately would double
    count)."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, _ALLOC_NODES):
            yield child
        else:
            yield from _alloc_nodes(child)


def _check_hot_allocations(tree: ast.AST, path: str) -> Iterator[Finding]:
    hot = HOT_FUNCTIONS.get(module_key(path))
    if not hot:
        return
    for node in ast.walk(tree):
        if not (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in hot
        ):
            continue
        for inner in _alloc_nodes(node):
            label = _ALLOC_LABEL[type(inner).__name__]
            yield Finding(
                "RPL004",
                path,
                inner.lineno,
                inner.col_offset,
                f"{label} allocates inside hot function "
                f'"{node.name}" — hoist it out of the replay loop',
            )


# ---------------------------------------------------------------- RPL005

_CHUNK_ALLOC_NODES = (
    ast.Dict,
    ast.DictComp,
    ast.Set,
    ast.SetComp,
    ast.List,
    ast.ListComp,
    ast.GeneratorExp,
    ast.JoinedStr,
)
_CHUNK_ALLOC_LABEL = {
    "Dict": "dict display",
    "DictComp": "dict comprehension",
    "Set": "set display",
    "SetComp": "set comprehension",
    "List": "list display",
    "ListComp": "list comprehension",
    "GeneratorExp": "generator expression",
    "JoinedStr": "f-string",
}


def _check_chunk_loop(tree: ast.AST, path: str) -> Iterator[Finding]:
    chunk = CHUNK_LOOP_FUNCTIONS.get(module_key(path))
    if not chunk:
        return
    for node in ast.walk(tree):
        if not (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in chunk
        ):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Attribute):
                yield Finding(
                    "RPL005",
                    path,
                    inner.lineno,
                    inner.col_offset,
                    f'attribute lookup ".{inner.attr}" inside the SoA '
                    f'chunk loop "{node.name}" — bind it to a local '
                    "before the loop (per-reference attribute access "
                    "re-introduces the object-model indirection)",
                )
            elif isinstance(inner, _CHUNK_ALLOC_NODES):
                label = _CHUNK_ALLOC_LABEL[type(inner).__name__]
                yield Finding(
                    "RPL005",
                    path,
                    inner.lineno,
                    inner.col_offset,
                    f'{label} inside the SoA chunk loop "{node.name}" '
                    "— allocates per reference; hoist it out",
                )


# ------------------------------------------------------------------ API


def check_tree(tree: ast.AST, path: str) -> list[Finding]:
    """Every RPL finding in one parsed file.

    ``path`` (as given, repo-relative or not) drives rule scoping:
    hot-module membership and the ``tests/`` exemption.
    """
    return [
        *_check_metric_names(tree, path, known_metric_names()),
        *_check_tracer_sites(tree, path, tracer_categories()),
        *_check_hot_slots(tree, path),
        *_check_hot_allocations(tree, path),
        *_check_chunk_loop(tree, path),
    ]
