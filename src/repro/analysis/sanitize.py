"""The RPS rules of ``repro-lint``: whole-package determinism-taint
analysis.

The repo's headline guarantee — bit-identical results across
``--jobs`` settings, replay paths, checkpoint resume and cache replay —
is only as strong as the code that computes keys, evolves simulation
state and writes journals.  The RPL rules (:mod:`repro.analysis.lint`)
check single-node AST patterns file by file; this module checks
*dataflow*: it builds a module-level call graph over the ``repro``
package and tracks how nondeterminism sources flow through it.

The rules (RPS1xx):

* **RPS101** — directory listings (``iterdir``/``glob``/``rglob``/
  ``scandir``/``os.listdir``/``os.walk``) must be wrapped in
  ``sorted()`` or consumed by an order-insensitive reducer
  (``sum``/``len``/``set``/``min``/``max``/``any``/``all``).
  Filesystem order is arbitrary; iterating it unsorted makes replay
  output, sweep order and digests depend on the inode layout of the
  machine that ran the job.
* **RPS102** — wall-clock reads (``time.time``/``monotonic``/
  ``perf_counter``/``datetime.now`` …) must not *reach a
  determinism-critical sink* through the call graph.  Sinks are the
  functions that define result identity and payloads: simulation
  state evolution, result-cache key computation, journal records and
  metrics snapshots (:data:`DETERMINISM_SINKS`).  The manifest/timing
  modules that legitimately read clocks are allowlisted
  (:data:`repro.analysis.runtime.CLOCK_ALLOWED`, shared with the
  runtime guard) and act as propagation barriers.
* **RPS103** — unseeded randomness (module-level ``random.*``
  functions, ``uuid.uuid1``/``uuid4``, ``os.urandom``,
  ``secrets.*``) is forbidden anywhere in the package; every RNG in
  this repo must be a seeded ``random.Random(seed)``.
* **RPS104** — iterating a set (display, comprehension,
  ``set()``/``frozenset()`` call, or a local assigned from one) leaks
  ``PYTHONHASHSEED``-dependent order; wrap the iterable in
  ``sorted()``.
* **RPS105** — the builtin ``hash()`` is salted per process for
  ``str``/``bytes``; anything content-keyed must use :mod:`hashlib`
  instead.

The driver (:mod:`repro.analysis.driver`) parses the files and calls
:func:`check_package`; its ``# rps: ignore[...]`` pragmas and
fingerprint baseline cover these rules and the RPL rules alike.

The runtime companion, :class:`~repro.analysis.runtime.DeterminismGuard`
(:mod:`repro.analysis.runtime`), covers what static analysis cannot:
it patches the nondeterminism sources to raise during tier-1 runs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding, module_key
from .runtime import CLOCK_ALLOWED

#: Rule id -> one-line summary (``repro-lint --list-rules``).
RULES: dict[str, str] = {
    "RPS000": "file must parse",
    "RPS101": "directory listings must be sorted or consumed "
    "order-insensitively",
    "RPS102": "wall-clock reads must not reach determinism-critical sinks",
    "RPS103": "unseeded randomness is forbidden in package code",
    "RPS104": "set iteration order must not escape; wrap in sorted()",
    "RPS105": "builtin hash() is PYTHONHASHSEED-salted; use hashlib",
}

# ---------------------------------------------------------------- catalogues

#: Wall-clock sources (RPS102 taint roots).
WALL_CLOCK_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Unseeded randomness sources (RPS103): the module-level ``random``
#: functions draw from the hidden process-global ``Random`` instance.
RANDOM_SOURCES = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.randbytes",
        "random.getrandbits",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.choice",
    }
)

#: Directory-listing calls whose order is filesystem-dependent.
FS_ORDER_EXT = frozenset({"os.listdir", "os.scandir", "os.walk"})
FS_ORDER_ATTRS = frozenset({"iterdir", "glob", "rglob", "scandir"})

#: Wrapping any of these around a listing makes its order irrelevant.
ORDER_ACCEPTORS = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)

#: Determinism-critical sinks (RPS102): module key -> qualnames whose
#: call-graph closure must be wall-clock-free.  These functions define
#: what a result *is*: the simulation state machine, the cache keys
#: naming results on disk, the journal records ``--resume`` trusts,
#: and the metrics snapshots asserted byte-identical across runners.
DETERMINISM_SINKS: dict[str, frozenset[str]] = {
    "repro/experiments/base.py": frozenset({"simulation_key", "disk_key"}),
    "repro/runner/disk_cache.py": frozenset({"key_digest", "schema_hash"}),
    "repro/runner/planner.py": frozenset({"SimJob.key"}),
    "repro/runner/supervisor.py": frozenset({"Supervisor._journal_entry"}),
    "repro/system/multiprocessor.py": frozenset(
        {"Multiprocessor.run", "Multiprocessor._run_fast"}
    ),
    "repro/hierarchy/twolevel.py": frozenset({"TwoLevelHierarchy.access"}),
    "repro/obs/metrics.py": frozenset({"MetricsRegistry.snapshot"}),
}


# ------------------------------------------------------------- module model


def in_package(path: str) -> bool:
    """Is *path* a module of the ``repro`` package, the RPS rules'
    scope?  (Tests and benchmarks are not.)"""
    key = module_key(path)
    return key.startswith("repro/") and key.endswith(".py")


def _dotted_name(key: str) -> str:
    """Module key -> dotted module name (``repro/obs/__init__.py`` ->
    ``repro.obs``)."""
    parts = list(Path(key).parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1].removesuffix(".py")
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method in the call graph."""

    module: "ModuleInfo"
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Resolved call sites: ``("int", "repro/x.py::f", line, col)``,
    #: ``("ext", "time.time", line, col)`` or ``("attr", name, ...)``.
    calls: list[tuple[str, str, int, int]] = field(default_factory=list)

    @property
    def ref(self) -> str:
        return f"{self.module.key}::{self.qualname}"


@dataclass
class ModuleInfo:
    """One parsed module plus its symbol tables."""

    key: str
    path: str
    dotted: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, set[str]] = field(default_factory=dict)


def _collect_imports(module: ModuleInfo) -> None:
    package = module.dotted
    if not module.key.endswith("__init__.py"):
        package = package.rpartition(".")[0]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                module.imports[name] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".") if package else []
                if node.level > 1:
                    parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts)
            else:
                base = ""
            source = node.module or ""
            prefix = ".".join(p for p in (base, source) if p)
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                module.imports[name] = (
                    f"{prefix}.{alias.name}" if prefix else alias.name
                )


def _collect_functions(module: ModuleInfo) -> None:
    """Register every def with its qualified name (one class level)."""

    def visit(node: ast.AST, class_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{class_name}.{child.name}" if class_name else child.name
                module.functions[qual] = FunctionInfo(module, qual, child)
                if class_name:
                    module.classes.setdefault(class_name, set()).add(child.name)
            elif isinstance(child, ast.ClassDef) and class_name is None:
                module.classes.setdefault(child.name, set())
                visit(child, child.name)


    visit(module.tree, None)


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``datetime.datetime.now`` -> ["datetime", "datetime", "now"];
    None when the chain does not bottom out at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class Repo:
    """All analysed modules, with cross-module symbol resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self._by_dotted: dict[str, ModuleInfo] = {}

    def add(self, module: ModuleInfo) -> None:
        self.modules[module.key] = module
        self._by_dotted[module.dotted] = module

    def lookup(self, dotted: str, depth: int = 0) -> FunctionInfo | None:
        """Resolve a dotted name to a repo function, following one
        re-export hop per recursion step (``repro.obs.RunManifest``
        via ``repro/obs/__init__.py``'s ``from .manifest import ...``)."""
        if depth > 4:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self._by_dotted.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = ".".join(parts[cut:])
            found = module.functions.get(rest)
            if found is not None:
                return found
            head = parts[cut]
            if head in module.classes:
                init = module.functions.get(f"{head}.__init__")
                if len(parts) - cut == 1:
                    return init
                method = module.functions.get(rest)
                return method
            if head in module.imports:
                tail = ".".join(parts[cut + 1 :])
                target = module.imports[head]
                return self.lookup(
                    f"{target}.{tail}" if tail else target, depth + 1
                )
            return None
        return None

    def resolve_call(
        self, module: ModuleInfo, class_ctx: str | None, func: ast.expr
    ) -> tuple[str, str] | None:
        """Classify one call target as ``("int", ref)``, ``("ext",
        dotted)`` or ``("attr", name)``."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in module.functions:
                return ("int", f"{module.key}::{name}")
            if name in module.classes:
                init = module.functions.get(f"{name}.__init__")
                if init is not None:
                    return ("int", f"{module.key}::{name}.__init__")
                return None
            if name in module.imports:
                dotted = module.imports[name]
                found = self.lookup(dotted)
                if found is not None:
                    return ("int", found.ref)
                return ("ext", dotted)
            return ("ext", name)  # builtins: open, hash, sorted, ...
        chain = _attr_chain(func)
        if chain is None:
            # A call on a computed expression; only the method name is
            # knowable.
            if isinstance(func, ast.Attribute):
                return ("attr", func.attr)
            return None
        root = chain[0]
        if root == "self" and class_ctx is not None and len(chain) == 2:
            if chain[1] in module.classes.get(class_ctx, set()):
                return ("int", f"{module.key}::{class_ctx}.{chain[1]}")
            return ("attr", chain[-1])
        if root in module.imports:
            dotted = ".".join([module.imports[root], *chain[1:]])
            found = self.lookup(dotted)
            if found is not None:
                return ("int", found.ref)
            return ("ext", dotted)
        return ("attr", chain[-1])

    def function(self, ref: str) -> FunctionInfo | None:
        key, _, qual = ref.partition("::")
        module = self.modules.get(key)
        return module.functions.get(qual) if module else None


def _collect_calls(repo: Repo, module: ModuleInfo) -> None:
    """Attribute every call site to its innermost registered function.

    Nested defs (closures) are not in the one-level symbol table;
    their bodies are analysed under the enclosing function, so a
    closure's clock calls still count against the
    function that owns (and presumably invokes) it.
    """

    def walk(node: ast.AST, class_ctx: str | None, func: FunctionInfo | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name if class_ctx is None else class_ctx, func)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{class_ctx}.{child.name}" if class_ctx else child.name
                inner = module.functions.get(qual)
                if inner is not None and inner.node is child:
                    walk(child, class_ctx, inner)
                else:
                    walk(child, class_ctx, func)
                continue
            if isinstance(child, ast.Call) and func is not None:
                resolved = repo.resolve_call(module, class_ctx, child.func)
                if resolved is not None:
                    kind, ident = resolved
                    func.calls.append(
                        (kind, ident, child.lineno, child.col_offset)
                    )
            walk(child, class_ctx, func)

    walk(module.tree, None, None)


# ----------------------------------------------------------------- taint


def _wall_clock_findings(repo: Repo) -> Iterator[Finding]:
    """RPS102: DFS from each sink over internal edges; report every
    wall-clock call site reachable without crossing an allowlisted
    barrier function."""
    for key, quals in DETERMINISM_SINKS.items():
        module = repo.modules.get(key)
        if module is None:
            continue
        for qual in sorted(quals):
            sink = module.functions.get(qual)
            if sink is None:
                continue
            yield from _taint_dfs(repo, sink, (sink.ref,), set())


def _taint_dfs(
    repo: Repo,
    func: FunctionInfo,
    chain: tuple[str, ...],
    visited: set[str],
) -> Iterator[Finding]:
    if func.ref in visited:
        return
    visited.add(func.ref)
    for kind, ident, line, col in func.calls:
        if kind == "ext" and ident in WALL_CLOCK_SOURCES:
            yield Finding(
                "RPS102",
                func.module.path,
                line,
                col,
                f'wall-clock read "{ident}" reaches determinism-critical '
                f'sink "{chain[0]}"',
                chain=chain[1:],
            )
        elif kind == "int":
            callee = repo.function(ident)
            if callee is None or ident.partition("::")[0] in CLOCK_ALLOWED:
                continue
            yield from _taint_dfs(repo, callee, chain + (ident,), visited)


# --------------------------------------------------------- syntactic rules


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _order_accepted(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> bool:
    """Is this listing wrapped (however deep, within its statement) in
    an order-insensitive consumer such as ``sorted(...)``?"""
    current = parents.get(node)
    while current is not None and isinstance(current, ast.expr):
        if isinstance(current, ast.Call):
            func = current.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name in ORDER_ACCEPTORS:
                return True
        current = parents.get(current)
    # comprehension nodes are not ast.expr; step over them.
    if isinstance(current, ast.comprehension):
        return _order_accepted(current, parents)
    return False


def _fs_order_findings(repo: Repo, module: ModuleInfo) -> Iterator[Finding]:
    """RPS101: unsorted directory listings."""
    parents = _parents(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = repo.resolve_call(module, None, node.func)
        listing: str | None = None
        if resolved is not None:
            kind, ident = resolved
            if kind == "ext" and ident in FS_ORDER_EXT:
                listing = ident
            elif kind == "attr" and ident in FS_ORDER_ATTRS:
                listing = f".{ident}()"
        if listing is None and isinstance(node.func, ast.Attribute) and (
            node.func.attr in FS_ORDER_ATTRS
        ):
            # ``Path(x).glob(...)``: the chain bottoms out at a call,
            # so resolve_call cannot classify it, but the method name
            # alone identifies the listing.
            listing = f".{node.func.attr}()"
        if listing is None or _order_accepted(node, parents):
            continue
        yield Finding(
            "RPS101",
            module.path,
            node.lineno,
            node.col_offset,
            f'directory listing "{listing}" iterated in filesystem order '
            "— wrap it in sorted() (or consume it order-insensitively)",
        )


def _random_findings(repo: Repo, module: ModuleInfo) -> Iterator[Finding]:
    """RPS103: unseeded randomness call sites."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = repo.resolve_call(module, None, node.func)
        if resolved is None:
            continue
        kind, ident = resolved
        if kind == "ext" and ident in RANDOM_SOURCES:
            yield Finding(
                "RPS103",
                module.path,
                node.lineno,
                node.col_offset,
                f'unseeded randomness "{ident}" — construct a seeded '
                "random.Random(seed) instead",
            )


def _setish(expr: ast.expr, local_sets: set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    return isinstance(expr, ast.Name) and expr.id in local_sets


def _set_iteration_findings(module: ModuleInfo) -> Iterator[Finding]:
    """RPS104: iteration over hash-ordered sets."""
    for func in module.functions.values():
        local_sets = {
            target.id
            for stmt in ast.walk(func.node)
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name) and _setish(stmt.value, set())
        }
        seen: set[int] = set()
        for node in ast.walk(func.node):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if id(it) in seen or not _setish(it, local_sets):
                    continue
                seen.add(id(it))
                yield Finding(
                    "RPS104",
                    module.path,
                    it.lineno,
                    it.col_offset,
                    "iteration over a set leaks PYTHONHASHSEED-dependent "
                    "order — iterate sorted(...) instead",
                )


def _hash_findings(module: ModuleInfo) -> Iterator[Finding]:
    """RPS105: builtin ``hash()`` calls."""
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            yield Finding(
                "RPS105",
                module.path,
                node.lineno,
                node.col_offset,
                "builtin hash() is salted per process for str/bytes "
                "(PYTHONHASHSEED) — use hashlib for anything keyed or "
                "persisted",
            )


# ------------------------------------------------------------------ entry


def build_repo(trees: Mapping[str, ast.Module]) -> Repo:
    """The call-graph model of the package modules among *trees*
    (path -> parsed module); anything else (tests, benchmarks) is
    ignored."""
    repo = Repo()
    for path, tree in sorted(trees.items()):
        if not in_package(path):
            continue
        key = module_key(path)
        module = ModuleInfo(key, path, _dotted_name(key), tree)
        _collect_imports(module)
        _collect_functions(module)
        repo.add(module)
    for module in repo.modules.values():
        _collect_calls(repo, module)
    return repo


def check_package(trees: Mapping[str, ast.Module]) -> list[Finding]:
    """Every RPS finding in the package modules among *trees*."""
    repo = build_repo(trees)
    findings = list(_wall_clock_findings(repo))
    for module in repo.modules.values():
        findings.extend(_fs_order_findings(repo, module))
        findings.extend(_random_findings(repo, module))
        findings.extend(_set_iteration_findings(module))
        findings.extend(_hash_findings(module))
    return findings
