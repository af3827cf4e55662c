"""The domain rule battery: REP001–REP004 and REP006.

Each rule encodes an invariant this codebase established in earlier PRs
but until now enforced only through docs and review:

* **REP001 wire-safety** — no executable serialization (``pickle``,
  ``marshal``) and no ``eval``/``exec``; the one justified use carries a
  reasoned suppression.
* **REP002 capability-guard** — capability-gated backend calls
  (``neighbors_of_batch``, concurrent-read prefetching) must be dominated
  by a ``supports_*`` probe, or live in a class that declares the
  capability.
* **REP003 obs-discipline** — no ad-hoc ``self.<counter> += 1`` or
  ``time.time()`` timing in ``learning/``/``database/``;
  counters and timings route through :mod:`repro.obs`.  Span names follow
  the documented dotted ``noun.verb`` grammar.
* **REP004 lock-order** — the static lock-acquisition graph must stay
  acyclic, and blocking calls (socket ``recv``, ``subprocess``, queue
  ``get`` without a timeout) may not run inside a held-lock region.
* **REP006 tests-are-packages** — every test directory is a package
  (``__init__.py`` present); duplicate basenames otherwise break pytest
  collection (the ROADMAP convention).

Rules take their allowlists as constructor arguments so tests can point
them at fixture trees; the defaults encode this repository's layout.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import Finding, ModuleContext, Rule

# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #


def _func_name(node: ast.Call) -> Optional[str]:
    """Simple name of the called function: ``f(...)`` or ``x.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_parts(node: ast.AST) -> List[str]:
    """``self.backend.neighbors_of_batch`` -> ``["self", "backend"]``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    parts.reverse()
    return parts


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Yield ``(function, enclosing_class)`` for every def in the module."""

    def walk(node: ast.AST, cls: Optional[ast.ClassDef]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from walk(child, cls)
            else:
                yield from walk(child, cls)

    return walk(tree, None)


# --------------------------------------------------------------------- #
# REP001 — wire safety
# --------------------------------------------------------------------- #


class WireSafetyRule(Rule):
    """No pickle/marshal imports and no eval/exec calls."""

    rule_id = "REP001"
    name = "wire-safety"
    description = "no pickle/marshal import or eval/exec call"

    BANNED_MODULES = ("pickle", "marshal")
    BANNED_BUILTINS = ("eval", "exec")

    def _excused_modules(self, ctx: ModuleContext) -> Set[str]:
        """Banned modules whose *import* carries a justified suppression.

        A reasoned ``# repro: noqa[REP001]`` on the import line excuses that
        module's call sites in the same file — one justification per module
        per file, instead of one per call, keeps the suppression budget
        meaningful while still flagging every unexcused use.
        """
        excused: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Import):
                continue
            suppression = ctx.suppressions.get(node.lineno)
            if (
                suppression is None
                or self.rule_id not in suppression.rule_ids
                or not suppression.reason
            ):
                continue
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in self.BANNED_MODULES:
                    excused.add(alias.asname or root)
        return excused

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        excused = self._excused_modules(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {root!r}: unpickling runs arbitrary "
                            "code",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self.BANNED_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {root!r}: unpickling runs arbitrary "
                        "code",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self.BANNED_MODULES
                    and func.value.id not in excused
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"call to {func.value.id}.{func.attr}() without a "
                        "reasoned suppression on its import",
                    )
                elif (
                    isinstance(func, ast.Name)
                    and func.id in self.BANNED_BUILTINS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"call to builtin {func.id}() — dynamic code "
                        "execution is banned codebase-wide",
                    )


# --------------------------------------------------------------------- #
# REP002 — capability guard
# --------------------------------------------------------------------- #


class CapabilityGuardRule(Rule):
    """Capability-gated backend calls need a dominating ``supports_*`` probe."""

    rule_id = "REP002"
    name = "capability-guard"
    description = (
        "capability-gated backend methods must be dominated by a "
        "supports_* check or declared by the enclosing class"
    )

    #: gated attribute-call -> required capability flag.  Only calls whose
    #: receiver chain ends at a backend (``self.backend.f()``, ``backend.f()``)
    #: are gated — the DatabaseInstance facade falls back internally.
    DEFAULT_GATED_METHODS = {
        "neighbors_of_batch": "supports_saturation_queries",
        "neighbors_of": "supports_saturation_queries",
    }
    #: gated constructor -> required capability flag (the prefetcher reads
    #: the instance concurrently with the caller).
    DEFAULT_GATED_CONSTRUCTORS = {
        "SaturationPrefetcher": "supports_concurrent_reads",
    }
    #: helper predicates that count as a probe of the capability.
    DEFAULT_GUARD_HELPERS = {
        "supports_saturation_queries": frozenset(),
        "supports_concurrent_reads": frozenset(
            {"backend_supports_prefetch", "_prefetch_enabled"}
        ),
    }
    #: unit tests drive gated objects directly against controlled doubles;
    #: the capability contract is a production-code discipline.
    DEFAULT_EXCLUDE = ("tests/",)

    def __init__(
        self,
        gated_methods: Optional[Dict[str, str]] = None,
        gated_constructors: Optional[Dict[str, str]] = None,
        guard_helpers: Optional[Dict[str, frozenset]] = None,
        exclude: Sequence[str] = DEFAULT_EXCLUDE,
    ):
        self.exclude = tuple(exclude)
        self.gated_methods = dict(
            self.DEFAULT_GATED_METHODS if gated_methods is None else gated_methods
        )
        self.gated_constructors = dict(
            self.DEFAULT_GATED_CONSTRUCTORS
            if gated_constructors is None
            else gated_constructors
        )
        self.guard_helpers = dict(
            self.DEFAULT_GUARD_HELPERS if guard_helpers is None else guard_helpers
        )

    def _class_declares(self, cls: Optional[ast.ClassDef], capability: str) -> bool:
        if cls is None:
            return False
        for stmt in cls.body:
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == capability:
                    return True
        return False

    def _guarded_before(
        self, func: ast.AST, line: int, capability: str
    ) -> bool:
        """A probe of ``capability`` occurs at or before ``line`` in ``func``.

        Domination is approximated lexically: any earlier mention of the
        capability attribute, its name as a string literal (the ``getattr``
        probe idiom), or a call to a registered guard helper counts.  The
        approximation is sound in practice because probes in this codebase
        always precede the gated call in source order.
        """
        helpers = self.guard_helpers.get(capability, frozenset())
        for node in ast.walk(func):
            node_line = getattr(node, "lineno", None)
            if node_line is None or node_line > line:
                continue
            if isinstance(node, ast.Attribute) and node.attr == capability:
                return True
            if isinstance(node, ast.Constant) and node.value == capability:
                return True
            if isinstance(node, ast.Call) and _func_name(node) in helpers:
                return True
        return False

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if any(part in ctx.display_path for part in self.exclude):
            return
        for func, cls in _iter_functions(ctx.tree):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                capability = self._capability_for(node)
                if capability is None:
                    continue
                if self._class_declares(cls, capability):
                    continue
                if self._guarded_before(func, node.lineno, capability):
                    continue
                name = _func_name(node)
                yield self.finding(
                    ctx,
                    node,
                    f"call to capability-gated {name}() is not dominated by "
                    f"a {capability} probe (and the enclosing class does not "
                    "declare the capability)",
                )

    def _capability_for(self, node: ast.Call) -> Optional[str]:
        name = _func_name(node)
        if name in self.gated_constructors and isinstance(node.func, ast.Name):
            return self.gated_constructors[name]
        if name in self.gated_methods and isinstance(node.func, ast.Attribute):
            receiver = _receiver_parts(node.func.value)
            if receiver and receiver[-1] == "backend":
                return self.gated_methods[name]
        return None


# --------------------------------------------------------------------- #
# REP003 — observability discipline
# --------------------------------------------------------------------- #


class ObsDisciplineRule(Rule):
    """Counters/timings route through repro.obs; span names follow the grammar."""

    rule_id = "REP003"
    name = "obs-discipline"
    description = (
        "no ad-hoc self.<counter> += 1 or time.time() in learning/"
        "database; span names follow the noun.verb grammar"
    )

    #: packages where the registry is mandatory (the obs module itself and
    #: the algorithmic layers that predate it are out of scope).
    DEFAULT_SCOPED_DIRS = (
        "repro/learning/",
        "repro/database/",
    )
    #: span-name grammar applies to all library code (not tests/benchmarks,
    #: which construct throwaway spans to exercise the tracer itself).
    DEFAULT_SPAN_SCOPE = ("repro/",)
    DEFAULT_SPAN_EXCLUDE = ("tests/", "benchmarks/")

    COUNTER_ATTR_RE = re.compile(
        r"(?:^|_)(count|counts|counter|counters|total|totals|hits|misses|"
        r"errors|retries|batches|requests|reloads|loads|evictions|conflicts|"
        r"coalesced)(?:_|$)"
    )
    SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
    SPAN_PREFIX_RE = re.compile(r"^([a-z][a-z0-9_]*\.)+$")

    def __init__(
        self,
        scoped_dirs: Sequence[str] = DEFAULT_SCOPED_DIRS,
        span_scope: Sequence[str] = DEFAULT_SPAN_SCOPE,
        span_exclude: Sequence[str] = DEFAULT_SPAN_EXCLUDE,
    ):
        self.scoped_dirs = tuple(scoped_dirs)
        self.span_scope = tuple(span_scope)
        self.span_exclude = tuple(span_exclude)

    def _in_scoped_dir(self, path: str) -> bool:
        return any(d in path for d in self.scoped_dirs)

    def _in_span_scope(self, path: str) -> bool:
        if any(e in path for e in self.span_exclude):
            return False
        return any(s in path for s in self.span_scope)

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        scoped = self._in_scoped_dir(ctx.display_path)
        span_scoped = self._in_span_scope(ctx.display_path)
        if not scoped and not span_scoped:
            return
        for node in ast.walk(ctx.tree):
            if scoped and isinstance(node, ast.AugAssign):
                target = node.target
                if (
                    isinstance(node.op, ast.Add)
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and self.COUNTER_ATTR_RE.search(target.attr.lower())
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"ad-hoc counter self.{target.attr} += ...; route "
                        "through a repro.obs registry Counter (keep a "
                        "read-only property shim if the attribute is public)",
                    )
            elif scoped and isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "time"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "time.time() delta timing; use a repro.obs Histogram "
                        "(or time.monotonic/perf_counter for local deltas)",
                    )
            if span_scoped and isinstance(node, ast.Call):
                yield from self._check_span_name(ctx, node)

    def _check_span_name(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        name = _func_name(node)
        if name not in ("span", "obs_span"):
            return
        if not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if not self.SPAN_NAME_RE.match(first.value):
                yield self.finding(
                    ctx,
                    node,
                    f"span name {first.value!r} does not match the documented "
                    "noun.verb grammar (lowercase dotted segments, >= 2)",
                )
        elif isinstance(first, ast.JoinedStr) and first.values:
            head = first.values[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                if not self.SPAN_PREFIX_RE.match(head.value):
                    yield self.finding(
                        ctx,
                        node,
                        f"dynamic span name prefix {head.value!r} does not "
                        "match the noun.verb grammar (expected 'noun.')",
                    )
            else:
                yield self.finding(
                    ctx,
                    node,
                    "dynamic span name has no literal 'noun.' prefix; span "
                    "families must be greppable by their leading segment",
                )


# --------------------------------------------------------------------- #
# REP004 — lock order
# --------------------------------------------------------------------- #

_LOCKISH_RE = re.compile(r"lock|mutex", re.IGNORECASE)

_BLOCKING_ATTRS = ("recv", "recv_bytes", "accept")


class LockOrderRule(Rule):
    """Cycles in the static lock graph; blocking calls under a held lock."""

    rule_id = "REP004"
    name = "lock-order"
    description = (
        "the static lock-acquisition graph must be acyclic, and blocking "
        "calls (socket recv, subprocess, queue.get without timeout) may "
        "not run while a lock is held"
    )

    def __init__(self) -> None:
        # lock -> {inner lock -> first (path, line) site that created the edge}
        self._edges: Dict[str, Dict[str, Tuple[str, int]]] = {}

    # -- lock identity -------------------------------------------------- #

    def _lock_id(
        self, node: ast.AST, cls: Optional[ast.ClassDef]
    ) -> Optional[str]:
        """Canonical name for a lock expression, or None if not lockish.

        ``self._lock`` inside ``class C`` becomes ``C._lock`` (stable across
        files); other receivers collapse to ``~.attr`` — distinct attribute
        names stay distinct, unknown owners share a wildcard.
        """
        if isinstance(node, ast.Attribute) and _LOCKISH_RE.search(node.attr):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self" and cls is not None:
                return f"{cls.name}.{node.attr}"
            return f"~.{node.attr}"
        if isinstance(node, ast.Name) and _LOCKISH_RE.search(node.id):
            return node.id
        if isinstance(node, ast.Call):
            # `with self._locked(...):` — a lockish helper used as a context
            # manager acquires whatever it wraps; treat the helper itself as
            # the lock identity.
            name = _func_name(node)
            if name is not None and _LOCKISH_RE.search(name):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and cls is not None
                ):
                    return f"{cls.name}.{name}"
                return f"~.{name}"
        return None

    # -- per-function scan ---------------------------------------------- #

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func, cls in _iter_functions(ctx.tree):
            yield from self._scan_block(ctx, cls, list(ast.iter_child_nodes(func)), [])

    def _scan_block(
        self,
        ctx: ModuleContext,
        cls: Optional[ast.ClassDef],
        nodes: Sequence[ast.AST],
        held: List[str],
    ) -> Iterator[Finding]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs are scanned as their own functions
            if isinstance(node, ast.With):
                acquired = []
                for item in node.items:
                    lock = self._lock_id(item.context_expr, cls)
                    if lock is not None:
                        self._note_acquisition(ctx, node, held + acquired, lock)
                        acquired.append(lock)
                yield from self._scan_block(ctx, cls, node.body, held + acquired)
                continue
            # `.acquire()` outside a with-statement: held for the remainder
            # of the enclosing block (release tracking is out of scope for
            # a static pass; FairLock/RLock use the with form everywhere).
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "acquire"
            ):
                lock = self._lock_id(node.value.func.value, cls)
                if lock is not None:
                    self._note_acquisition(ctx, node, held, lock)
                    held = held + [lock]
                continue
            if held:
                yield from self._check_blocking(ctx, node, held)
            for child in ast.iter_child_nodes(node):
                yield from self._scan_block(ctx, cls, [child], held)

    def _note_acquisition(
        self, ctx: ModuleContext, node: ast.AST, held: Sequence[str], lock: str
    ) -> None:
        for outer in held:
            if outer == lock:
                continue
            sites = self._edges.setdefault(outer, {})
            sites.setdefault(lock, (ctx.display_path, getattr(node, "lineno", 1)))

    def _check_blocking(
        self, ctx: ModuleContext, node: ast.AST, held: Sequence[str]
    ) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        held_desc = ", ".join(held)
        if isinstance(func, ast.Attribute):
            if func.attr in _BLOCKING_ATTRS:
                yield self.finding(
                    ctx,
                    node,
                    f"blocking .{func.attr}() inside a held-lock region "
                    f"({held_desc}); a hung peer freezes every thread "
                    "queued on the lock",
                )
            elif (
                func.attr == "get"
                and isinstance(func.value, (ast.Name, ast.Attribute))
                and "queue" in (_receiver_parts(func.value) or [""])[-1].lower()
                # dict.get(key) always passes the key positionally; a
                # blocking queue.Queue.get() takes no positional args.
                and not node.args
                and not any(kw.arg == "timeout" for kw in node.keywords)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "queue .get() without timeout inside a held-lock region "
                    f"({held_desc})",
                )
            elif (
                isinstance(func.value, ast.Name)
                and func.value.id == "subprocess"
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"subprocess.{func.attr}() inside a held-lock region "
                    f"({held_desc}); process spawn/wait can block "
                    "indefinitely",
                )

    # -- whole-run cycle detection -------------------------------------- #

    def finalize(self, modules: Sequence[ModuleContext]) -> Iterator[Finding]:
        reported: Set[Tuple[str, ...]] = set()
        for start in sorted(self._edges):
            cycle = self._find_cycle(start)
            if cycle is None:
                continue
            canonical = self._canonical(cycle)
            if canonical in reported:
                continue
            reported.add(canonical)
            first_hop = self._edges[cycle[0]][cycle[1]]
            yield Finding(
                rule=self.rule_id,
                path=first_hop[0],
                line=first_hop[1],
                message=(
                    "lock-acquisition cycle: "
                    + " -> ".join([*cycle, cycle[0]])
                    + " (acquisition order must form a DAG)"
                ),
            )
        self._edges = {}

    def _find_cycle(self, start: str) -> Optional[List[str]]:
        path: List[str] = []
        on_path: Set[str] = set()
        visited: Set[str] = set()

        def dfs(node: str) -> Optional[List[str]]:
            if node in on_path:
                return path[path.index(node):]
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for nxt in sorted(self._edges.get(node, {})):
                found = dfs(nxt)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(node)
            return None

        return dfs(start)

    @staticmethod
    def _canonical(cycle: List[str]) -> Tuple[str, ...]:
        pivot = cycle.index(min(cycle))
        return tuple(cycle[pivot:] + cycle[:pivot])


# --------------------------------------------------------------------- #
# REP006 — tests are packages
# --------------------------------------------------------------------- #


class TestsArePackagesRule(Rule):
    """Every directory holding tests must be a package (``__init__.py``)."""

    rule_id = "REP006"
    name = "tests-are-packages"
    description = (
        "every tests/ directory has an __init__.py (duplicate test "
        "basenames break pytest collection otherwise)"
    )

    def finalize(self, modules: Sequence[ModuleContext]) -> Iterator[Finding]:
        seen = set()
        for ctx in modules:
            parts = ctx.path.parts
            if "tests" not in parts:
                continue
            directory = ctx.path.parent
            if directory in seen:
                continue
            seen.add(directory)
            if not (directory / "__init__.py").exists():
                yield Finding(
                    rule=self.rule_id,
                    path=(directory / "__init__.py").as_posix(),
                    line=1,
                    message=(
                        "test directory is not a package; add __init__.py "
                        "so duplicate basenames cannot collide during "
                        "pytest collection"
                    ),
                )


# --------------------------------------------------------------------- #


def default_rules() -> List[Rule]:
    """The full battery with this repository's configuration."""
    return [
        WireSafetyRule(),
        CapabilityGuardRule(),
        ObsDisciplineRule(),
        LockOrderRule(),
        TestsArePackagesRule(),
    ]
