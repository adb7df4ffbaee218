"""Whole-program layer: per-module facts, symbol table, call graph.

Some contract breaks are invisible per file — an RNG generator leaking
into a fork-pool worker, a blocking call three frames below a
coroutine, a cache keyed without the epoch digest.  This module
extracts a compact :class:`ModuleFacts` summary from each module and
assembles the summaries into a :class:`Project`: a project-wide symbol
table (with ``__init__`` re-export chasing) and a call graph with
best-effort resolution.  The project-level analyses
(``dataflow.py``) consume facts, never ASTs.

A call resolves when its callee is one of the module's own functions
or classes, a name imported directly, a method on ``self`` (walked up
the class's bases), or a method on a local, module global or ``self``
attribute whose class is known from an annotation or a constructor
call.  Attributes of parameters (``context.driver.collect``) and of
untyped values do not resolve, so the call graph stops there.

Everything here is stdlib-only, like the rest of reprolint.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rules import WALL_CLOCK_CALLS

#: Blocking socket-module entry points (a bare ``socket.socket()``
#: constructor does not block; connecting/resolving does).
_SOCKET_BLOCKING = frozenset({
    "create_connection", "getaddrinfo", "gethostbyname",
    "gethostbyaddr", "getnameinfo", "getfqdn",
})

#: Socket-object methods that block once a local holds a socket.
_SOCKET_METHODS = frozenset({
    "connect", "accept", "recv", "recvfrom", "send", "sendall", "sendto",
})

#: Pool/executor submission methods whose first argument is a callable
#: that will run in a worker (fork-pool entrypoint detection).
_POOL_SUBMIT_METHODS = frozenset({
    "submit", "apply_async", "map", "imap", "imap_unordered",
    "map_async", "starmap", "starmap_async",
})


def module_name_for(path: str) -> str:
    """Dotted module name derived from the package structure on disk.

    Walks up while ``__init__.py`` exists, so ``src/repro/geo/region.py``
    names ``repro.geo.region`` and a loose script names its bare stem.
    """
    path = os.path.normpath(os.path.abspath(path))
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
    return ".".join(parts) if parts else stem


@dataclass(frozen=True)
class CallFact:
    """One call (or callable hand-off) site inside a function."""

    #: Best-effort callee reference.  Forms:
    #: ``time.sleep`` (import-resolved dotted), ``mod.func`` (project
    #: symbol), ``self::Class::meth`` (method on self, resolved against
    #: the MRO at project level), ``type::T::meth`` (method on a local
    #: whose class was inferred), or a raw name when unresolvable.
    callee: str
    lineno: int
    col: int
    #: ``call`` = invoked here; ``pool`` = handed to a fork/process pool
    #: submission method; ``executor`` = handed to
    #: ``loop.run_in_executor`` (the sanctioned single-drainer seam).
    kind: str = "call"


@dataclass(frozen=True)
class SiteFact:
    """A (lineno, col, detail) source location carrying one detail tag."""

    lineno: int
    col: int
    detail: str


@dataclass
class FunctionFact:
    """Everything the dataflow layer needs to know about one function."""

    qualname: str  # module-relative: "func", "Class.meth", "outer.<locals>.inner"
    lineno: int
    col: int
    is_async: bool = False
    cls: Optional[str] = None        # enclosing class name, if a method
    parent: Optional[str] = None     # enclosing function qualname (closure)
    params: Tuple[str, ...] = ()
    calls: List[CallFact] = field(default_factory=list)
    #: Locals bound to RNG generators: name -> "stream" | "plain" |
    #: "call:<callee>" (classification deferred to the fixpoint).
    rng_locals: Dict[str, str] = field(default_factory=dict)
    #: Direct RNG classification of returned values (same encoding).
    returns_rng: Optional[str] = None
    #: Wall-clock reads performed directly in this function.
    wallclock_reads: List[SiteFact] = field(default_factory=list)
    #: Clock names whose values are (directly) returned.
    returns_wallclock: List[str] = field(default_factory=list)
    #: Callees whose return value flows into this function's return.
    return_calls: List[str] = field(default_factory=list)
    #: Names read but not bound locally (closure/global references).
    free_loads: Tuple[str, ...] = ()
    #: Direct blocking primitives: detail is a human-readable tag.
    blocking: List[SiteFact] = field(default_factory=list)


@dataclass
class ClassFact:
    """One class: bases for MRO walks, inferred ``self.<attr>`` types."""

    name: str
    lineno: int
    bases: Tuple[str, ...] = ()      # import-resolved dotted names
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class CacheFact:
    """One cache construction plus every key expression used with it."""

    key: str       # "self.X" or module-level name
    lineno: int
    col: int
    kind: str      # "lru" | "dict"
    #: Each observed literal-tuple key, as a list of lowercased leaf
    #: identifiers; a non-literal key is recorded as None (unprovable).
    key_shapes: List[Optional[List[str]]] = field(default_factory=list)


@dataclass
class RngAssignFact:
    """A module-level name bound to an RNG generator (or producer call)."""

    name: str
    lineno: int
    col: int
    source: str  # "stream" | "plain" | "call:<callee>"


@dataclass
class ModuleFacts:
    """The whole-program summary of one module."""

    path: str
    scope_path: str
    module: str
    imports: Dict[str, str] = field(default_factory=dict)
    top_symbols: Tuple[str, ...] = ()
    functions: List[FunctionFact] = field(default_factory=list)
    classes: List[ClassFact] = field(default_factory=list)
    module_rng_assigns: List[RngAssignFact] = field(default_factory=list)
    #: Module-level annotated names -> inferred dotted type.
    global_types: Dict[str, str] = field(default_factory=dict)
    caches: List[CacheFact] = field(default_factory=list)


# -- extraction helpers -------------------------------------------------------

def _resolved_imports(tree: ast.Module, module: str,
                      is_package: bool) -> Dict[str, str]:
    """Bound name -> absolute dotted target, relative imports resolved."""
    names: Dict[str, str] = {}
    package_parts = module.split(".") if module else []
    if not is_package and package_parts:
        package_parts = package_parts[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[:len(package_parts) - (node.level - 1)]
                prefix = ".".join(base)
            else:
                prefix = ""
            target = node.module or ""
            if prefix and target:
                target = f"{prefix}.{target}"
            elif prefix:
                target = prefix
            for alias in node.names:
                bound = alias.asname or alias.name
                names[bound] = (f"{target}.{alias.name}" if target
                                else alias.name)
    return names


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"], or None for non-chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _type_leaf(node: Optional[ast.expr]) -> Optional[str]:
    """The class-ish dotted name inside an annotation, if recognisable.

    Strips ``Optional[...]``/quoted forward references; gives up on
    unions of several concrete classes.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip().strip('"\'') or None
    if isinstance(node, (ast.Name, ast.Attribute)):
        chain = _attr_chain(node)
        return ".".join(chain) if chain else None
    if isinstance(node, ast.Subscript):
        head = _type_leaf(node.value)
        if head and head.split(".")[-1] == "Optional":
            return _type_leaf(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = _type_leaf(node.left), _type_leaf(node.right)
        if left in (None, "None"):
            return right if right != "None" else None
        if right in (None, "None"):
            return left if left != "None" else None
        return None
    return None


def _tuple_leaves(node: ast.expr) -> Optional[List[str]]:
    """Lowercased leaf identifiers of a literal tuple key, else None."""
    if not isinstance(node, ast.Tuple):
        return None
    leaves: List[str] = []
    for element in node.elts:
        leaf = _key_leaf(element)
        if leaf:
            leaves.append(leaf.lower())
    return leaves


def _key_leaf(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        target = node.func
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _rng_stream_kind(call: ast.Call) -> str:
    """Classify a ``default_rng`` call: per-(seed, host_id) or not."""
    if not call.args:
        return "plain"
    seed = call.args[0]
    if isinstance(seed, ast.Tuple):
        leaves = [(_key_leaf(element) or "").lower()
                  for element in seed.elts]
        has_seed = any("seed" in leaf for leaf in leaves)
        has_host = any(token in leaf for leaf in leaves
                       for token in ("host_id", "hostid", "host"))
        if has_seed and has_host:
            return "stream"
    return "plain"


class _ModuleExtractor(ast.NodeVisitor):
    """One pass over a module AST collecting :class:`ModuleFacts`."""

    def __init__(self, tree: ast.Module, path: str, scope_path: str,
                 module: str, is_package: bool):
        self.facts = ModuleFacts(path=path, scope_path=scope_path,
                                 module=module)
        self.facts.imports = _resolved_imports(tree, module, is_package)
        self.tree = tree
        self._class_stack: List[ClassFact] = []
        self._function_stack: List["_FunctionState"] = []
        self._cache_index: Dict[str, CacheFact] = {}
        self._collect_top_level(tree)

    # -- module-level pre-pass -------------------------------------------------

    def _collect_top_level(self, tree: ast.Module) -> None:
        symbols: List[str] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                symbols.append(node.name)
            targets, _ = self._assign_parts(node)
            symbols.extend(target.id for target in targets
                           if isinstance(target, ast.Name))
            if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                inferred = _type_leaf(node.annotation)
                if inferred:
                    self.facts.global_types[node.target.id] = inferred
        self.facts.top_symbols = tuple(dict.fromkeys(symbols))

    @staticmethod
    def _assign_parts(node: ast.stmt
                      ) -> Tuple[List[ast.expr], Optional[ast.expr]]:
        if isinstance(node, ast.Assign):
            return list(node.targets), node.value
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            return [node.target], node.value
        return [], None

    # -- name resolution -------------------------------------------------------

    def _resolve_callable(self, node: ast.expr) -> Optional[str]:
        """Best-effort reference string for a callable expression."""
        state = self._function_stack[-1] if self._function_stack else None
        if isinstance(node, ast.Name):
            name = node.id
            for enclosing in reversed(self._function_stack):
                if name in enclosing.local_funcs:
                    return (f"{self.facts.module}."
                            f"{enclosing.local_funcs[name]}")
            if name in self.facts.imports:
                return self.facts.imports[name]
            if name in self.facts.top_symbols:
                return f"{self.facts.module}.{name}"
            if state is not None and name in state.local_types:
                return state.local_types[name]
            return name
        chain = _attr_chain(node)
        if not chain:
            return None
        base, rest = chain[0], chain[1:]
        if base == "self" and self._class_stack:
            if len(rest) == 1:
                return f"self::{self._class_stack[-1].name}::{rest[0]}"
            attr_type = self._class_stack[-1].attr_types.get(rest[0])
            if attr_type and len(rest) == 2:
                return f"type::{attr_type}::{rest[1]}"
            return None
        if state is not None and base in state.local_types:
            if len(rest) == 1:
                return f"type::{state.local_types[base]}::{rest[0]}"
            return None
        if base in self.facts.imports:
            return ".".join([self.facts.imports[base]] + rest)
        if base in self.facts.top_symbols:
            return ".".join([self.facts.module, base] + rest)
        if base in self.facts.global_types:
            if len(rest) == 1:
                return f"type::{self.facts.global_types[base]}::{rest[0]}"
            return None
        return ".".join(chain)

    def _resolve_type_expr(self, annotation: Optional[ast.expr]
                           ) -> Optional[str]:
        leaf = _type_leaf(annotation)
        if leaf is None:
            return None
        head, _, tail = leaf.partition(".")
        if head in self.facts.imports:
            base = self.facts.imports[head]
            return f"{base}.{tail}" if tail else base
        if head in self.facts.top_symbols and not tail:
            return f"{self.facts.module}.{head}"
        return leaf

    # -- visitors --------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(filter(None, (self._resolve_callable(base)
                                    for base in node.bases)))
        fact = ClassFact(name=node.name, lineno=node.lineno, bases=bases)
        self.facts.classes.append(fact)
        self._class_stack.append(fact)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node, is_async=True)

    def _handle_function(self, node, is_async: bool) -> None:
        parent = (self._function_stack[-1].fact.qualname
                  if self._function_stack else None)
        if parent is not None:
            qualname = f"{parent}.<locals>.{node.name}"
        elif self._class_stack:
            qualname = f"{self._class_stack[-1].name}.{node.name}"
        else:
            qualname = node.name
        args = node.args
        params = tuple(a.arg for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])))
        fact = FunctionFact(
            qualname=qualname, lineno=node.lineno, col=node.col_offset,
            is_async=is_async,
            cls=self._class_stack[-1].name if self._class_stack else None,
            parent=parent, params=params)
        if self._function_stack:
            # a nested def is callable by name in the enclosing scope
            self._function_stack[-1].local_funcs[node.name] = qualname
        state = _FunctionState(fact)
        for arg in list(args.posonlyargs) + list(args.args) + \
                list(args.kwonlyargs):
            inferred = self._resolve_type_expr(arg.annotation)
            if inferred:
                state.local_types[arg.arg] = inferred
        if self._class_stack and params and params[0] == "self":
            state.local_types["self"] = \
                f"{self.facts.module}.{self._class_stack[-1].name}"
        self.facts.functions.append(fact)
        self._function_stack.append(state)
        for statement in node.body:
            self.visit(statement)
        fact.free_loads = tuple(sorted(state.loads - state.bound))
        self._function_stack.pop()

    def visit_Name(self, node: ast.Name) -> None:
        if self._function_stack:
            state = self._function_stack[-1]
            if isinstance(node.ctx, ast.Load):
                state.loads.add(node.id)
            else:
                state.bound.add(node.id)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._handle_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_assign([node.target], node.value,
                                annotation=node.annotation)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            self._record_subscript_key(node.target)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._function_stack:
            self._analyze_return(node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._track_as_completed(node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node)
        self.generic_visit(node)

    # -- per-construct analysis ------------------------------------------------

    def _handle_assign(self, targets: Sequence[ast.expr], value: ast.expr,
                       annotation: Optional[ast.expr] = None) -> None:
        state = self._function_stack[-1] if self._function_stack else None
        for target in targets:
            if isinstance(target, ast.Subscript):
                self._record_subscript_key(target)
        rng = self._rng_source(value)
        for target in targets:
            name_target = isinstance(target, ast.Name)
            if rng is not None:
                if state is not None and name_target:
                    state.fact.rng_locals[target.id] = rng
                elif state is None and name_target:
                    self.facts.module_rng_assigns.append(RngAssignFact(
                        name=target.id, lineno=value.lineno,
                        col=value.col_offset, source=rng))
            self._maybe_cache_construction(target, value)
            if state is None:
                continue
            inferred = self._value_type(state, value, annotation)
            if name_target:
                if inferred:
                    state.local_types[target.id] = inferred
                self._track_blocking_locals(state, target.id, value)
            elif (inferred and self._class_stack
                  and isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"):
                # self.service = service: later self.service.<m>() calls
                # in this class resolve to the attribute's class.
                self._class_stack[-1].attr_types[target.attr] = inferred

    def _value_type(self, state: "_FunctionState", value: ast.expr,
                    annotation: Optional[ast.expr]) -> Optional[str]:
        """The class an assigned value is known to have, if any."""
        inferred = self._resolve_type_expr(annotation)
        if inferred is None and isinstance(value, ast.Call):
            callee = self._resolve_callable(value.func)
            if callee and callee[:1].isalpha() and "::" not in callee \
                    and callee.split(".")[-1][:1].isupper():
                inferred = callee
        if inferred is None and isinstance(value, ast.Name):
            inferred = state.local_types.get(value.id) \
                or self.facts.global_types.get(value.id)
        return inferred

    def _track_blocking_locals(self, state: "_FunctionState", name: str,
                               value: ast.expr) -> None:
        if isinstance(value, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            # futures = [pool.submit(work, c) for c in chunks]
            element = value.elt
            if isinstance(element, ast.Call) and isinstance(
                    element.func, ast.Attribute) and \
                    element.func.attr in ("submit", "apply_async"):
                state.pool_futures.add(name)
            return
        if not isinstance(value, ast.Call):
            return
        func = value.func
        if isinstance(func, ast.Attribute) and \
                func.attr in ("submit", "apply_async"):
            state.pool_futures.add(name)
        dotted_name = self._resolve_callable(func)
        if dotted_name in ("socket.socket", "socket.create_connection"):
            state.sockets.add(name)

    def _track_as_completed(self, node) -> None:
        if not self._function_stack or not isinstance(node.target,
                                                      ast.Name):
            return
        self._track_future_iteration(node.iter, node.target)

    def _track_future_iteration(self, iterable: ast.expr,
                                target: ast.Name) -> None:
        """Iterating a futures container binds the target as a future."""
        state = self._function_stack[-1]
        if isinstance(iterable, ast.Name) \
                and iterable.id in state.pool_futures:
            state.pool_futures.add(target.id)
            return
        if isinstance(iterable, ast.Call):
            callee = self._resolve_callable(iterable.func) or ""
            if callee.split(".")[-1] == "as_completed":
                state.pool_futures.add(target.id)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            if self._function_stack and isinstance(generator.target,
                                                   ast.Name):
                self._track_future_iteration(generator.iter,
                                             generator.target)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _rng_source(self, value: ast.expr) -> Optional[str]:
        """How an assigned value relates to RNG generators, if at all."""
        if not isinstance(value, ast.Call):
            if isinstance(value, ast.Name) and self._function_stack:
                state = self._function_stack[-1]
                if value.id in state.fact.rng_locals:
                    return state.fact.rng_locals[value.id]
            return None
        callee = self._resolve_callable(value.func)
        if callee is None:
            return None
        if callee.endswith("numpy.random.default_rng") \
                or callee == "numpy.random.default_rng":
            return _rng_stream_kind(value)
        if callee.split(".")[-1] == "default_rng":
            return _rng_stream_kind(value)
        if "::" in callee or "." in callee:
            return f"call:{callee}"
        return None

    def _maybe_cache_construction(self, target: ast.expr,
                                  value: ast.expr) -> None:
        key = _container_key(target)
        if key is None:
            return
        kind: Optional[str] = None
        if isinstance(value, ast.Call):
            callee = self._resolve_callable(value.func) or ""
            terminal = callee.split(".")[-1].split("::")[-1]
            if terminal == "LruCache" or terminal.endswith("LruCache"):
                kind = "lru"
            elif terminal.endswith("Cache") and terminal[:1].isupper():
                kind = "lru"
            elif terminal == "dict" and _is_cache_name(key):
                kind = "dict"
        elif isinstance(value, ast.Dict) and not value.keys \
                and _is_cache_name(key):
            kind = "dict"
        if kind is None:
            return
        if key not in self._cache_index:
            fact = CacheFact(key=key, lineno=value.lineno,
                             col=value.col_offset, kind=kind)
            self._cache_index[key] = fact
            self.facts.caches.append(fact)

    def _record_subscript_key(self, target: ast.Subscript) -> None:
        key = _container_key(target.value)
        cache = self._cache_index.get(key) if key else None
        if cache is not None and self._function_stack:
            cache.key_shapes.append(_tuple_leaves(target.slice))

    def _analyze_return(self, value: ast.expr) -> None:
        state = self._function_stack[-1]
        fact = state.fact
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                callee = self._resolve_callable(node.func)
                if callee in WALL_CLOCK_CALLS:
                    if callee not in fact.returns_wallclock:
                        fact.returns_wallclock.append(callee)
                elif callee is not None and node is value:
                    # the whole return value is one call's result
                    fact.return_calls.append(callee)
                    rng = self._rng_source(node)
                    if rng is not None and fact.returns_rng is None:
                        fact.returns_rng = rng
            elif isinstance(node, ast.Name):
                if node.id in state.wallclock_locals:
                    for clock in state.wallclock_locals[node.id]:
                        if clock not in fact.returns_wallclock:
                            fact.returns_wallclock.append(clock)
                if node.id in fact.rng_locals and fact.returns_rng is None:
                    fact.returns_rng = fact.rng_locals[node.id]

    def _handle_call(self, node: ast.Call) -> None:
        if not self._function_stack:
            self._module_level_call(node)
            return
        state = self._function_stack[-1]
        fact = state.fact
        callee = self._resolve_callable(node.func)
        if callee is not None:
            fact.calls.append(CallFact(callee=callee, lineno=node.lineno,
                                       col=node.col_offset))
        self._record_handoffs(node, fact)
        self._record_blocking(node, state, callee)
        self._record_wallclock(node, state, callee)
        self._record_cache_access(node)

    def _module_level_call(self, node: ast.Call) -> None:
        self._record_cache_access(node)

    def _record_handoffs(self, node: ast.Call, fact: FunctionFact) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "run_in_executor" and len(node.args) >= 2:
            handed = self._resolve_callable(node.args[1])
            if handed is not None:
                fact.calls.append(CallFact(
                    callee=handed, lineno=node.lineno,
                    col=node.col_offset, kind="executor"))
        elif func.attr in _POOL_SUBMIT_METHODS and node.args:
            handed = self._resolve_callable(node.args[0])
            if handed is not None:
                fact.calls.append(CallFact(
                    callee=handed, lineno=node.lineno,
                    col=node.col_offset, kind="pool"))

    def _record_blocking(self, node: ast.Call, state: "_FunctionState",
                         callee: Optional[str]) -> None:
        fact = state.fact
        if callee == "time.sleep":
            fact.blocking.append(SiteFact(node.lineno, node.col_offset,
                                          "time.sleep"))
            return
        if callee and callee.startswith("socket.") \
                and callee.split(".")[-1] in _SOCKET_BLOCKING:
            fact.blocking.append(SiteFact(node.lineno, node.col_offset,
                                          callee))
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _SOCKET_METHODS and isinstance(
                func.value, ast.Name) and func.value.id in state.sockets:
            fact.blocking.append(SiteFact(
                node.lineno, node.col_offset, f"socket .{func.attr}()"))
        elif func.attr in ("get", "result"):
            base = func.value
            is_future = (isinstance(base, ast.Name)
                         and base.id in state.pool_futures)
            if not is_future and isinstance(base, ast.Call) and isinstance(
                    base.func, ast.Attribute) and base.func.attr in (
                        "submit", "apply_async"):
                is_future = True
            if is_future:
                fact.blocking.append(SiteFact(
                    node.lineno, node.col_offset,
                    f"fork-pool future .{func.attr}()"))

    def _record_wallclock(self, node: ast.Call, state: "_FunctionState",
                          callee: Optional[str]) -> None:
        if callee not in WALL_CLOCK_CALLS:
            return
        state.fact.wallclock_reads.append(SiteFact(
            node.lineno, node.col_offset, callee))
        parent_assign = state.pending_assign_target
        if parent_assign is not None:
            state.wallclock_locals.setdefault(parent_assign, set()).add(
                callee)

    def _record_cache_access(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        if func.attr not in ("get", "put", "peek", "pop", "setdefault"):
            return
        key = _container_key(func.value)
        cache = self._cache_index.get(key) if key else None
        if cache is not None:
            cache.key_shapes.append(_tuple_leaves(node.args[0]))

    # Assign-target bookkeeping so `started = time.monotonic()` records
    # the local for return-flow analysis: wrap value visits.
    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign) and self._function_stack \
                and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            state = self._function_stack[-1]
            previous = state.pending_assign_target
            state.pending_assign_target = node.targets[0].id
            super().generic_visit(node)
            state.pending_assign_target = previous
        else:
            super().generic_visit(node)


class _FunctionState:
    """Mutable per-function extraction scratch."""

    def __init__(self, fact: FunctionFact):
        self.fact = fact
        self.local_types: Dict[str, str] = {}
        self.pool_futures: Set[str] = set()
        self.sockets: Set[str] = set()
        self.wallclock_locals: Dict[str, Set[str]] = {}
        self.loads: Set[str] = set()
        self.bound: Set[str] = set(fact.params)
        self.pending_assign_target: Optional[str] = None
        #: nested function name -> its module-relative qualname
        self.local_funcs: Dict[str, str] = {}


def _container_key(node: ast.expr) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return f"self.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_cache_name(key: str) -> bool:
    tail = key.split(".")[-1].lower()
    return "cache" in tail or "memo" in tail


def extract_module_facts(tree: ast.Module, path: str, scope_path: str,
                         module: Optional[str] = None) -> ModuleFacts:
    """Extract the whole-program facts for one parsed module."""
    if module is None:
        module = module_name_for(path)
    is_package = os.path.basename(path) == "__init__.py"
    extractor = _ModuleExtractor(tree, path, scope_path, module, is_package)
    for statement in tree.body:
        extractor.visit(statement)
    return extractor.facts


# -- the project graph --------------------------------------------------------

class Project:
    """All module facts plus cross-module resolution and reachability."""

    def __init__(self, modules: Sequence[ModuleFacts]):
        self.modules: Dict[str, ModuleFacts] = {}
        self.by_path: Dict[str, ModuleFacts] = {}
        #: "module.symbol" -> aliased dotted target (import binds).
        self._aliases: Dict[str, str] = {}
        #: fully-qualified function name -> FunctionFact
        self.functions: Dict[str, FunctionFact] = {}
        #: fully-qualified class name -> (module, ClassFact)
        self.classes: Dict[str, Tuple[str, ClassFact]] = {}
        self.module_of: Dict[str, str] = {}
        self._resolve_cache: Dict[str, str] = {}
        self._call_cache: Dict[Tuple[str, str], Optional[str]] = {}
        for facts in modules:
            self.modules[facts.module] = facts
            self.by_path[facts.path] = facts
            for bound, target in facts.imports.items():
                self._aliases[f"{facts.module}.{bound}"] = target
            for fn in facts.functions:
                qualname = f"{facts.module}.{fn.qualname}"
                self.functions[qualname] = fn
                self.module_of[qualname] = facts.module
            for kls in facts.classes:
                self.classes[f"{facts.module}.{kls.name}"] = (facts.module,
                                                              kls)

    # -- symbol resolution -----------------------------------------------------

    def resolve(self, dotted_name: str) -> str:
        """Chase import aliases/re-exports to a canonical dotted name.

        Bounded (and memoized): a pathological alias like
        ``from .x import x`` rewrites ``p.x`` to ``p.x.x`` — each hop
        yields a fresh, longer string, so termination comes from the
        hop cap, not from cycle detection alone.
        """
        cached = self._resolve_cache.get(dotted_name)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        current = dotted_name
        for _ in range(32):
            if current in self.functions or current in self.classes \
                    or current in seen:
                break
            seen.add(current)
            parts = current.split(".")
            rewritten = None
            for cut in range(len(parts), 0, -1):
                head = ".".join(parts[:cut])
                if head in self._aliases:
                    candidate = ".".join([self._aliases[head]] + parts[cut:])
                    if candidate != current:
                        rewritten = candidate
                    break
                if head in self.modules and cut < len(parts):
                    # module.symbol where symbol is a top-level def:
                    # already canonical — stop rewriting.
                    break
            if rewritten is None:
                break
            current = rewritten
        self._resolve_cache[dotted_name] = current
        return current

    def resolve_method(self, class_qualname: str,
                       method: str) -> Optional[str]:
        """``Class.method`` resolved against the class and its bases."""
        seen: Set[str] = set()
        stack = [self.resolve(class_qualname)]
        while stack:
            qualname = stack.pop(0)
            if qualname in seen:
                continue
            seen.add(qualname)
            entry = self.classes.get(qualname)
            if entry is None:
                continue
            module, kls = entry
            candidate = f"{module}.{kls.name}.{method}"
            if candidate in self.functions:
                return candidate
            stack.extend(self.resolve(base) for base in kls.bases)
        return None

    def resolve_call(self, module: str, call: CallFact) -> Optional[str]:
        """A call fact resolved to a project function qualname, if any."""
        cache_key = (module, call.callee)
        if cache_key in self._call_cache:
            return self._call_cache[cache_key]
        resolved = self._resolve_call_uncached(module, call)
        self._call_cache[cache_key] = resolved
        return resolved

    def _resolve_call_uncached(self, module: str,
                               call: CallFact) -> Optional[str]:
        callee = call.callee
        if callee.startswith("self::"):
            _, cls, method = callee.split("::")
            return self.resolve_method(f"{module}.{cls}", method)
        if callee.startswith("type::"):
            _, type_name, method = callee.split("::")
            resolved = self.resolve(type_name)
            if resolved in self.classes:
                return self.resolve_method(resolved, method)
            # maybe the annotation already included the module path
            for candidate in (type_name, f"{module}.{type_name}"):
                resolved = self.resolve(candidate)
                if resolved in self.classes:
                    return self.resolve_method(resolved, method)
            return None
        resolved = self.resolve(callee)
        if resolved in self.functions:
            return resolved
        if resolved in self.classes:
            return self.resolve_method(resolved, "__init__")
        return None

    def pool_entrypoints(self) -> Set[str]:
        """Functions handed to a fork/process-pool submission method."""
        entrypoints: Set[str] = set()
        for qualname, fn in self.functions.items():
            module = self.module_of[qualname]
            for call in fn.calls:
                if call.kind != "pool":
                    continue
                target = self.resolve_call(module, call)
                if target is not None:
                    entrypoints.add(target)
        return entrypoints
