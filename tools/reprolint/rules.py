"""The determinism-contract rules reprolint enforces.

Each rule is an AST pass over one module.  Rules see the module's
*scope path* — the file's path relative to the ``repro`` package root
(e.g. ``geo/region.py``) — so hot-path and subsystem scoping works the
same for real source trees and for test fixtures.

The contract the rules encode (rationale in DESIGN.md):

========  ==============================================================
R001      no unseeded randomness: ``np.random.*`` module-level calls,
          stdlib ``random.*``, and ``np.random.default_rng()`` without
          an explicit seed all draw from hidden global state, breaking
          the ``(seed, host_id)`` stream discipline serial == parallel
          == resumed audits rest on.
R002      no wall clock in ``core/``, ``netsim/``, ``geo/``,
          ``experiments/``, ``service/``: the simulator runs on logical
          campaign time; one ``time.time()`` in a measurement path makes
          records depend on host speed.  One allowlist: ``service/``
          modules may call ``time.monotonic``/``time.monotonic_ns`` for
          latency instrumentation — verdict *content* never touches it.
R003      every ``REPRO_*`` environment knob is read through
          ``repro/config.py``; scattered ``os.environ`` reads are how a
          typo'd knob silently changes engines.  Additionally, every
          knob registered in the config registry must be documented in
          README.md.
R004      no dense-bool Region view (``.mask`` / ``.bool_mask``) in the
          hot-path modules (``geo/bank.py``, ``experiments/audit.py``,
          ``core/multilateration.py``, ``core/cbgpp.py``): the packed
          engine's memory contract forbids materialising per-record
          boolean masks there.
R005      worker/checkpoint payload dataclasses (and ``*Payload`` type
          aliases) in ``experiments/audit.py`` / ``experiments/
          checkpoint.py`` may only be composed of whitelisted
          fork-safe, JSON-round-trippable field types.
R006      no ``sum()`` (or ``np.sum``) over ``set()`` literals/calls or
          ``dict.values()``/``dict.keys()``: float accumulation order
          over an unordered container is an ordering-dependent
          summation hazard.
R007      no per-panel bank accessor (``field_block``) inside a Python
          loop or comprehension in the fleet hot-path modules
          (``core/cbgpp.py``, ``core/octant.py``,
          ``core/multilateration.py``, ``experiments/audit.py``): a
          per-server/per-landmark loop over bank fields is exactly the
          pattern the fleet kernels (``disk_intersections_fleet`` /
          ``ring_votes_fleet``) exist to replace.
R008      no unbounded record accumulation in the streaming-path
          modules (``experiments/audit.py``, ``experiments/
          campaign.py``, ``report.py``): appending built ``AuditRecord``
          objects to a list (or materialising them with a list
          comprehension) retains every packed region (~8 KB each) for
          the life of the campaign; streaming paths must fold records
          through an ``AuditSink`` and let each region be collected as
          soon as it is journaled.
R009      no unbounded queue/container growth in ``service/``: a
          long-running daemon that constructs a queue without a
          ``maxsize`` bound, or grows an empty-initialised instance or
          module-level dict/list/set in place, leaks memory one request
          at a time; state must live in a bounded structure (the shared
          ``LruCache``, a capped ``asyncio.Queue``) or be evicted
          explicitly.
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: (line, col, message) produced by a rule before suppression filtering.
Finding = Tuple[int, int, str]


# -- shared import resolution -------------------------------------------------

def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Map bound names to the dotted module/object they refer to.

    ``import numpy as np`` binds ``np -> numpy``; ``from os import
    environ`` binds ``environ -> os.environ``; relative imports keep
    just the trailing module path (``from .. import config`` binds
    ``config -> config``).
    """
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                names[bound] = (f"{module}.{alias.name}" if module
                                else alias.name)
    return names


def dotted(node: ast.AST, names: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted path, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        base = names.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))
    return None


class Rule:
    """One lint rule: an id, a scope predicate, and an AST check."""

    id: str = "R000"
    title: str = ""

    def applies_to(self, scope_path: str) -> bool:
        return True

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        raise NotImplementedError


# -- R001: unseeded randomness ------------------------------------------------

#: numpy.random attributes that are *not* hidden-global-state draws:
#: explicit generator constructors and bit-generator types.
_RNG_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}


class UnseededRandomness(Rule):
    id = "R001"
    title = "unseeded RNG (hidden global state)"

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            path = dotted(node.func, names)
            if path is None:
                continue
            if path.startswith("numpy.random."):
                leaf = path.rsplit(".", 1)[1]
                if leaf == "default_rng":
                    if not node.args and not node.keywords:
                        findings.append((
                            node.lineno, node.col_offset,
                            "np.random.default_rng() without an explicit "
                            "seed draws OS entropy; derive the generator "
                            "from the campaign (seed, host_id) instead"))
                elif leaf not in _RNG_CONSTRUCTORS:
                    findings.append((
                        node.lineno, node.col_offset,
                        f"module-level numpy.random call "
                        f"'{path}' uses the hidden global RNG; all "
                        "randomness must flow through explicit "
                        "(seed, host_id) Generator streams"))
            elif path == "random" or path.startswith("random."):
                findings.append((
                    node.lineno, node.col_offset,
                    f"stdlib '{path}' draws from the process-global "
                    "Mersenne Twister; use an explicit numpy Generator "
                    "keyed by (seed, host_id)"))
        return findings


# -- R002: wall-clock reads ---------------------------------------------------

#: Wall-clock reads; the dataflow layer also tracks them across
#: function boundaries (the cross-module R002).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

SIMULATED_TIME_SCOPES = ("core/", "netsim/", "geo/", "experiments/",
                         "service/")

#: The service layer's latency-instrumentation allowlist: monotonic
#: deltas never enter a verdict, so R002 permits them there (and only
#: there); every other clock stays banned.
SERVICE_CLOCK_ALLOWLIST = frozenset({
    "time.monotonic", "time.monotonic_ns",
})


class WallClock(Rule):
    id = "R002"
    title = "wall-clock read in simulated-time code"

    def applies_to(self, scope_path: str) -> bool:
        return scope_path.startswith(SIMULATED_TIME_SCOPES)

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        in_service = scope_path.startswith("service/")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            path = dotted(node.func, names)
            if path in WALL_CLOCK_CALLS:
                if in_service and path in SERVICE_CLOCK_ALLOWLIST:
                    continue
                findings.append((
                    node.lineno, node.col_offset,
                    f"'{path}' reads the wall clock; measurement and "
                    "simulation code runs on logical campaign time only "
                    "(benchmarks are exempt by scope; service modules "
                    "may use time.monotonic for latency instrumentation)"))
        return findings


# -- R003: uncentralised REPRO_* env reads ------------------------------------

#: The one module allowed to touch os.environ for REPRO_* knobs.
_CONFIG_MODULE = "config.py"


def _knob_consts(tree: ast.Module) -> Set[str]:
    """Module-level names bound to ``REPRO_*`` string literals."""
    consts: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if (isinstance(value, ast.Constant) and isinstance(value.value, str)
                and value.value.startswith("REPRO_")):
            for target in targets:
                if isinstance(target, ast.Name):
                    consts.add(target.id)
    return consts


def _is_knob_key(node: ast.expr, consts: Set[str]) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("REPRO_")
    if isinstance(node, ast.Name):
        # *_ENV is the repo's naming convention for knob-name constants,
        # including ones assigned from the registry (config.X.name).
        return node.id in consts or node.id.endswith("_ENV")
    return False


class UncentralisedKnobRead(Rule):
    id = "R003"
    title = "REPRO_* env read outside repro/config.py"

    def applies_to(self, scope_path: str) -> bool:
        return scope_path != _CONFIG_MODULE

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        consts = _knob_consts(tree)
        message = ("reads a REPRO_* knob directly from the environment; "
                   "all knob reads must go through repro.config.env_value "
                   "so unknown values fail loudly")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                path = dotted(node.func, names)
                if (path in ("os.getenv",) and node.args
                        and _is_knob_key(node.args[0], consts)):
                    findings.append((node.lineno, node.col_offset, message))
                elif (path in ("os.environ.get", "os.environ.pop",
                               "os.environ.setdefault") and node.args
                        and _is_knob_key(node.args[0], consts)):
                    findings.append((node.lineno, node.col_offset, message))
            elif isinstance(node, ast.Subscript):
                if (dotted(node.value, names) == "os.environ"
                        and _is_knob_key(node.slice, consts)):
                    findings.append((node.lineno, node.col_offset, message))
            elif isinstance(node, ast.Compare):
                if (len(node.ops) == 1
                        and isinstance(node.ops[0], (ast.In, ast.NotIn))
                        and _is_knob_key(node.left, consts)
                        and dotted(node.comparators[0], names)
                        == "os.environ"):
                    findings.append((node.lineno, node.col_offset, message))
        return findings


# -- R004: dense-bool Region views on hot paths -------------------------------

_HOT_MODULES = frozenset({
    "geo/bank.py", "experiments/audit.py",
    "core/multilateration.py", "core/cbgpp.py",
})

_BOOL_VIEW_ATTRS = frozenset({"mask", "bool_mask"})


class HotPathBoolView(Rule):
    id = "R004"
    title = "dense-bool Region view on a hot path"

    def applies_to(self, scope_path: str) -> bool:
        return scope_path in _HOT_MODULES

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in _BOOL_VIEW_ATTRS):
                findings.append((
                    node.lineno, node.col_offset,
                    f"'.{node.attr}' materialises the dense boolean "
                    "Region view; hot-path modules must stay on packed "
                    "uint64 words (PR 4 memory contract)"))
        return findings


# -- R005: payload field-type whitelist ---------------------------------------

_PAYLOAD_MODULES = frozenset({
    "experiments/audit.py", "experiments/checkpoint.py",
})

#: Fork-safe, JSON-round-trippable leaves payload annotations may use.
_PAYLOAD_OK_LEAVES = frozenset({
    "int", "float", "str", "bool", "bytes", "None", "NoneType",
    "Optional", "Union", "List", "Dict", "Tuple", "Sequence", "Mapping",
    "Iterable", "Set", "FrozenSet",
    "list", "dict", "tuple", "set", "frozenset",
    # Domain records proven round-trippable by the checkpoint codec:
    "AuditRecord", "EtaEstimate", "ClaimAssessment", "RttObservation",
    "ServerPayload", "Verdict", "ContinentVerdict", "Region",
})


def _bad_annotation_leaves(node: Optional[ast.expr]) -> List[str]:
    if node is None:
        return []
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return []
        if isinstance(node.value, str):
            ident = node.value.strip()
            return [] if ident in _PAYLOAD_OK_LEAVES else [ident]
        return [repr(node.value)]
    if isinstance(node, ast.Name):
        return [] if node.id in _PAYLOAD_OK_LEAVES else [node.id]
    if isinstance(node, ast.Attribute):
        return [] if node.attr in _PAYLOAD_OK_LEAVES else [node.attr]
    if isinstance(node, ast.Subscript):
        return (_bad_annotation_leaves(node.value)
                + _bad_annotation_leaves(node.slice))
    if isinstance(node, ast.Tuple):
        bad: List[str] = []
        for element in node.elts:
            bad.extend(_bad_annotation_leaves(element))
        return bad
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_bad_annotation_leaves(node.left)
                + _bad_annotation_leaves(node.right))
    return [ast.dump(node)[:40]]


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


class PayloadFieldTypes(Rule):
    id = "R005"
    title = "non-whitelisted payload field type"

    def applies_to(self, scope_path: str) -> bool:
        return scope_path in _PAYLOAD_MODULES

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass_decorated(node):
                for statement in node.body:
                    if not isinstance(statement, ast.AnnAssign):
                        continue
                    for leaf in _bad_annotation_leaves(statement.annotation):
                        findings.append((
                            statement.lineno, statement.col_offset,
                            f"dataclass '{node.name}' field uses "
                            f"non-whitelisted type '{leaf}'; payloads "
                            "cross fork/JSON boundaries and may only use "
                            "fork-safe, round-trippable field types"))
        for statement in tree.body:
            if (isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)
                    and statement.targets[0].id.endswith("Payload")):
                for leaf in _bad_annotation_leaves(statement.value):
                    findings.append((
                        statement.lineno, statement.col_offset,
                        f"payload alias "
                        f"'{statement.targets[0].id}' uses non-whitelisted "
                        f"type '{leaf}'"))
        return findings


# -- R006: order-dependent float reductions -----------------------------------

def _is_unordered_iterable(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("values", "keys")):
            return True
    return False


class UnorderedReduction(Rule):
    id = "R006"
    title = "float reduction over an unordered container"

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            is_sum = (isinstance(node.func, ast.Name)
                      and node.func.id == "sum")
            is_np_sum = dotted(node.func, names) == "numpy.sum"
            if not (is_sum or is_np_sum):
                continue
            argument = node.args[0]
            hazardous = _is_unordered_iterable(argument)
            if not hazardous and isinstance(
                    argument, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                hazardous = any(_is_unordered_iterable(generator.iter)
                                for generator in argument.generators)
            if hazardous:
                findings.append((
                    node.lineno, node.col_offset,
                    "summation over a set()/dict.values() iterates in "
                    "hash/insertion order; float accumulation order "
                    "becomes run-dependent — reduce over an explicitly "
                    "ordered sequence instead"))
        return findings


# -- R007: per-panel bank access inside Python loops on fleet hot paths -------

#: Modules on the fleet audit's hot path that must batch bank work
#: through the ``*_fleet`` kernels rather than loop per panel.
#: ``geo/bank.py`` itself is exempt — it is where the kernels live.
_FLEET_HOT_MODULES = frozenset({
    "core/cbgpp.py", "core/octant.py",
    "core/multilateration.py", "experiments/audit.py",
})

#: The bank's per-panel (one panel at a time) accessors.  The mask
#: kernels are the ``*_fleet`` methods, the sanctioned replacements.
_PER_PANEL_BANK_ACCESSORS = frozenset({"field_block"})


class PerPanelBankLoop(Rule):
    id = "R007"
    title = "per-panel bank accessor inside a Python loop on a fleet hot path"

    def applies_to(self, scope_path: str) -> bool:
        return scope_path in _FLEET_HOT_MODULES

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: Set[Finding] = set()

        def flag_calls(node: ast.AST) -> None:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _PER_PANEL_BANK_ACCESSORS):
                    findings.add((
                        sub.lineno, sub.col_offset,
                        f"'.{sub.func.attr}(...)' inside a Python loop "
                        "reads the bank one panel at a time; batch "
                        "the loop through the fleet kernels "
                        "(disk_intersections_fleet / ring_votes_fleet)"))

        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                for statement in node.body + node.orelse:
                    flag_calls(statement)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp)):
                flag_calls(node.elt)
                for generator in node.generators:
                    for condition in generator.ifs:
                        flag_calls(condition)
            elif isinstance(node, ast.DictComp):
                flag_calls(node.key)
                flag_calls(node.value)
        return sorted(findings)


# -- R008: unbounded record accumulation on streaming paths -------------------

#: Modules on the campaign's streaming path.  The legacy materialising
#: API in ``experiments/audit.py`` carries a reasoned suppression; new
#: accumulation sites there (and anywhere in campaign/report code) must
#: aggregate through an AuditSink instead.
_STREAMING_MODULES = frozenset({
    "experiments/audit.py", "experiments/campaign.py", "report.py",
})


def _call_func_name(node: ast.expr) -> Optional[str]:
    """The called function's terminal name, if the node is a Call."""
    if not isinstance(node, ast.Call):
        return None
    target = node.func
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _builds_record(node: ast.expr) -> bool:
    """Does this expression construct an audit record?

    Matches calls whose function name mentions ``record`` —
    ``AuditRecord(...)``, ``_record_from_payload(...)`` and friends.
    """
    name = _call_func_name(node)
    return name is not None and "record" in name.lower()


def _names_record_list(node: ast.expr) -> bool:
    """Is this the ``records`` / ``*_records`` list being appended to?"""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name == "records" or name.endswith("_records")


class UnboundedRecordAccumulation(Rule):
    id = "R008"
    title = "unbounded record accumulation on a streaming path"

    _MESSAGE = (
        "accumulates audit records in memory; each record retains a "
        "packed ~8 KB region, so a materialised list scales linearly "
        "with fleet size — fold records through an AuditSink and drop "
        "them once journaled")

    def applies_to(self, scope_path: str) -> bool:
        return scope_path in _STREAMING_MODULES

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and len(node.args) == 1
                        and (_names_record_list(node.func.value)
                             or _builds_record(node.args[0]))):
                    findings.append(
                        (node.lineno, node.col_offset, self._MESSAGE))
            elif isinstance(node, ast.ListComp):
                if _builds_record(node.elt):
                    findings.append(
                        (node.lineno, node.col_offset, self._MESSAGE))
        return findings


#: Queue constructors R009 requires an explicit bound for.  ``maxsize``
#: may be passed positionally or by keyword; ``queue.SimpleQueue`` has
#: no bound parameter at all, so it is always flagged in service scope.
_BOUNDED_QUEUE_TYPES = frozenset({
    "asyncio.Queue", "asyncio.LifoQueue", "asyncio.PriorityQueue",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
})
_UNBOUNDABLE_QUEUE_TYPES = frozenset({"queue.SimpleQueue"})

#: In-place growth methods on dict/list/set/deque that R009 watches on
#: empty-initialised long-lived containers.
_GROWTH_METHODS = frozenset({
    "append", "appendleft", "add", "setdefault", "extend", "update",
})

#: Bare constructors that create an empty, unbounded container.
_EMPTY_CONTAINER_CTORS = frozenset({
    "dict", "list", "set", "collections.OrderedDict",
    "collections.defaultdict", "collections.deque",
})


def _is_empty_container_init(node: ast.expr,
                             names: Dict[str, str]) -> bool:
    """Is this expression an empty dict/list/set literal or constructor?

    A ``deque`` with an explicit non-None ``maxlen`` is bounded and
    therefore *not* matched.
    """
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not getattr(node, "keys", None) and not getattr(
            node, "elts", None)
    if isinstance(node, ast.Call):
        path = dotted(node.func, names)
        if path == "collections.deque":
            for keyword in node.keywords:
                if (keyword.arg == "maxlen"
                        and not (isinstance(keyword.value, ast.Constant)
                                 and keyword.value.value is None)):
                    return False
            if len(node.args) >= 2:
                return False
            return True
        if path == "collections.defaultdict":
            return True
        return path in _EMPTY_CONTAINER_CTORS and not node.args
    return False


def _container_key(node: ast.expr) -> Optional[str]:
    """Stable key for a tracked container reference, or None.

    ``self.X`` attributes key as ``self.X``; module-level bare names key
    as the name itself.  Anything else (locals are not tracked — they
    die with the call frame) returns None.
    """
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return f"self.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return None


class UnboundedServiceGrowth(Rule):
    id = "R009"
    title = "unbounded queue/container growth in service code"

    def applies_to(self, scope_path: str) -> bool:
        return scope_path.startswith("service/")

    def check(self, tree: ast.Module, names: Dict[str, str],
              scope_path: str) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_queues(tree, names))
        findings.extend(self._check_container_growth(tree, names))
        return findings

    def _check_queues(self, tree: ast.Module,
                      names: Dict[str, str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            path = dotted(node.func, names)
            if path in _UNBOUNDABLE_QUEUE_TYPES:
                findings.append((
                    node.lineno, node.col_offset,
                    f"'{path}' cannot be bounded; a long-running service "
                    "must cap its queues (use queue.Queue(maxsize=...))"))
                continue
            if path not in _BOUNDED_QUEUE_TYPES:
                continue
            bound: Optional[ast.expr] = None
            if node.args:
                bound = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "maxsize":
                    bound = keyword.value
            unbounded = bound is None or (
                isinstance(bound, ast.Constant)
                and isinstance(bound.value, (int, float))
                and bound.value <= 0)
            if unbounded:
                findings.append((
                    node.lineno, node.col_offset,
                    f"'{path}' constructed without a positive maxsize; "
                    "an uncapped queue in a long-running service grows "
                    "without bound under overload — cap it and shed"))
        return findings

    def _check_container_growth(self, tree: ast.Module,
                                names: Dict[str, str]) -> List[Finding]:
        # Locals die with their call frame and are deliberately not
        # tracked; only ``self.X`` attributes (anywhere) and bare names
        # bound at module level live for the daemon's lifetime.
        tracked: Set[str] = set()
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not _is_empty_container_init(value, names):
                continue
            for target in targets:
                key = _container_key(target)
                if key is not None and key.startswith("self."):
                    tracked.add(key)
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not _is_empty_container_init(value, names):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    tracked.add(target.id)
        if not tracked:
            return []
        findings: List[Finding] = []
        message = (
            "grows an empty-initialised long-lived container without a "
            "bound; service state must live in a bounded structure "
            "(LruCache, capped queue) or be explicitly evicted")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _GROWTH_METHODS
                    and _container_key(node.func.value) in tracked):
                findings.append((node.lineno, node.col_offset, message))
            elif (isinstance(node, ast.Assign)
                  and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Subscript)
                  and _container_key(node.targets[0].value) in tracked):
                findings.append((node.lineno, node.col_offset, message))
        return findings


ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomness(),
    WallClock(),
    UncentralisedKnobRead(),
    HotPathBoolView(),
    PayloadFieldTypes(),
    UnorderedReduction(),
    PerPanelBankLoop(),
    UnboundedRecordAccumulation(),
    UnboundedServiceGrowth(),
)

#: Per-file rule ids (the classes above).
PER_FILE_RULE_IDS: Tuple[str, ...] = tuple(rule.id for rule in ALL_RULES)

#: Inter-procedural rules implemented in tools/reprolint/dataflow.py.
#: Registered here so suppression validation and --list-rules know the
#: full catalogue without importing the whole-program machinery.
PROJECT_RULE_IDS: Tuple[str, ...] = ("R010", "R012", "R013")

PROJECT_RULE_TITLES: Dict[str, str] = {
    "R010": "RNG generator escapes the per-(seed, host_id) stream "
            "discipline",
    "R012": "service/experiments cache key omits the epoch digest",
    "R013": "blocking call reachable from a coroutine",
}

#: Every suppressible rule id (per-file + inter-procedural).
RULE_IDS: Tuple[str, ...] = PER_FILE_RULE_IDS + PROJECT_RULE_IDS


def extract_registered_knobs(tree: ast.Module) -> List[Tuple[str, int]]:
    """(knob name, line) for every ``Knob(name="REPRO_...")`` call.

    Used by the engine's R003 cross-check: each registered knob must be
    documented in README.md.
    """
    knobs: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute)
                else None)
        if name != "Knob":
            continue
        for keyword in node.keywords:
            if (keyword.arg == "name"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                    and keyword.value.value.startswith("REPRO_")):
                knobs.append((keyword.value.value, node.lineno))
    return knobs
