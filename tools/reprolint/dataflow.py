"""Inter-procedural dataflow rules over the project call graph.

Three taint kinds flow across function/module boundaries here:

* **RNG generators** — which functions return a ``numpy`` Generator,
  and whether it is derived from the per-``(seed, host_id)`` stream
  discipline (R010).
* **Wall-clock values** — which functions *return* a wall-clock
  reading, so a simulated-time module calling a helper defined outside
  the scoped subtree still gets flagged (inter-procedural R002).
* **Cache-key tuples** — the literal key shapes used with each cache
  constructed in ``service/`` or ``experiments/`` (R012).

Plus a blocking-set fixpoint for R013.  All rules consume
:class:`callgraph.ModuleFacts`, never ASTs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .callgraph import CacheFact, CallFact, FunctionFact, ModuleFacts, \
    Project
from .rules import SERVICE_CLOCK_ALLOWLIST, SIMULATED_TIME_SCOPES

#: (path, lineno, col, rule_id, message)
ProjectFinding = Tuple[str, int, int, str, str]

#: Identifier tokens marking an epoch/content-digest key component.
EPOCH_TOKENS = ("epoch", "digest", "token")

#: Identifier tokens marking a host-identity key component.
HOST_TOKENS = ("host_id", "hostid", "hostname", "server_id", "host")

#: Subtrees R012 applies to (cache key completeness only matters where
#: verdicts/measurements are epoch-scoped).
_EPOCH_CACHE_SCOPES = ("service/", "experiments/")


class ProjectAnalysis:
    """Fixpoint results over one :class:`Project`."""

    def __init__(self, project: Project):
        self.project = project
        #: qualname -> "stream" | "plain" for functions returning a
        #: Generator (after resolving call: indirections).
        self.returns_rng: Dict[str, str] = {}
        #: qualname -> clock names whose values escape via return.
        self.returns_wallclock: Dict[str, Set[str]] = {}
        #: qualname -> short witness of why the function blocks.
        self.blocking: Dict[str, str] = {}
        self._compute_return_taints()
        self._compute_blocking()
        self.pool_entrypoints = project.pool_entrypoints()

    # -- fixpoints -------------------------------------------------------------

    def _compute_return_taints(self) -> None:
        project = self.project
        # Seed with direct facts.
        pending_rng: Dict[str, str] = {}
        for qualname, fn in project.functions.items():
            if fn.returns_rng in ("stream", "plain"):
                self.returns_rng[qualname] = fn.returns_rng
            elif fn.returns_rng and fn.returns_rng.startswith("call:"):
                pending_rng[qualname] = fn.returns_rng[5:]
            if fn.returns_wallclock:
                self.returns_wallclock[qualname] = set(fn.returns_wallclock)
        # Propagate through return-value call chains until stable.
        for _ in range(len(project.functions) + 1):
            changed = False
            for qualname, fn in project.functions.items():
                module = project.module_of[qualname]
                callees = list(fn.return_calls)
                if qualname in pending_rng:
                    callees.append(pending_rng[qualname])
                for callee in callees:
                    target = self._resolve_ref(module, callee)
                    if target is None:
                        continue
                    if target in self.returns_rng and \
                            qualname not in self.returns_rng:
                        self.returns_rng[qualname] = self.returns_rng[target]
                        changed = True
                    clocks = self.returns_wallclock.get(target)
                    if clocks:
                        mine = self.returns_wallclock.setdefault(
                            qualname, set())
                        if not clocks <= mine:
                            mine.update(clocks)
                            changed = True
            if not changed:
                break

    def _resolve_ref(self, module: str, ref: str) -> Optional[str]:
        return self.project.resolve_call(
            module, CallFact(callee=ref, lineno=0, col=0))

    def _compute_blocking(self) -> None:
        project = self.project
        for qualname, fn in project.functions.items():
            if fn.blocking:
                self.blocking[qualname] = fn.blocking[0].detail
        # Propagate blocking through plain call edges (not executor or
        # pool hand-offs — those run the callee off-loop by design).
        for _ in range(len(project.functions) + 1):
            changed = False
            for qualname, fn in project.functions.items():
                if qualname in self.blocking:
                    continue
                module = project.module_of[qualname]
                for call in fn.calls:
                    if call.kind != "call":
                        continue
                    target = project.resolve_call(module, call)
                    if target is not None and target in self.blocking:
                        short = target.rsplit(".", 1)[-1]
                        self.blocking[qualname] = \
                            f"{short}() -> {self.blocking[target]}"
                        changed = True
                        break
            if not changed:
                break


# -- rule implementations -----------------------------------------------------

def _check_rng_escape(project: Project,
                      analysis: ProjectAnalysis) -> List[ProjectFinding]:
    """R010: a non-stream Generator reaching shared or worker state."""
    findings: List[ProjectFinding] = []
    for facts in project.modules.values():
        # (a) module-level Generators: shared across every worker and
        # every host unless the assignment is itself stream-derived —
        # and even then module scope defeats per-host stream isolation,
        # so only a provably-plain source is reported under R010 (the
        # per-file R001 already covers unseeded module RNG).
        for assign in facts.module_rng_assigns:
            source = assign.source
            if source.startswith("call:"):
                target = analysis._resolve_ref(facts.module, source[5:])
                source = analysis.returns_rng.get(target or "", "")
            if source == "plain":
                findings.append((
                    facts.path, assign.lineno, assign.col, "R010",
                    f"module-level RNG '{assign.name}' is not derived from "
                    f"a per-(seed, host_id) stream; module state is shared "
                    f"across hosts and fork workers "
                    f"[rule R010]"))
        # (b) fork-pool workers / coroutines closing over a non-stream
        # Generator from an enclosing function or module scope.
        for fn in facts.functions:
            qualname = f"{facts.module}.{fn.qualname}"
            is_worker = qualname in analysis.pool_entrypoints
            if not (is_worker or fn.is_async):
                continue
            context = ("fork-pool worker" if is_worker
                       else "asyncio handler")
            plain_sources = _plain_rng_names_visible_to(
                facts, fn, analysis)
            for name in sorted(set(fn.free_loads) & plain_sources):
                findings.append((
                    facts.path, fn.lineno, fn.col, "R010",
                    f"{context} '{fn.qualname}' closes over RNG '{name}' "
                    f"which is not derived from a per-(seed, host_id) "
                    f"stream [rule R010]"))
    return findings


def _plain_rng_names_visible_to(facts: ModuleFacts, fn: FunctionFact,
                                analysis: ProjectAnalysis) -> Set[str]:
    """Names in fn's enclosing scopes bound to non-stream Generators."""
    plain: Set[str] = set()
    for assign in facts.module_rng_assigns:
        source = assign.source
        if source.startswith("call:"):
            target = analysis._resolve_ref(facts.module, source[5:])
            source = analysis.returns_rng.get(target or "", "")
        if source == "plain":
            plain.add(assign.name)
    parent = fn.parent
    by_qualname = {f.qualname: f for f in facts.functions}
    while parent is not None:
        enclosing = by_qualname.get(parent)
        if enclosing is None:
            break
        for name, source in enclosing.rng_locals.items():
            if source == "plain":
                plain.add(name)
        parent = enclosing.parent
    return plain


def _check_epoch_keys(project: Project) -> List[ProjectFinding]:
    """R012: host-keyed caches in scoped modules missing the epoch."""
    findings: List[ProjectFinding] = []
    for facts in project.modules.values():
        if not facts.scope_path.startswith(_EPOCH_CACHE_SCOPES):
            continue
        for cache in facts.caches:
            verdict = _classify_cache_keys(cache)
            if verdict is not None:
                findings.append((facts.path, cache.lineno, cache.col,
                                 "R012", verdict))
    return findings


def _classify_cache_keys(cache: CacheFact) -> Optional[str]:
    literal_shapes = [shape for shape in cache.key_shapes
                      if shape is not None]
    if not literal_shapes:
        return None  # keys not provable — stay silent
    offending: List[List[str]] = []
    for shape in literal_shapes:
        has_host = any(token in leaf for leaf in shape
                       for token in HOST_TOKENS)
        has_epoch = any(token in leaf for leaf in shape
                        for token in EPOCH_TOKENS)
        if has_host and not has_epoch:
            offending.append(shape)
    if not offending:
        return None
    observed = ", ".join("(" + ", ".join(shape) + ")"
                         for shape in offending[:3])
    return (f"cache '{cache.key}' is keyed by host identity without an "
            f"epoch digest — observed key {observed}; stale verdicts "
            f"survive topology rolls [rule R012]")


def _check_blocking_in_async(project: Project,
                             analysis: ProjectAnalysis
                             ) -> List[ProjectFinding]:
    """R013: blocking primitives reachable from coroutines."""
    findings: List[ProjectFinding] = []
    for facts in project.modules.values():
        for fn in facts.functions:
            if not fn.is_async:
                continue
            qualname = f"{facts.module}.{fn.qualname}"
            for site in fn.blocking:
                findings.append((
                    facts.path, site.lineno, site.col, "R013",
                    f"coroutine '{fn.qualname}' performs blocking "
                    f"{site.detail}; hand it to an executor instead "
                    f"[rule R013]"))
            for call in fn.calls:
                if call.kind != "call":
                    continue
                target = project.resolve_call(facts.module, call)
                if target is None or target not in analysis.blocking:
                    continue
                target_fn = project.functions[target]
                if target_fn.is_async:
                    # flagged at its own blocking site already
                    continue
                findings.append((
                    facts.path, call.lineno, call.col, "R013",
                    f"coroutine '{fn.qualname}' calls "
                    f"'{target.rsplit('.', 1)[-1]}' which blocks via "
                    f"{analysis.blocking[target]}; route it through "
                    f"run_in_executor [rule R013]"))
    return findings


def _check_wallclock_flow(project: Project,
                          analysis: ProjectAnalysis
                          ) -> List[ProjectFinding]:
    """Inter-procedural R002: wall-clock values flowing into scoped code.

    The per-file R002 flags direct reads inside simulated-time modules;
    this closes the helper-function loophole — a scoped module calling
    an out-of-scope helper that returns ``time.time()`` still smuggles
    wall-clock into the deterministic pipeline.
    """
    findings: List[ProjectFinding] = []
    for facts in project.modules.values():
        scope = facts.scope_path
        if not scope.startswith(SIMULATED_TIME_SCOPES):
            continue
        in_service = scope.startswith("service/")
        for fn in facts.functions:
            module = project.module_of.get(
                f"{facts.module}.{fn.qualname}", facts.module)
            for call in fn.calls:
                if call.kind != "call":
                    continue
                target = project.resolve_call(module, call)
                if target is None:
                    continue
                target_facts = project.modules.get(
                    project.module_of[target])
                if target_facts is not None and \
                        target_facts.scope_path.startswith(
                            SIMULATED_TIME_SCOPES):
                    # the callee's own direct reads are already
                    # covered by the per-file R002 in its module
                    continue
                clocks = analysis.returns_wallclock.get(target, set())
                if in_service:
                    clocks = clocks - SERVICE_CLOCK_ALLOWLIST
                if not clocks:
                    continue
                names = ", ".join(sorted(clocks))
                findings.append((
                    facts.path, call.lineno, call.col, "R002",
                    f"call to '{target.rsplit('.', 1)[-1]}' returns a "
                    f"wall-clock value ({names}) into simulated-time "
                    f"code; plumb logical time through instead "
                    f"[rule R002]"))
    return findings


def run_project_rules(project: Project) -> List[ProjectFinding]:
    """Run every inter-procedural rule; findings sorted by location."""
    analysis = ProjectAnalysis(project)
    findings: List[ProjectFinding] = []
    findings.extend(_check_rng_escape(project, analysis))
    findings.extend(_check_epoch_keys(project))
    findings.extend(_check_blocking_in_async(project, analysis))
    findings.extend(_check_wallclock_flow(project, analysis))
    findings.sort(key=lambda f: (f[0], f[1], f[2], f[3]))
    return findings
