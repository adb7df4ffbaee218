"""One process of a benchmark run: ``python3 worker.py <spec.json> <launch>``.

The harness (``run.py``) launches this in a fresh private directory with
a clean environment and writes a JSON spec naming what to do:

* ``campaign-shard`` / ``campaign-merge`` — one step of the
  ``repro campaign --shard-index`` flow over the paper-scale world;
* ``service`` — deploy a warm ``VerdictService`` (the ``repro serve
  --warm`` deployment) and then, per ``phase``, stop (``setup``), serve
  open-loop verdict traffic (``serve``) or roll epochs under landmark
  churn (``roll``).

Times are ``time.perf_counter`` stamps, which on Linux read the
system-wide monotonic clock, so the harness can subtract its own launch
stamp.  The result goes to ``spec["result"]`` as JSON.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import selectors  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402


class GcMonitor:
    """Counts full (generation-2) collections and their longest pause."""

    def __init__(self) -> None:
        self.collections = 0
        self.max_pause_s = 0.0
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.collections += 1
            self.max_pause_s = max(self.max_pause_s,
                                   time.perf_counter() - self._began)


def world(kind: str, seed: int):
    """The seed's paper-scale world, or its ``repro serve`` deployment."""
    from repro.experiments import scenario
    if kind == "paper":
        return scenario.paper_scale_scenario(seed)
    return scenario.default_scenario(seed)


# -- campaign -------------------------------------------------------------------

def campaign_shard(spec: dict, stamps: Dict[str, float], out: dict) -> None:
    from repro.experiments.campaign import (DeploymentPlan, ShardTally,
                                            run_campaign_shard, shard_bounds)
    from repro.experiments.checkpoint import AuditCheckpoint
    scenario = world(spec["world"], spec["world_seed"])
    stamps["built"] = time.perf_counter()

    # When each verdict reaches the shard's sink.
    delivered: List[float] = []
    degraded = [0]
    accept = ShardTally.accept

    def stamped(self, record):
        accept(self, record)
        delivered.append(time.perf_counter())
        degraded[0] += bool(record.degraded)

    ShardTally.accept = stamped
    plan = DeploymentPlan(max_servers=spec.get("max_servers"))
    try:
        summary = run_campaign_shard(
            scenario, plan, shards=spec["shards"],
            shard_index=spec["shard_index"], journal_dir=spec["run_dir"],
            seed=spec["seed"], workers=1)
    finally:
        ShardTally.accept = accept
    stamps["done"] = time.perf_counter()

    servers = plan.expand(scenario)
    lo, hi = shard_bounds(len(servers), spec["shards"])[spec["shard_index"]]
    out.update(
        delivered=delivered, degraded=degraded[0],
        journal={"path": summary.journal_path, "n_servers": hi - lo,
                 "fleet": AuditCheckpoint.fleet_digest(
                     server.host.host_id for server in servers[lo:hi])})


def campaign_merge(spec: dict, stamps: Dict[str, float], out: dict) -> None:
    from repro.experiments.campaign import (MERGED_JOURNAL, DeploymentPlan,
                                            merge_campaign)
    scenario = world(spec["world"], spec["world_seed"])
    stamps["built"] = time.perf_counter()
    plan = DeploymentPlan(max_servers=spec.get("max_servers"))
    report = merge_campaign(scenario, plan, shards=spec["shards"],
                            journal_dir=spec["run_dir"], seed=spec["seed"])
    report_path = os.path.join(spec["run_dir"], "report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    stamps["done"] = time.perf_counter()
    out.update(plan_size=len(plan.expand(scenario)), report=report_path,
               merged=os.path.join(spec["run_dir"], MERGED_JOURNAL))


# -- service --------------------------------------------------------------------

def service(spec: dict, stamps: Dict[str, float], out: dict,
            recorder: Optional[tracer.Recorder]) -> None:
    from repro.service import VerdictService
    scenario = world("serve", spec["world_seed"])
    stamps["built"] = time.perf_counter()
    verdicts = VerdictService(scenario, seed=spec["world_seed"])
    fleet = scenario.all_servers()[:spec.get("fleet_limit")]
    verdicts.verdict(fleet[0])
    stamps["first"] = time.perf_counter()
    warm = verdicts.verdict_batch([(server, None) for server in fleet])
    stamps["ready"] = time.perf_counter()
    out["degraded"] = sum(response.degraded for response in warm)
    if spec["phase"] == "serve":
        serve(spec, verdicts, fleet, warm, out, recorder)
    elif spec["phase"] == "roll":
        roll(spec, verdicts, scenario, fleet, warm, out)
    stamps["done"] = time.perf_counter()


def _cache_counts(verdicts) -> Dict[str, List[int]]:
    return {tier: [info.hits, info.misses]
            for tier, info in verdicts.cache_info().items()}


def _cache_delta(before: Dict[str, List[int]],
                 after: Dict[str, List[int]]) -> Dict[str, List[int]]:
    return {tier: [after[tier][0] - before[tier][0],
                   after[tier][1] - before[tier][1]] for tier in after}


def serve(spec: dict, verdicts, fleet, warm, out: dict,
          recorder: Optional[tracer.Recorder]) -> None:
    """Serve the seeded open-loop traffic through ``ServiceFrontend``.

    Per request the harness keeps two floats and a byte: replies are
    checked as they arrive and dropped, and finished tasks are released,
    so the harness adds nothing for the collector to walk.
    """
    from repro.service.frontend import ServiceFrontend
    host_ids = [server.host.host_id for server in fleet]
    traffic = inputs.verdict_traffic(
        spec["seed"], [server.claimed_country for server in fleet],
        rate=spec["rate"], seconds=spec["seconds"], zipf_s=spec["zipf_s"],
        other_share=spec["other_share"])
    n = len(traffic)
    due = traffic.due_s.tolist()
    own = traffic.own.tolist()
    finished = array("d", bytes(8 * n))
    lags = array("d", bytes(8 * n))
    served = bytearray(n)
    check = checks.ServeCheck(
        {response.host_id: response.canonical_json() for response in warm}, n)
    frontend = ServiceFrontend(verdicts)
    before = _cache_counts(verdicts)

    async def one(at: int) -> None:
        query = traffic.query(at, host_ids)
        try:
            reply = await frontend.enqueue(query)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            reply = exc
        finished[at] = time.perf_counter()
        served[at] = check.observe(at, query, own[at], reply)

    async def drive() -> float:
        loop = asyncio.get_running_loop()
        running = set()
        origin = time.perf_counter() + 0.005
        sent = 0
        while sent < n:
            now = time.perf_counter() - origin
            while sent < n and due[sent] <= now:
                lags[sent] = now - due[sent]
                task = loop.create_task(one(sent))
                running.add(task)
                task.add_done_callback(running.discard)
                sent += 1
            if sent < n:
                await asyncio.sleep(max(0.0, due[sent]
                                        - (time.perf_counter() - origin)))
        await asyncio.gather(*running)
        frontend.close()
        return origin

    # select() sleeps to the microsecond where epoll rounds up to whole
    # milliseconds, so requests leave on schedule without busy-waiting.
    with recorder.span("bench.traffic") if recorder else nullcontext():
        with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(
                selectors.SelectSelector())) as runner:
            origin = runner.run(drive())
    after = _cache_counts(verdicts)

    # Shed, errored and unanswered requests miss every latency limit.
    latencies = [finished[at] - origin - due[at] if served[at]
                 else float("inf") for at in range(n)]
    out.update(
        attempted=n, failed=n - sum(served), latencies=latencies,
        lags=lags.tolist(), makespan=max(finished) - origin if n else 0.0,
        cache=_cache_delta(before, after),
        frontend={"shed": frontend.stats.shed,
                  "errors": frontend.stats.errors,
                  "batches": frontend.stats.batches})
    try:
        out["digest"] = check.finish()
    except checks.CheckFailed as exc:
        out["check_error"] = str(exc)


def roll(spec: dict, verdicts, scenario, fleet, warm, out: dict) -> None:
    """Run one churn sequence per index in ``spec["repeats"]``.

    Each step is one ``roll_epoch`` and a whole-fleet re-query.  Every
    sequence churns the same landmarks and restores the starting epoch,
    so each must end on the pre-roll bytes; each index draws its own
    orders, so a run covers several orders.
    """
    from repro.core.twophase import TwoPhaseSelector
    anchors = [landmark.name for landmark in TwoPhaseSelector(
        scenario.atlas, seed=verdicts.seed).phase1_landmarks()]
    fanout = Counter(name for response in warm
                     for name in response.used_landmarks)
    queries = [(server, None) for server in fleet]
    pre = [response.canonical_json() for response in warm]
    start_digest = verdicts.epoch.digest
    before = _cache_counts(verdicts)
    sequences = []
    for repeat in spec["repeats"]:
        sets = inputs.churn_sequence(spec["seed"], anchors, dict(fanout),
                                     ordinary=spec["ordinary"],
                                     repeat=repeat)
        steps = []
        opened = time.perf_counter()
        for quarantined in sets:
            stepped = time.perf_counter()
            stats = verdicts.roll_epoch(quarantined=quarantined)
            rolled = time.perf_counter()
            responses = verdicts.verdict_batch(queries)
            requeried = time.perf_counter()
            steps.append((stats, [r.epoch_digest for r in responses],
                          (rolled - stepped, requeried - rolled)))
        final = [r.canonical_json() for r in responses]
        sequences.append((time.perf_counter() - opened, steps, final))
    after = _cache_counts(verdicts)

    try:
        out["digests"] = [checks.check_roll(
            start_digest=start_digest, pre=pre,
            steps=[{"new_digest": stats.new_digest, "cited": cited,
                    "reevaluated": stats.reevaluated,
                    "carried_forward": stats.carried_forward}
                   for stats, cited, _ in steps],
            final=final) for _wall, steps, final in sequences]
    except checks.CheckFailed as exc:
        out["check_error"] = str(exc)
    out.update(
        attempted=2 * sum(len(steps) for _, steps, _ in sequences),
        failed=0,
        sequences=[{"wall": wall,
                    "steps": [[roll_s, requery_s, stats.reevaluated,
                               stats.carried_forward]
                              for stats, _, (roll_s, requery_s) in steps]}
                   for wall, steps, _ in sequences],
        cache=_cache_delta(before, after))


# -- entry point ----------------------------------------------------------------

def main(spec_path: str, launch: float) -> int:
    monitor = GcMonitor()
    gc.callbacks.append(monitor)
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    stamps: Dict[str, float] = {"started": _STARTED}
    out: dict = {}
    recorder: Optional[tracer.Recorder] = None
    import repro.experiments.campaign  # noqa: F401 - timed as start-up
    import repro.service  # noqa: F401
    import repro.service.frontend  # noqa: F401
    stamps["imported"] = time.perf_counter()
    if spec["trace"]:
        recorder = tracer.Recorder()
        recorder.record("proc.import", launch, stamps["imported"])
        tracer.install(recorder)
    mode = spec["mode"]
    if mode == "campaign-shard":
        campaign_shard(spec, stamps, out)
    elif mode == "campaign-merge":
        campaign_merge(spec, stamps, out)
    elif mode == "service":
        service(spec, stamps, out, recorder)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(stamps=stamps, rss_kib=usage.ru_maxrss,
               cpu_s=usage.ru_utime + usage.ru_stime,
               gc={"gen2": monitor.collections,
                   "max_pause_s": monitor.max_pause_s})
    if recorder is not None:
        end = time.perf_counter()
        recorder.dump(spec["trace_out"], end=end,
                      span_cost_s=tracer.calibrate())
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
