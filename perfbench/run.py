"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 15 --trace 0

Run from the repository root.  Workloads (see ``BENCHMARK.json`` and
``perfbench/RATIONALE.md``):

* ``campaign`` — the paper-scale sharded campaign, as three processes
  (shard 0, shard 1, merge) sharing one journal directory;
* ``verdict-serve`` — open-loop Poisson verdict traffic into a warm
  ``VerdictService`` frontend;
* ``epoch-roll`` — landmark quarantine churn on a warm service, each
  roll followed by a whole-fleet re-query.

Every process runs from ``src/`` in a fresh private directory that is
its ``HOME``, ``TMPDIR`` and ``XDG_CACHE_HOME`` (and the campaign's
journal directory), with every ``REPRO_*`` variable removed.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run does the workload once untraced and once traced
and reports per-layer metrics from the traced pass, and the tracing
overhead as the difference between the two.  Output checks run on every
pass; a failed check or process exits non-zero.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import checks
import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("campaign", "verdict-serve", "epoch-roll")

#: End-to-end metrics and their units, in BENCHMARK.json order.  The
#: latency tail is a per-layer metric: no tail percentile of verdict
#: traffic held the bounds from seed to seed (see RATIONALE.md).
END_TO_END = {"setup_s": "s", "first_verdict_s": "s", "work_s": "s",
              "p50_ms": "ms", "peak_rss_mib": "MiB"}

#: Per-layer metrics (name, unit, better), in BENCHMARK.json order.
PER_LAYER = [
    ("proc.import_s", "s", "lower"),
    ("experiments.scenario.build_s", "s", "lower"),
    ("netsim.network.warm_paths_s", "s", "lower"),
    ("netsim.atlas.ensure_mesh_s", "s", "lower"),
    ("netsim.atlas.ensure_mesh_calls", "count", "lower"),
    ("core.calibrationset.cbg_s", "s", "lower"),
    ("core.calibrationset.cbg_calls", "count", "lower"),
    ("geo.bank.rows_s", "s", "lower"),
    ("geo.bank.rows_calls", "count", "lower"),
    ("geo.bank.points", "count", "lower"),
    ("core.proxy_adapter.estimate_eta_s", "s", "lower"),
    ("core.twophase.collect_s", "s", "lower"),
    ("core.twophase.servers", "count", "lower"),
    ("experiments.audit.degraded", "count", "lower"),
    ("core.cbgpp.predict_fleet_s", "s", "lower"),
    ("core.cbgpp.fleet_batches", "count", "lower"),
    ("core.cbgpp.fleet_servers", "count", "higher"),
    ("core.cbgpp.predict_s", "s", "lower"),
    ("core.cbgpp.fast_path_share", "ratio", "higher"),
    ("core.assessment.assess_claim_s", "s", "lower"),
    ("core.assessment.calls", "count", "lower"),
    ("experiments.checkpoint.append_s", "s", "lower"),
    ("experiments.checkpoint.finalize_s", "s", "lower"),
    ("experiments.checkpoint.merge_s", "s", "lower"),
    ("experiments.checkpoint.read_s", "s", "lower"),
    ("experiments.checkpoint.bytes", "B", "lower"),
    ("os.fsync_calls", "count", "lower"),
    ("os.fsync_s", "s", "lower"),
    ("experiments.campaign.accept_s", "s", "lower"),
    ("stats.confusion.add_set_s", "s", "lower"),
    ("stats.confusion.add_set_calls", "count", "lower"),
    ("service.frontend.queue_wait_p50_ms", "ms", "lower"),
    ("service.frontend.queue_wait_p99_ms", "ms", "lower"),
    ("service.verdict_batch_s", "s", "lower"),
    ("service.verdict_batch_p50_ms", "ms", "lower"),
    ("service.verdict_batch_p99_ms", "ms", "lower"),
    ("service.batches", "count", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.verdict_cache.hit_ratio", "ratio", "higher"),
    ("service.measurement_cache.hit_ratio", "ratio", "higher"),
    ("service.shed", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("service.roll_epoch_s", "s", "lower"),
    ("service.epoch.capture_s", "s", "lower"),
    ("service.reevaluated", "count", "lower"),
    ("service.carried_forward", "count", "higher"),
    ("tail.p95_ms", "ms", "lower"),
    ("tail.p99_ms", "ms", "lower"),
    ("gc.gen2_collections", "count", "lower"),
    ("gc.gen2_pause_max_ms", "ms", "lower"),
    ("gen.lag_p99_ms", "ms", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.wall_s", "s", "lower"),
    ("host.steal_s", "s", "lower"),
    ("host.loop_ms", "ms", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.unaccounted_max_pct", "%", "lower"),
    ("trace.span_cost_pct", "%", "lower"),
] + [(f"trace.overhead_pct.{name}", "%", "lower") for name in END_TO_END]

#: Workload sizes.  ``toy`` exists for the self-tests only.
SCALES = {
    "full": {"campaign_world": "paper", "max_servers": None, "shards": 2,
             "fleet_limit": None, "setups": 3, "rate": 200.0,
             "zipf_s": 1.0, "other_share": 0.05, "ordinary": 7,
             "sequence_s": 5.0, "precision_floor": 0.9},
    "toy": {"campaign_world": "serve", "max_servers": 12, "shards": 2,
            "fleet_limit": 24, "setups": 2, "rate": 100.0,
            "zipf_s": 1.0, "other_share": 0.05, "ordinary": 1,
            "sequence_s": 5.0, "precision_floor": 0.0},
}

#: Every run measures the seed-0 world (``paper_scale_scenario()`` and
#: the default ``repro serve`` deployment, whose service seed is 0 too);
#: --seed picks the campaign's audit seed and every traffic and churn
#: draw.  From world to world, and from service seed to service seed,
#: the fleet's memory and the churn sequence's work moved by more than
#: the bounds allow (RATIONALE.md).
WORLD_SEED = 0

#: Hard ceiling on one invocation; a run must end within 180 s.
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    """A worker process failed; the run has no result."""


@dataclass
class Proc:
    """One finished worker process."""

    label: str
    launch: float
    exited: float
    result: dict
    trace_path: Optional[str] = None

    def since_launch(self, stamp: str) -> float:
        return self.result["stamps"][stamp] - self.launch


@dataclass
class Pass:
    """One measured execution of a workload (traced or not)."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    digest: str
    procs: List[Proc]
    error: Optional[str] = None
    #: Sample count behind the latency percentiles.
    samples: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


class Runner:
    """Launches isolated worker processes under one deadline."""

    def __init__(self, root: str, seed: int, scale: dict,
                 deadline: float) -> None:
        self.root = root
        self.seed = seed
        self.scale = scale
        self.deadline = deadline
        self.base = os.path.join(root, ".perfbench_runs")

    def fresh_dir(self) -> str:
        os.makedirs(self.base, exist_ok=True)
        return tempfile.mkdtemp(prefix="run-", dir=self.base)

    def environment(self, run_dir: str) -> Dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(HOME=run_dir, TMPDIR=run_dir, XDG_CACHE_HOME=run_dir,
                   PYTHONPATH=os.path.join(self.root, "src"))
        return env

    def spawn(self, run_dir: str, label: str, spec: dict,
              trace: bool) -> Proc:
        spec = dict(spec, seed=self.seed, world_seed=WORLD_SEED,
                    run_dir=run_dir, trace=trace,
                    result=os.path.join(run_dir, f"bench-{label}.json"),
                    trace_out=os.path.join(run_dir, f"trace-{label}.json"))
        spec_path = os.path.join(run_dir, f"bench-{label}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        log_path = os.path.join(run_dir, f"bench-{label}.log")
        with open(log_path, "wb") as log:
            launch = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, WORKER, spec_path, repr(launch)],
                cwd=run_dir, env=self.environment(run_dir), stdout=log,
                stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline
                                             - time.perf_counter()))
            except subprocess.TimeoutExpired:
                raise RunFailed(f"{label}: over the run deadline")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            exited = time.perf_counter()
        if code != 0:
            with open(log_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                tail = handle.read()[-4000:]
            raise RunFailed(f"{label} exited {code}:\n{tail}")
        with open(spec["result"], "r", encoding="utf-8") as handle:
            result = json.load(handle)
        return Proc(label, launch, exited, result,
                    spec["trace_out"] if trace else None)


def _ms(seconds: List[float], percent: float) -> float:
    value = inputs.nearest_rank(seconds, percent)
    return value * 1e3 if value is not None else 0.0


def _tail(samples: List[float]) -> Dict[str, float]:
    return {"tail.p95_ms": _ms(samples, 95), "tail.p99_ms": _ms(samples, 99)}


def _rss_mib(procs: List[Proc]) -> float:
    return max(proc.result["rss_kib"] for proc in procs) / 1024.0


def _keep_traces(procs: List[Proc], keep: List[Tuple[Proc, dict]]) -> None:
    """Load each traced process's spans before its directory goes."""
    for proc in procs:
        if proc.trace_path:
            keep.append((proc, tracer.load(proc.trace_path)))


# -- workloads --------------------------------------------------------------------

def campaign_procs(runner: Runner, run_dir: str,
                   trace: bool) -> List[Proc]:
    """Shard 0, shard 1, then the merge, sharing ``run_dir``."""
    scale = runner.scale
    base = {"world": scale["campaign_world"],
            "max_servers": scale["max_servers"], "shards": scale["shards"]}
    shards = [runner.spawn(run_dir, f"shard{index}",
                           dict(base, mode="campaign-shard",
                                shard_index=index), trace)
              for index in range(scale["shards"])]
    return shards + [runner.spawn(run_dir, "merge",
                                  dict(base, mode="campaign-merge"), trace)]


def check_campaign(runner: Runner, procs: List[Proc]) -> str:
    """The campaign output checks over one run's artifacts."""
    *shards, merge = procs
    with open(merge.result["report"], "r", encoding="utf-8") as handle:
        report_text = handle.read()
    return checks.check_campaign(
        seed=runner.seed, plan_size=merge.result["plan_size"],
        precision_floor=runner.scale["precision_floor"],
        shards=[shard.result["journal"] for shard in shards],
        merged_path=merge.result["merged"], report_text=report_text)


def campaign_pass(runner: Runner, trace: bool,
                  keep: List[Tuple[Proc, dict]]) -> Pass:
    """One campaign in a fresh directory, checked, then cleaned up."""
    run_dir = runner.fresh_dir()
    try:
        procs = campaign_procs(runner, run_dir, trace)
        *shards, merge = procs
        origin = shards[0].launch
        # A server's time to verdict runs from the campaign's launch.
        to_verdict = [stamp - origin for shard in shards
                      for stamp in shard.result["delivered"]]
        plan_size = merge.result["plan_size"]
        error = None
        digest = ""
        try:
            digest = check_campaign(runner, procs)
        except checks.CheckFailed as exc:
            error = str(exc)
        with open(merge.result["report"], "r", encoding="utf-8") as handle:
            merged = json.load(handle).get("n_servers", 0)
        _keep_traces(procs, keep)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return Pass(
        metrics={
            "setup_s": sum(proc.since_launch("built") for proc in procs),
            "first_verdict_s": statistics.median(
                shard.result["delivered"][0] - shard.launch
                for shard in shards),
            "work_s": merge.exited - origin,
            "p50_ms": _ms(to_verdict, 50),
            "peak_rss_mib": _rss_mib(procs)},
        attempted=plan_size, failed=plan_size - merged, digest=digest,
        procs=procs, error=error, samples=len(to_verdict),
        extra={"degraded": sum(shard.result["degraded"]
                               for shard in shards), **_tail(to_verdict)})


def service_pass(runner: Runner, phase: str, seconds: float, trace: bool,
                 setups: int, keep: List[Tuple[Proc, dict]]) -> Pass:
    """``setups`` deployments, each its own fresh process and directory.

    ``serve``: set-up-only deployments, then one that serves the
    traffic (its caches must stay warm for the whole window).  ``roll``:
    the churn sequences are dealt out over the deployments in order, so
    the timed rolls are spread across the run: the host's speed drifts
    over tens of seconds, and one contiguous window of rolls follows that
    drift.  Set-up metrics are medians over all deployments.
    """
    scale = runner.scale
    base = {"mode": "service", "fleet_limit": scale["fleet_limit"],
            "seconds": seconds, "rate": scale["rate"],
            "zipf_s": scale["zipf_s"], "other_share": scale["other_share"],
            "ordinary": scale["ordinary"]}
    sequences = max(1, round(seconds / scale["sequence_s"]))
    procs: List[Proc] = []
    runs: List[dict] = []
    for index in range(setups):
        if phase == "roll":
            repeats = [repeat for repeat in range(sequences)
                       if repeat * setups // sequences == index]
            step = "roll" if repeats else "setup"
        else:
            repeats = []
            step = phase if index == setups - 1 else "setup"
        run_dir = runner.fresh_dir()
        try:
            proc = runner.spawn(run_dir, f"{step}{index}",
                                dict(base, phase=step, repeats=repeats),
                                trace)
            _keep_traces([proc], keep)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        procs.append(proc)
        if step != "setup":
            runs.append(proc.result)
    metrics = {
        "setup_s": statistics.median(
            proc.since_launch("ready") for proc in procs),
        "first_verdict_s": statistics.median(
            proc.since_launch("first") for proc in procs),
        "peak_rss_mib": _rss_mib(procs)}
    extra = {"degraded": sum(result["degraded"] for result in runs)}
    if phase == "serve":
        main = runs[0]
        samples = main["latencies"]
        metrics.update(work_s=main["makespan"], p50_ms=_ms(samples, 50))
        extra.update(lag_p99_ms=_ms(main["lags"], 99),
                     shed=main["frontend"]["shed"],
                     errors=main["frontend"]["errors"])
    else:
        # Latency is the fleet re-query after each roll: its work is the
        # same at every step, where a roll's own cost depends on the
        # landmark it toggles (work_s carries that).
        walls = [sequence["wall"] for result in runs
                 for sequence in result["sequences"]]
        steps = [step for result in runs for sequence in result["sequences"]
                 for step in sequence["steps"]]
        samples = [requery_s for _, requery_s, _, _ in steps]
        metrics.update(work_s=sum(walls), p50_ms=_ms(samples, 50))
        extra.update(reevaluated=sum(step[2] for step in steps),
                     carried_forward=sum(step[3] for step in steps))
    extra.update(_tail(samples))
    for tier in runs[0]["cache"]:
        hits = sum(result["cache"][tier][0] for result in runs)
        misses = sum(result["cache"][tier][1] for result in runs)
        extra[f"{tier}_hit_ratio"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    if phase == "serve":
        digest = runs[0].get("digest", "")
    else:
        # Over every sequence's digest in order, however they were dealt.
        digest = hashlib.sha256("".join(
            sequence for result in runs
            for sequence in result.get("digests", [])).encode(
                "ascii")).hexdigest()
    errors = [result["check_error"] for result in runs
              if "check_error" in result]
    return Pass(metrics=metrics,
                attempted=sum(result["attempted"] for result in runs),
                failed=sum(result["failed"] for result in runs),
                digest=digest, procs=procs,
                error=errors[0] if errors else None,
                samples=len(samples), extra=extra)


def run_pass(runner: Runner, workload: str, seconds: float, trace: bool,
             setups: int, keep: List[Tuple[Proc, dict]]) -> Pass:
    if workload == "campaign":
        return campaign_pass(runner, trace, keep)
    phase = "serve" if workload == "verdict-serve" else "roll"
    return service_pass(runner, phase, seconds, trace, setups, keep)


# -- per-layer metrics ------------------------------------------------------------

def per_layer(traced: Pass, untraced: Pass, traces: List[Tuple[Proc, dict]],
              steal_s: float, loop_ms: float) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass."""
    ledger = tracer.Ledger()
    for proc, trace in traces:
        ledger.add(proc.label, trace, (proc.launch, trace["end"]))
    _stage_table(ledger)
    own = ledger.self_s
    calls = ledger.calls
    fleet_servers = ledger.counts["core.cbgpp.predict_fleet"]
    # Scalar predicts outside a fleet sweep never tried the fast path.
    scalar = calls["core.cbgpp.predict"] - ledger.fleet_fallbacks
    attempts = fleet_servers + scalar
    batches = calls["service.verdict_batch"]
    extra = traced.extra
    metrics = {
        "proc.import_s": own["proc.import"],
        "experiments.scenario.build_s": own["experiments.scenario.build"],
        "netsim.network.warm_paths_s": own["netsim.network.warm_paths"],
        "netsim.atlas.ensure_mesh_s": own["netsim.atlas.ensure_mesh"],
        "netsim.atlas.ensure_mesh_calls": calls["netsim.atlas.ensure_mesh"],
        "core.calibrationset.cbg_s": own["core.calibrationset.cbg"],
        "core.calibrationset.cbg_calls": calls["core.calibrationset.cbg"],
        "geo.bank.rows_s": own["geo.bank.rows"],
        "geo.bank.rows_calls": calls["geo.bank.rows"],
        "geo.bank.points": ledger.counts["geo.bank.rows"],
        "core.proxy_adapter.estimate_eta_s":
            own["core.proxy_adapter.estimate_eta"],
        "core.twophase.collect_s": own["core.twophase.collect"],
        "core.twophase.servers": calls["core.twophase.collect"],
        "experiments.audit.degraded": extra["degraded"],
        "core.cbgpp.predict_fleet_s": own["core.cbgpp.predict_fleet"],
        "core.cbgpp.fleet_batches": calls["core.cbgpp.predict_fleet"],
        "core.cbgpp.fleet_servers": fleet_servers,
        "core.cbgpp.predict_s": own["core.cbgpp.predict"],
        "core.cbgpp.fast_path_share": (
            (fleet_servers - ledger.fleet_fallbacks) / attempts
            if attempts else 0.0),
        "core.assessment.assess_claim_s": own["core.assessment.assess_claim"],
        "core.assessment.calls": calls["core.assessment.assess_claim"],
        "experiments.checkpoint.append_s":
            own["experiments.checkpoint.append"],
        "experiments.checkpoint.finalize_s":
            own["experiments.checkpoint.finalize"],
        "experiments.checkpoint.merge_s": own["experiments.checkpoint.merge"],
        "experiments.checkpoint.read_s": own["experiments.checkpoint.read"],
        "experiments.checkpoint.bytes": ledger.journal_bytes,
        "os.fsync_calls": calls["os.fsync"],
        "os.fsync_s": own["os.fsync"],
        "experiments.campaign.accept_s": own["experiments.campaign.accept"],
        "stats.confusion.add_set_s": own["stats.confusion.add_set"],
        "stats.confusion.add_set_calls": calls["stats.confusion.add_set"],
        "service.frontend.queue_wait_p50_ms": _ms(ledger.queue_waits, 50),
        "service.frontend.queue_wait_p99_ms": _ms(ledger.queue_waits, 99),
        "service.verdict_batch_s": own["service.verdict_batch"],
        "service.verdict_batch_p50_ms":
            _ms(ledger.durations["service.verdict_batch"], 50),
        "service.verdict_batch_p99_ms":
            _ms(ledger.durations["service.verdict_batch"], 99),
        "service.batches": batches,
        "service.batch_size_mean": (
            ledger.counts["service.verdict_batch"] / batches
            if batches else 0.0),
        "service.verdict_cache.hit_ratio": extra.get("verdicts_hit_ratio",
                                                     0.0),
        "service.measurement_cache.hit_ratio":
            extra.get("measurements_hit_ratio", 0.0),
        "service.shed": extra.get("shed", 0),
        "service.errors": extra.get("errors", 0),
        "service.roll_epoch_s": own["service.roll_epoch"],
        "service.epoch.capture_s": own["service.epoch.capture"],
        "service.reevaluated": extra.get("reevaluated", 0),
        "service.carried_forward": extra.get("carried_forward", 0),
        "tail.p95_ms": extra["tail.p95_ms"],
        "tail.p99_ms": extra["tail.p99_ms"],
    }
    metrics.update(diagnostics(traced, steal_s, loop_ms))
    metrics["trace.unaccounted_s"] = ledger.unaccounted_s
    metrics["trace.unaccounted_max_pct"] = max(
        100.0 * unaccounted / wall
        for _, wall, unaccounted in ledger.processes)
    metrics["trace.span_cost_pct"] = 100.0 * sum(
        sum(len(spans) for _, spans in trace["threads"])
        * trace["span_cost_s"] for _, trace in traces) / sum(
        wall for _, wall, _ in ledger.processes)
    for name in END_TO_END:
        metrics[f"trace.overhead_pct.{name}"] = 100.0 * (
            traced.metrics[name] / untraced.metrics[name] - 1.0)
    return metrics


def _loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host is now."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        times.append(time.perf_counter() - began)
    return 1e3 * statistics.median(times)


def diagnostics(result: Pass, steal_s: float,
                loop_ms: float) -> Dict[str, float]:
    """Noise diagnostics: not gated, they tell drift from slowdown."""
    procs = result.procs
    return {
        "gc.gen2_collections": sum(proc.result["gc"]["gen2"]
                                   for proc in procs),
        "gc.gen2_pause_max_ms": 1e3 * max(proc.result["gc"]["max_pause_s"]
                                          for proc in procs),
        "gen.lag_p99_ms": result.extra.get("lag_p99_ms", 0.0),
        "proc.cpu_s": sum(proc.result["cpu_s"] for proc in procs),
        "proc.wall_s": sum(proc.exited - proc.launch for proc in procs),
        "host.steal_s": steal_s,
        "host.loop_ms": loop_ms,
    }


def _steal_ticks() -> Optional[int]:
    """Cumulative steal time of the host's CPUs, in clock ticks."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _stage_table(ledger: tracer.Ledger) -> None:
    for label, wall, unaccounted in ledger.processes:
        print(f"trace {label}: wall {wall:.3f} s, unaccounted "
              f"{unaccounted:.3f} s ({100.0 * unaccounted / wall:.1f}%)")
    for name, seconds in sorted(ledger.self_s.items(),
                                key=lambda item: -item[1]):
        print(f"  {name:<40} self {seconds:9.3f} s  "
              f"calls {ledger.calls[name]}")


# -- entry point ------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="workload size (toy: self-tests only)")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing); "
              "run from the repository root", file=sys.stderr)
        return 2
    # Byte-compile once up front so no measured process pays for it.
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    runner = Runner(root, args.seed, SCALES[args.scale],
                    deadline=began + DEADLINE_S)
    steal = _steal_ticks()
    loop_before = _loop_ms()
    keep: List[Tuple[Proc, dict]] = []
    try:
        if args.trace:
            # One deployment per pass: set-up is not gated here.
            untraced = run_pass(runner, args.workload, args.seconds, False,
                                1, keep)
            result = run_pass(runner, args.workload, args.seconds, True,
                              1, keep)
            result.error = result.error or untraced.error
        else:
            result = run_pass(runner, args.workload, args.seconds, False,
                              runner.scale["setups"], keep)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(runner.base) and not os.listdir(runner.base):
            os.rmdir(runner.base)
    after = _steal_ticks()
    steal_s = ((after - steal) / os.sysconf("SC_CLK_TCK")
               if steal is not None and after is not None else 0.0)
    loop_ms = (loop_before + _loop_ms()) / 2.0

    if result.error:
        print(f"perfbench: output check failed: {result.error}",
              file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed}: {result.digest}")
    if args.trace:
        values = per_layer(result, untraced, keep, steal_s, loop_ms)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
    else:
        noise = dict(diagnostics(result, steal_s, loop_ms),
                     samples=result.samples,
                     **result.extra)
        print("diagnostics: " + ", ".join(
            f"{name} {value:.6g}" for name, value in noise.items()))
        metrics = {name: {"value": result.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not result.error,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if not result.error else 1


if __name__ == "__main__":
    sys.exit(main())
