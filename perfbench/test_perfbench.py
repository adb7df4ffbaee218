"""Self-tests of the benchmark at toy sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

They check that every metric BENCHMARK.json names is emitted with its
unit, that the benchmark fails without a result where there is no
program to measure, and that each output check fails on a tampered
artifact: a flipped byte in a finalized shard journal, a mutated verdict
response, and a churn sequence that skips a release.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import inputs
import run
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = run.SCALES["toy"]


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith(f"digest {workload} seed=3: ")
               for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == {
                entry["name"]: entry["unit"] for entry in named}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_tables_match_benchmark_json():
    spec = _benchmark()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("with_benchmark", [False, True])
def test_no_program_fails_without_a_result(tmp_path, with_benchmark):
    script = os.path.join(ROOT, "perfbench", "run.py")
    if with_benchmark:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        script = os.path.join("perfbench", "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", "campaign", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_are_a_function_of_the_seed():
    claims = ["DE", "FR", "DE", "US"]
    one = inputs.verdict_traffic(5, claims, rate=200.0, seconds=2.0,
                                 zipf_s=1.0, other_share=0.3)
    two = inputs.verdict_traffic(5, claims, rate=200.0, seconds=2.0,
                                 zipf_s=1.0, other_share=0.3)
    hosts = [11, 12, 13, 14]
    assert [one.query(at, hosts) for at in range(len(one))] == [
        two.query(at, hosts) for at in range(len(two))]
    assert one.due_s.tolist() == two.due_s.tolist()
    for at in range(len(one)):
        host, claim = one.query(at, hosts)
        assert (claim == claims[hosts.index(host)]) == bool(one.own[at])
    fanout = {f"lm{at:02d}": at for at in range(20)}
    sets = inputs.churn_sequence(5, ["a1", "a2"], fanout, ordinary=3)
    assert sets == inputs.churn_sequence(5, ["a1", "a2"], fanout,
                                         ordinary=3)
    assert len(sets) == 8 and sets[-1] == frozenset()
    assert max(sets, key=len) == {"a1", "lm09", "lm10", "lm11"}
    assert sets != inputs.churn_sequence(6, ["a1", "a2"], fanout,
                                         ordinary=3)
    again = inputs.churn_sequence(5, ["a1", "a2"], fanout, ordinary=3,
                                  repeat=1)
    assert again != sets and max(again, key=len) == max(sets, key=len)


# -- tampered artifacts ---------------------------------------------------------

@pytest.fixture(scope="module")
def campaign_run(tmp_path_factory):
    runner = run.Runner(ROOT, seed=4, scale=TOY,
                        deadline=time.perf_counter() + 160)
    run_dir = str(tmp_path_factory.mktemp("campaign"))
    return runner, run.campaign_procs(runner, run_dir, trace=False)


def _flip(path: str, offset_from_end: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(-offset_from_end, os.SEEK_END)
        byte = handle.read(1)
        handle.seek(-offset_from_end, os.SEEK_END)
        handle.write(bytes([byte[0] ^ 0x01]))


def test_campaign_check_rejects_a_flipped_journal_byte(campaign_run):
    runner, procs = campaign_run
    digest = run.check_campaign(runner, procs)
    assert digest == run.check_campaign(runner, procs)
    journal = procs[1].result["journal"]["path"]
    with open(journal, "rb") as handle:
        original = handle.read()
    try:
        # Offsets from the end: the last record, evenly spaced records,
        # and the header.
        for offset in list(range(3, len(original), len(original) // 16)) + [
                len(original) - 5, len(original) - 60]:
            _flip(journal, offset)
            with pytest.raises(checks.CheckFailed):
                run.check_campaign(runner, procs)
            _flip(journal, offset)
        assert run.check_campaign(runner, procs) == digest
    finally:
        with open(journal, "wb") as handle:
            handle.write(original)


def test_campaign_check_holds_the_precision_floor(campaign_run):
    runner, procs = campaign_run
    strict = run.Runner(ROOT, seed=runner.seed,
                        scale=dict(TOY, precision_floor=1.01),
                        deadline=runner.deadline)
    with pytest.raises(checks.CheckFailed, match="precision"):
        run.check_campaign(strict, procs)


@pytest.fixture(scope="module")
def warm_service():
    from repro.service import VerdictService
    scenario = worker.world("serve", 2)
    verdicts = VerdictService(scenario, seed=2)
    fleet = scenario.all_servers()[:TOY["fleet_limit"]]
    warm = verdicts.verdict_batch([(server, None) for server in fleet])
    return scenario, verdicts, fleet, warm


def _replies(verdicts, fleet):
    """Each host's own claim twice and one other claim, with replies."""
    other = fleet[-1].claimed_country
    queries = ([(server.host.host_id, server.claimed_country)
                for server in fleet] * 2
               + [(server.host.host_id, other) for server in fleet[:3]])
    own = [claim == server.claimed_country for server, (_, claim)
           in zip(fleet * 2 + fleet[:3], queries)]
    return queries, own, verdicts.verdict_batch(queries)


def _observe(warm, queries, own, replies) -> str:
    check = checks.ServeCheck(
        {response.host_id: response.canonical_json() for response in warm},
        len(queries))
    for at, (query, reply) in enumerate(zip(queries, replies)):
        check.observe(at, query, own[at], reply)
    return check.finish()


def test_serve_check_rejects_a_mutated_response(warm_service):
    _scenario, verdicts, fleet, warm = warm_service
    queries, own, replies = _replies(verdicts, fleet)
    digest = _observe(warm, queries, own, replies)
    assert digest == _observe(warm, queries, own, replies)
    last = len(fleet) + 1  # a repeat of an own-claim query
    mutated = dataclasses.replace(replies[last], area_km2=1.0)
    assert mutated.canonical_json() != replies[last].canonical_json()
    first = dataclasses.replace(replies[1], verdict="not-" +
                                replies[1].verdict)
    for tampered in (replies[:last] + [mutated] + replies[last + 1:],
                     replies[:1] + [first] + replies[2:],
                     [RuntimeError("boom")] + replies[1:]):
        with pytest.raises(checks.CheckFailed):
            _observe(warm, queries, own, tampered)
    check = checks.ServeCheck({}, 2)
    check.observe(0, queries[0], False, replies[0])
    with pytest.raises(checks.CheckFailed, match="answered 0 times"):
        check.finish()


def test_roll_check_rejects_a_skipped_release(warm_service, monkeypatch):
    scenario, verdicts, fleet, warm = warm_service
    spec = {"seed": 2, "ordinary": 1, "repeats": [0, 1]}
    out: dict = {}
    worker.roll(spec, verdicts, scenario, fleet, warm, out)
    assert "check_error" not in out, out.get("check_error")
    assert out["attempted"] == 16
    churn = inputs.churn_sequence
    monkeypatch.setattr(inputs, "churn_sequence",
                        lambda *args, **kwargs: churn(*args, **kwargs)[:-1])
    skipped: dict = {}
    worker.roll(spec, verdicts, scenario, fleet, warm, skipped)
    assert "digests" not in skipped
    assert "starting epoch" in skipped["check_error"]
