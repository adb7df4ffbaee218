#!/usr/bin/env python
"""Compare a fresh pytest-benchmark JSON export against the committed baseline.

Usage: python tools/compare_bench.py FRESH.json [BASELINE.json]

The baseline defaults to ``BENCH_perf.json`` at the repository root.  The
hard performance gates live *inside* the benchmarks (same-run ratios and
absolute budgets); this comparison is a coarse cross-machine tripwire:

* a benchmark whose minimum is ``FAIL_RATIO`` times slower than the
  recorded baseline minimum fails the job, anything less is reported but
  tolerated (CI runners vary widely in speed);
* a baseline benchmark *missing* from the fresh run fails the job with a
  per-benchmark message — a silently dropped benchmark is a silently
  dropped gate;
* benchmarks exporting ``mem_peak_bytes``/``mem_budget_bytes`` via
  ``extra_info`` are additionally checked against their own budget, and
  against ``MEM_FAIL_RATIO`` times the baseline peak when the baseline
  recorded one.

All failures are listed before the nonzero exit so one CI run shows the
full damage.
"""

import json
import os
import sys

#: A fresh minimum this many times the baseline minimum fails the job.
FAIL_RATIO = 3.0

#: A fresh tracemalloc peak this many times the baseline peak fails the
#: job even while under its absolute budget (memory is far less noisy
#: across runners than wall time, so the tripwire is tighter).
MEM_FAIL_RATIO = 2.0

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {bench["fullname"]: {"min": bench["stats"]["min"],
                                "extra": bench.get("extra_info", {})}
            for bench in payload.get("benchmarks", [])}


def _check_memory(name, fresh_extra, baseline_extra, failures):
    peak = fresh_extra.get("mem_peak_bytes")
    budget = fresh_extra.get("mem_budget_bytes")
    if peak is None:
        return
    if budget is not None and peak > budget:
        failures.append(f"{name}: traced peak {peak} bytes exceeds its "
                        f"own budget of {budget} bytes")
        return
    base_peak = baseline_extra.get("mem_peak_bytes")
    if base_peak:
        ratio = peak / base_peak
        line = (f"    memory: peak {peak} vs baseline {base_peak} bytes "
                f"({ratio:.2f}x)")
        if ratio >= MEM_FAIL_RATIO:
            failures.append(f"{name}: traced peak grew {ratio:.2f}x over "
                            f"the baseline ({peak} vs {base_peak} bytes)")
            line += f"  <-- FAIL (>= {MEM_FAIL_RATIO:.1f}x baseline)"
        print(line)
    else:
        print(f"    memory: peak {peak} bytes within budget {budget}")


def main(argv):
    args = list(argv[1:])
    if not 1 <= len(args) <= 2:
        print(__doc__)
        return 2
    fresh_path = args[0]
    baseline_path = (args[1] if len(args) == 2
                     else os.path.join(_ROOT, "BENCH_perf.json"))
    if not os.path.exists(baseline_path):
        print(f"no baseline at {baseline_path}; nothing to compare")
        return 0
    fresh = _load(fresh_path)
    baseline = _load(baseline_path)
    failures = []
    width = max((len(name) for name in fresh | baseline.keys()), default=20)
    for name in sorted(fresh):
        if name not in baseline:
            print(f"{name:<{width}}  NEW (no baseline)")
            _check_memory(name, fresh[name]["extra"], {}, failures)
            continue
        ratio = fresh[name]["min"] / baseline[name]["min"]
        flag = ""
        if ratio >= FAIL_RATIO:
            flag = f"  <-- FAIL (>= {FAIL_RATIO:.1f}x baseline)"
            failures.append(f"{name}: min {fresh[name]['min']:.4f}s is "
                            f"{ratio:.2f}x the baseline "
                            f"{baseline[name]['min']:.4f}s")
        print(f"{name:<{width}}  {fresh[name]['min']:9.4f}s vs "
              f"{baseline[name]['min']:9.4f}s  ({ratio:5.2f}x){flag}")
        _check_memory(name, fresh[name]["extra"], baseline[name]["extra"],
                      failures)
    for name in sorted(set(baseline) - set(fresh)):
        print(f"{name:<{width}}  MISSING from fresh run  <-- FAIL")
        failures.append(f"{name}: present in {baseline_path} but absent "
                        f"from {fresh_path} — its gate did not run")
    if failures:
        print(f"\n{len(failures)} failure(s) against the committed baseline:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("\nall benchmarks within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
