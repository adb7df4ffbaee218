"""Outside-in stage tracing: spans around calls into the program's layers.

The tracer never edits the program.  :func:`install` replaces each
public function or method named in :data:`LAYERS` with a wrapper that
records a span — name, start, end, parent, a per-call count and, for
``verdict_batch``, the ids of the requests it answered — and,
where another module imported the function by name, rebinds that name
too.  Spans live in memory, one stack and one list per thread (the
verdict frontend runs ``verdict_batch`` on an executor thread), and
:func:`dump` writes them out when the process ends.

A layer's self time is its span minus the time its child spans cover,
so the self times of one process plus its unaccounted time add up to
the process's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span fields: name, start, end, parent index, child time, count, and
#: the ids of the frontend requests the span served (or None).
NAME, START, END, PARENT, CHILDREN, COUNT, REQUESTS = range(7)


def _len_arg(position: int) -> Callable[..., int]:
    """A counter reading ``len`` of one positional argument."""
    def count(args: tuple, kwargs: dict, result: object) -> int:
        return len(args[position]) if len(args) > position else 0
    return count


#: (module, attribute path, span name, per-call count).  The count
#: defaults to 1; a callable reads it from (args, kwargs, result).
LAYERS: List[Tuple[str, str, str, Optional[Callable[..., int]]]] = [
    ("repro.experiments.scenario", "build_scenario",
     "experiments.scenario.build", None),
    ("repro.netsim.network", "Network.warm_paths",
     "netsim.network.warm_paths", None),
    ("repro.netsim.atlas", "AtlasConstellation.ensure_mesh",
     "netsim.atlas.ensure_mesh", None),
    ("repro.core.calibrationset", "CalibrationSet.cbg",
     "core.calibrationset.cbg", None),
    ("repro.geo.bank", "DistanceBank.rows", "geo.bank.rows", _len_arg(1)),
    ("repro.core.proxy_adapter", "estimate_eta",
     "core.proxy_adapter.estimate_eta", None),
    ("repro.core.twophase", "TwoPhaseDriver.collect",
     "core.twophase.collect", None),
    ("repro.core.cbgpp", "CBGPlusPlus.predict_fleet",
     "core.cbgpp.predict_fleet", _len_arg(1)),
    ("repro.core.cbgpp", "CBGPlusPlus.predict", "core.cbgpp.predict", None),
    ("repro.core.assessment", "assess_claim",
     "core.assessment.assess_claim", None),
    ("repro.experiments.checkpoint", "AuditCheckpoint.append",
     "experiments.checkpoint.append", None),
    ("repro.experiments.checkpoint", "AuditCheckpoint.finalize",
     "experiments.checkpoint.finalize", None),
    ("repro.experiments.checkpoint", "AuditCheckpoint.merge_from",
     "experiments.checkpoint.merge", None),
    ("repro.experiments.campaign", "CampaignAggregator.accept",
     "experiments.campaign.accept", None),
    ("repro.stats.confusion", "CooccurrenceMatrix.add_set",
     "stats.confusion.add_set", None),
    ("repro.service.verdict", "VerdictService.verdict_batch",
     "service.verdict_batch", _len_arg(1)),
    ("repro.service.verdict", "VerdictService.roll_epoch",
     "service.roll_epoch", None),
    ("repro.service.epoch", "TopologyEpoch.capture",
     "service.epoch.capture", None),
]

#: Journal writers whose output size is counted as journal bytes.
_JOURNAL_WRITERS = {"experiments.checkpoint.append",
                    "experiments.checkpoint.finalize",
                    "experiments.checkpoint.merge"}


class Recorder:
    """Spans of one process, kept per thread until :meth:`dump`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[Tuple[str, list]] = []
        self._lock = threading.Lock()
        #: id(query) -> (request id, enqueue time) while it is queued.
        self.enqueued: Dict[int, Tuple[int, float]] = {}
        #: (request id, enqueue time, answer time) per frontend request.
        self.requests: List[Tuple[int, float, float]] = []
        #: Seconds each query spent queued before its batch started.
        self.queue_waits: List[float] = []
        self.journal_bytes = 0

    def _spans(self) -> Tuple[list, list]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, local.spans))
        return local.spans, local.stack

    def enter(self, name: str, requests: Optional[List[int]] = None) -> int:
        spans, stack = self._spans()
        parent = stack[-1] if stack else -1
        spans.append([name, time.perf_counter(), 0.0, parent, 0.0, 1,
                      requests])
        stack.append(len(spans) - 1)
        return len(spans) - 1

    def leave(self, at: int, count: int = 1) -> None:
        spans, stack = self._spans()
        span = spans[at]
        span[END] = time.perf_counter()
        span[COUNT] = count
        stack.pop()
        if span[PARENT] >= 0:
            spans[span[PARENT]][CHILDREN] += span[END] - span[START]

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (e.g. process start to imports)."""
        spans, stack = self._spans()
        parent = stack[-1] if stack else -1
        spans.append([name, start, end, parent, 0.0, 1, None])
        if parent >= 0:
            spans[parent][CHILDREN] += end - start

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def dump(self, path: str, **extra: object) -> None:
        with self._lock:
            threads = [(name, list(spans)) for name, spans in self._threads]
        payload = dict(extra)
        payload.update(threads=threads, queue_waits=self.queue_waits,
                       requests=self.requests,
                       journal_bytes=self.journal_bytes)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._at = -1

    def __enter__(self) -> "_Span":
        self._at = self._recorder.enter(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        self._recorder.leave(self._at)


def _wrap(recorder: Recorder, fn: Callable, name: str,
          count: Optional[Callable[..., int]]) -> Callable:
    journal = name in _JOURNAL_WRITERS
    # An append grows the journal; finalize and merge write it whole.
    grows = name == "experiments.checkpoint.append"
    queue = name == "service.verdict_batch"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        requests = None
        if queue and len(args) > 1:
            now = time.perf_counter()
            requests = []
            for query in args[1]:
                entry = recorder.enqueued.pop(id(query), None)
                if entry is not None:
                    requests.append(entry[0])
                    recorder.queue_waits.append(now - entry[1])
        at = recorder.enter(name, requests)
        size = _journal_size(args) if grows else 0
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if journal:
                recorder.journal_bytes += _journal_size(args) - size
            recorder.leave(at, count(args, kwargs, result) if count else 1)
    return wrapper


def _journal_size(args: tuple) -> int:
    """Size of the journal a checkpoint method writes (0 if absent)."""
    try:
        return os.path.getsize(args[0].path)
    except (OSError, AttributeError, IndexError):
        return 0


def _wrap_reads(recorder: Recorder, fn: Callable) -> Callable:
    """Time each step of a journal-reading generator as one span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            at = recorder.enter("experiments.checkpoint.read")
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.leave(at)
            yield item
    return wrapper


def _wrap_enqueue(recorder: Recorder, fn: Callable) -> Callable:
    """Number each request and time it (no span: it awaits)."""
    ids = itertools.count()

    @functools.wraps(fn)
    async def wrapper(self, query):
        request = next(ids)
        enqueued = time.perf_counter()
        recorder.enqueued[id(query)] = (request, enqueued)
        try:
            return await fn(self, query)
        finally:
            recorder.requests.append((request, enqueued,
                                      time.perf_counter()))
    return wrapper


def _wrap_fsync(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(fd):
        at = recorder.enter("os.fsync")
        try:
            return fn(fd)
        finally:
            recorder.leave(at)
    return wrapper


def _replace(owner: object, attr: str, make: Callable[[Callable], Callable]
             ) -> Callable:
    """Swap ``owner.attr`` for ``make(original)``, keeping its kind."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        original = raw.__func__
        setattr(owner, attr, classmethod(make(original)))
    elif isinstance(raw, staticmethod):
        original = raw.__func__
        setattr(owner, attr, staticmethod(make(original)))
    else:
        original = raw
        setattr(owner, attr, make(original))
    return original


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point in the program's loaded modules."""
    for module_name, path, name, count in LAYERS:
        module = importlib.import_module(module_name)
        owner: object = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = _replace(owner, attr,
                            lambda fn: _wrap(recorder, fn, name, count))
        if owner is module:
            # Rebind the name wherever a caller imported it directly.
            wrapped = getattr(module, attr)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("repro")
                        and other is not module
                        and getattr(other, attr, None) is original):
                    setattr(other, attr, wrapped)

    checkpoint = importlib.import_module("repro.experiments.checkpoint")
    _replace(checkpoint.AuditCheckpoint, "iter_payloads",
             lambda fn: _wrap_reads(recorder, fn))
    frontend = importlib.import_module("repro.service.frontend")
    _replace(frontend.ServiceFrontend, "enqueue",
             lambda fn: _wrap_enqueue(recorder, fn))
    os.fsync = _wrap_fsync(recorder, os.fsync)


# -- analysis -----------------------------------------------------------------

class Ledger:
    """Per-layer totals over one or more traced processes."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.queue_waits: List[float] = []
        self.journal_bytes = 0
        #: Scalar predicts issued from inside predict_fleet (fallbacks).
        self.fleet_fallbacks = 0
        #: (process label, wall seconds, unaccounted seconds) per process.
        self.processes: List[Tuple[str, float, float]] = []

    def add(self, label: str, trace: dict, wall: Tuple[float, float]) -> None:
        """Fold one process's trace; ``wall`` is its (start, end)."""
        covered: List[Tuple[float, float]] = []
        for _thread, spans in trace["threads"]:
            for span in spans:
                name = span[NAME]
                duration = span[END] - span[START]
                self.self_s[name] += duration - span[CHILDREN]
                self.calls[name] += 1
                self.counts[name] += span[COUNT]
                self.durations[name].append(duration)
                parent = span[PARENT]
                if (name == "core.cbgpp.predict" and parent >= 0
                        and spans[parent][NAME] == "core.cbgpp.predict_fleet"):
                    self.fleet_fallbacks += 1
                if parent < 0:
                    covered.append((span[START], span[END]))
        self.queue_waits.extend(trace["queue_waits"])
        self.journal_bytes += trace["journal_bytes"]
        start, end = wall
        self.processes.append(
            (label, end - start,
             max(0.0, (end - start) - _union(covered, start, end))))

    @property
    def unaccounted_s(self) -> float:
        return sum(unaccounted for _, _, unaccounted in self.processes)


def _union(intervals: Iterable[Tuple[float, float]], lo: float,
           hi: float) -> float:
    """Total length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def calibrate(calls: int = 20000) -> float:
    """Seconds one recorded span costs, measured on a no-op."""
    def noop() -> None:
        return None

    wrapped = _wrap(Recorder(), noop, "calibration", None)
    began = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - began
    began = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, time.perf_counter() - began - bare) / calls
