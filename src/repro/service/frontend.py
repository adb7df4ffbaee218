"""The asyncio front end: bounded queues over the verdict service.

Newline-delimited JSON over TCP: each request line is
``{"host": <hostname|host_id>, "claim": <country|null>}`` and each
response line is a full :class:`~repro.service.verdict.VerdictResponse`
serialisation plus the measured ``latency_ms``.  A request the service
cannot answer gets ``{"error": <message>, "error_type": <kind>}``
instead, the kind one of ``invalid_json``, ``not_an_object``,
``missing_host``, ``unknown_host``, ``unknown_claim`` or ``internal``;
a line longer than the stream limit (64 KiB) is answered once with
``request_too_large`` and the connection is closed.

The concurrency story is deliberately simple and bounded:

* arrivals land in one ``asyncio.Queue`` whose size is capped
  (``queue_max``); when it is full the request is immediately *shed* as
  a degraded verdict instead of queueing without bound — overload
  degrades answers, never latency;
* a single drainer task pulls whatever has accumulated (up to the
  service's ``batch_max``) and evaluates it as **one**
  ``verdict_batch`` call — concurrently-arriving uncached queries
  coalesce into single ``predict_fleet`` sweeps for free.

``time.monotonic`` is used for latency instrumentation only — this is
the one module family where reprolint R002 allows it; verdicts
themselves never read the wall clock.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .verdict import VerdictResponse, VerdictService

#: Bytes of an oversized line read past (to answer it cleanly) before
#: the connection is dropped without waiting for its end.
_SKIP_BUDGET = 1 << 20


class RequestError(ValueError):
    """A request line the service cannot answer; ``kind`` names why."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next request line (``b""`` at end of stream).

    An over-limit line raises :class:`RequestError` only after the rest
    of it has been read past, so closing the connection afterwards
    cannot reset the reply away with unread bytes.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    skipped = 0
    while skipped < _SKIP_BUDGET:
        try:
            await reader.readexactly(consumed)
            await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError:
            break
        except asyncio.LimitOverrunError as exc:
            skipped += consumed
            consumed = exc.consumed
    raise RequestError("request_too_large",
                       "request line exceeds the 64 KiB stream limit")


def _parse_request(line: bytes) -> Tuple[Any, Any]:
    """The ``(host, claim)`` of a request line, unvalidated."""
    try:
        request = json.loads(line)
    except ValueError as exc:
        raise RequestError("invalid_json",
                           f"request is not JSON: {exc}") from None
    if not isinstance(request, dict):
        raise RequestError("not_an_object", "request must be a JSON object, "
                           f"got {type(request).__name__}")
    if "host" not in request:
        raise RequestError("missing_host", "request has no \"host\" field")
    return request["host"], request.get("claim")


@dataclass
class FrontendStats:
    """Flat counters over the frontend's lifetime (no per-request state)."""

    requests: int = 0
    responses: int = 0
    shed: int = 0
    errors: int = 0
    batches: int = 0
    max_batch: int = 0


class ServiceFrontend:
    """Bounded-queue micro-batching front end for a `VerdictService`."""

    def __init__(self, service: VerdictService,
                 queue_max: int = 256) -> None:
        if queue_max < 1:
            raise ValueError(f"queue_max must be >= 1, got {queue_max!r}")
        self.service = service
        self.queue_max = queue_max
        self.stats = FrontendStats()
        self._queue: Optional[asyncio.Queue] = None
        self._drainer: Optional[asyncio.Task] = None

    # -- queue + batching core ------------------------------------------------

    def _ensure_started(self) -> None:
        """Create the bounded queue and drainer inside the running loop."""
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.queue_max)
            self._drainer = asyncio.get_running_loop().create_task(
                self._drain())

    async def enqueue(self, query: Tuple[object, Optional[str]]
                      ) -> VerdictResponse:
        """Queue one query; shed a degraded verdict when over capacity.

        This is the graceful-degradation seam: a full queue means the
        back end is saturated, and the bounded answer is an immediate
        ``degraded`` verdict, not an unbounded wait.
        """
        self._ensure_started()
        assert self._queue is not None
        target, claim = query
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.stats.requests += 1
        try:
            self._queue.put_nowait((query, future))
        except asyncio.QueueFull:
            self.stats.shed += 1
            return VerdictResponse.shed_response(
                hostname=str(target), claim=claim if claim else "",
                epoch_digest=self.service.epoch.digest)
        return await future

    async def _drain(self) -> None:
        """The single batcher: coalesce arrivals, evaluate, resolve."""
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.service.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.batches += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            queries = [query for query, _ in batch]
            loop = asyncio.get_running_loop()
            try:
                responses = await loop.run_in_executor(
                    None, self.service.verdict_batch, queries)
            except Exception as exc:  # noqa: BLE001 - resolved per future
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (_, future), response in zip(batch, responses):
                if not future.done():
                    future.set_result(response)
                self.stats.responses += 1

    # -- TCP protocol ---------------------------------------------------------

    def _check(self, target: Any, claim: Any) -> None:
        """Reject a query the micro-batch it joins would fail on."""
        try:
            self.service.resolve_target(target)
        except (KeyError, TypeError) as exc:
            raise RequestError("unknown_host", str(exc)) from None
        if claim is not None and (
                not isinstance(claim, str)
                or claim not in self.service.scenario.worldmap.registry):
            raise RequestError("unknown_claim",
                               f"unknown claimed country {claim!r}")

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One connection: a JSON request per line, a JSON verdict back.

        Every request gets exactly one reply line; a bad request is
        answered with a typed error (counted in ``stats.errors``) and
        never reaches the batch queue, so it cannot fail the requests
        it would have been batched with.
        """
        try:
            while True:
                started = time.monotonic()
                oversized = False
                try:
                    line = await _read_line(reader)
                    if not line:
                        break
                    started = time.monotonic()
                    target, claim = _parse_request(line)
                    self._check(target, claim)
                    response = await self.enqueue((target, claim))
                    payload = json.loads(response.to_json())
                except RequestError as exc:
                    self.stats.errors += 1
                    oversized = exc.kind == "request_too_large"
                    payload = {"error": str(exc), "error_type": exc.kind}
                except Exception as exc:  # noqa: BLE001 - sent to the client
                    self.stats.errors += 1
                    payload = {"error": f"{type(exc).__name__}: {exc}",
                               "error_type": "internal"}
                payload["latency_ms"] = round(
                    (time.monotonic() - started) * 1e3, 3)
                writer.write((json.dumps(payload, sort_keys=True) + "\n")
                             .encode())
                await writer.drain()
                if oversized:
                    break
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # server teardown mid-connection is a normal exit
        finally:
            writer.close()

    async def serve(self, host: str = "127.0.0.1", port: int = 0,
                    ready: Optional[asyncio.Event] = None,
                    max_requests: Optional[int] = None) -> None:
        """Accept connections until cancelled (or ``max_requests`` served).

        ``port=0`` binds an ephemeral port; the bound address is stored
        on ``self.bound`` once listening (and ``ready`` is set, for
        tests that need to connect as soon as the socket exists).
        """
        self._ensure_started()
        server = await asyncio.start_server(self.handle, host, port)
        self.bound = server.sockets[0].getsockname()
        if ready is not None:
            ready.set()
        async with server:
            if max_requests is None:
                await server.serve_forever()
            else:
                while self.stats.responses + self.stats.shed \
                        + self.stats.errors < max_requests:
                    await asyncio.sleep(0.01)

    def close(self) -> None:
        """Cancel the drainer task (pending futures are abandoned)."""
        if self._drainer is not None:
            self._drainer.cancel()
            self._drainer = None
        self._queue = None


def serve_blocking(frontend: ServiceFrontend, host: str = "127.0.0.1",
                   port: int = 8737,
                   max_requests: Optional[int] = None) -> FrontendStats:
    """Run a frontend until interrupted; the ``repro serve`` entry point."""

    async def _run() -> None:
        ready = asyncio.Event()
        task = asyncio.get_running_loop().create_task(
            frontend.serve(host=host, port=port, ready=ready,
                           max_requests=max_requests))
        await ready.wait()
        print(f"listening on {frontend.bound[0]}:{frontend.bound[1]}",
              flush=True)
        await task

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return frontend.stats
