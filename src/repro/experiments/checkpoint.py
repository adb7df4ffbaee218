"""Checkpoint/resume for the fleet audit.

A multi-hour audit over thousands of proxies must survive being killed —
the paper's own campaign ran for weeks and lost proxies mid-flight.  The
checkpoint is a JSON-lines file: one header line identifying the run
(seed, fault profile, fleet fingerprint, grid size) followed by one line
per *completed* server, appended and flushed as each server finishes.

Resume correctness rests on the audit's RNG discipline: every server's
measurement stream is keyed by ``(seed, host_id)``, independent of fleet
order, so skipping already-completed servers cannot perturb the
remainder.  Serialisation is exact — Python's ``json`` round-trips floats
through ``repr`` and the region mask travels as packed-bit hex — so a
resumed audit's records are bit-identical to an uninterrupted run's.
The mask bytes are exactly ``Region.packed_bytes()`` (MSB-first
``np.packbits`` order, the region's native word layout minus the zero
tail padding), so a resumed record is rebuilt by
:meth:`Region.from_packbits` without touching a boolean mask.

One record rule decides which lines of a journal count, and every reader
— resume, finalize, merge and :meth:`AuditCheckpoint.iter_payloads` —
walks the journal through the one scanner that applies it.  An *intact*
record line ends in a newline, decodes to a :class:`ServerPayload` whose
index lies in ``[0, n_servers)``, and starts with the ``{"i": <index>, ``
prefix :meth:`AuditCheckpoint.append` writes.  In an ordinary journal
the first line that is not intact, or that repeats an index, starts the
torn tail (the kill arrived mid-write): readers stop there, resume cuts
it off, and those servers are simply re-audited.  A header line without
its newline means the kill arrived inside :meth:`AuditCheckpoint.start`,
so resume starts fresh.  A header mismatch (different seed, profile,
fleet, or grid) raises :class:`CheckpointMismatch` rather than splicing
records from a different run.

Campaign journals add one more state: *finalized*.  :meth:`finalize`
atomically rewrites a complete journal index-sorted with a
``"complete": n`` marker in the header, and :meth:`merge_from` folds a
sequence of finalized shard journals into one campaign journal whose
bytes equal a finalized single-shot journal of the same fleet.  Because
finality lives in the header — not in a trailing footer a torn write
could silently drop — a half-finalized journal is indistinguishable from
an ordinary partial one (safe to resume).  A journal that *claims*
finality must hold exactly ``n`` intact lines with indices ``0 … n-1``
in order; a lost, duplicated, swapped or foreign line, or a missing
final newline, raises :class:`CheckpointMismatch`, so a damaged shard
never merges into a different report.  What the rule cannot see is a
record that is damaged yet still decodes — a flipped hex digit inside a
mask; catching that needs a per-record checksum.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, BinaryIO, Dict, Iterator, Optional,
                    Sequence, Set, Tuple)

from .. import sanitize
from ..atomicfile import atomic_replace
from ..core.assessment import ClaimAssessment, ContinentVerdict, Verdict
from ..core.observations import RttObservation

if TYPE_CHECKING:
    from ..netsim.faults import FaultProfile
    from ..netsim.proxies import ProxyServer

FORMAT = "repro-audit-checkpoint"
VERSION = 1


@dataclass(frozen=True)
class ServerPayload:
    """One measured server, in fork-safe wire form.

    The measurement kernel (:func:`repro.experiments.audit.measure_chunk`)
    fills every field but the last two; an audit adds the server's
    ``index`` in the audited fleet and its own-claim ``assessment``.  It
    is the unit shipped between forked workers, the parent, the verdict
    service's caches and the checkpoint journal — which carries only the
    version-1 fields (see :func:`payload_to_json`), so a payload read
    back from a journal has ``host_id`` -1, an empty
    ``deduced_continent`` and no ``requested_landmarks``.
    """

    host_id: int
    #: The multilateration region, ``np.packbits(mask).tobytes()``.
    region_bytes: bytes
    deduced_continent: str
    #: Phase-2 landmark names the prediction used.
    used_landmarks: Tuple[str, ...]
    #: Every landmark name the driver asked to probe, sorted — the
    #: measurement's dependency set.
    requested_landmarks: Tuple[str, ...]
    degraded: bool
    notes: Tuple[str, ...]
    #: Phase-2 observations, then phase-1.
    observations: Tuple[RttObservation, ...]
    index: int = -1
    assessment: Optional[ClaimAssessment] = None


class CheckpointMismatch(ValueError):
    """The checkpoint on disk belongs to a different audit run."""


def _assessment_to_json(assessment: ClaimAssessment) -> dict:
    return {
        "claimed": assessment.claimed_country,
        "verdict": assessment.verdict.value,
        "continent_verdict": assessment.continent_verdict.value,
        "covered": list(assessment.countries_covered),
        "area_km2": assessment.region_area_km2,
        "resolved": assessment.resolved_country,
        "method": assessment.resolution_method,
    }


def _assessment_from_json(data: dict) -> ClaimAssessment:
    return ClaimAssessment(
        claimed_country=data["claimed"],
        verdict=Verdict(data["verdict"]),
        continent_verdict=ContinentVerdict(data["continent_verdict"]),
        countries_covered=list(data["covered"]),
        region_area_km2=data["area_km2"],
        resolved_country=data["resolved"],
        resolution_method=data["method"],
    )


#: What a payload read back from a journal holds in the fields the
#: journal does not carry.
_UNJOURNALLED = {"host_id": -1, "deduced_continent": "",
                 "requested_landmarks": ()}


def payload_to_json(payload: ServerPayload) -> dict:
    """The version-1 journal record of an audited payload."""
    assert payload.assessment is not None
    return {
        "i": payload.index,
        "mask": payload.region_bytes.hex(),
        "assessment": _assessment_to_json(payload.assessment),
        "obs": [[o.landmark_name, o.lat, o.lon, o.one_way_ms]
                for o in payload.observations],
        "landmarks": list(payload.used_landmarks),
        "degraded": payload.degraded,
        "notes": list(payload.notes),
    }


def payload_from_json(data: dict) -> ServerPayload:
    return ServerPayload(
        region_bytes=bytes.fromhex(data["mask"]),
        used_landmarks=tuple(data["landmarks"]),
        degraded=bool(data["degraded"]),
        notes=tuple(data["notes"]),
        observations=tuple(RttObservation(name, lat, lon, one_way)
                           for name, lat, lon, one_way in data["obs"]),
        index=int(data["i"]),
        assessment=_assessment_from_json(data["assessment"]),
        **_UNJOURNALLED,
    )


def _record_prefix(index: int) -> bytes:
    """How :meth:`AuditCheckpoint.append` starts the record of ``index``."""
    return b'{"i": %d, ' % index


def _intact_payload(line: bytes, n_servers: int) -> Optional[ServerPayload]:
    """The payload of an intact record line, else None (the record rule)."""
    if not line.endswith(b"\n"):
        return None
    try:
        payload = payload_from_json(json.loads(line))
    except (ValueError, KeyError, TypeError):
        return None
    if (not 0 <= payload.index < n_servers
            or not line.startswith(_record_prefix(payload.index))):
        return None
    return payload


def shard_journal_path(directory: str, shard_index: int, shards: int) -> str:
    """Canonical journal filename for one campaign shard."""
    if not 0 <= shard_index < shards:
        raise ValueError(
            f"shard index {shard_index} out of range for {shards} shards")
    name = f"shard-{shard_index:04d}-of-{shards:04d}.jsonl"
    return os.path.join(directory, name)


class AuditCheckpoint:
    """Append-only JSONL journal of completed per-server audit payloads.

    Every append is fsynced, so a kill loses at most the record being
    written — a torn final line, which resume simply re-audits.
    """

    def __init__(self, path, *, audit_seed: int, profile: Optional[str],
                 n_servers: int, n_cells: int, fleet_digest: str):
        self.path = os.fspath(path)
        self._header = {
            "format": FORMAT,
            "version": VERSION,
            "audit_seed": audit_seed,
            "profile": profile,
            "n_servers": n_servers,
            "n_cells": n_cells,
            "fleet": fleet_digest,
        }

    @classmethod
    def for_fleet(cls, path, servers: Sequence["ProxyServer"], *, seed: int,
                  profile: Optional["FaultProfile"],
                  n_cells: int) -> "AuditCheckpoint":
        """The journal of one audit of ``servers`` (in audit order).

        Audits, campaign shards and the campaign merge all build their
        headers here, from the resolved fault profile (None is
        fault-free), so the journals of one campaign always agree.
        """
        return cls(path, audit_seed=seed,
                   profile=profile.name if profile is not None else None,
                   n_servers=len(servers), n_cells=n_cells,
                   fleet_digest=cls.fleet_digest(
                       server.host.host_id for server in servers))

    @staticmethod
    def fleet_digest(host_ids) -> str:
        """A stable fingerprint of the audited fleet (order-sensitive)."""
        import hashlib
        joined = ",".join(str(int(h)) for h in host_ids)
        return hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]

    # -- reading -------------------------------------------------------------

    def _read_header(self, handle: BinaryIO) -> Tuple[bool, Optional[int]]:
        """Read the header line: (whether it is intact, its finality claim).

        A header without its newline (a kill inside :meth:`start`) is not
        intact.  Raises :class:`CheckpointMismatch` when an intact header
        belongs to another run or claims other than ``n_servers`` records.
        """
        line = handle.readline()
        if not line.endswith(b"\n"):
            return False, None
        try:
            header = json.loads(line)
        except ValueError:
            raise CheckpointMismatch(
                f"{self.path}: unreadable checkpoint header")
        complete = header.pop("complete", None) if isinstance(header, dict) \
            else None
        if header != self._header:
            raise CheckpointMismatch(
                f"{self.path}: checkpoint belongs to a different run "
                f"(found {header!r}, expected {self._header!r})")
        if complete not in (None, self._header["n_servers"]):
            raise CheckpointMismatch(
                f"{self.path}: finalized journal claims {complete!r} of "
                f"{self._header['n_servers']} records — torn or tampered "
                "finalize")
        return True, complete

    def _scan(self, handle: BinaryIO, complete: Optional[int]
              ) -> Iterator[Tuple[int, bytes, ServerPayload]]:
        """Yield ``(offset, line, payload)`` per intact record line.

        The one record rule (module docstring): unfinalized (``complete``
        None), the walk ends at the torn tail; finalized, any line out of
        rule raises :class:`CheckpointMismatch`.
        """
        n_servers = self._header["n_servers"]
        seen: Set[int] = set()
        at = handle.tell()
        for line in handle:
            payload = _intact_payload(line, n_servers)
            if complete is None:
                if payload is None or payload.index in seen:
                    return  # the torn tail; those servers are re-audited
            elif payload is None or payload.index != len(seen):
                raise CheckpointMismatch(
                    f"{self.path}: finalized journal has a corrupt or "
                    f"misplaced record line {len(seen)} — torn or tampered "
                    "finalize")
            seen.add(payload.index)
            yield at, line, payload
            at += len(line)
        if complete is not None and len(seen) != complete:
            raise CheckpointMismatch(
                f"{self.path}: finalized journal holds {len(seen)} of "
                f"{complete} records — torn or tampered finalize")

    def iter_payloads(self) -> Iterator[ServerPayload]:
        """Stream the journal's intact payloads in journal order.

        Validates the header before yielding anything.  An ordinary
        journal's stream ends at its torn tail; a finalized journal that
        breaks the record rule raises :class:`CheckpointMismatch` instead
        of being silently accepted.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            intact, complete = self._read_header(handle)
            if intact:
                for _, _, payload in self._scan(handle, complete):
                    yield payload

    @property
    def is_final(self) -> bool:
        """Whether the journal on disk carries the finality marker."""
        if not os.path.exists(self.path):
            return False
        with open(self.path, "rb") as handle:
            return self._read_header(handle)[1] is not None

    # -- writing -------------------------------------------------------------

    def start(self) -> None:
        """Begin a fresh journal: the header line, truncating any old file."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self._header) + "\n")

    def resume(self) -> Dict[int, ServerPayload]:
        """Reopen the journal for appends; its intact payloads by index.

        One read collects the intact records and cuts off the torn tail,
        so appends start on a clean line, not on a fragment.  A missing
        journal, or one whose header a kill cut short, starts fresh.
        Raises :class:`CheckpointMismatch` like :meth:`iter_payloads`.
        """
        completed: Dict[int, ServerPayload] = {}
        if os.path.exists(self.path):
            with open(self.path, "rb+") as handle:
                intact, complete = self._read_header(handle)
                if intact:
                    end = handle.tell()
                    for at, line, payload in self._scan(handle, complete):
                        completed[payload.index] = payload
                        end = at + len(line)
                    handle.truncate(end)
                    return completed
        self.start()
        return completed

    def append(self, payload: ServerPayload) -> None:
        """Durably record one completed server."""
        line = json.dumps(payload_to_json(payload))
        if sanitize.enabled():
            _check_roundtrip(payload, line)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- finalizing and merging ----------------------------------------------

    def finalize(self) -> None:
        """Atomically rewrite the journal finalized and index-sorted.

        Requires every server to be journalled.  The finalized file —
        header carrying ``"complete": n_servers``, then records in
        ascending index order regardless of completion order — replaces
        the journal through :func:`~repro.atomicfile.atomic_replace`, so
        a kill at any instant leaves either the old resumable journal or
        the complete finalized one, never a half-written hybrid.
        Idempotent on an already-finalized journal, which it re-validates.
        """
        if not os.path.exists(self.path):
            raise CheckpointMismatch(f"{self.path}: no journal to finalize")
        expected = int(self._header["n_servers"])
        offsets: Dict[int, Tuple[int, int]] = {}
        with open(self.path, "rb") as src:
            intact, complete = self._read_header(src)
            if intact:
                for at, line, payload in self._scan(src, complete):
                    offsets[payload.index] = (at, len(line))
            # The record rule admits only distinct indices in range.
            if len(offsets) != expected:
                raise CheckpointMismatch(
                    f"cannot finalize {self.path}: journal holds "
                    f"{len(offsets)} of {expected} servers")
            if complete is not None:
                return  # already finalized (and just re-validated)
            final_header = dict(self._header, complete=expected)
            with atomic_replace(self.path) as out:
                out.write((json.dumps(final_header) + "\n").encode("utf-8"))
                for index in range(expected):
                    at, size = offsets[index]
                    src.seek(at)
                    out.write(src.read(size))

    def merge_from(self, shards: Sequence["AuditCheckpoint"]) -> int:
        """Fold finalized shard journals into this campaign journal.

        Shards must be passed in fleet order; each shard's local indices
        are remapped by the running offset, so the merged file carries
        globally ascending indices.  Every shard header must agree with
        the campaign header on format, seed, profile, and grid, and every
        shard journal must exist, be finalized and pass the record rule.  Only the
        ``{"i": <index>, `` prefix the scan has just verified is
        rewritten; the rest of each line is copied as is.  The merge
        replaces the journal atomically like :meth:`finalize`, and its
        output is byte-identical to a finalized single-shot journal of
        the same fleet.  Returns the number of records merged.
        """
        total = int(self._header["n_servers"])
        final_header = dict(self._header, complete=total)
        offset = 0
        with atomic_replace(self.path) as out:
            out.write((json.dumps(final_header) + "\n").encode("utf-8"))
            for shard in shards:
                for key in ("format", "version", "audit_seed", "profile",
                            "n_cells"):
                    if shard._header[key] != self._header[key]:
                        raise CheckpointMismatch(
                            f"{shard.path}: shard journal {key!r} "
                            f"({shard._header[key]!r}) does not match the "
                            f"campaign ({self._header[key]!r})")
                if not os.path.exists(shard.path):
                    raise CheckpointMismatch(
                        f"{shard.path}: no shard journal to merge; run "
                        "every shard before merging")
                with open(shard.path, "rb") as src:
                    complete = shard._read_header(src)[1]
                    if complete is None:
                        raise CheckpointMismatch(
                            f"{shard.path}: shard journal is not finalized; "
                            "finalize every shard before merging")
                    for _, line, payload in shard._scan(src, complete):
                        out.write(_record_prefix(payload.index + offset))
                        out.write(memoryview(line)[
                            len(_record_prefix(payload.index)):])
                offset += complete
            if offset != total:
                raise CheckpointMismatch(
                    f"{self.path}: merged {offset} records but the campaign "
                    f"journal expects {total}")
        return offset


def _check_roundtrip(payload: ServerPayload, line: str) -> None:
    """Sanitizer: the journalled line must decode back bit-identically.

    Catches non-round-trippable records (a NaN observation compares
    unequal to itself; an enum value json can't carry) at write time,
    where the failing server is still known, instead of as a resume
    mismatch hours later.
    """
    try:
        restored = payload_from_json(json.loads(line))
    except Exception as error:
        raise sanitize.SanitizerError(
            f"checkpoint record for server index {payload.index} cannot be "
            f"decoded back from the journal: {error}") from error
    if restored != replace(payload, **_UNJOURNALLED):
        raise sanitize.SanitizerError(
            f"checkpoint record for server index {payload.index} does not "
            "round-trip through the JSON journal codec")
