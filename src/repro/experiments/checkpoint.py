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

A truncated final line (the kill arrived mid-write) is silently dropped;
that server is simply re-audited.  A header mismatch (different seed,
profile, fleet, or grid) raises :class:`CheckpointMismatch` rather than
splicing records from a different run.

Campaign journals add one more state: *finalized*.  :meth:`finalize`
atomically rewrites a complete journal index-sorted with a
``"complete": n`` marker in the header, and :meth:`merge_from` folds a
sequence of finalized shard journals into one campaign journal whose
bytes equal a finalized single-shot journal of the same fleet.  Because
finality lives in the header — not in a trailing footer a torn write
could silently drop — a half-finalized journal is indistinguishable from
an ordinary partial one (safe to resume), while a journal that *claims*
finality but lost records raises :class:`CheckpointMismatch`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

from .. import sanitize
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


def shard_journal_path(directory: str, shard_index: int, shards: int) -> str:
    """Canonical journal filename for one campaign shard."""
    if not 0 <= shard_index < shards:
        raise ValueError(
            f"shard index {shard_index} out of range for {shards} shards")
    name = f"shard-{shard_index:04d}-of-{shards:04d}.jsonl"
    return os.path.join(directory, name)


def _fsync_dir(directory: str) -> None:
    """Flush a directory entry so a rename survives power loss."""
    fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse directory fsync; rename still atomic
    finally:
        os.close(fd)


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

    def _validate_header(self, line: str) -> Optional[int]:
        """Parse a header line; return its completeness claim (or None).

        Raises :class:`CheckpointMismatch` when the header (minus the
        finality marker) does not match this run.
        """
        try:
            header = json.loads(line)
        except json.JSONDecodeError:
            raise CheckpointMismatch(
                f"{self.path}: unreadable checkpoint header")
        complete = header.pop("complete", None) if isinstance(header, dict) \
            else None
        if header != self._header:
            raise CheckpointMismatch(
                f"{self.path}: checkpoint belongs to a different run "
                f"(found {header!r}, expected {self._header!r})")
        return complete

    def iter_payloads(self) -> Iterator[ServerPayload]:
        """Stream completed payloads in journal order.

        Validates the header before yielding anything.  In an ordinary
        (non-finalized) journal a torn or corrupt tail line ends the
        stream — that server is simply re-audited.  A *finalized* journal
        promises exactly ``complete`` intact records, so any corruption
        or shortfall raises :class:`CheckpointMismatch` instead of being
        silently accepted.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            header_line = handle.readline()
            if not header_line:
                return
            complete = self._validate_header(header_line)
            count = 0
            for line in handle:
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    if complete is not None:
                        raise CheckpointMismatch(
                            f"{self.path}: finalized journal has a corrupt "
                            "record line — torn or tampered finalize")
                    return  # torn tail write; re-audit that server
                yield payload_from_json(data)
                count += 1
            if complete is not None and count != complete:
                raise CheckpointMismatch(
                    f"{self.path}: finalized journal holds {count} of "
                    f"{complete} records — torn or tampered finalize")

    def load(self) -> Dict[int, ServerPayload]:
        """Completed payloads by server index; {} when starting fresh.

        Raises :class:`CheckpointMismatch` when the file's header does
        not match this run.  A torn final line is dropped.
        """
        completed: Dict[int, ServerPayload] = {}
        for payload in self.iter_payloads():
            completed[payload.index] = payload
        return completed

    @property
    def is_final(self) -> bool:
        """Whether the journal on disk carries the finality marker."""
        if not os.path.exists(self.path):
            return False
        with open(self.path, "r", encoding="utf-8") as handle:
            header_line = handle.readline()
        if not header_line:
            return False
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            return False
        return isinstance(header, dict) and "complete" in header

    # -- writing -------------------------------------------------------------

    def start(self, fresh: bool) -> None:
        """Write the header (truncating when ``fresh`` or file absent).

        On resume the journal's torn tail — a record line the kill
        interrupted mid-write — is cut off first, so new appends start on
        a clean line instead of concatenating onto the fragment (which
        would leave one unparseable line that :meth:`finalize` must
        reject).
        """
        if fresh or not os.path.exists(self.path):
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self._header) + "\n")
            return
        with open(self.path, "rb+") as handle:
            handle.readline()  # header (already validated by load())
            good = handle.tell()
            while True:
                line = handle.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    break
                try:
                    json.loads(line)
                except ValueError:
                    break
                good = handle.tell()
            handle.truncate(good)

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
        ascending index order regardless of completion order — is staged
        to a temp file, fsynced, and ``os.replace``d over the journal, so
        a kill at any instant leaves either the old resumable journal or
        the complete finalized one, never a half-written hybrid.
        Idempotent on an already-finalized journal.
        """
        if not os.path.exists(self.path):
            raise CheckpointMismatch(f"{self.path}: no journal to finalize")
        offsets: Dict[int, Tuple[int, int]] = {}
        with open(self.path, "rb") as src:
            complete = self._validate_header(
                src.readline().decode("utf-8"))
            while True:
                at = src.tell()
                line = src.readline()
                if not line:
                    break
                torn = not line.endswith(b"\n")
                index: Optional[int] = None
                if not torn:
                    try:
                        index = int(json.loads(line)["i"])
                    except (json.JSONDecodeError, KeyError, TypeError,
                            ValueError):
                        torn = True
                if torn:
                    if complete is not None:
                        raise CheckpointMismatch(
                            f"{self.path}: finalized journal has a corrupt "
                            "record line — torn or tampered finalize")
                    break  # torn tail; below the count check rejects it
                assert index is not None
                offsets[index] = (at, len(line))
            expected = int(self._header["n_servers"])
            if (len(offsets) != expected
                    or sorted(offsets) != list(range(expected))):
                raise CheckpointMismatch(
                    f"cannot finalize {self.path}: journal holds "
                    f"{len(offsets)} of {expected} servers")
            if complete is not None:
                return  # already finalized (and just re-validated)
            final_header = dict(self._header)
            final_header["complete"] = expected
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as out:
                out.write((json.dumps(final_header) + "\n").encode("utf-8"))
                for index in range(expected):
                    at, size = offsets[index]
                    src.seek(at)
                    out.write(src.read(size))
                out.flush()
                os.fsync(out.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(os.path.dirname(self.path))

    def merge_from(self, shards: Sequence["AuditCheckpoint"]) -> int:
        """Fold finalized shard journals into this campaign journal.

        Shards must be passed in fleet order; each shard's local indices
        are remapped by the running offset, so the merged file carries
        globally ascending indices.  Every shard header must agree with
        the campaign header on format, seed, profile, and grid, and every
        shard must be finalized.  The merge is staged and ``os.replace``d
        like :meth:`finalize`, and its output is byte-identical to a
        finalized single-shot journal of the same fleet.  Returns the
        number of records merged.
        """
        total = int(self._header["n_servers"])
        final_header = dict(self._header)
        final_header["complete"] = total
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        offset = 0
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(json.dumps(final_header) + "\n")
            for shard in shards:
                for key in ("format", "version", "audit_seed", "profile",
                            "n_cells"):
                    if shard._header[key] != self._header[key]:
                        raise CheckpointMismatch(
                            f"{shard.path}: shard journal {key!r} "
                            f"({shard._header[key]!r}) does not match the "
                            f"campaign ({self._header[key]!r})")
                shard_n = int(shard._header["n_servers"])
                merged = 0
                with open(shard.path, "r", encoding="utf-8") as src:
                    complete = shard._validate_header(src.readline())
                    if complete != shard_n:
                        raise CheckpointMismatch(
                            f"{shard.path}: shard journal is not finalized; "
                            "finalize every shard before merging")
                    for line in src:
                        try:
                            data = json.loads(line)
                        except json.JSONDecodeError:
                            raise CheckpointMismatch(
                                f"{shard.path}: finalized shard journal has "
                                "a corrupt record line")
                        data["i"] = int(data["i"]) + offset
                        out.write(json.dumps(data) + "\n")
                        merged += 1
                if merged != shard_n:
                    raise CheckpointMismatch(
                        f"{shard.path}: finalized shard journal holds "
                        f"{merged} of {shard_n} records")
                offset += shard_n
            if offset != total:
                raise CheckpointMismatch(
                    f"merged {offset} records but the campaign journal "
                    f"expects {total}")
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(directory)
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
