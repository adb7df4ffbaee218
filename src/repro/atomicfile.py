"""Whole-file replacement that a kill or a power loss cannot leave half done.

Finalized and merged campaign journals and the substrate snapshots (the
Atlas mesh-ping archive and the landmark bestline fits) share this one
recipe: write a temporary file beside the target, fsync it,
``os.replace`` it over the target, then fsync the directory so the
rename itself is durable.  A reader sees the old file or the new one,
never a mix.

The snapshots also share one file format (:func:`save_snapshot`,
:func:`load_snapshot`): named one-dimensional columns of equal length in
an ``.npz`` under the snapshot directory, stored with the content key
they were derived under and a sha256 of the columns.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import BinaryIO, Dict, Iterator, List, Optional

import numpy as np

from . import config


@contextmanager
def atomic_replace(path: str) -> Iterator[BinaryIO]:
    """Yield a binary stream whose bytes replace ``path`` on clean exit.

    Creates the target's directory if needed.  The temporary name is
    unique per process, the file gets the default mode of a new file, and
    any error removes it and leaves the target untouched.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as stream:
            yield stream
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the block or the write failed
            os.unlink(tmp)
    fd = os.open(directory or ".", os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse directory fsync; rename still atomic
    finally:
        os.close(fd)


def _snapshot_path(prefix: str, digest: str) -> str:
    return os.path.join(config.snapshot_dir(), f"{prefix}-{digest[:32]}.npz")


def _checksum(columns: List[np.ndarray]) -> bytes:
    return hashlib.sha256(b"".join(column.tobytes()
                                   for column in columns)).digest()


def save_snapshot(prefix: str, digest: str,
                  columns: Dict[str, np.ndarray]) -> Optional[str]:
    """Write ``columns`` as ``<prefix>-<digest>.npz`` in the snapshot dir.

    ``digest`` is the hex sha256 of everything the columns were derived
    from; it names the file and is stored inside it.  Written through
    :func:`atomic_replace`.  Returns the path, or None when the
    directory is not writable (persistence never fails the caller).
    """
    path = _snapshot_path(prefix, digest)
    try:
        with atomic_replace(path) as stream:
            np.savez(stream,
                     key=np.frombuffer(bytes.fromhex(digest), np.uint8),
                     checksum=np.frombuffer(
                         _checksum(list(columns.values())), np.uint8),
                     **columns)
    except OSError:
        return None
    return path


def load_snapshot(prefix: str, digest: str, dtypes: Dict[str, str]
                  ) -> Optional[Dict[str, np.ndarray]]:
    """The columns :func:`save_snapshot` wrote under ``digest``, checked.

    ``dtypes`` names the columns in the order they were saved, which is
    the order the checksum covers them in.  Loads without pickles and
    returns None for a missing, unreadable, truncated or mis-keyed file,
    a column missing or of another dtype than ``dtypes`` names, columns
    that are not one-dimensional and of one length, or a checksum that
    does not match.  The caller still verifies sampled values
    (:func:`sample_rows`) before trusting them.
    """
    path = _snapshot_path(prefix, digest)
    try:
        with open(path, "rb") as handle, \
                np.load(handle, allow_pickle=False) as stored:
            key = stored["key"]
            checksum = stored["checksum"]
            columns = {name: stored[name] for name in dtypes}
    except Exception:  # noqa: BLE001 - a missing file, or outside
        return None    # input that does not parse: either way, recompute
    shapes = {column.shape for column in columns.values()}
    if (key.dtype != np.uint8 or key.tobytes() != bytes.fromhex(digest)
            or any(column.dtype != np.dtype(dtypes[name])
                   for name, column in columns.items())
            or len(shapes) != 1 or any(len(shape) != 1 for shape in shapes)
            or checksum.dtype != np.uint8
            or checksum.tobytes() != _checksum(list(columns.values()))):
        return None
    return columns


def sample_rows(column: np.ndarray, count: int) -> List[int]:
    """Up to ``count`` distinct row indices drawn from a hash of ``column``.

    A pure function of the column's bytes, so the rows a loaded
    snapshot is spot-checked on never depend on RNG state.
    """
    if not column.size:
        return []
    draws = np.frombuffer(hashlib.shake_256(column.tobytes()).digest(
        4 * count), dtype="<u4")
    return sorted(set((draws % column.size).tolist()))
