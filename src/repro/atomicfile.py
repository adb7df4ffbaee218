"""Whole-file replacement that a kill or a power loss cannot leave half done.

Finalized and merged campaign journals and the Atlas mesh-ping snapshot
share this one recipe: write a temporary file beside the target, fsync
it, ``os.replace`` it over the target, then fsync the directory so the
rename itself is durable.  A reader sees the old file or the new one,
never a mix.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import BinaryIO, Iterator


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
