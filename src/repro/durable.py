"""Durable file writes and record checksums shared by every store.

Two primitives, standard library only:

* :func:`record_crc` — the self-checksum carried by every persisted
  JSON record (result-cache entries): SHA-256 over the record's
  canonical JSON without its ``crc`` field, first 16 hex digits;
* :func:`write_atomic` — replace a file so that a reader, or a process
  restarted after ``kill -9`` or power loss, sees either the old bytes
  or the new ones, never a mix: write a temp file next to the target,
  ``fsync`` it, ``os.replace`` it over the target, ``fsync`` the
  directory.  A failed write removes its temp file before re-raising,
  so a full disk leaves no debris behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Union


def record_crc(record: dict) -> str:
    """Self-checksum of one JSON record, computed without its ``crc``."""
    body = {k: v for k, v in record.items() if k != "crc"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _fsync_dir(path: Path) -> None:
    """Make a rename durable; best-effort on filesystems without it."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: Union[str, Path], data: Union[bytes, str]) -> None:
    """Durably replace ``path`` with ``data`` (str is UTF-8 encoded).

    Creates the parent directory if needed.  Raises the underlying
    :class:`OSError` on failure, after removing the temp file.
    """
    target = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(target.parent)
