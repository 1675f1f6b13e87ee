"""Durable records: one sealed format, atomic publication, quarantine.

Durable artifacts (checkpoints, cache entries, traces) are written
with the classic write-temp-then-rename pattern, which protects readers
from *torn* writes but not from *lost* ones: ``os.replace`` only
reorders directory entries, and a power loss (or a SIGKILL racing the
page cache) after the rename can still publish an empty or truncated
file if the temp file's data never reached disk.  :func:`atomic_write_text`
closes that hole the standard way — fsync the temp file before the
rename, then fsync the containing directory so the rename itself is
durable.

:func:`quarantine_file` is the other half of the trust story: a durable
artifact that fails validation (bad JSON, bad checksum) is *moved aside*
to ``<name>.corrupt`` for post-mortem instead of being deleted or —
worse — silently ignored and overwritten on the next save.

Writes are also safe under *concurrent* writers: each writer stages its
data in a uniquely named temp file (``tempfile.mkstemp`` in the target
directory), so two processes publishing the same path never share a
staging file — each rename is individually atomic and readers see one
complete version or the other, never an interleaving.  The cluster's
anti-entropy backfill leans on this: a node repairing its cache and a
local recompute of the same key may race, and both outcomes are valid
because both files carry a complete checksummed envelope.

The one record format is here too, as pure string functions:
:func:`seal`/:func:`unseal` for one JSON object (checkpoints, cache
entries) and :func:`seal_jsonl`/:func:`unseal_jsonl` for a JSONL trace.
A reader that gets their :class:`ValueError` quarantines the file;
there is no unchecksummed fallback.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional, Sequence

#: The one record format revision: checkpoint and cache envelopes and
#: trace footers all carry it, and readers refuse every other value.
RECORD_VERSION = 2

_DATA_MARKER = '"data": '


def checksum(text: str) -> str:
    """``sha256:<hex>`` over the UTF-8 bytes of ``text``."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def seal(payload: str) -> str:
    """Wrap a JSON object ``payload`` in the checksummed envelope."""
    return (
        f'{{"version": {RECORD_VERSION}, '
        f'"checksum": "{checksum(payload)}", '
        f"{_DATA_MARKER}{payload}}}"
    )


def unseal(raw: str) -> str:
    """The exact payload bytes of a :func:`seal` record.

    Raises :class:`ValueError` naming what failed.  The checksum covers
    the ``data`` value as written, so no JSON is re-canonicalized.
    """
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ValueError(f"not valid JSON ({error})") from None
    if not isinstance(record, dict):
        raise ValueError("top-level value is not an object")
    _check_version(record, "version")
    body = raw.rstrip()
    index = body.find(_DATA_MARKER)
    if index == -1 or not body.endswith("}"):
        raise ValueError("envelope layout is malformed")
    payload = body[index + len(_DATA_MARKER):-1]
    if checksum(payload) != record.get("checksum"):
        raise ValueError("checksum mismatch")
    if not isinstance(record.get("data"), dict):
        raise ValueError("data section is not an object")
    return payload


def seal_jsonl(lines: Sequence[str]) -> str:
    """One JSON record per line, then the ``trace-footer`` record."""
    body = "".join(f"{line}\n" for line in lines)
    return body + _footer(body) + "\n"


def unseal_jsonl(text: str) -> str:
    """The record lines of a :func:`seal_jsonl` stream, footer removed.

    Raises :class:`ValueError` naming what failed; a missing footer (a
    cut at a record boundary) is corruption like any other.
    """
    stripped = text.rstrip("\n")
    start = stripped.rfind("\n") + 1
    body, last = text[:start], stripped[start:]
    try:
        footer = json.loads(last)
    except json.JSONDecodeError:
        footer = None
    if not isinstance(footer, dict) or footer.get("type") != "trace-footer":
        raise ValueError("no trace-footer record at the end")
    _check_version(footer, "trace_version")
    if checksum(body) != footer.get("checksum"):
        raise ValueError("trace-footer checksum mismatch")
    if last != _footer(body):
        raise ValueError("trace-footer layout is malformed")
    return body


def _footer(body: str) -> str:
    return json.dumps(
        {
            "type": "trace-footer",
            "trace_version": RECORD_VERSION,
            "records": body.count("\n"),
            "checksum": checksum(body),
        }
    )


def _check_version(record: dict, field: str) -> None:
    version = record.get(field, "missing")
    if version != RECORD_VERSION:
        raise ValueError(f"{field} is {version}, not {RECORD_VERSION}")


def fsync_directory(path: str) -> None:
    """Flush a directory entry to disk; no-op where unsupported.

    Opening a directory read-only and fsyncing it is the POSIX idiom for
    making a completed rename durable.  Some filesystems (and Windows)
    refuse one of the steps; losing the *directory* sync there degrades
    to the old rename-only guarantee rather than failing the write.
    """
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Atomically and durably replace ``path`` with ``text``.

    The data is staged in a uniquely named ``<path>.<random>.tmp`` file
    in the same directory, flushed and fsynced, renamed over ``path``,
    and the parent directory entry is fsynced — after a crash at any
    point, readers see either the complete old file or the complete new
    one, never an empty or partial file.

    The unique staging name (not a fixed ``<path>.tmp``) is what makes
    concurrent writers of the same path safe: each stages privately, the
    renames serialize at the directory entry, and the last complete
    version wins — two nodes backfilling the same cache key converge
    instead of tearing a shared temp file.
    """
    absolute = os.path.abspath(path)
    directory = os.path.dirname(absolute)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f"{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def quarantine_file(path: str) -> Optional[str]:
    """Move a failed artifact to ``<path>.corrupt`` for post-mortem.

    Returns the quarantine path, or ``None`` when the move itself failed
    (e.g. the file vanished or the directory is read-only) — callers
    warn either way, so a corrupt artifact is never silently consumed.
    """
    corrupt_path = f"{path}.corrupt"
    try:
        os.replace(path, corrupt_path)
    except OSError:
        return None
    fsync_directory(os.path.dirname(os.path.abspath(path)))
    return corrupt_path
