"""Manifest-keyed result cache: bit-identical repeats.

Every successful execution is memoized under a key derived from the *deterministic* fields of its
:class:`~repro.obs.manifest.RunManifest` (experiment id, seed,
sanitizer state, package version — exactly the fields that determine
the result bits, and none of the provenance fields that do not, the
engine among them: the fast engine is bit-identical to the reference
one).  A repeat request is served the stored canonical payload
verbatim, so a client that reconnects after a drain gets a
**bit-identical** response.

Entries are durable and *checksummed*: each file is the
:func:`~repro.common.atomicio.seal` of the entry's
:func:`canonical_entry` string, the same record format as the runner's
checkpoints.  A torn, bit-flipped or other-version entry is detected
at load, quarantined to ``<key>.json.corrupt``, counted
(``service.cache.corrupt``), and treated as a miss — never served.

The disk tier is safe under concurrent writers: every write stages in
a uniquely named temp file and publishes with one atomic rename, so two
processes recomputing the same key converge on a complete envelope
instead of racing a shared temp path into quarantine.  Results are
deterministic per key, so the "last writer wins" outcome is
byte-identical whichever writer wins.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

import repro
from repro.common.atomicio import atomic_write_text, quarantine_file
from repro.common.atomicio import seal, unseal

#: RunManifest fields that determine the result bits; the cache key is
#: a hash over exactly these (provenance fields — engine, git rev,
#: python version — deliberately excluded: they vary without changing
#: results).
KEY_FIELDS = ("experiment_id", "seed", "sanitize", "package_version")


def key_fields(
    experiment_id: str,
    seed: Optional[int],
    sanitize: bool,
) -> Dict:
    """The deterministic manifest subset one request is keyed by."""
    return {
        "experiment_id": experiment_id,
        "seed": seed,
        "sanitize": sanitize,
        "package_version": repro.__version__,
    }


def request_key(fields: Dict) -> str:
    """Stable cache key: SHA-256 over the canonical key-field JSON."""
    missing = [name for name in KEY_FIELDS if name not in fields]
    if missing:
        raise ValueError(f"key fields missing {missing}")
    canonical = json.dumps(
        {name: fields[name] for name in KEY_FIELDS},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def canonical_entry(entry: Dict) -> str:
    """The one serialization of a cache entry: what :meth:`ResultCache.put`
    seals and serves."""
    return json.dumps(entry, sort_keys=True)


class ResultCache:
    """Durable, checksummed, manifest-keyed result store.

    Args:
        root: Directory for entry files (created if absent).
        metrics: Optional :class:`~repro.obs.registry.MetricsRegistry`
            receiving ``service.cache.{hit,miss,corrupt}``.  The cache
            is single-threaded by design — the service touches it only
            from the event-loop thread — so counters need no locks.
    """

    def __init__(self, root: str, metrics=None):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.metrics = metrics
        # key -> canonical payload string, exactly as written to disk;
        # serving from memory reuses those bytes, so memory hits and
        # disk hits are bit-identical by construction.
        self._memory: Dict[str, str] = {}

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- read -----------------------------------------------------------

    def get_payload(self, key: str) -> Optional[str]:
        """The canonical payload string for ``key``, or None on miss.

        Disk entries are checksum-verified; a corrupt entry is
        quarantined and reported as a miss (the caller recomputes and
        overwrites it).
        """
        payload = self._memory.get(key)
        if payload is not None:
            self._count("service.cache.hit")
            return payload
        payload = self._load_from_disk(key)
        if payload is None:
            self._count("service.cache.miss")
            return None
        self._memory[key] = payload
        self._count("service.cache.hit")
        return payload

    def get(self, key: str) -> Optional[Dict]:
        """Like :meth:`get_payload`, decoded into the entry dict."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        return json.loads(payload)

    def _load_from_disk(self, key: str) -> Optional[str]:
        path = self.path(key)
        try:
            with open(path) as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError):
            return self._quarantine(path)
        try:
            return unseal(raw)
        except ValueError:
            return self._quarantine(path)

    def _quarantine(self, path: str) -> None:
        quarantine_file(path)
        self._count("service.cache.corrupt")
        return None

    # -- write ----------------------------------------------------------

    def put(self, key: str, entry: Dict) -> str:
        """Store ``entry`` under ``key``; returns the canonical payload.

        The payload is :func:`canonical_entry`; the disk file is its
        sealed record, written atomically and durably.
        """
        payload = canonical_entry(entry)
        atomic_write_text(self.path(key), seal(payload))
        self._memory[key] = payload
        return payload

    def discard_memory(self, key: str) -> None:
        """Drop the in-memory copy, forcing the next read through disk.

        The chaos plane calls this after bit-flipping the entry file so
        corruption cannot hide behind the memory tier.
        """
        self._memory.pop(key, None)

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Make every entry durable (writes already are; fsync the dir)."""
        from repro.common.atomicio import fsync_directory

        fsync_directory(self.root)

    def keys(self) -> List[str]:
        """Keys with an entry on disk (memory-only keys are a subset)."""
        found = set(self._memory)
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in names:
            if name.endswith(".json"):
                found.add(name[: -len(".json")])
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())
