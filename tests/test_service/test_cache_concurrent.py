"""ResultCache under concurrent multi-writer backfill (ISSUE-10 sat 1).

The anti-entropy repairer means one cache directory can now see writes
from multiple processes at once: the node's own serving path plus
backfills landing from replicas.  These tests drive real concurrent
processes at one directory and assert the two safety properties:
atomic replace (a reader never sees a torn file, no stray ``.tmp``
staging names collide) and checksum-verified backfill (a corrupted or
conflicting transfer is rejected, never quarantines a good entry).
"""

import hashlib
import multiprocessing
import os

from repro.common.atomicio import checksum as record_checksum
from repro.service.cache import ResultCache, canonical_entry


def cache_key(tag):
    return hashlib.sha256(tag.encode()).hexdigest()


SHARED_KEYS = [cache_key(f"shared-{i}") for i in range(4)]
CONTENDED_KEY = cache_key("contended")


def entry_for(key, writer=None):
    payload = {"value": key[:8]}
    if writer is not None:
        payload["writer"] = writer
    return {"key": key, "result": payload}


def _put_writer(root, writer_id, iterations, barrier):
    """Module-level so the spawn context can pickle it."""
    cache = ResultCache(root)
    barrier.wait()
    for _ in range(iterations):
        for key in SHARED_KEYS:
            # Same content from both writers: convergent by design.
            cache.put(key, entry_for(key))
        # Different content per writer: last atomic replace wins, but
        # every intermediate state must be a valid, checksummed file.
        cache.put(
            CONTENDED_KEY, entry_for(CONTENDED_KEY, writer=writer_id)
        )


def _backfill_writer(root, writer_id, iterations, barrier):
    cache = ResultCache(root)
    barrier.wait()
    for _ in range(iterations):
        for key in SHARED_KEYS:
            entry = entry_for(key)
            checksum = record_checksum(canonical_entry(entry))
            cache.backfill(key, entry, checksum)


def run_writers(target, root, iterations=15):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    workers = [
        ctx.Process(target=target, args=(root, writer_id, iterations, barrier))
        for writer_id in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(120)
        assert worker.exitcode == 0


def assert_directory_clean(root):
    leftovers = [
        name
        for name in os.listdir(root)
        if name.endswith(".corrupt") or ".tmp" in name
    ]
    assert leftovers == [], (
        f"concurrent writers left quarantine/staging debris: {leftovers}"
    )


class TestConcurrentPut:
    def test_two_writers_one_directory_no_corruption(self, tmp_path):
        root = str(tmp_path / "cache")
        run_writers(_put_writer, root)
        assert_directory_clean(root)
        reader = ResultCache(root)
        for key in SHARED_KEYS:
            assert reader.get(key) == entry_for(key)
        contended = reader.get(CONTENDED_KEY)
        assert contended is not None, "contended entry was lost"
        assert contended["result"]["writer"] in (0, 1)


class TestConcurrentBackfill:
    def test_two_backfillers_converge(self, tmp_path):
        root = str(tmp_path / "cache")
        run_writers(_backfill_writer, root)
        assert_directory_clean(root)
        reader = ResultCache(root)
        for key in SHARED_KEYS:
            assert reader.get(key) == entry_for(key)


class TestBackfillSemantics:
    def test_applies_to_empty_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        entry = entry_for(SHARED_KEYS[0])
        checksum = record_checksum(canonical_entry(entry))
        assert cache.backfill(SHARED_KEYS[0], entry, checksum) is True
        assert cache.get(SHARED_KEYS[0]) == entry

    def test_rejects_checksum_mismatch(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        entry = entry_for(SHARED_KEYS[0])
        assert (
            cache.backfill(SHARED_KEYS[0], entry, "sha256:deadbeef")
            is False
        )
        assert cache.get(SHARED_KEYS[0]) is None

    def test_idempotent_when_entry_matches(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        entry = entry_for(SHARED_KEYS[0])
        cache.put(SHARED_KEYS[0], entry)
        checksum = record_checksum(canonical_entry(entry))
        assert cache.backfill(SHARED_KEYS[0], entry, checksum) is True

    def test_conflicting_entry_is_preserved_not_quarantined(
        self, tmp_path
    ):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        original = entry_for(SHARED_KEYS[0], writer=0)
        cache.put(SHARED_KEYS[0], original)
        conflicting = entry_for(SHARED_KEYS[0], writer=1)
        checksum = record_checksum(canonical_entry(conflicting))
        assert (
            cache.backfill(SHARED_KEYS[0], conflicting, checksum)
            is False
        )
        # The local exact entry wins; nothing was quarantined.
        assert cache.get(SHARED_KEYS[0]) == original
        assert_directory_clean(root)
