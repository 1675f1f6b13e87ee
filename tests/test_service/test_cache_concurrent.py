"""ResultCache under concurrent writers.

One cache directory can see writes from several processes at once (two
nodes sharing a directory, or a restarted node racing its predecessor).
These tests drive real concurrent processes at one directory and assert
atomic replace: a reader never sees a torn file, and no stray ``.tmp``
staging names collide.
"""

import hashlib
import multiprocessing
import os

from repro.service.cache import ResultCache


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

