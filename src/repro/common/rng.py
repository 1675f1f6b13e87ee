"""Deterministic random-number plumbing.

Every stochastic component in the simulator (random replacement, SMT
interleaving, timer noise, workload generation) takes an explicit
``random.Random`` instance.  These helpers centralize seeding so whole
experiments are reproducible from a single seed while sub-components stay
statistically independent.

The middle of the module reads ``random.Random`` streams as raw
Mersenne Twister words and decodes their draws in numpy: many streams
side by side, so a lockstep Monte Carlo (Table I) gets the same draws as
a loop over the streams, or one stream's draws ahead, so a loop
program's ``choice`` costs no Python-level call per draw.

The last part is the *vectorized* counterpart used by
the batch engine (:mod:`repro.sim.batch`): counter-based splitmix64
streams over numpy ``uint64`` arrays.  A stream's draw at position
``counter`` is a pure function of ``(key, counter)``, so trial ``k`` of
an N-trial batch draws bit-identical noise whether it runs alone or in
lockstep with thousands of siblings — the property that makes the batch
engine checkpointable per trial-block and differentially testable
against the scalar engines.  (Stateful ``numpy.random.Generator``
objects cannot give that guarantee without one generator per trial,
which would reintroduce a per-trial Python loop; each helper here is a
single vectorized call per step.)  numpy is imported lazily so the
scalar part of the module stays stdlib-only.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import OrderedDict
from typing import Iterator, List, Sequence, Tuple, Union

RngLike = Union[int, random.Random, None]

_DEFAULT_SEED = 0x1005_2020  # HPCA 2020 homage; any constant works.

_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment (2^64 / phi).
_MASK64 = (1 << 64) - 1


def make_rng(seed: RngLike = None) -> random.Random:
    """Return a ``random.Random`` from a seed, an existing RNG, or a default.

    Args:
        seed: ``None`` uses the library's fixed default seed (experiments
            are reproducible by default); an ``int`` seeds a fresh RNG; a
            ``random.Random`` is passed through unchanged.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random(_DEFAULT_SEED)
    return random.Random(seed)


def spawn_rng(parent: random.Random, label: str = "") -> random.Random:
    """Derive an independent child RNG from a parent.

    Drawing a 64-bit seed from the parent (salted by ``label``) keeps
    child streams decorrelated even when many children are spawned, and
    keeps the parent's own stream advancing deterministically.
    """
    return random.Random(parent.getrandbits(64) ^ _salt(label))


def _salt(label: str) -> int:
    """What :func:`spawn_rng` XORs into a parent's 64-bit draw."""
    return sum(ord(c) for c in label) * 0x9E3779B97F4A7C15


# -- Mersenne Twister words (lockstep Monte Carlo) ------------------------
#
# CPython's ``random.Random`` draws are functions of its 32-bit MT19937
# outputs ("words"), so a whole stream can be drawn at once and decoded
# in bulk, many streams side by side or many draws of one stream ahead:
#
# * ``getrandbits(32 * n)`` returns the next ``n`` words little-endian,
#   word ``i`` being the ``i``-th output; ``getrandbits(64)`` is
#   ``w0 | w1 << 32``.
# * ``randrange(n)`` and ``choice`` over ``n`` items take the top
#   ``n.bit_length()`` bits of one word and redraw while the value is
#   ``>= n``.
# * ``random()`` takes two words; ``random() < 0.5`` iff the first word
#   is ``< 2**31``.
#
# For ``n < 256`` each of these draws reads only its words' top bytes,
# so that is all the decoders below keep: a quarter of the memory.
# ``tests/test_common/test_rng.py`` pins each mapping against
# ``random.Random`` on the running interpreter.

#: Seed sets whose words :func:`word_tops` keeps.  A Table I run reads
#: four 500-seed chunks, and its ``random`` policy four more.
_TOPS_HELD = 8
#: Held words per seed set, least recently read first; see word_tops.
_TOPS: OrderedDict[Tuple[int, ...], object] = OrderedDict()
_TOPS_LOCK = threading.Lock()

#: Words :func:`choice_stream` draws in one ``getrandbits`` call.
_CHOICE_BLOCK = 1024


def spawn_seeds(parent: random.Random, label: str, count: int) -> List[int]:
    """Seeds of the next ``count`` children ``spawn_rng(parent, label)``.

    Advances ``parent`` exactly as ``count`` :func:`spawn_rng` calls do.
    """
    salt, draw = _salt(label), parent.getrandbits
    return [draw(64) ^ salt for _ in range(count)]


def word_tops(seeds: Sequence[int], count: int):
    """Top bytes of the first ``count`` MT words of each seed's stream.

    Returns a read-only ``(len(seeds), count)`` ``uint8`` array whose
    entry ``[i, j]`` is word ``j`` of ``random.Random(seeds[i])``
    shifted right by 24.  The words are a pure function of the seeds,
    so the last few seed sets' words are kept: a set drawn at least
    ``count`` wide is answered with a prefix view, and a wider request
    draws the set anew and keeps that instead.
    """
    key = tuple(seeds)
    with _TOPS_LOCK:
        held = _TOPS.get(key)
        if held is not None and held.shape[1] >= count:
            _TOPS.move_to_end(key)
            return held[:, :count]
    tops = _draw_tops(key, count)
    tops.flags.writeable = False
    with _TOPS_LOCK:
        _TOPS[key] = tops
        _TOPS.move_to_end(key)
        while len(_TOPS) > _TOPS_HELD:
            _TOPS.popitem(last=False)
    return tops


def _draw_tops(seeds: Sequence[int], count: int):
    """:func:`word_tops` drawn afresh: one ``getrandbits`` call per seed."""
    import numpy as np

    stream = random.Random()
    # The C-level seed: for an int, ``Random.seed`` only adds type checks.
    draw, reseed = stream.getrandbits, super(random.Random, stream).seed
    tops = bytearray(count * len(seeds))
    for row, seed in enumerate(seeds):
        reseed(seed)
        words = draw(32 * count).to_bytes(4 * count, "little")
        tops[row * count:(row + 1) * count] = words[3::4]
    return np.frombuffer(tops, dtype=np.uint8).reshape(len(seeds), count)


def decode_word_tops(seeds: Sequence[int], count: int, decode):
    """``decode`` each seed's :func:`word_tops`, redrawing short rows.

    ``decode(tops)`` takes a ``(rows, count)`` array and returns
    ``(parts, ok)``: a tuple of per-row arrays and whether each row had
    enough words.  A short row is redrawn from its own seed with twice
    the words, as often as it takes; the draw is never capped.  Redrawn
    rows bypass the kept words.
    """
    import numpy as np

    parts, ok = decode(word_tops(seeds, count))
    short = np.flatnonzero(~ok)
    while len(short):
        count *= 2
        redrawn, ok = decode(_draw_tops([seeds[i] for i in short], count))
        for part, rows in zip(parts, redrawn):
            part[short] = rows
        short = short[~ok]
    return parts


def choice_stream(rng: random.Random, n: int) -> Iterator[int]:
    """The indices ``rng.choice(seq)`` draws for ``len(seq) == n``, forever.

    Draws ahead: each block of the stream is one ``getrandbits`` call
    over :data:`_CHOICE_BLOCK` words, decoded with the mapping above
    (top ``n.bit_length()`` bits, values ``>= n`` skipped).  So ``rng``
    runs ahead of the indices read, and only the stream should read it.
    """
    import numpy as np

    if not 1 <= n < 1 << 32:
        raise ValueError(f"need 1 <= n < 2**32, not {n}")
    shift = np.uint32(32 - n.bit_length())
    draw = rng.getrandbits

    def block(bits: int) -> List[int]:
        words = np.frombuffer(draw(bits).to_bytes(bits // 8, "little"), "<u4")
        values = words >> shift
        return values[values < n].tolist()

    return itertools.chain.from_iterable(
        map(block, itertools.repeat(32 * _CHOICE_BLOCK))
    )


def randbelow_draws(tops, n: int, count: int):
    """Decode ``count`` ``randrange(n)`` draws from each row of ``tops``.

    ``tops`` holds :func:`word_tops`; ``n`` is below 256.  Returns
    ``(values, used, ok)``: a ``(rows, count)`` ``uint8`` array of the
    draws, the number of words each row's draws consumed, and whether
    the row held enough words.  Rejections have no fixed bound, so a row
    that ran out (``ok`` false) holds garbage and must be redrawn longer.
    """
    import numpy as np

    if not 1 <= n < 256 or count < 1:
        raise ValueError("need 1 <= n < 256 and count >= 1")
    shift = np.uint8(8 - n.bit_length())
    accepted = tops < n << shift
    rank = np.cumsum(
        accepted, axis=1, dtype=np.int16 if tops.shape[1] < 2**15 else np.int32
    )
    ok = rank[:, -1] >= count
    values = np.zeros((len(tops), count), dtype=np.uint8)
    kept = tops[accepted & (rank <= count) & ok[:, None]]
    values[ok] = (kept >> shift).reshape(-1, count)
    used = (rank < count).sum(axis=1) + 1
    return values, used, ok


def coin_draws(tops, start, count: int):
    """Decode ``count`` ``random() < 0.5`` coins from each row of ``tops``.

    Coin ``j`` of a row reads word ``start + 2 * j`` (``start`` is a
    scalar or one offset per row).  Returns ``(coins, ok)``; ``ok`` is
    false for rows that ran out of words.
    """
    import numpy as np

    start = np.asarray(start)
    ok = np.broadcast_to(start + 2 * (count - 1) < tops.shape[1], len(tops))
    positions = np.minimum(
        start.reshape(-1, 1) + 2 * np.arange(count), tops.shape[1] - 1
    )
    picked = np.take_along_axis(
        tops, np.broadcast_to(positions, (len(tops), count)), axis=1
    )
    return picked < 128, ok


# -- vectorized counter-based streams (batch engine) ----------------------


def _mix64(x):
    """Vectorized splitmix64 finalizer over a ``uint64`` ndarray."""
    import numpy as np

    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def trial_streams(seed: int, trials: int, offset: int = 0):
    """Per-trial 64-bit stream keys for trials ``offset..offset+trials``.

    Key ``k`` depends only on ``(seed, offset + k)``, never on how many
    trials share the batch — the invariant every batch/solo and
    batch/checkpoint-resume bit-identity guarantee rests on.
    """
    import numpy as np

    if trials < 0 or offset < 0:
        raise ValueError("trials and offset must be >= 0")
    index = np.arange(offset, offset + trials, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = np.uint64(seed & _MASK64) + np.uint64(_GOLDEN) * (
            index + np.uint64(1)
        )
    return _mix64(base)


def spawn_streams(keys, label: str = ""):
    """Derive independent sub-streams, one per key (cf. :func:`spawn_rng`).

    Distinct labels decorrelate the draw *domains* of one trial (message
    bits vs. timer noise) exactly like :func:`spawn_rng` decorrelates
    scalar child RNGs.
    """
    import numpy as np

    salt = sum(ord(c) for c in label)
    with np.errstate(over="ignore"):
        salted = keys ^ np.uint64((salt * _GOLDEN + _GOLDEN) & _MASK64)
    return _mix64(salted)


def stream_u64(keys, counter: int):
    """One 64-bit draw per stream at position ``counter`` (vectorized)."""
    import numpy as np

    with np.errstate(over="ignore"):
        x = keys ^ (np.uint64(_GOLDEN) * np.uint64((counter + 1) & _MASK64))
    return _mix64(x)


def stream_uniform(keys, counter: int):
    """One float64 draw per stream in ``[0, 1)`` at position ``counter``."""
    import numpy as np

    return (stream_u64(keys, counter) >> np.uint64(11)) * (1.0 / (1 << 53))


def stream_gauss(keys, counter: int, mean: float, sigma: float):
    """One Gaussian draw per stream at position ``counter`` (Box-Muller).

    Consumes positions ``2*counter`` and ``2*counter + 1`` of the
    underlying uniform stream, so successive ``counter`` values never
    overlap.
    """
    import numpy as np

    u1 = stream_uniform(keys, 2 * counter)
    u2 = stream_uniform(keys, 2 * counter + 1)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # u1 in [0,1) -> 1-u1 in (0,1]
    return mean + sigma * radius * np.cos(2.0 * np.pi * u2)


def stream_bits(keys, length: int):
    """A ``(streams, length)`` 0/1 message matrix, one row per stream."""
    import numpy as np

    out = np.empty((len(keys), length), dtype=np.int8)
    for position in range(length):
        out[:, position] = (
            stream_u64(keys, position) & np.uint64(1)
        ).astype(np.int8)
    return out
