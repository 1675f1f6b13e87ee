"""Tests for deterministic RNG plumbing."""

import random
import sys

import pytest

from repro.common.rng import make_rng, spawn_rng


class TestMakeRng:
    def test_default_is_deterministic(self):
        assert make_rng().random() == make_rng().random()

    def test_int_seed(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough(self):
        rng = random.Random(3)
        assert make_rng(rng) is rng


class TestSpawnRng:
    def test_children_are_independent_streams(self):
        parent = make_rng(1)
        a = spawn_rng(parent, "a")
        b = spawn_rng(parent, "b")
        assert a.random() != b.random()

    def test_label_salts_the_seed(self):
        a = spawn_rng(make_rng(1), "x")
        b = spawn_rng(make_rng(1), "y")
        assert a.random() != b.random()

    def test_reproducible_given_same_parent_state(self):
        a = spawn_rng(make_rng(1), "x")
        b = spawn_rng(make_rng(1), "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_spawning_advances_parent(self):
        parent = make_rng(1)
        before = parent.getstate()
        spawn_rng(parent, "x")
        assert parent.getstate() != before


class TestTrialStreams:
    def _streams(self):
        from repro.common.rng import trial_streams

        return trial_streams

    def test_deterministic(self):
        import numpy as np

        trial_streams = self._streams()
        np.testing.assert_array_equal(
            trial_streams(7, 5), trial_streams(7, 5)
        )

    def test_offset_selects_a_window_of_the_same_sequence(self):
        import numpy as np

        trial_streams = self._streams()
        np.testing.assert_array_equal(
            trial_streams(7, 5, offset=2), trial_streams(7, 7)[2:]
        )

    def test_seed_changes_every_key(self):
        trial_streams = self._streams()
        assert not (trial_streams(1, 8) == trial_streams(2, 8)).any()

    def test_negative_arguments_rejected(self):
        import pytest

        trial_streams = self._streams()
        with pytest.raises(ValueError):
            trial_streams(7, -1)
        with pytest.raises(ValueError):
            trial_streams(7, 1, offset=-1)


class TestStreamDraws:
    def _keys(self, trials=4):
        from repro.common.rng import trial_streams

        return trial_streams(2020, trials)

    def test_spawn_streams_label_salts_the_keys(self):
        from repro.common.rng import spawn_streams

        keys = self._keys()
        assert not (
            spawn_streams(keys, "message") == spawn_streams(keys, "noise")
        ).any()

    def test_stream_bits_matches_per_counter_u64_parity(self):
        import numpy as np

        from repro.common.rng import stream_bits, stream_u64

        keys = self._keys()
        bits = stream_bits(keys, 6)
        assert bits.shape == (4, 6)
        for position in range(6):
            np.testing.assert_array_equal(
                bits[:, position].astype(np.uint64),
                stream_u64(keys, position) & np.uint64(1),
            )

    def test_stream_gauss_counters_do_not_overlap(self):
        from repro.common.rng import stream_gauss

        keys = self._keys()
        a = stream_gauss(keys, 0, 0.0, 1.0)
        b = stream_gauss(keys, 1, 0.0, 1.0)
        assert not (a == b).any()

    def test_stream_gauss_moments(self):
        from repro.common.rng import stream_gauss, trial_streams

        keys = trial_streams(11, 20000)
        draws = stream_gauss(keys, 3, 10.0, 2.0)
        assert abs(float(draws.mean()) - 10.0) < 0.1
        assert abs(float(draws.std()) - 2.0) < 0.1


class TestMersenneTwisterWords:
    """Each draw-to-word mapping, pinned against ``random.Random``.

    The lockstep decoders assume CPython's ``random`` internals; these
    tests catch an interpreter that draws differently.
    """

    SEEDS = [1, 7, 2**64 + 3, 540 * 0x9E3779B97F4A7C15 ^ 12345]

    def _tops(self, count=400):
        from repro.common.rng import word_tops

        return word_tops(self.SEEDS, count)

    def test_tops_are_the_top_bytes_of_the_streams_outputs(self):
        tops = self._tops(8)
        for seed, row in zip(self.SEEDS, tops.tolist()):
            stream = random.Random(seed)
            assert row == [stream.getrandbits(32) >> 24 for _ in range(8)]

    def test_getrandbits_64_takes_two_words_low_first(self):
        for seed in self.SEEDS:
            stream, twin = random.Random(seed), random.Random(seed)
            low, high = twin.getrandbits(32), twin.getrandbits(32)
            assert stream.getrandbits(64) == low | high << 32
            assert stream.getstate() == twin.getstate()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_getrandbits_64n_skips_n_random_calls(self, n):
        # The hyper-threaded kernel skips a step's n tie-break draws
        # with one getrandbits(64 * n) call.
        for seed in self.SEEDS:
            stream, twin = random.Random(seed), random.Random(seed)
            stream.getrandbits(64 * n)
            for _ in range(n):
                twin.random()
            assert stream.getstate() == twin.getstate()

    @pytest.mark.parametrize("n, draw", [
        (9, lambda stream: stream.choice(range(9))),
        (8, lambda stream: stream.randrange(8)),
    ])
    def test_randbelow_takes_top_bits_and_redraws(self, n, draw):
        from repro.common.rng import randbelow_draws

        tops = self._tops()
        values, used, ok = randbelow_draws(tops, n, 50)
        assert ok.all()
        for row, seed in enumerate(self.SEEDS):
            stream = random.Random(seed)
            assert values[row].tolist() == [draw(stream) for _ in range(50)]
            # ``used`` words are gone: the next output is the next word.
            assert stream.getrandbits(32) >> 24 == tops[row, used[row]]

    def test_coin_takes_two_words_and_reads_the_first(self):
        from repro.common.rng import coin_draws

        coins, ok = coin_draws(self._tops(), 3, 100)
        assert ok.all()
        for seed, row in zip(self.SEEDS, coins.tolist()):
            stream = random.Random(seed)
            stream.getrandbits(96)  # skip three words
            assert row == [stream.random() < 0.5 for _ in range(100)]

    def test_coins_start_per_row(self):
        import numpy as np

        from repro.common.rng import coin_draws

        tops = self._tops(20)
        start = np.array([0, 1, 2, 3])
        coins, ok = coin_draws(tops, start, 5)
        assert ok.all()
        for row, offset in enumerate(start):
            expected = tops[row, offset:offset + 10:2] < 128
            assert coins[row].tolist() == expected.tolist()

    def test_short_rows_are_flagged(self):
        from repro.common.rng import coin_draws, randbelow_draws

        tops = self._tops(10)
        assert not randbelow_draws(tops, 9, 11)[2].any()
        assert not coin_draws(tops, 0, 6)[1].any()
        assert coin_draws(tops, 0, 5)[1].all()

    def test_spawn_seeds_match_spawn_rng(self):
        from repro.common.rng import spawn_seeds

        parent, twin = random.Random(5), random.Random(5)
        seeds = spawn_seeds(parent, "trial", 3)
        for seed in seeds:
            child = spawn_rng(twin, "trial")
            assert random.Random(seed).getstate() == child.getstate()
        assert parent.getstate() == twin.getstate()

    def test_short_rows_are_redrawn_longer_from_their_own_seed(self):
        from repro.common.rng import decode_word_tops, randbelow_draws

        calls = []

        def decode(tops):
            calls.append(tops.shape)
            values, used, ok = randbelow_draws(tops, 9, 40)
            return (values, used), ok

        tiny = decode_word_tops(self.SEEDS, 3, decode)
        assert len(calls) > 1 and calls[-1][1] > 3
        roomy = decode_word_tops(self.SEEDS, 400, decode)
        for small, large in zip(tiny, roomy):
            assert small.tolist() == large.tolist()


class TestChoiceStream:
    """``choice_stream`` reads exactly the indices ``choice`` draws."""

    @pytest.mark.parametrize("n", [1, 2, 9, 255, 256, 257, 1000])
    def test_matches_random_choice_across_blocks(self, n):
        from repro.common import rng as rng_module

        options = list(range(n))
        stream = rng_module.choice_stream(random.Random(n + 11), n)
        expected = random.Random(n + 11)
        # More draws than one block's words can hold, for any n.
        count = 2 * rng_module._CHOICE_BLOCK + 7
        assert [next(stream) for _ in range(count)] == [
            expected.choice(options) for _ in range(count)
        ]

    def test_reads_its_rng_a_block_at_a_time(self):
        from repro.common import rng as rng_module

        source, twin = random.Random(3), random.Random(3)
        stream = rng_module.choice_stream(source, 9)
        next(stream)
        twin.getrandbits(32 * rng_module._CHOICE_BLOCK)
        assert source.getstate() == twin.getstate()

    @pytest.mark.parametrize("n", [0, 2**32])
    def test_out_of_range_lengths_rejected(self, n):
        from repro.common.rng import choice_stream

        with pytest.raises(ValueError):
            choice_stream(random.Random(1), n)


class TestWordTopsMemo:
    """Kept words answer exactly what a fresh draw would."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        from repro.common import rng as rng_module

        with rng_module._TOPS_LOCK:
            rng_module._TOPS.clear()
        yield rng_module
        with rng_module._TOPS_LOCK:
            rng_module._TOPS.clear()

    SEEDS = [3, 5, 2**70 + 1]

    def test_cold_equals_warm(self, empty_memo):
        cold = empty_memo.word_tops(self.SEEDS, 50).copy()
        warm = empty_memo.word_tops(self.SEEDS, 50)
        assert warm.tolist() == cold.tolist()
        assert warm.tolist() == empty_memo._draw_tops(self.SEEDS, 50).tolist()

    def test_narrow_then_wider_request(self, empty_memo):
        narrow = empty_memo.word_tops(self.SEEDS, 20)
        wide = empty_memo.word_tops(self.SEEDS, 60)
        assert wide.shape == (3, 60)
        assert wide[:, :20].tolist() == narrow.tolist()
        assert wide.tolist() == empty_memo._draw_tops(self.SEEDS, 60).tolist()
        # The wider draw replaced the narrower one: a prefix of it.
        again = empty_memo.word_tops(self.SEEDS, 20)
        assert again.base is not None and again.shape == (3, 20)
        assert again.tolist() == narrow.tolist()
        assert empty_memo._TOPS[tuple(self.SEEDS)].shape == (3, 60)

    def test_views_are_read_only(self, empty_memo):
        for count in (40, 10, 40):
            tops = empty_memo.word_tops(self.SEEDS, count)
            assert not tops.flags.writeable
            with pytest.raises(ValueError):
                tops[0, 0] = 1

    def test_holds_a_bounded_number_of_seed_sets(self, empty_memo):
        bound = empty_memo._TOPS_HELD
        for first in range(bound + 3):
            empty_memo.word_tops([first, first + 1000], 8)
            assert len(empty_memo._TOPS) <= bound
        assert len(empty_memo._TOPS) == bound
        # The least recently read sets went first.
        assert (0, 1000) not in empty_memo._TOPS
        assert (bound + 2, bound + 1002) in empty_memo._TOPS

    def test_concurrent_readers_agree(self, empty_memo):
        import threading

        expected = {
            first: empty_memo._draw_tops([first, first + 7], 30).tolist()
            for first in range(2 * empty_memo._TOPS_HELD)
        }
        errors = []

        def read(offset):
            for step in range(200):
                first = (offset + step) % len(expected)
                got = empty_memo.word_tops([first, first + 7], 10 + step % 21)
                if got.tolist() != [row[:got.shape[1]] for row in expected[first]]:
                    errors.append(first)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(empty_memo._TOPS) <= empty_memo._TOPS_HELD
