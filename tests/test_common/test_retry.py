"""Unit tests for the full-jitter backoff draw."""

from repro.common.rng import make_rng
from repro.common.retry import full_jitter


class TestFullJitter:
    def test_draw_is_within_bounds(self):
        rng = make_rng(1)
        for delay in (0.01, 0.5, 2.0):
            for _ in range(50):
                drawn = full_jitter(delay, rng)
                assert 0.0 <= drawn <= delay

    def test_zero_or_negative_delay_is_zero(self):
        rng = make_rng(1)
        assert full_jitter(0.0, rng) == 0.0
        assert full_jitter(-1.0, rng) == 0.0

    def test_is_seeded_and_reproducible(self):
        a = [full_jitter(1.0, make_rng(7)) for _ in range(1)]
        b = [full_jitter(1.0, make_rng(7)) for _ in range(1)]
        assert a == b

    def test_draws_spread_across_the_range(self):
        rng = make_rng(3)
        draws = [full_jitter(1.0, rng) for _ in range(400)]
        assert min(draws) < 0.1
        assert max(draws) > 0.9
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_consumes_one_uniform_draw_per_call(self):
        # Callers that share an RNG (the supervisor's respawn throttle)
        # must see the same stream as a direct uniform draw.
        jittered = make_rng(11)
        direct = make_rng(11)
        for delay in (0.5, 1.0, 4.0):
            assert full_jitter(delay, jittered) == direct.uniform(0.0, delay)
