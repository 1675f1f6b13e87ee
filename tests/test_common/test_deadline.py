"""End-to-end deadline arithmetic, on a hand-cranked clock."""

import pytest

from repro.common.deadline import Deadline, deadline_from_ms


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_after_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(10.0, clock=clock)
        assert deadline.remaining() == pytest.approx(10.0)
        assert not deadline.expired
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(6.0)

    def test_remaining_clamps_at_zero_after_expiry(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(5.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_expiry_boundary_is_inclusive(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(1.0)
        assert deadline.expired

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-0.1)

    def test_zero_budget_is_born_expired(self):
        clock = FakeClock()
        deadline = Deadline.after(0.0, clock=clock)
        assert deadline.expired

    def test_bound_caps_a_finite_timeout(self):
        clock = FakeClock()
        deadline = Deadline.after(3.0, clock=clock)
        assert deadline.bound(10.0) == pytest.approx(3.0)
        assert deadline.bound(1.0) == pytest.approx(1.0)

    def test_bound_of_none_is_the_remaining_budget(self):
        # A deadline always implies *some* per-attempt bound, even when
        # no explicit timeout is configured.
        clock = FakeClock()
        deadline = Deadline.after(7.5, clock=clock)
        assert deadline.bound(None) == pytest.approx(7.5)


class TestDeadlineFromMs:
    def test_none_passes_through(self):
        assert deadline_from_ms(None) is None

    def test_millisecond_budget_converts(self):
        clock = FakeClock()
        deadline = deadline_from_ms(1500, clock=clock)
        assert deadline.remaining() == pytest.approx(1.5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            deadline_from_ms(-1)
