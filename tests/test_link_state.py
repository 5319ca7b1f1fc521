"""Unit tests for the SFP link-state machine (re-lock behaviour)."""

import pytest

from repro.link import LinkStateMachine
from repro.optics import SFP_10G_ZR

GOOD = -10.0   # comfortably above the -25 dBm sensitivity
BAD = -40.0    # below sensitivity


def machine(initially_up=True):
    return LinkStateMachine(SFP_10G_ZR, initially_up=initially_up)


class TestBasicTransitions:
    def test_starts_up(self):
        assert machine().link_up

    def test_starts_down_when_asked(self):
        assert not machine(initially_up=False).link_up

    def test_stays_up_with_signal(self):
        m = machine()
        for t in range(10):
            assert m.observe(t * 0.001, GOOD)

    def test_drops_immediately_on_loss(self):
        m = machine()
        assert not m.observe(0.001, BAD)


class TestRelock:
    def test_no_instant_recovery(self):
        m = machine()
        m.observe(0.0, BAD)
        assert not m.observe(0.001, GOOD)

    def test_recovers_after_relock_delay(self):
        m = machine()
        m.observe(0.0, BAD)
        m.observe(0.001, GOOD)
        relock = SFP_10G_ZR.relock_delay_s
        assert not m.observe(0.001 + relock * 0.9, GOOD)
        assert m.observe(0.001 + relock * 1.1, GOOD)

    def test_flapping_signal_restarts_relock(self):
        m = machine()
        m.observe(0.0, BAD)
        m.observe(0.5, GOOD)
        m.observe(1.0, BAD)       # lost again mid-relock
        m.observe(1.5, GOOD)
        relock = SFP_10G_ZR.relock_delay_s
        # Only continuous presence since t=1.5 counts.
        assert not m.observe(1.5 + relock * 0.9, GOOD)
        assert m.observe(1.5 + relock * 1.1, GOOD)

    def test_initially_down_needs_relock_too(self):
        m = machine(initially_up=False)
        m.observe(0.0, GOOD)
        relock = SFP_10G_ZR.relock_delay_s
        assert not m.observe(relock * 0.5, GOOD)
        assert m.observe(relock * 1.5, GOOD)


class TestRapidFlapping:
    """Sub-re-lock blips: every blip restarts the timer from zero."""

    def test_each_blip_restarts_the_relock_clock(self):
        m = machine()
        relock = SFP_10G_ZR.relock_delay_s
        m.observe(0.0, BAD)
        t = 0.0
        # Signal blips out every relock/2 before the timer can run
        # out: the link must never come back up in between.
        for i in range(1, 9):
            t = i * relock / 2
            power = BAD if i % 2 == 0 else GOOD
            assert not m.observe(t, power)
        # Continuous presence for a full delay finally relocks.
        assert not m.observe(t + 0.1, GOOD)
        assert m.observe(t + 0.1 + relock, GOOD)


class TestOrdering:
    def test_rejects_time_travel(self):
        m = machine()
        m.observe(1.0, GOOD)
        with pytest.raises(ValueError):
            m.observe(0.5, GOOD)

    def test_equal_times_allowed(self):
        m = machine()
        m.observe(1.0, GOOD)
        assert m.observe(1.0, GOOD)
