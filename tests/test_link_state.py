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

    def test_throughput_follows_state(self):
        m = machine()
        m.observe(0.0, GOOD)
        assert m.throughput_gbps() == pytest.approx(9.4)
        m.observe(0.001, BAD)
        assert m.throughput_gbps() == 0.0


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

    def test_signal_present_vs_link_up(self):
        m = machine()
        m.observe(0.0, BAD)
        assert not m.signal_present
        m.observe(0.001, GOOD)
        assert m.signal_present and not m.link_up


class TestUptimeAccounting:
    """Time-weighted availability stays consistent under flapping."""

    def test_interval_carries_previous_state(self):
        m = machine()
        m.observe(0.0, GOOD)
        m.observe(1.0, BAD)    # (0, 1] was up
        m.observe(3.0, GOOD)   # (1, 3] was down
        assert m.up_time_s == pytest.approx(1.0)
        assert m.observed_s == pytest.approx(3.0)
        assert m.uptime_fraction == pytest.approx(1.0 / 3.0)

    def test_first_sample_spans_nothing(self):
        m = machine()
        m.observe(5.0, GOOD)
        assert m.observed_s == 0.0
        assert m.uptime_fraction == 1.0

    def test_rapid_flapping_sums_exactly(self):
        m = machine()
        relock = SFP_10G_ZR.relock_delay_s
        dt = 0.001
        steps = int(relock * 4 / dt)
        for i in range(steps + 1):
            # 100 ms dark every second for the first half: the link
            # drops each time; the clean tail finally relocks.
            t = i * dt
            dark = (t % 1.0) < 0.1 and t < relock * 2
            m.observe(t, BAD if dark else GOOD)
        assert m.link_up  # the clean tail exceeded the re-lock delay
        assert m.observed_s == pytest.approx(steps * dt)
        assert 0.0 < m.up_time_s < m.observed_s
        assert m.uptime_fraction == pytest.approx(
            m.up_time_s / m.observed_s)

    def test_up_fraction_matches_per_sample_mean(self):
        """Each interval (t_{i-1}, t_i] carries the state the machine
        was in when it started -- the return value of observe i-1."""
        m = machine()
        dt = 0.001
        returns = []
        for i in range(2001):
            power = BAD if 500 <= i < 700 else GOOD
            returns.append(m.observe(i * dt, power))
        mean = sum(returns[:-1]) / len(returns[:-1])
        assert m.uptime_fraction == pytest.approx(mean)


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
