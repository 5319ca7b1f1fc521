"""Tests for the multi-TX handover extension (Section 3)."""

import numpy as np
import pytest

from repro.motion import StaticProfile
from repro.simulate import (
    HandoverController,
    MultiTxRig,
    OcclusionEvent,
)


@pytest.fixture(scope="module")
def rig():
    return MultiTxRig(tx_count=2, seed=7)


class TestOcclusionEvent:
    def test_active_interval(self):
        event = OcclusionEvent(tx_index=0, start_s=1.0, end_s=2.0)
        assert not event.active_at(0.9)
        assert event.active_at(1.0)
        assert event.active_at(1.99)
        assert not event.active_at(2.0)


class TestMultiTxRig:
    def test_tx_count(self, rig):
        assert rig.tx_count == 2
        assert len(rig.channels) == 2
        assert len(rig.oracles) == 2

    def test_rejects_zero_txs(self):
        with pytest.raises(ValueError):
            MultiTxRig(tx_count=0)

    def test_both_txs_can_close_the_link(self, rig):
        pose = rig.testbed.home_pose
        report = rig.testbed.tracker.report(pose)
        sensitivity = rig.testbed.design.sfp.rx_sensitivity_dbm
        for k in range(rig.tx_count):
            voltages = rig.point_at(k, report)
            assert voltages is not None
            rig.apply(k, voltages)
            assert rig.power_dbm(k, pose, occluded=False) >= sensitivity

    def test_occlusion_kills_power(self, rig):
        pose = rig.testbed.home_pose
        report = rig.testbed.tracker.report(pose)
        voltages = rig.point_at(0, report)
        rig.apply(0, voltages)
        assert rig.power_dbm(0, pose, occluded=True) < \
            rig.testbed.design.sfp.rx_sensitivity_dbm

    def test_txs_are_physically_separate(self, rig):
        a, _ = rig.tx_assemblies[0].world_beam()
        b, _ = rig.tx_assemblies[1].world_beam()
        assert np.linalg.norm(np.subtract(a, b)) > 0.2


class TestHandoverController:
    def test_handover_survives_occlusion(self, rig):
        profile = StaticProfile(rig.testbed.home_pose, duration_s=3.0)
        occlusions = [OcclusionEvent(0, start_s=1.0, end_s=2.0)]
        result = HandoverController(rig, use_handover=True).run(
            profile, occlusions)
        assert result.handovers >= 1
        assert result.uptime_fraction > 0.9

    def test_no_handover_suffers_the_occlusion(self):
        rig = MultiTxRig(tx_count=2, seed=7)
        profile = StaticProfile(rig.testbed.home_pose, duration_s=3.0)
        occlusions = [OcclusionEvent(0, start_s=1.0, end_s=2.0)]
        result = HandoverController(rig, use_handover=False).run(
            profile, occlusions)
        # Roughly the occluded third of the run is dark.
        assert 0.55 <= result.uptime_fraction <= 0.75
        assert result.handovers == 0

    def test_active_tx_switches(self, rig):
        profile = StaticProfile(rig.testbed.home_pose, duration_s=3.0)
        occlusions = [OcclusionEvent(0, start_s=1.0, end_s=2.5)]
        result = HandoverController(rig, use_handover=True).run(
            profile, occlusions)
        assert set(np.unique(result.active_tx)) == {0, 1}

    def test_no_occlusion_no_handover(self, rig):
        profile = StaticProfile(rig.testbed.home_pose, duration_s=1.0)
        result = HandoverController(rig, use_handover=True).run(
            profile, occlusions=[])
        assert result.handovers == 0
        assert result.uptime_fraction == 1.0

    def test_single_tx_cannot_hand_over(self):
        rig = MultiTxRig(tx_count=1, seed=7)
        profile = StaticProfile(rig.testbed.home_pose, duration_s=2.0)
        occlusions = [OcclusionEvent(0, start_s=0.5, end_s=1.5)]
        result = HandoverController(rig, use_handover=True).run(
            profile, occlusions)
        assert result.handovers == 0
        assert result.uptime_fraction < 0.8
