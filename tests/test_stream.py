"""Tests for the VR streaming substrate."""

import numpy as np
import pytest

from repro.stream import (
    CATALOGUE,
    HD_1080P_60,
    LIFE_LIKE_1800FPS,
    UHD_8K_30,
    UHD_8K_RGBAD_60,
    VideoFormat,
    motion_to_photon_s,
    stream_over_link,
)


class TestVideoFormat:
    def test_8k_matches_papers_24gbps(self):
        # "even a 2D uncompressed 8K RGB video at 30 fps requires
        # ~24 Gbps".
        assert UHD_8K_30.raw_bitrate_gbps == pytest.approx(23.9, abs=0.5)

    def test_rgbad_in_the_hundreds_class(self):
        assert UHD_8K_RGBAD_60.raw_bitrate_gbps > 90.0

    def test_life_like_in_tbps(self):
        # Paper [31]: 2.7-27 Tbps for life-like VR.
        assert 2.7e3 <= LIFE_LIKE_1800FPS.raw_bitrate_gbps <= 27e3

    def test_catalogue_ordered_by_demand(self):
        rates = [f.raw_bitrate_gbps for f in CATALOGUE]
        assert rates == sorted(rates)

    def test_fits_raw(self):
        assert HD_1080P_60.fits_raw(9.4)
        assert not UHD_8K_30.fits_raw(9.4)
        assert UHD_8K_30.fits_raw(25.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            VideoFormat("bad", 0, 1080, 60.0, 24)
        with pytest.raises(ValueError):
            VideoFormat("bad", 1920, 1080, 0.0, 24)


class TestStreamOverLink:
    def always_up(self, seconds, slot_s=1e-3):
        return np.ones(int(seconds / slot_s), dtype=bool)

    def test_clean_link_delivers_everything(self):
        link = self.always_up(1.0)
        report = stream_over_link(HD_1080P_60, link, 1e-3,
                                  capacity_gbps=9.4)
        assert report.frames >= 55
        assert report.late_fraction == 0.0

    def test_latency_reflects_frame_size(self):
        # A 1080p60 frame is ~50 Mbit; at 9.4 Gbps that's ~5.3 ms.
        link = self.always_up(1.0)
        report = stream_over_link(HD_1080P_60, link, 1e-3, 9.4)
        p50 = report.latency_percentile_s(50)
        assert 0.004 <= p50 <= 0.009

    def test_undersized_link_backs_up(self):
        # 8K30 needs 24 Gbps; a 9.4 Gbps link must fall behind.
        link = self.always_up(1.0)
        report = stream_over_link(UHD_8K_30, link, 1e-3, 9.4)
        assert report.late_fraction > 0.5

    def test_compression_rescues_undersized_link(self):
        link = self.always_up(1.0)
        report = stream_over_link(UHD_8K_30, link, 1e-3, 9.4,
                                  compression_ratio=10.0,
                                  codec_latency_s=0.02,
                                  deadline_frames=2.0)
        assert report.late_fraction < 0.1

    def test_outage_makes_frames_late(self):
        link = self.always_up(1.0)
        link[300:500] = False  # a 200 ms outage
        report = stream_over_link(HD_1080P_60, link, 1e-3, 9.4)
        assert report.late_frames >= 10
        assert report.longest_late_burst() >= 10

    def test_outage_burst_bounded_by_duration(self):
        link = self.always_up(1.0)
        link[300:400] = False  # 100 ms ~ 6 frames at 60 fps
        report = stream_over_link(HD_1080P_60, link, 1e-3, 9.4)
        assert report.longest_late_burst() <= 10

    def test_undelivered_frames_counted_late(self):
        link = np.zeros(200, dtype=bool)  # link never up
        report = stream_over_link(HD_1080P_60, link, 1e-3, 9.4)
        assert report.frames > 0
        assert report.late_fraction == 1.0
        assert report.latency_percentile_s(50) == float("inf")

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            stream_over_link(HD_1080P_60, np.ones(10, dtype=bool),
                             0.0, 9.4)
        with pytest.raises(ValueError):
            stream_over_link(HD_1080P_60, np.ones(10, dtype=bool),
                             1e-3, 0.0)


class TestMotionToPhoton:
    def test_sums_components(self):
        mtp = motion_to_photon_s(0.013, 0.005, 0.002)
        assert mtp == pytest.approx(0.013 + 0.005 + 0.002 + 0.011)

    def test_codec_latency_hurts(self):
        raw = motion_to_photon_s(0.013, 0.005, 0.002)
        compressed = motion_to_photon_s(0.013, 0.005, 0.002,
                                        codec_latency_s=0.030)
        assert compressed - raw == pytest.approx(0.030)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            motion_to_photon_s(-0.001, 0.0, 0.0)
