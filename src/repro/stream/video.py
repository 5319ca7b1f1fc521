"""VR video formats and their raw bandwidth demands (Section 2.1).

The paper's motivation is quantitative: "even a 2D uncompressed 8K RGB
video at 30 frames per second requires ~24 Gbps; adding the
Alpha+depth channels ... would increase the required data rates to as
high as 200 Gbps", and the life-like bound is "2.7 to 27 Tbps based on
1800 frames/sec".  This module encodes those formats so the streaming
benches can ask: which of them does a given Cyclops link carry raw?
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VideoFormat:
    """One VR video format: geometry, rate, and per-pixel payload."""

    name: str
    width: int
    height: int
    fps: float
    bits_per_pixel: int
    views: int = 1  # stereo = 2, light-field rigs more

    def __post_init__(self):
        if min(self.width, self.height, self.views) < 1:
            raise ValueError("dimensions and views must be positive")
        if self.fps <= 0 or self.bits_per_pixel <= 0:
            raise ValueError("fps and bit depth must be positive")

    @property
    def pixels_per_frame(self) -> int:
        return self.width * self.height * self.views

    @property
    def bits_per_frame(self) -> int:
        return self.pixels_per_frame * self.bits_per_pixel

    @property
    def raw_bitrate_gbps(self) -> float:
        """Uncompressed streaming rate."""
        return self.bits_per_frame * self.fps / 1e9

    def fits_raw(self, link_gbps: float) -> bool:
        """True when a link can carry the format uncompressed."""
        return self.raw_bitrate_gbps <= link_gbps


# The paper's reference points (Section 2.1).
HD_1080P_60 = VideoFormat(
    name="1080p RGB 60fps", width=1920, height=1080, fps=60.0,
    bits_per_pixel=24)
UHD_4K_90_STEREO = VideoFormat(
    name="4K stereo RGB 90fps", width=3840, height=2160, fps=90.0,
    bits_per_pixel=24, views=2)
UHD_8K_30 = VideoFormat(
    name="8K RGB 30fps (paper: ~24 Gbps)", width=7680, height=4320,
    fps=30.0, bits_per_pixel=24)
UHD_8K_30_YUV420 = VideoFormat(
    name="8K YUV 4:2:0 30fps (~16 Gbps)", width=7680, height=4320,
    fps=30.0, bits_per_pixel=12)
UHD_8K_RGBAD_60 = VideoFormat(
    name="8K RGB+A+D 60fps (paper: up to ~200 Gbps class)",
    width=7680, height=4320, fps=60.0, bits_per_pixel=48)
LIFE_LIKE_1800FPS = VideoFormat(
    name="life-like 1800fps (paper [31]: 2.7-27 Tbps)",
    width=7680, height=4320, fps=1800.0, bits_per_pixel=48)

# Ordered by raw bandwidth demand.
CATALOGUE = (HD_1080P_60, UHD_8K_30_YUV420, UHD_8K_30,
             UHD_4K_90_STEREO, UHD_8K_RGBAD_60, LIFE_LIKE_1800FPS)
