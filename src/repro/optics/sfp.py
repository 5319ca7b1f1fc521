"""SFP transceiver catalogue.

The prototypes use commodity small-form-factor pluggable transceivers:
SFP-10G-ZR (1550 nm, 0..4 dBm TX, -25 dBm sensitivity) for the 10G link
and SFP28 LR for the 25G link (12-18 dB link budget; the longer-reach
SFP28 ER could not be used because no compatible NIC exists).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants


@dataclass(frozen=True)
class Sfp:
    """An SFP transceiver: the electrical/optical endpoints of the link."""

    name: str
    tx_power_dbm: float
    rx_sensitivity_dbm: float
    wavelength_nm: float
    line_rate_gbps: float
    optimal_throughput_gbps: float
    relock_delay_s: float = constants.SFP_RELOCK_DELAY_S

    def __post_init__(self) -> None:
        if self.line_rate_gbps <= 0:
            raise ValueError("line rate must be positive")
        if self.optimal_throughput_gbps > self.line_rate_gbps:
            raise ValueError("goodput cannot exceed the line rate")
        if self.relock_delay_s < 0:
            raise ValueError("re-lock delay cannot be negative")

    def signal_detected(self, received_dbm: float) -> bool:
        """True when the received power clears the sensitivity floor."""
        return received_dbm >= self.rx_sensitivity_dbm


SFP_10G_ZR = Sfp(
    name="SFP-10G-ZR",
    tx_power_dbm=constants.SFP_10G_TX_POWER_DBM,
    rx_sensitivity_dbm=constants.SFP_10G_RX_SENSITIVITY_DBM,
    wavelength_nm=constants.SFP_10G_WAVELENGTH_NM,
    line_rate_gbps=10.3125,
    optimal_throughput_gbps=constants.SFP_10G_OPTIMAL_THROUGHPUT_GBPS,
)

SFP28_LR = Sfp(
    name="SFP28-LR",
    tx_power_dbm=constants.SFP_25G_TX_POWER_DBM,
    rx_sensitivity_dbm=constants.SFP_25G_RX_SENSITIVITY_DBM,
    wavelength_nm=constants.SFP_25G_WAVELENGTH_NM,
    line_rate_gbps=25.78125,
    optimal_throughput_gbps=constants.SFP_25G_OPTIMAL_THROUGHPUT_GBPS,
)
