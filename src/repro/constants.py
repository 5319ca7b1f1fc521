"""Paper-sourced numeric constants, collected in one place.

Every number here is taken directly from the Cyclops paper (SIGCOMM 2022)
or from the datasheets it cites.  Modules import from here rather than
hard-coding magic numbers, so the provenance of each value stays visible.
"""

# --------------------------------------------------------------------------
# Link geometry (Section 5.1: "We have created 10Gbps and 25Gbps links of
# 1.5-2m length"; the trace simulation in Section 5.4 assumes 1.75 m).
# --------------------------------------------------------------------------
LINK_RANGE_MIN_M = 1.5
LINK_RANGE_MAX_M = 2.0
LINK_RANGE_NOMINAL_M = 1.75

# --------------------------------------------------------------------------
# VRH movement requirements (Section 2.2, Fig. 3): during normal use the
# angular and linear speeds of a VRH were at most 19 deg/s and 14 cm/s.
# --------------------------------------------------------------------------
REQUIRED_LINEAR_SPEED_M_S = 0.14
REQUIRED_ANGULAR_SPEED_DEG_S = 19.0

# --------------------------------------------------------------------------
# VRH-T tracking behaviour (Section 5.2): reports every 12-13 ms, except
# 0.7% of the time at 14-15 ms.  Stationary noise over 30 minutes: location
# varied by up to 1.79 mm and orientation by up to 0.41 mrad.
# --------------------------------------------------------------------------
TRACKER_PERIOD_MIN_S = 0.012
TRACKER_PERIOD_MAX_S = 0.013
TRACKER_SLOW_PERIOD_MIN_S = 0.014
TRACKER_SLOW_PERIOD_MAX_S = 0.015
TRACKER_SLOW_FRACTION = 0.007
TRACKER_LOCATION_NOISE_MAX_M = 1.79e-3
TRACKER_ORIENTATION_NOISE_MAX_RAD = 0.41e-3
CONTROL_CHANNEL_LATENCY_S = 0.5e-3  # "< 1 ms latency due to RF control channel"

# --------------------------------------------------------------------------
# Pointing latency (Section 5.2): computation is micro-seconds; mirror
# rotation plus DAC conversion is about 1-2 ms.
# --------------------------------------------------------------------------
POINTING_LATENCY_MIN_S = 1e-3
POINTING_LATENCY_MAX_S = 2e-3

# --------------------------------------------------------------------------
# Galvo mirror (ThorLabs GVS102, Section 5.1): angular accuracy 10 urad,
# small-angle step latency 300 us.  The GVS-series scale factor is
# 0.5 V per degree of optical deflection; its +/-10 V input range is the
# DAQ's output range below.
# --------------------------------------------------------------------------
GM_ANGULAR_ACCURACY_RAD = 10e-6
GM_SMALL_ANGLE_LATENCY_S = 300e-6
GM_VOLTS_PER_OPTICAL_DEGREE = 0.5

# DAQ (MCC USB-1608G): 16-bit DAC over +/-10 V.
DAQ_BITS = 16
DAQ_VOLTAGE_RANGE_V = 10.0
DAQ_LATENCY_S = 1.0e-3  # dominant part of the 1-2 ms pointing latency

# A report's command reaches the mirrors after the RF control channel
# and the DAC conversion: the live loop's TP latency.
TP_LATENCY_S = CONTROL_CHANNEL_LATENCY_S + DAQ_LATENCY_S

# --------------------------------------------------------------------------
# SFP transceivers.
# 10G: SFP-10G-ZR 1550 nm, TX power 0..4 dBm, RX sensitivity -25 dBm.
# 25G: SFP28 LR, link budget 12-18 dB (the SFP28 ER's 19-25 dB budget is
# unusable because no compatible NIC exists); we model TX 0 dBm and
# sensitivity chosen to give a mid-range 15 dB budget.
# --------------------------------------------------------------------------
SFP_10G_TX_POWER_DBM = 0.0
SFP_10G_RX_SENSITIVITY_DBM = -25.0
SFP_10G_WAVELENGTH_NM = 1550.0
SFP_10G_OPTIMAL_THROUGHPUT_GBPS = 9.4  # observed iperf ceiling (Section 5.3)

SFP_25G_TX_POWER_DBM = 0.0
SFP_25G_RX_SENSITIVITY_DBM = -15.0  # 12-18 dB budget -> model mid-range
SFP_25G_WAVELENGTH_NM = 1310.0
SFP_25G_OPTIMAL_THROUGHPUT_GBPS = 23.5

# Re-acquisition: "once the link is lost, it takes a few seconds to regain
# the link partly due to the SFPs taking a few seconds to report that the
# link is up, after receiving the light".
SFP_RELOCK_DELAY_S = 2.5

# EDFA amplifier gain used to compensate the fiber-coupling loss.
AMPLIFIER_GAIN_DB = 20.0

# Coupling loss of the diverging-beam RX design (Section 5.3: "Our coupling
# loss for the diverging beam is quite high at -30dB").
DIVERGING_COUPLING_LOSS_DB = 30.0

# --------------------------------------------------------------------------
# Link tolerance operating points (Table 1, Fig. 11, Section 5.3.1), used
# only for model calibration and bench assertions -- never inside the TP
# algorithm itself.
# --------------------------------------------------------------------------
COLLIMATED_TX_TOLERANCE_MRAD = 2.00
COLLIMATED_RX_TOLERANCE_MRAD = 2.28
COLLIMATED_PEAK_POWER_DBM = -15.0
DIVERGING_20MM_TX_TOLERANCE_MRAD = 15.81
DIVERGING_20MM_RX_TOLERANCE_MRAD = 5.77
DIVERGING_PEAK_POWER_DBM = -10.0
OPTIMAL_BEAM_DIAMETER_AT_RX_M = 16e-3
RX_TOLERANCE_PEAK_MRAD = 5.77

LINK_25G_RX_ANGULAR_TOLERANCE_MRAD = 8.73  # 0.5 deg
LINK_25G_TX_ANGULAR_TOLERANCE_MRAD = 8.5   # "about 8-9 mrads"
LINK_25G_LINEAR_TOLERANCE_M = 6e-3

# --------------------------------------------------------------------------
# Calibration sample sizes (Sections 4.1-4.2, 5.2).
# --------------------------------------------------------------------------
KSPACE_BOARD_COLUMNS = 20
KSPACE_BOARD_ROWS = 15
KSPACE_CELL_SIZE_M = 0.0254  # 1 inch
KSPACE_BOARD_DISTANCE_M = 1.5
KSPACE_INTERIOR_SAMPLES = 266  # 19 x 14 interior grid intersections
MAPPING_TRAINING_SAMPLES = 30

# --------------------------------------------------------------------------
# Table 2: model-estimation errors, used for bench assertions and as the
# TP residual error injected by the Section 5.4 trace simulation.
# --------------------------------------------------------------------------
TABLE2_STAGE1_TX_AVG_MM = 1.24
TABLE2_STAGE1_RX_AVG_MM = 1.90
TABLE2_COMBINED_TX_AVG_MM = 2.18
TABLE2_COMBINED_RX_AVG_MM = 4.54
TABLE2_COMBINED_RX_MAX_MM = 6.50

# Section 5.4: "time is divided into 1 ms slots".  The live session,
# handover and static loops step the channel on the same slot.
SLOT_S = 1e-3

# Section 5.4 simulation parameters.
TRACE_REPORT_PERIOD_S = 10e-3
TRACE_TP_LATERAL_ERROR_M = 4.54e-3
TRACE_TP_ANGULAR_ERROR_RAD = 4.54e-3 / 1.75  # ~2.59 mrad at 1.75 m
TRACE_COUNT = 500
TRACE_DURATION_S = 60.0
TRACE_FRAME_SLOTS = 30

# Observed tolerated speeds (Table 3), for bench shape assertions only.
TABLE3_10G_PURE_LINEAR_CM_S = 33.0
TABLE3_10G_PURE_ANGULAR_DEG_S = 17.0
TABLE3_10G_MIXED_LINEAR_CM_S = 30.0
TABLE3_10G_MIXED_ANGULAR_DEG_S = 16.0
TABLE3_25G_PURE_LINEAR_CM_S = 25.0
TABLE3_25G_PURE_ANGULAR_DEG_S = 25.0
TABLE3_25G_MIXED_LINEAR_CM_S = 15.0
TABLE3_25G_MIXED_ANGULAR_DEG_S = 17.5
