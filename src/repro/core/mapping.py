"""Joint learning of the 12 K-space-to-VR-space mapping parameters
(Section 4.2).

Training data: 5-tuples ``(v1, v2, v3, v4, psi)`` where ``psi`` is the
VRH-T-reported headset pose and the four voltages come from an
exhaustive power-maximizing alignment search at that pose.  Lemma 1
says such an alignment makes the TX beam's strike point on the RX
mirror coincide with the RX beam's origin, and vice versa -- so the
error function sums ``d(p_t, tau_r) + d(p_r, tau_t)`` over all samples,
evaluated under the *candidate* mapping parameters, and non-linear
least squares drives it toward zero.

The residual is batched: the samples are stacked once, and each
candidate parameter vector is evaluated for all of them in one pass
through :func:`repro.core.gma.trace_rows` (the RX GMA gets one
placement per reported pose).  The per-sample helpers below are 1-row
and N-row calls into the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
import numpy.typing as npt
from scipy.optimize import least_squares

from ..geometry import NoIntersectionError, euler_to_matrix
from ..vrh import Pose
from .gma import GmaModel, intersect_rows, layout, placed, trace_rows
from .system import LearnedSystem

#: Residual assigned when a candidate geometry misses a mirror plane.
MISS_PENALTY_M = 10.0


@dataclass(frozen=True)
class AlignedSample:
    """One Section 4.2 training tuple: aligned voltages + reported pose."""

    v_tx1: float
    v_tx2: float
    v_rx1: float
    v_rx2: float
    reported_pose: Pose


@dataclass(frozen=True)
class _SampleStack:
    """N aligned samples as arrays: voltages (n, 4), poses (n, 3, 3)
    and (n, 3)."""

    voltages: np.ndarray
    rotations: np.ndarray
    positions: np.ndarray


def _stack(samples: List[AlignedSample]) -> _SampleStack:
    return _SampleStack(
        voltages=np.array([[s.v_tx1, s.v_tx2, s.v_rx1, s.v_rx2]
                           for s in samples], dtype=float),
        rotations=np.array([s.reported_pose.orientation for s in samples]),
        positions=np.array([s.reported_pose.position for s in samples]))


def _residual_rows(tx_layout: np.ndarray, tx_theta1: float,
                   rx_layout: np.ndarray, rx_theta1: float,
                   rx_rotation: np.ndarray, rx_translation: np.ndarray,
                   stack: _SampleStack) -> np.ndarray:
    """The (n, 6) rows ``(p_t - tau_r, p_r - tau_t)``, one per sample.

    ``tx_layout`` is the TX model in VR-space; ``rx_layout`` the RX
    model in its K-space, placed per row by the reported pose after
    the RX mapping ``(rx_rotation, rx_translation)``.  A row whose
    beam misses the other side's second-mirror plane reads
    :data:`MISS_PENALTY_M` throughout.  A beam parallel to one of its
    own GMA's mirrors raises :class:`NoIntersectionError`, as the
    scalar ``G`` does.
    """
    rotations = stack.rotations @ rx_rotation
    translations = (np.einsum("nij,j->ni", stack.rotations, rx_translation)
                    + stack.positions)
    volts = stack.voltages
    tx_origins, tx_dirs, tx_pivots, tx_normals = trace_rows(
        tx_layout, tx_theta1 * volts[:, 0], tx_theta1 * volts[:, 1])
    rx_origins, rx_dirs, rx_pivots, rx_normals = trace_rows(
        placed(rx_layout, rotations, translations),
        rx_theta1 * volts[:, 2], rx_theta1 * volts[:, 3])
    if not (np.isfinite(tx_origins).all() and np.isfinite(rx_origins).all()):
        raise NoIntersectionError("a beam is parallel to a GMA mirror")
    tau_t, t_hit = intersect_rows(tx_origins, tx_dirs, rx_pivots,
                                  rx_normals, forward_only=True)
    tau_r, r_hit = intersect_rows(rx_origins, rx_dirs, tx_pivots,
                                  tx_normals)
    rows = np.concatenate([tx_origins - tau_r, rx_origins - tau_t], axis=1)
    rows[~(t_hit & r_hit)] = MISS_PENALTY_M
    return rows


def _system_rows(system: LearnedSystem,
                 samples: List[AlignedSample]) -> np.ndarray:
    tx = system.tx_model_vr.params
    rx = system.rx_model_kspace.params
    return _residual_rows(layout(tx.to_vector()), tx.theta1,
                          layout(rx.to_vector()), rx.theta1,
                          system.rx_mapping.rotation,
                          system.rx_mapping.translation, _stack(samples))


def coincidence_residuals(system: LearnedSystem,
                          sample: AlignedSample) -> np.ndarray:
    """The 6-vector ``(p_t - tau_r, p_r - tau_t)`` for one sample.

    All quantities are evaluated from the candidate *models* in
    VR-space -- nothing physical is consulted; the physics already
    spoke through the aligned voltages.
    """
    return _system_rows(system, [sample])[0]


def coincidence_error_m(system: LearnedSystem,
                        sample: AlignedSample) -> float:
    """The paper's scalar error ``d(p_t, tau_r) + d(p_r, tau_t)``."""
    res = coincidence_residuals(system, sample)
    return float(np.linalg.norm(res[:3]) + np.linalg.norm(res[3:]))


def fit_mapping(tx_kspace: GmaModel, rx_kspace: GmaModel,
                samples: List[AlignedSample],
                initial_mapping_params: npt.ArrayLike) -> LearnedSystem:
    """Estimate the 12 mapping parameters by least squares.

    ``initial_mapping_params`` plays the role of the deployer's rough
    tape-measure placement of the TX and of the RX optics relative to
    the headset.
    """
    if len(samples) < 4:
        raise ValueError(
            "need at least 4 aligned samples to constrain 12 parameters")
    initial = np.asarray(initial_mapping_params, dtype=float)
    if initial.shape != (12,):
        raise ValueError("expected 12 initial mapping parameters")
    stack = _stack(samples)
    tx_layout = layout(tx_kspace.params.to_vector())
    rx_layout = layout(rx_kspace.params.to_vector())

    def residuals(params: np.ndarray) -> np.ndarray:
        tx_vr = placed(tx_layout, euler_to_matrix(*params[3:6]),
                       params[:3])
        return _residual_rows(
            tx_vr, tx_kspace.params.theta1, rx_layout,
            rx_kspace.params.theta1, euler_to_matrix(*params[9:12]),
            params[6:9], stack).ravel()

    solution = least_squares(residuals, initial, method="lm",
                             xtol=1e-15, ftol=1e-15)
    return LearnedSystem.from_mapping_params(tx_kspace, rx_kspace,
                                             solution.x)


def mean_coincidence_error_m(system: LearnedSystem,
                             samples: List[AlignedSample]) -> float:
    """Average Section 4.2 error over a sample set (fit diagnostics)."""
    if not samples:
        raise ValueError("no samples to evaluate")
    rows = _system_rows(system, samples)
    errors = (np.linalg.norm(rows[:, :3], axis=1)
              + np.linalg.norm(rows[:, 3:], axis=1))
    return float(np.mean(errors))
