"""Reference implementations the fast paths are checked against.

* :func:`reference_trace` / :func:`reference_mirror_planes` -- ``G``
  with Rodrigues rotation *matrices*, numpy 3-vectors and the geometry
  package's :func:`repro.geometry.reflect_ray` (the float trace in
  :mod:`repro.galvo.mirror` must agree with it);
* :func:`scalar_coincidence_residuals` -- the Section 4.2 residual one
  sample at a time, built from ``LearnedSystem`` objects and planes
  (the batched kernel in :mod:`repro.core.mapping` must agree with it);
* :func:`reference_evaluate` -- the channel on :class:`Ray` objects and
  numpy 3-vectors (the float :meth:`repro.link.FsoChannel.evaluate`
  must agree with it).
"""

import numpy as np

from repro.core.mapping import MISS_PENALTY_M
from repro.geometry import (
    NoIntersectionError,
    Plane,
    Ray,
    angle_between,
    normalize,
    reflect_ray,
    rotation_matrix,
)
from repro.link.channel import MIN_RANGE_M, AlignmentState
from repro.link.design import NOISE_FLOOR_DBM


def reference_mirror_planes(params, angle1_rad, angle2_rad):
    """Both mirror planes, normals rotated by Rodrigues matrices."""
    n1 = rotation_matrix(params.r1, angle1_rad) @ params.n1
    n2 = rotation_matrix(params.r2, angle2_rad) @ params.n2
    return Plane(params.q1, n1), Plane(params.q2, n2)


def reference_trace(params, v1, v2, angle1_rad=None, angle2_rad=None):
    """``G(v1, v2)`` as a chain of two :func:`reflect_ray` calls."""
    if angle1_rad is None:
        angle1_rad = params.theta1 * v1
    if angle2_rad is None:
        angle2_rad = params.theta1 * v2
    first, second = reference_mirror_planes(params, angle1_rad, angle2_rad)
    beam = Ray(params.p0, params.x0)
    mid = reflect_ray(beam, first, forward_only=False)
    return reflect_ray(mid, second, forward_only=False)


def _second_plane(params, v1, v2):
    return reference_mirror_planes(params, params.theta1 * v1,
                                   params.theta1 * v2)[1]


def scalar_coincidence_residuals(system, sample):
    """The 6-vector ``(p_t - tau_r, p_r - tau_t)`` for one sample."""
    tx = system.tx_model_vr.params
    rx = system.rx_model_vr(sample.reported_pose).params
    tx_beam = reference_trace(tx, sample.v_tx1, sample.v_tx2)
    rx_beam = reference_trace(rx, sample.v_rx1, sample.v_rx2)
    try:
        tau_t = _second_plane(rx, sample.v_rx1, sample.v_rx2).intersect_ray(
            tx_beam)
        tau_r = _second_plane(tx, sample.v_tx1, sample.v_tx2).intersect_ray(
            rx_beam, forward_only=False)
    except NoIntersectionError:
        return np.full(6, MISS_PENALTY_M)
    return np.concatenate([tx_beam.origin - tau_r, rx_beam.origin - tau_t])


def reference_evaluate(channel, body_pose):
    """``FsoChannel.evaluate`` through world-frame :class:`Ray` objects."""
    tx_beam = channel.tx.world_beam()
    rx_beam = channel.rx.world_beam(body_pose)
    p_r = rx_beam.origin

    # Where along the TX beam the receiver sits, and how far off axis.
    closest = tx_beam.closest_point_to(p_r)
    range_m = max(float(np.linalg.norm(closest - tx_beam.origin)),
                  MIN_RANGE_M)
    axis_offset = float(np.linalg.norm(p_r - closest))

    # The arriving wavefront direction at the receiver.
    curvature = channel.design.beam.curvature_radius_m(range_m)
    if np.isinf(curvature):
        wavefront = tx_beam.direction
    else:
        wavefront = normalize(
            tx_beam.direction + (p_r - closest) / curvature)
    # Behind the transmitter there is no light at all.
    behind = float(np.dot(p_r - tx_beam.origin, tx_beam.direction)) <= 0

    incidence = angle_between(wavefront, -rx_beam.direction)
    coupling = channel.design.coupling(range_m)
    power = coupling.received_power_dbm(axis_offset, incidence)
    power = max(power, NOISE_FLOOR_DBM)
    if behind:
        power = NOISE_FLOOR_DBM
    connected = channel.design.sfp.signal_detected(power)
    return AlignmentState(
        received_power_dbm=power,
        axis_offset_m=axis_offset,
        incidence_angle_rad=incidence,
        range_m=range_m,
        connected=connected,
    )
