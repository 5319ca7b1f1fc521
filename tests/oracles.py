"""Reference implementations the fast paths are checked against.

* :func:`reference_trace` / :func:`reference_mirror_planes` -- ``G``
  with Rodrigues rotation *matrices*, numpy 3-vectors and the geometry
  package's :func:`repro.geometry.reflect_ray` (the float trace in
  :mod:`repro.galvo.mirror` must agree with it);
* :func:`scalar_coincidence_residuals` -- the Section 4.2 residual one
  sample at a time, built from ``LearnedSystem`` objects and planes
  (the batched kernel in :mod:`repro.core.mapping` must agree with it).
"""

import numpy as np

from repro.core.mapping import MISS_PENALTY_M
from repro.geometry import (
    NoIntersectionError,
    Plane,
    Ray,
    reflect_ray,
    rotation_matrix,
)


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
