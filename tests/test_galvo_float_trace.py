"""The float ``G`` against the matrix-Rodrigues reference and the batch.

:func:`repro.galvo.trace` and :func:`repro.galvo.mirror_planes` run on
plain Python floats; they must agree with the numpy reference in
``tests/oracles.py`` and with :func:`repro.core.trace_batch` to 1e-12,
on the linear ``theta1 * v`` path and on the explicit-angle path the
hardware simulator uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GmaModel, trace_batch
from repro.galvo import (
    GalvoHardware,
    GalvoSpec,
    GmaParams,
    canonical_gma,
    mirror_planes,
    second_mirror_plane,
    trace,
)
from repro.geometry import NoIntersectionError, normalize

from .oracles import reference_mirror_planes, reference_trace

TOL = 1e-12

volts = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-0.2, max_value=0.2,
                   allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def random_params(seed):
    """A canonical GMA wiggled by a few degrees and millimetres."""
    rng = np.random.default_rng(seed)
    base = canonical_gma(math.radians(1.0))

    def point(p):
        return p + rng.normal(0.0, 2e-3, size=3)

    def direction(d):
        return normalize(d + rng.normal(0.0, 0.05, size=3))

    return GmaParams(p0=point(base.p0), x0=direction(base.x0),
                     n1=direction(base.n1), q1=point(base.q1),
                     r1=direction(base.r1), n2=direction(base.n2),
                     q2=point(base.q2), r2=direction(base.r2),
                     theta1=base.theta1 * float(rng.uniform(0.9, 1.1)))


def assert_same_ray(ray, want):
    np.testing.assert_allclose(ray.origin, want.origin, rtol=0, atol=TOL)
    np.testing.assert_allclose(ray.direction, want.direction, rtol=0,
                               atol=TOL)


def assert_same_plane(plane, want):
    np.testing.assert_allclose(plane.point, want.point, rtol=0, atol=TOL)
    np.testing.assert_allclose(plane.normal, want.normal, rtol=0, atol=TOL)


class TestAgainstMatrixReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, v1=volts, v2=volts)
    def test_linear_path(self, seed, v1, v2):
        params = random_params(seed)
        assert_same_ray(trace(params, v1, v2),
                        reference_trace(params, v1, v2))
        assert_same_ray(GmaModel(params).beam(v1, v2),
                        reference_trace(params, v1, v2))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, a1=angles, a2=angles)
    def test_explicit_angle_path(self, seed, a1, a2):
        params = random_params(seed)
        got = trace(params, 0.0, 0.0, angle1_rad=a1, angle2_rad=a2)
        assert_same_ray(got, reference_trace(params, 0.0, 0.0,
                                             angle1_rad=a1, angle2_rad=a2))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, a1=angles, a2=angles)
    def test_mirror_planes(self, seed, a1, a2):
        params = random_params(seed)
        got = mirror_planes(params, a1, a2)
        want = reference_mirror_planes(params, a1, a2)
        assert_same_plane(got[0], want[0])
        assert_same_plane(got[1], want[1])
        assert_same_plane(second_mirror_plane(params, a2), want[1])

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, v1=volts, v2=volts)
    def test_model_second_mirror_plane(self, seed, v1, v2):
        params = random_params(seed)
        want = reference_mirror_planes(params, params.theta1 * v1,
                                       params.theta1 * v2)[1]
        assert_same_plane(GmaModel(params).second_mirror_plane(v1, v2),
                          want)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, v1=volts, v2=volts)
    def test_hardware_path(self, seed, v1, v2):
        # Jitter off so the true angles are computable from outside:
        # theta1 * v + kappa * v**2 on the quantized voltages.
        spec = GalvoSpec(name="quiet", volts_per_optical_degree=0.5,
                         voltage_range_v=10.0, angular_accuracy_rad=0.0,
                         small_angle_latency_s=300e-6,
                         max_beam_diameter_m=10e-3)
        params = random_params(seed)
        hardware = GalvoHardware(params, spec=spec, nonlinearity=1e-3,
                                 rng=np.random.default_rng(seed))
        hardware.apply(v1, v2)
        q1, q2 = hardware.voltages
        a1 = params.theta1 * q1 + 1e-3 * q1 * q1
        a2 = params.theta1 * q2 + 1e-3 * q2 * q2
        assert_same_ray(hardware.output_beam(),
                        reference_trace(params, q1, q2, angle1_rad=a1,
                                        angle2_rad=a2))
        assert_same_plane(hardware.second_mirror_plane(),
                          reference_mirror_planes(params, a1, a2)[1])


class TestAgainstBatch:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_trace_batch_rows(self, seed):
        params = random_params(seed)
        v1, v2 = np.random.default_rng(seed).uniform(-10, 10, (2, 16))
        origins, directions = trace_batch(params.to_vector(), v1, v2)
        for i in range(len(v1)):
            ray = trace(params, float(v1[i]), float(v2[i]))
            np.testing.assert_allclose(ray.origin, origins[i], rtol=0,
                                       atol=TOL)
            np.testing.assert_allclose(ray.direction, directions[i],
                                       rtol=0, atol=TOL)


class TestParallelBeam:
    def parallel_params(self):
        """The input beam runs along +x inside the first mirror plane."""
        base = canonical_gma(math.radians(1.0))
        return GmaParams(p0=base.p0, x0=base.x0, n1=[0.0, 1.0, 0.0],
                         q1=base.q1, r1=base.r1, n2=base.n2, q2=base.q2,
                         r2=base.r2, theta1=base.theta1)

    def test_float_trace_raises(self):
        with pytest.raises(NoIntersectionError):
            trace(self.parallel_params(), 0.0, 0.0)

    def test_reference_raises_too(self):
        with pytest.raises(NoIntersectionError):
            reference_trace(self.parallel_params(), 0.0, 0.0)

    def test_batch_yields_non_finite(self):
        params = self.parallel_params()
        origins, _ = trace_batch(params.to_vector(), [0.0], [0.0])
        assert not np.isfinite(origins).all()
