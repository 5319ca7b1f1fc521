"""Unit tests for the Table 2 error metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import beam_error_m, summarize

from .oracles import Ray

vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


class TestBeamError:
    """Beams are ``(origin, direction)`` pairs; directions need not be
    unit."""

    def test_identical_beams_zero_error(self):
        beam = ([0, 0, 0], [0, 0, 1])
        assert beam_error_m(beam, beam, 1.75) == pytest.approx(0.0)

    def test_pure_angular_error_scales_with_range(self):
        truth = ([0, 0, 0], [0, 0, 1])
        tilted = ([0, 0, 0], [1e-3, 0, 1])
        near = beam_error_m(tilted, truth, 1.0)
        far = beam_error_m(tilted, truth, 2.0)
        assert far == pytest.approx(2 * near, rel=1e-5)
        assert near == pytest.approx(1e-3, rel=1e-3)

    def test_pure_lateral_error_is_offset(self):
        truth = ([0, 0, 0], [0, 0, 1])
        shifted = ([2e-3, 0, 0], [0, 0, 1])
        assert beam_error_m(shifted, truth, 1.75) == pytest.approx(2e-3)

    def test_origin_slide_along_beam_is_free(self):
        # Gauge freedom: an origin moved along the beam line is the
        # same physical beam; the metric must not punish it.
        truth = ([0, 0, 0], [0, 0, 1])
        slid = ([0, 0, 0.3], [0, 0, 1])
        assert beam_error_m(slid, truth, 1.75) == pytest.approx(0.0,
                                                                abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(p_origin=vectors, p_direction=vectors, t_origin=vectors,
           t_direction=vectors, reach=st.floats(0.5, 3.0))
    def test_matches_the_ray_oracle_bitwise(self, p_origin, p_direction,
                                            t_origin, t_direction, reach):
        assume(np.linalg.norm(p_direction) > 1e-3)
        assume(np.linalg.norm(t_direction) > 1e-3)
        predicted = (p_origin, p_direction)
        truth = (t_origin, t_direction)
        want = Ray(*predicted).distance_to_point(
            Ray(*truth).point_at(reach))
        assert beam_error_m(predicted, truth, reach) == want

    def test_rejects_nonpositive_range(self):
        beam = ([0, 0, 0], [0, 0, 1])
        with pytest.raises(ValueError):
            beam_error_m(beam, beam, 0.0)


class TestSummarize:
    def test_average_and_max(self):
        summary = summarize("s", [1e-3, 2e-3, 3e-3])
        assert summary.average_mm == pytest.approx(2.0)
        assert summary.maximum_mm == pytest.approx(3.0)
        assert summary.count == 3

    def test_accepts_generators(self):
        summary = summarize("s", (x * 1e-3 for x in range(1, 4)))
        assert summary.count == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize("s", [])

    def test_label_preserved(self):
        assert summarize("combined-rx", [1e-3]).label == "combined-rx"
