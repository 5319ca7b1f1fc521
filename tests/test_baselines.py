"""Tests for the baselines the paper argues against."""

import numpy as np
import pytest

from repro.baselines import (
    ConstantOriginModel,
    DirectInverseRegressor,
    LookupFeasibility,
    run_static,
)
from repro.core import GmaModel
from repro.core.kspace import BOARD_NORMAL, BOARD_POINT
from repro.galvo import canonical_gma
from repro.motion import LinearRail, StaticProfile

from .oracles import Ray

#: The plane z = 1.5 m, 1.5 m in front of the canonical GMA.
FAR_POINT = np.array([0.0, 0.0, 1.5])


@pytest.fixture()
def model():
    return GmaModel(canonical_gma(np.radians(1.0)))


def board_training_data(model, n_per_axis=15):
    """(targets, voltages) pairs on a virtual board 1.5 m out."""
    targets, voltages = [], []
    for v1 in np.linspace(-4, 4, n_per_axis):
        for v2 in np.linspace(-4, 4, n_per_axis):
            beam = Ray(*model.beam(float(v1), float(v2)))
            targets.append(beam.point_at(1.5))
            voltages.append([v1, v2])
    return np.array(targets), np.array(voltages)


class TestDirectInverse:
    def test_interpolates_on_training_surface(self, model):
        targets, voltages = board_training_data(model)
        reg = DirectInverseRegressor(degree=3).fit(targets, voltages)
        # A held-out point on the same surface: interpolation is fine.
        beam = Ray(*model.beam(1.23, -0.47))
        probe = beam.point_at(1.5)
        v = reg.predict([probe])[0]
        predicted_beam = Ray(*model.beam(float(v[0]), float(v[1])))
        assert predicted_beam.distance_to_point(probe) < 2e-3

    def test_fails_off_the_training_surface(self, model):
        # Footnote 3's observation: a few-hundred-sample direct fit
        # errs by centimeters away from where samples could be taken.
        targets, voltages = board_training_data(model)
        reg = DirectInverseRegressor(degree=3).fit(targets, voltages)
        beam = Ray(*model.beam(1.23, -0.47))
        probe = beam.point_at(1.0)  # 0.5 m off the training surface
        v = reg.predict([probe])[0]
        predicted_beam = Ray(*model.beam(float(v[0]), float(v[1])))
        # Either grossly wrong voltages or a centimeter-scale miss.
        assert predicted_beam.distance_to_point(probe) > 5e-3

    def test_rejects_unfitted_prediction(self):
        with pytest.raises(RuntimeError):
            DirectInverseRegressor().predict([[0.0, 0.0, 1.0]])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            DirectInverseRegressor().fit(np.zeros((5, 3)),
                                         np.zeros((4, 2)))
        with pytest.raises(ValueError):
            DirectInverseRegressor().fit(np.zeros((5, 2)),
                                         np.zeros((5, 2)))

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            DirectInverseRegressor(degree=0)


class TestLookupFeasibility:
    def test_table_size_matches_footnote5(self):
        # "~10^18 in a m^3 space ... for mm-level accuracy".
        feasibility = LookupFeasibility()
        assert 1e17 <= feasibility.table_entries() <= 1e20

    def test_collection_takes_geological_time(self):
        assert LookupFeasibility().collection_years() > 1e9

    def test_even_modest_corpus_takes_years(self):
        # Footnote 3: tens of thousands+ samples at minutes each.
        years = LookupFeasibility().collection_years(samples=1e6)
        assert years > 1.0

    def test_position_cells(self):
        assert LookupFeasibility().position_cells() == pytest.approx(1e9)


class TestConstantOrigin:
    def test_origin_is_rest_origin(self, model):
        ablated = ConstantOriginModel(model)
        rest = model.beam(0.0, 0.0)
        assert np.allclose(ablated.origin, rest[0])

    def test_matches_full_model_at_rest(self, model):
        ablated = ConstantOriginModel(model)
        flip = canonical_gma(np.radians(1.0))
        # At rest the two models agree exactly.
        assert ablated.board_error_m(0.0, 0.0, BOARD_POINT,
                                     BOARD_NORMAL) < 1e-12

    def test_distortion_error_grows_with_steering(self, model):
        ablated = ConstantOriginModel(model)
        small = ablated.board_error_m(0.5, 0.5, FAR_POINT, BOARD_NORMAL)
        large = ablated.board_error_m(4.0, 4.0, FAR_POINT, BOARD_NORMAL)
        assert large > small

    def test_distortion_is_millimetric_at_cone_edge(self, model):
        # Footnote 6: ignoring the moving origin costs real accuracy
        # relative to the paper's few-mm tolerance budget.
        ablated = ConstantOriginModel(model)
        assert ablated.board_error_m(5.0, 5.0, FAR_POINT,
                                     BOARD_NORMAL) > 0.5e-3


class TestStaticBaseline:
    def test_static_link_survives_no_motion(self, testbed):
        profile = StaticProfile(testbed.home_pose, duration_s=0.5)
        result = run_static(testbed, profile)
        assert result.uptime_fraction == 1.0

    def test_static_link_dies_under_motion(self, testbed):
        rail = LinearRail(axis=[1, 0, 0], length_m=0.3)
        profile = rail.stroke_profile(testbed.home_pose, [0.15])
        result = run_static(testbed, profile, duration_s=2.0)
        # 15 cm/s for 2 s moves ~20x beyond the lateral tolerance.
        assert result.uptime_fraction < 0.5
