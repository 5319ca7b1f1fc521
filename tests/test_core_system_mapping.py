"""Unit tests for LearnedSystem and the mapping-fit plumbing."""

import numpy as np
import pytest

from repro.core import GmaModel, LearnedSystem
from repro.core.mapping import (
    AlignedSample,
    coincidence_residuals,
    fit_mapping,
    mean_coincidence_error_m,
)
from repro.galvo import canonical_gma
from repro.geometry import Pose, euler_to_matrix


def rest_origin(model):
    """The originating point of a model's rest (zero-volt) beam."""
    return np.array(model.beam(0.0, 0.0)[0])


@pytest.fixture()
def kspace_models():
    tx = GmaModel(canonical_gma(np.radians(1.0)))
    rx = GmaModel(canonical_gma(np.radians(1.0)))
    return tx, rx


class TestLearnedSystem:
    def test_from_mapping_params_shapes(self, kspace_models):
        tx, rx = kspace_models
        with pytest.raises(ValueError):
            LearnedSystem.from_mapping_params(tx, rx, np.zeros(11))

    def test_tx_transform_applied(self, kspace_models):
        tx, rx = kspace_models
        params = np.zeros(12)
        params[0] = 1.0  # shift TX by +x
        system = LearnedSystem.from_mapping_params(tx, rx, params)
        moved = rest_origin(system.tx_model_vr)
        original = rest_origin(tx)
        assert np.allclose(moved - original, [1.0, 0.0, 0.0])

    def test_rx_model_follows_reported_pose(self, kspace_models):
        tx, rx = kspace_models
        system = LearnedSystem.from_mapping_params(tx, rx, np.zeros(12))
        a = rest_origin(system.rx_model_vr(Pose.identity()))
        b = rest_origin(system.rx_model_vr(Pose([0.5, 0.0, 0.0], np.eye(3))))
        assert np.allclose(b - a, [0.5, 0.0, 0.0])

    def test_rx_mapping_composes_before_pose(self, kspace_models):
        tx, rx = kspace_models
        params = np.zeros(12)
        params[6] = 0.1  # RX offset +x in the reported frame
        system = LearnedSystem.from_mapping_params(tx, rx, params)
        turned = Pose([0, 0, 0],
                      euler_to_matrix(0.0, 0.0, np.pi / 2))
        origin = rest_origin(system.rx_model_vr(turned))
        base = rest_origin(LearnedSystem.from_mapping_params(
            tx, rx, np.zeros(12)).rx_model_vr(turned))
        # The +x body offset appears rotated into +y by the pose.
        assert np.allclose(origin - base, [0.0, 0.1, 0.0], atol=1e-12)


def synthetic_aligned_sample(tx, rx, tx_map, rx_map, pose):
    """An exactly aligned 5-tuple built from known geometry.

    Place RX via (pose o rx_map), then find voltages whose beams
    coincide: aim both GMAs at each other's rest origins via the
    inverse solver -- which is exactly the pointing construction.
    """
    from repro.core import point
    system = LearnedSystem.from_mapping_params(
        tx, rx, np.concatenate([tx_map.to_params(),
                                rx_map.to_params()]))
    command = point(system, pose)
    return AlignedSample(v_tx1=command.v_tx1, v_tx2=command.v_tx2,
                         v_rx1=command.v_rx1, v_rx2=command.v_rx2,
                         reported_pose=pose)


class TestCoincidence:
    def make_geometry(self):
        tx = GmaModel(canonical_gma(np.radians(1.0)))
        rx = GmaModel(canonical_gma(np.radians(1.0)))
        # TX 1.8 m away along +z, flipped to face the RX.
        tx_map = Pose(np.array([0.0, 0.05, 1.8]),
                      euler_to_matrix(np.pi, 0.0, 0.0))
        rx_map = Pose(np.array([0.02, 0.01, 0.05]),
                      euler_to_matrix(0.05, -0.03, 0.1))
        return tx, rx, tx_map, rx_map

    def test_aligned_sample_has_tiny_residual(self):
        tx, rx, tx_map, rx_map = self.make_geometry()
        pose = Pose([0.05, -0.02, 0.0], euler_to_matrix(0.02, 0, 0.05))
        sample = synthetic_aligned_sample(tx, rx, tx_map, rx_map, pose)
        system = LearnedSystem.from_mapping_params(
            tx, rx, np.concatenate([tx_map.to_params(),
                                    rx_map.to_params()]))
        assert mean_coincidence_error_m(system, [sample]) < 1e-4

    def test_wrong_mapping_has_large_residual(self):
        tx, rx, tx_map, rx_map = self.make_geometry()
        pose = Pose.identity()
        sample = synthetic_aligned_sample(tx, rx, tx_map, rx_map, pose)
        wrong = np.concatenate([tx_map.to_params(),
                                rx_map.to_params()])
        wrong[0] += 0.05  # 5 cm TX placement error
        system = LearnedSystem.from_mapping_params(tx, rx, wrong)
        assert mean_coincidence_error_m(system, [sample]) > 5e-3

    def test_residual_vector_shape(self):
        tx, rx, tx_map, rx_map = self.make_geometry()
        pose = Pose.identity()
        sample = synthetic_aligned_sample(tx, rx, tx_map, rx_map, pose)
        system = LearnedSystem.from_mapping_params(
            tx, rx, np.concatenate([tx_map.to_params(),
                                    rx_map.to_params()]))
        assert coincidence_residuals(system, sample).shape == (6,)

    def test_fit_recovers_perturbed_mapping(self):
        # Noise-free synthetic world: the 12-parameter fit should
        # drive the coincidence error to ~zero from a perturbed start.
        tx, rx, tx_map, rx_map = self.make_geometry()
        poses = [Pose([0.05 * i, -0.03 * i, 0.02 * i],
                      euler_to_matrix(0.02 * i, 0.01 * i, -0.03 * i))
                 for i in range(-3, 4)]
        samples = [synthetic_aligned_sample(tx, rx, tx_map, rx_map, p)
                   for p in poses]
        true_params = np.concatenate([tx_map.to_params(),
                                      rx_map.to_params()])
        rng = np.random.default_rng(0)
        initial = true_params + rng.normal(0.0, 0.01, size=12)
        system = fit_mapping(tx, rx, samples, initial)
        assert mean_coincidence_error_m(system, samples) < 1e-4

    def test_fit_requires_enough_samples(self):
        tx, rx, tx_map, rx_map = self.make_geometry()
        sample = synthetic_aligned_sample(tx, rx, tx_map, rx_map,
                                          Pose.identity())
        with pytest.raises(ValueError):
            fit_mapping(tx, rx, [sample], np.zeros(12))

    def test_fit_validates_initial_length(self):
        tx, rx, tx_map, rx_map = self.make_geometry()
        samples = [synthetic_aligned_sample(
            tx, rx, tx_map, rx_map, Pose.identity())] * 5
        with pytest.raises(ValueError):
            fit_mapping(tx, rx, samples, np.zeros(7))

    def test_mean_error_requires_samples(self, kspace_models):
        tx, rx = kspace_models
        system = LearnedSystem.from_mapping_params(tx, rx, np.zeros(12))
        with pytest.raises(ValueError):
            mean_coincidence_error_m(system, [])
