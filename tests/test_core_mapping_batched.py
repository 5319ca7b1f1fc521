"""The batched Section 4.2 residual against the scalar oracle.

:mod:`repro.core.mapping` evaluates the coincidence residual for every
sample in one pass.  Over random candidate mapping parameters and
samples it must equal the one-sample-at-a-time oracle in
``tests/oracles.py`` to 1e-12, and it must write the miss penalty into
exactly the rows where the oracle's plane intersection fails: the TX
beam's strike on the RX mirror lies behind the TX origin (``tau_t`` is
forward-only), or a beam runs parallel to the other side's mirror.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GmaModel, LearnedSystem
from repro.core import mapping
from repro.core.mapping import (
    MISS_PENALTY_M,
    AlignedSample,
    coincidence_error_m,
    coincidence_residuals,
    mean_coincidence_error_m,
)
from repro.galvo import canonical_gma
from repro.geometry import (
    RigidTransform,
    euler_to_matrix,
    normalize,
    rotation_between,
)
from repro.vrh import Pose

from .oracles import (
    reference_mirror_planes,
    reference_trace,
    scalar_coincidence_residuals,
)

TOL = 1e-12
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

#: TX 1.8 m away along +z, flipped to face the RX; RX slightly tilted.
TX_MAP = RigidTransform(euler_to_matrix(math.pi, 0.0, 0.0),
                        np.array([0.0, 0.05, 1.8]))
RX_MAP = RigidTransform(euler_to_matrix(0.05, -0.03, 0.1),
                        np.array([0.02, 0.01, 0.05]))
KSPACE = GmaModel(canonical_gma(math.radians(1.0)))


def candidate(rng):
    """Mapping parameters near the true placement, as a fit visits."""
    true = np.concatenate([TX_MAP.to_params(), RX_MAP.to_params()])
    sigma = np.array([0.02] * 3 + [0.05] * 3 + [0.02] * 3 + [0.05] * 3)
    return true + rng.normal(0.0, sigma)


def random_sample(rng, pose=None):
    if pose is None:
        pose = Pose(rng.normal(0.0, 0.1, size=3),
                    euler_to_matrix(*rng.normal(0.0, 0.1, size=3)))
    v = rng.uniform(-3.0, 3.0, size=4)
    return AlignedSample(*(float(x) for x in v), reported_pose=pose)


def behind_sample(rng):
    """The RX sits past the TX: the TX beam meets its mirror behind."""
    return random_sample(rng, Pose([0.0, 0.05, 3.2], np.eye(3)))


def parallel_sample(rng, params):
    """A pose turning the RX second mirror parallel to the TX beam."""
    sample = random_sample(rng)
    system = LearnedSystem.from_mapping_params(KSPACE, KSPACE, params)
    tx_dir = reference_trace(system.tx_params(), sample.v_tx1,
                             sample.v_tx2).direction
    rx = KSPACE.params
    normal = system.rx_mapping.rotation @ reference_mirror_planes(
        rx, rx.theta1 * sample.v_rx1, rx.theta1 * sample.v_rx2)[1].normal
    in_plane = normalize(np.cross(tx_dir, [0.3, 0.5, 0.8]))
    pose = Pose(np.zeros(3), rotation_between(normal, in_plane))
    return AlignedSample(sample.v_tx1, sample.v_tx2, sample.v_rx1,
                         sample.v_rx2, pose)


def case(seed):
    rng = np.random.default_rng(seed)
    params = candidate(rng)
    samples = [random_sample(rng) for _ in range(int(rng.integers(4, 12)))]
    samples.insert(int(rng.integers(0, len(samples))), behind_sample(rng))
    samples.insert(int(rng.integers(0, len(samples))),
                   parallel_sample(rng, params))
    system = LearnedSystem.from_mapping_params(KSPACE, KSPACE, params)
    return params, system, samples


def oracle_rows(system, samples):
    return np.array([scalar_coincidence_residuals(system, s)
                     for s in samples])


def fit_residual_function(samples, initial):
    """The residual closure :func:`fit_mapping` hands the optimizer."""
    captured = {}

    def fake_solver(fun, x0, jac, **kwargs):
        captured["fun"] = fun
        return x0

    real = mapping.levenberg_marquardt
    mapping.levenberg_marquardt = fake_solver
    try:
        mapping.fit_mapping(KSPACE, KSPACE, samples, initial)
    finally:
        mapping.levenberg_marquardt = real
    return captured["fun"]


class TestBatchedResidual:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_per_sample_rows_match_oracle(self, seed):
        _, system, samples = case(seed)
        want = oracle_rows(system, samples)
        got = np.array([coincidence_residuals(system, s) for s in samples])
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_fit_residual_matches_oracle(self, seed):
        params, system, samples = case(seed)
        fun = fit_residual_function(samples, params)
        want = oracle_rows(system, samples)
        np.testing.assert_allclose(fun(params), want.ravel(), rtol=0,
                                   atol=TOL)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_mean_error_matches_oracle(self, seed):
        _, system, samples = case(seed)
        want = oracle_rows(system, samples)
        errors = (np.linalg.norm(want[:, :3], axis=1)
                  + np.linalg.norm(want[:, 3:], axis=1))
        assert abs(mean_coincidence_error_m(system, samples)
                   - float(np.mean(errors))) <= TOL
        for sample, error in zip(samples, errors):
            assert abs(coincidence_error_m(system, sample) - error) <= TOL


class TestMissRows:
    def test_behind_and_parallel_rows_take_the_penalty(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = candidate(rng)
            system = LearnedSystem.from_mapping_params(KSPACE, KSPACE,
                                                       params)
            samples = [random_sample(rng) for _ in range(3)]
            samples += [behind_sample(rng), parallel_sample(rng, params)]
            want = oracle_rows(system, samples)
            assert not np.any(want[:3] == MISS_PENALTY_M)
            assert np.all(want[3:] == MISS_PENALTY_M)
            fun = fit_residual_function(samples, params)
            np.testing.assert_array_equal(fun(params).reshape(-1, 6)[3:],
                                          want[3:])

    def test_tau_r_may_lie_behind_the_rx_origin(self):
        # Flip the RX mapping so its beam fires away from the TX: tau_r
        # is not forward-only, so the row keeps a finite residual.
        rng = np.random.default_rng(5)
        params = candidate(rng)
        params[9] += math.pi
        system = LearnedSystem.from_mapping_params(KSPACE, KSPACE, params)
        sample = random_sample(rng, Pose.identity())
        rx_beam = reference_trace(system.rx_model_vr(Pose.identity()).params,
                                  sample.v_rx1, sample.v_rx2)
        tx = system.tx_params()
        tx_mirror = reference_mirror_planes(tx, tx.theta1 * sample.v_tx1,
                                            tx.theta1 * sample.v_tx2)[1]
        assert tx_mirror.intersection_distance(rx_beam) < 0
        want = scalar_coincidence_residuals(system, sample)
        assert not np.any(want == MISS_PENALTY_M)
        got = coincidence_residuals(system, sample)
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
