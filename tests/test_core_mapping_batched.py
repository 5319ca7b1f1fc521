"""The batched Section 4.2 residual against the scalar oracle.

:mod:`repro.core.mapping` evaluates the coincidence residual for every
sample in one pass.  Over random candidate mapping parameters and
samples it must equal the one-sample-at-a-time oracle in
``tests/oracles.py`` to 1e-12, and it must write the miss penalty into
exactly the rows where the oracle's plane intersection fails: the TX
beam's strike on the RX mirror lies behind the TX origin (``tau_t`` is
forward-only), or a beam runs parallel to the other side's mirror.
A (k, 12) stack of candidates, and so the fit's forward-difference
Jacobian, must equal the one-candidate-per-call oracle bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GmaModel, LearnedSystem
from repro.core import mapping
from repro.core.gma import layout, placed
from repro.core.mapping import (
    MISS_PENALTY_M,
    AlignedSample,
    coincidence_residuals,
    mean_coincidence_error_m,
)
from repro.galvo import GmaParams, canonical_gma
from repro.geometry import (
    Pose,
    NoIntersectionError,
    Pose,
    euler_to_matrix,
    normalize,
    rotation_between,
)

from .oracles import (
    reference_mapping_jacobian,
    reference_mapping_residuals,
    reference_mirror_planes,
    reference_trace,
    scalar_coincidence_residuals,
)

TOL = 1e-12
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

#: TX 1.8 m away along +z, flipped to face the RX; RX slightly tilted.
TX_MAP = Pose(np.array([0.0, 0.05, 1.8]),
              euler_to_matrix(math.pi, 0.0, 0.0))
RX_MAP = Pose(np.array([0.02, 0.01, 0.05]),
              euler_to_matrix(0.05, -0.03, 0.1))
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
    tx_dir = reference_trace(system.tx_model_vr.params, sample.v_tx1,
                             sample.v_tx2).direction
    rx = KSPACE.params
    normal = system.rx_mapping.orientation @ reference_mirror_planes(
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


def fit_closures(samples, initial, model=KSPACE):
    """The residual and Jacobian :func:`fit_mapping` hands the
    optimizer."""
    captured = {}

    def fake_solver(fun, x0, jac, **kwargs):
        captured.update(fun=fun, jac=jac)
        return x0

    real = mapping.levenberg_marquardt
    mapping.levenberg_marquardt = fake_solver
    try:
        mapping.fit_mapping(model, model, samples, initial)
    finally:
        mapping.levenberg_marquardt = real
    return captured["fun"], captured["jac"]


def fit_residual_function(samples, initial):
    """The residual closure :func:`fit_mapping` hands the optimizer."""
    return fit_closures(samples, initial)[0]


def stacked_rows(samples, candidates, model=KSPACE):
    """``_residual_rows`` of a (k, 12) candidate stack, (k, n, 6)."""
    rows = layout(model.params.to_vector())
    theta1 = model.params.theta1
    tx = placed(rows, mapping._rotations(candidates[:, 3:6]),
                candidates[:, :3])
    return mapping._residual_rows(
        tx, theta1, rows, theta1, mapping._rotations(candidates[:, 9:12]),
        candidates[:, 6:9], mapping._stack(samples))


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
            assert abs(mean_coincidence_error_m(system, [sample])
                       - error) <= TOL


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
        tx = system.tx_model_vr.params
        tx_mirror = reference_mirror_planes(tx, tx.theta1 * sample.v_tx1,
                                            tx.theta1 * sample.v_tx2)[1]
        assert tx_mirror.intersection_distance(rx_beam) < 0
        want = scalar_coincidence_residuals(system, sample)
        assert not np.any(want == MISS_PENALTY_M)
        got = coincidence_residuals(system, sample)
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


class TestStackMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_candidate_stack(self, seed):
        params, _, samples = case(seed)
        rng = np.random.default_rng(seed)
        candidates = np.array([candidate(rng) for _ in
                               range(int(rng.integers(1, 14)))])
        got = stacked_rows(samples, candidates)
        assert got.shape == (len(candidates), len(samples), 6)
        reference = reference_mapping_residuals(KSPACE, KSPACE, samples)
        for rows, params in zip(got, candidates):
            assert np.array_equal(rows.ravel(), reference(params))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_fit_residual_and_jacobian(self, seed):
        params, _, samples = case(seed)
        fun, jac = fit_closures(samples, params)
        reference = reference_mapping_residuals(KSPACE, KSPACE, samples)
        f = fun(params)
        assert np.array_equal(f, reference(params))
        want = reference_mapping_jacobian(KSPACE, KSPACE, samples)(params, f)
        assert np.array_equal(jac(params, f), want)

    def test_parallel_own_mirror_raises_for_the_stack(self):
        # The input beam runs along the first mirror's axis, which the
        # mirror normal is perpendicular to: under an identity TX
        # placement every beam is parallel to the first mirror.
        base = canonical_gma(math.radians(1.0))
        model = GmaModel(GmaParams(
            p0=base.p0, x0=[0.0, 0.0, 1.0], n1=[1.0, 0.0, 0.0],
            q1=base.q1, r1=[0.0, 0.0, 1.0], n2=base.n2, q2=base.q2,
            r2=base.r2, theta1=base.theta1))
        rng = np.random.default_rng(11)
        samples = [random_sample(rng) for _ in range(5)]
        candidates = np.array([candidate(rng) for _ in range(4)])
        candidates[2, :6] = 0.0
        reference = reference_mapping_residuals(model, model, samples)
        with pytest.raises(NoIntersectionError):
            reference(candidates[2])
        with pytest.raises(NoIntersectionError):
            stacked_rows(samples, candidates, model)
