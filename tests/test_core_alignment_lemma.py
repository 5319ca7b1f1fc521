"""Tests for the exhaustive alignment search and Lemma 1."""

import numpy as np
import pytest

from repro.core import point, search

from .oracles import lemma_points


def rank_agreement(errors, powers):
    """Spearman correlation between power and minus coincidence error.

    Lemma 1 predicts a value near +1: higher power goes with a smaller
    coincidence error.
    """
    error_ranks = np.argsort(np.argsort(-np.asarray(errors))).astype(float)
    power_ranks = np.argsort(np.argsort(powers)).astype(float)
    error_ranks -= error_ranks.mean()
    power_ranks -= power_ranks.mean()
    return float(np.dot(error_ranks, power_ranks)
                 / (np.linalg.norm(error_ranks)
                    * np.linalg.norm(power_ranks)))


class TestSearch:
    def test_finds_peak_of_quadratic_surface(self):
        optimum = np.array([0.3, -0.2, 0.15, 0.05])

        def power(*vs):
            return -10.0 - 40.0 * float(
                np.sum((np.array(vs) - optimum) ** 2))

        result = search(power, seed=(0.0, 0.0, 0.0, 0.0))
        assert np.allclose(result.voltages, optimum, atol=2e-3)

    def test_counts_evaluations(self):
        calls = []

        def power(*vs):
            calls.append(vs)
            return -float(np.sum(np.square(vs)))

        result = search(power, seed=(0.1, 0.1, 0.1, 0.1))
        assert result.evaluations == len(calls)

    def test_rejects_wrong_seed_length(self):
        with pytest.raises(ValueError):
            search(lambda *v: 0.0, seed=(0.0, 0.0))

    def test_on_testbed_reaches_near_peak(self, testbed):
        pose = testbed.home_pose
        result = testbed.align_exhaustively(pose)
        peak = testbed.design.peak_power_dbm(
            testbed.channel.evaluate(pose).range_m)
        assert result.power_dbm > peak - 1.0

    def test_improves_on_seed(self, testbed):
        pose = testbed.home_pose
        report = testbed.tracker.true_report_transform(pose)
        seed_cmd = point(testbed.oracle_system(), report)
        testbed.apply_command(seed_cmd)
        seed_power = testbed.channel.received_power_dbm(pose)
        result = testbed.align_exhaustively(pose)
        assert result.power_dbm >= seed_power - 1e-9


class TestLemma1:
    def test_rank_agreement_on_testbed(self, testbed):
        """Power ranks (inversely) with the coincidence error."""
        pose = testbed.home_pose
        aligned = testbed.align_exhaustively(pose).voltages
        power_fn = testbed.power_function(pose)

        def coincidence(*voltages):
            testbed.tx_hardware.apply(voltages[0], voltages[1])
            testbed.rx_hardware.apply(voltages[2], voltages[3])
            return lemma_points(testbed.channel, pose).error

        rng = np.random.default_rng(5)
        voltage_sets = [np.array(aligned) + rng.normal(0, scale, 4)
                        for scale in (0.0, 0.01, 0.02, 0.05, 0.1)
                        for _ in range(4)]
        errors, powers = [], []
        for voltages in voltage_sets:
            errors.append(coincidence(*voltages))
            powers.append(power_fn(*voltages))
        assert rank_agreement(errors, powers) > 0.7

    def test_aligned_configuration_minimizes_coincidence(self, testbed):
        pose = testbed.home_pose
        aligned = testbed.align_exhaustively(pose).voltages
        testbed.tx_hardware.apply(aligned[0], aligned[1])
        testbed.rx_hardware.apply(aligned[2], aligned[3])
        error_aligned = lemma_points(testbed.channel, pose).error
        rng = np.random.default_rng(6)
        for _ in range(5):
            vs = np.array(aligned) + rng.normal(0, 0.08, 4)
            testbed.tx_hardware.apply(vs[0], vs[1])
            testbed.rx_hardware.apply(vs[2], vs[3])
            assert lemma_points(testbed.channel, pose).error \
                >= error_aligned - 1e-3
