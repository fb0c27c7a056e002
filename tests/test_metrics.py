"""Metric golden values, invariances, and report serialization.

The one-pass metrics equal the loops they replaced (``oracles``) bit for
bit, over drawn sample sets whose masks hold FDE fallbacks, pedestrians
with no valid step, empty and lone frames, and exact ADE ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scantraj import generative as gn
from scantraj import metrics
from scantraj.errors import EmptyMetricError

from oracles import (loop_best_sample, loop_collision_fractions, loop_fde, loop_spread,
                     oracle_ade)


def straight(n, t, speed=1.0):
    """n pedestrians walking +x in separated lanes, (n, t, 2)."""
    out = np.zeros((n, t, 2))
    for p in range(n):
        out[p, :, 0] = speed * np.arange(t)
        out[p, :, 1] = 5.0 * p
    return out


class TestAde:
    def test_perfect_prediction_is_zero(self):
        truth = straight(2, 12)
        assert metrics.ade(truth, truth) == 0.0

    def test_constant_offset_is_the_offset(self):
        truth = straight(2, 12)
        pred = truth + np.array([1.0, 0.0])
        assert metrics.ade(pred, truth) == 1.0

    def test_two_step_mean(self):
        truth = np.zeros((1, 2, 2))
        pred = np.array([[[1.0, 0.0], [3.0, 0.0]]])
        assert metrics.ade(pred, truth) == 2.0

    def test_mask_drops_pairs(self):
        truth = np.zeros((1, 2, 2))
        pred = np.array([[[1.0, 0.0], [3.0, 0.0]]])
        mask = np.array([[True, False]])
        assert metrics.ade(pred, truth, mask) == 1.0

    def test_empty_mask_raises(self):
        truth = np.zeros((1, 2, 2))
        with pytest.raises(EmptyMetricError):
            metrics.ade(truth, truth, np.zeros((1, 2), dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.ade(np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            t = int(rng.integers(1, 8))
            pred = rng.normal(size=(n, t, 2))
            truth = rng.normal(size=(n, t, 2))
            mask = rng.random((n, t)) < 0.8
            expected = oracle_ade(pred, truth, mask)
            if expected is None:
                with pytest.raises(EmptyMetricError):
                    metrics.ade(pred, truth, mask)
            else:
                assert abs(metrics.ade(pred, truth, mask) - expected) < 1e-12


class TestFde:
    def test_perfect_prediction_is_zero(self):
        truth = straight(2, 12)
        assert metrics.fde(truth, truth) == 0.0

    def test_final_offset_with_perfect_history(self):
        truth = straight(1, 12)
        pred = truth.copy()
        pred[0, -1, 0] += 2.0
        assert metrics.fde(pred, truth) == 2.0
        assert abs(metrics.ade(pred, truth) - 2.0 / 12.0) < 1e-15

    def test_mean_over_pedestrians(self):
        truth = straight(2, 4)
        pred = truth.copy()
        pred[0, -1, 1] += 1.0
        pred[1, -1, 1] += 3.0
        assert metrics.fde(pred, truth) == 2.0

    def test_fallback_to_last_valid_step_warns(self):
        truth = straight(1, 4)
        pred = truth.copy()
        pred[0, 2, 0] += 5.0        # error at the fallback step
        pred[0, 3, 0] += 9.0        # error at the masked final step
        mask = np.array([[True, True, True, False]])
        with pytest.warns(UserWarning, match="last valid"):
            assert metrics.fde(pred, truth, mask) == 5.0

    def test_all_masked_raises(self):
        truth = straight(1, 4)
        with pytest.raises(EmptyMetricError):
            metrics.fde(truth, truth, np.zeros((1, 4), dtype=bool))


class TestRigidMotionInvariance:
    def test_ade_fde_invariant_under_rotation_and_shift(self):
        rng = np.random.default_rng(7)
        pred = rng.normal(size=(3, 6, 2))
        truth = rng.normal(size=(3, 6, 2))
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        shift = np.array([12.5, -3.25])
        pred_r = pred @ rot.T + shift
        truth_r = truth @ rot.T + shift
        assert abs(metrics.ade(pred, truth) - metrics.ade(pred_r, truth_r)) < 1e-12
        assert abs(metrics.fde(pred, truth) - metrics.fde(pred_r, truth_r)) < 1e-12


class TestBestOfK:
    def test_k1_equals_plain_metrics(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(1, 2, 5, 2))
        truth = rng.normal(size=(2, 5, 2))
        bok = metrics.best_of_k(pred, truth)
        assert bok == (metrics.ade(pred[0], truth), metrics.fde(pred[0], truth))

    def test_exact_sample_wins(self):
        truth = straight(2, 5)
        samples = np.stack([truth + 1.0, truth, truth - 2.0])
        assert metrics.best_of_k(samples, truth) == (0.0, 0.0)

    def test_selection_keyed_on_ade_only(self):
        # sample 0: (ade, fde) = (0.5, 2.0); sample 1: (0.6, 0.1).
        # The report must be (0.5, 2.0) — fde follows the ade winner.
        truth = straight(1, 12)
        s0 = truth.copy()
        s0[0, :11, 1] += (0.5 * 12 - 2.0) / 11.0
        s0[0, 11, 1] += 2.0
        s1 = truth.copy()
        s1[0, :11, 1] += (0.6 * 12 - 0.1) / 11.0
        s1[0, 11, 1] += 0.1
        assert abs(metrics.ade(s0, truth) - 0.5) < 1e-12
        assert abs(metrics.ade(s1, truth) - 0.6) < 1e-12
        got = metrics.best_of_k(np.stack([s0, s1]), truth)
        assert abs(got[0] - 0.5) < 1e-12
        assert abs(got[1] - 2.0) < 1e-12

    def test_prefix_monotonicity(self):
        rng = np.random.default_rng(11)
        truth = rng.normal(size=(3, 6, 2))
        samples = rng.normal(size=(20, 3, 6, 2))
        values = [metrics.best_of_k(samples[:k], truth)[0] for k in (1, 5, 20)]
        assert values[0] >= values[1] >= values[2]

    def test_tie_goes_to_first_sample(self):
        truth = straight(1, 3)
        off = truth + np.array([0.0, 1.0])
        got_ade, got_fde = metrics.best_of_k(np.stack([off, off]), truth)
        assert (got_ade, got_fde) == (1.0, 1.0)


class TestNearCollision:
    def test_two_close_peds_full_rate(self):
        pos = np.zeros((2, 1, 2))
        pos[1, 0, 0] = 0.05
        assert metrics.near_collision_rate(pos) == 100.0

    def test_separated_peds_zero_rate(self):
        assert metrics.near_collision_rate(straight(3, 5)) == 0.0

    def test_one_pair_of_four(self):
        pos = np.zeros((4, 1, 2))
        pos[0, 0] = (0.0, 0.0)
        pos[1, 0] = (0.08, 0.0)
        pos[2, 0] = (5.0, 5.0)
        pos[3, 0] = (-5.0, 5.0)
        assert metrics.near_collision_rate(pos) == 50.0

    def test_threshold_is_strict(self):
        pos = np.zeros((2, 1, 2))
        pos[1, 0, 0] = 0.10
        assert metrics.near_collision_rate(pos) == 0.0
        pos[1, 0, 0] = np.nextafter(0.10, 0.0)
        assert metrics.near_collision_rate(pos) == 100.0

    def test_single_ped_frames_contribute_zero(self):
        pos = np.zeros((2, 2, 2))
        pos[1, :, 0] = 0.05
        mask = np.array([[True, True], [True, False]])
        # frame 0: both present and colliding (1.0); frame 1: lone ped (0.0)
        assert metrics.near_collision_rate(pos, mask) == 50.0

    def test_reordering_invariance(self):
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(5, 7, 2)) * 0.2
        mask = rng.random((5, 7)) < 0.9
        base = metrics.near_collision_rate(pos, mask)
        perm = rng.permutation(5)
        assert metrics.near_collision_rate(pos[perm], mask[perm]) == base

    def test_empty_frames_give_zero(self):
        assert metrics.near_collision_rate(np.zeros((0, 4, 2))) == 0.0


class TestLinearExtrapolation:
    def test_constant_velocity_continues(self):
        obs = straight(1, 8, speed=0.5)[:, :8]
        future = metrics.linear_extrapolation(obs, 4)
        expected_x = 0.5 * 7 + 0.5 * np.arange(1, 5)
        assert np.allclose(future[0, :, 0], expected_x, atol=1e-12)
        assert np.all(future[0, :, 1] == 0.0)

    def test_velocity_from_endpoints(self):
        # wiggles between the first and last point are ignored
        obs = np.array([[[0.0, 0.0], [0.3, 2.0], [1.0, 0.0]]])
        future = metrics.linear_extrapolation(obs, 2)
        assert np.allclose(future[0], [[1.5, 0.0], [2.0, 0.0]], atol=1e-12)

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            metrics.linear_extrapolation(np.zeros((1, 1, 2)), 3)

    def test_empty_crowd_ok(self):
        out = metrics.linear_extrapolation(np.zeros((0, 8, 2)), 12)
        assert out.shape == (0, 12, 2)


class TestMetricReport:
    def test_csv_round_trip_is_exact(self):
        report = metrics.MetricReport(ade=0.123456789012345678, fde=1.0 / 3.0,
                                      best_of_k_ade=0.1, best_of_k_fde=0.2,
                                      near_collision_pct=12.5,
                                      n_scenes=20, n_peds=61)
        report.validate()
        again = metrics.MetricReport.from_csv(report.to_csv())
        assert again == report

    def test_header_layout(self):
        assert metrics.CSV_HEADER == "ade,fde,bok_ade,bok_fde,ncr_pct,n_scenes,n_peds"
        report = metrics.MetricReport(0, 0, 0, 0, 0, 0, 0)
        lines = report.to_csv().splitlines()
        assert lines[0] == metrics.CSV_HEADER
        assert len(lines) == 2

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            metrics.MetricReport(-1, 0, 0, 0, 0, 0, 0).validate()

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            metrics.MetricReport.from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("field, value", [
        ("ade", float("nan")), ("fde", float("inf")), ("best_of_k_ade", -float("inf")),
        ("best_of_k_fde", float("nan")), ("near_collision_pct", float("nan")),
        ("near_collision_pct", 100.5), ("near_collision_pct", 250.0)])
    def test_values_no_evaluation_gives_are_rejected(self, field, value):
        report = metrics.MetricReport(0.5, 0.5, 0.5, 0.5, 100.0, 1, 2)
        report.validate()                   # a percentage may reach 100
        setattr(report, field, value)
        with pytest.raises(ValueError, match=field):
            report.validate()

    @pytest.mark.parametrize("rows", [
        ["-1,0,0,0,0,1,1"], ["0,0,0,0,0,-1,1"], ["0,0,0,0,250,1,1"], ["0,0,0,0,nan,1,1"],
        ["inf,0,0,0,0,1,1"], [], ["0,0,0,0,0,1,1", "1,1,1,1,0,1,1"]],
        ids=["negative-ade", "negative-count", "pct-over-100", "nan-pct", "inf-ade",
             "no-row", "two-rows"])
    def test_from_csv_refuses_a_report_that_cannot_exist(self, rows):
        with pytest.raises(ValueError):
            metrics.MetricReport.from_csv("\n".join([metrics.CSV_HEADER, *rows]) + "\n")


@st.composite
def sample_sets(draw):
    """(samples, truth, mask, threshold): k futures of N pedestrians over T steps.

    Each pedestrian's mask is full, empty, a prefix (an FDE fallback) or a
    random pattern, so frames with nobody and with one person present
    occur. Coordinates lie on a 5 cm lattice (distances at the collision
    threshold, repeated errors) or are general floats, and a repeated
    sample makes an exact ADE tie. The collision threshold is the default
    or sits on a pair's distance.
    """
    k, n, t = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.ones((n, t), dtype=bool)
    for p, kind in enumerate(draw(st.lists(st.sampled_from(["full", "none", "prefix", "random"]),
                                           min_size=n, max_size=n))):
        if kind == "none":
            mask[p] = False
        elif kind == "prefix":
            mask[p, rng.integers(1, t + 1) - 1:] = False
        elif kind == "random":
            mask[p] = rng.random(t) < 0.6
    if draw(st.booleans()):
        truth = rng.integers(-4, 5, size=(n, t, 2)) * 0.05
        samples = truth + rng.integers(-4, 5, size=(k, n, t, 2)) * 0.05
    else:
        truth = rng.normal(0.0, 3.0, size=(n, t, 2))
        samples = truth + rng.normal(0.0, draw(st.sampled_from([0.05, 1.0])), size=(k, n, t, 2))
    if k > 1 and draw(st.booleans()):
        samples[-1] = samples[0]
    # A collision threshold at, or one ulp above, the distance of a present
    # pair of sample 0 tells apart distances that differ in the last bit.
    threshold = metrics.NEAR_COLLISION_M
    frames, first, second = np.nonzero(mask.T[:, :, None] & mask.T[:, None] & ~np.eye(n, dtype=bool))
    if frames.size and draw(st.booleans()):
        pick = draw(st.integers(0, frames.size - 1))
        f, a, b = frames[pick], first[pick], second[pick]
        threshold = float(np.linalg.norm(samples[0, a, f] - samples[0, b, f]))
        if draw(st.booleans()):
            threshold = float(np.nextafter(threshold, np.inf))
    return samples, truth, mask, threshold


def hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=sample_sets())
def test_one_pass_metrics_equal_their_loop_references_bitwise(case):
    samples, truth, mask, threshold = case
    final, fallbacks = loop_fde(samples[0], truth, mask)
    if final is None:
        with pytest.raises(EmptyMetricError):
            metrics._fde(samples[0], truth, mask)
        with pytest.raises(EmptyMetricError):
            metrics.best_sample(samples, truth, mask)
    else:
        value, count = metrics._fde(samples[0], truth, mask)
        assert (hexes(value), count) == (hexes(final), fallbacks)
        best, best_ade = loop_best_sample(samples, truth, mask)
        got, got_ade = metrics.best_sample(samples, truth, mask)
        assert (got, hexes(got_ade)) == (best, hexes(best_ade))
        assert hexes(metrics.best_of_k(samples, truth, mask)) == \
            hexes([best_ade, loop_fde(samples[best], truth, mask)[0]])
    assert hexes(metrics.frame_collision_fractions(samples[0], mask, threshold)) == \
        hexes(loop_collision_fractions(samples[0], mask, threshold))
    assert hexes(gn.sample_spread(samples)) == hexes(loop_spread(samples))
