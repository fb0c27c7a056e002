"""Domain-grid scoring, crowd normalization, context, and fusion."""

import numpy as np
import pytest

from scantraj import autodiff as ad
from scantraj import spatial
from scantraj.geometry import (AgentKinematics, BinSpec, CrowdKinematics,
                               EncounterGeometry, bin_index, bin_indices,
                               compute_encounter)

from oracles import matmul, numeric_gradient, oracle_spatial


def make_grid(value=4.0, spec=None):
    store = ad.ParamStore()
    spec = spec or BinSpec()
    node = store.register("domain_grid",
                          np.full((spec.n_bearing, spec.n_heading), float(value)))
    return spatial.DomainGrid(node, spec), store


def pair_row(geoms, spec):
    """One target's encounters as a (1, k) row: bins and a distance node."""
    idx = np.array([bin_index(g, spec) for g in geoms]).reshape(1, -1, 2)
    return (idx[..., 0], idx[..., 1]), ad.constant([[g.distance for g in geoms]])


def score_row(grid, geoms, distance=None):
    bins, dist = pair_row(geoms, grid.spec)
    return spatial.raw_score(grid, bins, dist if distance is None else distance)


def weights_row(values):
    """normalize_scores over one target whose neighbours score ``values``."""
    raw = ad.constant(np.array(values, dtype=np.float64).reshape(1, -1))
    return spatial.normalize_scores(raw, np.ones(raw.shape, dtype=bool))


class TestRawScore:
    def test_inside_domain_scores_positive(self):
        grid, _ = make_grid(4.0)
        g = EncounterGeometry(1.0, 5.0, 185.0)
        assert score_row(grid, [g]).values[0, 0] == 3.0

    def test_beyond_domain_scores_exact_zero(self):
        grid, _ = make_grid(4.0)
        assert score_row(grid, [EncounterGeometry(5.0, 0.0, 0.0)]).values[0, 0] == 0.0

    def test_boundary_distance_scores_zero(self):
        grid, _ = make_grid(4.0)
        assert score_row(grid, [EncounterGeometry(4.0, 0.0, 0.0)]).values[0, 0] == 0.0

    def test_beyond_domain_leaves_grid_gradient_zero(self):
        grid, _ = make_grid(4.0)
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(
                score_row(grid, [EncounterGeometry(9.0, 0.0, 0.0)])))
        np.testing.assert_array_equal(grid.node.grad, np.zeros((12, 12)))

    def test_one_call_touches_exactly_one_grid_entry(self):
        grid, _ = make_grid(4.0)
        g = EncounterGeometry(1.0, 95.0, 275.0)  # bins (4, 10)
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(score_row(grid, [g])))
        hits = np.argwhere(grid.node.grad != 0.0)
        assert hits.tolist() == [[3, 9]]
        assert grid.node.grad[3, 9] == 1.0

    def test_live_distance_node_gets_gradient(self):
        grid, _ = make_grid(4.0)
        d = ad.constant([[1.5]])
        with ad.Tape() as tape:
            s = score_row(grid, [EncounterGeometry(1.5, 0.0, 0.0)], distance=d)
            tape.backward(ad.reduce_sum(s))
        assert d.grad[0, 0] == -1.0


class TestNormalizeScores:
    def test_equal_scores_split_evenly(self):
        w = weights_row([2.0, 2.0])
        np.testing.assert_array_equal(w.normalized.values[0], [0.5, 0.5])

    def test_zero_score_neighbour_gets_exact_zero(self):
        w = weights_row([3.0, 0.0])
        np.testing.assert_array_equal(w.normalized.values[0], [1.0, 0.0])
        np.testing.assert_array_equal(w.active[0], [True, False])

    def test_frozen_two_neighbour_softmax(self):
        w = weights_row([1.0, 2.0])
        e = np.e
        np.testing.assert_allclose(w.normalized.values[0],
                                   [1 / (1 + e), e / (1 + e)], rtol=1e-15)

    def test_nobody_in_domain_means_all_zero(self):
        w = weights_row([0.0, 0.0])
        np.testing.assert_array_equal(w.normalized.values[0], [0.0, 0.0])

    def test_no_neighbours_at_all(self):
        w = weights_row([])
        assert w.normalized.values[0].shape == (0,)

    def test_weights_sum_to_one_when_anyone_active(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            scores = (rng.uniform(0, 3, size=rng.integers(1, 6)) *
                      (rng.random(1) < 2.0))  # always nonnegative
            w = weights_row(scores)
            if w.active.any():
                assert abs(w.normalized.values[0].sum() - 1.0) < 1e-12


class TestContextVector:
    def test_even_split_averages_hiddens(self):
        w = weights_row([2.0, 2.0])
        hiddens = ad.constant([[1.0, 3.0], [5.0, 7.0]])
        ctx = spatial.context_vector(w.normalized, hiddens)
        np.testing.assert_array_equal(ctx.values[0], [3.0, 5.0])

    def test_single_active_neighbour_passes_hidden_through(self):
        w = weights_row([1.5, 0.0])
        h1 = [0.25, -1.75, 8.0]
        ctx = spatial.context_vector(w.normalized, ad.constant([h1, [9.0, 9.0, 9.0]]))
        np.testing.assert_array_equal(ctx.values[0], h1)

    def test_empty_crowd_gives_zero_context(self):
        ctx = spatial.context_vector(weights_row([]).normalized,
                                     ad.constant(np.zeros((0, 4))))
        np.testing.assert_array_equal(ctx.values[0], np.zeros(4))

    def test_inactive_neighbour_hidden_is_never_read(self):
        """Perturbing a beyond-domain neighbour leaves the context bit-identical."""
        w = weights_row([2.0, 0.0])
        h_active = [0.1, 0.2]

        ctx_a = spatial.context_vector(w.normalized, ad.constant([h_active, [1.0, 1.0]]))
        ctx_b = spatial.context_vector(w.normalized, ad.constant([h_active, [-99.0, 42.0]]))
        np.testing.assert_array_equal(ctx_a.values, ctx_b.values)


class TestFuseHidden:
    def test_zero_context_still_passes_through_projection(self):
        H = 3
        W = ad.constant(np.hstack([np.eye(H), np.zeros((H, H))]))
        b = ad.constant(np.zeros(H))
        h = ad.constant([0.5, -0.25, 0.0])
        fused, joint = spatial.fuse_hidden(h, ad.constant(np.zeros(H)), W, b)
        np.testing.assert_allclose(fused.values, np.tanh(h.values), rtol=1e-15)
        assert joint.shape == (2 * H,)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(43)
        H = 4
        Wv = rng.normal(size=(H, 2 * H))
        hv = rng.normal(size=H)
        cv = rng.normal(size=H)

        W = ad.constant(Wv)
        h = ad.constant(hv)
        c = ad.constant(cv)
        probe = rng.normal(size=H)
        with ad.Tape() as tape:
            fused, _ = spatial.fuse_hidden(h, c, W, ad.constant(np.zeros(H)))
            tape.backward(matmul(fused, ad.constant(probe)))
            got = W.grad.copy()

        def f():
            with ad.Tape():
                fused, _ = spatial.fuse_hidden(
                    ad.TensorNode(hv), ad.TensorNode(cv), ad.TensorNode(Wv),
                    ad.constant(np.zeros(H)))
                return float(matmul(fused, ad.constant(probe)).values)

        want = numeric_gradient(f, Wv)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


class TestStepLevelZeroInfluence:
    def test_fused_state_ignores_beyond_domain_neighbour(self):
        """Full chain: score -> weights -> context -> fuse, one step."""
        rng = np.random.default_rng(44)
        grid, _ = make_grid(4.0)
        H = 5
        W = ad.constant(rng.normal(size=(H, 2 * H)))
        b = ad.constant(rng.normal(size=H))

        target = AgentKinematics((0.0, 0.0), 0.0, True)
        near = AgentKinematics((1.0, 0.5), 10.0, True)
        far = AgentKinematics((50.0, 50.0), 200.0, True)  # way outside reach

        h_t = ad.constant(rng.normal(size=H))
        h_near = ad.constant(rng.normal(size=H))

        def fused_with(far_hidden):
            scores = score_row(grid, [compute_encounter(target, near),
                                      compute_encounter(target, far)])
            w = spatial.normalize_scores(scores, np.ones((1, 2), dtype=bool))
            ctx = spatial.context_vector(w.normalized,
                                         ad.constant([h_near.values, far_hidden]))
            fused, _ = spatial.fuse_hidden(h_t, ctx[0], W, b)
            return fused.values

        a = fused_with(rng.normal(size=H))
        bb = fused_with(rng.normal(size=H) * 1e6)
        np.testing.assert_array_equal(a, bb)


class TestOracleEquivalence:
    """Module chain vs the plain-loop reference (small version here;
    the 1000-configuration sweep lives in the acceptance suite)."""

    def test_random_crowds_match_oracle(self):
        rng = np.random.default_rng(45)
        spec = BinSpec(30.0, 30.0)
        H = 4
        for _ in range(50):
            n = int(rng.integers(2, 5))
            grid, _ = make_grid(0.0, spec)
            grid.node.values[...] = rng.uniform(0.5, 5.0, size=(12, 12))
            positions = [tuple(p) for p in rng.uniform(-4, 4, size=(n, 2))]
            headings = list(rng.uniform(0, 360, size=n))
            hiddens = [rng.normal(size=H) for _ in range(n)]
            target = int(rng.integers(0, n))

            kins = CrowdKinematics(np.array(positions), np.array(headings),
                                   np.ones(n, dtype=bool))
            offsets = np.asarray(positions)[None, :] - np.asarray(positions)[:, None]
            everyone = np.tile(np.arange(n), (n, 1))    # the (n, n) neighbour table
            scores = spatial.raw_score(grid, bin_indices(kins, spec, everyone),
                                       ad.l2norm(ad.constant(offsets)))
            w = spatial.normalize_scores(scores, ~np.eye(n, dtype=bool))
            ctx = spatial.context_vector(w.normalized, ad.constant(hiddens))

            others = [i for i in range(n) if i != target]
            raw_ref, w_ref, ctx_ref = oracle_spatial(
                grid.values, 30.0, 30.0, positions, headings, hiddens, target)
            np.testing.assert_allclose(w.raw.values[target, others], raw_ref, atol=1e-10)
            np.testing.assert_allclose(w.normalized.values[target, others], w_ref,
                                       atol=1e-10)
            np.testing.assert_allclose(ctx.values[target], ctx_ref, atol=1e-10)
