"""Release-gate checks for the whole forecasting stack.

Each class pins one guarantee end to end: gradient fidelity against finite
differences, attention arithmetic against an independent reference,
bin-edge geometry, the no-influence rule for out-of-range neighbours, real
training runs that must converge / avoid collisions / diversify, the
variety-objective contract, metric goldens, and bit-level reproducibility.
Wall-clock budgets ride along wherever a check could silently turn
expensive. The final class replays the full five-campus benchmark and is
opt-in via environment variable because it runs for hours.
"""

import math
import os
import time

import numpy as np
import pytest

from scantraj import autodiff as ad
from scantraj import data as sd
from scantraj import generative as gn
from scantraj import metrics as mx
from scantraj import model as sm
from scantraj import spatial as sp
from scantraj import training as tr
from scantraj.geometry import (BinSpec, CrowdKinematics, EncounterGeometry,
                               bin_index, bin_indices, pair_offsets, track_kinematics)
from scantraj.model import trajectory_loss

from oracles import matmul, oracle_spatial
from test_model import build, dyadic_walkers, make_scene, micro_cfg

FD_STEP = 1e-5          # central-difference half-width
OP_TOL = 1e-4           # relative mismatch allowed per primitive op
MODEL_TOL = 1e-3        # relative mismatch allowed through the whole model
ORACLE_TOL = 1e-10      # attention pipeline vs the independent reference


def _rel_mismatch(numeric: float, analytic: float) -> float:
    """Relative disagreement with a dead zone for true-zero gradients."""
    scale = max(abs(numeric), abs(analytic))
    if scale < 1e-7:
        return 0.0 if abs(numeric - analytic) < 1e-9 else 1.0
    return abs(numeric - analytic) / scale


def _check_gradients(make_loss, arrays, tol):
    """Tape gradients of make_loss(*constant nodes) vs central differences.

    Perturbs every element of every input array and returns the worst
    relative mismatch seen, asserting each one under ``tol`` on the way.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    nodes = [ad.constant(a) for a in arrays]
    with ad.Tape() as tape:
        loss = make_loss(*nodes)
        tape.backward(loss)
    analytic = [np.array(n.grad, copy=True) for n in nodes]

    def value_at(mutated):
        with ad.Tape():
            return float(make_loss(*[ad.constant(m) for m in mutated]).values)

    worst = 0.0
    for which, base in enumerate(arrays):
        flat = base.reshape(-1)
        grad_flat = analytic[which].reshape(-1)
        for idx in range(flat.size):
            bumped = [a.copy() for a in arrays]
            bumped[which].reshape(-1)[idx] = flat[idx] + FD_STEP
            hi = value_at(bumped)
            bumped[which].reshape(-1)[idx] = flat[idx] - FD_STEP
            lo = value_at(bumped)
            numeric = (hi - lo) / (2.0 * FD_STEP)
            err = _rel_mismatch(numeric, grad_flat[idx])
            assert err < tol, (
                f"input {which} element {idx}: numeric {numeric:.8g} vs "
                f"tape {grad_flat[idx]:.8g} (relative {err:.3g})")
            worst = max(worst, err)
    return worst


def _weighted_sum(node, weights):
    """Project a tensor onto fixed weights so every op yields a scalar loss."""
    return ad.reduce_sum(ad.mul(node, ad.constant(weights)))


class TestGradientIntegrity:
    def test_every_primitive_op_matches_finite_differences(self):
        start = time.monotonic()
        rng = np.random.default_rng(60601)
        a34 = rng.normal(size=(3, 4))
        b34 = rng.normal(size=(3, 4))
        pos34 = rng.uniform(0.7, 1.8, size=(3, 4))      # safe divisor / log arg
        off5 = rng.uniform(0.2, 1.5, size=5) * rng.choice([-1.0, 1.0], size=5)
        # Projection weights must be frozen outside the closures: the loss
        # is re-evaluated hundreds of times during differencing.
        w34 = rng.normal(size=(3, 4))
        w24 = rng.normal(size=(2, 4))
        w32 = rng.normal(size=(3, 2))
        w3, w5, w6, w7 = (rng.normal(size=n) for n in (3, 5, 6, 7))
        v3, v4a, v4b, v5a, v5b, v6 = (rng.normal(size=n)
                                      for n in (3, 4, 4, 5, 5, 6))
        m42 = rng.normal(size=(4, 2))
        gate = np.array([True, False, True, True, False, True])
        b2 = rng.normal(size=2)
        w4, w42 = rng.normal(size=4), rng.normal(size=(4, 2))
        rows = np.array([[True, False, True, True], [False] * 4,
                         [True, True, False, True]])
        picks = (np.array([0, 2, 0]), np.array([1, 3, 1]))   # one repeat
        a342, m32 = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2))
        # lstm_step with H = 2: gates (..., 8), states (..., 2), W_hh (8, 2).
        g38, h32, c32, w82 = (rng.normal(size=s) for s in ((3, 8), (3, 2), (3, 2), (8, 2)))
        g238, h232, c232 = (rng.normal(size=(2,) + s) for s in ((3, 8), (3, 2), (3, 2)))
        w232, v232 = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2))
        # recurrence over T = 3 steps of a scene of 3 rows, and attention
        # over 4 keys of width 2. The first draw, once the recurrence's step
        # inputs, is still drawn, so later draws keep their values.
        _, u332, w24b, w334 = (rng.normal(size=s) for s in ((3, 3, 8), (3, 3, 2),
                                                            (2, 4), (3, 3, 4)))
        k342 = rng.normal(size=(3, 4, 2))
        # The decoder's ops over scenes of 1 and 2 rows (the lone row sees
        # no one): a two-step rollout with attention, whose second step's
        # weights read the running sum. Both ops bin their pairs on the 2 x 2
        # grid from the offsets they weight. The start offsets, running sum
        # and bins the pair weights once took are still drawn, so later
        # draws keep their values.
        table = np.array([[0, 0], [1, 2], [1, 2]])
        own = table == np.arange(3)[:, None]
        rng.uniform(-1.0, 1.0, size=(3, 2, 2))
        rng.integers(1, 3, size=(3, 2)), rng.integers(1, 3, size=(3, 2))
        spec22 = BinSpec(180.0, 180.0)
        _, grid22 = rng.normal(0.0, 0.2, size=(3, 2)), rng.uniform(1.0, 3.0, size=(2, 2))
        step_shapes = [(3, 2), (3, 2), (3, 2), (3, 2), (3, 2), (2, 4), 2, (2, 2), 2, (8, 2),
                       (8, 2), 8, (2, 2), 2]
        step_args = [rng.normal(size=s) for s in step_shapes]
        # Entries 2 and 3, a step's weights and running sum, the rollout
        # makes itself; they are still drawn, so later draws keep their values.
        step_args[2] = rng.uniform(size=(3, 2)) * ~own
        probes = [rng.normal(size=(3, 2)) for _ in range(5)]
        # The recurrence's input weights, which take steps of width 8.
        w88, b8 = rng.normal(size=(8, 8)), rng.normal(size=8)
        # The known-track pass's embedding of steps into width 8, and its
        # scene of 3 rows, each of which sees the other two. The bins it
        # once took are still drawn, so later draws keep their values.
        e82, e8 = rng.normal(size=(8, 2)), rng.normal(size=8)
        rng.integers(1, 3, size=(3, 3, 3)), rng.integers(1, 3, size=(3, 3, 3))
        table3 = np.array([[0, 1, 2]] * 3)
        start32 = CrowdKinematics(m32, np.array([30.0, 150.0, 270.0]), np.ones(3, bool))

        def rollout_all(h, c, x, grid, fw, fb, ew, eb, wih, whh, b, ow, ob, k, aw, ab):
            pos, _ = ad.decoder_rollout(h, c, x, start32, np.stack([~own, ~own]), spec22, grid,
                                        table, [(1, 1, 1), (1, 2, 2)], (fw, fb), (ew, eb),
                                        (wih, whh, b), (ow, ob), (k, aw, ab))
            return _weighted_sum(pos, np.stack(probes[:2], axis=1))

        def recurrence_all(track, grid, ew, eb, wi, w, b, fw, fb, *state):
            # A live track; with a start, step 0 moves on from m32.
            hidden, cell, keys = ad.recurrence(
                track, track_kinematics(track.values), table3 != np.arange(3)[:, None], spec22,
                grid, table3, [(1, 3, 3)], (ew, eb), (wi, w, b), (fw, fb), state or None,
                m32 if state else None)
            return ad.add(ad.add(_weighted_sum(hidden, w232[0]), _weighted_sum(cell, v232[0])),
                          _weighted_sum(keys, w334[..., :2]))

        def lstm_both(g, h, c, w, wh, wc):
            new_h, new_c = ad.lstm_step(g, h, c, w)
            return ad.add(_weighted_sum(new_h, wh), _weighted_sum(new_c, wc))

        cases = [
            ("add", lambda x, y: _weighted_sum(ad.add(x, y), w34), [a34, b34]),
            ("sub", lambda x, y: _weighted_sum(ad.sub(x, y), w34), [a34, b34]),
            ("mul", lambda x, y: _weighted_sum(ad.mul(x, y), w34), [a34, b34]),
            ("div", lambda x, y: _weighted_sum(ad.div(x, y), w34), [a34, pos34]),
            ("neg", lambda x: _weighted_sum(ad.neg(x), w34), [a34]),
            ("matmul", lambda x, y: _weighted_sum(matmul(x, y), w32),
             [a34, m42]),
            ("matmul vector-vector", lambda x, y: matmul(x, y), [v5a, v5b]),
            ("concat", lambda x, y: _weighted_sum(ad.concat([x, y]), w7),
             [v3, v4a]),
            ("stack", lambda x, y: _weighted_sum(ad.stack([x, y]), w24),
             [v4a, v4b]),
            ("slice", lambda x: _weighted_sum(x[1:4], w3), [v6]),
            ("relu", lambda x: _weighted_sum(ad.relu(x), w5), [off5]),
            ("tanh", lambda x: _weighted_sum(ad.tanh(x), w34), [a34]),
            ("sigmoid", lambda x: _weighted_sum(ad.sigmoid(x), w34), [a34]),
            ("exp", lambda x: _weighted_sum(ad.exp(x), w34), [a34]),
            ("log", lambda x: _weighted_sum(ad.log(x), w34), [pos34]),
            ("softplus", lambda x: _weighted_sum(ad.softplus(x), w34), [a34]),
            ("masked_softmax all active",
             lambda x: _weighted_sum(ad.masked_softmax(x, np.ones(5, bool)), w5),
             [v5a]),
            ("masked_softmax",
             lambda x: _weighted_sum(ad.masked_softmax(x, gate), w6), [v6]),
            ("sum", lambda x: ad.reduce_sum(x), [a34]),
            ("mean", lambda x: ad.reduce_mean(x), [a34]),
            ("l2norm", lambda x: ad.l2norm(x), [off5]),
            ("linear", lambda x, W, b: _weighted_sum(ad.linear(x, W, b), w32),
             [a34, m42.T, b2]),
            ("matmul batched matrix-vector",
             lambda x, y: _weighted_sum(matmul(x, y), w34), [a342, m32]),
            ("matmul batched vector-matrix",
             lambda x, y: _weighted_sum(matmul(x, y), w32), [a34, a342]),
            ("gather", lambda x: _weighted_sum(ad.gather(x, picks), w3), [a34]),
            ("masked_softmax rows",
             lambda x: _weighted_sum(ad.masked_softmax(x, rows), w34), [a34]),
            ("l2norm rows", lambda x: _weighted_sum(ad.l2norm(x), w3), [a34]),
            ("sum over an axis",
             lambda x: _weighted_sum(ad.reduce_sum(x, axis=0), w4), [a34]),
            ("stack on an axis",
             lambda x, y: _weighted_sum(ad.stack([x, y], axis=1), w42), [v4a, v4b]),
            ("lstm_step both outputs",
             lambda g, h, c, w: lstm_both(g, h, c, w, w232[0], v232[0]),
             [g38, h32, c32, w82]),
            ("lstm_step new_hidden only",
             lambda g, h, c, w: _weighted_sum(ad.lstm_step(g, h, c, w)[0], w232[1]),
             [g38, h32, c32, w82]),
            ("lstm_step over a leading axis",
             lambda g, h, c, w: lstm_both(g, h, c, w, w232, v232),
             [g238, h232, c232, w82]),
            ("recurrence", recurrence_all, [0.3 * u332, grid22, e82, e8, w88, w82, b8, w24b, b2]),
            ("recurrence from a start", recurrence_all,
             [0.3 * u332, grid22, e82, e8, w88, w82, b8, w24b, b2, h32, c32]),
            ("attention",
             lambda q, k, W, b: _weighted_sum(ad.attention(q, k, W, b), w32),
             [m32, k342, w24b, b2]),
            ("decoder_rollout", rollout_all, step_args[:2] + [step_args[4], grid22]
             + step_args[5:] + [rng.normal(size=(3, 2, 2)), w24b, b2]),
        ]
        for name, fn, inputs in cases:
            worst = _check_gradients(fn, inputs, OP_TOL)
            assert worst < OP_TOL, f"{name}: worst relative mismatch {worst:.3g}"
        assert time.monotonic() - start < 60.0

    def test_whole_forecaster_gradient_matches_finite_differences(self):
        start = time.monotonic()
        # Three walkers inside a 2 m pocket so both neighbours of every
        # target score positive and the domain grid itself receives
        # gradient through the crowd softmax.
        paths = np.array([
            [[-1.0, 0.0], [-0.75, 0.0], [-0.5, 0.0], [-0.25, 0.0], [0.0, 0.0]],
            [[1.0, 0.5], [0.75, 0.5], [0.5, 0.5], [0.25, 0.5], [0.0, 0.5]],
            [[0.0, -0.8], [0.0, -0.55], [0.0, -0.3], [0.0, -0.05], [0.0, 0.2]],
        ])
        scene = make_scene(paths, obs_len=3)
        model = build(micro_cfg(), seed=3)

        with ad.Tape() as tape:
            loss = trajectory_loss(model.forward(scene), scene)
            model.params.zero_grads()
            tape.backward(loss)
        analytic = {name: np.array(node.grad, copy=True)
                    for name, node in model.params.items()}

        def loss_value():
            with ad.Tape():
                return float(trajectory_loss(model.forward(scene), scene).values)

        checked = 0
        for name, node in model.params.items():
            flat = node.values.reshape(-1)
            grad_flat = analytic[name].reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + FD_STEP
                hi = loss_value()
                flat[idx] = keep - FD_STEP
                lo = loss_value()
                flat[idx] = keep
                numeric = (hi - lo) / (2.0 * FD_STEP)
                err = _rel_mismatch(numeric, grad_flat[idx])
                assert err < MODEL_TOL, (
                    f"{name}[{idx}]: numeric {numeric:.8g} vs tape "
                    f"{grad_flat[idx]:.8g} (relative {err:.3g})")
                checked += 1
        assert checked > 100
        assert time.monotonic() - start < 60.0


class TestSpatialOracleAgreement:
    def test_a_thousand_random_crowds_match_the_reference(self):
        start = time.monotonic()
        rng = np.random.default_rng(31415)
        specs = ((30.0, 30.0), (45.0, 90.0), (120.0, 60.0))
        hidden_dim = 5
        for trial in range(1000):
            n = int(rng.integers(2, 5))
            positions = rng.uniform(-6.0, 6.0, size=(n, 2))
            headings = rng.uniform(0.0, 360.0, size=n)
            hiddens = rng.normal(size=(n, hidden_dim))
            b_step, h_step = specs[trial % len(specs)]
            spec = BinSpec(b_step, h_step)
            # Reach between 0.5 m and 6.5 m mixes active, inactive, and
            # fully silent crowds into the sample.
            grid_vals = rng.uniform(0.5, 6.5, size=(spec.n_bearing, spec.n_heading))
            target = int(rng.integers(n))

            kin = CrowdKinematics(positions, headings, np.ones(n, dtype=bool))
            others = [i for i in range(n) if i != target]
            grid = sp.DomainGrid(ad.constant(grid_vals), spec)
            offsets = positions[None, :] - positions[:, None]
            everyone = np.tile(np.arange(n), (n, 1))        # the (n, n) neighbour table
            with ad.Tape():
                raws = sp.raw_score(grid, bin_indices(kin, spec, everyone,
                                                      pair_offsets(kin.position, everyone)),
                                    ad.l2norm(ad.constant(offsets)))
                weights = sp.normalize_scores(raws, ~np.eye(n, dtype=bool))
                context = sp.context_vector(weights.normalized, ad.constant(hiddens))

            exp_raw, exp_w, exp_ctx = oracle_spatial(
                grid_vals, b_step, h_step,
                [tuple(p) for p in positions], list(headings),
                [hiddens[i] for i in range(n)], target)

            assert np.max(np.abs(weights.raw.values[target, others] - exp_raw)) <= ORACLE_TOL
            assert np.max(np.abs(weights.normalized.values[target, others]
                                 - exp_w)) <= ORACLE_TOL
            assert np.max(np.abs(context.values[target] - exp_ctx)) <= ORACLE_TOL
        assert time.monotonic() - start < 10.0


class TestBinEdges:
    def test_worked_example(self):
        spec = BinSpec(30.0, 30.0)
        geom = EncounterGeometry(distance=1.0, bearing_deg=5.0,
                                 rel_heading_deg=185.0)
        assert bin_index(geom, spec) == (1, 7)

    def test_every_left_edge_opens_its_own_bin(self):
        for b_step, h_step in ((30.0, 30.0), (45.0, 90.0), (120.0, 60.0)):
            spec = BinSpec(b_step, h_step)
            for i in range(spec.n_bearing):
                for j in range(spec.n_heading):
                    geom = EncounterGeometry(1.0, i * b_step, j * h_step)
                    assert bin_index(geom, spec) == (i + 1, j + 1), (
                        f"{b_step}/{h_step} deg bins at ({i * b_step}, {j * h_step})")

    def test_points_just_below_an_edge_stay_in_the_lower_bin(self):
        spec = BinSpec(30.0, 30.0)
        for i in range(12):
            below = np.nextafter((i + 1) * 30.0, 0.0)
            geom = EncounterGeometry(1.0, below, below)
            assert bin_index(geom, spec) == (i + 1, i + 1)

    def test_a_full_turn_lands_in_the_last_bin(self):
        spec = BinSpec(30.0, 30.0)
        wrap = np.nextafter(360.0, 0.0)
        assert bin_index(EncounterGeometry(1.0, wrap, wrap), spec) == (12, 12)


class TestOutOfRangeIndifference:
    def test_far_neighbor_edits_never_leak_into_the_crowd(self):
        rng = np.random.default_rng(777)
        cfg = micro_cfg(obs_len=4, pred_len=3)
        total_steps = 7
        for case in range(100):
            n_near = 2 + case % 2
            starts = rng.uniform(-1.0, 1.0, size=(n_near, 2))
            walk = np.cumsum(rng.normal(0.0, 0.2, size=(n_near, total_steps - 1, 2)),
                             axis=1)
            near = np.concatenate([starts[:, None],
                                   starts[:, None] + walk], axis=1)

            angle = rng.uniform(0.0, 2.0 * math.pi)
            anchor = 50.0 * np.array([math.cos(angle), math.sin(angle)])
            far_walk = np.cumsum(rng.normal(0.0, 0.3, size=(total_steps - 1, 2)),
                                 axis=0)
            far = np.concatenate([anchor[None], anchor[None] + far_walk], axis=0)

            shifted = far + rng.normal(0.0, 0.3, size=2)[None]
            shifted[1:] += np.cumsum(rng.normal(0.0, 0.1, size=(total_steps - 1, 2)),
                                     axis=0)

            ids = list(range(1, n_near + 1)) + [99]
            scene_a = make_scene(np.concatenate([near, far[None]]), 4, ped_ids=ids)
            scene_b = make_scene(np.concatenate([near, shifted[None]]), 4,
                                 ped_ids=ids)
            model = build(cfg, seed=case % 7)
            with ad.Tape():
                pos_a = model.forward(scene_a).positions()
            with ad.Tape():
                pos_b = model.forward(scene_b).positions()

            # The crowd must be bit-identical; the rewritten walker itself
            # must move, otherwise the perturbation proved nothing.
            assert np.array_equal(pos_a[:n_near], pos_b[:n_near]), f"case {case}"
            assert not np.array_equal(pos_a[-1], pos_b[-1]), f"case {case}"


class TestMemorizationConvergence:
    def test_fifty_straight_walkers_are_memorized_inside_the_budget(self):
        start = time.monotonic()
        cfg = sm.ModelConfig(variant="vanilla")
        scenes = sd.synth_scenarios("straight", 50, seed=7)
        state, report = None, None
        for stage in range(20, 201, 20):
            conf = tr.TrainConfig(batch_size=32, lr=0.01, epochs=stage, seed=1)
            state, _ = tr.train_deterministic(scenes, cfg, conf, state=state)
            report = tr.evaluate(cfg, state.params, scenes, k=1, seed=0)
            if report.ade < 0.05:
                break
        elapsed = time.monotonic() - start
        assert report.ade < 0.05, (
            f"training ADE stuck at {report.ade:.4f} after {state.epoch} epochs")
        assert state.epoch <= 200
        assert elapsed < 600.0


class TestCollisionAvoidance:
    def test_learned_crossings_underrun_the_constant_velocity_baseline(self):
        cfg = sm.ModelConfig(variant="scan", embed_dim=8, hidden_dim=16,
                             bearing_bin_deg=45.0, heading_bin_deg=90.0)
        train_scenes = sd.synth_scenarios("crossing", 30, seed=11)
        held_out = sd.synth_scenarios("crossing", 100, seed=901)
        conf = tr.TrainConfig(batch_size=15, lr=0.01, epochs=30, seed=4)
        state, _ = tr.train_deterministic(train_scenes, cfg, conf)
        model = sm.ScanModel(cfg, state.params)

        model_fr, base_fr, truth_fr = [], [], []
        for scene in held_out:
            observed = scene.positions[:scene.obs_len].transpose(1, 0, 2)
            truth = scene.positions[scene.obs_len:].transpose(1, 0, 2)
            with ad.Tape():
                predicted = model.forward(scene).positions()
            baseline = mx.linear_extrapolation(observed, scene.pred_len)
            model_fr.extend(mx.frame_collision_fractions(predicted))
            base_fr.extend(mx.frame_collision_fractions(baseline))
            truth_fr.extend(mx.frame_collision_fractions(truth))

        ncr_model = float(np.mean(model_fr)) * 100.0
        ncr_base = float(np.mean(base_fr)) * 100.0
        # Premises first: the ground truth is clean and the straight-line
        # baseline really does plough through the crossing point.
        assert float(np.mean(truth_fr)) == 0.0
        assert ncr_base > 0.0
        assert ncr_model < ncr_base, (
            f"model {ncr_model:.3f}% vs baseline {ncr_base:.3f}%")


class TestDiversityTrend:
    @staticmethod
    def _spread_after_training(diversity_weight):
        cfg = sm.ModelConfig(variant="scan", embed_dim=8, hidden_dim=16,
                             bearing_bin_deg=90.0, heading_bin_deg=90.0,
                             generative=True, noise_dim=4)
        scenes = sd.synth_scenarios("crossing", 12, seed=21)
        gcfg = gn.GanConfig(k=4, adversarial_weight=1.0, variety_weight=1.0,
                            diversity_weight=diversity_weight)
        conf = tr.TrainConfig(batch_size=6, lr=0.005, epochs=8, seed=9,
                              gan=gcfg)
        state, _ = tr.train_gan(scenes, cfg, conf)
        model = sm.ScanModel(cfg, state.params)

        hub = ad.RngHub(777)
        eval_scenes = sd.synth_scenarios("crossing", 20, seed=555)
        spreads = []
        for i, scene in enumerate(eval_scenes):
            rng = hub.derive("diversity-eval", i)
            with ad.Tape():
                sample_set = gn.sample_predictions(model, scene, 4, rng)
            spreads.append(gn.sample_spread(sample_set.positions_array()))
        return float(np.mean(spreads))

    def test_weighted_repulsion_widens_the_fan_by_ten_percent(self):
        plain = self._spread_after_training(0.0)
        pushed = self._spread_after_training(1.0)
        assert plain > 0.0
        assert pushed >= 1.10 * plain, (
            f"spread only moved from {plain:.4f} to {pushed:.4f}")


class TestVarietyObjective:
    @staticmethod
    def _sample_set(k, seed=5, stream=0):
        cfg = micro_cfg(generative=True, noise_dim=3)
        model = build(cfg, seed=seed)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        rng = ad.RngHub(4242).derive("variety-check", stream)
        return model, scene, rng, k

    def test_k1_degenerates_to_the_plain_trajectory_error(self):
        model, scene, rng, k = self._sample_set(1)
        with ad.Tape():
            sample_set = gn.sample_predictions(model, scene, k, rng)
            variety = gn.variety_loss(scene, sample_set)
            plain = trajectory_loss(sample_set.results[0], scene)
        assert abs(float(variety.values) - float(plain.values)) <= 1e-12

    @staticmethod
    def _best_index(sample_set, scene):
        usable = min(sample_set.results[0].n_steps, scene.pred_len)
        truth = scene.positions[scene.obs_len:scene.obs_len + usable]
        truth = truth.transpose(1, 0, 2)
        mask = scene.mask[scene.obs_len:scene.obs_len + usable].T
        ades = [mx.ade(r.positions()[:, :usable], truth, mask)
                for r in sample_set.results]
        return int(np.argmin(ades))

    def test_unselected_samples_carry_exactly_zero_gradient(self):
        model, scene, rng, k = self._sample_set(3, stream=1)
        with ad.Tape() as tape:
            sample_set = gn.sample_predictions(model, scene, k, rng)
            variety = gn.variety_loss(scene, sample_set)
            model.params.zero_grads()
            tape.backward(variety)
        best = self._best_index(sample_set, scene)
        for i in range(k):
            peak = float(np.max(np.abs(sample_set.results[i].pos.grad)))
            if i == best:
                assert peak > 0.0
            else:
                assert peak == 0.0, f"sample {i} leaked gradient {peak}"

    def test_selection_equals_a_direct_pass_through_the_chosen_sample(self):
        def run(loss_of):
            model, scene, rng, k = self._sample_set(3, seed=9, stream=2)
            with ad.Tape() as tape:
                sample_set = gn.sample_predictions(model, scene, k, rng)
                loss = loss_of(sample_set, scene)
                model.params.zero_grads()
                tape.backward(loss)
            grads = {name: np.array(node.grad, copy=True)
                     for name, node in model.params.items()}
            return grads, self._best_index(sample_set, scene)

        via_variety, best = run(lambda s, sc: gn.variety_loss(sc, s))
        direct, _ = run(lambda s, sc: trajectory_loss(s.results[best], sc))
        assert via_variety.keys() == direct.keys()
        for name in via_variety:
            assert np.array_equal(via_variety[name], direct[name]), name


class TestMetricGoldens:
    def test_hand_computed_error_table(self):
        pred = np.array([[[0.0, 0.0], [3.0, 4.0]],
                         [[1.0, 1.0], [1.0, 1.0]]])
        truth = np.array([[[0.0, 0.0], [0.0, 0.0]],
                          [[1.0, 2.0], [4.0, 5.0]]])
        # Per-pair distances: walker one (0, 5); walker two (1, 5).
        assert mx.ade(pred, truth) == 2.75
        assert mx.fde(pred, truth) == 5.0
        mask = np.array([[True, True], [True, False]])
        assert mx.ade(pred, truth, mask) == 2.0
        with pytest.warns(UserWarning):
            assert mx.fde(pred, truth, mask) == 3.0

    def test_near_collision_golden(self):
        positions = np.array([[[0.0, 0.0]], [[0.05, 0.0]],
                              [[10.0, 0.0]], [[20.0, 0.0]]])
        assert mx.near_collision_rate(positions) == 50.0
        apart = positions.copy()
        apart[1, 0, 0] = 0.10       # exactly at the threshold: not a hit
        assert mx.near_collision_rate(apart) == 0.0

    def test_best_of_k_improves_with_more_samples(self):
        rng = np.random.default_rng(909)
        truth = np.cumsum(rng.normal(size=(2, 4, 2)), axis=1)
        samples = truth[None] + rng.normal(0.0, 0.8, size=(20, 2, 4, 2))
        per_sample = [mx.ade(samples[i], truth) for i in range(20)]
        one, _ = mx.best_of_k(samples[:1], truth)
        five, _ = mx.best_of_k(samples[:5], truth)
        twenty, _ = mx.best_of_k(samples, truth)
        assert one == per_sample[0]
        assert five == min(per_sample[:5])
        assert twenty == min(per_sample)
        assert one >= five >= twenty
        assert twenty < one


class TestBitReproducibility:
    @staticmethod
    def _scenes():
        rng = np.random.default_rng(17)
        out = []
        for _ in range(6):
            paths = dyadic_walkers(5) + rng.normal(0.0, 0.05, size=(2, 5, 2))
            out.append(make_scene(paths, obs_len=3))
        return out

    def test_identical_seeds_produce_identical_runs(self):
        scenes = self._scenes()
        cfg = micro_cfg()
        conf = tr.TrainConfig(batch_size=2, lr=0.01, epochs=4, seed=23)
        state_a, curve_a = tr.train_deterministic(scenes, cfg, conf)
        state_b, curve_b = tr.train_deterministic(scenes, cfg, conf)
        assert curve_a == curve_b
        for name, node in state_a.params.items():
            assert np.array_equal(node.values, state_b.params[name].values), name

    def test_resume_after_reload_matches_five_more_epochs(self, tmp_path):
        scenes = self._scenes()
        cfg = micro_cfg()
        full = tr.TrainConfig(batch_size=2, lr=0.01, epochs=9, seed=23)
        state_a, curve_a = tr.train_deterministic(scenes, cfg, full)

        head = tr.TrainConfig(batch_size=2, lr=0.01, epochs=4, seed=23)
        state_b, curve_head = tr.train_deterministic(scenes, cfg, head)
        path = tmp_path / "midpoint.ckpt"
        tr.save_checkpoint(path, state_b)
        restored = tr.load_checkpoint(path)
        state_c, curve_tail = tr.train_deterministic(scenes, cfg, full,
                                                     state=restored)

        assert curve_head + curve_tail == curve_a
        assert state_c.epoch == state_a.epoch == 9
        for name, node in state_a.params.items():
            assert np.array_equal(node.values, state_c.params[name].values), name
        assert state_a.opt.t == state_c.opt.t
        for name in state_a.opt.m:
            assert np.array_equal(state_a.opt.m[name], state_c.opt.m[name])
            assert np.array_equal(state_a.opt.v[name], state_c.opt.v[name])


FULL_BENCHMARK = os.environ.get("SCANTRAJ_FULL_ETHUCY", "")


@pytest.mark.skipif(not FULL_BENCHMARK, reason=(
    "hours-long five-campus benchmark; set SCANTRAJ_FULL_ETHUCY=1 and point "
    "SCANTRAJ_DATA at a directory holding eth.txt, hotel.txt, univ.txt, "
    "zara1.txt and zara2.txt to run it"))
class TestPublishedAccuracy:
    CAMPUSES = ("eth", "hotel", "univ", "zara1", "zara2")

    @classmethod
    def _splits(cls):
        root = os.environ.get("SCANTRAJ_DATA", ".")
        windows = {}
        for name in cls.CAMPUSES:
            path = os.path.join(root, f"{name}.txt")
            if not os.path.exists(path):
                pytest.skip(f"dataset file {path} is missing")
            records = sd.load_dataset(path)
            full = [w for w in sd.make_windows(records, obs_len=8, pred_len=12)
                    if w.mask.all()]
            if not full:
                pytest.skip(f"{path} yields no fully observed windows")
            windows[name] = full
        return windows

    def test_deterministic_accuracy_matches_the_published_numbers(self):
        windows = self._splits()
        ades, fdes = [], []
        for held in self.CAMPUSES:
            train_ws = [w for name in self.CAMPUSES if name != held
                        for w in windows[name]]
            cfg = sm.ModelConfig(variant="scan")
            conf = tr.TrainConfig(batch_size=64, lr=0.001, epochs=200, seed=0)
            state, _ = tr.train_deterministic(train_ws, cfg, conf)
            report = tr.evaluate(cfg, state.params, windows[held], k=1, seed=0)
            ades.append(report.ade)
            fdes.append(report.fde)
        assert abs(float(np.mean(ades)) - 0.50) <= 0.15
        assert abs(float(np.mean(fdes)) - 0.97) <= 0.15

    def test_generative_best_of_twenty_matches_the_published_numbers(self):
        windows = self._splits()
        bok_ades, bok_fdes = [], []
        for held in self.CAMPUSES:
            train_ws = [w for name in self.CAMPUSES if name != held
                        for w in windows[name]]
            cfg = sm.ModelConfig(variant="scan", generative=True)
            gcfg = gn.GanConfig(k=8, adversarial_weight=1.0,
                                variety_weight=1.0, diversity_weight=0.5)
            conf = tr.TrainConfig(batch_size=64, lr=0.001, epochs=200, seed=0,
                                  gan=gcfg)
            state, _ = tr.train_gan(train_ws, cfg, conf)
            report = tr.evaluate(cfg, state.params, windows[held], k=20, seed=0)
            bok_ades.append(report.best_of_k_ade)
            bok_fdes.append(report.best_of_k_fde)
        assert abs(float(np.mean(bok_ades)) - 0.48) <= 0.15
        assert abs(float(np.mean(bok_fdes)) - 0.98) <= 0.15
