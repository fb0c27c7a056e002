"""Forecaster tests: shapes, equivariances, reductions, gradient fidelity."""

import numpy as np
import pytest

from scantraj import autodiff as ad
from scantraj import cells
from scantraj import model as sm
from scantraj.data import SceneWindow
from scantraj.errors import ShapeError


def micro_cfg(**overrides):
    base = dict(embed_dim=3, hidden_dim=4, obs_len=3, pred_len=2,
                bearing_bin_deg=120.0, heading_bin_deg=120.0, variant="scan")
    base.update(overrides)
    return sm.ModelConfig(**base)


def build(cfg, seed=7):
    params = sm.build_params(cfg, ad.RngHub(seed))
    return sm.ScanModel(cfg, params)


def make_scene(paths, obs_len, ped_ids=None):
    """paths: (N, T, 2) -> SceneWindow with everyone present throughout."""
    paths = np.asarray(paths, dtype=np.float64)
    n, t = paths.shape[0], paths.shape[1]
    return SceneWindow(ped_ids=list(ped_ids or range(1, n + 1)),
                       positions=paths.transpose(1, 0, 2).copy(),
                       mask=np.ones((t, n), dtype=bool),
                       obs_len=obs_len, source="test")


def dyadic_walkers(n_steps, speeds=((0.25, 0.0), (-0.25, 0.125))):
    """Hand-built crossing-ish paths on a 1/64 grid (fp-exact arithmetic)."""
    paths = []
    starts = [(-1.0, 0.0), (1.0, 0.5)]
    for start, vel in zip(starts, speeds):
        pts = [(start[0] + vel[0] * k, start[1] + vel[1] * k)
               for k in range(n_steps)]
        paths.append(pts)
    return np.array(paths)


def recorded_ops(monkeypatch) -> list:
    """From now on, the op name of every record any recording tape makes."""
    ops: list = []
    add = ad.Tape.add

    def counting_add(tape, op, *rest):
        ops.append(op)
        return add(tape, op, *rest)

    monkeypatch.setattr(ad.Tape, "add", counting_add)
    return ops


def forward_positions(cfg, scene, seed=7, noise=None):
    m = build(cfg, seed)
    with ad.Tape():
        result = m.forward(scene, noise=noise)
    return result.positions(), result.displacements()


class TestShapes:
    def test_default_output_shape(self):
        cfg = sm.ModelConfig()
        scene = make_scene(dyadic_walkers(20), obs_len=8)
        pos, disp = forward_positions(cfg, scene)
        assert pos.shape == (2, 12, 2)
        assert disp.shape == (2, 12, 2)
        assert np.isfinite(pos).all()

    def test_hidden_and_cell_shapes_after_encode(self):
        cfg = micro_cfg(hidden_dim=32, embed_dim=16)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build(cfg)
        with ad.Tape():
            bank = m.encode(scene)
        for h, c in zip(bank.hidden.values, bank.cell.values):
            assert h.shape == (32,)
            assert c.shape == (32,)
        assert len(bank.attention) == 3
        assert bank.attention.keys.shape[0] == 2

    @pytest.mark.parametrize("pred_len", [8, 20])
    def test_horizon_sweep(self, pred_len):
        cfg = micro_cfg(pred_len=pred_len)
        scene = make_scene(dyadic_walkers(3 + pred_len), obs_len=3)
        pos, _ = forward_positions(cfg, scene)
        assert pos.shape == (2, pred_len, 2)

    def test_vanilla_variant_runs_without_temporal_params(self):
        cfg = micro_cfg(variant="vanilla")
        params = sm.build_params(cfg, ad.RngHub(7))
        assert "temporal.W" not in params
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = sm.ScanModel(cfg, params)
        with ad.Tape():
            result = m.forward(scene)
        assert result.positions().shape == (2, 2, 2)

    def test_joint_attention_key_widths(self):
        cfg = micro_cfg(attention_key="joint")
        params = sm.build_params(cfg, ad.RngHub(7))
        assert params["temporal.W"].shape == (4, 16)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = sm.ScanModel(cfg, params)
        with ad.Tape():
            result = m.forward(scene)
        assert result.positions().shape == (2, 2, 2)

    def test_obs_len_mismatch_rejected(self):
        cfg = micro_cfg()
        scene = make_scene(dyadic_walkers(5), obs_len=4)
        m = build(cfg)
        with pytest.raises(ShapeError):
            with ad.Tape():
                m.encode(scene)

    def test_empty_scene_predicts_empty(self):
        cfg = micro_cfg()
        scene = SceneWindow(ped_ids=[], positions=np.zeros((5, 0, 2)),
                            mask=np.zeros((5, 0), dtype=bool), obs_len=3)
        pred = sm.predict(scene, cfg, sm.build_params(cfg, ad.RngHub(7)))
        assert pred.ped_ids == []
        assert pred.positions.shape == (0, 2, 2)

    @pytest.mark.parametrize("generative", [False, True])
    def test_predict_records_nothing_and_equals_a_recorded_forward(
            self, monkeypatch, generative):
        cfg = micro_cfg(generative=generative, noise_dim=3)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        params = sm.build_params(cfg, ad.RngHub(7))
        ops = recorded_ops(monkeypatch)
        pred = sm.predict(scene, cfg, params)
        assert ops == []
        with ad.Tape():
            result = sm.ScanModel(cfg, params).forward(scene)
        assert ops                          # the reference pass did record
        assert pred.positions.tobytes() == result.positions().tobytes()
        assert pred.displacements.tobytes() == result.displacements().tobytes()


def records_of(run) -> int:
    """Tape records ``run()`` makes."""
    with ad.Tape() as tape:
        run()
        return len(tape)


class TestRecordBudget:
    """Only the recurrence of a known-track pass costs records per step."""

    @pytest.mark.parametrize("overrides", [{}, {"force_zero_context": True},
                                           {"coordinate_mode": "absolute",
                                            "attention_key": "joint"}])
    def test_an_observed_step_adds_a_fixed_few_records(self, overrides):
        counts = []
        for obs_len in (3, 4, 5):
            m = build(micro_cfg(obs_len=obs_len, **overrides))
            scene = make_scene(dyadic_walkers(obs_len + 2), obs_len=obs_len)
            counts.append(records_of(lambda: m.encode(scene)))
        assert counts[1] - counts[0] == counts[2] - counts[1] <= 6

    def test_a_decoder_step_spends_two_records_on_the_cell(self, monkeypatch):
        m = build(micro_cfg(pred_len=4, generative=True, noise_dim=2))
        scene = make_scene(dyadic_walkers(7), obs_len=3)
        spent = []
        lstm_cell = cells.lstm_cell

        def counted(gates_in, *rest):
            before = len(ad.active_tape())
            out = lstm_cell(gates_in, *rest)
            spent.append((gates_in.op_record.op, len(ad.active_tape()) - before))
            return out

        with ad.Tape():
            bank = m.encode(scene)
            monkeypatch.setattr(cells, "lstm_cell", counted)
            m.decode(scene, bank, noise=np.zeros((3, 2)))
        # The input share of the gates is one linear record, the update one.
        assert spent == [("linear", 1)] * 4


class TestConfig:
    def test_defaults_match_reference(self):
        cfg = sm.ModelConfig()
        assert (cfg.embed_dim, cfg.hidden_dim) == (16, 32)
        assert (cfg.obs_len, cfg.pred_len) == (8, 12)
        assert cfg.bin_spec().n_bearing == 12
        cfg.validate()

    @pytest.mark.parametrize("bad", [
        dict(variant="social"),
        dict(coordinate_mode="polar"),
        dict(attention_key="hidden"),
        dict(obs_len=1),
        dict(pred_len=0),
        dict(hidden_dim=0),
        dict(bearing_bin_deg=45.5),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            sm.ModelConfig(**bad).validate()

    def test_dict_round_trip(self):
        cfg = sm.ModelConfig(variant="vanilla", generative=True,
                             literal_softmax=True, pred_len=20,
                             domain_init_m=2.5)
        again = sm.ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_mangled_bool(self):
        raw = sm.ModelConfig().to_dict()
        raw["generative"] = "1"
        with pytest.raises(ValueError):
            sm.ModelConfig.from_dict(raw)


class TestParamInit:
    def test_grid_starts_at_declared_range(self):
        cfg = micro_cfg(domain_init_m=4.0)
        params = sm.build_params(cfg, ad.RngHub(3))
        assert np.all(params["domain_grid"].values == 4.0)
        assert params["domain_grid"].shape == (3, 3)

    def test_biases_start_at_zero(self):
        params = sm.build_params(micro_cfg(), ad.RngHub(3))
        for name in params.names():
            if name.endswith(".b"):
                assert np.all(params[name].values == 0.0), name

    def test_per_name_streams_are_stable_across_variants(self):
        # Dropping the temporal parameters (vanilla) must not reshuffle the
        # initial values of everything else.
        scan = sm.build_params(micro_cfg(), ad.RngHub(11))
        vanilla = sm.build_params(micro_cfg(variant="vanilla"), ad.RngHub(11))
        for name in vanilla.names():
            assert np.array_equal(scan[name].values, vanilla[name].values), name

    def test_rebuild_is_bit_identical(self):
        a = sm.build_params(micro_cfg(), ad.RngHub(5))
        b = sm.build_params(micro_cfg(), ad.RngHub(5))
        for name in a.names():
            assert np.array_equal(a[name].values, b[name].values)


class TestReductions:
    def test_single_pedestrian_equals_zeroed_context(self):
        # With no neighbours the spatial context is exactly zero, so the
        # model must match the diagnostic mode that forces a zero context.
        path = dyadic_walkers(5)[:1]
        scene = make_scene(path, obs_len=3)
        pos_a, disp_a = forward_positions(micro_cfg(), scene)
        pos_b, disp_b = forward_positions(micro_cfg(force_zero_context=True), scene)
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(disp_a, disp_b)

    def test_decode_is_deterministic(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        pos_a, _ = forward_positions(micro_cfg(), scene)
        pos_b, _ = forward_positions(micro_cfg(), scene)
        assert np.array_equal(pos_a, pos_b)

    def test_generative_zero_noise_matches_default(self):
        cfg = micro_cfg(generative=True, noise_dim=4)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        pos_none, _ = forward_positions(cfg, scene, noise=None)
        pos_zero, _ = forward_positions(cfg, scene, noise=np.zeros(4))
        assert np.array_equal(pos_none, pos_zero)

    def test_distinct_noise_changes_trajectories(self):
        cfg = micro_cfg(generative=True, noise_dim=4)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        pos_a, _ = forward_positions(cfg, scene, noise=np.full(4, 1.5))
        pos_b, _ = forward_positions(cfg, scene, noise=np.full(4, -1.5))
        assert not np.array_equal(pos_a, pos_b)

    def test_noise_rejected_when_not_generative(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build(micro_cfg())
        with pytest.raises(ValueError):
            with ad.Tape():
                m.forward(scene, noise=np.zeros(8))


class TestEquivariance:
    def test_permutation_equivariance_bitwise(self):
        paths = np.array([dyadic_walkers(5)[0],
                          dyadic_walkers(5)[1],
                          dyadic_walkers(5, speeds=((0.0, 0.25), (0.25, 0.0)))[0]])
        scene = make_scene(paths, obs_len=3)
        perm = [2, 0, 1]
        permuted = SceneWindow(ped_ids=[scene.ped_ids[i] for i in perm],
                               positions=scene.positions[:, perm].copy(),
                               mask=scene.mask[:, perm].copy(),
                               obs_len=3)
        pos, disp = forward_positions(micro_cfg(), scene)
        pos_p, disp_p = forward_positions(micro_cfg(), permuted)
        assert np.array_equal(pos_p, pos[perm])
        assert np.array_equal(disp_p, disp[perm])

    def test_head_on_orderings_agree(self):
        # Two walkers approaching head on; relabeling the columns must not
        # change either pedestrian's state, so their fused norms match
        # between the two orderings exactly.
        a = [(-1.0 + 0.25 * k, 0.0) for k in range(5)]
        b = [(1.0 - 0.25 * k, 0.125) for k in range(5)]
        scene = make_scene(np.array([a, b]), obs_len=3)
        swapped = make_scene(np.array([b, a]), obs_len=3, ped_ids=[2, 1])
        m = build(micro_cfg())
        with ad.Tape():
            bank = m.encode(scene)
            norms = [float(np.linalg.norm(k))
                     for row in bank.attention.keys.values for k in row]
        m2 = build(micro_cfg())
        with ad.Tape():
            bank2 = m2.encode(swapped)
            norms2 = [float(np.linalg.norm(k))
                      for row in bank2.attention.keys.values for k in row]
        # bank order: ped a's keys then ped b's in the first run; swapped in
        # the second. Compare after regrouping.
        third = len(norms) // 2
        assert norms[:third] == norms2[third:]
        assert norms[third:] == norms2[:third]

    def test_translation_equivariance_on_dyadic_grid(self):
        # Integer offsets keep dyadic coordinates fp-exact, so displacement
        # mode must reproduce the same displacements bit for bit and shift
        # the positions by exactly the offset.
        offset = np.array([16.0, -8.0])
        paths = dyadic_walkers(5)
        scene = make_scene(paths, obs_len=3)
        shifted = make_scene(paths + offset, obs_len=3)
        pos, disp = forward_positions(micro_cfg(), scene)
        pos_s, disp_s = forward_positions(micro_cfg(), shifted)
        assert np.array_equal(disp, disp_s)
        assert np.array_equal(pos + offset, pos_s)

    def test_beyond_domain_neighbor_cannot_influence(self):
        # A neighbour outside every range cell gets raw score 0, normalized
        # weight exactly 0, and adds an exact 0 * h — nudging it far away
        # must leave the target's forecast bit-identical.
        near = [( -1.0 + 0.25 * k, 0.0) for k in range(5)]
        far = [(50.0, 50.0 + 0.25 * k) for k in range(5)]
        far_nudged = [(52.0, 50.0 + 0.25 * k) for k in range(5)]
        pos_a, _ = forward_positions(micro_cfg(), make_scene(np.array([near, far]), 3))
        pos_b, _ = forward_positions(micro_cfg(), make_scene(np.array([near, far_nudged]), 3))
        assert np.array_equal(pos_a[0], pos_b[0])
        assert not np.array_equal(pos_a[1], pos_b[1])


class TestVanishing:
    def test_vanished_pedestrian_stops_influencing(self):
        # Pedestrian 2 is close enough to matter during observation, then
        # vanishes at the first predicted step. From that step on, its
        # (still-computed) state must not touch pedestrian 1's forecast:
        # two different continuations for ped 2's ground truth change
        # nothing because the mask, not the data, gates participation.
        paths = dyadic_walkers(5)
        scene_a = make_scene(paths, obs_len=3)
        scene_b = make_scene(paths.copy(), obs_len=3)
        scene_b.positions[3:, 1] += 100.0       # ped 2 ground truth differs
        for s in (scene_a, scene_b):
            s.mask[3:, 1] = False               # ...but it has vanished
        pos_a, _ = forward_positions(micro_cfg(), scene_a)
        pos_b, _ = forward_positions(micro_cfg(), scene_b)
        assert np.array_equal(pos_a[0], pos_b[0])

    def test_loss_mask_follows_scene_mask(self):
        paths = dyadic_walkers(6)
        scene = make_scene(paths, obs_len=3)
        scene.mask[4:, 1] = False
        cfg = micro_cfg(pred_len=3)
        m = build(cfg)
        with ad.Tape():
            result = m.forward(scene)
        assert result.loss_mask.tolist() == [[True, True, True],
                                             [True, False, False]]


class TestTrajectoryLoss:
    def test_zero_when_prediction_equals_truth(self):
        cfg = micro_cfg()
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build(cfg)
        with ad.Tape():
            result = m.forward(scene)
            # overwrite truth with the model's own output
            for p in range(2):
                for s in range(2):
                    scene.positions[3 + s, p] = result.pos.values[p, s]
            loss = sm.trajectory_loss(result, scene)
            assert float(loss.values) == 0.0

    def test_hand_computed_value(self):
        cfg = micro_cfg(pred_len=2)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build(cfg)
        with ad.Tape():
            result = m.forward(scene)
            loss = sm.trajectory_loss(result, scene)
            expected = 0.0
            for p in range(2):
                for s in range(2):
                    err = result.pos.values[p, s] - scene.positions[3 + s, p]
                    expected += float(err @ err)
            expected /= 4.0
            assert abs(float(loss.values) - expected) < 1e-15

    def test_all_masked_returns_none(self):
        cfg = micro_cfg()
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        scene.mask[3:] = False
        m = build(cfg)
        with ad.Tape():
            result = m.forward(scene)
            assert sm.trajectory_loss(result, scene) is None

    def test_loss_invariant_to_column_order(self):
        paths = dyadic_walkers(5)
        scene = make_scene(paths, obs_len=3)
        perm = [1, 0]
        permuted = SceneWindow(ped_ids=[scene.ped_ids[i] for i in perm],
                               positions=scene.positions[:, perm].copy(),
                               mask=scene.mask[:, perm].copy(), obs_len=3)
        cfg = micro_cfg()
        m = build(cfg)
        with ad.Tape():
            loss_a = sm.trajectory_loss(m.forward(scene), scene)
            a = float(loss_a.values)
        m2 = build(cfg)
        with ad.Tape():
            loss_b = sm.trajectory_loss(m2.forward(permuted), permuted)
            b = float(loss_b.values)
        assert a == b


class TestGradients:
    def test_whole_model_matches_finite_differences(self):
        cfg = micro_cfg()
        params = sm.build_params(cfg, ad.RngHub(13))
        m = sm.ScanModel(cfg, params)
        scene = make_scene(dyadic_walkers(5, speeds=((0.25, 0.0), (-0.25, 0.0))),
                           obs_len=3)

        def run_loss():
            with ad.Tape():
                return float(sm.trajectory_loss(m.forward(scene), scene).values)

        params.zero_grads()
        with ad.Tape() as tape:
            loss = sm.trajectory_loss(m.forward(scene), scene)
            tape.backward(loss)
        worst = 0.0
        for name, p in params.items():
            numeric = ad.numeric_gradient(run_loss, p.values)
            denom = np.maximum(np.abs(numeric), 1e-6)
            worst = max(worst, float(np.max(np.abs(p.grad - numeric) / denom)))
        assert worst < 1e-3

    def test_gradient_reaches_domain_grid_through_live_distance(self):
        # A single neighbour saturates the score normalization (softmax of
        # one element is constantly 1), so the grid only collects gradient
        # once two or more in-range neighbours compete. Far-apart crowds
        # must leave it untouched either way.
        cfg = micro_cfg()
        params = sm.build_params(cfg, ad.RngHub(13))
        m = sm.ScanModel(cfg, params)
        # two pedestrians 60 m apart: beyond range, no spatial gradient
        a = [(-30.0 + 0.25 * k, 0.0) for k in range(5)]
        b = [(30.0 - 0.25 * k, 0.0) for k in range(5)]
        scene = make_scene(np.array([a, b]), obs_len=3)
        params.zero_grads()
        with ad.Tape() as tape:
            loss = sm.trajectory_loss(m.forward(scene), scene)
            tape.backward(loss)
        assert np.all(params["domain_grid"].grad == 0.0)

        # three huddled walkers: competing neighbours at unequal distances
        a = [(-0.5 + 0.125 * k, 0.0) for k in range(5)]
        b = [(0.5 - 0.125 * k, 0.25) for k in range(5)]
        c = [(0.0, -0.5 + 0.125 * k) for k in range(5)]
        scene = make_scene(np.array([a, b, c]), obs_len=3)
        params.zero_grads()
        with ad.Tape() as tape:
            loss = sm.trajectory_loss(m.forward(scene), scene)
            tape.backward(loss)
        assert np.any(params["domain_grid"].grad != 0.0)
