"""Adversarial-wrapper tests: sampling, critic, variety/diversity losses."""

import gc
import weakref

import numpy as np
import pytest

from scantraj import autodiff as ad
from scantraj import cells
from scantraj import generative as gen
from scantraj import model as sm
from scantraj.data import SceneWindow
from scantraj.errors import NumericError, ShapeError

from test_model import (dyadic_walkers, fake_track, make_scene, micro_cfg, real_track,
                        records_of)
from test_training import assert_names_the_first_non_finite_record, spy_on_nonfinite_origin


def gen_cfg(**overrides):
    overrides.setdefault("generative", True)
    overrides.setdefault("noise_dim", 4)
    return micro_cfg(**overrides)


def build_generative(seed=7, **overrides):
    cfg = gen_cfg(**overrides)
    params = sm.build_params(cfg, ad.RngHub(seed))
    return sm.ScanModel(cfg, params)


def result_from_positions(positions):
    """A ForwardResult made of constants, for hand-value loss tests."""
    positions = np.asarray(positions, dtype=np.float64)
    n, t = positions.shape[:2]
    disp = np.diff(np.concatenate([positions[:, :1], positions], axis=1), axis=1)
    return sm.ForwardResult(list(range(1, n + 1)), ad.constant(disp),
                            ad.constant(positions), np.ones((n, t), dtype=bool))


def set_from_arrays(*sample_positions):
    results = [result_from_positions(p) for p in sample_positions]
    n = np.asarray(sample_positions[0]).shape[0]
    return gen.PredictionSet(list(range(1, n + 1)), results,
                             np.zeros((len(results), 4)),
                             ad.stack([r.pos for r in results]))


class TestNoise:
    def test_spec_validation(self):
        gen_cfg(noise_dim=8).validate()
        with pytest.raises(ValueError):
            gen_cfg(noise_dim=0).validate()

    def test_draw_shape_and_determinism(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build_generative(noise_dim=5)
        draws = []
        for _ in range(2):
            with ad.Tape():
                draws.append(gen.sample_predictions(
                    m, scene, 1, np.random.default_rng(3)).noises)
        assert draws[0].shape == (1, 5)
        assert np.array_equal(draws[0], draws[1])

    @pytest.mark.parametrize("make_rng", [
        np.random.default_rng,
        lambda seed: np.random.Generator(np.random.Philox(seed))])
    def test_block_draw_equals_stacked_row_draws(self, make_rng):
        # One (k, noise_dim) call draws exactly what k row calls drew, so
        # the noise streams of training and evaluation keep their values.
        block = make_rng(11).standard_normal((6, 4))
        rng = make_rng(11)
        rows = np.stack([rng.standard_normal(4) for _ in range(6)])
        assert np.array_equal(block, rows)

    def test_zero_noise_hidden_is_deterministic(self):
        with ad.Tape():
            h = ad.constant(np.arange(4.0))
            w = ad.constant(np.ones((4, 8)) * 0.1)
            b = ad.constant(np.zeros(4))
            out1 = cells.noise_conditioned_hidden(h, np.zeros(4), w, b)
            out2 = cells.noise_conditioned_hidden(h, np.zeros(4), w, b)
            assert out1.shape == (4,)
            assert np.array_equal(out1.values, out2.values)

    def test_distinct_noise_gives_distinct_hidden(self):
        with ad.Tape():
            h = ad.constant(np.arange(4.0))
            w = ad.constant(np.ones((4, 8)) * 0.1)
            b = ad.constant(np.zeros(4))
            out1 = cells.noise_conditioned_hidden(h, np.full(4, 2.0), w, b)
            out2 = cells.noise_conditioned_hidden(h, np.full(4, -2.0), w, b)
            assert not np.array_equal(out1.values, out2.values)


class TestGanConfig:
    def test_defaults_valid(self):
        gen.GanConfig().validate()

    @pytest.mark.parametrize("bad", [dict(k=0), dict(diversity_weight=-1.0),
                                     dict(variety_weight=-0.5)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            gen.GanConfig(**bad).validate()


class TestSampling:
    def test_fixed_seed_reproduces_bitwise(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        sets = []
        for _ in range(2):
            m = build_generative()
            with ad.Tape():
                sets.append(gen.sample_predictions(
                    m, scene, 3, np.random.default_rng(99)))
        assert np.array_equal(sets[0].noises, sets[1].noises)
        assert np.array_equal(sets[0].positions_array(),
                              sets[1].positions_array())

    def test_shapes_and_one_noise_per_sample(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build_generative()
        with ad.Tape():
            sample_set = gen.sample_predictions(m, scene, 4,
                                                np.random.default_rng(1))
        assert sample_set.k == 4
        assert sample_set.noises.shape == (4, 4)
        assert sample_set.positions_array().shape == (4, 2, 2, 2)

    def test_samples_differ_between_draws(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build_generative()
        with ad.Tape():
            sample_set = gen.sample_predictions(m, scene, 2,
                                                np.random.default_rng(1))
        pos = sample_set.positions_array()
        assert not np.array_equal(pos[0], pos[1])

    def test_batched_gradient_equals_the_sum_of_one_sample_gradients(self):
        # Backward through every batched op: one pass over k samples must
        # give the gradient of k separate decodes, up to summation order.
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        noise = np.random.default_rng(5).standard_normal((3, 4))

        def grads(batched):
            m = build_generative()
            with ad.Tape() as tape:
                bank = m.encode(scene)
                if batched:
                    results = m.decode(scene, bank, noise=noise).samples()
                else:
                    results = [m.decode(scene, bank, noise=z) for z in noise]
                loss = ad.mean_of([sm.trajectory_loss(r, scene) for r in results])
                tape.backward(loss)
            return {name: node.grad.copy() for name, node in m.params.items()}

        batched, separate = grads(True), grads(False)
        for name in batched:
            np.testing.assert_allclose(batched[name], separate[name],
                                       rtol=1e-12, atol=1e-15, err_msg=name)
        assert any(np.abs(g).max() > 0.0 for g in batched.values())

    @pytest.mark.parametrize("scope", [ad.Tape, ad.no_grad])
    def test_non_finite_futures_raise_and_name_the_op(self, monkeypatch, scope):
        # The same noise is decoded once more under a recording tape, so the
        # message names the first op whose output went non-finite.
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build_generative()
        m.params["out.W"].values[...] = np.inf
        tapes = spy_on_nonfinite_origin(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), scope():
            with pytest.raises(NumericError,
                               match="sample_predictions predicts non-finite positions") as info:
                gen.sample_predictions(m, scene, 3, np.random.default_rng(1))
        assert "first non-finite output: decoder_rollout at" in str(info.value)
        assert_names_the_first_non_finite_record(str(info.value), tapes)

    def test_requires_generative_config(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = sm.ScanModel(micro_cfg(), sm.build_params(micro_cfg(), ad.RngHub(7)))
        with pytest.raises(ValueError):
            with ad.Tape():
                gen.sample_predictions(m, scene, 2, np.random.default_rng(1))

    @pytest.mark.parametrize("k", [0, -2])
    @pytest.mark.parametrize("sampled", [False, True], ids=["zero_noise", "sampled"])
    def test_window_futures_refuse_k_below_one(self, k, sampled):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        rng = np.random.default_rng(1) if sampled else None
        with pytest.raises(ValueError, match="k must be >= 1"):
            gen.window_futures(build_generative(), scene, "scene 0", rng, k)


class TestDiscriminator:
    def test_untrained_scores_in_open_interval(self):
        cfg = gen_cfg()
        params = gen.build_discriminator_params(cfg, ad.RngHub(5))
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        with ad.Tape():
            probs = ad.sigmoid(gen.discriminator_logits(
                cfg, params, scene.ped_ids, real_track(scene), scene.mask))
            for prob in probs.values:
                assert 0.0 < float(prob[0]) < 1.0

    def test_permutation_equivariant(self):
        cfg = gen_cfg()
        params = gen.build_discriminator_params(cfg, ad.RngHub(5))
        paths = dyadic_walkers(5)
        scene = make_scene(paths, obs_len=3)
        perm = [1, 0]
        permuted = SceneWindow(ped_ids=[scene.ped_ids[i] for i in perm],
                               positions=scene.positions[:, perm].copy(),
                               mask=scene.mask[:, perm].copy(), obs_len=3)
        with ad.Tape():
            base = [float(p[0]) for p in ad.sigmoid(gen.discriminator_logits(
                cfg, params, scene.ped_ids, real_track(scene), scene.mask)).values]
        with ad.Tape():
            swapped = [float(p[0]) for p in ad.sigmoid(gen.discriminator_logits(
                cfg, params, permuted.ped_ids, real_track(permuted),
                permuted.mask)).values]
        assert swapped == [base[1], base[0]]

    @pytest.mark.parametrize("samples", [(), (3,)])
    def test_an_observed_step_adds_a_fixed_few_records(self, samples):
        cfg = gen_cfg()
        params = gen.build_discriminator_params(cfg, ad.RngHub(5))
        counts = []
        for steps in (4, 5, 6):
            scene = make_scene(dyadic_walkers(steps), obs_len=3)
            track = np.broadcast_to(scene.positions.transpose(1, 0, 2),
                                    samples + (scene.n_peds, steps, 2))
            counts.append(records_of(lambda: gen.discriminator_logits(
                cfg, params, scene.ped_ids, ad.constant(track), scene.mask)))
        assert counts[0] == counts[1] == counts[2]

    def test_learns_to_separate_toy_data(self):
        # Real: smooth straight walks. Fake: jittery random walks. A few
        # critic-only Adam steps must push mean real score above mean fake.
        cfg = gen_cfg(obs_len=3, pred_len=2)
        hub = ad.RngHub(17)
        params = gen.build_discriminator_params(cfg, hub)
        opt = ad.Adam(params, lr=0.01)
        rng = np.random.default_rng(8)

        def real_scene():
            start = rng.uniform(-2, 2, size=2)
            vel = rng.uniform(-0.4, 0.4, size=2)
            path = start + np.arange(5)[:, None] * vel
            return make_scene(path[None, :, :], obs_len=3)

        def fake_scene():
            steps = rng.normal(scale=0.6, size=(5, 2))
            path = np.cumsum(steps, axis=0)
            return make_scene(path[None, :, :], obs_len=3)

        for _ in range(40):
            with ad.Tape() as tape:
                real = gen.discriminator_logits(
                    cfg, params, [1], real_track(real_scene()),
                    np.ones((5, 1), dtype=bool))
                fake = gen.discriminator_logits(
                    cfg, params, [1], real_track(fake_scene()),
                    np.ones((5, 1), dtype=bool))
                loss = ad.add(gen.bce_real(real), gen.bce_fake(fake))
                params.zero_grads()
                tape.backward(loss)
                opt.step()

        def mean_score(scene_fn, n=20):
            total = 0.0
            for _ in range(n):
                with ad.Tape():
                    prob = ad.sigmoid(gen.discriminator_logits(
                        cfg, params, [1], real_track(scene_fn()),
                        np.ones((5, 1), dtype=bool))).values[0]
                    total += float(prob[0])
            return total / n

        assert mean_score(real_scene) > mean_score(fake_scene)

    def test_empty_crowd_gives_no_logits(self):
        cfg = gen_cfg()
        params = gen.build_discriminator_params(cfg, ad.RngHub(5))
        with ad.Tape():
            assert gen.discriminator_logits(cfg, params, [], [],
                                            np.zeros((0, 0), bool)).shape == (0, 1)


class TestBceHelpers:
    def test_zero_logit_costs_ln2(self):
        with ad.Tape():
            logit = ad.constant(np.zeros(1))
            assert abs(float(gen.bce_real(logit).values) - np.log(2)) < 1e-15
            assert abs(float(gen.bce_fake(logit).values) - np.log(2)) < 1e-15

    def test_perfect_classification_approaches_zero(self):
        with ad.Tape():
            confident_real = ad.constant(np.full(1, 20.0))
            confident_fake = ad.constant(np.full(1, -20.0))
            total = ad.add(gen.bce_real(confident_real),
                           gen.bce_fake(confident_fake))
            value = float(total.values)
        assert 0.0 <= value < 1e-8


class TestVarietyLoss:
    def test_k1_equals_trajectory_loss_exactly(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build_generative()
        with ad.Tape():
            sample_set = gen.sample_predictions(m, scene, 1,
                                                np.random.default_rng(2))
            variety = gen.variety_loss(scene, sample_set)
            plain = sm.trajectory_loss(sample_set.results[0], scene)
            assert float(variety.values) == float(plain.values)

    def test_exact_sample_gives_zero(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        truth = scene.positions[3:].transpose(1, 0, 2)
        with ad.Tape():
            sample_set = set_from_arrays(truth + 0.7, truth)
            loss = gen.variety_loss(scene, sample_set)
            assert float(loss.values) == 0.0

    def test_argmin_selection(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        truth = scene.positions[3:].transpose(1, 0, 2)
        with ad.Tape():
            sample_set = set_from_arrays(truth + 0.3, truth + 0.7)
            loss = gen.variety_loss(scene, sample_set)
            # squared-error mean of the 0.3-offset sample: 2 * 0.3^2
            assert abs(float(loss.values) - 2 * 0.09) < 1e-12

    def test_gradient_only_through_selected_sample(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build_generative()
        with ad.Tape() as tape:
            sample_set = gen.sample_predictions(m, scene, 3,
                                                np.random.default_rng(4))
            loss = gen.variety_loss(scene, sample_set)
            tape.backward(loss)
            ades = []
            for result in sample_set.results:
                pos = result.positions()
                truth = scene.positions[3:].transpose(1, 0, 2)
                ades.append(float(np.linalg.norm(pos - truth, axis=-1).mean()))
            best = int(np.argmin(ades))
            for idx, result in enumerate(sample_set.results):
                grads = np.abs(result.pos.grad)
                if idx == best:
                    assert grads.max() > 0.0
                else:
                    assert grads.max() == 0.0

    def test_all_masked_returns_none(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        scene.mask[3:] = False
        m = build_generative()
        with ad.Tape():
            sample_set = gen.sample_predictions(m, scene, 2,
                                                np.random.default_rng(2))
            assert gen.variety_loss(scene, sample_set) is None


class TestDiversityLoss:
    def test_one_meter_offset_single_ped(self):
        base = np.zeros((1, 4, 2))
        offset = base + np.array([0.0, 1.0])
        with ad.Tape():
            loss = gen.diversity_loss(set_from_arrays(base, offset))
            assert abs(float(loss.values) - np.exp(-1.0)) < 1e-15

    def test_identical_samples_hit_pair_count(self):
        base = np.random.default_rng(0).normal(size=(3, 4, 2))
        with ad.Tape():
            loss = gen.diversity_loss(set_from_arrays(base, base, base, base))
            # per pedestrian k(k-1)/2 = 6 pairs at exp(0), N-normalized
            assert abs(float(loss.values) - 6.0) < 1e-12

    def test_far_apart_samples_decay_to_zero(self):
        base = np.zeros((1, 4, 2))
        with ad.Tape():
            loss = gen.diversity_loss(set_from_arrays(base, base + 1000.0))
            assert float(loss.values) < 1e-300

    def test_k_below_two_is_zero(self):
        base = np.zeros((2, 4, 2))
        with ad.Tape():
            assert float(gen.diversity_loss(set_from_arrays(base)).values) == 0.0

    def test_sample_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        samples = [rng.normal(size=(2, 5, 2)) for _ in range(3)]
        with ad.Tape():
            a = float(gen.diversity_loss(set_from_arrays(*samples)).values)
            b = float(gen.diversity_loss(
                set_from_arrays(samples[2], samples[0], samples[1])).values)
        assert abs(a - b) < 1e-12

    def test_strictly_decreasing_in_pair_distance(self):
        base = np.zeros((1, 4, 2))
        with ad.Tape():
            near = float(gen.diversity_loss(
                set_from_arrays(base, base + 0.5)).values)
            far = float(gen.diversity_loss(
                set_from_arrays(base, base + 0.6)).values)
        assert far < near

    def test_gradient_repels_samples(self):
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        m = build_generative()
        with ad.Tape() as tape:
            sample_set = gen.sample_predictions(m, scene, 2,
                                                np.random.default_rng(4))
            loss = gen.diversity_loss(sample_set)
            tape.backward(loss)
        some = any(np.abs(p.grad).max() > 0 for _, p in m.params.items())
        assert some


class TestSampleSpread:
    def test_constant_offset(self):
        base = np.zeros((2, 1, 4, 2))
        base[1, :, :, 1] = 1.0
        assert gen.sample_spread(base) == 1.0

    def test_identical_samples_zero(self):
        rng = np.random.default_rng(0)
        one = rng.normal(size=(1, 2, 4, 2))
        assert gen.sample_spread(np.concatenate([one, one])) == 0.0

    def test_single_sample_zero(self):
        assert gen.sample_spread(np.zeros((1, 2, 4, 2))) == 0.0


class TestGanTrainStep:
    def make_batch(self):
        return [make_scene(dyadic_walkers(5), obs_len=3),
                make_scene(dyadic_walkers(5, speeds=((0.25, 0.0), (0.0, 0.25))),
                           obs_len=3)]

    def setup_pair(self, seed=21, **cfg_overrides):
        m = build_generative(seed=seed, **cfg_overrides)
        disc = gen.build_discriminator_params(m.cfg, ad.RngHub(seed + 1))
        return m, disc

    def test_step_updates_both_parameter_sets(self):
        m, disc = self.setup_pair()
        gen_before = {k: v.values.copy() for k, v in m.params.items()}
        disc_before = {k: v.values.copy() for k, v in disc.items()}
        report = gen.gan_train_step(
            m, disc, self.make_batch(), gen.GanConfig(k=2),
            ad.Adam(m.params, lr=0.001), ad.Adam(disc, lr=0.001),
            np.random.default_rng(3))
        assert set(report) == {"disc", "adversarial", "variety",
                               "diversity", "total"}
        assert any(not np.array_equal(gen_before[k], v.values)
                   for k, v in m.params.items())
        assert any(not np.array_equal(disc_before[k], v.values)
                   for k, v in disc.items())

    def test_lambda_zero_total_excludes_diversity(self):
        m, disc = self.setup_pair()
        report = gen.gan_train_step(
            m, disc, self.make_batch(), gen.GanConfig(k=2, diversity_weight=0.0),
            ad.Adam(m.params, lr=0.0), ad.Adam(disc, lr=0.0),
            np.random.default_rng(3))
        expected = report["adversarial"] + report["variety"]
        assert abs(report["total"] - expected) < 1e-12
        assert report["diversity"] > 0.0   # still reported, just not weighted

    def test_doubling_k_doubles_decode_passes(self, monkeypatch):
        decoded = []
        original = sm.ScanModel.decode

        def counting_decode(self, scene, bank, noise=None):
            decoded[-1] += 1 if noise is None or np.ndim(noise) == 1 else len(noise)
            return original(self, scene, bank, noise=noise)

        monkeypatch.setattr(sm.ScanModel, "decode", counting_decode)
        for k in (2, 4):
            decoded.append(0)
            m, disc = self.setup_pair()
            gen.gan_train_step(m, disc, self.make_batch()[:1],
                               gen.GanConfig(k=k),
                               ad.Adam(m.params, lr=0.001),
                               ad.Adam(disc, lr=0.001),
                               np.random.default_rng(3))
        assert decoded[1] == 2 * decoded[0]

    def test_one_encode_and_one_decode_per_step(self, monkeypatch):
        calls = {"encode": 0, "decode": 0}
        for name in calls:
            original = getattr(sm.ScanModel, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(sm.ScanModel, name, counted)
        m, disc = self.setup_pair()
        gen.gan_train_step(m, disc, self.make_batch(), gen.GanConfig(k=3),
                           ad.Adam(m.params, lr=0.001), ad.Adam(disc, lr=0.001),
                           np.random.default_rng(3))
        assert calls == {"encode": 1, "decode": 1}

    def test_report_equals_one_pass_per_sample_and_trajectory(self):
        # With a frozen critic, the batched step must report exactly what
        # separate decodes and separate critic passes give.
        m, disc = self.setup_pair()
        batch = self.make_batch()
        k = 3
        rng = np.random.default_rng(3)
        noises = [np.stack([rng.standard_normal(m.cfg.noise_dim) for _ in range(k)])
                  for _ in batch]
        with ad.Tape():
            real, fake, variety, diversity = [], [], [], []
            for scene, noise in zip(batch, noises):
                keep = np.flatnonzero(scene.mask.all(axis=0))
                bank = m.encode(scene)
                results = [m.decode(scene, bank, noise=z) for z in noise]
                real.append(ad.gather(gen.discriminator_logits(
                    m.cfg, disc, scene.ped_ids, real_track(scene),
                    scene.mask), keep))
                fake.extend(ad.gather(gen.discriminator_logits(
                    m.cfg, disc, scene.ped_ids,
                    fake_track(scene, r), scene.mask), keep)
                    for r in results)
                samples = gen.PredictionSet(scene.ped_ids, results, noise,
                                            ad.stack([r.pos for r in results]))
                variety.append(gen.variety_loss(scene, samples))
                diversity.append(gen.diversity_loss(samples))
            want = {
                "disc": float(ad.add(gen.bce_real(ad.concat(real)),
                                     gen.bce_fake(ad.concat(fake))).values),
                "adversarial": float(gen.bce_real(ad.concat(fake)).values),
                "variety": float(ad.mean_of(variety).values),
                "diversity": float(ad.mean_of(diversity).values)}
        report = gen.gan_train_step(
            m, disc, batch, gen.GanConfig(k=k, diversity_weight=0.5),
            ad.Adam(m.params, lr=0.001), ad.Adam(disc, lr=0.0),
            np.random.default_rng(3))
        for term, value in want.items():
            assert report[term] == value, term

    def test_each_critic_pass_runs_the_observed_steps_once(self, monkeypatch):
        # The observed steps, which every trajectory shares, run once per
        # critic pass with no sample axis; the futures continue from them,
        # the truth and k fakes in the critic half, the k live fakes in the
        # generator half, whose pass over the observed steps records nothing.
        m, disc = self.setup_pair()
        calls, original = [], ad.recurrence

        def spy(track, kinematics, mask, spec, grid, neighbors, blocks, embed, lstm, *args):
            outs = original(track, kinematics, mask, spec, grid, neighbors, blocks, embed, lstm,
                            *args)
            if lstm[0] is disc["disc.lstm.W_ih"]:
                calls.append((np.shape(track), outs[0].op_record is not None))
            return outs

        monkeypatch.setattr(ad, "recurrence", spy)
        batch, k = self.make_batch(), 4
        gen.gan_train_step(m, disc, batch, gen.GanConfig(k=k),
                           ad.Adam(m.params, lr=0.001), ad.Adam(disc, lr=0.001),
                           np.random.default_rng(3))
        cfg = m.cfg
        rows = sum(scene.n_peds for scene in batch)
        history = (cfg.obs_len, rows, 2)
        assert calls == [(history, True), ((cfg.pred_len, k + 1, rows, 2), True),
                         (history, False), ((cfg.pred_len, k, rows, 2), True)]

    def test_critic_tape_is_freed_before_the_generator_backward(self, monkeypatch):
        # With the cyclic collector off, only reference counting can free
        # the critic's tape: nothing may hold it once its half is done.
        tapes, alive = [], []
        original = ad.Tape.backward

        def spy(tape, loss):
            alive.append([ref() is not None for ref in tapes])
            tapes.append(weakref.ref(tape))
            return original(tape, loss)

        monkeypatch.setattr(ad.Tape, "backward", spy)
        m, disc = self.setup_pair()
        enabled = gc.isenabled()
        gc.disable()
        try:
            gen.gan_train_step(m, disc, self.make_batch(), gen.GanConfig(k=2),
                               ad.Adam(m.params, lr=0.001), ad.Adam(disc, lr=0.001),
                               np.random.default_rng(3))
        finally:
            if enabled:
                gc.enable()
        assert alive == [[], [False]]

    def test_scene_longer_than_the_model_horizon_rejected(self):
        # Real and generated trajectories share one critic pass, so they
        # must have the same length.
        m, disc = self.setup_pair()
        long_scene = make_scene(dyadic_walkers(6), obs_len=3)
        with pytest.raises(ShapeError, match="steps"):
            gen.gan_train_step(m, disc, [long_scene], gen.GanConfig(k=2),
                               ad.Adam(m.params, lr=0.001),
                               ad.Adam(disc, lr=0.001),
                               np.random.default_rng(3))

    def test_nan_guard_names_the_term(self):
        m, disc = self.setup_pair()
        disc["disc.score.W"].values[:] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="discriminator"):
                gen.gan_train_step(m, disc, self.make_batch(),
                                   gen.GanConfig(k=2),
                                   ad.Adam(m.params, lr=0.001),
                                   ad.Adam(disc, lr=0.001),
                                   np.random.default_rng(3))

    def test_nan_guard_names_the_first_non_finite_record(self, monkeypatch):
        m, disc = self.setup_pair()
        disc["disc.score.b"].values[:] = np.inf
        tapes = spy_on_nonfinite_origin(monkeypatch)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="discriminator") as info:
                gen.gan_train_step(m, disc, self.make_batch(), gen.GanConfig(k=2),
                                   ad.Adam(m.params, lr=0.001), ad.Adam(disc, lr=0.001),
                                   np.random.default_rng(3))
        assert_names_the_first_non_finite_record(str(info.value), tapes)

    def test_empty_batch_rejected(self):
        m, disc = self.setup_pair()
        empty = SceneWindow(ped_ids=[], positions=np.zeros((5, 0, 2)),
                            mask=np.zeros((5, 0), dtype=bool), obs_len=3)
        with pytest.raises(ValueError):
            gen.gan_train_step(m, disc, [empty], gen.GanConfig(k=2),
                               ad.Adam(m.params, lr=0.001),
                               ad.Adam(disc, lr=0.001),
                               np.random.default_rng(3))
