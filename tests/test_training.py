"""Training loops, evaluation driver, and checkpoint round-trip tests."""

import dataclasses
import struct
import sys
import threading
import warnings

import numpy as np
import pytest

from test_model import dyadic_walkers, make_scene, micro_cfg, recorded_ops

from scantraj import autodiff as ad
from scantraj import data as sd
from scantraj import generative as gn
from scantraj import model as sm
from scantraj import training as tr
from scantraj.errors import DataError, NumericError
from scantraj.metrics import EmptyMetricError


def micro_windows(n_scenes=4, obs_len=3, total=5, seed=17):
    """Deterministic jittered two-walker scenes sized for micro_cfg."""
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(n_scenes):
        base = dyadic_walkers(total) + rng.normal(0.0, 0.05, size=(2, total, 2))
        windows.append(make_scene(base, obs_len))
    return windows


def tcfg(**overrides):
    base = dict(batch_size=2, lr=0.01, epochs=3, seed=5)
    base.update(overrides)
    return tr.TrainConfig(**base)


def params_equal(store_a, store_b):
    if sorted(store_a.names()) != sorted(store_b.names()):
        return False
    return all(np.array_equal(store_a[n].values, store_b[n].values)
               for n in store_a.names())


class TestTrainConfig:
    def test_defaults_validate(self):
        tr.TrainConfig().validate()

    def test_zero_lr_is_legal(self):
        tcfg(lr=0.0).validate()

    def test_rejections(self):
        for kw in (dict(batch_size=0), dict(lr=-0.1), dict(epochs=-1),
                   dict(eval_every=-2)):
            with pytest.raises(ValueError):
                tcfg(**kw).validate()

    def test_gan_sub_config_checked(self):
        with pytest.raises(ValueError):
            tcfg(gan=gn.GanConfig(k=0)).validate()


class TestDeterministicLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        windows = micro_windows()
        cfg = micro_cfg(variant="vanilla")
        conf = tcfg(lr=0.0, epochs=3)
        state = tr.init_state(cfg, conf)
        before = {k: v.values.copy() for k, v in state.params.items()}
        state, curve = tr.train_deterministic(windows, cfg, conf, state=state)
        for name, node in state.params.items():
            assert np.array_equal(node.values, before[name])
        assert len([1 for (_, t, _) in curve if t == "train_loss"]) == 3

    def test_zero_lr_single_scene_loss_is_flat_exactly(self):
        windows = micro_windows(1)
        cfg = micro_cfg(variant="vanilla")
        _, curve = tr.train_deterministic(windows, cfg, tcfg(lr=0.0, epochs=4))
        losses = [v for (_, t, v) in curve if t == "train_loss"]
        assert len(set(losses)) == 1

    def test_fixed_seed_reproduces_curve_and_params(self):
        windows = micro_windows()
        cfg = micro_cfg(variant="vanilla")
        state_a, curve_a = tr.train_deterministic(windows, cfg, tcfg())
        state_b, curve_b = tr.train_deterministic(windows, cfg, tcfg())
        assert curve_a == curve_b
        assert params_equal(state_a.params, state_b.params)

    def test_loss_decreases(self):
        windows = micro_windows(2)
        cfg = micro_cfg(variant="vanilla")
        _, curve = tr.train_deterministic(windows, cfg, tcfg(epochs=40))
        losses = [v for (_, t, v) in curve if t == "train_loss"]
        assert losses[-1] < 0.9 * losses[0]

    def test_epoch_counter_advances(self):
        windows = micro_windows(1)
        state, _ = tr.train_deterministic(windows, micro_cfg(), tcfg(epochs=2))
        assert state.epoch == 2

    def test_divergence_raises(self):
        windows = micro_windows(1)
        cfg = micro_cfg()
        conf = tcfg(epochs=1)
        state = tr.init_state(cfg, conf)
        state.params["out.W"].values[:] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                tr.train_deterministic(windows, cfg, conf, state=state)

    def test_one_encode_and_one_decode_per_batch(self, monkeypatch):
        calls = {"encode": 0, "decode": 0}
        for name in calls:
            original = getattr(sm.ScanModel, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(sm.ScanModel, name, counted)
        empty = sd.SceneWindow(ped_ids=[], positions=np.zeros((5, 0, 2)),
                               mask=np.zeros((5, 0), dtype=bool), obs_len=3)
        tr.train_deterministic(micro_windows(4) + [empty], micro_cfg(),
                               tcfg(batch_size=5, epochs=2))
        assert calls == {"encode": 2, "decode": 2}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            tr.train_deterministic([], micro_cfg(), tcfg())

    def test_gan_config_rejected_here(self):
        with pytest.raises(ValueError):
            tr.train_deterministic(micro_windows(1), micro_cfg(),
                                   tcfg(gan=gn.GanConfig()))

    def test_eval_cadence_rows(self):
        windows = micro_windows(2)
        cfg = micro_cfg(variant="vanilla")
        _, curve = tr.train_deterministic(windows, cfg,
                                          tcfg(epochs=4, eval_every=2),
                                          eval_windows=windows)
        tags = {(e, t) for (e, t, _) in curve}
        assert (1, "eval_ade") in tags and (3, "eval_fde") in tags
        assert (0, "eval_ade") not in tags and (2, "eval_ade") not in tags


class TestPlumbingEquivalence:
    def test_context_free_variants_share_loss(self):
        # With spatial context forced to zero and temporal attention off,
        # both variants collapse to the same recurrent path over shared
        # parameters, so a frozen (lr=0) epoch must report identical loss.
        windows = micro_windows(3)
        cfg_a = micro_cfg(variant="vanilla", force_zero_context=True)
        cfg_b = micro_cfg(variant="scan", force_zero_context=True,
                          disable_temporal=True)
        conf = tcfg(epochs=1, lr=0.0, seed=11)
        _, curve_a = tr.train_deterministic(windows, cfg_a, conf)
        _, curve_b = tr.train_deterministic(windows, cfg_b, conf)
        assert curve_a == curve_b


class TestEvaluate:
    def _fixture(self, generative=False):
        cfg = micro_cfg(variant="vanilla") if not generative else \
            micro_cfg(generative=True, noise_dim=3)
        params = sm.build_params(cfg, ad.RngHub(3))
        return cfg, params, micro_windows(3)

    def test_deterministic_report(self):
        cfg, params, windows = self._fixture()
        report = tr.evaluate(cfg, params, windows)
        assert report.n_scenes == 3 and report.n_peds == 6
        assert report.best_of_k_ade == report.ade
        assert report.best_of_k_fde == report.fde
        assert np.isfinite(report.near_collision_pct)

    def test_same_seed_same_report(self):
        cfg, params, windows = self._fixture(generative=True)
        r1 = tr.evaluate(cfg, params, windows, k=4, seed=2)
        r2 = tr.evaluate(cfg, params, windows, k=4, seed=2)
        assert r1.csv_row() == r2.csv_row()

    def test_k_above_one_needs_generative(self):
        cfg, params, windows = self._fixture()
        with pytest.raises(ValueError):
            tr.evaluate(cfg, params, windows, k=2)

    def test_best_of_k_improves_with_k(self):
        # Sample draws are sequential per scene, so smaller k is a prefix
        # of larger k and the best-of error can only go down.
        cfg, params, windows = self._fixture(generative=True)
        reports = {k: tr.evaluate(cfg, params, windows, k=k, seed=0)
                   for k in (2, 5, 10)}
        assert reports[5].best_of_k_ade <= reports[2].best_of_k_ade
        assert reports[10].best_of_k_ade <= reports[5].best_of_k_ade
        for r in reports.values():
            assert r.best_of_k_ade <= r.ade + 1e-12

    @pytest.mark.parametrize("generative, k", [(False, 1), (True, 4)])
    def test_records_nothing_and_equals_a_recorded_run(self, monkeypatch,
                                                       generative, k):
        cfg, params, windows = self._fixture(generative)
        ops = recorded_ops(monkeypatch)
        free = tr.evaluate(cfg, params, windows, k=k, seed=2)
        assert ops == []
        monkeypatch.setattr(ad, "no_grad", ad.Tape)
        recorded = tr.evaluate(cfg, params, windows, k=k, seed=2)
        assert ops                          # the reference run did record
        for field in dataclasses.fields(free):
            assert repr(getattr(free, field.name)) == \
                repr(getattr(recorded, field.name)), field.name

    def test_threads_leave_the_warning_filters_alone(self):
        # Every call meets fde's fallback in evaluate and in best_of_k. Those
        # must neither swap the process-wide warning filters under other
        # threads nor let the fallback warning escape.
        cfg, params, windows = self._fixture(generative=True)
        for window in windows:
            window.mask[-1, 0] = False      # the first walker misses the last step
        errors = []

        def worker():
            try:
                for _ in range(15):
                    tr.evaluate(cfg, params, windows, k=2, seed=1)
            except Exception as exc:        # reported by the assertion below
                errors.append(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an escaped warning raises in its thread
            before = list(warnings.filters)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120.0)
                    assert not t.is_alive()
            finally:
                sys.setswitchinterval(interval)
            after = list(warnings.filters)
        assert errors == []
        assert after == before

    def test_no_scorable_scenes_raises(self):
        cfg, params, _ = self._fixture()
        empty = sd.SceneWindow(ped_ids=[], positions=np.zeros((5, 0, 2)),
                               mask=np.zeros((5, 0), dtype=bool),
                               obs_len=3, source="test")
        with pytest.raises(EmptyMetricError):
            tr.evaluate(cfg, params, [empty])


class TestHorizonSweep:
    def test_reports_per_horizon(self):
        scenes = sd.synth_scenarios("crossing", 3, seed=2,
                                    obs_len=3, pred_len=4)
        records = []
        for i, win in enumerate(scenes):
            records.extend(sd.scene_to_records(win, frame_start=i * 100))
        cfg = micro_cfg(variant="vanilla", pred_len=4)
        params = sm.build_params(cfg, ad.RngHub(0))
        reports = tr.sweep_horizons(cfg, params, records, pred_lens=(1, 2, 4))
        assert sorted(reports) == [1, 2, 4]
        for report in reports.values():
            assert report.n_scenes >= 3
            assert report.ade > 0.0


class TestCurveCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = [(0, "train_loss", 1.2345678901234567),
                (1, "eval_ade", 3.3e-15), (1, "eval_fde", 7.0)]
        path = tmp_path / "curve.csv"
        tr.write_curve(path, rows)
        assert tr.read_curve(path) == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("epochs,term,value\n0,a,1.0\n")
        with pytest.raises(DataError):
            tr.read_curve(path)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        windows = micro_windows(3)
        cfg = micro_cfg()
        state, _ = tr.train_deterministic(windows, cfg, tcfg(epochs=2))
        path = tmp_path / "run.ckpt"
        tr.save_checkpoint(path, state)
        loaded = tr.load_checkpoint(path)
        assert loaded.cfg == state.cfg
        assert loaded.epoch == 2
        assert params_equal(loaded.params, state.params)
        assert loaded.opt.t == state.opt.t
        assert loaded.opt.lr == state.opt.lr
        for name in state.params.names():
            assert np.array_equal(loaded.opt.m[name], state.opt.m[name])
            assert np.array_equal(loaded.opt.v[name], state.opt.v[name])
        # The restored RNG streams continue exactly where the run stopped.
        want = state.hub.stream(tr.SHUFFLE_STREAM).permutation(16)
        got = loaded.hub.stream(tr.SHUFFLE_STREAM).permutation(16)
        assert np.array_equal(want, got)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        windows = micro_windows(4)
        cfg = micro_cfg(variant="vanilla")
        full_conf = tcfg(epochs=7, seed=9)
        state_full, curve_full = tr.train_deterministic(windows, cfg, full_conf)

        state_half, curve_half = tr.train_deterministic(
            windows, cfg, tcfg(epochs=2, seed=9))
        path = tmp_path / "half.ckpt"
        tr.save_checkpoint(path, state_half)
        resumed = tr.load_checkpoint(path)
        state_res, curve_rest = tr.train_deterministic(
            windows, cfg, full_conf, state=resumed)

        assert curve_half + curve_rest == curve_full
        assert params_equal(state_res.params, state_full.params)
        assert state_res.opt.t == state_full.opt.t
        for name in state_full.params.names():
            assert np.array_equal(state_res.opt.m[name], state_full.opt.m[name])
            assert np.array_equal(state_res.opt.v[name], state_full.opt.v[name])

    def test_gan_resume_matches_uninterrupted_run(self, tmp_path):
        windows = micro_windows(3)
        cfg = micro_cfg(generative=True, noise_dim=3)

        def conf(epochs):
            return tcfg(epochs=epochs, seed=4,
                        gan=gn.GanConfig(k=2, diversity_weight=0.5))

        state_full, curve_full = tr.train_gan(windows, cfg, conf(3))

        state_half, curve_half = tr.train_gan(windows, cfg, conf(2))
        path = tmp_path / "gan.ckpt"
        tr.save_checkpoint(path, state_half)
        loaded = tr.load_checkpoint(path)
        assert loaded.disc_params is not None and loaded.disc_opt is not None
        state_res, curve_rest = tr.train_gan(windows, cfg, conf(3),
                                             state=loaded)

        assert curve_half + curve_rest == curve_full
        assert params_equal(state_res.params, state_full.params)
        assert params_equal(state_res.disc_params, state_full.disc_params)
        assert state_res.disc_opt.t == state_full.disc_opt.t

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "vers.ckpt"
        path.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", 999)
                         + struct.pack("<Q", 0))
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        windows = micro_windows(1)
        state, _ = tr.train_deterministic(windows, micro_cfg(), tcfg(epochs=1))
        path = tmp_path / "whole.ckpt"
        tr.save_checkpoint(path, state)
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(DataError):
            tr.load_checkpoint(clipped)


class TestGanLoop:
    def test_curve_terms_and_determinism(self):
        windows = micro_windows(3)
        cfg = micro_cfg(generative=True, noise_dim=3)
        conf = tcfg(epochs=2, batch_size=3, gan=gn.GanConfig(k=2))
        state_a, curve_a = tr.train_gan(windows, cfg, conf)
        state_b, curve_b = tr.train_gan(windows, cfg, conf)
        assert curve_a == curve_b
        assert params_equal(state_a.params, state_b.params)
        assert {t for (_, t, _) in curve_a} == {
            "disc", "adversarial", "variety", "diversity", "total"}
        assert state_a.epoch == 2

    def test_discriminator_avoids_collapse_after_warmup(self):
        # Over a held-out epoch the critic should be neither always right
        # nor always wrong: accuracy stays strictly inside (0, 1).
        windows = micro_windows(4, seed=3)
        held_out = micro_windows(3, seed=99)
        cfg = micro_cfg(generative=True, noise_dim=3)
        conf = tcfg(epochs=3, gan=gn.GanConfig(k=2))
        state, _ = tr.train_gan(windows, cfg, conf)
        model = sm.ScanModel(cfg, state.params)
        rng = np.random.default_rng(0)
        verdicts = []
        for scene in held_out:
            with ad.Tape():
                real = gn.discriminate(cfg, state.disc_params, scene.ped_ids,
                                       gn.real_position_nodes(scene),
                                       scene.mask)
                verdicts.extend(float(p[0]) > 0.5 for p in real.values)
                for result in gn.sample_predictions(model, scene, 2,
                                                    rng).results:
                    fake = gn.discriminate(
                        cfg, state.disc_params, scene.ped_ids,
                        gn.fake_position_nodes(scene, result, detach=True),
                        scene.mask)
                    verdicts.extend(float(p[0]) < 0.5 for p in fake.values)
        accuracy = np.mean(verdicts)
        assert 0.0 < accuracy < 1.0

    def test_requires_generative_config(self):
        with pytest.raises(ValueError):
            tr.train_gan(micro_windows(1), micro_cfg(),
                         tcfg(gan=gn.GanConfig()))

    def test_requires_gan_config(self):
        cfg = micro_cfg(generative=True, noise_dim=3)
        with pytest.raises(ValueError):
            tr.train_gan(micro_windows(1), cfg, tcfg())
