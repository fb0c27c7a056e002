"""Training loops, evaluation driver, and checkpoint round-trip tests."""

import dataclasses
import hashlib
import re
import struct
import sys
import threading
import warnings

import numpy as np
import pytest

from test_model import (RETIRED_OTHER, dyadic_walkers, fake_track, make_scene, micro_cfg,
                        real_track, recorded_ops)

from scantraj import autodiff as ad
from scantraj import data as sd
from scantraj import generative as gn
from scantraj import metrics
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


def spy_on_nonfinite_origin(monkeypatch) -> list:
    """From now on, every tape ``ad.nonfinite_origin`` scans."""
    tapes: list = []
    origin = ad.nonfinite_origin

    def spied(node):
        tapes.append(node.op_record.tape)
        return origin(node)

    monkeypatch.setattr(ad, "nonfinite_origin", spied)
    return tapes


def assert_names_the_first_non_finite_record(message: str, tapes: list) -> None:
    """The message names an op and a tape index; that record of the scanned
    tape has a non-finite output and no earlier record has one."""
    found = re.search(r"first non-finite output: (\w+) at tape record (\d+)", message)
    assert found, message
    op, index = found.group(1), int(found.group(2))
    outputs = [out if isinstance(out, tuple) else (out,)
               for out, _inputs, _backward in tapes[-1]._records]
    finite = [all(np.isfinite(part.values).all() for part in parts) for parts in outputs]
    assert not finite[index] and all(finite[:index])
    assert outputs[index][0].op_record.op == op


def sweep_gradients(monkeypatch, run, leaf_only: bool) -> list:
    """Every backward sweep of ``run()``, as the bytes of the gradients of
    the nodes its tape is for (``grads_for``), or None for a tape that
    names none. With ``leaf_only`` False each tape is made without
    ``grads_for``, so its sweeps are default sweeps; with it True, each
    sweep must leave every other node of its tape without a ``.grad``."""
    swept, init, backward = [], ad.Tape.__init__, ad.Tape.backward

    def made(tape, grads_for=None):
        tape.asked = None if grads_for is None else list(grads_for)
        init(tape, grads_for if leaf_only else None)

    def spied(tape, loss):
        backward(tape, loss)
        swept.append(None if tape.asked is None else [n.grad.tobytes() for n in tape.asked])
        if leaf_only and tape.asked is not None:
            asked = {id(n) for n in tape.asked}
            others = [node for out, inputs, _ in tape._records
                      for node in (out if type(out) is tuple else (out,)) + inputs
                      if id(node) not in asked]
            assert others and all(node._grad is None for node in others)

    monkeypatch.setattr(ad.Tape, "__init__", made)
    monkeypatch.setattr(ad.Tape, "backward", spied)
    try:
        run()
    finally:
        monkeypatch.undo()
    return swept


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

    def test_a_non_finite_loss_names_the_first_non_finite_record(self, monkeypatch):
        cfg, conf = micro_cfg(), tcfg(epochs=1)
        state = tr.init_state(cfg, conf)
        state.params["enc_lstm.W_hh"].values[...] = np.inf
        tapes = spy_on_nonfinite_origin(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="not finite") as info:
                tr.train_deterministic(micro_windows(1), cfg, conf, state=state)
        assert_names_the_first_non_finite_record(str(info.value), tapes)

    def test_a_non_finite_decoder_step_is_named_as_the_fused_record(self, monkeypatch):
        cfg, conf = micro_cfg(), tcfg(epochs=1)
        state = tr.init_state(cfg, conf)
        state.params["out.W"].values[...] = np.inf
        tapes = spy_on_nonfinite_origin(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="not finite") as info:
                tr.train_deterministic(micro_windows(1), cfg, conf, state=state)
        assert "first non-finite output: decoder_step at" in str(info.value)
        assert_names_the_first_non_finite_record(str(info.value), tapes)

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

    def test_each_step_sweeps_for_the_parameters_with_default_sweep_gradients(
            self, monkeypatch):
        # The step's tape is for its parameters: they get the gradients of
        # a default sweep, bit for bit, and no other node gets a .grad.
        def run():
            tr.train_deterministic(micro_windows(), micro_cfg(), tcfg(epochs=2))

        leaf_only, default = [sweep_gradients(monkeypatch, run, leaf_only)
                              for leaf_only in (True, False)]
        assert len(leaf_only) == 4 and None not in leaf_only
        assert leaf_only == default

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


class TestDisableTemporalRemoved:
    # variant = "vanilla" is the model without temporal attention; the old
    # switch that duplicated it is read only to refuse it or to drop "false".
    def test_true_is_refused_naming_the_vanilla_variant(self):
        raw = {**sm.config_to_dict(micro_cfg()), "disable_temporal": "true"}
        with pytest.raises(ValueError, match="variant = vanilla"):
            sm.ModelConfig.from_dict(raw)

    def test_false_reads_as_if_absent(self):
        raw = {**sm.config_to_dict(micro_cfg()), "disable_temporal": "false"}
        assert sm.ModelConfig.from_dict(raw) == micro_cfg()

    def test_is_no_config_key(self):
        assert "disable_temporal" not in sm.config_keys(sm.ModelConfig)


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

    def test_generative_k1_scores_the_zero_noise_forecast(self):
        # k = 1 scores model.forward(scene), not one noisy draw from the
        # window's eval noise stream.
        cfg, params, windows = self._fixture(generative=True)
        model = sm.ScanModel(cfg, params)
        hub = ad.RngHub(2)
        ades, fdes, fractions, noisy_ades = [], [], [], []
        for index, scene in enumerate(windows):
            truth = scene.positions[scene.obs_len:].transpose(1, 0, 2)
            mask = scene.mask[scene.obs_len:].T
            with ad.no_grad():
                forecast = model.forward(scene).pos.values
                noisy = gn.sample_predictions(model, scene, 1,
                                              hub.derive(tr.EVAL_NOISE_STREAM, index))
            ades.append(metrics.ade(forecast, truth, mask))
            fdes.append(metrics.fde(forecast, truth, mask))
            fractions += metrics.frame_collision_fractions(forecast, mask)
            noisy_ades.append(metrics.ade(noisy.positions_array()[0], truth, mask))
        ade, fde = float(np.mean(ades)), float(np.mean(fdes))
        expected = metrics.MetricReport(ade, fde, ade, fde, float(np.mean(fractions) * 100.0),
                                        len(windows), 6)
        assert tr.evaluate(cfg, params, windows, k=1, seed=2).to_csv() == expected.to_csv()
        assert float(np.mean(noisy_ades)) != ade

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

    @pytest.mark.parametrize("generative, k", [(False, 1), (True, 1), (True, 20)])
    def test_non_finite_predictions_raise_and_name_the_op(self, monkeypatch, generative, k):
        cfg, params, windows = self._fixture(generative)
        params["out.W"].values[...] = np.inf
        tapes = spy_on_nonfinite_origin(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="window 0 predicts non-finite") as info:
                tr.evaluate(cfg, params, windows, k=k, seed=2)
        assert "first non-finite output: decoder_step at" in str(info.value)
        assert_names_the_first_non_finite_record(str(info.value), tapes)

    @pytest.mark.parametrize("k", [1, 20])
    def test_predictions_too_far_to_score_raise(self, k):
        # Finite positions near 1e200 m give an error whose square overflows.
        cfg, params, windows = self._fixture(generative=True)
        params["out.W"].values[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="window 0 scores a non-finite error"):
                tr.evaluate(cfg, params, windows, k=k, seed=2)

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

    def test_version_one_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", 1) + struct.pack("<Q", 0))
        with pytest.raises(DataError, match=r"version 1\b.*supports version 2"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["header text", "table name", "shape field",
                                        "payload", "cut in the digest",
                                        "cut in the header", "cut in a table"])
    def test_any_damaged_byte_is_rejected(self, tmp_path, damage):
        state, _ = tr.train_deterministic(micro_windows(1), micro_cfg(), tcfg(epochs=1))
        path = tmp_path / "whole.ckpt"
        tr.save_checkpoint(path, state)
        data = bytearray(path.read_bytes())
        name = data.index(b"domain_grid")        # the first parameter's name
        header = data.index(b"epoch=")
        at = {"header text": header, "table name": name,
              "shape field": name + len(b"domain_grid") + 1,    # past the rank byte
              "payload": len(data) - 3}.get(damage)
        if at is None:
            cut = {"cut in the digest": 20, "cut in the header": header + 3,
                   "cut in a table": name + 5}[damage]
            data = data[:cut]
        else:
            data[at] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="digest|truncated"):
            tr.load_checkpoint(path)


class TestCheckpointHeader:
    @staticmethod
    def resealed(path, edit) -> None:
        """Rewrite a checkpoint's header text through ``edit`` and seal the
        result with a fresh digest, as a writer of that header would."""
        data = path.read_bytes()
        start = len(tr.CHECKPOINT_MAGIC) + 4 + 32
        (size,) = struct.unpack("<Q", data[start:start + 8])
        text = edit(data[start + 8:start + 8 + size].decode()).encode()
        body = struct.pack("<Q", len(text)) + text + data[start + 8 + size:]
        path.write_bytes(data[:start - 32] + hashlib.sha256(body).digest() + body)

    def saved(self, tmp_path):
        state, _ = tr.train_deterministic(micro_windows(1), micro_cfg(), tcfg(epochs=1))
        path = tmp_path / "run.ckpt"
        tr.save_checkpoint(path, state)
        return state, path

    @pytest.mark.parametrize("key", sm.RETIRED_KEYS)
    def test_a_header_with_a_retired_key_at_its_kept_value_loads_and_resumes(
            self, tmp_path, key):
        state, path = self.saved(tmp_path)
        plain = tr.load_checkpoint(path)
        self.resealed(path, lambda text: text + f"\nmodel.{key}={sm.RETIRED_KEYS[key][0]}")
        loaded = tr.load_checkpoint(path)
        assert loaded.cfg == state.cfg
        assert params_equal(loaded.params, state.params)
        resumed = [tr.train_deterministic(micro_windows(1), micro_cfg(), tcfg(epochs=3),
                                          state=start) for start in (plain, loaded)]
        assert resumed[0][1] == resumed[1][1]
        assert params_equal(resumed[0][0].params, resumed[1][0].params)

    @pytest.mark.parametrize("key", sm.RETIRED_KEYS)
    def test_a_retired_key_at_another_value_is_refused_naming_it(self, tmp_path, key):
        _, path = self.saved(tmp_path)
        self.resealed(path, lambda text: text + f"\nmodel.{key}={RETIRED_OTHER[key]}")
        with pytest.raises(DataError, match=re.escape(
                f"{key} was removed: {sm.RETIRED_KEYS[key][1]}")):
            tr.load_checkpoint(path)

    def test_an_unknown_model_key_is_rejected_by_name(self, tmp_path):
        _, path = self.saved(tmp_path)
        self.resealed(path, lambda text: text + "\nmodel.warp_factor=9")
        with pytest.raises(DataError, match="warp_factor"):
            tr.load_checkpoint(path)


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
                real = ad.sigmoid(gn.discriminator_logits(
                    cfg, state.disc_params, scene.ped_ids, real_track(scene),
                    scene.mask))
                verdicts.extend(float(p[0]) > 0.5 for p in real.values)
                for result in gn.sample_predictions(model, scene, 2,
                                                    rng).results:
                    fake = ad.sigmoid(gn.discriminator_logits(
                        cfg, state.disc_params, scene.ped_ids,
                        fake_track(scene, result), scene.mask))
                    verdicts.extend(float(p[0]) < 0.5 for p in fake.values)
        accuracy = np.mean(verdicts)
        assert 0.0 < accuracy < 1.0

    def test_each_half_sweeps_for_its_own_parameters_with_default_sweep_gradients(
            self, monkeypatch):
        # The critic half's tape is for the critic's parameters, the
        # generator half's for the generator's: each gets the gradients of a
        # default sweep, bit for bit, and no other node gets a .grad.
        cfg = micro_cfg(generative=True, noise_dim=3)

        def run():
            tr.train_gan(micro_windows(3), cfg,
                         tcfg(epochs=2, batch_size=3, gan=gn.GanConfig(k=2, diversity_weight=0.5)))

        leaf_only, default = [sweep_gradients(monkeypatch, run, leaf_only)
                              for leaf_only in (True, False)]
        assert len(leaf_only) == 4 and None not in leaf_only
        assert leaf_only == default

    def test_requires_generative_config(self):
        with pytest.raises(ValueError):
            tr.train_gan(micro_windows(1), micro_cfg(),
                         tcfg(gan=gn.GanConfig()))

    def test_requires_gan_config(self):
        cfg = micro_cfg(generative=True, noise_dim=3)
        with pytest.raises(ValueError):
            tr.train_gan(micro_windows(1), cfg, tcfg())



class TestDomainContract:
    def test_two_person_scenes_leave_both_domain_grids_bit_identical(self):
        # Each pedestrian of a two-person scene has at most one neighbour,
        # and a softmax over one neighbour sends the grid no gradient: the
        # grids keep domain_init_m while the rest of the model trains.
        windows = micro_windows(4)
        cfg = micro_cfg()
        point, _ = tr.train_deterministic(windows, cfg, tcfg())
        gan, _ = tr.train_gan(windows, micro_cfg(generative=True, noise_dim=3),
                              tcfg(gan=gn.GanConfig(k=2, diversity_weight=0.5)))
        for store, name in ((point.params, "domain_grid"), (gan.params, "domain_grid"),
                            (gan.disc_params, "disc.domain_grid")):
            grid = store[name].values
            assert grid.tobytes() == np.full(grid.shape, cfg.domain_init_m).tobytes(), name
        assert not params_equal(point.params, tr.init_state(cfg, tcfg()).params)
