"""Forecaster tests: shapes, equivariances, reductions, gradient fidelity."""

import tracemalloc

import numpy as np
import pytest

from scantraj import autodiff as ad
from scantraj import cells
from scantraj import generative as gn
from scantraj import geometry
from scantraj import model as sm
from scantraj import training as tr
from scantraj.data import SceneWindow, synth_scenarios
from scantraj.errors import ShapeError

from oracles import numeric_gradient


def micro_cfg(**overrides):
    base = dict(embed_dim=3, hidden_dim=4, obs_len=3, pred_len=2,
                bearing_bin_deg=120.0, heading_bin_deg=120.0, variant="scan")
    base.update(overrides)
    return sm.ModelConfig(**base)


# For each retired model key, a value it once took that the model no longer
# implements: the config codec drops the key's kept value and refuses these.
RETIRED_OTHER = {"disable_temporal": "true", "coordinate_mode": "absolute",
                 "literal_softmax": "true", "attention_key": "joint",
                 "force_zero_context": "true"}


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


def real_track(scene):
    """A scene's whole trajectory as one constant (N, T, 2) critic input."""
    return ad.constant(scene.positions.transpose(1, 0, 2))


def fake_track(scene, result):
    """A scene's observed steps followed by a decoded future, as one constant
    (..., N, T, 2) critic input; the observed steps repeat for every leading
    sample of the decode."""
    future = result.pos.values
    observed = scene.positions[:scene.obs_len].transpose(1, 0, 2)
    observed = np.broadcast_to(observed, future.shape[:-3] + observed.shape)
    return ad.constant(np.concatenate([observed, future], axis=-2))


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
        assert bank.keys.shape[1] == 3
        assert bank.keys.shape[0] == 2

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
        with ad.no_grad():
            pred = build(cfg).forward(scene)
        assert pred.ped_ids == []
        assert pred.positions().shape == (0, 2, 2)

    @pytest.mark.parametrize("generative", [False, True])
    def test_predict_records_nothing_and_equals_a_recorded_forward(
            self, monkeypatch, generative):
        cfg = micro_cfg(generative=generative, noise_dim=3)
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        params = sm.build_params(cfg, ad.RngHub(7))
        ops = recorded_ops(monkeypatch)
        with ad.no_grad():
            pred = sm.ScanModel(cfg, params).forward(scene)
        assert ops == []
        with ad.Tape():
            result = sm.ScanModel(cfg, params).forward(scene)
        assert ops                          # the reference pass did record
        assert pred.positions().tobytes() == result.positions().tobytes()
        assert pred.displacements().tobytes() == result.displacements().tobytes()


def records_of(run) -> int:
    """Tape records ``run()`` makes."""
    with ad.Tape() as tape:
        run()
        return len(tape)


class TestRecordBudget:
    """A known-track pass costs no records per step: its pair weights, step
    inputs, embedding and loop are one ``ad.recurrence`` record. A decode
    costs no records per step either: its whole rollout is one
    ``ad.decoder_rollout`` record."""

    def test_an_observed_step_adds_a_fixed_few_records(self, monkeypatch):
        ops = recorded_ops(monkeypatch)
        counts = []
        for obs_len in (3, 4, 5):
            m = build(micro_cfg(obs_len=obs_len))
            scene = make_scene(dyadic_walkers(obs_len + 2), obs_len=obs_len)
            del ops[:]
            counts.append(records_of(lambda: m.encode(scene)))
            assert ops.count("recurrence") == 1
            assert not {"pair_weights", "linear", "l2norm", "relu", "masked_softmax"} & set(ops)
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("overrides", [
        {}, {"generative": True, "noise_dim": 2}, {"variant": "vanilla"}],
        ids=["default", "generative", "vanilla"])
    def test_an_encode_makes_two_records(self, overrides):
        # The recurrence and the gather of its time-major fused states into
        # the bank's history; the bank keeps the recurrence's rows.
        m = build(micro_cfg(**overrides))
        scene = make_scene(dyadic_walkers(5), obs_len=3)
        assert records_of(lambda: m.encode(scene)) == 2

    @pytest.mark.parametrize("overrides, bound", [
        ({}, 2), ({"generative": True, "noise_dim": 2}, 7), ({"variant": "vanilla"}, 2)],
        ids=["default", "generative", "vanilla"])
    def test_a_decode_makes_the_same_few_records_whatever_its_length(self, overrides, bound):
        # The rollout and the gather of its positions into column order; a
        # generative model decodes a 3-sample noise block, which adds the
        # gathers of the bank's hidden states, cells and fused-state history
        # into the sample axis and the noise projection's concat and linear.
        # The benchmark's tracer books that linear to ``cells.linear``.
        counts = []
        for pred_len in (3, 4, 5):
            m = build(micro_cfg(pred_len=pred_len, **overrides))
            scene = make_scene(dyadic_walkers(3 + pred_len), obs_len=3)
            noise = np.zeros((3, 2)) if overrides.get("generative") else None
            with ad.Tape():
                bank = m.encode(scene)
                counts.append(records_of(lambda: m.decode(scene, bank, noise=noise)))
        assert counts[0] == counts[1] == counts[2] <= bound, counts

    @pytest.mark.parametrize("overrides", [
        {}, {"generative": True, "noise_dim": 2}, {"variant": "vanilla"}],
        ids=["default", "generative", "vanilla"])
    def test_a_decode_computes_each_steps_pair_offsets_once(self, monkeypatch, overrides):
        # Each step bins and weighs the same offsets: step 0's from the
        # bank's positions, once for every sample, each later step's from
        # the running sum. A generative model decodes a 3-sample block.
        calls, original = [], geometry.pair_offsets

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (ad, geometry):
            monkeypatch.setattr(module, "pair_offsets", counted)
        for pred_len in (1, 4):
            m = build(micro_cfg(pred_len=pred_len, **overrides))
            scene = make_scene(dyadic_walkers(3 + pred_len), obs_len=3)
            noise = np.zeros((3, 2)) if overrides.get("generative") else None
            with ad.no_grad():
                bank = m.encode(scene)
                del calls[:]
                m.decode(scene, bank, noise=noise)
            assert len(calls) == pred_len

    @staticmethod
    def step_records(monkeypatch, run) -> int:
        """Records made on all the tapes ``run()`` opens and closes."""
        counts, close = [], ad.Tape.__exit__

        def counted(tape, *exc):
            counts.append(len(tape))
            return close(tape, *exc)

        monkeypatch.setattr(ad.Tape, "__exit__", counted)
        run()
        return sum(counts)

    def test_a_crowd_training_step_makes_at_most_23_records(self, monkeypatch):
        # The benchmark's crowd_train mix, N = 2, 8 and 32 in one batch:
        # 23 records, 28 while the bank was gathered into column order and
        # back, 30 while the encoder's pair weights and embedding were
        # records of their own, 54 while each decoder step made two.
        cfg = sm.ModelConfig()
        batch = crowd_batch(cfg)
        conf = tr.TrainConfig(batch_size=len(batch), lr=0.01, epochs=1, seed=7)
        count = self.step_records(monkeypatch,
                                  lambda: tr.train_deterministic(batch, cfg, conf))
        assert count <= 23, count

    def test_a_gan_step_makes_at_most_111_records(self, monkeypatch):
        # The benchmark's gan_synth model and batch, four synthetic scenes at
        # k = 4: 111 records in the critic's and the generator's tapes, 113
        # while the bank was gathered into column order and back, 124
        # while the known-track passes' pair weights, step inputs and
        # embedding were records of their own, 148 while each decoder step
        # made two.
        cfg = sm.ModelConfig(embed_dim=8, hidden_dim=16, bearing_bin_deg=90.0,
                             heading_bin_deg=90.0, generative=True, noise_dim=4)
        batch = []
        for kind in ("crossing", "head_on", "overtake", "static_mix"):
            scenes = synth_scenarios(kind, 8, seed=1, obs_len=cfg.obs_len, pred_len=cfg.pred_len)
            batch.append(next(scene for scene in scenes
                              if scene.n_peds == 3 or kind != "static_mix"))
        conf = tr.TrainConfig(batch_size=len(batch), lr=0.005, epochs=1, seed=9,
                              gan=gn.GanConfig(k=4, diversity_weight=1.0))
        count = self.step_records(monkeypatch, lambda: tr.train_gan(batch, cfg, conf))
        assert count <= 111, count


def tape_bytes(model, scenes: list) -> tuple:
    """tracemalloc bytes of a batch's forward pass and mean trajectory loss,
    as a training step builds them, on a tape for the model's parameters:
    (held after them, peak over them and the backward pass)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape(grads_for=model.params.nodes()) as tape:
            views = model.forward(scenes).per_scene(scenes)
            loss = ad.mean_of([sm.trajectory_loss(view, scene)
                               for view, scene in zip(views, scenes)])
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(loss)
        return held, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def random_crowd(rng, n: int, cfg):
    """One scene of ``n`` walkers spanning the model's obs_len + pred_len
    steps, about one per square metre, drifting the same way."""
    steps = cfg.obs_len + cfg.pred_len
    start = rng.uniform(-0.5 * n ** 0.5, 0.5 * n ** 0.5, size=(n, 1, 2))
    return make_scene(start + np.cumsum(rng.normal(0.3, 0.1, size=(n, steps, 2)), axis=1),
                      cfg.obs_len)


def pair_bytes(cfg, sizes=(64, 128)) -> tuple:
    """Bytes per neighbour pair and step, held and at the peak, from the
    growth of ``tape_bytes`` between lone crowds of ``sizes``."""
    model, rng = build(cfg, seed=1), np.random.default_rng(4)
    measured = [tape_bytes(model, [random_crowd(rng, n, cfg)]) for n in sizes]
    pair_steps = (sizes[1] ** 2 - sizes[0] ** 2) * (cfg.obs_len + cfg.pred_len)
    return tuple((big - small) / pair_steps for small, big in zip(*measured))


def row_bytes(cfg, counts=(16, 32)) -> tuple:
    """Bytes per pedestrian row and step, held and at the peak, from the
    growth of ``tape_bytes`` between batches of ``counts`` two-person
    scenes."""
    model = build(cfg, seed=1)
    measured = [tape_bytes(model, scenes) for scenes in two_person_batches(cfg, counts)]
    row_steps = 2 * (counts[1] - counts[0]) * (cfg.obs_len + cfg.pred_len)
    return tuple((big - small) / row_steps for small, big in zip(*measured))


def crowd_batch(cfg, sizes=(2, 8, 32)) -> list:
    """One batch of random-walk crowds of ``sizes`` at 0.25 people per
    square metre, the mix of the benchmark's ``crowd_train`` workload."""
    rng, steps = np.random.default_rng(1), 20
    batch = []
    for n in sizes:
        heading = rng.uniform(0.0, 2.0 * np.pi, size=n) + np.cumsum(
            rng.normal(0.0, 0.25, size=(steps - 1, n)), axis=0)
        stride = rng.uniform(0.3, 0.6, size=n)[:, None, None] * np.stack(
            [np.cos(heading.T), np.sin(heading.T)], axis=-1)
        start = rng.uniform(0.0, (n / 0.25) ** 0.5, size=(n, 1, 2))
        batch.append(make_scene(start + np.concatenate(
            [np.zeros((n, 1, 2)), np.cumsum(stride, axis=1)], axis=1), cfg.obs_len))
    return batch


def crowd_step_peak(warm_up: int = 3) -> int:
    """tracemalloc peak bytes of one ``train_deterministic`` step on
    ``crowd_batch``, after ``warm_up`` steps on it."""
    cfg = sm.ModelConfig()
    batch = crowd_batch(cfg)

    def tcfg(epochs):
        return tr.TrainConfig(batch_size=len(batch), lr=0.01, epochs=epochs, seed=7)

    state, _ = tr.train_deterministic(batch, cfg, tcfg(warm_up))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr.train_deterministic(batch, cfg, tcfg(warm_up + 1), state=state)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def gan_step_peak(cfg, scenes: list) -> int:
    """tracemalloc peak bytes of one ``gan_train_step`` at k = 4 over the
    batch, above what was held before it."""
    model = build(cfg, seed=1)
    disc = gn.build_discriminator_params(cfg, ad.RngHub(2))
    gen_opt, disc_opt = ad.Adam(model.params, lr=0.001), ad.Adam(disc, lr=0.001)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gn.gan_train_step(model, disc, scenes, gn.GanConfig(k=4, diversity_weight=1.0),
                          gen_opt, disc_opt, np.random.default_rng(3))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def critic_pass_peak(cfg, disc, scenes: list, samples: int) -> int:
    """tracemalloc peak bytes of a critic step's pass over the batch, as
    ``gan_train_step`` runs it: the observed steps, then ``samples`` futures
    (the truth, jittered) continued from them, the loss and the backward."""
    real = np.concatenate([scene.positions.transpose(1, 0, 2) for scene in scenes])
    mask = np.concatenate([scene.mask for scene in scenes], axis=1)
    layout = cells.SceneLayout([scene.ped_ids for scene in scenes])
    truth = real[:, cfg.obs_len:]
    futures = truth + np.random.default_rng(5).normal(0.0, 0.1, size=(samples,) + truth.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape(grads_for=disc.nodes()) as tape:
            logits = gn.discriminator_logits(cfg, disc, layout, futures, mask,
                                             history=real[:, :cfg.obs_len])
            disc.zero_grads()
            tape.backward(gn.bce_fake(logits))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def two_person_batches(cfg, counts: tuple) -> list:
    """Batches of ``counts`` random two-person scenes spanning the model's
    obs_len + pred_len steps."""
    steps, rng = cfg.obs_len + cfg.pred_len, np.random.default_rng(4)
    return [[make_scene(rng.uniform(-1.0, 1.0, size=(2, 1, 2)) + np.cumsum(
        rng.normal(0.3, 0.1, size=(2, steps, 2)), axis=1), cfg.obs_len)
        for _ in range(count)] for count in counts]


class TestTapeMemory:
    """The tape keeps few bytes per neighbour pair: a pair record keeps its
    weights, two masks and one grid-cell index in the smallest unsigned type
    that holds the grid's cells, and its backward recomputes the offsets
    and distances. Per row and step it keeps the fused records' inputs,
    outputs and the intermediates that need a matrix product to rebuild,
    and no input-gate node. A tape is swept once: the sweep frees each
    record's saved state as soon as it has passed the record, and a
    training step's sweep (a tape for the parameters, ``grads_for``) drops
    each recorded output's adjoint once its record has run, so the sweep's
    peak stays close to the tape it walks; afterwards each record keeps only
    its inputs and outputs, and a second sweep of the tape raises. A
    constant track (the encoder's, the critic step's) records no position
    path. A GAN step never holds the critic's tape and the generator's at
    once."""

    CONFIGS = pytest.mark.parametrize("overrides", [
        {}, {"generative": True}, {"variant": "vanilla"}],
        ids=["default", "generative", "vanilla"])

    @CONFIGS
    def test_pair_memory_per_pair_and_step_is_bounded(self, overrides):
        # About 27 bytes held and 31 at the peak, against 34 and 46 with an
        # int64 grid-cell index and a sweep that kept every adjoint.
        held, peak = pair_bytes(sm.ModelConfig(**overrides))
        assert held <= 30 and peak <= 34, (held, peak)

    @CONFIGS
    def test_row_memory_per_row_and_step_is_bounded(self, overrides):
        # Two-person scenes: the growth is per row, with few pairs per row.
        held, peak = row_bytes(sm.ModelConfig(**overrides))
        assert held <= 3250 and peak <= 3700, (held, peak)

    @CONFIGS
    def test_a_backward_sweep_peaks_close_to_the_tape_it_replays(self, overrides):
        # The sweep frees each fused record's saved state and each recorded
        # output's adjoint once past it, and the encoder's constant track
        # records no position path, so per pair and step the peak grows
        # about 4 bytes more than the tape held (11 while the sweep kept
        # every adjoint).
        held, peak = pair_bytes(sm.ModelConfig(**overrides))
        assert peak <= held + 6, (held, peak)

    @pytest.mark.parametrize("overrides, bound", [
        ({}, 3700), ({"generative": True}, 3700),
        ({"variant": "vanilla"}, 3000)],
        ids=["default", "generative", "vanilla"])
    def test_row_peak_per_row_and_step_stays_near_what_is_held(self, overrides, bound):
        # About 3,410, 3,430 and 2,780 bytes, against 3,620, 3,640 and 3,030
        # while the sweep kept every adjoint and the recurrence every joint,
        # and 4,590, 4,650 and 3,830 when it also kept every fused record's
        # state to its end.
        assert row_bytes(sm.ModelConfig(**overrides))[1] <= bound

    @pytest.mark.parametrize("overrides, bound", [
        ({"generative": True}, 21_500),
        ({"generative": True, "embed_dim": 8, "hidden_dim": 16, "noise_dim": 4,
          "bearing_bin_deg": 90.0, "heading_bin_deg": 90.0}, 11_200)],
        ids=["generative", "gan_synth"])
    def test_gan_step_peak_per_row_and_step_is_bounded(self, overrides, bound):
        # The critic half's tape is freed before the generator half records,
        # the recurrence backward copies no time-major arrays, and each half
        # keeps adjoints for its own parameters only: about 20,100 and 10,400
        # bytes, against 21,000 and 11,000 while the sweeps kept every
        # adjoint, and 42,700 and 23,200 before the first two.
        cfg = sm.ModelConfig(**overrides)
        counts = (16, 32)
        small, big = [gan_step_peak(cfg, scenes) for scenes in two_person_batches(cfg, counts)]
        peak = (big - small) / (2 * (counts[1] - counts[0]) * (cfg.obs_len + cfg.pred_len))
        assert peak <= bound, peak

    @pytest.mark.parametrize("overrides, bound", [
        ({"generative": True}, 3900),
        ({"generative": True, "embed_dim": 8, "hidden_dim": 16, "noise_dim": 4,
          "bearing_bin_deg": 90.0, "heading_bin_deg": 90.0}, 2000)],
        ids=["generative", "gan_synth"])
    def test_critic_pass_peak_grows_with_the_future_steps_only(self, overrides, bound):
        # The observed steps run once per critic pass, so four more samples
        # add only their future steps: about 3,550 and 1,810 bytes per future
        # row-step, against 3,800 and 1,950 while the sweep kept every
        # adjoint, and 6,100 and 3,150 when every sample re-ran the observed
        # steps as the head of its full track.
        cfg = sm.ModelConfig(**overrides)
        disc = gn.build_discriminator_params(cfg, ad.RngHub(2))
        scenes = two_person_batches(cfg, (16,))[0]
        small, big = [critic_pass_peak(cfg, disc, scenes, samples) for samples in (2, 6)]
        peak = (big - small) / ((6 - 2) * 2 * len(scenes) * cfg.pred_len)
        assert peak <= bound, peak

    def test_a_crowd_training_step_peaks_under_a_bound(self):
        # The benchmark's crowd_train mix, N = 2, 8 and 32 in one batch:
        # about 3.22 MB (3.32 MB with two records per decoder step), against
        # 3.71 MB with an int64 grid-cell index, kept joints and a sweep that
        # kept every adjoint.
        peak = crowd_step_peak()
        assert peak <= 3_550_000, peak


class TestConfig:
    def test_defaults_match_reference(self):
        cfg = sm.ModelConfig()
        assert (cfg.embed_dim, cfg.hidden_dim) == (16, 32)
        assert (cfg.obs_len, cfg.pred_len) == (8, 12)
        assert cfg.bin_spec().n_bearing == 12
        cfg.validate()

    @pytest.mark.parametrize("bad", [
        dict(variant="social"),
        dict(obs_len=1),
        dict(pred_len=0),
        dict(hidden_dim=0),
        dict(bearing_bin_deg=45.5),
        dict(noise_dim=0),
        dict(heading_bin_deg=7.0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            sm.ModelConfig(**bad).validate()

    def test_dict_round_trip(self):
        cfg = sm.ModelConfig(variant="vanilla", generative=True, pred_len=20,
                             domain_init_m=2.5)
        again = sm.ModelConfig.from_dict(sm.config_to_dict(cfg))
        assert again == cfg

    def test_from_dict_rejects_mangled_bool(self):
        raw = sm.config_to_dict(sm.ModelConfig())
        raw["generative"] = "1"
        with pytest.raises(ValueError):
            sm.ModelConfig.from_dict(raw)

    @pytest.mark.parametrize("cls", [sm.ModelConfig, tr.TrainConfig, gn.GanConfig])
    def test_unknown_key_rejected_by_name(self, cls):
        with pytest.raises(ValueError, match="warp_factor"):
            sm.config_from_dict(cls, {"warp_factor": "9"})

    def test_train_and_gan_sections_cast_by_field_type(self):
        conf = sm.config_from_dict(tr.TrainConfig, {"epochs": "3", "lr": "0.5"})
        assert conf == tr.TrainConfig(epochs=3, lr=0.5)
        assert sm.config_keys(tr.TrainConfig) == ("batch_size", "lr", "epochs", "seed")
        gan = sm.config_from_dict(gn.GanConfig, {"k": "2", "diversity_weight": "1"})
        assert gan == gn.GanConfig(k=2, diversity_weight=1.0)
        assert sm.config_from_dict(gn.GanConfig, {}) == gn.GanConfig()


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
        # With no neighbours the spatial context is exactly zero, so a lone
        # pedestrian's forecast is the same whatever the grid's reaches.
        scene = make_scene(dyadic_walkers(5)[:1], obs_len=3)
        forecasts = []
        for reach in (0.0, 100.0):
            m = build(micro_cfg())
            m.params["domain_grid"].values[...] = reach
            with ad.Tape():
                result = m.forward(scene)
            forecasts.append((result.positions(), result.displacements()))
        (pos_a, disp_a), (pos_b, disp_b) = forecasts
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
                     for row in bank.keys.values[bank.layout.undo] for k in row]
        m2 = build(micro_cfg())
        with ad.Tape():
            bank2 = m2.encode(swapped)
            norms2 = [float(np.linalg.norm(k))
                      for row in bank2.keys.values[bank2.layout.undo] for k in row]
        # Column order: ped a's keys then ped b's in the first run; swapped
        # in the second. Compare after regrouping.
        third = len(norms) // 2
        assert norms[:third] == norms2[third:]
        assert norms[third:] == norms2[:third]

    def test_translation_equivariance_on_dyadic_grid(self):
        # Integer offsets keep dyadic coordinates fp-exact, so the model,
        # which embeds displacements, must reproduce the same displacements
        # bit for bit and shift the positions by exactly the offset.
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
            numeric = numeric_gradient(run_loss, p.values)
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
