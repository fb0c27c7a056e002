"""Adversarial wrapper: noise-seeded sampling, a spatially attentive
discriminator, and the variety / diversity loss suite.

The generator is the forecaster itself (``generative=True`` configs reseed
the decoder hidden state from a per-sample noise draw). The discriminator
is an independent spatially attentive LSTM encoder — its own range grid,
embedding, cell, and fusion — run over a *full* observed-plus-future
trajectory, ending in one real/fake logit per pedestrian.

The k samples of a scene travel together: they are decoded in one batched
pass with a leading sample axis, and the critic scores any number of
trajectories of one scene in one pass the same way, running the observed
steps they share once and continuing every future from them. A training
step goes one step further and runs all the scenes of its batch side by
side (``cells.SceneLayout``): one encode, one k-sample decode and two
critic passes per step, whatever the number of scenes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import cells
from . import metrics
from . import spatial
from .data import SceneWindow
from .errors import NumericError, ShapeError
# estimate_heading, numpy's angle recipe on 0-d values, is the scalar
# reference for advance_kinematics. Nothing calls it; it stays importable here
# only while bench/tracer.py binds it.
from .geometry import estimate_heading  # noqa: F401
from .model import (ModelConfig, ScanModel, finite_positions, trajectory_loss,
                    uniform_param, zeros_param)


@dataclass
class GanConfig:
    """Sampling and loss-mix knobs for adversarial training."""

    k: int = 4                        # samples per scene for the variety loss
    adversarial_weight: float = 1.0
    variety_weight: float = 1.0
    diversity_weight: float = 0.0     # the lambda of the diversity term

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name in ("adversarial_weight", "variety_weight", "diversity_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class PredictionSet:
    """k sampled futures for one scene, with their seeding noise.

    ``futures`` is the (k, N, steps, 2) node the results are slices of.
    """

    ped_ids: list[int]
    results: list                    # k ForwardResult objects
    noises: np.ndarray               # (k, noise_dim)
    futures: ad.TensorNode

    @property
    def k(self) -> int:
        return len(self.results)

    def positions_array(self) -> np.ndarray:
        """(k, N, pred_len, 2) float view of the sampled futures."""
        return self.futures.values.copy()


def sample_predictions(model: ScanModel, scene: SceneWindow, k: int,
                       rng: np.random.Generator, *,
                       what: str = "sample_predictions") -> PredictionSet:
    """Draw k joint futures; one noise vector per sample, shared by every
    pedestrian in the scene so each sample is a coherent joint outcome.

    The noise block is one ``(k, noise_dim)`` standard normal draw. The
    scene is encoded once and all k samples are decoded in one batched
    pass; each result is a live slice of it. Futures that are not all
    finite raise ``NumericError`` naming ``what`` and the first op whose
    output went non-finite, found by decoding the same noise once more
    under a recording tape (``model.finite_positions``).
    """
    if not model.cfg.generative:
        raise ValueError("sampling requires a generative configuration")
    if k < 1:
        raise ValueError("k must be >= 1")
    noises = rng.standard_normal((k, model.cfg.noise_dim))

    def decode():
        return model.decode(scene, model.encode(scene), noise=noises)

    batch = decode()
    finite_positions(lambda: decode().pos, what, batch.pos)
    return PredictionSet(list(scene.ped_ids), batch.samples(), noises, batch.pos)


NEEDS_GENERATIVE = "k > 1 needs a generative configuration (config/checkpoint variant mismatch)"


def window_futures(model: ScanModel, scene: SceneWindow, what: str,
                   rng: np.random.Generator | None = None, k: int = 1) -> np.ndarray:
    """One window's predicted futures as a (k, N, pred_len, 2) array,
    computed under ``ad.no_grad()``: the k ``sample_predictions`` drawn
    from ``rng``, or, given no ``rng``, the zero-noise forecast
    ``model.forward(scene)`` as (1, N, pred_len, 2), for which ``k > 1`` is
    a ``ValueError``. Futures that are not all finite raise
    ``NumericError`` naming ``what`` and the first op whose output went
    non-finite, checked once."""
    if rng is None:
        if k > 1:
            raise ValueError(NEEDS_GENERATIVE)
        return finite_positions(lambda: model.forward(scene).pos, what)[None]
    with ad.no_grad():
        return sample_predictions(model, scene, k, rng, what=what).futures.values


# -- discriminator ---------------------------------------------------------

def build_discriminator_params(cfg: ModelConfig, hub: ad.RngHub,
                               store: ad.ParamStore | None = None) -> ad.ParamStore:
    """Independent parameter set for the trajectory critic ("disc." names)."""
    cfg.validate()
    if store is None:
        store = ad.ParamStore()
    E, H = cfg.embed_dim, cfg.hidden_dim
    spec = cfg.bin_spec()
    store.register("disc.domain_grid",
                   np.full((spec.n_bearing, spec.n_heading), cfg.domain_init_m))
    uniform_param(store, hub, "disc.embed.W", (E, 2), 2)
    zeros_param(store, "disc.embed.b", (E,))
    uniform_param(store, hub, "disc.lstm.W_ih", (4 * H, E), E)
    uniform_param(store, hub, "disc.lstm.W_hh", (4 * H, H), H)
    zeros_param(store, "disc.lstm.b", (4 * H,))
    uniform_param(store, hub, "disc.fuse.W", (H, 2 * H), 2 * H)
    zeros_param(store, "disc.fuse.b", (H,))
    uniform_param(store, hub, "disc.score.W", (1, H), H)
    zeros_param(store, "disc.score.b", (1,))
    return store


def discriminator_logits(cfg: ModelConfig, params: ad.ParamStore, ped_ids, positions, mask,
                         history: np.ndarray | None = None, record_history: bool = True):
    """Run the critic (``cells.observed_pass``) over full trajectories; one
    logit per pedestrian.

    ``ped_ids`` are one scene's ids, or a ``cells.SceneLayout`` of several
    scenes side by side. ``positions`` is the (N, T, 2) trajectories,
    giving (N, 1) logits, or (S, N, T, 2) for S trajectories of the same
    scenes, giving (S, N, 1); slice s, and each scene of a layout, equals a
    pass over it alone, bit for bit. A live node lets generator gradient
    flow through the critic; a plain array (the critic step's real and
    detached tracks) records no position path and gives the logits and
    critic gradients of a constant leaf bit for bit. ``mask`` is the (T, N)
    presence that gates neighbour participation, exactly as in the
    forecaster.

    ``history`` splits the trajectories at the observation: the (N, T_obs,
    2) array of observed steps they all share, with ``positions`` the
    (..., N, T_pred, 2) futures that follow it and ``mask`` still spanning
    both. The history then runs once, with no sample axis, and every
    future continues from its final state (``observed_pass``'s
    ``start``): the logits equal those of the full trajectories bit for
    bit, and the critic's parameter gradients differ only in the order
    their sums are added in. ``record_history=False`` runs the history
    under ``ad.no_grad()``, for a caller that reads no critic gradient.
    """
    layout = (ped_ids if isinstance(ped_ids, cells.SceneLayout)
              else cells.SceneLayout([ped_ids]))
    if layout.n_rows == 0:
        return ad.constant(np.zeros((0, 1)))
    split = 0 if history is None else np.shape(history)[-2]
    if split + positions.shape[-2] < 2:
        raise ShapeError("discriminator needs at least two steps")
    p = params
    mask = np.asarray(mask, dtype=bool)[:, layout.order]

    def run(track, presence, start=None):
        return cells.observed_pass(
            track, presence, layout, spatial.DomainGrid(p["disc.domain_grid"], cfg.bin_spec()),
            (p["disc.embed.W"], p["disc.embed.b"]),
            (p["disc.lstm.W_ih"], p["disc.lstm.W_hh"], p["disc.lstm.b"]),
            (p["disc.fuse.W"], p["disc.fuse.b"]), start=start)

    start = None
    if history is not None:
        with contextlib.nullcontext() if record_history else ad.no_grad():
            hidden, cell, _, kin = run(np.asarray(history, dtype=np.float64), mask[:split])
        start = hidden, cell, kin
    hidden, _, _, _ = run(positions, mask[split:], start)
    logits = cells.linear(hidden, p["disc.score.W"], p["disc.score.b"])
    return ad.gather(logits, (slice(None),) * (len(positions.shape) - 3) + (layout.undo,))


def bce_real(logits: ad.TensorNode) -> ad.TensorNode:
    """Mean -log sigma(logit): the cost of calling these trajectories fake.
    On fake logits it is the generator's non-saturating adversarial loss."""
    return ad.reduce_mean(ad.softplus(ad.neg(logits)))


def bce_fake(logits: ad.TensorNode) -> ad.TensorNode:
    """Mean -log(1 - sigma(logit)): the cost of believing these fakes."""
    return ad.reduce_mean(ad.softplus(logits))


# -- sample-set losses ------------------------------------------------------

def variety_loss(scene: SceneWindow, samples: PredictionSet):
    """Trajectory loss of the sample ``metrics.best_sample`` picks.

    Selection runs on detached values (plain float ADE), so gradient flows
    exclusively through the chosen sample's graph. Returns None when no
    (pedestrian, step) pair is valid.
    """
    steps = samples.results[0].n_steps if samples.results else 0
    usable = min(steps, scene.pred_len)
    truth = scene.positions[scene.obs_len:scene.obs_len + usable].transpose(1, 0, 2)
    mask = scene.mask[scene.obs_len:scene.obs_len + usable].T
    if not mask.any():
        return None
    best, _ = metrics.best_sample(samples.futures.values[..., :usable, :], truth, mask)
    return trajectory_loss(samples.results[best], scene)


def diversity_loss(samples: PredictionSet):
    """Mean over pedestrians of sum over sample pairs of exp(-d_ij).

    d_ij is the step-averaged Euclidean distance between samples i and j of
    one pedestrian's future; near-duplicate samples push the loss toward
    its k(k-1)/2 ceiling, spread-out samples toward 0. Differentiable, so
    its gradient actively repels samples from one another.
    """
    k = samples.k
    if k < 2:
        return ad.constant(0.0)
    n = len(samples.ped_ids)
    if n == 0:
        return ad.constant(0.0)
    futures = samples.futures                                  # (k, N, steps, 2)
    steps = futures.shape[-2]
    first, second = np.triu_indices(k, 1)
    # (N, pairs, steps) gaps, pedestrians in id order, pairs as (i < j).
    rows = cells.canonical_order(samples.ped_ids)[:, None]
    gaps = ad.l2norm(ad.sub(ad.gather(futures, (first[None, :], rows)),
                            ad.gather(futures, (second[None, :], rows))))
    d = ad.div(ad.reduce_sum(gaps, axis=-1), ad.constant(float(steps)))
    return ad.div(ad.reduce_sum(ad.exp(ad.neg(d))), ad.constant(float(n)))


def sample_spread(positions: np.ndarray) -> float:
    """Mean pairwise step-averaged distance between samples (evaluation).

    ``positions`` is (k, N, T, 2); returns the mean over pedestrians and
    unordered sample pairs of the step-averaged Euclidean distance —
    the raw spread the diversity loss squashes through exp(-d).
    """
    positions = np.asarray(positions, dtype=np.float64)
    k, n = positions.shape[0], positions.shape[1]
    if k < 2 or n == 0:
        return 0.0
    first, second = np.triu_indices(k, 1)
    gaps = np.linalg.norm(positions[first] - positions[second], axis=-1).mean(axis=-1)
    return float(gaps.mean())


# -- the alternating step ---------------------------------------------------

def _check_finite(name: str, node: ad.TensorNode) -> None:
    if not np.all(np.isfinite(node.values)):
        raise NumericError(f"non-finite {name} loss" + ad.nonfinite_origin(node))


def _full_presence(scene: SceneWindow) -> np.ndarray:
    return scene.mask.all(axis=0)


def _kept(logits: ad.TensorNode, samples, cols: list) -> ad.TensorNode:
    """Batch columns ``cols[b]`` of each listed sample of (S, N, 1) logits,
    scene by scene, then sample by sample, as one
    (len(samples) * total kept, 1) node."""
    return ad.gather(logits, (
        np.concatenate([np.repeat(samples, c.size) for c in cols]),
        np.concatenate([np.tile(c, len(samples)) for c in cols])))


def _critic_step(cfg: ModelConfig, disc_params: ad.ParamStore, layout, observed: np.ndarray,
                 futures: np.ndarray, mask: np.ndarray, cols: list,
                 fakes_only: np.ndarray, disc_opt: ad.Adam) -> float:
    """The critic half of a GAN step on a tape of its own: the (N, obs_len,
    2) observed steps run once, and one (1 + k)-sample pass continues them
    with the (1 + k, N, pred_len, 2) ``futures``, the ground truth then the
    detached fakes, as one array that records no position path; then
    ``disc_opt`` steps. Returns the critic loss. The tape, its logits and
    its loss die with this call, before the generator half records
    anything."""
    with ad.Tape(grads_for=disc_params.nodes()) as tape:
        logits = discriminator_logits(cfg, disc_params, layout, futures, mask, history=observed)
        loss = ad.add(bce_real(_kept(logits, [0], cols)),
                      bce_fake(_kept(logits, fakes_only, cols)))
        _check_finite("discriminator", loss)
        disc_params.zero_grads()
        tape.backward(loss)
        disc_opt.step()
    return float(loss.values)


def gan_train_step(model: ScanModel, disc_params: ad.ParamStore,
                   scenes: list, gan_cfg: GanConfig,
                   gen_opt: ad.Adam, disc_opt: ad.Adam,
                   rng: np.random.Generator) -> dict:
    """One critic update then one generator update over a scene batch.

    The batch's scenes run side by side (``cells.SceneLayout``): one encode
    and one decode of all k samples of every scene, on the generator's
    tape. Each scene draws its own (k, noise_dim) noise block from ``rng``,
    in batch order, shared by its pedestrians. The critic half runs on a
    tape of its own (``_critic_step``): one pass over the observed steps,
    which every trajectory shares, then one (1 + k)-sample pass from its
    final state scores the true futures and the k decoded futures' detached
    values of every scene, and the critic steps; that tape and all it holds
    are freed before the generator half records anything, so the two
    halves' tapes never coexist. The critic step never touches generator
    parameters, so the same decode serves the generator half, which scores
    the k live futures in one pass through the updated critic and descends
    adversarial + variety + lambda * diversity. Its pass over the observed
    steps records nothing (``record_history=False``): the generator half
    reads no critic gradient, and the next critic step zeroes them before
    its backward. Only pedestrians present through the whole window are scored
    by the critic, scene by scene, then sample by sample; the variety and
    diversity terms are each scene's own, through per-scene views of the
    decode, and the variety term keeps using the per-step mask. Every scene
    must span the model's obs_len + pred_len steps, because real and
    generated trajectories share the critic passes.

    Returns the batch's mean loss terms as plain floats.
    """
    gan_cfg.validate()
    cfg = model.cfg
    usable = [s for s in scenes if s.n_peds > 0]
    if not usable:
        raise ValueError("gan_train_step needs at least one non-empty scene")
    horizon = cfg.obs_len + cfg.pred_len
    for scene in usable:
        if scene.total_len != horizon:
            raise ShapeError(f"gan_train_step: scene of {scene.total_len} steps, "
                             f"model trajectories of {horizon}")
    k = gan_cfg.k
    fakes_only = np.arange(1, k + 1)
    noises = [rng.standard_normal((k, cfg.noise_dim)) for _ in usable]
    starts = np.cumsum([0] + [scene.n_peds for scene in usable])
    cols = [start + np.flatnonzero(_full_presence(scene))
            for start, scene in zip(starts, usable)]
    if not any(c.size for c in cols):
        raise ValueError("no fully present pedestrians in the batch")
    mask = np.concatenate([scene.mask for scene in usable], axis=1)
    with ad.Tape(grads_for=model.params.nodes()) as tape:
        bank = model.encode(usable)
        batch = model.decode(usable, bank, noise=np.stack(noises, axis=1))

        real = np.concatenate([scene.positions.transpose(1, 0, 2) for scene in usable])
        observed, future = real[:, :cfg.obs_len], real[:, cfg.obs_len:]
        disc_value = _critic_step(cfg, disc_params, bank.layout, observed,
                                  np.concatenate([future[None], batch.pos.values]),
                                  mask, cols, fakes_only, disc_opt)

        # generator half: the same decode, live (k, N, pred_len, 2) fakes
        # through the new critic
        logits = discriminator_logits(cfg, disc_params, bank.layout, batch.pos, mask,
                                      history=observed, record_history=False)
        adv = bce_real(_kept(logits, fakes_only - 1, cols))
        variety_terms = []
        diversity_terms = []
        for scene, view, noise in zip(usable, batch.per_scene(usable), noises):
            samples = PredictionSet(list(scene.ped_ids), view.samples(), noise,
                                    view.pos)
            variety = variety_loss(scene, samples)
            if variety is not None:
                variety_terms.append(variety)
            diversity_terms.append(diversity_loss(samples))
        variety = ad.mean_of(variety_terms)
        diversity = ad.mean_of(diversity_terms)
        _check_finite("adversarial", adv)
        if variety is not None:
            _check_finite("variety", variety)
        _check_finite("diversity", diversity)
        total = ad.mul(ad.constant(gan_cfg.adversarial_weight), adv)
        if variety is not None:
            total = ad.add(total, ad.mul(ad.constant(gan_cfg.variety_weight),
                                         variety))
        if gan_cfg.diversity_weight > 0.0:
            total = ad.add(total, ad.mul(ad.constant(gan_cfg.diversity_weight),
                                         diversity))
        _check_finite("total generator", total)
        model.params.zero_grads()
        tape.backward(total)
        report = {
            "disc": disc_value,
            "adversarial": float(adv.values),
            "variety": float(variety.values) if variety is not None else 0.0,
            "diversity": float(diversity.values),
            "total": float(total.values),
        }
        gen_opt.step()
    return report
