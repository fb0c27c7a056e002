"""Adversarial wrapper: noise-seeded sampling, a spatially attentive
discriminator, and the variety / diversity loss suite.

The generator is the forecaster itself (``generative=True`` configs reseed
the decoder hidden state from a per-sample noise draw). The discriminator
is an independent spatially attentive LSTM encoder — its own range grid,
embedding, cell, and fusion — run over a *full* observed-plus-future
trajectory, ending in one real/fake logit per pedestrian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import cells
from . import metrics
from . import spatial
from .data import SceneWindow
from .errors import NumericError, ShapeError
from .geometry import AgentKinematics, estimate_heading
from .model import (ForwardResult, ModelConfig, ScanModel, _canonical_order,
                    trajectory_loss, uniform_param, zeros_param)


@dataclass(frozen=True)
class NoiseSpec:
    """Shape and family of the decoder-seeding noise (standard normal)."""

    dim: int = 8
    distribution: str = "normal"

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("noise dim must be >= 1")
        if self.distribution != "normal":
            raise ValueError("only standard normal noise is supported")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)


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
    """k sampled futures for one scene, with their seeding noise."""

    ped_ids: list[int]
    results: list                    # k ForwardResult objects
    noises: np.ndarray               # (k, noise_dim)

    @property
    def k(self) -> int:
        return len(self.results)

    def positions_array(self) -> np.ndarray:
        """(k, N, pred_len, 2) float view of the sampled futures."""
        return np.array([r.positions() for r in self.results])

    def displacements_array(self) -> np.ndarray:
        return np.array([r.displacements() for r in self.results])


def sample_predictions(model: ScanModel, scene: SceneWindow, k: int,
                       rng: np.random.Generator) -> PredictionSet:
    """Draw k joint futures; one noise vector per sample, shared by every
    pedestrian in the scene so each sample is a coherent joint outcome.

    The scene is encoded once; each sample is a separate decode pass.
    """
    if not model.cfg.generative:
        raise ValueError("sampling requires a generative configuration")
    if k < 1:
        raise ValueError("k must be >= 1")
    spec = NoiseSpec(model.cfg.noise_dim)
    noises = np.stack([spec.draw(rng) for _ in range(k)])
    bank = model.encode(scene)
    results = [model.decode(scene, bank, noise=noises[i]) for i in range(k)]
    return PredictionSet(list(scene.ped_ids), results, noises)


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


def real_position_nodes(scene: SceneWindow) -> ad.TensorNode:
    """Ground-truth trajectory as one constant (N, T, 2) node."""
    return ad.constant(scene.positions.transpose(1, 0, 2))


def fake_position_nodes(scene: SceneWindow, result: ForwardResult,
                        detach: bool = False) -> ad.TensorNode:
    """Observed constants followed by the generated future, as one
    (N, obs_len + steps, 2) node.

    ``detach=True`` freezes the future to constants (for critic updates,
    which must not propagate into the generator)."""
    observed = ad.constant(scene.positions[:scene.obs_len].transpose(1, 0, 2))
    future = ad.constant(result.pos.values) if detach else result.pos
    return ad.concat([observed, future], axis=1)


def discriminator_logits(cfg: ModelConfig, params: ad.ParamStore,
                         ped_ids, positions, mask):
    """Run the critic over a full trajectory; one logit per pedestrian, as
    an (N, 1) node.

    ``positions`` is the (N, T, 2) trajectory node (a live node lets
    generator gradient flow through the critic); ``mask`` is (T, N)
    presence used to gate neighbour participation, exactly as in the
    forecaster.
    """
    n = len(ped_ids)
    if n == 0:
        return ad.constant(np.zeros((0, 1)))
    T = positions.shape[1]
    if T < 2:
        raise ShapeError("discriminator needs at least two steps")
    order = _canonical_order(ped_ids)
    track = ad.gather(positions, order)
    values = track.values
    presence = np.asarray(mask, dtype=bool)[:, order]
    grid = spatial.DomainGrid(params["disc.domain_grid"], cfg.bin_spec())
    H = cfg.hidden_dim
    hidden = ad.constant(np.zeros((n, H)))
    cell = ad.constant(np.zeros((n, H)))
    kin = [AgentKinematics((float(values[p, 0, 0]), float(values[p, 0, 1])))
           for p in range(n)]
    prev = None
    for t in range(T):
        if t > 0:
            kin = [estimate_heading(values[p, t - 1], values[p, t], kin[p])
                   for p in range(n)]
        now = track[:, t]
        fused, _ = cells.spatial_round(
            cells.pairwise_offsets(now), kin, presence[t], hidden, grid,
            params["disc.fuse.W"], params["disc.fuse.b"],
            literal_softmax=cfg.literal_softmax)
        if cfg.coordinate_mode == "absolute":
            step_in = now
        elif prev is not None:
            step_in = ad.sub(now, prev)
        else:
            step_in = ad.constant(np.zeros((n, 2)))
        embedded = cells.linear(step_in, params["disc.embed.W"],
                                params["disc.embed.b"])
        hidden, cell = cells.lstm_cell(
            embedded, fused, cell, params["disc.lstm.W_ih"],
            params["disc.lstm.W_hh"], params["disc.lstm.b"], H)
        prev = now
    logits = cells.linear(hidden, params["disc.score.W"], params["disc.score.b"])
    return ad.gather(logits, np.argsort(order))


def discriminate(cfg: ModelConfig, params: ad.ParamStore,
                 ped_ids, positions, mask) -> ad.TensorNode:
    """Per-pedestrian real probabilities in (0, 1), as an (N, 1) node."""
    return ad.sigmoid(discriminator_logits(cfg, params, ped_ids, positions, mask))


def bce_real(logits: ad.TensorNode) -> ad.TensorNode:
    """Mean -log sigma(logit): the cost of calling these trajectories fake."""
    return ad.reduce_mean(ad.softplus(ad.neg(logits)))


def bce_fake(logits: ad.TensorNode) -> ad.TensorNode:
    """Mean -log(1 - sigma(logit)): the cost of believing these fakes."""
    return ad.reduce_mean(ad.softplus(logits))


def adversarial_loss(fake_logits: ad.TensorNode) -> ad.TensorNode:
    """Non-saturating generator objective: mean -log sigma(fake logit)."""
    return bce_real(fake_logits)


# -- sample-set losses ------------------------------------------------------

def variety_loss(scene: SceneWindow, samples: PredictionSet):
    """Trajectory loss of the minimum-ADE sample only.

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
    best, best_ade = 0, None
    for i in range(samples.k):
        pos = samples.results[i].positions()[:, :usable]
        value = metrics.ade(pos, truth, mask)
        if best_ade is None or value < best_ade:
            best, best_ade = i, value
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
    steps = samples.results[0].n_steps
    order = _canonical_order(samples.ped_ids)
    first, second = np.triu_indices(k, 1)
    futures = ad.stack([r.pos for r in samples.results])      # (k, N, steps, 2)
    # (N, pairs, steps) gaps, pedestrians in id order, pairs as (i < j).
    rows = order[:, None]
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
    gaps = []
    for i in range(k):
        for j in range(i + 1, k):
            step_dist = np.linalg.norm(positions[i] - positions[j], axis=-1)
            gaps.extend(step_dist.mean(axis=1))
    return float(np.mean(gaps))


# -- the alternating step ---------------------------------------------------

def _check_finite(name: str, node: ad.TensorNode) -> None:
    if not np.all(np.isfinite(node.values)):
        raise NumericError(f"non-finite {name} loss")


def _full_presence(scene: SceneWindow) -> np.ndarray:
    return scene.mask.all(axis=0)


def gan_train_step(model: ScanModel, disc_params: ad.ParamStore,
                   scenes: list, gan_cfg: GanConfig,
                   gen_opt: ad.Adam, disc_opt: ad.Adam,
                   rng: np.random.Generator) -> dict:
    """One critic update then one generator update over a scene batch.

    The critic sees every ground-truth trajectory against all k generated
    futures per scene (generator outputs detached). The generator then
    regenerates its k samples — same noise, parameters unchanged by the
    critic step — and descends adversarial + variety + lambda * diversity.
    Only pedestrians present through the whole window are scored by the
    critic; the variety term keeps using the per-step mask.

    Returns the batch's mean loss terms as plain floats.
    """
    gan_cfg.validate()
    cfg = model.cfg
    usable = [s for s in scenes if s.n_peds > 0]
    if not usable:
        raise ValueError("gan_train_step needs at least one non-empty scene")
    noises = [np.stack([rng.standard_normal(cfg.noise_dim)
                        for _ in range(gan_cfg.k)]) for _ in usable]

    # critic pass: real vs all-k detached fakes
    with ad.Tape() as tape:
        real_terms, fake_terms = [], []
        for scene, noise in zip(usable, noises):
            keep = np.flatnonzero(_full_presence(scene))
            if keep.size == 0:
                continue
            bank = model.encode(scene)
            results = [model.decode(scene, bank, noise=z) for z in noise]
            real_logits = discriminator_logits(
                cfg, disc_params, scene.ped_ids,
                real_position_nodes(scene), scene.mask)
            real_terms.append(ad.gather(real_logits, keep))
            for result in results:
                fake_logits = discriminator_logits(
                    cfg, disc_params, scene.ped_ids,
                    fake_position_nodes(scene, result, detach=True), scene.mask)
                fake_terms.append(ad.gather(fake_logits, keep))
        if not real_terms:
            raise ValueError("no fully present pedestrians in the batch")
        disc_loss = ad.add(bce_real(ad.concat(real_terms)),
                           bce_fake(ad.concat(fake_terms)))
        _check_finite("discriminator", disc_loss)
        disc_params.zero_grads()
        tape.backward(disc_loss)
        disc_value = float(disc_loss.values)
        disc_opt.step()

    # generator pass: fresh graph, same noise, live fakes through the critic
    with ad.Tape() as tape:
        adv_terms = []
        variety_terms = []
        diversity_terms = []
        for scene, noise in zip(usable, noises):
            keep = np.flatnonzero(_full_presence(scene))
            bank = model.encode(scene)
            results = [model.decode(scene, bank, noise=z) for z in noise]
            sample_set = PredictionSet(list(scene.ped_ids), results, noise)
            for result in results:
                fake_logits = discriminator_logits(
                    cfg, disc_params, scene.ped_ids,
                    fake_position_nodes(scene, result), scene.mask)
                adv_terms.append(ad.gather(fake_logits, keep))
            variety = variety_loss(scene, sample_set)
            if variety is not None:
                variety_terms.append(variety)
            diversity_terms.append(diversity_loss(sample_set))
        adv = adversarial_loss(ad.concat(adv_terms))
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
