"""Joint multi-pedestrian forecaster.

An LSTM encoder-decoder whose recurrent state is spatially reweighted at
every step: each pedestrian scores its neighbours on a learnable range
grid (bearing x relative heading), blends their hidden states into a
context, and fuses that context with its own hidden state before the cell
update. The decoder recomputes neighbour geometry from its *own* predicted
positions and — in the "scan" variant — additionally attends over the
encoder's fused-state history before each update.

Everything here runs on the fp64 tape in :mod:`scantraj.autodiff`, so the
whole forward pass is differentiable end to end, including the distances
that feed the range grid. A pass takes one scene or a list of scenes: a
list runs as one batch whose scenes never see one another.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import cells
from . import spatial
from .data import SceneWindow
from .errors import NumericError, ShapeError
# estimate_heading, numpy's angle recipe on 0-d values, is the scalar
# reference for advance_kinematics, and attend the composed reference for the
# decoder step's attention. Nothing calls them; they stay importable here only
# while bench/tracer.py binds them.
from .geometry import (BinSpec, CrowdKinematics, advance_kinematics,  # noqa: F401
                       bin_indices, estimate_heading, pair_offsets)
from .temporal import attend  # noqa: F401

VARIANTS = ("vanilla", "scan")

# Keys that configurations no longer have: each is dropped when it holds
# the one value the model still implements, as older checkpoints carry it,
# and refused otherwise, saying what to use instead.
RETIRED_KEYS = {
    "disable_temporal": ("false", "set variant = vanilla for a model without "
                                  "temporal attention"),
    "coordinate_mode": ("displacement", "drop it, the model embeds displacements only"),
    "literal_softmax": ("false", "drop it, the spatial softmax covers positive scores only"),
    "attention_key": ("fused", "drop it, temporal attention is keyed by fused states"),
    "force_zero_context": ("false", "drop it, the spatial context is always computed"),
}


@dataclass
class ModelConfig:
    """Architecture knobs; the defaults are the reference configuration."""

    embed_dim: int = 16
    hidden_dim: int = 32
    obs_len: int = 8
    pred_len: int = 12
    bearing_bin_deg: float = 30.0
    heading_bin_deg: float = 30.0
    variant: str = "scan"                  # "vanilla": no temporal attention
    generative: bool = False
    noise_dim: int = 8
    domain_init_m: float = 4.0

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.obs_len < 2:
            raise ValueError("obs_len must be >= 2 (heading needs two points)")
        if self.pred_len < 1:
            raise ValueError("pred_len must be >= 1")
        for field_name in ("embed_dim", "hidden_dim", "noise_dim"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        self.bin_spec()  # validates the angular widths

    def bin_spec(self) -> BinSpec:
        return BinSpec(self.bearing_bin_deg, self.heading_bin_deg)

    @classmethod
    def from_dict(cls, raw: dict[str, str]) -> "ModelConfig":
        """Parse and validate a ``[model]`` section or checkpoint header;
        ``RETIRED_KEYS`` are dropped at their kept value, refused otherwise."""
        raw = dict(raw)
        for key, (kept, instead) in RETIRED_KEYS.items():
            if raw.pop(key, kept) != kept:
                raise ValueError(f"{key} was removed: {instead}")
        cfg = config_from_dict(cls, raw)
        cfg.validate()
        return cfg


def config_keys(cls) -> tuple[str, ...]:
    """The key=value names of config dataclass ``cls``: its fields with a
    bool, int, float or str default, in declaration order."""
    return tuple(f.name for f in dataclass_fields(cls)
                 if isinstance(f.default, (bool, int, float, str)))


def config_to_dict(conf) -> dict[str, str]:
    """A config's key=value fields as strings ``config_from_dict`` reads back
    exactly (floats by ``repr``, bools as true/false)."""
    def text(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)

    return {name: text(getattr(conf, name)) for name in config_keys(type(conf))}


def config_from_dict(cls, raw: dict[str, str]):
    """Build config dataclass ``cls`` from key=value strings, each cast to
    its field's default type; absent keys keep their defaults. An unknown
    key or a malformed value raises ValueError naming it."""
    keys = config_keys(cls)
    kinds = {f.name: type(f.default) for f in dataclass_fields(cls)}
    kwargs = {}
    for key, text in raw.items():
        if key not in keys:
            raise ValueError(f"unknown key {key!r}; expected one of {', '.join(keys)}")
        if kinds[key] is bool and text not in ("true", "false"):
            raise ValueError(f"{key}: expected true/false, got {text!r}")
        kwargs[key] = text == "true" if kinds[key] is bool else kinds[key](text)
    return cls(**kwargs)


@dataclass
class HiddenBank:
    """Recurrent state of every pedestrian at the end of observation, one
    row per batch column (the encoded scenes' columns side by side)."""

    hidden: ad.TensorNode             # (N, H) LSTM hidden states
    cell: ad.TensorNode               # (N, H) LSTM cell states
    keys: ad.TensorNode               # (N, obs_len, H) fused-state history
    kinematics: CrowdKinematics       # (N,) agents at the last observed step
    last_pos: np.ndarray              # (N, 2) final observed positions
    last_disp: np.ndarray             # (N, 2) final observed displacements
    layout: cells.SceneLayout         # where each scene's pedestrians sit


@dataclass
class ForwardResult:
    """Differentiable decode outputs, one row per scene column.

    A batched decode of S samples gives ``disp`` and ``pos`` a leading
    sample axis, (S, N, steps, 2); ``samples`` splits it. A pass over
    several scenes has their columns side by side; ``per_scene`` splits
    them.
    """

    ped_ids: list[int]
    disp: ad.TensorNode              # (N, steps, 2) predicted displacements
    pos: ad.TensorNode               # (N, steps, 2) predicted positions
    loss_mask: np.ndarray            # (N, steps) bool: ground truth present

    @property
    def n_steps(self) -> int:
        return self.pos.shape[-2]

    def samples(self) -> list["ForwardResult"]:
        """One result per sample of a batched decode; each is a live slice
        with its own gradient, and the split costs two records in all."""
        return [ForwardResult(list(self.ped_ids), disp, pos, self.loss_mask)
                for disp, pos in zip(ad.unstack(self.disp), ad.unstack(self.pos))]

    def per_scene(self, scenes) -> list["ForwardResult"]:
        """One result per scene of a batched pass, in batch order; each is
        a live view with its own gradient, and the split costs two records
        in all."""
        sizes = [scene.n_peds for scene in _scene_list(scenes)]
        axis = self.pos.values.ndim - 3
        bounds = np.cumsum([0, *sizes]).tolist()
        return [ForwardResult(self.ped_ids[start:stop], disp, pos,
                              self.loss_mask[start:stop])
                for start, stop, disp, pos in zip(
                    bounds, bounds[1:], ad.split(self.disp, sizes, axis),
                    ad.split(self.pos, sizes, axis))]

    def displacements(self) -> np.ndarray:
        return self.disp.values.copy()

    def positions(self) -> np.ndarray:
        return self.pos.values.copy()


def uniform_param(store: ad.ParamStore, hub: ad.RngHub, name: str,
                  shape: tuple[int, ...], fan_in: int) -> ad.TensorNode:
    """Register ``name`` with U(-1/sqrt(fan_in), +1/sqrt(fan_in)) entries.

    Each parameter draws from its own named stream, so adding or removing
    *other* parameters never shifts its initial values.
    """
    bound = 1.0 / np.sqrt(float(fan_in))
    values = hub.stream(f"init/{name}").uniform(-bound, bound, size=shape)
    return store.register(name, values)


def zeros_param(store: ad.ParamStore, name: str, shape: tuple[int, ...]) -> ad.TensorNode:
    return store.register(name, np.zeros(shape))


def build_params(cfg: ModelConfig, hub: ad.RngHub,
                 store: Optional[ad.ParamStore] = None) -> ad.ParamStore:
    """Create and initialize every trainable tensor the forecaster needs."""
    cfg.validate()
    if store is None:
        store = ad.ParamStore()
    E, H = cfg.embed_dim, cfg.hidden_dim
    spec = cfg.bin_spec()
    store.register("domain_grid",
                   np.full((spec.n_bearing, spec.n_heading), cfg.domain_init_m))
    for side in ("enc", "dec"):
        uniform_param(store, hub, f"{side}_embed.W", (E, 2), 2)
        zeros_param(store, f"{side}_embed.b", (E,))
        uniform_param(store, hub, f"{side}_lstm.W_ih", (4 * H, E), E)
        uniform_param(store, hub, f"{side}_lstm.W_hh", (4 * H, H), H)
        zeros_param(store, f"{side}_lstm.b", (4 * H,))
    uniform_param(store, hub, "fuse.W", (H, 2 * H), 2 * H)
    zeros_param(store, "fuse.b", (H,))
    if cfg.variant == "scan":
        uniform_param(store, hub, "temporal.W", (H, 2 * H), 2 * H)
        zeros_param(store, "temporal.b", (H,))
    uniform_param(store, hub, "out.W", (2, H), H)
    zeros_param(store, "out.b", (2,))
    if cfg.generative:
        uniform_param(store, hub, "noise_proj.W", (H, H + cfg.noise_dim),
                      H + cfg.noise_dim)
        zeros_param(store, "noise_proj.b", (H,))
    return store


def _scene_list(scenes) -> list[SceneWindow]:
    """A lone scene as a batch of one."""
    return [scenes] if isinstance(scenes, SceneWindow) else list(scenes)


class ScanModel:
    """Binds a config to a parameter store and runs encode/decode passes."""

    def __init__(self, cfg: ModelConfig, params: ad.ParamStore):
        cfg.validate()
        self.cfg = cfg
        self.params = params
        self.grid = spatial.DomainGrid(params["domain_grid"], cfg.bin_spec())

    # -- helpers ----------------------------------------------------------

    def _recurrence(self, side: str) -> tuple:
        """((embed W, b), (LSTM W_ih, W_hh, b)) of the encoder or decoder."""
        p = self.params
        return ((p[f"{side}_embed.W"], p[f"{side}_embed.b"]),
                (p[f"{side}_lstm.W_ih"], p[f"{side}_lstm.W_hh"], p[f"{side}_lstm.b"]))

    def _fuse(self) -> tuple:
        return self.params["fuse.W"], self.params["fuse.b"]

    @staticmethod
    def _present(scenes: list, steps: range) -> np.ndarray:
        """(T, N) presence of every batch column at each of ``steps``; a
        scene is everyone-present past its own end."""
        padded = [np.concatenate([s.mask, np.ones((len(steps), s.n_peds), bool)])
                  for s in scenes]
        return np.concatenate([mask[steps.start:steps.stop] for mask in padded], axis=1)

    # -- phases -----------------------------------------------------------

    def encode(self, scenes) -> HiddenBank:
        """Run the spatially attentive encoder over the observed steps.

        ``scenes`` is one SceneWindow or a list of them. A list runs as one
        batch: its pedestrians are the rows of every node, laid out by a
        ``cells.SceneLayout``, and pairs never cross scenes, so each
        scene's rows equal an encode of that scene alone.
        """
        cfg = self.cfg
        scenes = _scene_list(scenes)
        if not scenes:
            raise ValueError("encode needs at least one scene")
        for scene in scenes:
            if scene.obs_len != cfg.obs_len:
                raise ShapeError(f"scene obs_len {scene.obs_len} != config {cfg.obs_len}")
            scene.validate()
        layout = cells.SceneLayout([scene.ped_ids for scene in scenes])
        observed = np.concatenate([scene.positions[:cfg.obs_len] for scene in scenes],
                                  axis=1)
        hidden, cell, keys, kin = cells.observed_pass(
            observed.transpose(1, 0, 2),
            self._present(scenes, range(cfg.obs_len))[:, layout.order], layout,
            self.grid, *self._recurrence("enc"), self._fuse())

        undo = layout.undo
        last = cfg.obs_len - 1
        return HiddenBank(ad.gather(hidden, undo), ad.gather(cell, undo),
                          ad.gather(keys, (np.arange(cfg.obs_len), undo[:, None])),
                          kin[undo], observed[last].copy(),
                          observed[last] - observed[last - 1], layout)

    def decode(self, scenes, bank: HiddenBank,
               noise: Optional[np.ndarray] = None) -> ForwardResult:
        """Roll the decoder forward ``pred_len`` steps past the observation.

        ``scenes`` are the scenes ``bank`` encoded, one or a list.
        Geometry is recomputed every step from the decoder's own predicted
        positions: headings, bins and neighbour masks from the previous
        step's float positions, the pair offsets from the live running sum
        of displacements, so the range grid sees gradient from the
        predicted spacing. With ``generative`` configs the decoder
        hidden state is re-seeded from the encoder final plus a noise draw
        (zeros when ``noise`` is None, keeping the pass deterministic).

        A ``(S, noise_dim)`` noise block decodes S samples in one pass: every
        node gains a leading sample axis, each sample reads the same encoder
        bank, and ``disp``/``pos`` come out as (S, N, steps, 2). A step
        costs two records for all S samples (``ad.pair_weights`` and
        ``ad.decoder_step``), and sample s equals a decode with noise
        ``noise[s]`` alone, bit for bit. A ``(S, B, noise_dim)`` block gives
        scene b of a B-scene batch its own draw ``noise[s, b]``, shared by
        that scene's pedestrians.
        """
        cfg = self.cfg
        scenes = _scene_list(scenes)
        layout = bank.layout
        if tuple(scene.n_peds for scene in scenes) != layout.sizes:
            raise ShapeError("decode: the scenes are not the ones the bank encoded")
        order = layout.order
        lead: tuple = ()
        if noise is not None:
            if not cfg.generative:
                raise ValueError("noise passed to a non-generative configuration")
            noise = np.asarray(noise, dtype=np.float64)
            if (noise.ndim not in (1, 2, 3) or noise.shape[-1] != cfg.noise_dim
                    or noise.shape[1:-1] not in ((), (len(scenes),))):
                raise ShapeError(f"noise shape {noise.shape} is not ({cfg.noise_dim},), "
                                 f"(S, {cfg.noise_dim}) or "
                                 f"(S, {len(scenes)}, {cfg.noise_dim})")
            lead = noise.shape[:-1][:1]
            if noise.ndim == 3:
                noise = noise[:, layout.scene_of_row]      # one draw per row

        def tiled(values: np.ndarray) -> np.ndarray:
            return np.array(np.broadcast_to(values, lead + values.shape))

        # Canonical rows, once per sample.
        rows = tiled(order)
        hidden = ad.gather(bank.hidden, rows)
        if cfg.generative:
            hidden = cells.noise_conditioned_hidden(
                hidden, np.zeros(cfg.noise_dim) if noise is None else noise,
                self.params["noise_proj.W"], self.params["noise_proj.b"])
        cell = ad.gather(bank.cell, rows)
        attention = None
        if cfg.variant == "scan":
            attention = (ad.gather(bank.keys, rows), self.params["temporal.W"],
                         self.params["temporal.b"])
        kin = bank.kinematics[rows]

        last_pos = tiled(bank.last_pos[order])
        start = pair_offsets(last_pos, layout.neighbors)
        cum = None                                  # cumulative displacement node
        step_in = ad.constant(tiled(bank.last_disp[order]))    # displacement node
        present = self._present(scenes, range(cfg.obs_len, cfg.obs_len + cfg.pred_len))
        embed, lstm = self._recurrence("dec")
        out = self.params["out.W"], self.params["out.b"]
        disps, positions = [], []

        for s in range(cfg.pred_len):
            if s:       # headings from the step just predicted
                kin = advance_kinematics(positions[-2].values if s > 1 else last_pos,
                                         positions[-1].values, kin)
            weights = ad.pair_weights(
                cum, self.grid.node, start, layout.neighbors,
                bin_indices(kin, self.grid.spec, layout.neighbors,
                            None if s else start),   # step 0's positions: last_pos
                layout.neighbor_mask(present[s][order]))
            hidden, cell, disp, cum, pos = ad.decoder_step(
                hidden, cell, weights, layout.blocks, cum, step_in, last_pos, self._fuse(),
                embed, lstm, out, attention)
            step_in = disp                          # the next step embeds it
            disps.append(disp)
            positions.append(pos)

        undo = (slice(None),) * len(lead) + (layout.undo,)
        return ForwardResult([pid for scene in scenes for pid in scene.ped_ids],
                             ad.gather(ad.stack(disps, axis=-2), undo),
                             ad.gather(ad.stack(positions, axis=-2), undo),
                             present.T)

    def forward(self, scenes, noise: Optional[np.ndarray] = None) -> ForwardResult:
        """Encode and decode one scene, or a list of scenes as one batch."""
        scenes = _scene_list(scenes)
        if sum(scene.n_peds for scene in scenes) == 0:
            empty = ad.constant(np.zeros((0, self.cfg.pred_len, 2)))
            return ForwardResult([], empty, empty,
                                 np.zeros((0, self.cfg.pred_len), dtype=bool))
        return self.decode(scenes, self.encode(scenes), noise=noise)


def finite_positions(draw: Callable[[], ad.TensorNode], what: str,
                     positions: ad.TensorNode | None = None) -> np.ndarray:
    """The values of the predicted positions ``draw()`` returns, computed
    under ``ad.no_grad()`` unless ``positions``, a draw already made, is
    given. If they are not all finite, the same draw runs once more under a
    recording tape and ``NumericError`` names ``what`` and the first op
    whose output went non-finite."""
    if positions is None:
        with ad.no_grad():
            positions = draw()
    if not np.isfinite(positions.values).all():
        with ad.Tape():
            origin = ad.nonfinite_origin(draw())
        raise NumericError(f"{what} predicts non-finite positions{origin}")
    return positions.values


def trajectory_loss(result: ForwardResult, scene: SceneWindow):
    """Mean squared Euclidean position error over valid (pedestrian, step)
    pairs, as a scalar node; None when nothing is valid.

    The valid pairs are gathered in ascending pedestrian id order, step
    by step, so the value is invariant to column order, bit for bit.
    """
    steps = min(result.n_steps, scene.pred_len)
    order = cells.canonical_order(result.ped_ids)
    valid = (result.loss_mask[order, :steps]
             & scene.mask[scene.obs_len:scene.obs_len + steps, order].T)
    rows, step = np.nonzero(valid)
    if rows.size == 0:
        return None
    cols = order[rows]
    err = ad.sub(ad.gather(result.pos, (cols, step)),
                 ad.constant(scene.positions[scene.obs_len + step, cols]))
    return ad.div(ad.reduce_sum(ad.mul(err, err)), ad.constant(float(rows.size)))
