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
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import cells
from . import spatial
from .data import SceneWindow
from .errors import ShapeError
# estimate_heading is the scalar reference for advance_kinematics; it stays
# importable here, where bench/tracer.py binds it.
from .geometry import (BinSpec, CrowdKinematics, advance_kinematics,  # noqa: F401
                       estimate_heading)
from .temporal import AttentionBank, attend

VARIANTS = ("vanilla", "scan")
COORDINATE_MODES = ("displacement", "absolute")
ATTENTION_KEYS = ("fused", "joint")


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
    coordinate_mode: str = "displacement"  # or "absolute"
    generative: bool = False
    noise_dim: int = 8
    domain_init_m: float = 4.0
    literal_softmax: bool = False
    attention_key: str = "fused"           # or "joint" (the 2H concat)
    force_zero_context: bool = False       # diagnostic: kill spatial context
    disable_temporal: bool = False         # diagnostic: kill temporal pass

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.coordinate_mode not in COORDINATE_MODES:
            raise ValueError(f"coordinate_mode must be one of {COORDINATE_MODES}, "
                             f"got {self.coordinate_mode!r}")
        if self.attention_key not in ATTENTION_KEYS:
            raise ValueError(f"attention_key must be one of {ATTENTION_KEYS}, "
                             f"got {self.attention_key!r}")
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

    @property
    def key_width(self) -> int:
        """Width of temporal-attention keys/queries for this configuration."""
        return self.hidden_dim if self.attention_key == "fused" else 2 * self.hidden_dim

    def to_dict(self) -> dict[str, str]:
        out = {}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                out[f.name] = "true" if value else "false"
            elif isinstance(value, float):
                out[f.name] = repr(value)
            else:
                out[f.name] = str(value)
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, str]) -> "ModelConfig":
        kwargs = {}
        for f in dataclass_fields(cls):
            if f.name not in raw:
                continue
            text = raw[f.name]
            if f.type == "bool" or isinstance(f.default, bool):
                if text not in ("true", "false"):
                    raise ValueError(f"{f.name}: expected true/false, got {text!r}")
                kwargs[f.name] = text == "true"
            elif isinstance(f.default, int):
                kwargs[f.name] = int(text)
            elif isinstance(f.default, float):
                kwargs[f.name] = float(text)
            else:
                kwargs[f.name] = text
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass
class HiddenBank:
    """Recurrent state of every pedestrian at the end of observation, one
    row per batch column (the encoded scenes' columns side by side)."""

    hidden: ad.TensorNode             # (N, H) LSTM hidden states
    cell: ad.TensorNode               # (N, H) LSTM cell states
    attention: AttentionBank          # (N, obs_len, K) fused-state history
    kinematics: CrowdKinematics       # (N,) agents at the last observed step
    last_pos: np.ndarray              # (N, 2) final observed positions
    last_disp: np.ndarray             # (N, 2) final observed displacements
    layout: cells.SceneLayout         # where each scene's pedestrians sit


@dataclass
class JointPrediction:
    """Decoded future for every pedestrian in a scene, as plain arrays."""

    ped_ids: list[int]
    displacements: np.ndarray         # (N, pred_len, 2)
    positions: np.ndarray             # (N, pred_len, 2)

    def validate(self) -> None:
        n = len(self.ped_ids)
        if self.displacements.shape != self.positions.shape or \
                self.displacements.shape[:1] != (n,):
            raise ShapeError("prediction arrays disagree with pedestrian count")
        if n and not (np.isfinite(self.displacements).all()
                      and np.isfinite(self.positions).all()):
            raise ValueError("non-finite values in prediction")


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

    def to_prediction(self) -> JointPrediction:
        pred = JointPrediction(list(self.ped_ids), self.displacements(),
                               self.positions())
        pred.validate()
        return pred


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
        K = cfg.key_width
        uniform_param(store, hub, "temporal.W", (H, 2 * K), 2 * K)
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
            ad.constant(observed.transpose(1, 0, 2)),
            self._present(scenes, range(cfg.obs_len))[:, layout.order], layout,
            self.grid, *self._recurrence("enc"), self._fuse(),
            absolute=cfg.coordinate_mode == "absolute", key=cfg.attention_key,
            literal_softmax=cfg.literal_softmax,
            force_zero_context=cfg.force_zero_context)

        undo = layout.undo
        last = cfg.obs_len - 1
        attention = AttentionBank(ad.gather(ad.stack(keys, axis=1), undo),
                                  np.ones((layout.n_rows, cfg.obs_len), dtype=bool))
        return HiddenBank(ad.gather(hidden, undo), ad.gather(cell, undo),
                          attention, kin[undo], observed[last].copy(),
                          observed[last] - observed[last - 1], layout)

    def decode(self, scenes, bank: HiddenBank,
               noise: Optional[np.ndarray] = None) -> ForwardResult:
        """Roll the decoder forward ``pred_len`` steps past the observation.

        ``scenes`` are the scenes ``bank`` encoded, one or a list.
        Geometry is recomputed every step from the decoder's own predicted
        positions, carried as live nodes so the range grid sees gradient
        from the predicted spacing. With ``generative`` configs the decoder
        hidden state is re-seeded from the encoder final plus a noise draw
        (zeros when ``noise`` is None, keeping the pass deterministic).

        A ``(S, noise_dim)`` noise block decodes S samples in one pass: every
        node gains a leading sample axis, each sample reads the same encoder
        bank, and ``disp``/``pos`` come out as (S, N, steps, 2). A step then
        costs one record per layer for all S samples, and sample s equals a
        decode with noise ``noise[s]`` alone, bit for bit. A
        ``(S, B, noise_dim)`` block gives scene b of a B-scene batch its own
        draw ``noise[s, b]``, shared by that scene's pedestrians.
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
        history = AttentionBank(ad.gather(bank.attention.keys, rows),
                                bank.attention.valid[rows])
        kin = bank.kinematics[rows]

        last_pos = tiled(bank.last_pos[order])
        start_offsets = ad.constant(last_pos[..., layout.neighbors, :]
                                    - last_pos[..., :, None, :])
        cum = None                                  # cumulative displacement node
        pos_values = last_pos                       # float positions, current step
        prev_disp = ad.constant(tiled(bank.last_disp[order]))
        present = self._present(scenes, range(cfg.obs_len, cfg.obs_len + cfg.pred_len))
        embed, (w_ih, w_hh, bias) = self._recurrence("dec")
        disps, positions = [], []

        for s in range(cfg.pred_len):
            offsets = (start_offsets if cum is None else ad.add(
                start_offsets, cells.pairwise_offsets(cum, layout.neighbors)))
            fused, joints = cells.spatial_round(
                offsets, kin, present[s][order], hidden, layout, self.grid, *self._fuse(),
                literal_softmax=cfg.literal_softmax,
                force_zero_context=cfg.force_zero_context)
            if cfg.variant == "scan" and not cfg.disable_temporal:
                queries = fused if cfg.attention_key == "fused" else joints
                state = attend(queries, history, self.params["temporal.W"],
                               self.params["temporal.b"])
            else:
                state = fused
            if cfg.coordinate_mode == "absolute":
                base = ad.constant(last_pos)
                step_in = base if cum is None else ad.add(base, cum)
            else:
                step_in = prev_disp
            gates_in = cells.linear(cells.linear(step_in, *embed), w_ih, bias)
            hidden, cell = cells.lstm_cell(gates_in, state, cell, w_hh)
            disp = cells.linear(hidden, self.params["out.W"], self.params["out.b"])
            cum = disp if cum is None else ad.add(cum, disp)
            pos = ad.add(ad.constant(last_pos), cum)
            prev_disp = disp
            disps.append(disp)
            positions.append(pos)
            kin = advance_kinematics(pos_values, pos.values, kin)
            pos_values = pos.values

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


def predict(scene: SceneWindow, cfg: ModelConfig,
            params: ad.ParamStore) -> JointPrediction:
    """One deterministic joint forecast (zero noise for generative configs)."""
    model = ScanModel(cfg, params)
    with ad.no_grad():
        result = model.forward(scene)
    return result.to_prediction()
