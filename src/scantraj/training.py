"""Training loops, the evaluation driver, and bit-exact checkpointing.

A checkpoint freezes everything a run needs to continue as if it had never
stopped: parameter values, Adam moments and step counts, every named RNG
stream's state, and the epoch, under a SHA-256 digest that lets loading
reject a corrupted or truncated file. Loss curves are plain
``epoch,term,value`` CSV so downstream plotting never parses anything exotic.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import generative as gn
from . import metrics
from .data import make_windows
from .errors import DataError, NumericError
from .model import ModelConfig, ScanModel, build_params, trajectory_loss

CHECKPOINT_MAGIC = b"SCANCKPT"
CHECKPOINT_VERSION = 2

SHUFFLE_STREAM = "train/shuffle"
GAN_NOISE_STREAM = "train/gan_noise"
EVAL_NOISE_STREAM = "eval/noise"


@dataclass
class TrainConfig:
    """Loop hyperparameters; defaults are the reference training recipe."""

    batch_size: int = 32
    lr: float = 0.001
    epochs: int = 200
    seed: int = 0
    eval_every: int = 0               # epochs between held-out evals; 0 = off
    gan: Optional[gn.GanConfig] = None

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # lr == 0 is allowed: the degenerate-optimizer contract (parameters
        # unchanged, flat loss) is part of the test surface.
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")
        if self.gan is not None:
            self.gan.validate()


@dataclass
class TrainState:
    """Everything mutable about a run, checkpointable as one unit."""

    cfg: ModelConfig
    params: ad.ParamStore
    opt: ad.Adam
    hub: ad.RngHub
    epoch: int = 0
    disc_params: Optional[ad.ParamStore] = None
    disc_opt: Optional[ad.Adam] = None


def init_state(cfg: ModelConfig, tcfg: TrainConfig) -> TrainState:
    cfg.validate()
    tcfg.validate()
    hub = ad.RngHub(tcfg.seed)
    params = build_params(cfg, hub)
    opt = ad.Adam(params, lr=tcfg.lr)
    disc_params = disc_opt = None
    if tcfg.gan is not None:
        disc_params = gn.build_discriminator_params(cfg, hub)
        disc_opt = ad.Adam(disc_params, lr=tcfg.lr)
    return TrainState(cfg, params, opt, hub, 0, disc_params, disc_opt)


def _epoch_batches(windows: list, hub: ad.RngHub, batch_size: int):
    """Shuffle scene order (one stream draw per epoch) and chunk it."""
    order = hub.stream(SHUFFLE_STREAM).permutation(len(windows))
    ordered = [windows[int(i)] for i in order]
    for start in range(0, len(ordered), batch_size):
        yield ordered[start:start + batch_size]


def _eval_rows(epoch, state, eval_windows, curve):
    report = evaluate(state.cfg, state.params, eval_windows, k=1)
    curve.append((epoch, "eval_ade", report.ade))
    curve.append((epoch, "eval_fde", report.fde))


def train_deterministic(windows: list, cfg: ModelConfig, tcfg: TrainConfig,
                        eval_windows: Optional[list] = None,
                        state: Optional[TrainState] = None):
    """Minimize the mean squared trajectory error with Adam.

    Each batch runs as one pass: its non-empty scenes are encoded and
    decoded together, side by side (``cells.SceneLayout``), and split into
    per-scene views. The batch loss is each scene's own ``trajectory_loss``
    averaged over the scenes that have one, left to right, so a scene in a
    batch counts exactly as it would alone.

    Returns (state, curve). Pass a restored ``state`` to resume: the loop
    runs from ``state.epoch`` to ``tcfg.epochs`` and, because the shuffle
    stream's position is part of the state, matches the uninterrupted run
    bit for bit.
    """
    if not windows:
        raise ValueError("train_deterministic needs at least one scene")
    if tcfg.gan is not None:
        raise ValueError("gan config present: use train_gan")
    if state is None:
        state = init_state(cfg, tcfg)
    model = ScanModel(state.cfg, state.params)
    curve: list[tuple] = []
    for epoch in range(state.epoch, tcfg.epochs):
        total, scenes_counted = 0.0, 0
        for batch in _epoch_batches(windows, state.hub, tcfg.batch_size):
            live = [scene for scene in batch if scene.n_peds > 0]
            if not live:
                continue
            with ad.Tape() as tape:
                views = model.forward(live).per_scene(live)
                losses = [loss for loss in map(trajectory_loss, views, live)
                          if loss is not None]
                batch_loss = ad.mean_of(losses)
                if batch_loss is None:
                    continue
                if not np.isfinite(batch_loss.values):
                    raise NumericError(f"train loss is not finite at epoch {epoch}"
                                       + ad.nonfinite_origin(batch_loss))
                state.params.zero_grads()
                tape.backward(batch_loss)
                state.opt.step()
                total += float(batch_loss.values) * len(losses)
                scenes_counted += len(losses)
        if scenes_counted == 0:
            raise ValueError("no trainable scenes in the dataset")
        curve.append((epoch, "train_loss", total / scenes_counted))
        if eval_windows and tcfg.eval_every and (epoch + 1) % tcfg.eval_every == 0:
            _eval_rows(epoch, state, eval_windows, curve)
        state.epoch = epoch + 1
    return state, curve


def train_gan(windows: list, cfg: ModelConfig, tcfg: TrainConfig,
              eval_windows: Optional[list] = None,
              state: Optional[TrainState] = None):
    """Alternating critic/generator training; returns (state, curve).

    Per-epoch curve rows carry each loss term separately (disc,
    adversarial, variety, diversity, total), averaged over batches.
    """
    if not windows:
        raise ValueError("train_gan needs at least one scene")
    if tcfg.gan is None:
        raise ValueError("train_gan needs a gan config")
    if not cfg.generative:
        raise ValueError("train_gan needs a generative model configuration")
    if state is None:
        state = init_state(cfg, tcfg)
    if state.disc_params is None or state.disc_opt is None:
        raise ValueError("state has no discriminator half")
    model = ScanModel(state.cfg, state.params)
    noise_rng = state.hub.stream(GAN_NOISE_STREAM)
    curve: list[tuple] = []
    for epoch in range(state.epoch, tcfg.epochs):
        sums: dict[str, float] = {}
        batches = 0
        for batch in _epoch_batches(windows, state.hub, tcfg.batch_size):
            usable = [s for s in batch if s.n_peds > 0]
            if not usable:
                continue
            report = gn.gan_train_step(model, state.disc_params, usable,
                                       tcfg.gan, state.opt, state.disc_opt,
                                       noise_rng)
            for term, value in report.items():
                sums[term] = sums.get(term, 0.0) + value
            batches += 1
        if batches == 0:
            raise ValueError("no trainable scenes in the dataset")
        for term in ("disc", "adversarial", "variety", "diversity", "total"):
            curve.append((epoch, term, sums[term] / batches))
        if eval_windows and tcfg.eval_every and (epoch + 1) % tcfg.eval_every == 0:
            _eval_rows(epoch, state, eval_windows, curve)
        state.epoch = epoch + 1
    return state, curve


# -- evaluation -------------------------------------------------------------

def evaluate(cfg: ModelConfig, params: ad.ParamStore, windows: list,
             k: int = 1, seed: int = 0) -> metrics.MetricReport:
    """Score a parameter set over held-out windows.

    Deterministic configurations report single-sample metrics (k must be
    1). Generative ones draw k seeded futures per scene: the ade/fde
    columns use the first sample, best-of-k the whole set. All error
    fields are unweighted means of per-scene values; the near-collision
    rate pools frames across scenes. Evaluating twice with one seed gives
    identical reports. Every pass runs under ``ad.no_grad()``: the values
    equal a recorded pass bit for bit, and nothing is recorded.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 1 and not cfg.generative:
        raise ValueError("k > 1 needs a generative configuration "
                         "(config/checkpoint variant mismatch)")
    model = ScanModel(cfg, params)
    hub = ad.RngHub(seed)
    ades, fdes, bok_ades, bok_fdes = [], [], [], []
    fractions: list[float] = []
    n_peds = 0
    for index, scene in enumerate(windows):
        if scene.n_peds == 0:
            continue
        usable = min(scene.pred_len, cfg.pred_len)
        if usable < 1:
            continue
        truth = scene.positions[scene.obs_len:scene.obs_len + usable]
        truth = truth.transpose(1, 0, 2)
        mask = scene.mask[scene.obs_len:scene.obs_len + usable].T
        if not mask.any():
            continue
        if cfg.generative and k > 1:
            rng = hub.derive(EVAL_NOISE_STREAM, index)
            with ad.no_grad():
                sample_set = gn.sample_predictions(model, scene, k, rng)
                positions = sample_set.positions_array()[:, :, :usable]
            first = positions[0]
            bok_ade, bok_fde = metrics.best_of_k(positions, truth, mask)
        else:
            with ad.no_grad():
                result = model.forward(scene)
            first = result.positions()[:, :usable]
            bok_ade = bok_fde = None
        scene_ade = metrics.ade(first, truth, mask)
        scene_fde, _ = metrics._fde(first, truth, mask)   # fallback is routine here
        ades.append(scene_ade)
        fdes.append(scene_fde)
        bok_ades.append(bok_ade if bok_ade is not None else scene_ade)
        bok_fdes.append(bok_fde if bok_fde is not None else scene_fde)
        fractions.extend(metrics.frame_collision_fractions(first, mask))
        n_peds += scene.n_peds
    if not ades:
        raise metrics.EmptyMetricError("evaluate: no scorable scenes")
    ncr = float(np.mean(fractions) * 100.0) if fractions else 0.0
    report = metrics.MetricReport(
        ade=float(np.mean(ades)), fde=float(np.mean(fdes)),
        best_of_k_ade=float(np.mean(bok_ades)),
        best_of_k_fde=float(np.mean(bok_fdes)),
        near_collision_pct=ncr, n_scenes=len(ades), n_peds=n_peds)
    report.validate()
    return report


def sweep_horizons(cfg: ModelConfig, params: ad.ParamStore, records: list,
                   pred_lens=(8, 12, 20), k: int = 1,
                   seed: int = 0) -> dict[int, metrics.MetricReport]:
    """Evaluate one parameter set at several prediction horizons.

    The recurrent decoder is horizon-agnostic, so the same parameters are
    scored against windows rebuilt per horizon from the raw records.
    """
    out = {}
    for pred_len in pred_lens:
        horizon_cfg = ModelConfig.from_dict(cfg.to_dict())
        horizon_cfg.pred_len = int(pred_len)
        windows = make_windows(records, obs_len=cfg.obs_len,
                               pred_len=int(pred_len))
        out[int(pred_len)] = evaluate(horizon_cfg, params, windows,
                                      k=k, seed=seed)
    return out


# -- loss-curve CSV ----------------------------------------------------------

CURVE_HEADER = "epoch,term,value"


def write_curve(path, rows: list) -> None:
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write curve {path}: {exc}") from exc
    with fh:
        fh.write(CURVE_HEADER + "\n")
        for epoch, term, value in rows:
            fh.write("%d,%s,%.17g\n" % (epoch, term, value))


def read_curve(path) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CURVE_HEADER:
            raise DataError(f"unrecognized curve header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            epoch, term, value = line.split(",")
            rows.append((int(epoch), term, float(value)))
    return rows


# -- checkpointing -----------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _unjsonable(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["__ndarray__"], dtype=obj["dtype"])
        return {key: _unjsonable(value) for key, value in obj.items()}
    return obj


_BODY_START = len(CHECKPOINT_MAGIC) + 4 + 32    # magic, version, SHA-256 digest


def _digest_rest(fh) -> bytes:
    """SHA-256 of a file from its position to its end, read in chunks."""
    sha = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        sha.update(chunk)
    return sha.digest()


def _write_table(fh, entries: dict[str, np.ndarray]) -> None:
    fh.write(struct.pack("<I", len(entries)))
    for name, values in entries.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(values, dtype="<f8")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(arr.tobytes())


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise DataError("checkpoint truncated")
    return data


def _read_table(fh) -> dict[str, np.ndarray]:
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
        name = _read_exact(fh, name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
        shape = tuple(struct.unpack("<I", _read_exact(fh, 4))[0]
                      for _ in range(ndim))
        n_items = int(np.prod(shape)) if shape else 1
        payload = _read_exact(fh, 8 * n_items)
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return out


def _adam_text(prefix: str, opt: ad.Adam) -> list[str]:
    return [f"{prefix}.t={opt.t}",
            f"{prefix}.lr={opt.lr!r}",
            f"{prefix}.beta1={opt.beta1!r}",
            f"{prefix}.beta2={opt.beta2!r}",
            f"{prefix}.eps={opt.eps!r}"]


def _load_adam(store: ad.ParamStore, text: dict[str, str], prefix: str,
               moments: dict[str, np.ndarray]) -> ad.Adam:
    opt = ad.Adam(store, lr=float(text[f"{prefix}.lr"]),
                  beta1=float(text[f"{prefix}.beta1"]),
                  beta2=float(text[f"{prefix}.beta2"]),
                  eps=float(text[f"{prefix}.eps"]))
    opt.t = int(text[f"{prefix}.t"])
    for name in store.names():
        opt.m[name][...] = moments[f"m/{name}"]
        opt.v[name][...] = moments[f"v/{name}"]
    return opt


def save_checkpoint(path, state: TrainState) -> None:
    """Freeze a training run into the versioned, digest-checked container."""
    lines = [f"epoch={state.epoch}", f"seed={state.hub.seed}"]
    for key, value in state.cfg.to_dict().items():
        lines.append(f"model.{key}={value}")
    lines.extend(_adam_text("adam", state.opt))
    lines.append(f"has_disc={'true' if state.disc_params is not None else 'false'}")
    if state.disc_opt is not None:
        lines.extend(_adam_text("adam_disc", state.disc_opt))
    lines.append("rng=" + json.dumps(_jsonable(state.hub.state()),
                                     sort_keys=True))
    text = "\n".join(lines).encode("utf-8")

    params: dict[str, np.ndarray] = {name: node.values
                                     for name, node in state.params.items()}
    if state.disc_params is not None:
        params.update({name: node.values
                       for name, node in state.disc_params.items()})
    moments: dict[str, np.ndarray] = {}
    for prefix_opt in (state.opt, state.disc_opt):
        if prefix_opt is None:
            continue
        for name, values in prefix_opt.m.items():
            moments[f"m/{name}"] = values
        for name, values in prefix_opt.v.items():
            moments[f"v/{name}"] = values

    try:
        fh = open(path, "w+b")
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {path}: {exc}") from exc
    with fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + bytes(32))
        fh.write(struct.pack("<Q", len(text)) + text)
        _write_table(fh, params)
        _write_table(fh, moments)
        fh.seek(_BODY_START)
        digest = _digest_rest(fh)
        fh.seek(_BODY_START - 32)
        fh.write(digest)


def load_checkpoint(path) -> TrainState:
    """Rebuild a TrainState that continues bit-exactly from the save; any
    file whose digest does not match raises DataError before parsing."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"not a checkpoint: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}; this "
                            f"reader supports version {CHECKPOINT_VERSION} only")
        digest = _read_exact(fh, 32)
        if _digest_rest(fh) != digest:
            raise DataError("checkpoint corrupt or truncated: SHA-256 digest mismatch")
        fh.seek(_BODY_START)
        (text_len,) = struct.unpack("<Q", _read_exact(fh, 8))
        text_block = _read_exact(fh, text_len).decode("utf-8")
        param_table = _read_table(fh)
        moment_table = _read_table(fh)

    text: dict[str, str] = {}
    for line in text_block.splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        text[key] = value
    cfg = ModelConfig.from_dict(
        {key[len("model."):]: value for key, value in text.items()
         if key.startswith("model.")})

    params = ad.ParamStore()
    disc_params = ad.ParamStore() if text.get("has_disc") == "true" else None
    for name, values in param_table.items():
        if name.startswith("disc.") and disc_params is not None:
            disc_params.register(name, values)
        else:
            params.register(name, values)

    opt = _load_adam(params, text, "adam", moment_table)
    disc_opt = (_load_adam(disc_params, text, "adam_disc", moment_table)
                if disc_params is not None else None)

    hub = ad.RngHub(int(text["seed"]))
    hub.load_state(_unjsonable(json.loads(text["rng"])))
    return TrainState(cfg, params, opt, hub, int(text["epoch"]),
                      disc_params, disc_opt)
