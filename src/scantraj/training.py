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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import generative as gn
from . import metrics
from .data import make_windows
from .errors import DataError, NumericError
from .model import (ModelConfig, ScanModel, build_params, config_to_dict,
                    trajectory_loss)

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


def _run_epochs(windows: list, tcfg: TrainConfig, state: TrainState, step) -> tuple:
    """The epoch loop of both trainers, from ``state.epoch`` to ``tcfg.epochs``.

    Each epoch shuffles the scenes (one draw from the shuffle stream),
    chunks them into batches and hands the non-empty scenes of every batch
    to ``step(scenes, epoch)``. The step trains on them and returns
    ``(terms, weight)``: the batch's loss terms as floats and its weight in
    the epoch means, or None when nothing in the batch was trainable. The
    curve gets each term's weighted mean per epoch, in the order the terms
    come; score held-out data with ``evaluate`` once training ends.
    """
    curve: list[tuple] = []
    for epoch in range(state.epoch, tcfg.epochs):
        sums: dict[str, float] = {}
        weight = 0
        order = state.hub.stream(SHUFFLE_STREAM).permutation(len(windows))
        shuffled = [windows[int(i)] for i in order]
        for start in range(0, len(shuffled), tcfg.batch_size):
            live = [scene for scene in shuffled[start:start + tcfg.batch_size]
                    if scene.n_peds > 0]
            done = step(live, epoch) if live else None
            if done is None:
                continue
            terms, n = done
            for term, value in terms.items():
                sums[term] = sums.get(term, 0.0) + value * n
            weight += n
        if weight == 0:
            raise ValueError("no trainable scenes in the dataset")
        curve.extend((epoch, term, total / weight) for term, total in sums.items())
        state.epoch = epoch + 1
    return state, curve


def train_deterministic(windows: list, cfg: ModelConfig, tcfg: TrainConfig,
                        state: Optional[TrainState] = None):
    """Minimize the mean squared trajectory error with Adam.

    Each batch runs as one pass: its non-empty scenes are encoded and
    decoded together, side by side (``cells.SceneLayout``), and split into
    per-scene views. The batch loss is each scene's own ``trajectory_loss``
    averaged over the scenes that have one, left to right, so a scene in a
    batch counts exactly as it would alone; the epoch's ``train_loss`` is
    the mean over every scene that had one.

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

    def step(live: list, epoch: int):
        with ad.Tape(grads_for=state.params.nodes()) as tape:
            views = model.forward(live).per_scene(live)
            losses = [loss for loss in map(trajectory_loss, views, live)
                      if loss is not None]
            batch_loss = ad.mean_of(losses)
            if batch_loss is None:
                return None
            if not np.isfinite(batch_loss.values):
                raise NumericError(f"train loss is not finite at epoch {epoch}"
                                   + ad.nonfinite_origin(batch_loss))
            state.params.zero_grads()
            tape.backward(batch_loss)
            state.opt.step()
        return {"train_loss": float(batch_loss.values)}, len(losses)

    return _run_epochs(windows, tcfg, state, step)


def train_gan(windows: list, cfg: ModelConfig, tcfg: TrainConfig,
              state: Optional[TrainState] = None):
    """Alternating critic/generator training; returns (state, curve).

    Per-epoch curve rows carry each loss term separately (disc,
    adversarial, variety, diversity, total), averaged over batches.

    Every window must span the model's obs_len + pred_len steps, because
    real and generated tracks share the critic passes: a shorter one raises
    ``ShapeError`` naming both lengths (``train_deterministic`` trains it on
    the steps it has).
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

    def step(live: list, epoch: int):
        return gn.gan_train_step(model, state.disc_params, live, tcfg.gan,
                                 state.opt, state.disc_opt, noise_rng), 1

    return _run_epochs(windows, tcfg, state, step)


# -- evaluation -------------------------------------------------------------

def default_k(cfg: ModelConfig) -> int:
    """Samples per scene when the caller names none: best-of-20 for a
    generative model, the one forecast of a deterministic model."""
    return 20 if cfg.generative else 1


def evaluate(cfg: ModelConfig, params: ad.ParamStore, windows: list,
             k: int = 1, seed: int = 0) -> metrics.MetricReport:
    """Score a parameter set over held-out windows.

    At k = 1 every configuration scores its zero-noise forecast,
    ``model.forward(scene)``; ``predict`` and the plots draw one noisy
    sample instead. At k > 1 (generative only) each window draws k seeded
    futures from its own noise stream: the ade/fde columns use the first
    sample, best-of-k the whole set. All error fields are unweighted means
    of per-scene values; the near-collision rate pools frames across
    scenes. Evaluating twice with one seed gives identical reports. Each
    window's futures come from ``generative.window_futures`` under
    ``ad.no_grad()``, which records nothing and gives a recorded pass's
    values bit for bit; futures that are not all finite raise
    ``NumericError`` naming the first op whose output went non-finite. So
    does a window whose finite predictions lie too far away to score as a
    finite error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 1 and not cfg.generative:
        raise ValueError(gn.NEEDS_GENERATIVE)
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
        rng = hub.derive(EVAL_NOISE_STREAM, index) if cfg.generative and k > 1 else None
        positions = gn.window_futures(model, scene, f"evaluate: window {index}",
                                      rng, k)[..., :usable, :]
        first = positions[0]
        scene_ade = metrics.ade(first, truth, mask)
        scene_fde, _ = metrics._fde(first, truth, mask)   # fallback is routine here
        bok = (scene_ade, scene_fde) if rng is None else metrics.best_of_k(positions, truth, mask)
        if not np.isfinite([scene_ade, scene_fde, *bok]).all():
            raise NumericError(f"evaluate: window {index} scores a non-finite error: its "
                               f"predicted positions reach {np.abs(positions).max():.3g} m")
        ades.append(scene_ade)
        fdes.append(scene_fde)
        bok_ades.append(bok[0])
        bok_fdes.append(bok[1])
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
        horizon_cfg = replace(cfg, pred_len=int(pred_len))
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


def _adam_header(prefix: str, opt: ad.Adam, moments: dict) -> list[str]:
    """Header lines for the scalars of ``opt.state()``; its moment tables go
    into ``moments`` as ``m/<name>`` and ``v/<name>``."""
    lines = []
    for key, value in opt.state().items():
        if isinstance(value, dict):
            moments.update({f"{key}/{name}": arr for name, arr in value.items()})
        else:
            lines.append(f"{prefix}.{key}={value!r}")
    return lines


# Adam's constants as older headers carry them: dropped at that value, refused at any other.
RETIRED_ADAM_KEYS = {"beta1": ad.Adam.BETA1, "beta2": ad.Adam.BETA2, "eps": ad.Adam.EPS}


def _header_value(path, text: dict[str, str], key: str, cast):
    """``cast`` of header line ``key``; a missing or malformed line is a
    DataError naming the key."""
    try:
        return cast(text[key])
    except (KeyError, ValueError) as exc:
        problem = f"bad value {text[key]!r}" if key in text else "no such line"
        raise DataError(f"checkpoint {path}: header {key}: {problem}") from exc


def _check_table(path, store: ad.ParamStore, built: ad.ParamStore) -> None:
    """A DataError naming the first entry of the parameter table ``store``
    that is missing, misshaped or unexpected against ``built``, the store
    its model config makes."""
    for name, node in built.items():
        if name not in store or store[name].shape != node.shape:
            raise DataError(f"checkpoint {path}: parameter {name}: " + (
                f"shape {store[name].shape}, its model config makes {node.shape}"
                if name in store else "missing"))
    extra = [name for name in store.names() if name not in built]
    if extra:
        raise DataError(f"checkpoint {path}: parameter {extra[0]}: not made by its model config")


def _adam_from(path, store: ad.ParamStore, prefix: str, text: dict[str, str],
               moments: dict[str, np.ndarray]) -> ad.Adam:
    """The optimizer ``_adam_header`` saved, rebuilt through ``Adam.load_state``;
    a moment entry missing for one of ``store``'s parameters, or shaped
    unlike it, is a DataError naming it. Each entry used is taken out of
    ``moments``."""
    for key, kept in RETIRED_ADAM_KEYS.items():
        value = text.get(f"{prefix}.{key}", repr(kept))
        if value != repr(kept):
            raise DataError(f"checkpoint {path}: {prefix}.{key} = {value} differs "
                            f"from {kept!r}, the only value Adam implements")

    def moment(entry: str, shape: tuple) -> np.ndarray:
        if entry not in moments:
            raise DataError(f"checkpoint {path}: the moment table has no {entry} entry")
        if moments[entry].shape != shape:
            raise DataError(f"checkpoint {path}: moment {entry}: shape "
                            f"{moments[entry].shape}, its parameter has {shape}")
        return moments.pop(entry)

    opt = ad.Adam(store)
    opt.load_state({key: ({name: moment(f"{key}/{name}", store[name].shape) for name in value}
                          if isinstance(value, dict)
                          else _header_value(path, text, f"{prefix}.{key}", type(value)))
                    for key, value in opt.state().items()})
    return opt


def save_checkpoint(path, state: TrainState) -> None:
    """Freeze a training run into the versioned, digest-checked container."""
    lines = [f"epoch={state.epoch}", f"seed={state.hub.seed}"]
    lines += [f"model.{key}={value}" for key, value in config_to_dict(state.cfg).items()]
    moments: dict[str, np.ndarray] = {}
    lines += _adam_header("adam", state.opt, moments)
    lines.append(f"has_disc={'true' if state.disc_params is not None else 'false'}")
    if state.disc_opt is not None:
        lines += _adam_header("adam_disc", state.disc_opt, moments)
    lines.append("rng=" + json.dumps(_jsonable(state.hub.state()),
                                     sort_keys=True))
    text = "\n".join(lines).encode("utf-8")

    params: dict[str, np.ndarray] = {name: node.values
                                     for name, node in state.params.items()}
    if state.disc_params is not None:
        params.update({name: node.values
                       for name, node in state.disc_params.items()})

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
    try:
        cfg = ModelConfig.from_dict({key[len("model."):]: value
                                     for key, value in text.items()
                                     if key.startswith("model.")})
    except ValueError as exc:
        raise DataError(f"checkpoint {path}: bad model config: {exc}") from exc

    params = ad.ParamStore()
    has_disc = _header_value(path, text, "has_disc", ("false", "true").index)
    disc_params = ad.ParamStore() if has_disc else None
    for name, values in param_table.items():
        if name.startswith("disc.") and disc_params is not None:
            disc_params.register(name, values)
        else:
            params.register(name, values)
    _check_table(path, params, build_params(cfg, ad.RngHub(0)))
    if disc_params is not None:
        _check_table(path, disc_params, gn.build_discriminator_params(cfg, ad.RngHub(0)))

    opt = _adam_from(path, params, "adam", text, moment_table)
    disc_opt = (_adam_from(path, disc_params, "adam_disc", text, moment_table)
                if disc_params is not None else None)
    if moment_table:
        raise DataError(f"checkpoint {path}: moment {next(iter(moment_table))}: "
                        "names no parameter of either optimizer")

    hub = ad.RngHub(_header_value(path, text, "seed", int))
    hub.load_state(_header_value(path, text, "rng", lambda raw: _unjsonable(json.loads(raw))))
    return TrainState(cfg, params, opt, hub, _header_value(path, text, "epoch", int),
                      disc_params, disc_opt)
