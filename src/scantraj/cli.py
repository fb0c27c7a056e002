"""Command-line entry point.

Subcommands: train, evaluate, predict, sweep, inspect-domain, synth.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Configuration is a flat key=value file with one section per module
([model], [train], [gan], [data]); any value can be overridden with
repeated ``--set section.key=value`` flags. The SCANTRAJ_DATA environment
variable supplies the default root for relative ``--data`` paths. All
output files land under caller-supplied paths, never anywhere else.
Only the drawing commands (predict, inspect-domain) import ``plots``.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from dataclasses import dataclass

from . import data as sd
from . import generative as gn
from . import training as tr
from .errors import DataError, EmptyMetricError, NumericError
from .metrics import CSV_HEADER
from .model import ModelConfig, config_from_dict, config_keys

DATA_ROOT_ENV = "SCANTRAJ_DATA"
EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


@dataclass
class DataSection:
    """The ``[data]`` section: a records file and the window stride."""
    file: str = ""
    stride: int = 1


MODEL_KEYS = config_keys(ModelConfig)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


# -- configuration ------------------------------------------------------------

_SECTIONS = {"model": ModelConfig.from_dict,       # as a checkpoint header
             "train": functools.partial(config_from_dict, tr.TrainConfig),
             "gan": functools.partial(config_from_dict, gn.GanConfig),
             "data": functools.partial(config_from_dict, DataSection)}


def load_config(path, sets) -> dict:
    """Sectioned key=value file plus --set overrides, each section parsed
    once by its codec, whatever the command; absent sections are absent.
    ``"keys"`` maps each section to the keys it sets."""
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise DataError(f"malformed config {path}: {exc}") from exc
    out = {section: dict(parser[section]) for section in parser.sections()}
    for item in sets or []:
        key_path, sep, value = item.partition("=")
        section, dot, key = key_path.partition(".")
        if not sep or not dot or not section or not key:
            raise _UsageError(f"--set expects section.key=value, got {item!r}")
        out.setdefault(section, {})[key] = value
    parsed = {"keys": {section: tuple(entries) for section, entries in out.items()}}
    for section, entries in out.items():
        if section not in _SECTIONS:
            raise DataError(f"unknown config section [{section}]")
        try:
            parsed[section] = _SECTIONS[section](entries)
        except ValueError as exc:
            raise DataError(f"bad [{section}] config: {exc}") from exc
    return parsed


def _checkpoint_state(path, cfgmap, resume: bool = False) -> tr.TrainState:
    """The checkpoint at ``path``; a [model] key, or when ``resume`` a [train]
    lr or seed, set to another value than the checkpoint's is a DataError
    naming the key and both values."""
    state = tr.load_checkpoint(path)
    kept = {"model": {key: getattr(state.cfg, key) for key in MODEL_KEYS},
            "train": {"lr": state.opt.lr, "seed": state.hub.seed} if resume else {}}
    for section, values in kept.items():
        asked = cfgmap.get(section)
        for key in cfgmap["keys"].get(section, ()):
            if key in values and getattr(asked, key) != values[key]:
                raise DataError(f"[{section}] {key} = {getattr(asked, key)!r} differs from "
                                f"{values[key]!r} in checkpoint {path}; a checkpoint "
                                f"keeps its own architecture, learning rate and seed")
    return state


def _train_config(cfgmap) -> tr.TrainConfig:
    conf = cfgmap.get("train", tr.TrainConfig())
    conf.gan = cfgmap.get("gan")
    try:
        conf.validate()
    except ValueError as exc:
        raise DataError(f"bad train config: {exc}") from exc
    return conf


# -- data sources -------------------------------------------------------------

def _data_path(raw: str) -> str:
    root = os.environ.get(DATA_ROOT_ENV)
    if root and not os.path.isabs(raw):
        return os.path.join(root, raw)
    return raw


def _parse_synth(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--synth expects kind:count:seed, got {spec!r}")
    kind, count, seed = parts
    if kind not in sd.SCENARIO_KINDS:
        raise _UsageError(f"unknown scenario kind {kind!r}; choose from "
                          f"{', '.join(sd.SCENARIO_KINDS)}")
    try:
        return kind, int(count), int(seed)
    except ValueError:
        raise _UsageError(f"--synth expects integer count and seed, got {spec!r}")


def _synth_scenes(args, obs_len: int, pred_len: int):
    """The --synth scenes, or None without --synth."""
    if not getattr(args, "synth", None):
        return None
    if getattr(args, "data", None):
        raise _UsageError("pass --data or --synth, not both")
    return sd.synth_scenarios(*_parse_synth(args.synth), obs_len=obs_len,
                              pred_len=pred_len)


def _resolve_records(args, cfgmap, obs_len: int, pred_len: int) -> list:
    """Raw records from --data or --synth (exactly one must be given)."""
    scenes = _synth_scenes(args, obs_len, pred_len)
    if scenes is not None:
        return sd.scenes_to_records(scenes)
    raw = getattr(args, "data", None) or cfgmap.get("data", DataSection()).file
    if not raw:
        raise _UsageError("no data source: pass --data FILE or --synth "
                          "kind:count:seed (or set [data] file in the config)")
    return sd.load_dataset(_data_path(raw))


def _resolve_windows(args, cfgmap, cfg: ModelConfig) -> list:
    """Windows of ``cfg``'s geometry (a checkpoint's, not the config
    file's, when scoring one) from --data or --synth."""
    windows = _synth_scenes(args, cfg.obs_len, cfg.pred_len)
    if windows is None:
        stride = cfgmap.get("data", DataSection()).stride
        records = _resolve_records(args, cfgmap, cfg.obs_len, cfg.pred_len)
        windows = sd.make_windows(records, obs_len=cfg.obs_len,
                                  pred_len=cfg.pred_len, stride=stride)
    if not windows:
        raise DataError("data source produced no usable scene windows")
    return windows


# -- subcommands --------------------------------------------------------------

def _emit(text: str, out) -> None:
    """Print a report and, when ``out`` is given, also write it there."""
    sys.stdout.write(text)
    if out:
        sd.write_text(out, text)


def cmd_train(args) -> int:
    sd.make_dir(os.path.dirname(str(args.out)) or ".")   # fail before training
    cfgmap = load_config(args.config, args.set)
    conf = _train_config(cfgmap)
    if args.resume:
        state = _checkpoint_state(args.resume, cfgmap, resume=True)
        cfg = state.cfg
    else:
        state = None
        cfg = cfgmap.get("model", ModelConfig())
    if conf.gan is not None and not cfg.generative:
        raise DataError("a [gan] section requires model.generative = true")
    windows = _resolve_windows(args, cfgmap, cfg)
    loop = tr.train_gan if conf.gan is not None else tr.train_deterministic
    state, curve = loop(windows, cfg, conf, state=state)
    tr.save_checkpoint(args.out, state)
    curve_path = os.path.splitext(str(args.out))[0] + "_curve.csv"
    tr.write_curve(curve_path, curve)
    train_rows = [v for (_, term, v) in curve
                  if term in ("train_loss", "total")]
    tail = f", final loss {train_rows[-1]:.6g}" if train_rows else ""
    print(f"trained {state.epoch} epochs on {len(windows)} windows{tail}")
    print(f"checkpoint: {args.out}")
    print(f"loss curve: {curve_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfgmap = load_config(args.config, args.set)
    state = _checkpoint_state(args.ckpt, cfgmap)
    windows = _resolve_windows(args, cfgmap, state.cfg)
    k = args.k if args.k is not None else tr.default_k(state.cfg)
    report = tr.evaluate(state.cfg, state.params, windows, k=k,
                         seed=args.seed)
    _emit(report.to_csv(), args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    cfgmap = load_config(args.config, args.set)
    state = _checkpoint_state(args.ckpt, cfgmap)      # fail before reading data
    windows = _resolve_windows(args, cfgmap, state.cfg)
    from . import plots
    written = plots.emit_plots(args.ckpt, windows, args.out, k=args.k,
                               lam_label=args.gan_lambda, seed=args.seed,
                               max_scenes=args.scenes)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfgmap = load_config(args.config, args.set)
    state = _checkpoint_state(args.ckpt, cfgmap)
    try:
        pred_lens = tuple(int(p) for p in args.pred_lens.split(","))
    except ValueError:
        raise _UsageError(f"--pred-lens expects integers, got {args.pred_lens!r}")
    records = _resolve_records(args, cfgmap, state.cfg.obs_len, max(pred_lens))
    k = args.k if args.k is not None else tr.default_k(state.cfg)
    reports = tr.sweep_horizons(state.cfg, state.params, records,
                                pred_lens=pred_lens, k=k, seed=args.seed)
    lines = ["pred_len," + CSV_HEADER]
    for pred_len in sorted(reports):
        lines.append(f"{pred_len},{reports[pred_len].csv_row()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_inspect_domain(args) -> int:
    state = tr.load_checkpoint(args.ckpt)
    if args.which == "disc":
        if state.disc_params is None or "disc.domain_grid" not in state.disc_params:
            raise DataError("checkpoint has no critic domain grid")
        grid = state.disc_params["disc.domain_grid"].values
    else:
        grid = state.params["domain_grid"].values
    sd.make_dir(args.out)
    base = os.path.join(args.out, "domain_grid" if args.which == "model"
                        else "domain_grid_disc")
    from . import plots
    written = plots.domain_heatmap(base, grid)
    m, n = grid.shape
    print(f"{m} bearing bins x {n} heading bins; "
          f"reach {grid.min():.6g} .. {grid.max():.6g} m "
          f"(mean {grid.mean():.6g})")
    for path in written:
        print(path)
    return EXIT_OK


def cmd_synth(args) -> int:
    scenes = sd.synth_scenarios(args.kind, args.n, args.seed,
                                obs_len=args.obs_len, pred_len=args.pred_len)
    try:
        sd.write_scenes(args.out, scenes)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(scenes)} {args.kind} scenes to {args.out}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def _add_config_flags(p) -> None:
    p.add_argument("--config", help="sectioned key=value configuration file")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override one config value (repeatable)")


def _add_data_flags(p) -> None:
    p.add_argument("--data", help=f"raw trajectory file (frame ped x y per "
                   f"line); relative paths resolve under ${DATA_ROOT_ENV}")
    p.add_argument("--synth", metavar="KIND:COUNT:SEED",
                   help="generate seeded synthetic scenes instead of reading "
                        f"a file; kinds: {', '.join(sd.SCENARIO_KINDS)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="scantraj",
                     description="Socially aware trajectory forecasting: "
                                 "train, evaluate, and inspect models.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--out", required=True, help="checkpoint output path "
                   "(the loss curve lands next to it as *_curve.csv)")
    p.add_argument("--resume", help="continue from an existing checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--ckpt", required=True, help="checkpoint to score")
    p.add_argument("--k", type=int, help="samples per scene "
                   "(default: 20 generative, 1 deterministic)")
    p.add_argument("--seed", type=int, default=0, help="evaluation seed")
    p.add_argument("--out", help="also write the report CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="emit trajectory/domain/diversity "
                                       "figures with backing CSVs")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, help="samples per scene")
    p.add_argument("--scenes", type=int, default=4,
                   help="how many scenes to render")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gan-lambda", type=float, default=0.0,
                   help="diversity-weight label for fan-grid titles")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="evaluate one checkpoint at several "
                                     "prediction horizons")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pred-lens", default="8,12,20",
                   help="comma-separated horizons (default 8,12,20)")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the sweep CSV here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect-domain", help="export the learned domain "
                                              "grid as CSV + heatmap")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--which", choices=("model", "disc"), default="model",
                   help="which half's grid (generator or critic)")
    p.set_defaults(func=cmd_inspect_domain)

    p = sub.add_parser("synth", help="write seeded synthetic scenes as a "
                                     "raw trajectory file")
    p.add_argument("--kind", choices=sd.SCENARIO_KINDS, required=True)
    p.add_argument("--n", type=int, default=50, help="scene count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--obs-len", type=int, default=8)
    p.add_argument("--pred-len", type=int, default=12)
    p.add_argument("--out", required=True, help="output records file")
    p.set_defaults(func=cmd_synth)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:            # argparse --help
        code = exc.code
        return int(code) if code else EXIT_OK
    except ValueError as exc:            # e.g. k > 1 on a deterministic model
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, EmptyMetricError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
