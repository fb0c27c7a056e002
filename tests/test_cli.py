"""End-to-end command-line tests driving run() in process."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scantraj import cli
from scantraj import data as sd
from scantraj import model as sm
from scantraj import training as tr
from scantraj.generative import GanConfig
from scantraj.metrics import MetricReport

from test_model import RETIRED_OTHER
from test_training import retabled

MICRO_CONFIG = """\
[model]
embed_dim = 3
hidden_dim = 4
obs_len = 3
pred_len = 2
bearing_bin_deg = 120.0
heading_bin_deg = 120.0
variant = vanilla

[train]
epochs = 2
batch_size = 4
lr = 0.01
seed = 3
"""

GAN_CONFIG = """\
[model]
embed_dim = 3
hidden_dim = 4
obs_len = 3
pred_len = 2
bearing_bin_deg = 120.0
heading_bin_deg = 120.0
variant = scan
generative = true
noise_dim = 3

[train]
epochs = 2
batch_size = 4
lr = 0.01
seed = 3

[gan]
k = 2
variety_weight = 1.0
diversity_weight = 0.5
"""


@pytest.fixture
def micro_config(tmp_path):
    path = tmp_path / "micro.cfg"
    path.write_text(MICRO_CONFIG)
    return str(path)


@pytest.fixture
def trained_ckpt(tmp_path, micro_config):
    ckpt = str(tmp_path / "model.ckpt")
    code = cli.run(["train", "--config", micro_config,
                    "--synth", "straight:4:1", "--out", ckpt])
    assert code == 0
    return ckpt


def fresh_python(*args):
    """Run a new interpreter with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("module", ["scantraj", "scantraj.cli"])
def test_the_package_runs_as_a_module_without_a_warning(module):
    proc = fresh_python("-W", "error", "-m", module, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: scantraj") and proc.stderr == ""


ON_FIRST_USE = ("scantraj.plots", "scantraj.cli", "xml.sax", "urllib.request",
                "argparse", "configparser")


def loaded_after(code):
    """Which of ``ON_FIRST_USE`` a fresh interpreter holds after ``code``."""
    proc = fresh_python("-c", f"import json, sys\n{code}\nprint(json.dumps("
                        f"[m for m in {ON_FIRST_USE!r} if m in sys.modules]))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestColdStart:
    def test_import_loads_only_the_forecasting_core(self):
        assert loaded_after("import scantraj") == []

    def test_plots_and_cli_resolve_on_first_use(self):
        code = ("import scantraj\n"
                "assert {'plots', 'cli'} <= set(dir(scantraj))\n"
                "assert scantraj.plots.__name__ == 'scantraj.plots'\n"
                "from scantraj import cli\n"
                "assert cli is scantraj.cli and callable(cli.main)")
        assert loaded_after(code) == ["scantraj.plots", "scantraj.cli",
                                      "argparse", "configparser"]

    def test_unknown_attributes_still_raise(self):
        import scantraj
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            scantraj.nope

    def test_commands_that_do_not_draw_leave_plots_unloaded(self, tmp_path,
                                                            trained_ckpt):
        rows = str(tmp_path / "rows.txt")
        code = ("from scantraj import cli\n"
                f"assert cli.run(['synth', '--kind', 'straight', '--n', '2', "
                f"'--obs-len', '3', '--pred-len', '2', '--out', {rows!r}]) == 0\n"
                f"assert cli.run(['evaluate', '--ckpt', {trained_ckpt!r}, "
                f"'--data', {rows!r}]) == 0")
        assert "scantraj.plots" not in loaded_after(code)

    def test_predict_loads_plots(self, tmp_path, trained_ckpt):
        code = ("from scantraj import cli\n"
                f"assert cli.run(['predict', '--ckpt', {trained_ckpt!r}, "
                f"'--synth', 'straight:2:7', '--scenes', '1', "
                f"'--out', {str(tmp_path / 'figs')!r}]) == 0")
        assert "scantraj.plots" in loaded_after(code)


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli.run(["train", "--bogus", "x"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert cli.run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("train", "evaluate", "predict", "sweep",
                     "inspect-domain", "synth"):
            assert name in out

    def test_subcommand_help_exits_zero(self, capsys):
        assert cli.run(["train", "--help"]) == 0
        assert "--out" in capsys.readouterr().out

    def test_malformed_set_flag(self, micro_config, tmp_path, capsys):
        code = cli.run(["train", "--config", micro_config,
                        "--synth", "straight:2:1", "--set", "epochs=5",
                        "--out", str(tmp_path / "x.ckpt")])
        assert code == 1
        assert "section.key=value" in capsys.readouterr().err

    def test_both_data_sources_rejected(self, micro_config, tmp_path):
        code = cli.run(["train", "--config", micro_config, "--data", "a.txt",
                        "--synth", "straight:2:1",
                        "--out", str(tmp_path / "x.ckpt")])
        assert code == 1

    def test_bad_synth_spec(self, micro_config, tmp_path):
        for spec in ("straight:2", "warp:2:1", "straight:two:1"):
            code = cli.run(["train", "--config", micro_config,
                            "--synth", spec,
                            "--out", str(tmp_path / "x.ckpt")])
            assert code == 1


class TestConfigHandling:
    def test_readme_lists_exactly_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = dict(re.findall(r"^\| `\[(\w+)\]` \| `([^`]*)`", readme, re.MULTILINE))
        assert {section: tuple(keys.split(", ")) for section, keys in table.items()} == {
            "model": sm.config_keys(sm.ModelConfig), "train": sm.config_keys(tr.TrainConfig),
            "gan": sm.config_keys(GanConfig), "data": sm.config_keys(cli.DataSection)}

    def test_unknown_config_key_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[model]\nwarp_factor = 9\n")
        code = cli.run(["train", "--config", str(cfg),
                        "--synth", "straight:2:1",
                        "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        assert "warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, code", [
        case for key, (kept, _) in sm.RETIRED_KEYS.items()
        for case in ((key, kept, 0), (key, RETIRED_OTHER[key], 2))])
    def test_removed_key_is_read_as_a_checkpoint_header_reads_it(
            self, micro_config, tmp_path, capsys, key, value, code):
        # The codec drops a retired key at its kept value and refuses any
        # other, naming the key and what to use instead.
        assert cli.run(["train", "--config", micro_config, "--synth", "straight:2:1",
                        "--set", f"model.{key}={value}",
                        "--out", str(tmp_path / "x.ckpt")]) == code
        err = capsys.readouterr().err
        assert (f"{key} was removed: {sm.RETIRED_KEYS[key][1]}" in err) == (code == 2)

    def test_unknown_key_is_named_whatever_the_command(self, tmp_path, trained_ckpt,
                                                       capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[data]\nstride = 2\n[gan]\nwarp_factor = 9\n")
        capsys.readouterr()
        code = cli.run(["evaluate", "--config", str(cfg), "--ckpt", trained_ckpt,
                        "--synth", "straight:2:1"])
        assert code == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = cli.run(["train", "--config", str(tmp_path / "absent.cfg"),
                        "--synth", "straight:2:1",
                        "--out", str(tmp_path / "x.ckpt")])
        assert code == 2

    def test_set_overrides_win(self, tmp_path, micro_config):
        ckpt = str(tmp_path / "small.ckpt")
        code = cli.run(["train", "--config", micro_config,
                        "--synth", "straight:3:1", "--out", ckpt,
                        "--set", "train.epochs=1",
                        "--set", "model.hidden_dim=5"])
        assert code == 0
        state = tr.load_checkpoint(ckpt)
        assert state.epoch == 1
        assert state.cfg.hidden_dim == 5


class TestSynthCommand:
    def test_writes_loadable_records(self, tmp_path):
        out = tmp_path / "straight.txt"
        code = cli.run(["synth", "--kind", "straight", "--n", "3",
                        "--seed", "1", "--obs-len", "3", "--pred-len", "2",
                        "--out", str(out)])
        assert code == 0
        records = sd.load_dataset(out)
        windows = sd.make_windows(records, obs_len=3, pred_len=2)
        # stride-1 re-windowing adds tail-masked offcuts around scene gaps;
        # the fully observed windows are the three original scenes
        assert len([w for w in windows if w.mask.all()]) == 3

    def test_a_negative_count_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = cli.run(["synth", "--kind", "straight", "--n", "-1", "--out", str(out)])
        assert code == 1
        assert "scene count must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_rejected(self, tmp_path):
        code = cli.run(["synth", "--kind", "teleport", "--out",
                        str(tmp_path / "x.txt")])
        assert code == 1

    @pytest.mark.parametrize("obs_len, pred_len", [("-2", "30"), ("8", "-3"), ("1", "12")])
    def test_impossible_lengths_exit_1_and_write_nothing(self, tmp_path, capsys, obs_len,
                                                         pred_len):
        out = tmp_path / "x.txt"
        code = cli.run(["synth", "--kind", "straight", "--n", "2", "--obs-len", obs_len,
                        "--pred-len", pred_len, "--out", str(out)])
        assert code == 1
        assert "need obs_len >= 2 and pred_len >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_happy_path_writes_checkpoint_and_curve(self, tmp_path,
                                                    micro_config, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        code = cli.run(["train", "--config", micro_config,
                        "--synth", "straight:4:1", "--out", ckpt])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out
        state = tr.load_checkpoint(ckpt)
        assert state.epoch == 2
        curve = tr.read_curve(tmp_path / "model_curve.csv")
        assert [e for (e, t, _) in curve if t == "train_loss"] == [0, 1]

    def test_out_path_in_a_fresh_directory_is_created(self, tmp_path,
                                                      micro_config):
        ckpt = str(tmp_path / "runs" / "a" / "model.ckpt")
        code = cli.run(["train", "--config", micro_config,
                        "--synth", "straight:4:1", "--out", ckpt])
        assert code == 0
        assert tr.load_checkpoint(ckpt).epoch == 2
        assert (tmp_path / "runs" / "a" / "model_curve.csv").exists()

    def test_out_path_through_a_file_fails_before_training(self, tmp_path,
                                                           micro_config,
                                                           capsys):
        (tmp_path / "blocker").write_text("")
        ckpt = str(tmp_path / "blocker" / "model.ckpt")
        code = cli.run(["train", "--config", micro_config,
                        "--synth", "straight:4:1", "--out", ckpt])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_gan_training_round_trips(self, tmp_path):
        cfg = tmp_path / "gan.cfg"
        cfg.write_text(GAN_CONFIG)
        ckpt = str(tmp_path / "gan.ckpt")
        code = cli.run(["train", "--config", str(cfg),
                        "--synth", "head_on:3:2", "--out", ckpt])
        assert code == 0
        state = tr.load_checkpoint(ckpt)
        assert state.disc_params is not None
        curve = tr.read_curve(tmp_path / "gan_curve.csv")
        assert {"disc", "adversarial", "variety", "diversity", "total"} == \
            {t for (_, t, _) in curve}

    def test_gan_section_requires_generative_model(self, tmp_path,
                                                   micro_config, capsys):
        code = cli.run(["train", "--config", micro_config,
                        "--synth", "straight:2:1", "--set", "gan.k=2",
                        "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        assert "generative" in capsys.readouterr().err

    def test_eval_every_is_an_unknown_key_refused_before_training(self, tmp_path,
                                                                  micro_config, capsys):
        # Training scores no held-out data, so the removed key is refused as
        # any unknown key is.
        ckpt = tmp_path / "x.ckpt"
        code = cli.run(["train", "--config", micro_config, "--synth", "straight:2:1",
                        "--set", "train.eval_every=0", "--out", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown key 'eval_every'" in err
        assert not ckpt.exists()

    def test_resume_continues_to_target_epochs(self, tmp_path, micro_config):
        first = str(tmp_path / "first.ckpt")
        assert cli.run(["train", "--config", micro_config,
                        "--synth", "straight:4:1", "--out", first,
                        "--set", "train.epochs=1"]) == 0
        final = str(tmp_path / "final.ckpt")
        assert cli.run(["train", "--config", micro_config,
                        "--synth", "straight:4:1", "--resume", first,
                        "--out", final]) == 0
        assert tr.load_checkpoint(final).epoch == 2

    def test_divergence_exits_3(self, tmp_path, micro_config, capsys):
        seed_ckpt = str(tmp_path / "seed.ckpt")
        assert cli.run(["train", "--config", micro_config,
                        "--synth", "straight:2:1", "--out", seed_ckpt,
                        "--set", "train.epochs=1"]) == 0
        state = tr.load_checkpoint(seed_ckpt)
        state.params["out.W"].values[:] = 1e300
        broken = str(tmp_path / "broken.ckpt")
        tr.save_checkpoint(broken, state)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.run(["train", "--config", micro_config,
                            "--synth", "straight:2:1", "--resume", broken,
                            "--out", str(tmp_path / "y.ckpt")])
        assert code == 3
        assert "numeric" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code = cli.run(["evaluate", "--ckpt", str(tmp_path / "nope.ckpt"),
                        "--synth", "straight:2:1"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_report_on_stdout_and_file(self, tmp_path, trained_ckpt, capsys):
        out = tmp_path / "report.csv"
        code = cli.run(["evaluate", "--ckpt", trained_ckpt,
                        "--synth", "straight:3:7", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        report = MetricReport.from_csv(text)
        assert report.n_scenes == 3
        assert out.read_text() == text

    def test_k_on_deterministic_checkpoint_exits_1(self, trained_ckpt,
                                                   capsys):
        code = cli.run(["evaluate", "--ckpt", trained_ckpt,
                        "--synth", "straight:2:7", "--k", "5"])
        assert code == 1
        assert "generative" in capsys.readouterr().err

    def test_relative_data_resolves_under_env_root(self, tmp_path,
                                                   trained_ckpt, monkeypatch):
        assert cli.run(["synth", "--kind", "straight", "--n", "2",
                        "--seed", "3", "--obs-len", "3", "--pred-len", "2",
                        "--out", str(tmp_path / "rows.txt")]) == 0
        monkeypatch.setenv(cli.DATA_ROOT_ENV, str(tmp_path))
        code = cli.run(["evaluate", "--ckpt", trained_ckpt,
                        "--data", "rows.txt"])
        assert code == 0

    @pytest.mark.parametrize("weight, message", [
        (np.inf, "predicts non-finite positions; first non-finite output: decoder_rollout"),
        (1e200, "scores a non-finite error: its predicted positions reach")])
    def test_non_finite_predictions_exit_3(self, tmp_path, trained_ckpt, capsys, weight,
                                           message):
        # inf makes the positions non-finite; 1e200 keeps them finite but too
        # far away for their error to be a finite number.
        state = tr.load_checkpoint(trained_ckpt)
        state.params["out.W"].values[...] = weight
        broken = str(tmp_path / "broken.ckpt")
        tr.save_checkpoint(broken, state)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.run(["evaluate", "--ckpt", broken, "--synth", "straight:2:7"])
        assert code == 3
        assert f"numeric failure: evaluate: window 0 {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["m", "v"])
    def test_a_missing_moment_entry_exits_2_naming_it(self, trained_ckpt, capsys, table):
        state = tr.load_checkpoint(trained_ckpt)
        del getattr(state.opt, table)["out.b"]
        tr.save_checkpoint(trained_ckpt, state)
        code = cli.run(["evaluate", "--ckpt", trained_ckpt, "--synth", "straight:2:7"])
        assert code == 2
        assert f"the moment table has no {table}/out.b entry" in capsys.readouterr().err

    def test_a_misshaped_moment_exits_2_naming_it(self, trained_ckpt, capsys):
        state = tr.load_checkpoint(trained_ckpt)
        state.opt.m["out.W"] = state.opt.m["out.W"][:1]
        tr.save_checkpoint(trained_ckpt, state)
        code = cli.run(["evaluate", "--ckpt", trained_ckpt, "--synth", "straight:2:7"])
        assert code == 2
        assert "moment m/out.W: shape (1, 4), its parameter has (2, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, values, problem", [
        ("out.b", None, "missing"),
        ("out.W", np.zeros((3, 4)), "shape (3, 4), its model config makes (2, 4)"),
        ("temporal.W", np.zeros((4, 8)), "not made by its model config"),
    ], ids=["missing", "misshaped", "unexpected"])
    def test_a_parameter_table_unlike_its_configs_exits_2_naming_the_entry(
            self, trained_ckpt, capsys, entry, values, problem):
        # The checkpoint is a vanilla model's, which has no temporal.W.
        tr.save_checkpoint(trained_ckpt,
                           retabled(tr.load_checkpoint(trained_ckpt), entry, values))
        code = cli.run(["evaluate", "--ckpt", trained_ckpt, "--synth", "straight:2:7"])
        assert code == 2
        assert f"parameter {entry}: {problem}" in capsys.readouterr().err


class TestPredictCommand:
    def test_emits_figures(self, tmp_path, trained_ckpt, capsys):
        out_dir = tmp_path / "figs"
        code = cli.run(["predict", "--ckpt", trained_ckpt,
                        "--synth", "straight:2:7", "--out", str(out_dir),
                        "--scenes", "1"])
        assert code == 0
        assert (out_dir / "trajectories_000.svg").exists()
        assert (out_dir / "trajectories_000.csv").exists()
        assert (out_dir / "domain_grid.csv").exists()
        listed = capsys.readouterr().out.strip().split("\n")
        assert str(out_dir / "domain_grid.csv") in listed

    def test_k_on_deterministic_checkpoint_exits_1(self, tmp_path, trained_ckpt, capsys):
        # As with evaluate, sampling needs a generative checkpoint; without
        # --k the deterministic forecast is drawn.
        args = ["predict", "--ckpt", trained_ckpt, "--synth", "straight:2:7",
                "--out", str(tmp_path / "figs"), "--scenes", "1"]
        assert cli.run(args + ["--k", "4"]) == 1
        assert "generative" in capsys.readouterr().err
        assert cli.run(args) == 0

    @pytest.mark.parametrize("scenes", ["0", "-1"])
    def test_scenes_below_one_exit_1_and_write_nothing(self, tmp_path, trained_ckpt, capsys,
                                                        scenes):
        out_dir = tmp_path / "figs"
        code = cli.run(["predict", "--ckpt", trained_ckpt, "--synth", "straight:3:7",
                        "--out", str(out_dir), "--scenes", scenes])
        assert code == 1
        assert f"scenes to render must be >= 1, got {scenes}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_exits_1(self, tmp_path, trained_ckpt, capsys, k):
        code = cli.run(["predict", "--ckpt", trained_ckpt, "--synth", "straight:2:7",
                        "--out", str(tmp_path / "figs"), "--scenes", "1", "--k", k])
        assert code == 1
        assert "k must be >= 1" in capsys.readouterr().err
        assert not list((tmp_path / "figs").glob("trajectories_*"))

    def test_non_finite_forecasts_exit_3(self, tmp_path, trained_ckpt, capsys):
        state = tr.load_checkpoint(trained_ckpt)
        state.params["out.W"].values[...] = np.inf
        broken = str(tmp_path / "broken.ckpt")
        tr.save_checkpoint(broken, state)
        out_dir = tmp_path / "figs"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.run(["predict", "--ckpt", broken, "--synth", "straight:2:7",
                            "--out", str(out_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert ("numeric failure: predict: scene 0 predicts non-finite positions; "
                "first non-finite output: decoder_rollout") in err
        assert not list(out_dir.glob("trajectories_*"))

    def test_generative_checkpoint_emits_diversity_grid(self, tmp_path):
        cfg = tmp_path / "gan.cfg"
        cfg.write_text(GAN_CONFIG)
        ckpt = str(tmp_path / "gan.ckpt")
        assert cli.run(["train", "--config", str(cfg),
                        "--synth", "head_on:2:2", "--out", ckpt]) == 0
        out_dir = tmp_path / "figs"
        code = cli.run(["predict", "--ckpt", ckpt,
                        "--synth", "head_on:1:5", "--out", str(out_dir),
                        "--k", "4", "--gan-lambda", "0.5"])
        assert code == 0
        grid_csv = (out_dir / "diversity_grid.csv").read_text()
        assert "4V-0.5" in grid_csv


class TestSweepCommand:
    def test_three_horizons(self, tmp_path, trained_ckpt, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.run(["sweep", "--ckpt", trained_ckpt,
                        "--synth", "straight:3:7", "--pred-lens", "1,2,4",
                        "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("pred_len,ade,fde")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "4"]
        assert out.read_text().strip().split("\n") == lines

    def test_bad_pred_lens_exits_1(self, trained_ckpt):
        assert cli.run(["sweep", "--ckpt", trained_ckpt,
                        "--synth", "straight:2:7",
                        "--pred-lens", "8,twelve"]) == 1


class TestInspectDomainCommand:
    def test_exports_grid(self, tmp_path, trained_ckpt, capsys):
        out_dir = tmp_path / "domain"
        code = cli.run(["inspect-domain", "--ckpt", trained_ckpt,
                        "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "domain_grid.csv").read_text().strip().split("\n")
        assert len(lines) == 3 and len(lines[0].split(",")) == 3
        assert "bearing" in capsys.readouterr().out

    def test_disc_grid_missing_exits_2(self, trained_ckpt, tmp_path):
        code = cli.run(["inspect-domain", "--ckpt", trained_ckpt,
                        "--out", str(tmp_path / "d"), "--which", "disc"])
        assert code == 2


class TestResumeKeepsLrAndSeed:
    """train --resume keeps the checkpoint's learning rate and seed: a [train]
    lr or seed that differs is a data error naming the key and both values
    (equal ones resume, as ``TestCheckpointModelKeys`` shows), and other
    commands ignore both."""

    @pytest.mark.parametrize("key, value, kept", [("lr", "0.5", "0.01"), ("seed", "99", "3")])
    def test_a_differing_lr_or_seed_is_a_data_error_naming_both_values(
            self, tmp_path, trained_ckpt, capsys, key, value, kept):
        capsys.readouterr()
        again = tmp_path / "again.ckpt"
        code = cli.run(["train", "--resume", trained_ckpt, "--out", str(again),
                        "--synth", "straight:2:1", "--set", f"train.{key}={value}"])
        assert code == 2
        assert f"[train] {key} = {value} differs from {kept}" in capsys.readouterr().err
        assert not again.exists()

    def test_evaluate_ignores_the_train_section(self, trained_ckpt):
        assert cli.run(["evaluate", "--ckpt", trained_ckpt, "--synth", "straight:2:7",
                        "--set", "train.lr=0.5", "--set", "train.seed=99"]) == 0


class TestCheckpointModelKeys:
    """A command that reads a checkpoint keeps its architecture: a [model]
    key that disagrees with the checkpoint is a data error, an equal one
    passes."""

    @staticmethod
    def command(name, ckpt, tmp_path):
        return {"train": ["train", "--resume", ckpt, "--out", str(tmp_path / "again.ckpt"),
                          "--synth", "straight:2:1"],
                "evaluate": ["evaluate", "--ckpt", ckpt, "--synth", "straight:2:7"],
                "predict": ["predict", "--ckpt", ckpt, "--synth", "straight:2:7",
                            "--out", str(tmp_path / "figs"), "--scenes", "1"],
                "sweep": ["sweep", "--ckpt", ckpt, "--synth", "straight:2:7",
                          "--pred-lens", "2"]}[name]

    @pytest.mark.parametrize("name", ["train", "evaluate", "predict", "sweep"])
    def test_a_differing_model_key_is_a_data_error_naming_both_values(
            self, tmp_path, trained_ckpt, capsys, name):
        capsys.readouterr()
        code = cli.run(self.command(name, trained_ckpt, tmp_path)
                       + ["--set", "model.hidden_dim=9"])
        err = capsys.readouterr().err
        assert code == 2
        assert "hidden_dim = 9 differs from 4" in err
        assert not (tmp_path / "again.ckpt").exists()

    @pytest.mark.parametrize("name", ["train", "evaluate", "predict", "sweep"])
    def test_model_keys_equal_to_the_checkpoint_pass(self, tmp_path, trained_ckpt,
                                                     micro_config, name):
        code = cli.run(self.command(name, trained_ckpt, tmp_path)
                       + ["--config", micro_config, "--set", "model.hidden_dim=4"])
        assert code == 0
        if name == "train":
            assert tr.load_checkpoint(str(tmp_path / "again.ckpt")).cfg.hidden_dim == 4
