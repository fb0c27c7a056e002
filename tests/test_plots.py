"""Figure-emission tests. Goldens compare the backing CSVs, never images."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from test_model import dyadic_walkers, make_scene, micro_cfg, recorded_ops
from test_training import micro_windows, tcfg

from scantraj import data as sd
from scantraj import plots
from scantraj import training as tr
from scantraj.errors import DataError

SVG_NS = "{http://www.w3.org/2000/svg}"


def tiny_scene():
    return make_scene(dyadic_walkers(5), obs_len=3)


def tiny_samples(scene, k=3, seed=5):
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.3, size=(k, scene.n_peds, 2, 2)).cumsum(axis=2)
    anchor = scene.positions[scene.obs_len - 1][None, :, None, :]
    return anchor + steps


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def svg_root(path):
    root = ET.fromstring(path.read_text())
    assert root.tag == SVG_NS + "svg"
    return root


class TestTrajectoryPlot:
    def test_files_and_row_counts(self, tmp_path):
        scene = tiny_scene()
        samples = tiny_samples(scene)
        written = plots.plot_trajectories(tmp_path / "fan", scene, samples)
        assert sorted(p.split(".")[-1] for p in written) == ["csv", "svg"]
        header, rows = read_rows(tmp_path / "fan.csv")
        assert header == "series,ped,step,x,y"
        count = {}
        for row in rows:
            count[row[0]] = count.get(row[0], 0) + 1
        assert count["observed"] == 2 * 3
        assert count["truth"] == 2 * 2
        assert count["mean"] == 2 * 2
        assert sum(v for s, v in count.items() if s.startswith("sample")) == 12

    def test_csv_numbers_match_inputs_bitwise(self, tmp_path):
        scene = tiny_scene()
        samples = tiny_samples(scene)
        plots.plot_trajectories(tmp_path / "fan", scene, samples)
        _, rows = read_rows(tmp_path / "fan.csv")
        mean = samples.mean(axis=0)
        for series, ped, step, x, y in rows:
            p, t = int(ped), int(step)
            if series.startswith("sample"):
                want = samples[int(series[len("sample"):]), p, t - scene.obs_len]
            elif series == "mean":
                want = mean[p, t - scene.obs_len]
            else:
                want = scene.positions[t, p]
            assert float(x) == want[0] and float(y) == want[1]

    def test_svg_is_well_formed_with_strokes(self, tmp_path):
        scene = tiny_scene()
        samples = tiny_samples(scene, k=4)
        plots.plot_trajectories(tmp_path / "fan", scene, samples, title="demo")
        root = svg_root(tmp_path / "fan.svg")
        polylines = list(root.iter(SVG_NS + "polyline"))
        # 4 sample strokes + truth + mean + observed per pedestrian, plus legend
        assert len(polylines) >= (4 + 3) * scene.n_peds
        text = " ".join(t.text or "" for t in root.iter(SVG_NS + "text"))
        assert "demo" in text and "observed" in text

    def test_shape_validation(self, tmp_path):
        scene = tiny_scene()
        with pytest.raises(ValueError):
            plots.plot_trajectories(tmp_path / "x", scene, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            plots.plot_trajectories(tmp_path / "x", scene,
                                    np.zeros((1, 5, 2, 2)))


class TestDomainHeatmap:
    def test_csv_is_m_rows_by_n_columns_exact(self, tmp_path):
        grid = np.arange(12, dtype=np.float64).reshape(3, 4) * 0.375 + 0.1
        plots.domain_heatmap(tmp_path / "dom", grid)
        lines = (tmp_path / "dom.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines])
        assert parsed.shape == (3, 4)
        assert np.array_equal(parsed, grid)

    def test_svg_has_one_cell_per_bin(self, tmp_path):
        grid = np.arange(12, dtype=np.float64).reshape(3, 4)
        plots.domain_heatmap(tmp_path / "dom", grid)
        root = svg_root(tmp_path / "dom.svg")
        assert len(list(root.iter(SVG_NS + "path"))) == 12

    def test_flat_grid_renders(self, tmp_path):
        plots.domain_heatmap(tmp_path / "dom", np.full((2, 2), 4.0))
        assert (tmp_path / "dom.svg").exists()

    def test_wide_bins_render(self, tmp_path):
        # One bearing sector spans the whole circle: exercises arc splitting.
        plots.domain_heatmap(tmp_path / "dom", np.array([[1.0, 2.0]]))
        root = svg_root(tmp_path / "dom.svg")
        assert len(list(root.iter(SVG_NS + "path"))) == 2

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            plots.domain_heatmap(tmp_path / "dom", np.zeros(5))


class TestDiversityGrid:
    def test_titles_follow_the_kv_lambda_scheme(self):
        assert plots.panel_title(4, 1.0) == "4V-1"
        assert plots.panel_title(1, 0.0) == "1V-0"
        assert plots.panel_title(12, 0.5) == "12V-0.5"

    def test_panels_and_csv(self, tmp_path):
        scene = tiny_scene()
        samples = tiny_samples(scene, k=4)
        panels = [(1, 0.0, samples[:1]), (4, 1.0, samples)]
        plots.diversity_grid(tmp_path / "div", scene, panels)
        header, rows = read_rows(tmp_path / "div.csv")
        assert header == "panel,title,series,ped,step,x,y"
        titles = {row[1] for row in rows}
        assert titles == {"1V-0", "4V-1"}
        for row in rows:
            if row[0] == "1" and row[2].startswith("sample"):
                i, p = int(row[2][len("sample"):]), int(row[3])
                t = int(row[4]) - scene.obs_len
                assert float(row[5]) == samples[i, p, t, 0]
                assert float(row[6]) == samples[i, p, t, 1]
        root = svg_root(tmp_path / "div.svg")
        text = " ".join(t.text or "" for t in root.iter(SVG_NS + "text"))
        assert "1V-0" in text and "4V-1" in text

    def test_needs_panels(self, tmp_path):
        with pytest.raises(ValueError):
            plots.diversity_grid(tmp_path / "div", tiny_scene(), [])


class TestEmitPlots:
    def _checkpoint(self, tmp_path, generative=False):
        cfg = micro_cfg(variant="vanilla") if not generative else \
            micro_cfg(generative=True, noise_dim=3)
        state = tr.init_state(cfg, tcfg(epochs=0))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, state)
        return path

    def test_deterministic_checkpoint_emits_fans_and_heatmap(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        out = tmp_path / "figs"
        written = plots.emit_plots(ckpt, micro_windows(2), out)
        names = sorted(p.split("/")[-1] for p in written)
        assert "trajectories_000.svg" in names
        assert "trajectories_001.csv" in names
        assert "domain_grid.csv" in names
        assert all(str(out) in p for p in written)
        assert not any("diversity" in n for n in names)
        lines = (out / "domain_grid.csv").read_text().strip().split("\n")
        assert len(lines) == 3 and len(lines[0].split(",")) == 3

    def test_generative_checkpoint_adds_diversity_grid(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, generative=True)
        out = tmp_path / "figs"
        written = plots.emit_plots(ckpt, micro_windows(1), out,
                                   k=5, fan_ks=(1, 4))
        names = {p.split("/")[-1] for p in written}
        assert {"diversity_grid.svg", "diversity_grid.csv"} <= names
        header, rows = read_rows(out / "diversity_grid.csv")
        assert {row[1] for row in rows} == {"1V-0", "4V-0"}

    def test_emission_is_deterministic(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, generative=True)
        plots.emit_plots(ckpt, micro_windows(1), tmp_path / "a", k=3)
        plots.emit_plots(ckpt, micro_windows(1), tmp_path / "b", k=3)
        a = (tmp_path / "a" / "trajectories_000.csv").read_text()
        b = (tmp_path / "b" / "trajectories_000.csv").read_text()
        assert a == b

    def test_emission_records_nothing(self, tmp_path, monkeypatch):
        ckpt = self._checkpoint(tmp_path, generative=True)
        ops = recorded_ops(monkeypatch)
        plots.emit_plots(ckpt, micro_windows(1), tmp_path / "figs", k=3)
        assert ops == []

    def test_write_failure_reports_path(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(DataError, match="blocker"):
            plots.emit_plots(ckpt, micro_windows(1), blocker / "figs")

    def test_fan_tracks_linear_continuation_after_training(self, tmp_path):
        # An overfit straight-walker model should aim its mean predicted
        # displacement along the walker's +x continuation.
        scenes = sd.synth_scenarios("straight", 8, seed=1,
                                    obs_len=3, pred_len=2)
        cfg = micro_cfg(variant="vanilla")
        state, _ = tr.train_deterministic(
            scenes, cfg, tcfg(epochs=60, batch_size=8, seed=2))
        ckpt = tmp_path / "line.ckpt"
        tr.save_checkpoint(ckpt, state)
        out = tmp_path / "figs"
        plots.emit_plots(ckpt, scenes[:1], out, max_scenes=1)
        _, rows = read_rows(out / "trajectories_000.csv")
        mean_rows = sorted((int(r[2]), float(r[3]), float(r[4]))
                           for r in rows if r[0] == "mean")
        anchor = scenes[0].positions[scenes[0].obs_len - 1, 0]
        tip = np.array(mean_rows[-1][1:])
        direction = tip - anchor
        direction = direction / np.linalg.norm(direction)
        assert direction[0] > 0.9
