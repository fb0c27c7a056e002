"""Parsing, windowing, synthetic scenes, and round-trip export."""

import math

import numpy as np
import pytest

from scantraj import data
from scantraj.errors import DataError
from scantraj.geometry import estimate_heading


def write(tmp_path, text, name="rows.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadDataset:
    def test_basic_row(self, tmp_path):
        rows = data.load_dataset(write(tmp_path, "10 3 1.5 -2.0\n"))
        assert rows == [data.RawRecord(10, 3, 1.5, -2.0)]

    def test_float_formatted_ids_are_accepted(self, tmp_path):
        rows = data.load_dataset(write(tmp_path, "840.0 1.0 8.46 3.59\n"))
        assert rows[0].frame == 840 and rows[0].ped == 1

    def test_rows_sorted_by_frame_then_ped(self, tmp_path):
        rows = data.load_dataset(write(tmp_path, "20 1 0 0\n10 2 0 0\n10 1 0 0\n"))
        assert [(r.frame, r.ped) for r in rows] == [(10, 1), (10, 2), (20, 1)]

    def test_empty_file_warns_and_returns_empty(self, tmp_path):
        with pytest.warns(UserWarning, match="no records"):
            assert data.load_dataset(write(tmp_path, "")) == []

    def test_non_numeric_field_names_line(self, tmp_path):
        with pytest.raises(DataError, match=r":2:.*non-numeric"):
            data.load_dataset(write(tmp_path, "1 1 0 0\n1 2 zero 0\n"))

    def test_wrong_field_count_names_line(self, tmp_path):
        with pytest.raises(DataError, match=r":1:.*4 fields"):
            data.load_dataset(write(tmp_path, "1 1 0\n"))

    def test_fractional_id_rejected(self, tmp_path):
        with pytest.raises(DataError, match="integers"):
            data.load_dataset(write(tmp_path, "1.5 1 0 0\n"))

    def test_duplicate_names_both_lines(self, tmp_path):
        with pytest.raises(DataError, match=r":3:.*\(10, 1\).*line 1"):
            data.load_dataset(write(tmp_path, "10 1 0 0\n10 2 0 0\n10 1 5 5\n"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            data.load_dataset(tmp_path / "missing.txt")


def grid_records(n_frames, peds, step=10, pos=None):
    rows = []
    for i in range(n_frames):
        for p in peds:
            x, y = (float(i), float(p)) if pos is None else pos(i, p)
            rows.append(data.RawRecord(i * step, p, x, y))
    return rows


class TestMakeWindows:
    def test_window_count_follows_stride_one(self):
        # 25 frames, everyone always present, window 20 -> 6 windows
        wins = data.make_windows(grid_records(25, [1, 2]), 8, 12)
        assert len(wins) == 6

    def test_too_short_stream_yields_nothing(self):
        assert data.make_windows(grid_records(19, [1]), 8, 12) == []

    def test_exact_length_stream_yields_one(self):
        wins = data.make_windows(grid_records(20, [1]), 8, 12)
        assert len(wins) == 1
        assert wins[0].positions.shape == (20, 1, 2)

    def test_fixed_frame_step_is_reindexed(self):
        a = data.make_windows(grid_records(20, [1], step=10), 8, 12)
        b = data.make_windows(grid_records(20, [1], step=1), 8, 12)
        np.testing.assert_array_equal(a[0].positions, b[0].positions)

    def test_pedestrian_missing_one_observation_frame_is_excluded(self):
        rows = [r for r in grid_records(20, [1, 2])
                if not (r.ped == 2 and r.frame == 30)]
        wins = data.make_windows(rows, 8, 12)
        assert wins[0].ped_ids == [1]

    def test_vanishing_during_prediction_is_masked_thereafter(self):
        # ped 2 disappears at frame index 15 and "reappears" at 18
        rows = [r for r in grid_records(20, [1, 2])
                if not (r.ped == 2 and r.frame in (150, 160, 170))]
        win = data.make_windows(rows, 8, 12)[0]
        col = win.ped_ids.index(2)
        np.testing.assert_array_equal(win.mask[:15, col], True)
        np.testing.assert_array_equal(win.mask[15:, col], False)

    def test_irregular_gap_breaks_windows(self):
        # 10 frames, a hole, 10 more: no observation span may cross the hole
        rows = grid_records(10, [1], step=1)
        rows += [data.RawRecord(f + 15, 1, float(f), 0.0) for f in range(10)]
        wins = data.make_windows(rows, 8, 2)
        # Starts 0-2 fit before the hole (1-2 with masked prediction tails);
        # only start 15 leaves room for a full window range afterwards.
        assert len(wins) == 4
        for win in wins:
            xs = win.positions[:8, 0, 0]  # x encodes the source frame here
            np.testing.assert_array_equal(np.diff(xs), np.ones(7))

    def test_ped_ids_sorted(self):
        rows = grid_records(20, [7, 3, 5])
        assert data.make_windows(rows, 8, 12)[0].ped_ids == [3, 5, 7]

    def test_stride_two_halves_window_count(self):
        wins = data.make_windows(grid_records(26, [1]), 8, 12, stride=2)
        assert len(wins) == 4  # starts 0, 2, 4, 6


class TestRoundTrip:
    def test_positions_survive_write_and_reload_exactly(self, tmp_path):
        rng = np.random.default_rng(42)
        win = data.SceneWindow(
            ped_ids=[1, 2],
            positions=rng.normal(size=(20, 2, 2)) * math.pi,
            mask=np.ones((20, 2), dtype=bool),
            obs_len=8, source="test")
        path = tmp_path / "out.txt"
        data.write_records(path, data.scene_to_records(win))
        back = data.make_windows(data.load_dataset(path), 8, 12)
        assert len(back) == 1
        np.testing.assert_array_equal(back[0].positions, win.positions)

    def test_multi_scene_export_keeps_scenes_apart(self, tmp_path):
        scenes = data.synth_scenarios("straight", 3, seed=1)
        path = tmp_path / "all.txt"
        data.write_scenes(path, scenes)
        # Stride-1 re-windowing also yields overlapping tail-masked windows;
        # the fully observed ones are exactly the original scenes.
        back = [w for w in data.make_windows(data.load_dataset(path), 8, 12)
                if w.mask.all()]
        assert len(back) == 3
        for orig, loaded in zip(scenes, back):
            np.testing.assert_array_equal(loaded.positions, orig.positions)

    @pytest.mark.parametrize("pred_len", [92, 112])
    def test_scenes_of_a_hundred_frames_or_more_stay_apart(self, tmp_path, pred_len):
        # 100 and 120 frames: scenes must neither touch (a pedestrian
        # walking on into the next scene) nor overlap (duplicate rows).
        scenes = data.synth_scenarios("head_on", 3, seed=1, pred_len=pred_len)
        path = tmp_path / "long.txt"
        data.write_scenes(path, scenes)
        back = [w for w in data.make_windows(data.load_dataset(path), 8, pred_len)
                if w.mask.all()]
        assert len(back) == 3
        for orig, loaded in zip(scenes, back):
            np.testing.assert_array_equal(loaded.positions, orig.positions)

    def test_scenes_under_a_hundred_frames_start_every_hundred(self, tmp_path):
        scenes = data.synth_scenarios("crossing", 3, seed=1)
        rows = [row for k, win in enumerate(scenes)
                for row in data.scene_to_records(win, frame_start=100 * k)]
        data.write_records(tmp_path / "want.txt", rows)
        data.write_scenes(tmp_path / "got.txt", scenes)
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


class TestSynthScenarios:
    def test_straight_is_unit_speed_along_x(self):
        win = data.synth_scenarios("straight", 1, seed=0, jitter=0.0)[0]
        t = np.arange(20, dtype=np.float64)
        np.testing.assert_array_equal(win.positions[:, 0, 0], t)
        np.testing.assert_array_equal(win.positions[:, 0, 1], np.zeros(20))

    def test_straight_jitter_is_small_and_seeded(self):
        a = data.synth_scenarios("straight", 2, seed=5)
        b = data.synth_scenarios("straight", 2, seed=5)
        np.testing.assert_array_equal(a[0].positions, b[0].positions)
        t = np.arange(20, dtype=np.float64)
        dev = a[0].positions[:, 0, 0] - t
        assert 0.0 < np.abs(dev).max() < 0.15  # a few sigma of 0.02

    def test_head_on_starts_with_opposite_headings(self):
        win = data.synth_scenarios("head_on", 1, seed=3, jitter=0.0)[0]
        ka = estimate_heading(win.positions[0, 0], win.positions[1, 0])
        kb = estimate_heading(win.positions[0, 1], win.positions[1, 1])
        phi = (kb.heading_deg - ka.heading_deg) % 360.0
        assert abs(phi - 180.0) < 1e-9

    def test_head_on_lanes_never_collide(self):
        for win in data.synth_scenarios("head_on", 5, seed=4):
            d = np.linalg.norm(win.positions[:, 0] - win.positions[:, 1], axis=1)
            assert d.min() > 0.5

    def test_crossing_truth_avoids_while_linear_motion_collides(self):
        collided = 0
        scenes = data.synth_scenarios("crossing", 20, seed=6)
        for win in scenes:
            d = np.linalg.norm(win.positions[:, 0] - win.positions[:, 1], axis=1)
            assert d.min() > 0.4, "ground truth must stay comfortably apart"

            # Straight-line continuation of the observed velocity converges
            # on the meeting point; jitter occasionally nudges the closest
            # approach past the strict threshold, so count scenes.
            obs = win.positions[:8]
            v = (obs[-1] - obs[0]) / 7.0
            steps = np.arange(1, 13)[:, None, None]
            linear = obs[-1][None] + steps * v[None]
            d_lin = np.linalg.norm(linear[:, 0] - linear[:, 1], axis=1)
            collided += d_lin.min() < 0.10
        assert collided >= 0.7 * len(scenes)

    def test_overtake_keeps_order_then_swaps(self):
        win = data.synth_scenarios("overtake", 1, seed=7, jitter=0.0)[0]
        p = win.positions
        # along-track coordinate of walker A relative to B, in the (rotated)
        # direction of travel
        direction = p[-1, 0] - p[0, 0]
        direction /= np.linalg.norm(direction)
        along = (p[:, 0] - p[:, 1]) @ direction
        assert along[0] < 0 < along[-1]

    def test_static_mix_has_a_stationary_agent(self):
        win = data.synth_scenarios("static_mix", 1, seed=8, jitter=0.0)[0]
        spread = np.ptp(win.positions[:, 0], axis=0)
        assert np.all(spread == 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="zigzag"):
            data.synth_scenarios("zigzag", 1, seed=0)

    @pytest.mark.parametrize("obs_len, pred_len", [(-2, 30), (1, 12), (8, 0), (8, -3)])
    @pytest.mark.parametrize("kind", ["straight", "crossing"])
    def test_lengths_too_short_to_forecast_are_refused_as_by_make_windows(self, kind, obs_len,
                                                                          pred_len):
        # A heading needs two observed points and a forecast one step, as
        # for windows cut from a recording.
        for make in (lambda: data.make_windows([], obs_len=obs_len, pred_len=pred_len),
                     lambda: data.synth_scenarios(kind, 2, seed=0, obs_len=obs_len,
                                                  pred_len=pred_len)):
            with pytest.raises(ValueError, match="need obs_len >= 2 and pred_len >= 1"):
                make()

    def test_scenes_differ_but_reruns_match(self):
        a = data.synth_scenarios("crossing", 3, seed=9)
        b = data.synth_scenarios("crossing", 3, seed=9)
        assert not np.array_equal(a[0].positions, a[1].positions)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.positions, y.positions)

