"""Vector-graphic emission, written by hand — no plotting dependency.

Every figure is a standalone SVG paired with a CSV carrying the exact
numbers that were drawn (17 significant digits, so float64 round-trips).
Golden tests compare the CSVs, never the images.

Stroke conventions (also documented in the README):
    observed history    solid dark gray, 2 px
    ground truth        dashed green
    generated samples   thin translucent blue
    sample mean         solid red, thicker
Domain heatmaps are polar-style: angular sectors are bearing bins
(0 degrees at +x, counter-clockwise), radial rings are heading bins
(innermost ring = the first bin), fill darkens with the learned reach.
"""

from __future__ import annotations

import math
import os
from xml.sax.saxutils import escape

import numpy as np

from . import autodiff as ad
from . import generative as gn
from .errors import DataError
from .model import ScanModel
from .training import load_checkpoint

OBSERVED_COLOR = "#222222"
TRUTH_COLOR = "#2a9d3a"
SAMPLE_COLOR = "#4477cc"
MEAN_COLOR = "#cc2222"
TRAJECTORY_CSV_HEADER = "series,ped,step,x,y"
PANEL_CSV_HEADER = "panel,title,series,ped,step,x,y"


def _fmt(value: float) -> str:
    return "%.17g" % value


def _write_text(path, text: str) -> str:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    return str(path)


class _Svg:
    """Tiny element accumulator; emits one self-contained <svg> document."""

    def __init__(self, width: float, height: float):
        self.width, self.height = width, height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
            f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
            f'<rect x="0" y="0" width="{width:g}" height="{height:g}" '
            f'fill="#ffffff"/>']

    def polyline(self, points, stroke: str, width: float = 1.5,
                 dash: str | None = None, opacity: float = 1.0) -> None:
        if len(points) < 2:
            return
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        if opacity < 1.0:
            extra += f' stroke-opacity="{opacity:g}"'
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:g}" stroke-linejoin="round" '
            f'stroke-linecap="round"{extra}/>')

    def circle(self, x: float, y: float, r: float, fill: str) -> None:
        self.parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:g}" fill="{fill}"/>')

    def line(self, x1, y1, x2, y2, stroke: str, width: float = 1.0,
             dash: str | None = None) -> None:
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width:g}"{extra}/>')

    def rect(self, x, y, w, h, fill: str, stroke: str | None = None) -> None:
        extra = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}"{extra}/>')

    def path(self, d: str, fill: str, stroke: str = "#666666",
             stroke_width: float = 0.5) -> None:
        self.parts.append(
            f'<path d="{d}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{stroke_width:g}"/>')

    def text(self, x, y, s: str, size: float = 12, fill: str = "#222222",
             anchor: str = "start", bold: bool = False) -> None:
        weight = ' font-weight="bold"' if bold else ""
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size:g}" fill="{fill}" '
            f'text-anchor="{anchor}"{weight}>{escape(s)}</text>')

    def group_open(self, dx: float, dy: float) -> None:
        self.parts.append(f'<g transform="translate({dx:.2f},{dy:.2f})">')

    def group_close(self) -> None:
        self.parts.append("</g>")

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Frame:
    """Aspect-preserving map from data coordinates to pixel coordinates."""

    def __init__(self, points, width: float, height: float,
                 margin: float = 42.0):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        self.scale = min((width - 2 * margin) / span[0],
                         (height - 2 * margin) / span[1])
        self.center_data = (lo + hi) / 2.0
        self.center_px = (width / 2.0, height / 2.0)

    def to_px(self, xy) -> tuple[float, float]:
        return (self.center_px[0] + (xy[0] - self.center_data[0]) * self.scale,
                self.center_px[1] - (xy[1] - self.center_data[1]) * self.scale)

    def map_path(self, path) -> list[tuple[float, float]]:
        return [self.to_px(p) for p in np.asarray(path, dtype=np.float64)]


def _valid_future_steps(scene, ped: int) -> int:
    """Contiguous count of unmasked prediction steps (no revival by design)."""
    column = scene.mask[scene.obs_len:, ped]
    return int(column.sum())


def _fan_strokes(svg, frame, scene, samples, connect: bool = True) -> None:
    """Draw one scene's observed/truth/sample/mean strokes into ``svg``."""
    samples = np.asarray(samples, dtype=np.float64)
    k, n_peds, steps = samples.shape[0], samples.shape[1], samples.shape[2]
    mean = samples.mean(axis=0)
    for p in range(n_peds):
        anchor = scene.positions[scene.obs_len - 1, p]
        for i in range(k):
            path = samples[i, p]
            if connect:
                path = np.concatenate([anchor[None], path])
            svg.polyline(frame.map_path(path), SAMPLE_COLOR, width=1.0,
                         opacity=0.45)
    for p in range(n_peds):
        t_ok = _valid_future_steps(scene, p)
        truth = scene.positions[scene.obs_len - 1:scene.obs_len + t_ok, p]
        svg.polyline(frame.map_path(truth), TRUTH_COLOR, width=2.0, dash="6,4")
    for p in range(n_peds):
        anchor = scene.positions[scene.obs_len - 1, p]
        path = np.concatenate([anchor[None], mean[p]]) if connect else mean[p]
        svg.polyline(frame.map_path(path), MEAN_COLOR, width=2.2)
    for p in range(n_peds):
        observed = scene.positions[:scene.obs_len, p]
        svg.polyline(frame.map_path(observed), OBSERVED_COLOR, width=2.0)
        px = frame.to_px(observed[-1])
        svg.circle(px[0], px[1], 3.0, OBSERVED_COLOR)


def _fan_points(scene, samples) -> list:
    """Every coordinate a fan will draw, for frame fitting."""
    pts = [scene.positions.reshape(-1, 2)]
    pts.append(np.asarray(samples, dtype=np.float64).reshape(-1, 2))
    return list(np.concatenate(pts))


def _legend(svg, x, y, k: int) -> None:
    entries = [(OBSERVED_COLOR, None, "observed"),
               (TRUTH_COLOR, "6,4", "ground truth"),
               (SAMPLE_COLOR, None, f"samples (k={k})"),
               (MEAN_COLOR, None, "sample mean")]
    for row, (color, dash, label) in enumerate(entries):
        yy = y + 16 * row
        svg.line(x, yy - 4, x + 22, yy - 4, color, width=2.5, dash=dash)
        svg.text(x + 28, yy, label, size=11, fill="#444444")


def plot_trajectories(path_base, scene, samples, title: str = "") -> list[str]:
    """One scene's observed/truth/sample fan; returns [svg_path, csv_path].

    ``samples`` is (k, N, steps, 2) in meters. The CSV holds the plotted
    numbers in long form: series,ped,step,x,y with series one of
    observed / truth / sample<i> / mean. Steps count from the window
    start, so future series start at step obs_len.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 4 or samples.shape[-1] != 2:
        raise ValueError(f"samples must be (k, N, steps, 2), got {samples.shape}")
    if samples.shape[1] != scene.n_peds:
        raise ValueError("sample pedestrian count does not match the scene")
    k, n_peds, steps = samples.shape[0], samples.shape[1], samples.shape[2]
    mean = samples.mean(axis=0)

    width, height = 560.0, 480.0
    svg = _Svg(width, height)
    frame = _Frame(_fan_points(scene, samples), width, height)
    _fan_strokes(svg, frame, scene, samples)
    if title:
        svg.text(14, 22, title, size=14, bold=True)
    svg.text(14, height - 10,
             f"{n_peds} pedestrians | {scene.obs_len} observed + "
             f"{steps} predicted steps | 1 px = {1.0 / frame.scale:.3g} m",
             size=10, fill="#666666")
    _legend(svg, width - 150, 26, k)

    rows = [TRAJECTORY_CSV_HEADER]
    for p in range(n_peds):
        for t in range(scene.obs_len):
            xy = scene.positions[t, p]
            rows.append(f"observed,{p},{t},{_fmt(xy[0])},{_fmt(xy[1])}")
    for p in range(n_peds):
        for t in range(_valid_future_steps(scene, p)):
            xy = scene.positions[scene.obs_len + t, p]
            rows.append(f"truth,{p},{scene.obs_len + t},"
                        f"{_fmt(xy[0])},{_fmt(xy[1])}")
    for i in range(k):
        for p in range(n_peds):
            for t in range(steps):
                xy = samples[i, p, t]
                rows.append(f"sample{i},{p},{scene.obs_len + t},"
                            f"{_fmt(xy[0])},{_fmt(xy[1])}")
    for p in range(n_peds):
        for t in range(steps):
            xy = mean[p, t]
            rows.append(f"mean,{p},{scene.obs_len + t},"
                        f"{_fmt(xy[0])},{_fmt(xy[1])}")

    svg_path = _write_text(f"{path_base}.svg", svg.finish())
    csv_path = _write_text(f"{path_base}.csv", "\n".join(rows) + "\n")
    return [svg_path, csv_path]


# -- domain heatmap -----------------------------------------------------------

def _pol(cx, cy, r, angle):
    return (cx + r * math.cos(angle), cy - r * math.sin(angle))


def _annular_sector_path(cx, cy, r_in, r_out, a0, a1) -> str:
    """SVG path for one polar cell; arcs over 180 degrees are split."""
    span = a1 - a0
    fracs = (0.0, 0.5, 1.0) if span > math.pi else (0.0, 1.0)
    cuts = [a0 + span * f for f in fracs]
    x, y = _pol(cx, cy, r_out, cuts[0])
    parts = [f"M {x:.2f} {y:.2f}"]
    for a in cuts[1:]:
        x, y = _pol(cx, cy, r_out, a)
        parts.append(f"A {r_out:.2f} {r_out:.2f} 0 0 0 {x:.2f} {y:.2f}")
    x, y = _pol(cx, cy, r_in, cuts[-1])
    parts.append(f"L {x:.2f} {y:.2f}")
    for a in reversed(cuts[:-1]):
        x, y = _pol(cx, cy, r_in, a)
        parts.append(f"A {r_in:.2f} {r_in:.2f} 0 0 1 {x:.2f} {y:.2f}")
    parts.append("Z")
    return " ".join(parts)


def _heat_color(t: float) -> str:
    lo, hi = (247, 249, 253), (24, 69, 148)
    return "#%02x%02x%02x" % tuple(
        int(round(a + (b - a) * t)) for a, b in zip(lo, hi))


def domain_heatmap(path_base, grid, title: str = "learned domain (m)") -> list[str]:
    """Polar-style rendering of the (bearing x heading) domain grid.

    Sectors sweep bearing counter-clockwise from +x; rings hold heading
    bins, innermost first. The CSV is exactly m rows by n columns of the
    grid values, no header.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"domain grid must be 2-D, got shape {grid.shape}")
    m, n = grid.shape
    vmin, vmax = float(grid.min()), float(grid.max())
    spread = vmax - vmin

    width, height = 520.0, 520.0
    cx, cy = width / 2.0, height / 2.0 + 8.0
    r_hole, r_max = 16.0, min(width, height) / 2.0 - 50.0
    svg = _Svg(width, height)
    svg.text(14, 24, title, size=14, bold=True)

    for i in range(m):                      # bearing sector
        a0 = 2.0 * math.pi * i / m
        a1 = 2.0 * math.pi * (i + 1) / m
        for j in range(n):                  # heading ring
            r0 = r_hole + (r_max - r_hole) * j / n
            r1 = r_hole + (r_max - r_hole) * (j + 1) / n
            t = 0.5 if spread == 0.0 else (float(grid[i, j]) - vmin) / spread
            svg.path(_annular_sector_path(cx, cy, r0, r1, a0, a1),
                     _heat_color(t))

    for deg in (0, 90, 180, 270):
        x, y = _pol(cx, cy, r_max + 14.0, math.radians(deg))
        svg.text(x, y + 4, f"{deg}°", size=10, fill="#555555",
                 anchor="middle")
    svg.text(14, height - 26,
             "sectors: bearing bins (0° at +x, counter-clockwise)",
             size=10, fill="#666666")
    svg.text(14, height - 12, "rings: heading bins (innermost = first bin)",
             size=10, fill="#666666")
    for s, frac in enumerate(np.linspace(0.0, 1.0, 5)):
        x = width - 160.0 + 28.0 * s
        svg.rect(x, 14, 24, 10, _heat_color(frac), stroke="#999999")
    svg.text(width - 160.0, 38, _fmt(vmin)[:8], size=9, fill="#555555")
    svg.text(width - 20.0, 38, _fmt(vmax)[:8], size=9, fill="#555555",
             anchor="end")

    csv_lines = [",".join(_fmt(grid[i, j]) for j in range(n)) for i in range(m)]
    svg_path = _write_text(f"{path_base}.svg", svg.finish())
    csv_path = _write_text(f"{path_base}.csv", "\n".join(csv_lines) + "\n")
    return [svg_path, csv_path]


# -- diversity fan grid --------------------------------------------------------

def panel_title(k: int, lam: float) -> str:
    return f"{k}V-{lam:g}"


def diversity_grid(path_base, scene, panels) -> list[str]:
    """Fan panels over (k, lambda) cells, each titled kV-lambda.

    ``panels`` is a list of (k, lam, samples) with samples (k, N, steps, 2).
    All panels share one coordinate frame so fan widths are comparable.
    The CSV is long-form: panel,title,series,ped,step,x,y.
    """
    if not panels:
        raise ValueError("diversity_grid needs at least one panel")
    for k, _, samples in panels:
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 4 or samples.shape[0] != k:
            raise ValueError("panel samples must be (k, N, steps, 2)")

    panel_w, panel_h, pad = 260.0, 240.0, 10.0
    cols = min(len(panels), 3)
    grid_rows = (len(panels) + cols - 1) // cols
    width = cols * panel_w + 2 * pad
    height = grid_rows * panel_h + 2 * pad
    svg = _Svg(width, height)

    shared_points = []
    for _, _, samples in panels:
        shared_points.extend(_fan_points(scene, samples))
    frame = _Frame(shared_points, panel_w, panel_h - 22.0, margin=20.0)

    rows = [PANEL_CSV_HEADER]
    for index, (k, lam, samples) in enumerate(panels):
        samples = np.asarray(samples, dtype=np.float64)
        ox = pad + (index % cols) * panel_w
        oy = pad + (index // cols) * panel_h
        title = panel_title(k, lam)
        svg.group_open(ox, oy)
        svg.rect(0, 0, panel_w, panel_h, "none", stroke="#cccccc")
        svg.text(panel_w / 2.0, 16, title, size=13, anchor="middle", bold=True)
        svg.group_close()
        svg.group_open(ox, oy + 22.0)
        _fan_strokes(svg, frame, scene, samples)
        svg.group_close()

        n_peds, steps = samples.shape[1], samples.shape[2]
        for p in range(n_peds):
            for t in range(scene.obs_len):
                xy = scene.positions[t, p]
                rows.append(f"{index},{title},observed,{p},{t},"
                            f"{_fmt(xy[0])},{_fmt(xy[1])}")
        for i in range(k):
            for p in range(n_peds):
                for t in range(steps):
                    xy = samples[i, p, t]
                    rows.append(f"{index},{title},sample{i},{p},"
                                f"{scene.obs_len + t},"
                                f"{_fmt(xy[0])},{_fmt(xy[1])}")
        mean = samples.mean(axis=0)
        for p in range(n_peds):
            for t in range(steps):
                xy = mean[p, t]
                rows.append(f"{index},{title},mean,{p},{scene.obs_len + t},"
                            f"{_fmt(xy[0])},{_fmt(xy[1])}")

    svg_path = _write_text(f"{path_base}.svg", svg.finish())
    csv_path = _write_text(f"{path_base}.csv", "\n".join(rows) + "\n")
    return [svg_path, csv_path]


# -- checkpoint-driven emission ------------------------------------------------

def _scene_samples(model: ScanModel, scene, k: int, rng) -> np.ndarray:
    if model.cfg.generative:
        with ad.no_grad():
            return gn.sample_predictions(model, scene, k, rng).positions_array()
    with ad.no_grad():
        result = model.forward(scene)
    return result.positions()[None]


def emit_plots(checkpoint_path, scenes, out_dir, k: int | None = None,
               lam_label: float = 0.0, fan_ks=(1, 4, 8), seed: int = 0,
               max_scenes: int = 4) -> list[str]:
    """Render a checkpoint's standard figure set under ``out_dir``.

    Writes per-scene trajectory fans, the learned-domain heatmap, and —
    for generative checkpoints — a diversity fan grid whose cells reuse
    prefixes of one sample draw and are titled kV-lambda (the lambda
    label is the training-time diversity weight, supplied by the caller;
    a checkpoint embodies a single lambda). Every SVG gets a CSV with the
    same numbers. Returns the list of written paths.
    """
    state = load_checkpoint(checkpoint_path)
    model = ScanModel(state.cfg, state.params)
    if k is None:
        k = 20 if state.cfg.generative else 1
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create {out_dir}: {exc}") from exc

    hub = ad.RngHub(seed)
    written: list[str] = []
    kept = [s for s in scenes if s.n_peds > 0][:max_scenes]
    for index, scene in enumerate(kept):
        samples = _scene_samples(model, scene, k, hub.derive("plots/noise", index))
        written += plot_trajectories(
            os.path.join(out_dir, f"trajectories_{index:03d}"), scene, samples,
            title=f"scene {index}: {scene.n_peds} pedestrians")
    written += domain_heatmap(os.path.join(out_dir, "domain_grid"),
                              state.params["domain_grid"].values)
    if state.cfg.generative and kept:
        scene = kept[0]
        top = max(fan_ks)
        samples = _scene_samples(model, scene, top,
                                 hub.derive("plots/noise", 0))
        panels = [(kk, lam_label, samples[:kk]) for kk in sorted(fan_ks)]
        written += diversity_grid(os.path.join(out_dir, "diversity_grid"),
                                  scene, panels)
    return written
