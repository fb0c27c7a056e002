"""Independent reference implementations used to cross-check the package.

The oracles are written with plain ``math`` loops and no imports from the
package under test (numpy is used only for array containers), so they
cannot share bugs with the real code paths. ``composed_decode`` is the
other kind of reference: the decoder as the separate tape records it took
before its steps were fused, which the fused ops must equal bit for bit;
``pairwise_offsets`` gives the pair offsets of a position node the same way.
``matmul`` is a test-side op on the package's tape: the plain matrix
products that reference computations and gradient probes are written with,
which the package itself no longer uses.
"""

import math

import numpy as np


def oracle_spatial(grid_values, bearing_step, heading_step,
                   positions, headings, hiddens, target):
    """Score -> normalize -> context for one target pedestrian.

    positions: list of (x, y); headings: list of degrees; hiddens: list of
    1-D arrays. Neighbours are every other pedestrian, in index order.
    Returns (raw, weights, context) as plain numpy arrays.
    """
    raw = []
    neighbors = [i for i in range(len(positions)) if i != target]
    for n in neighbors:
        dx = positions[n][0] - positions[target][0]
        dy = positions[n][1] - positions[target][1]
        d = math.sqrt(dx * dx + dy * dy)
        if d == 0.0:
            theta = 0.0
        else:
            theta = (math.degrees(math.atan2(dy, dx)) - headings[target]) % 360.0
        phi = (headings[n] - headings[target]) % 360.0
        i = min(int(math.floor(theta / bearing_step)), round(360.0 / bearing_step) - 1)
        j = min(int(math.floor(phi / heading_step)), round(360.0 / heading_step) - 1)
        raw.append(max(grid_values[i][j] - d, 0.0))

    raw = np.array(raw, dtype=np.float64)
    weights = np.zeros_like(raw)
    active = raw > 0.0
    if active.any():
        top = raw[active].max()
        e = np.array([math.exp(v - top) if a else 0.0
                      for v, a in zip(raw, active)])
        weights = e / e.sum()

    hidden_dim = len(hiddens[target])
    context = np.zeros(hidden_dim)
    for w, n in zip(weights, neighbors):
        if w != 0.0:
            context = context + w * np.asarray(hiddens[n])
    return raw, weights, context


def oracle_ade(pred, truth, mask):
    """Mean Euclidean error over valid (pedestrian, step) pairs.

    pred/truth: (N, T, 2); mask: (N, T) bool. Returns None when no pair
    is valid.
    """
    total, count = 0.0, 0
    for p in range(pred.shape[0]):
        for t in range(pred.shape[1]):
            if mask[p, t]:
                dx = pred[p, t, 0] - truth[p, t, 0]
                dy = pred[p, t, 1] - truth[p, t, 1]
                total += math.sqrt(dx * dx + dy * dy)
                count += 1
    return total / count if count else None


# Loop references of the vectorised metrics: the per-sample, per-pedestrian,
# per-frame and per-pair loops that ``metrics`` and ``sample_spread`` once
# ran, with the same numpy calls, which the one-pass versions equal bit for bit.

def loop_best_sample(samples, truth, mask):
    """(index, ADE) of the lowest-ADE sample, one masked 1-D mean per sample."""
    ades = [float(np.linalg.norm(sample - truth, axis=-1)[mask].mean()) for sample in samples]
    best = int(np.argmin(ades))
    return best, ades[best]


def loop_fde(pred, truth, mask):
    """(mean final error or None, fallback count): one 1-D ``np.linalg.norm``
    per pedestrian at its last valid step; pedestrians with none are skipped."""
    finals, fallbacks = [], 0
    for p in range(pred.shape[0]):
        valid = np.flatnonzero(mask[p])
        if valid.size == 0:
            continue
        last = int(valid[-1])
        fallbacks += last != pred.shape[1] - 1
        finals.append(float(np.linalg.norm(pred[p, last] - truth[p, last])))
    return (float(np.mean(finals)) if finals else None), fallbacks


def loop_collision_fractions(positions, mask, threshold):
    """Per-frame fraction of present pedestrians with another present one
    strictly closer than ``threshold``; empty frames are skipped."""
    fractions = []
    for f in range(positions.shape[1]):
        present = np.flatnonzero(mask[:, f])
        if present.size == 0:
            continue
        if present.size == 1:
            fractions.append(0.0)
            continue
        pts = positions[present, f]
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        fractions.append(int(np.count_nonzero(dist.min(axis=1) < threshold)) / present.size)
    return fractions


def loop_spread(positions):
    """Mean over sample pairs (i < j) and pedestrians of the step-averaged
    distance between samples i and j; 0.0 without a pair or a pedestrian."""
    k, n = positions.shape[:2]
    if k < 2 or n == 0:
        return 0.0
    gaps = []
    for i in range(k):
        for j in range(i + 1, k):
            gaps.extend(np.linalg.norm(positions[i] - positions[j], axis=-1).mean(axis=1))
    return float(np.mean(gaps))


def numeric_gradient(f, values, h=1e-5):
    """Central finite differences of ``f()`` w.r.t. ``values``.

    ``values`` is perturbed in place and restored; ``f`` must recompute the
    scalar from the current contents of ``values`` on every call.
    """
    grad = np.zeros_like(values)
    it = np.nditer(values, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        saved = values[idx]
        values[idx] = saved + h
        fp = f()
        values[idx] = saved - h
        fm = f()
        values[idx] = saved
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def matmul(a, b):
    """Matrix products as one tape record, named ``matmul``.

    Accepted shapes: ``(m, k) @ (k, n)``, ``(m, k) @ (k,)``, ``(k,) @ (k,)``
    (a scalar), and per slice of equal leading axes ``...``:
    ``(..., m, k) @ (..., k) -> (..., m)`` and
    ``(..., m) @ (..., m, k) -> (..., k)``. numpy runs a batched product one
    slice at a time, so each slice equals its unbatched product bit for bit.
    Batched matrix-matrix products go through ``ad.block_matmul``.
    """
    from scantraj import autodiff as ad
    from scantraj.errors import ShapeError

    a, b = ad._lift(a), ad._lift(b)
    av, bv = a.values, b.values
    if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        outv = av @ bv

        def backward(g):
            ad._add_grad(a, np.outer(g, bv))
            ad._add_grad(b, av.T @ g)
    elif av.ndim == 2 and bv.ndim == 2 and av.shape[1] == bv.shape[0]:
        outv = av @ bv

        def backward(g):
            ad._add_grad(a, g @ bv.T)
            ad._add_grad(b, av.T @ g)
    elif av.ndim == 1 and av.shape == bv.shape:
        outv = np.asarray(av @ bv)

        def backward(g):
            ad._add_grad(a, g * bv)
            ad._add_grad(b, g * av)
    elif (av.ndim == bv.ndim + 1 >= 3 and av.shape[:-2] == bv.shape[:-1]
          and av.shape[-1] == bv.shape[-1]):
        outv = np.matmul(av, bv[..., None])[..., 0]

        def backward(g):
            ad._add_grad(a, g[..., :, None] * bv[..., None, :])
            ad._add_grad(b, np.matmul(g[..., None, :], av)[..., 0, :])
    elif (bv.ndim == av.ndim + 1 >= 3 and av.shape[:-1] == bv.shape[:-2]):
        outv = np.matmul(av[..., None, :], bv)[..., 0, :]

        def backward(g):
            ad._add_grad(a, np.matmul(bv, g[..., :, None])[..., 0])
            ad._add_grad(b, av[..., :, None] * g[..., None, :])
    else:
        raise ShapeError(f"matmul: shapes {av.shape} and {bv.shape} do not conform")
    return ad._record("matmul", outv, (a, b), backward)


def pairwise_offsets(positions, neighbors):
    """(..., R, 2) positions -> (..., R, J, 2) node whose [..., r, j] entry
    points from row r to row ``neighbors[r, j]``, as two gathers and a
    subtraction: the composed records ``geometry.pair_offsets`` replaced."""
    from scantraj import autodiff as ad

    lead = (slice(None),) * (positions.values.ndim - 2)
    rows = np.broadcast_to(np.arange(neighbors.shape[0])[:, None], neighbors.shape)
    return ad.sub(ad.gather(positions, lead + (neighbors,)),
                  ad.gather(positions, lead + (rows,)))


def composed_decode(model, scenes, bank, noise=None):
    """``model.decode(scenes, bank, noise)`` as one tape record per layer and
    step (about 20 a step): the spatial round, temporal attention, the input
    linears, the cell, the output linear and the position sums. It reads
    the bank in its layout rows, gathered once per sample."""
    from scantraj import autodiff as ad
    from scantraj import cells
    from scantraj.geometry import advance_kinematics
    from scantraj.model import ForwardResult, _scene_list
    from scantraj.temporal import attend

    cfg = model.cfg
    scenes = _scene_list(scenes)
    layout = bank.layout
    order = layout.order
    lead = ()
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        lead = noise.shape[:-1][:1]
        if noise.ndim == 3:
            noise = noise[:, layout.scene_of_row]      # one draw per row

    def tiled(values):
        return np.array(np.broadcast_to(values, lead + values.shape))

    rows = tiled(np.arange(layout.n_rows))
    hidden = ad.gather(bank.hidden, rows)
    if cfg.generative:
        hidden = cells.noise_conditioned_hidden(
            hidden, np.zeros(cfg.noise_dim) if noise is None else noise,
            model.params["noise_proj.W"], model.params["noise_proj.b"])
    cell = ad.gather(bank.cell, rows)
    history = ad.gather(bank.keys, rows)
    kin = bank.kinematics[rows]

    last_pos = tiled(bank.kinematics.position)
    start_offsets = ad.constant(last_pos[..., layout.neighbors, :]
                                - last_pos[..., :, None, :])
    cum = None                                  # cumulative displacement node
    pos_values = last_pos                       # float positions, current step
    prev_disp = ad.constant(tiled(bank.last_disp))
    present = model._present(scenes, range(cfg.obs_len, cfg.obs_len + cfg.pred_len))
    embed, (w_ih, w_hh, bias) = model._recurrence("dec")
    disps, positions = [], []

    for s in range(cfg.pred_len):
        offsets = (start_offsets if cum is None else ad.add(
            start_offsets, pairwise_offsets(cum, layout.neighbors)))
        state, _ = cells.spatial_round(
            offsets, kin, present[s][order], hidden, layout, model.grid, *model._fuse())
        if cfg.variant == "scan":
            state = attend(state, history, model.params["temporal.W"],
                           model.params["temporal.b"])
        gates_in = cells.linear(cells.linear(prev_disp, *embed), w_ih, bias)
        hidden, cell = cells.lstm_cell(gates_in, state, cell, w_hh)
        disp = cells.linear(hidden, model.params["out.W"], model.params["out.b"])
        cum = disp if cum is None else ad.add(cum, disp)
        pos = ad.add(ad.constant(last_pos), cum)
        prev_disp = disp
        disps.append(disp)
        positions.append(pos)
        kin = advance_kinematics(pos_values, pos.values, kin)
        pos_values = pos.values

    undo = (slice(None),) * len(lead) + (layout.undo,)
    return ForwardResult([pid for scene in scenes for pid in scene.ped_ids],
                         np.take(np.stack([d.values for d in disps], axis=-2),
                                 layout.undo, axis=len(lead)),
                         ad.gather(ad.stack(positions, axis=-2), undo),
                         present.T)



def composed_observed_pass(track, presence, layout, grid, embed, lstm, fuse, start=None):
    """``cells.observed_pass`` as the records it took before its pair
    weights and its loop were fused: the composed pair chain over all steps
    (``pairwise_offsets`` and ``cells.spatial_weights``: offsets,
    distance, grid cell, relu and softmax), the step inputs and their
    embedding over all steps, then from zero states, or from ``start``'s
    states gathered into every leading slice, step by step, the block
    product, the fuse and ``cells.lstm_cell``.

    The pair chain runs over all steps at once because the pass sums each
    grid cell's gradient over the pairs of every step in one scatter; a
    spatial round per step adds per-step sums instead, last step first,
    which differs in the last bits."""
    from scantraj import autodiff as ad
    from scantraj import cells, spatial
    from scantraj.geometry import track_kinematics

    lead, T = track.shape[:-3], track.shape[-2]
    index = np.ix_(np.arange(T), *map(np.arange, lead), layout.order)
    pos = ad.gather(track, index[1:] + index[:1])
    kins = track_kinematics(pos.values, None if start is None else start[2])
    offsets = pairwise_offsets(pos, layout.neighbors)
    mask = layout.neighbor_mask(presence)[(slice(None),) + (None,) * len(lead)]
    weights = ad.unstack(cells.spatial_weights(
        offsets, kins, np.broadcast_to(mask, offsets.shape[:-1]), layout, grid))
    if start is None:
        step_in = ad.concat([ad.constant(np.zeros((1,) + pos.shape[1:])),
                             ad.sub(pos[1:], pos[:-1])])
    else:
        before = np.broadcast_to(start[2].position, (1,) + pos.shape[1:])
        step_in = ad.sub(pos, ad.concat([ad.constant(before), pos[:-1]]))
    w_ih, w_hh, bias = lstm
    gates_in = ad.unstack(cells.linear(cells.linear(step_in, *embed), w_ih, bias))
    hidden = cell = ad.constant(np.zeros(pos.shape[1:-1] + w_hh.shape[1:]))
    if start is not None:
        rows = np.broadcast_to(np.arange(layout.n_rows), lead + (layout.n_rows,))
        hidden, cell = ad.gather(start[0], rows), ad.gather(start[1], rows)
    keys = []
    for step_weights, step_gates in zip(weights, gates_in):
        context = spatial.context_vector(step_weights, hidden, layout.blocks)
        fused, _ = spatial.fuse_hidden(hidden, context, *fuse)
        keys.append(fused)
        hidden, cell = cells.lstm_cell(step_gates, fused, cell, w_hh)
    return hidden, cell, ad.stack(keys), kins[-1]
