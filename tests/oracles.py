"""Independent reference implementations used to cross-check the package.

Deliberately written with plain ``math`` loops and no imports from the
package under test (numpy is used only for array containers), so they
cannot share bugs with the real code paths.
"""

import math

import numpy as np


def oracle_spatial(grid_values, bearing_step, heading_step,
                   positions, headings, hiddens, target,
                   literal_softmax=False):
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
    if literal_softmax:
        if raw.size:
            e = np.array([math.exp(v - raw.max()) for v in raw])
            weights = e / e.sum()
    else:
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
