"""Property-based checks of the scene-batched forward pass.

Hypothesis draws the crowds; every property is one the hand-picked tests
pin for a few cases: vectorised bins agree with the scalar geometry pair by
pair, renumbering a scene permutes the forecast bit for bit, a neighbour
beyond every range cannot change anyone else's forecast, and the tape
grows with the number of steps, not with the crowd.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scantraj import autodiff as ad
from scantraj import model as sm
from scantraj.data import SceneWindow
from scantraj.geometry import (AgentKinematics, BinSpec, bin_index,
                               bin_indices, compute_encounter, normalize_deg)

from test_model import build, make_scene, micro_cfg

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

# Dyadic coordinates on a quarter-metre lattice put many pairs exactly on
# an axis or a diagonal, i.e. on a bearing-bin edge.
coordinate = st.one_of(
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
    st.integers(-16, 16).map(lambda k: k / 4.0))
# Multiples of 15 degrees sit on an edge of every spec below.
heading = st.one_of(
    st.floats(0.0, 360.0, exclude_max=True),
    st.integers(0, 23).map(lambda k: k * 15.0),
    st.just(math.nextafter(360.0, 0.0)))
spec = st.sampled_from([BinSpec(30.0, 30.0), BinSpec(45.0, 90.0),
                        BinSpec(120.0, 60.0), BinSpec(90.0, 90.0),
                        BinSpec(360.0, 360.0)])


@st.composite
def crowds(draw):
    agents = draw(st.lists(st.tuples(coordinate, coordinate, heading),
                           min_size=1, max_size=8))
    if draw(st.booleans()):                 # a coincident agent
        x, y, _ = agents[0]
        agents.append((x, y, draw(heading)))
    return [AgentKinematics((x, y), h, True) for x, y, h in agents]


@st.composite
def files(draw):
    """Walkers in single file, all heading along the line the way
    estimate_heading computes a heading: every pair sits within rounding of
    a bearing edge (0 or 180 degrees), on either side of it.

    Generic directions matter here (numpy's and libm's atan2 agree on the
    round ones), so the geometry comes from a drawn seed.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dx, dy = rng.normal(size=2)
    along = normalize_deg(math.degrees(math.atan2(dy, dx)))
    x0, y0 = rng.uniform(-4.0, 4.0, size=2)
    ts = rng.uniform(-4.0, 4.0, size=draw(st.integers(2, 8)))
    return [AgentKinematics((float(x0 + t * dx), float(y0 + t * dy)), along, True)
            for t in ts]


@settings(PROPERTY, max_examples=300)
@given(crowd=st.one_of(crowds(), files()), spec=spec)
def test_vectorised_bins_equal_the_scalar_geometry(crowd, spec):
    bearing, rel_heading = bin_indices(crowd, spec)
    for a, observer in enumerate(crowd):
        for b, other in enumerate(crowd):
            want = bin_index(compute_encounter(observer, other), spec)
            assert (bearing[a, b], rel_heading[a, b]) == want, (a, b)


def walkers(rng, n, steps, spread=1.5, step_sd=0.2):
    """(n, steps, 2) random walks starting inside a small square."""
    start = rng.uniform(-spread, spread, size=(n, 1, 2))
    moves = np.cumsum(rng.normal(0.0, step_sd, size=(n, steps - 1, 2)), axis=1)
    return np.concatenate([start, start + moves], axis=1)


@PROPERTY
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_renumbering_permutes_the_forecast_bitwise(n, seed, data):
    perm = data.draw(st.permutations(range(n)))
    ids = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n,
                             unique=True))
    scene = make_scene(walkers(np.random.default_rng(seed), n, 5), 3, ped_ids=ids)
    permuted = SceneWindow(ped_ids=[scene.ped_ids[i] for i in perm],
                           positions=scene.positions[:, perm].copy(),
                           mask=scene.mask[:, perm].copy(), obs_len=3)
    model = build(micro_cfg(), seed=seed % 7)
    with ad.Tape():
        result = model.forward(scene)
        loss = float(sm.trajectory_loss(result, scene).values)
    with ad.Tape():
        result_p = model.forward(permuted)
        loss_p = float(sm.trajectory_loss(result_p, permuted).values)
    assert np.array_equal(result_p.positions(), result.positions()[perm])
    assert np.array_equal(result_p.displacements(), result.displacements()[perm])
    assert loss_p == loss


@PROPERTY
@given(n_near=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       angle=st.floats(0.0, 2.0 * math.pi), data=st.data())
def test_far_neighbour_cannot_leak_into_the_crowd(n_near, seed, angle, data):
    rng = np.random.default_rng(seed)
    near = walkers(rng, n_near, 7)
    anchor = 50.0 * np.array([math.cos(angle), math.sin(angle)])
    far = anchor + walkers(rng, 1, 7, spread=0.0, step_sd=0.3)[0]
    # Moved and re-routed: the far walker's own hidden state changes too.
    nudged = far + rng.normal(0.0, 0.3, size=(1, 2))
    nudged[1:] += np.cumsum(rng.normal(0.0, 0.1, size=(6, 2)), axis=0)
    # The far walker's id decides where its row sorts among the crowd's.
    ids = data.draw(st.lists(st.integers(0, 99), min_size=n_near + 1,
                             max_size=n_near + 1, unique=True))
    model = build(micro_cfg(obs_len=4, pred_len=3), seed=seed % 7)
    with ad.Tape():
        pos_a = model.forward(make_scene(np.concatenate([near, far[None]]), 4,
                                         ped_ids=ids)).positions()
    with ad.Tape():
        pos_b = model.forward(make_scene(np.concatenate([near, nudged[None]]), 4,
                                         ped_ids=ids)).positions()
    assert np.array_equal(pos_a[:n_near], pos_b[:n_near])
    assert not np.array_equal(pos_a[-1], pos_b[-1])


def test_forward_tape_size_does_not_grow_with_the_crowd():
    cfg = sm.ModelConfig()
    model = sm.ScanModel(cfg, sm.build_params(cfg, ad.RngHub(1)))
    rng = np.random.default_rng(5)
    records = []
    for n in (3, 12):
        scene = make_scene(walkers(rng, n, cfg.obs_len + cfg.pred_len, spread=3.0),
                           cfg.obs_len)
        with ad.Tape() as tape:
            model.forward(scene)
        records.append(len(tape))
    assert records[0] == records[1]
