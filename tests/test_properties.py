"""Property-based checks of the scene-batched forward pass.

Hypothesis draws the crowds; every property is one the hand-picked tests
pin for a few cases: vectorised headings and bins agree with the scalar
geometry agent by agent and pair by pair, renumbering a scene permutes the forecast bit for bit, a neighbour
beyond every range cannot change anyone else's forecast, and the tape
grows with the number of steps, not with the crowd.

The sample-batched passes have their own: a k-sample decode equals k
one-sample decodes bit for bit, one sample's noise reaches no other sample,
the batched decode and critic are renumbering-equivariant bit for bit, and
the tape does not grow with k.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scantraj import autodiff as ad
from scantraj import generative as gn
from scantraj import model as sm
from scantraj.data import SceneWindow
from scantraj.geometry import (AgentKinematics, BinSpec, CrowdKinematics,
                               advance_kinematics, bin_index, bin_indices,
                               compute_encounter, estimate_heading,
                               normalize_deg)

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


def arrays_of(agents) -> CrowdKinematics:
    """The kinematics arrays of a list (or an object array) of agents."""
    agents = np.asarray(agents, dtype=object)
    flat = agents.ravel()
    return CrowdKinematics(
        np.array([k.position for k in flat]).reshape(agents.shape + (2,)),
        np.array([k.heading_deg for k in flat]).reshape(agents.shape),
        np.array([k.heading_valid for k in flat]).reshape(agents.shape))


@settings(PROPERTY, max_examples=300)
@given(crowd=st.one_of(crowds(), files()), spec=spec)
def test_vectorised_bins_equal_the_scalar_geometry(crowd, spec):
    bearing, rel_heading = bin_indices(arrays_of(crowd), spec)
    for a, observer in enumerate(crowd):
        for b, other in enumerate(crowd):
            want = bin_index(compute_encounter(observer, other), spec)
            assert (bearing[a, b], rel_heading[a, b]) == want, (a, b)


@PROPERTY
@given(n=st.integers(1, 6), samples=st.integers(1, 4), spec=spec, data=st.data())
def test_sample_batched_bins_equal_the_scalar_geometry(n, samples, spec, data):
    agent = st.tuples(coordinate, coordinate, heading).map(
        lambda a: AgentKinematics((a[0], a[1]), a[2], True))
    crowd = np.empty((samples, n), dtype=object)
    crowd[...] = data.draw(st.lists(st.lists(agent, min_size=n, max_size=n),
                                    min_size=samples, max_size=samples))
    bearing, rel_heading = bin_indices(arrays_of(crowd), spec)
    assert bearing.shape == (samples, n, n)
    for s in range(samples):
        for a in range(n):
            for b in range(n):
                want = bin_index(compute_encounter(crowd[s, a], crowd[s, b]), spec)
                assert (bearing[s, a, b], rel_heading[s, a, b]) == want, (s, a, b)


# One agent's step: generic, along an axis, at a multiple of 15 degrees,
# around the stationary threshold, or none at all (coincident points).
step_length = st.floats(1e-3, 5.0)
move = st.one_of(
    st.tuples(coordinate, coordinate),
    st.tuples(step_length, st.integers(0, 23)).map(
        lambda a: (a[0] * math.cos(math.radians(15.0 * a[1])),
                   a[0] * math.sin(math.radians(15.0 * a[1])))),
    st.tuples(coordinate, st.just(0.0)),
    st.tuples(st.just(0.0), coordinate),
    st.tuples(st.floats(-1.2e-6, 1.2e-6), st.floats(-1.2e-6, 1.2e-6)),
    st.just((0.0, 0.0)))


@settings(PROPERTY, max_examples=200)
@given(samples=st.integers(1, 3), n=st.integers(1, 6), data=st.data())
def test_vectorised_headings_equal_estimate_heading(samples, n, data):
    agents = data.draw(st.lists(
        st.tuples(coordinate, coordinate, move, heading, st.booleans()),
        min_size=samples * n, max_size=samples * n))
    if n > 1 and data.draw(st.booleans()):  # two agents on one spot
        agents[1] = agents[0]
    prev = np.array([(x, y) for x, y, *_ in agents]).reshape(samples, n, 2)
    cur = np.array([(x + dx, y + dy) for x, y, (dx, dy), *_ in agents]
                   ).reshape(samples, n, 2)
    fallback = CrowdKinematics(
        prev, np.array([a[3] for a in agents]).reshape(samples, n),
        np.array([a[4] for a in agents]).reshape(samples, n))
    got = advance_kinematics(prev, cur, fallback)
    for idx in np.ndindex(samples, n):
        want = estimate_heading(prev[idx], cur[idx], AgentKinematics(
            tuple(prev[idx]), float(fallback.heading_deg[idx]),
            bool(fallback.heading_valid[idx])))
        assert tuple(got.position[idx]) == want.position, idx
        assert float(got.heading_deg[idx]).hex() == want.heading_deg.hex(), idx
        assert bool(got.heading_valid[idx]) == want.heading_valid, idx


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


def generative_model(data, seed):
    """A micro generative forecaster with drawn variant, attention key and
    coordinate mode, and a range grid with a different range in every cell,
    so that each pair's bins matter."""
    cfg = micro_cfg(
        generative=True, noise_dim=3, obs_len=3, pred_len=3,
        variant=data.draw(st.sampled_from(["scan", "vanilla"])),
        attention_key=data.draw(st.sampled_from(["fused", "joint"])),
        coordinate_mode=data.draw(st.sampled_from(["displacement", "absolute"])))
    params = sm.build_params(cfg, ad.RngHub(seed % 7))
    grid = params["domain_grid"].values
    grid[...] = np.random.default_rng(seed).uniform(0.5, 4.0, size=grid.shape)
    return sm.ScanModel(cfg, params)


def sampled_scene(data, seed, n, ped_ids=None):
    """Random walkers; each one may be absent from some predicted steps."""
    scene = make_scene(walkers(np.random.default_rng(seed), n, 6), 3,
                       ped_ids=ped_ids)
    scene.mask[3:] = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=3, max_size=3)))
    return scene


def decode(model, scene, noise):
    with ad.Tape():
        return model.decode(scene, model.encode(scene), noise=noise)


@PROPERTY
@given(n=st.integers(2, 8), k=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batched_decode_equals_one_sample_decodes_bitwise(n, k, seed, data):
    model = generative_model(data, seed)
    scene = sampled_scene(data, seed, n)
    noise = np.random.default_rng(seed).standard_normal((k, 3))
    batch = decode(model, scene, noise)
    assert batch.pos.shape == (k, n, 3, 2)
    for s in range(k):
        one = decode(model, scene, noise[s])
        assert np.array_equal(batch.pos.values[s], one.pos.values), s
        assert np.array_equal(batch.disp.values[s], one.disp.values), s


@PROPERTY
@given(n=st.integers(2, 8), k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_changing_one_noise_leaves_the_other_samples_bitwise(n, k, seed, data):
    model = generative_model(data, seed)
    scene = sampled_scene(data, seed, n)
    noise = np.random.default_rng(seed).standard_normal((k, 3))
    j = data.draw(st.integers(0, k - 1))
    moved = noise.copy()
    moved[j] += np.random.default_rng(seed + 1).normal(0.0, 2.0, size=3)
    before = decode(model, scene, noise).pos.values
    after = decode(model, scene, moved).pos.values
    others = [s for s in range(k) if s != j]
    assert np.array_equal(before[others], after[others])
    assert not np.array_equal(before[j], after[j])


@PROPERTY
@given(n=st.integers(2, 8), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_batched_decode_and_critic_are_renumbering_equivariant(n, k, seed, data):
    perm = data.draw(st.permutations(range(n)))
    ids = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n,
                             unique=True))
    model = generative_model(data, seed)
    scene = sampled_scene(data, seed, n, ped_ids=ids)
    permuted = SceneWindow(ped_ids=[scene.ped_ids[i] for i in perm],
                           positions=scene.positions[:, perm].copy(),
                           mask=scene.mask[:, perm].copy(), obs_len=3)
    noise = np.random.default_rng(seed).standard_normal((k, 3))
    batch = decode(model, scene, noise)
    batch_p = decode(model, permuted, noise)
    assert np.array_equal(batch_p.pos.values, batch.pos.values[:, perm])

    critic = gn.build_discriminator_params(model.cfg, ad.RngHub(seed % 5))
    grid = critic["disc.domain_grid"].values
    grid[...] = np.random.default_rng(seed + 2).uniform(0.5, 4.0, size=grid.shape)
    tracks = np.concatenate([scene.positions.transpose(1, 0, 2)[None],
                             gn.fake_position_nodes(scene, batch).values])
    with ad.Tape():
        logits = gn.discriminator_logits(model.cfg, critic, scene.ped_ids,
                                         ad.constant(tracks), scene.mask)
        logits_p = gn.discriminator_logits(
            model.cfg, critic, permuted.ped_ids,
            ad.constant(tracks[:, perm]), permuted.mask)
        alone = [gn.discriminator_logits(model.cfg, critic, scene.ped_ids,
                                         ad.constant(track), scene.mask)
                 for track in tracks]
    assert logits.shape == (k + 1, n, 1)
    assert np.array_equal(logits_p.values, logits.values[:, perm])
    for s, one in enumerate(alone):
        assert np.array_equal(logits.values[s], one.values), s


@PROPERTY
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampling_tape_size_does_not_grow_with_k(n, seed, data):
    model = generative_model(data, seed)
    scene = sampled_scene(data, seed, n)
    records = []
    for k in (2, 8):
        with ad.Tape() as tape:
            gn.sample_predictions(model, scene, k, np.random.default_rng(seed))
        records.append(len(tape))
    assert records[0] == records[1]
