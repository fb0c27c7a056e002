"""Property-based checks of the scene-batched forward pass.

Hypothesis draws the crowds; every property is one the hand-picked tests
pin for a few cases: vectorised headings and bins agree with the scalar
geometry agent by agent and pair by pair, renumbering a scene permutes the forecast bit for bit, a neighbour
beyond every range cannot change anyone else's forecast, and the tape
grows with the number of steps, not with the crowd.

The bins agree too for neighbours on a bearing edge and one ulp to either
side of it. What makes the scalar reference equal the arrays is that
numpy's angle functions give a value alone the bits it has in any array;
a property pins that as well. So do known tracks: the kinematics of a
whole track, found in one sweep, equal the step-by-step chain bit for
bit. A row with at most one admitted neighbour sends the domain grid
exactly zero gradient.

The sample-batched passes have their own: a k-sample decode equals k
one-sample decodes bit for bit, one sample's noise reaches no other sample,
the batched decode and critic are renumbering-equivariant bit for bit, and
the tape does not grow with k.

The fused decoder step equals the separate records it replaced: a whole
decode, over drawn configurations, batches and samples, gives the same
positions and the same gradient to every parameter and every encoder
output as the composed records, bit for bit. So does a known-track pass
(the encoder's and the critic's): its hidden, cell and keys, the gradient
of every parameter and of the track, also when it continues from the
state of a pass over earlier steps. A critic pass split at the
observation, the shared observed steps once and every future from their
state, gives the full-track logits bit for bit.

So do the scene-batched passes of a training step: every scene of a batch
equals a pass over it alone bit for bit, though the scenes overlap in space
and share pedestrian ids; the batch loss is the mean of the lone losses and
its gradient their sum; a GAN step reports what lone passes give; and the
tape grows with the number of scenes, not with its square.

The variety term trains on the very sample that best-of-k scores, the
lowest index among exact ADE ties.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scantraj import autodiff as ad
from scantraj import cells
from scantraj import generative as gn
from scantraj import metrics
from scantraj import model as sm
from scantraj import spatial
from scantraj.data import SceneWindow
from scantraj.geometry import (AgentKinematics, BinSpec, CrowdKinematics,
                               advance_kinematics, bin_index, bin_indices,
                               compute_encounter, estimate_heading,
                               normalize_deg, track_kinematics)

from oracles import composed_decode, composed_observed_pass
from test_model import build, fake_track, make_scene, micro_cfg, real_track

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

    Generic directions matter here (round ones land exactly on the edge),
    so the geometry comes from a drawn seed.
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


def headings_across(world: float, edge: float) -> list[float]:
    """Consecutive headings, one ulp apart, around the heading from which a
    neighbour at world angle ``world`` sits at bearing ``edge``: they give
    the edge itself (where some heading does) and the nearest bearings
    computed on either side of it. A lower heading sees a larger bearing."""
    out = [normalize_deg(world - edge)]
    for way, above in ((-math.inf, True), (math.inf, False)):
        h = out[0]
        for _ in range(64):
            bearing = normalize_deg(world - h)
            if bearing != edge and ((bearing - edge) % 360.0 < 180.0) == above:
                break
            h = math.nextafter(h, way)
            h = math.nextafter(360.0, 0.0) if h < 0.0 else 0.0 if h >= 360.0 else h
            out.append(h)
    return out


@settings(PROPERTY, max_examples=100)
@given(spec=spec, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_bins_of_neighbours_on_a_bearing_edge_equal_the_scalar_geometry(spec, seed, data):
    # The pairs within rounding of an edge are the ones where the array
    # bearing and the scalar one could land in different bins.
    edges = data.draw(st.lists(st.integers(0, spec.n_bearing - 1), min_size=1, max_size=4,
                               unique=True))
    rng = np.random.default_rng(seed)
    qx, qy = (float(v) for v in rng.uniform(-4.0, 4.0, size=2))
    crowd = [AgentKinematics((qx, qy), data.draw(heading), True)]
    for k in edges:
        px, py = (float(v) for v in rng.uniform(-4.0, 4.0, size=2))
        world = float(np.degrees(np.arctan2(qy - py, qx - px)))
        crowd += [AgentKinematics((px, py), h, True)
                  for h in headings_across(world, k * spec.bearing_step_deg)]
    bearing, rel_heading = bin_indices(arrays_of(crowd), spec)
    for a, observer in enumerate(crowd):
        for b, other in enumerate(crowd):
            want = bin_index(compute_encounter(observer, other), spec)
            assert (bearing[a, b], rel_heading[a, b]) == want, (a, b)


operand = st.one_of(coordinate, st.just(0.0), st.just(-0.0), st.floats(-1e300, 1e300))


@settings(PROPERTY, max_examples=20)
@given(special=st.lists(st.tuples(operand, operand, st.floats(-4.0, 4.0)), max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_numpy_angles_give_a_value_alone_the_bits_it_has_in_any_array(special, seed):
    # The scalar geometry computes on 0-d values and the batched geometry on
    # arrays, contiguous or every other entry of an offsets array: the two
    # agree bit for bit only while numpy's loops give each entry the bits it
    # gets alone, whatever the array's length and the entry's place in it.
    # 64 (y, x, radians) rows, the drawn ones first, visit every place.
    table = np.random.default_rng(seed).normal(0.0, 4.0, size=(64, 3))
    table[:len(special)] = np.reshape(special, (-1, 3))
    alone = np.array([[np.arctan2(y, x), np.hypot(x, y), np.degrees(r)]
                      for y, x, r in table.tolist()])
    spaced = np.zeros((3, 2 * 64))
    for shift in range(64):
        rows = (np.arange(64) + shift) % 64
        dense = table[rows].T.copy()
        spaced[:, ::2] = dense
        for n in range(1, 65):
            for ys, xs, rs in (dense[:, :n], spaced[:, :2 * n:2]):
                got = np.stack([np.arctan2(ys, xs), np.hypot(xs, ys), np.degrees(rs)], axis=1)
                assert got.tobytes() == alone[rows[:n]].tobytes(), (shift, n)


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


@settings(PROPERTY, max_examples=200)
@given(steps=st.integers(1, 6), samples=st.integers(1, 3), n=st.integers(1, 4),
       data=st.data())
def test_track_headings_equal_chained_advance_kinematics(steps, samples, n, data):
    start = data.draw(st.lists(st.tuples(coordinate, coordinate),
                               min_size=samples * n, max_size=samples * n))
    moves = data.draw(st.lists(st.lists(move, min_size=samples * n, max_size=samples * n),
                               min_size=steps - 1, max_size=steps - 1))
    track = np.cumsum(np.array([start] + moves, dtype=np.float64), axis=0)
    track = track.reshape(steps, samples, n, 2)
    if n > 1 and data.draw(st.booleans()):  # two agents on one spot throughout
        track[:, :, 1] = track[:, :, 0]
    got = track_kinematics(track)
    want = CrowdKinematics(track[0].copy(), np.zeros((samples, n)),
                           np.zeros((samples, n), dtype=bool))
    for t in range(steps):
        if t:
            want = advance_kinematics(track[t - 1], track[t], want)
        assert got.position[t].tobytes() == want.position.tobytes()
        assert got.heading_deg[t].tobytes() == want.heading_deg.tobytes(), t
        assert np.array_equal(got.heading_valid[t], want.heading_valid), t


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


@PROPERTY
@given(lead=st.sampled_from([(), (3,)]), sizes=st.lists(st.integers(1, 4), min_size=1,
                                                         max_size=4),
       live=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_a_row_with_at_most_one_admitted_neighbour_sends_the_grid_no_gradient(
        lead, sizes, live, seed):
    # A softmax over one score is 1 whatever the score: a pedestrian with one
    # neighbour in range, or none, cannot teach the domain grid anything.
    rng = np.random.default_rng(seed)
    layout = cells.SceneLayout([list(range(n)) for n in sizes])
    R, J = layout.neighbors.shape
    admitted = np.arange(J) == rng.integers(-1, J, size=lead + (R, 1))  # -1: none
    bins = (rng.integers(1, 4, size=lead + (R, J)), rng.integers(1, 3, size=lead + (R, J)))
    grid = ad.constant(rng.uniform(0.5, 3.0, size=(3, 2)))
    cum = ad.constant(rng.normal(0.0, 0.5, size=lead + (R, 2))) if live else None
    with ad.Tape() as tape:
        weights = ad.pair_weights(cum, grid, rng.normal(size=lead + (R, J, 2)),
                                  layout.neighbors, bins, admitted)
        tape.backward(ad.reduce_sum(ad.mul(weights, ad.constant(rng.normal(size=weights.shape)))))
    assert grid.grad.tobytes() == np.zeros(grid.shape).tobytes()


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


def generative_model(data, seed, generative=True):
    """A micro forecaster (generative by default) with a drawn variant and a
    range grid with a different range in every cell, so that each pair's
    bins matter."""
    cfg = micro_cfg(
        generative=generative, noise_dim=3, obs_len=3, pred_len=3,
        variant=data.draw(st.sampled_from(["scan", "vanilla"])))
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
                             fake_track(scene, batch).values])
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
@given(S=st.integers(1, 5), sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       obs_len=st.integers(2, 4), pred_len=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_a_critic_pass_split_at_the_observation_equals_the_full_track_pass(
        S, sizes, obs_len, pred_len, seed):
    # The observed steps run once and every future continues from them. The
    # logits are the full-track pass's bit for bit; the gradients match up
    # to the order of their sums, the history's adjoints being summed over
    # the samples. Some walkers stand still in every future, so their
    # headings come from the observed steps.
    cfg = micro_cfg(obs_len=obs_len, pred_len=pred_len)
    critic = gn.build_discriminator_params(cfg, ad.RngHub(seed % 5))
    rng = np.random.default_rng(seed)
    grid = critic["disc.domain_grid"].values
    grid[...] = rng.uniform(0.5, 4.0, size=grid.shape)
    layout = cells.SceneLayout([list(range(n)) for n in sizes])
    N = layout.n_rows
    history = np.cumsum(rng.normal(0.0, 0.5, size=(N, obs_len, 2)), axis=1)
    futures = history[:, -1:] + np.cumsum(rng.normal(0.0, 0.5, size=(S, N, pred_len, 2)),
                                          axis=-2)
    still = rng.uniform(size=N) < 0.3
    futures[:, still] = history[still, -1:]
    mask = rng.uniform(size=(obs_len + pred_len, N)) < 0.8
    probe = rng.normal(size=(S, N, 1))
    got = []
    for split in (False, True):
        critic.zero_grads()
        leaf = ad.constant(futures.copy())
        with ad.Tape() as tape:
            if split:
                logits = gn.discriminator_logits(cfg, critic, layout, leaf, mask,
                                                 history=history.copy())
            else:
                observed = ad.constant(np.broadcast_to(history, (S,) + history.shape))
                logits = gn.discriminator_logits(
                    cfg, critic, layout, ad.concat([observed, leaf], axis=-2), mask)
            tape.backward(ad.reduce_sum(ad.mul(logits, ad.constant(probe))))
        got.append((logits.values.tobytes(), leaf.grad.copy(),
                    {name: node.grad.copy() for name, node in critic.items()}))
    assert got[0][0] == got[1][0]
    np.testing.assert_allclose(got[1][1], got[0][1], rtol=1e-12, atol=1e-15)
    for name, grad in got[0][2].items():
        np.testing.assert_allclose(got[1][2][name], grad, rtol=1e-12, atol=1e-15,
                                   err_msg=name)


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


def drawn_batch(data, seed):
    """1 to 4 scenes of 1 to 6 random walkers over the same few square
    metres, with ids from a small pool (so they repeat across scenes), drawn
    presence in the predicted steps, and one pedestrian who vanishes."""
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    scenes = []
    for b, n in enumerate(sizes):
        ids = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n,
                                 unique=True))
        scenes.append(sampled_scene(data, seed + b, n, ped_ids=ids))
    b = data.draw(st.integers(0, len(scenes) - 1))
    ped = data.draw(st.integers(0, scenes[b].n_peds - 1))
    scenes[b].mask[data.draw(st.integers(3, 5)):, ped] = False
    return scenes


def noise_blocks(data, seed, n_scenes):
    """One (k, 3) noise block per scene, k drawn, or None (zero noise)."""
    if not data.draw(st.booleans()):
        return None
    k = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((k, 3)) for _ in range(n_scenes)]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_scene_of_a_batch_equals_its_lone_pass_bitwise(seed, data):
    model = generative_model(data, seed)
    scenes = drawn_batch(data, seed)
    noises = noise_blocks(data, seed, len(scenes))
    with ad.Tape():
        bank = model.encode(scenes)
        batch = model.decode(scenes, bank, noise=None if noises is None
                             else np.stack(noises, axis=1))
    start = 0
    for b, (scene, view) in enumerate(zip(scenes, batch.per_scene(scenes))):
        rows = slice(start, start + scene.n_peds)
        start += scene.n_peds
        with ad.Tape():
            lone_bank = model.encode(scene)
            lone = model.decode(scene, lone_bank,
                                noise=None if noises is None else noises[b])
        assert np.array_equal(bank.hidden.values[rows], lone_bank.hidden.values), b
        assert np.array_equal(bank.keys.values[rows], lone_bank.keys.values), b
        assert np.array_equal(view.pos.values, lone.pos.values), b
        assert np.array_equal(view.disp.values, lone.disp.values), b
        assert np.array_equal(view.loss_mask, lone.loss_mask), b


@settings(PROPERTY, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_fused_decode_equals_the_composed_records_bitwise(seed, data):
    generative = data.draw(st.booleans())
    model = generative_model(data, seed, generative=generative)
    scenes = drawn_batch(data, seed)
    noises = noise_blocks(data, seed, len(scenes)) if generative else None
    noise = None if noises is None else np.stack(noises, axis=1)
    got = []
    for decode_with in (sm.ScanModel.decode, composed_decode):
        model.params.zero_grads()
        probes = np.random.default_rng(seed)
        with ad.Tape() as tape:
            bank = model.encode(scenes)
            result = decode_with(model, scenes, bank, noise)
            tape.backward(ad.mean_of([
                ad.reduce_sum(ad.mul(out, ad.constant(probes.normal(size=out.shape))))
                for out in (result.pos, result.disp)]))
        got.append([result.pos.values.tobytes(), result.disp.values.tobytes()]
                   + [node.grad.tobytes() for node in (bank.hidden, bank.cell, bank.keys)]
                   + [node.grad.tobytes() for _, node in model.params.items()])
    assert got[0] == got[1]


@PROPERTY
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       lead=st.sampled_from([(), (2,)]), T=st.integers(2, 5), live=st.booleans(), spec=spec,
       seed=st.integers(0, 2**32 - 1))
def test_a_known_track_pass_equals_the_composed_records_bitwise(
        sizes, lead, T, live, spec, seed):
    # A live track is a recorded node the loss reuses, so it arrives with an
    # adjoint, as the critic's fake tracks do; a constant one is a leaf.
    rng = np.random.default_rng(seed)
    layout = cells.SceneLayout([list(range(n)) for n in sizes])
    H, E = 3, 2
    shapes = [(spec.n_bearing, spec.n_heading), (E, 2), E, (4 * H, E), (4 * H, H), 4 * H,
              (H, 2 * H), H]
    arrays = [rng.uniform(0.5, 3.0, size=shapes[0])] + [rng.normal(size=s) for s in shapes[1:]]
    walks = np.cumsum(rng.normal(0.0, 0.5, size=lead + (layout.n_rows, T, 2)), axis=-2)
    presence = rng.uniform(size=(T, layout.n_rows)) < 0.8
    got = []
    for observed_pass in (cells.observed_pass, composed_observed_pass):
        probes = np.random.default_rng(seed)
        grid, *params = [ad.constant(a.copy()) for a in arrays]
        leaf = ad.constant(walks.copy())
        with ad.Tape() as tape:
            track = ad.add(leaf, 0.0) if live else leaf
            outs = observed_pass(track, presence, layout, spatial.DomainGrid(grid, spec),
                                 tuple(params[:2]), tuple(params[2:5]), tuple(params[5:]))[:3]
            tape.backward(ad.mean_of([
                ad.reduce_sum(ad.mul(out, ad.constant(probes.normal(size=out.shape))))
                for out in outs + ((track,) if live else ())]))
        got.append([out.values.tobytes() for out in outs]
                   + [node.grad.tobytes() for node in (grid, *params, leaf)])
    assert got[0] == got[1]


@PROPERTY
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       lead=st.sampled_from([(), (2,)]), T=st.integers(2, 5), spec=spec,
       seed=st.integers(0, 2**32 - 1))
def test_an_array_track_equals_a_constant_leaf_bitwise_and_records_no_position_path(
        sizes, lead, T, spec, seed):
    rng = np.random.default_rng(seed)
    layout = cells.SceneLayout([list(range(n)) for n in sizes])
    H, E = 3, 2
    shapes = [(spec.n_bearing, spec.n_heading), (E, 2), E, (4 * H, E), (4 * H, H), 4 * H,
              (H, 2 * H), H]
    arrays = [rng.uniform(0.5, 3.0, size=shapes[0])] + [rng.normal(size=s) for s in shapes[1:]]
    walks = np.cumsum(rng.normal(0.0, 0.5, size=lead + (layout.n_rows, T, 2)), axis=-2)
    presence = rng.uniform(size=(T, layout.n_rows)) < 0.8
    got, ops = [], []
    for track in (ad.constant(walks.copy()), walks.copy()):
        probes = np.random.default_rng(seed)
        grid, *params = [ad.constant(a.copy()) for a in arrays]
        with ad.Tape() as tape:
            outs = cells.observed_pass(track, presence, layout, spatial.DomainGrid(grid, spec),
                                       tuple(params[:2]), tuple(params[2:5]),
                                       tuple(params[5:]))[:3]
            ops.append({(out[0] if type(out) is tuple else out).op_record.op
                        for out, _, _ in tape._records})
            tape.backward(ad.mean_of([
                ad.reduce_sum(ad.mul(out, ad.constant(probes.normal(size=out.shape))))
                for out in outs]))
        got.append([out.values.tobytes() for out in outs]
                   + [node.grad.tobytes() for node in (grid, *params)])
    assert got[0] == got[1]
    assert not {"gather", "slice", "sub", "concat"} & ops[1], ops[1]


@PROPERTY
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       lead=st.sampled_from([(), (2,)]), T=st.integers(1, 4), live=st.booleans(), spec=spec,
       seed=st.integers(0, 2**32 - 1))
def test_a_pass_continued_from_a_start_equals_the_composed_records_bitwise(
        sizes, lead, T, live, spec, seed):
    # The start's (R, H) states reach every leading slice through a gather,
    # whose backward sums the slices' adjoints. Some rows stand still, so
    # their headings carry over from the start's kinematics.
    rng = np.random.default_rng(seed)
    layout = cells.SceneLayout([list(range(n)) for n in sizes])
    R, H, E = layout.n_rows, 3, 2
    shapes = [(spec.n_bearing, spec.n_heading), (E, 2), E, (4 * H, E), (4 * H, H), 4 * H,
              (H, 2 * H), H, (R, H), (R, H)]
    arrays = [rng.uniform(0.5, 3.0, size=shapes[0])] + [rng.normal(size=s) for s in shapes[1:]]
    kin = track_kinematics(np.cumsum(rng.normal(0.0, 0.5, size=(3, R, 2)), axis=0))[-1]
    walks = kin.position[layout.undo][:, None] + np.cumsum(
        rng.normal(0.0, 0.5, size=lead + (R, T, 2)), axis=-2)
    still = rng.uniform(size=R) < 0.3                  # columns that never move
    walks[..., still, :, :] = kin.position[layout.undo][still][:, None]
    presence = rng.uniform(size=(T, R)) < 0.8
    got = []
    for observed_pass in (cells.observed_pass, composed_observed_pass):
        probes = np.random.default_rng(seed)
        grid, *params = [ad.constant(a.copy()) for a in arrays]
        leaf = ad.constant(walks.copy())
        with ad.Tape() as tape:
            track = ad.add(leaf, 0.0) if live else walks.copy()
            outs = observed_pass(track, presence, layout, spatial.DomainGrid(grid, spec),
                                 tuple(params[:2]), tuple(params[2:5]), tuple(params[5:7]),
                                 start=(params[7], params[8], kin))[:3]
            tape.backward(ad.mean_of([
                ad.reduce_sum(ad.mul(out, ad.constant(probes.normal(size=out.shape))))
                for out in outs + ((track,) if live else ())]))
        got.append([out.values.tobytes() for out in outs]
                   + [node.grad.tobytes() for node in (grid, *params, leaf)])
    assert got[0] == got[1]


def param_grads(model) -> dict:
    return {name: node.grad.copy() for name, node in model.params.items()}


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batch_loss_is_the_mean_of_lone_losses_and_its_gradient_their_sum(seed, data):
    model = generative_model(data, seed, generative=data.draw(st.booleans()))
    scenes = drawn_batch(data, seed)
    with ad.Tape() as tape:
        views = model.forward(scenes).per_scene(scenes)
        losses = [loss for loss in map(sm.trajectory_loss, views, scenes)
                  if loss is not None]
        batch_loss = ad.mean_of(losses)
        if batch_loss is None:
            return
        model.params.zero_grads()
        tape.backward(batch_loss)
    batch_grads = param_grads(model)

    lone_losses, lone_sum = [], None
    for scene in scenes:
        with ad.Tape() as tape:
            loss = sm.trajectory_loss(model.forward(scene), scene)
            if loss is None:
                continue
            model.params.zero_grads()
            tape.backward(loss)
        lone_losses.append(ad.constant(loss.values))
        grads = param_grads(model)
        lone_sum = grads if lone_sum is None else {
            name: lone_sum[name] + grads[name] for name in grads}
    assert float(batch_loss.values) == float(ad.mean_of(lone_losses).values)
    for name, grad in batch_grads.items():
        np.testing.assert_allclose(grad, lone_sum[name] / len(lone_losses),
                                   rtol=1e-12, atol=1e-15, err_msg=name)


@settings(PROPERTY, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_gan_step_reports_what_lone_passes_give(seed, data):
    # With a frozen critic, the batched step must report exactly what lone
    # passes over each scene give, each scene with its own noise draw.
    model = generative_model(data, seed)
    critic = gn.build_discriminator_params(model.cfg, ad.RngHub(seed % 5))
    grid = critic["disc.domain_grid"].values
    grid[...] = np.random.default_rng(seed + 2).uniform(0.5, 4.0, size=grid.shape)
    scenes = drawn_batch(data, seed)
    scenes[0].mask[:, 0] = True             # someone for the critic to score
    k = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    noises = [rng.standard_normal((k, 3)) for _ in scenes]
    with ad.Tape():
        real, fake, variety, diversity = [], [], [], []
        for scene, noise in zip(scenes, noises):
            keep = np.flatnonzero(scene.mask.all(axis=0))
            results = model.decode(scene, model.encode(scene), noise=noise).samples()
            real.append(ad.gather(gn.discriminator_logits(
                model.cfg, critic, scene.ped_ids, real_track(scene),
                scene.mask), keep))
            fake.extend(ad.gather(gn.discriminator_logits(
                model.cfg, critic, scene.ped_ids,
                fake_track(scene, r), scene.mask), keep)
                for r in results)
            samples = gn.PredictionSet(scene.ped_ids, results, noise,
                                       ad.stack([r.pos for r in results]))
            term = gn.variety_loss(scene, samples)
            if term is not None:
                variety.append(term)
            diversity.append(gn.diversity_loss(samples))
        want = {"disc": float(ad.add(gn.bce_real(ad.concat(real)),
                                     gn.bce_fake(ad.concat(fake))).values),
                "adversarial": float(gn.bce_real(ad.concat(fake)).values),
                "variety": float(ad.mean_of(variety).values) if variety else 0.0,
                "diversity": float(ad.mean_of(diversity).values)}
    report = gn.gan_train_step(
        model, critic, scenes, gn.GanConfig(k=k, diversity_weight=0.5),
        ad.Adam(model.params, lr=0.001), ad.Adam(critic, lr=0.0),
        np.random.default_rng(seed))
    for term, value in want.items():
        assert report[term] == value, term


def test_tape_values_grow_with_the_scenes_not_their_square(monkeypatch):
    nbytes = []
    add = ad.Tape.add

    def counting_add(tape, op, out, *rest):
        nbytes[-1] += sum(part.values.nbytes
                          for part in (out if type(out) is tuple else (out,)))
        return add(tape, op, out, *rest)

    monkeypatch.setattr(ad.Tape, "add", counting_add)
    model = build(micro_cfg(obs_len=3, pred_len=3), seed=2)
    scene = make_scene(walkers(np.random.default_rng(9), 5, 6), 3)
    for count in (1, 4):
        nbytes.append(0)
        batch = [scene] * count
        with ad.Tape():
            views = model.forward(batch).per_scene(batch)
            ad.mean_of([sm.trajectory_loss(view, scene) for view in views])
    assert nbytes[1] <= 4 * nbytes[0] + 256


@settings(PROPERTY, max_examples=100)
@given(k=st.integers(1, 5), n=st.integers(1, 4), steps=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_variety_trains_on_the_sample_best_of_k_scores_ties_to_the_lowest(
        k, n, steps, seed, data):
    rng = np.random.default_rng(seed)
    obs_len = 2
    positions = rng.normal(size=(obs_len + steps, n, 2))
    mask = np.ones((obs_len + steps, n), dtype=bool)
    mask[obs_len:] = rng.random((steps, n)) < 0.7
    mask[obs_len, 0] = True
    scene = SceneWindow(list(range(n)), positions, mask, obs_len)
    truth, valid = positions[obs_len:].transpose(1, 0, 2), mask[obs_len:].T
    futures = truth + rng.normal(size=(k, n, steps, 2))
    for i in range(1, k):       # a copy of an earlier sample ties its ADE exactly
        source = data.draw(st.one_of(st.none(), st.integers(0, i - 1)))
        if source is not None:
            futures[i] = futures[source]
    ades = [metrics.ade(future, truth, valid) for future in futures]
    if k > 1 and data.draw(st.booleans()):      # the best ADE, tied at the end
        futures[-1] = futures[int(np.argmin(ades))]
        ades[-1] = metrics.ade(futures[-1], truth, valid)
    expected = ades.index(min(ades))
    assert metrics.best_of_k(futures, truth, valid)[0] == ades[expected]

    results = [sm.ForwardResult(list(range(n)), ad.constant(np.zeros_like(future)),
                                ad.constant(future), np.ones((n, steps), dtype=bool))
               for future in futures]
    with ad.Tape() as tape:
        samples = gn.PredictionSet(list(range(n)), results, np.zeros((k, 1)),
                                   ad.stack([r.pos for r in results]))
        loss = gn.variety_loss(scene, samples)
        assert loss.values == sm.trajectory_loss(results[expected], scene).values
        tape.backward(loss)
    assert [i for i, r in enumerate(results) if np.any(r.pos.grad != 0.0)] == [expected]
