"""Temporal attention: scores, weights, and the output projection."""

import numpy as np
import pytest

from scantraj import autodiff as ad
from scantraj import temporal
from scantraj.errors import ShapeError

from oracles import matmul, numeric_gradient


def make_bank(vectors):
    """A one-pedestrian key node: row 0 holds ``vectors`` as its T keys."""
    return ad.constant(np.asarray(vectors, dtype=np.float64)[None])


def attention_weights(query, bank):
    """Recompute the internal weights the way attend() defines them."""
    scores = np.array([float(np.dot(query.values, k)) for k in bank.values[0]])
    e = np.exp(scores - scores.max())
    return e / e.sum()


class TestWeights:
    def test_identical_keys_share_weight_uniformly(self):
        K = 3
        bank = make_bank([np.ones(K)] * 4)
        w = attention_weights(ad.constant(np.ones(K)), bank)
        np.testing.assert_allclose(w, [0.25] * 4, rtol=1e-15)

    def test_frozen_quarter_three_quarter_split(self):
        # scores 0 and ln 3 -> weights 0.25 / 0.75
        q = ad.constant([1.0, 0.0])
        bank = make_bank([[0.0, 5.0], [np.log(3.0), 9.0]])
        np.testing.assert_allclose(attention_weights(q, bank), [0.25, 0.75],
                                   rtol=1e-12)

    def test_best_matching_step_dominates(self):
        rng = np.random.default_rng(42)
        K = 4
        for _ in range(50):
            keys = rng.normal(size=(5, K))
            keys /= np.linalg.norm(keys, axis=1, keepdims=True)  # equal norms
            q = keys[2] * 3.0
            w = attention_weights(ad.constant(q), make_bank(list(keys)))
            assert np.argmax(w) == np.argmax(keys @ q)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            t = int(rng.integers(1, 9))
            bank = make_bank(list(rng.normal(size=(t, 3))))
            w = attention_weights(ad.constant(rng.normal(size=3)), bank)
            assert abs(w.sum() - 1.0) < 1e-12


class TestAttend:
    def test_output_shape_is_hidden_size(self):
        rng = np.random.default_rng(44)
        K, H = 6, 4
        bank = make_bank(list(rng.normal(size=(8, K))))
        out = temporal.attend(ad.constant(rng.normal(size=(1, K))), bank,
                              ad.constant(rng.normal(size=(H, 2 * K))),
                              ad.constant(np.zeros(H)))
        assert out.shape == (1, H)

    def test_permuting_bank_leaves_output_unchanged(self):
        """Attention is a set operation over its keys."""
        rng = np.random.default_rng(45)
        K, H = 3, 3
        keys = list(rng.normal(size=(5, K)))
        q = ad.constant(rng.normal(size=(1, K)))
        W = ad.constant(rng.normal(size=(H, 2 * K)))
        b = ad.constant(np.zeros(H))
        out = temporal.attend(q, make_bank(keys), W, b)
        perm = [keys[i] for i in (3, 0, 4, 1, 2)]
        out_p = temporal.attend(q, make_bank(perm), W, b)
        np.testing.assert_allclose(out.values, out_p.values, atol=1e-12)

    def test_empty_bank_is_rejected(self):
        with pytest.raises(ShapeError, match="empty"):
            temporal.attend(ad.constant(np.zeros((1, 2))),
                            make_bank(np.zeros((0, 2))),
                            ad.constant(np.zeros((2, 4))), ad.constant(np.zeros(2)))

    def test_query_key_width_mismatch_rejected(self):
        bank = make_bank([np.zeros(3)])
        with pytest.raises(ShapeError, match="query"):
            temporal.attend(ad.constant(np.zeros((1, 4))), bank,
                            ad.constant(np.zeros((2, 6))), ad.constant(np.zeros(2)))

    def test_gradients_flow_to_query_and_keys(self):
        rng = np.random.default_rng(47)
        K, H = 3, 2
        qv = rng.normal(size=K)
        keyv = rng.normal(size=(4, K))
        Wv = rng.normal(size=(H, 2 * K))
        probe = rng.normal(size=H)

        q = ad.constant(qv[None])
        with ad.Tape() as tape:
            bank = make_bank(keyv)
            out = temporal.attend(q, bank, ad.constant(Wv), ad.constant(np.zeros(H)))
            tape.backward(matmul(out[0], ad.constant(probe)))
            got_q = q.grad[0].copy()

        def f():
            with ad.Tape():
                out = temporal.attend(ad.TensorNode(qv[None]), make_bank(keyv),
                                      ad.constant(Wv), ad.constant(np.zeros(H)))
                return float(matmul(out[0], ad.constant(probe)).values)

        np.testing.assert_allclose(got_q, numeric_gradient(f, qv),
                                   rtol=1e-4, atol=1e-8)
