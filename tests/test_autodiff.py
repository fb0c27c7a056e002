"""Tape, op set, optimizer, and RNG stream tests.

Every differentiable op is checked against central finite differences
(h = 1e-5, relative error < 1e-4) through randomly weighted scalar losses,
so the oracle is independent of the backward implementations.
"""

import sys
import threading

import numpy as np
import pytest

from scantraj import autodiff as ad
from scantraj.errors import ShapeError

H = 1e-5
OP_TOL = 1e-4

# Elementwise ops by name, for the loops that check each in turn.
OPS = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "div": ad.div,
       "neg": ad.neg, "relu": ad.relu, "tanh": ad.tanh, "sigmoid": ad.sigmoid,
       "exp": ad.exp, "log": ad.log, "softplus": ad.softplus}


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_grads(build, arrays, tol=OP_TOL):
    """build(nodes) -> scalar node; arrays are the leaf values to check."""
    nodes = [ad.constant(a) for a in arrays]
    with ad.Tape() as tape:
        loss = build(nodes)
        tape.backward(loss)
        analytic = [n.grad.copy() for n in nodes]

    for node, want in zip(nodes, analytic):
        def f():
            with ad.Tape():
                fresh = [ad.TensorNode(n.values) for n in nodes]
                return float(build(fresh).values)
        got = ad.numeric_gradient(f, node.values, h=H)
        assert rel_err(want, got) < tol, f"gradient mismatch: {want} vs {got}"


class TestForwardExamples:
    def test_relu_negative_is_zero(self):
        assert ad.relu(ad.constant(-1.0)).item() == 0.0

    def test_relu_zero_gradient_below_kink(self):
        x = ad.constant(-1.0)
        with ad.Tape() as tape:
            tape.backward(ad.relu(x))
        assert x.grad == 0.0

    def test_softmax_of_equal_scores_is_uniform(self):
        out = ad.masked_softmax(ad.constant([0.0, 0.0]), np.ones(2, bool))
        np.testing.assert_array_equal(out.values, [0.5, 0.5])

    def test_concat_shapes(self):
        out = ad.concat([ad.constant(np.ones(3)), ad.constant(np.ones(2))])
        assert out.shape == (5,)

    def test_masked_softmax_frozen_pair(self):
        # raw [1, 2], both active: [1/(1+e), e/(1+e)]
        out = ad.masked_softmax(ad.constant([1.0, 2.0]), [True, True])
        e = np.e
        np.testing.assert_allclose(out.values, [1 / (1 + e), e / (1 + e)], rtol=1e-15)

    def test_masked_softmax_inactive_entries_are_exact_zero(self):
        out = ad.masked_softmax(ad.constant([3.0, 0.0, 1.0]), [True, False, True])
        assert out.values[1] == 0.0
        assert abs(out.values.sum() - 1.0) < 1e-15

    def test_masked_softmax_all_masked_is_all_zero(self):
        out = ad.masked_softmax(ad.constant([3.0, 1.0]), [False, False])
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_sigmoid_is_stable_at_extremes(self):
        assert ad.sigmoid(ad.constant(800.0)).item() == 1.0
        assert ad.sigmoid(ad.constant(-800.0)).item() == 0.0

    def test_softplus_matches_log1p_exp(self):
        x = np.array([-3.0, 0.0, 2.5])
        np.testing.assert_allclose(ad.softplus(ad.constant(x)).values,
                                   np.log1p(np.exp(x)), rtol=1e-15)


class TestBackwardExamples:
    def test_square_gradient_at_three(self):
        x = ad.constant(3.0)
        with ad.Tape() as tape:
            tape.backward(ad.mul(x, x))
        assert x.grad == 6.0

    def test_tanh_gradient_at_zero(self):
        x = ad.constant(0.0)
        with ad.Tape() as tape:
            tape.backward(ad.tanh(x))
        assert x.grad == 1.0

    def test_fanout_accumulates(self):
        # y = x + x  =>  dy/dx = 2
        x = ad.constant(1.5)
        with ad.Tape() as tape:
            tape.backward(ad.add(x, x))
        assert x.grad == 2.0

    def test_unreachable_node_keeps_zero_grad(self):
        x = ad.constant(2.0)
        bystander = ad.constant(5.0)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            ad.mul(bystander, bystander)  # recorded but not part of the loss
            tape.backward(y)
        assert bystander.grad == 0.0

    def test_non_scalar_loss_rejected(self):
        with ad.Tape() as tape:
            vec = ad.mul(ad.constant([1.0, 2.0]), 2.0)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(vec)


class TestFiniteDifferenceOracle:
    """Every op kind vs central differences, generic random inputs."""

    def test_binary_ops(self):
        rng = np.random.default_rng(42)
        for op in ("add", "sub", "mul", "div"):
            a = rng.normal(size=(4,))
            b = rng.normal(size=(4,)) + 3.0  # keep divisors away from zero
            w = rng.normal(size=(4,))
            check_grads(lambda n, op=op, w=w: ad.reduce_sum(
                ad.mul(OPS[op](n[0], n[1]), ad.constant(w))), [a, b])

    def test_scalar_broadcast_ops(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(5,))
        s = np.array(1.7)
        check_grads(lambda n: ad.reduce_sum(ad.mul(n[0], n[1])), [a, s])
        check_grads(lambda n: ad.reduce_sum(ad.div(n[0], n[1])), [a, s])

    def test_matmul_matrix_vector(self):
        rng = np.random.default_rng(44)
        A = rng.normal(size=(3, 4))
        x = rng.normal(size=(4,))
        w = rng.normal(size=(3,))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.matmul(n[0], n[1]), ad.constant(w))), [A, x])

    def test_matmul_matrix_matrix(self):
        rng = np.random.default_rng(45)
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.matmul(n[0], n[1]), ad.constant(w))), [A, B])

    @pytest.mark.parametrize("lead", [(2,), (2, 3)])
    def test_batched_matmul_forms(self, lead):
        rng = np.random.default_rng(49)
        A = rng.normal(size=lead + (3, 4))
        B = rng.normal(size=lead + (4, 2))
        v = rng.normal(size=lead + (4,))
        u = rng.normal(size=lead + (3,))
        # Matrix-matrix products with batch axes run as one block_matmul block.
        forms = ((lambda a, b: ad.block_matmul(a, b, [(1, 3, 4)]), [A, B]),
                 (ad.matmul, [A, v]), (ad.matmul, [u, A]))
        for product, args in forms:
            w = rng.normal(size=product(*map(ad.constant, args)).shape)
            check_grads(lambda n, w=w, product=product: ad.reduce_sum(
                ad.mul(product(n[0], n[1]), ad.constant(w))), args)

    def test_linear_over_leading_axes(self):
        rng = np.random.default_rng(50)
        X, W, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4)), rng.normal(size=5)
        w = rng.normal(size=(2, 3, 5))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.linear(n[0], n[1], n[2]), ad.constant(w))), [X, W, b])

    def test_dot(self):
        rng = np.random.default_rng(46)
        a, b = rng.normal(size=(6,)), rng.normal(size=(6,))
        check_grads(lambda n: ad.matmul(n[0], n[1]), [a, b])

    def test_concat_and_slice(self):
        rng = np.random.default_rng(47)
        a, b = rng.normal(size=(3,)), rng.normal(size=(4,))
        w = rng.normal(size=(2,))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.concat([n[0], n[1]])[2:4], ad.constant(w))), [a, b])

    def test_stack(self):
        rng = np.random.default_rng(48)
        a, b = rng.normal(size=(3,)), rng.normal(size=(3,))
        w = rng.normal(size=(2, 3))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.stack([n[0], n[1]]), ad.constant(w))), [a, b])

    def test_unstack(self):
        rng = np.random.default_rng(51)
        a = rng.normal(size=(3, 2, 2))
        w = rng.normal(size=(2, 2))
        # The middle slice is unused and must pass back exact zeros.
        check_grads(lambda n: ad.add(
            ad.reduce_sum(ad.mul(ad.unstack(n[0])[0], ad.constant(w))),
            ad.reduce_sum(ad.tanh(ad.unstack(n[0])[2]))), [a])

    def test_split(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(2, 6, 3))
        w = rng.normal(size=(2, 3, 3))
        # The middle part is unused and must pass back exact zeros.
        check_grads(lambda n: ad.add(
            ad.reduce_sum(ad.mul(ad.split(n[0], [1, 2, 3], axis=1)[2], ad.constant(w))),
            ad.reduce_sum(ad.tanh(ad.split(n[0], [1, 2, 3], axis=1)[0]))), [a])

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_block_matmul(self, lead):
        rng = np.random.default_rng(53)
        a = rng.normal(size=lead + (5, 3))
        b = rng.normal(size=lead + (5, 4))
        blocks = [(1, 1, 1), (2, 2, 2)]
        w = rng.normal(size=lead + (5, 4))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.block_matmul(n[0], n[1], blocks), ad.constant(w))), [a, b])

    def test_matrix_entry_slice(self):
        rng = np.random.default_rng(49)
        S = rng.normal(size=(4, 5))
        check_grads(lambda n: ad.mul(n[0][2, 3], 2.0), [S])

    def test_unary_ops(self):
        rng = np.random.default_rng(50)
        cases = {
            "relu": rng.normal(size=(6,)) + np.sign(rng.normal(size=(6,))) * 0.2,
            "tanh": rng.normal(size=(6,)),
            "sigmoid": rng.normal(size=(6,)),
            "exp": rng.normal(size=(6,)) * 0.5,
            "log": rng.uniform(0.5, 3.0, size=(6,)),
            "softplus": rng.normal(size=(6,)),
            "neg": rng.normal(size=(6,)),
        }
        for op, x in cases.items():
            x = x[np.abs(x) > 0.05] if op == "relu" else x  # stay off the kink
            w = np.random.default_rng(51).normal(size=x.shape)
            check_grads(lambda n, op=op, w=w: ad.reduce_sum(
                ad.mul(OPS[op](n[0]), ad.constant(w))), [x])

    def test_softmax(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(5,))
        w = rng.normal(size=(5,))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.masked_softmax(n[0], np.ones(5, bool)), ad.constant(w))), [x])

    def test_masked_softmax(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(5,))
        mask = np.array([True, False, True, True, False])
        w = rng.normal(size=(5,))
        check_grads(lambda n: ad.reduce_sum(
            ad.mul(ad.masked_softmax(n[0], mask), ad.constant(w))), [x])

    def test_reductions_and_norm(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=(7,)) + 0.5
        check_grads(lambda n: ad.reduce_sum(n[0]), [x])
        check_grads(lambda n: ad.reduce_mean(n[0]), [x])
        check_grads(lambda n: ad.l2norm(n[0]), [x])

    def test_l2norm_at_zero_uses_zero_subgradient(self):
        x = ad.constant([0.0, 0.0])
        with ad.Tape() as tape:
            tape.backward(ad.l2norm(x))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_composite_chain(self):
        # A deeper composition touching most ops at once.
        rng = np.random.default_rng(55)
        A = rng.normal(size=(4, 3))
        x = rng.normal(size=(3,))
        b = rng.normal(size=(4,))

        def build(n):
            h = ad.tanh(ad.add(ad.matmul(n[0], n[1]), n[2]))
            s = ad.masked_softmax(h, np.ones(4, bool))
            z = ad.concat([s, ad.sigmoid(h[1:3])])
            return ad.add(ad.l2norm(z), ad.reduce_mean(ad.exp(ad.mul(z, 0.3))))

        check_grads(build, [A, x, b])


class TestSoftmaxProperties:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=rng.integers(1, 9))
            w = ad.masked_softmax(ad.constant(x), np.ones(x.shape, bool))
            assert abs(w.values.sum() - 1.0) < 1e-12

    def test_masked_weights_sum_to_one_over_active(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            x = rng.normal(scale=5.0, size=k)
            mask = rng.random(k) < 0.6
            w = ad.masked_softmax(ad.constant(x), mask).values
            if mask.any():
                assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w[~mask] == 0.0)


class TestShapeErrors:
    def test_add_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"add.*\(3,\).*\(4,\)"):
            ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4,))))

    def test_no_general_broadcast(self):
        with pytest.raises(ShapeError):
            ad.mul(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))

    def test_linear_mismatch(self):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))

    def test_batched_matmul_needs_one_batch_axis(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 4))))

    def test_masked_softmax_mask_shape(self):
        with pytest.raises(ShapeError, match="masked_softmax"):
            ad.masked_softmax(ad.constant(np.ones((2, 3))), np.ones(3, bool))


class TestBatchedOps:
    def test_masked_softmax_rows_normalize_independently(self):
        x = ad.constant([[1.0, 2.0, 3.0], [5.0, 0.0, -1.0], [4.0, 4.0, 4.0]])
        mask = np.array([[True, True, False], [False] * 3, [True, False, True]])
        out = ad.masked_softmax(x, mask).values
        e = np.e
        np.testing.assert_allclose(out[0], [1 / (1 + e), e / (1 + e), 0.0],
                                   rtol=1e-15)
        np.testing.assert_array_equal(out[1], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out[2], [0.5, 0.0, 0.5])

    def test_l2norm_reduces_each_row(self):
        x = ad.constant([[3.0, 4.0], [-6.0, 8.0]])
        with ad.Tape() as tape:
            out = ad.l2norm(x)
            tape.backward(ad.reduce_sum(out))
        np.testing.assert_array_equal(out.values, [5.0, 10.0])
        np.testing.assert_array_equal(x.grad, [[0.6, 0.8], [-0.6, 0.8]])

    def test_gather_accumulates_repeated_indices(self):
        x = ad.constant([1.0, 2.0, 3.0])
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(ad.gather(x, np.array([[0, 2], [2, 2]]))))
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 3.0])

    def test_masked_entries_appended_to_a_row_change_nothing(self):
        # Scenes of a batch pad their neighbour rows to the largest scene;
        # numpy's own row sum regroups rows of 8 or more entries.
        rng = np.random.default_rng(61)
        for width in range(1, 10):
            row = rng.normal(size=width)
            padded = np.concatenate([row, rng.normal(size=8)])
            alone = ad.masked_softmax(ad.constant(row), np.ones(width, bool)).values
            inside = ad.masked_softmax(ad.constant(padded),
                                       np.arange(width + 8) < width).values
            assert inside[:width].tobytes() == alone.tobytes(), width
            assert not inside[width:].any()

    def test_block_products_equal_unbatched_products_bitwise(self):
        # A scene's context inside a batch must equal a lone scene's.
        rng = np.random.default_rng(62)
        a, b = rng.normal(size=(3, 9, 5)), rng.normal(size=(3, 9, 4))
        out = ad.block_matmul(ad.constant(a), ad.constant(b),
                              [(1, 1, 1), (1, 2, 2), (2, 3, 3)]).values
        for rows, width in ((slice(0, 1), 1), (slice(1, 3), 2),
                            (slice(3, 6), 3), (slice(6, 9), 3)):
            for s in range(3):
                one = ad.matmul(ad.constant(a[s][rows, :width]),
                                ad.constant(b[s][rows])).values
                assert out[s][rows].tobytes() == one.tobytes()

    def test_a_lone_row_rounds_as_in_a_batch(self):
        # numpy hands a one-row product to gemv, whose rounding differs from
        # the gemm that multiplies a row of a larger batch.
        rng = np.random.default_rng(63)
        X, W, b = rng.normal(size=(6, 7)), rng.normal(size=(9, 7)), rng.normal(size=9)
        batch = ad.linear(ad.constant(X), ad.constant(W), ad.constant(b)).values
        for r in range(6):
            one = ad.linear(ad.constant(X[r:r + 1]), ad.constant(W), ad.constant(b))
            assert one.shape == (1, 9)
            assert one.values.tobytes() == batch[r:r + 1].tobytes()

    def test_split_is_one_record_and_keeps_the_axis(self):
        x = ad.constant(np.arange(12.0).reshape(2, 6))
        with ad.Tape() as tape:
            parts = ad.split(x, [1, 0, 5], axis=-1)
            assert len(tape) == 1
            tape.backward(ad.reduce_sum(parts[2]))
        assert [p.shape for p in parts] == [(2, 1), (2, 0), (2, 5)]
        np.testing.assert_array_equal(x.grad, np.tile([0.0] + [1.0] * 5, (2, 1)))
        with pytest.raises(ShapeError, match="split"):
            ad.split(x, [2, 3], axis=1)

    def test_batched_matmul_rows_match_one_row_at_a_time(self):
        rng = np.random.default_rng(59)
        A, v, u = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
        right = ad.matmul(ad.constant(A), ad.constant(v)).values
        left = ad.matmul(ad.constant(u), ad.constant(A)).values
        for n in range(3):
            np.testing.assert_allclose(right[n], A[n] @ v[n], rtol=1e-14)
            np.testing.assert_allclose(left[n], u[n] @ A[n], rtol=1e-14)

    def test_batched_slices_equal_unbatched_products_bitwise(self):
        # A leading sample axis must not change any slice: sampled futures
        # rely on it to equal one-sample passes bit for bit.
        rng = np.random.default_rng(60)
        X, W, b = rng.normal(size=(5, 3, 7)), rng.normal(size=(6, 7)), rng.normal(size=6)
        A, H = rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3, 6))
        K, q = rng.normal(size=(5, 3, 4, 7)), rng.normal(size=(5, 3, 7))
        batch = [ad.linear(ad.constant(X), ad.constant(W), ad.constant(b)),
                 ad.block_matmul(ad.constant(A), ad.constant(H), [(1, 3, 3)]),
                 ad.matmul(ad.constant(K), ad.constant(q)),
                 ad.matmul(ad.constant(K[..., 0]), ad.constant(K))]
        for s in range(5):
            one = [ad.linear(ad.constant(X[s]), ad.constant(W), ad.constant(b)),
                   ad.matmul(ad.constant(A[s]), ad.constant(H[s])),
                   ad.matmul(ad.constant(K[s]), ad.constant(q[s])),
                   ad.matmul(ad.constant(K[s, ..., 0]), ad.constant(K[s]))]
            for whole, part in zip(batch, one):
                np.testing.assert_array_equal(whole.values[s], part.values)

    def test_unstack_is_one_record_and_parts_keep_their_own_grads(self):
        x = ad.constant(np.arange(12.0).reshape(3, 4))
        with ad.Tape() as tape:
            parts = ad.unstack(x)
            assert len(tape) == 1 and len(parts) == 3
            loss = ad.reduce_sum(ad.mul(parts[2], parts[2]))
            tape.backward(loss)
        np.testing.assert_array_equal(parts[1].values, [4.0, 5.0, 6.0, 7.0])
        np.testing.assert_array_equal(parts[0].grad, np.zeros(4))
        np.testing.assert_array_equal(parts[2].grad, 2.0 * x.values[2])
        np.testing.assert_array_equal(x.grad[2], 2.0 * x.values[2])
        np.testing.assert_array_equal(x.grad[:2], np.zeros((2, 4)))
        with pytest.raises(ShapeError, match="unstack"):
            ad.unstack(ad.constant(1.0))

    def test_linear_rows_match_one_row_at_a_time(self):
        rng = np.random.default_rng(58)
        X, W, b = rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)
        batch = ad.linear(ad.constant(X), ad.constant(W), ad.constant(b)).values
        for row, x in zip(batch, X):
            np.testing.assert_allclose(row, W @ x + b, rtol=1e-14)


def composed_lstm_step(gates_in, hidden, cell, w_hh):
    """The LSTM update as the 14 separate records it took before the fused op."""
    H = cell.shape[-1]
    gates = ad.add(gates_in, ad.linear(hidden, w_hh))
    squashed = ad.sigmoid(gates)
    i, f, o = squashed[..., 0:H], squashed[..., H:2 * H], squashed[..., 3 * H:4 * H]
    g = ad.tanh(gates[..., 2 * H:3 * H])
    new_cell = ad.add(ad.mul(f, cell), ad.mul(i, g))
    return ad.mul(o, ad.tanh(new_cell)), new_cell


class TestLstmStep:
    @pytest.mark.parametrize("lead", [(1,), (3,), (4, 5), (2, 3, 7)])
    @pytest.mark.parametrize("H", [1, 4, 16])
    def test_equals_the_composed_update_bitwise(self, lead, H):
        rng = np.random.default_rng(64)
        arrays = [rng.normal(size=lead + (4 * H,)), rng.normal(size=lead + (H,)),
                  rng.normal(size=lead + (H,)), rng.normal(size=(4 * H, H))]
        probes = rng.normal(size=(2,) + lead + (H,))
        for used in ((0, 1), (0,), (1,)):     # both outputs, new_hidden, new_cell
            got = []
            for step in (composed_lstm_step, ad.lstm_step):
                nodes = [ad.constant(a.copy()) for a in arrays]
                with ad.Tape() as tape:
                    outs = step(*nodes)
                    tape.backward(ad.mean_of([
                        ad.reduce_sum(ad.mul(outs[k], ad.constant(probes[k]))) for k in used]))
                got.append([out.values for out in outs] + [n.grad for n in nodes])
            for want, have in zip(*got):
                assert np.array_equal(want, have), used

    def test_is_one_record_with_two_outputs(self):
        rng = np.random.default_rng(65)
        args = [ad.constant(rng.normal(size=s)) for s in ((3, 8), (3, 2), (3, 2), (8, 2))]
        with ad.Tape() as tape:
            new_hidden, new_cell = ad.lstm_step(*args)
            assert len(tape) == 1
            assert new_hidden.op_record is new_cell.op_record
            assert new_hidden.op_record.op == "lstm_step"
        with pytest.raises(ShapeError, match="lstm_step"):
            ad.lstm_step(args[0], args[1], args[2], ad.constant(np.ones((4, 2))))


class TestTapeLifecycle:
    def test_reset_clears_grads_keeps_values(self):
        store = ad.ParamStore()
        p = store.register("w", [1.0, 2.0])
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(ad.mul(p, p)))
            assert np.any(p.grad != 0.0)
            tape.reset()
            assert len(tape) == 0
            np.testing.assert_array_equal(p.grad, [0.0, 0.0])
            np.testing.assert_array_equal(p.values, [1.0, 2.0])

    def test_second_backward_accumulates(self):
        x = ad.constant(2.0)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            tape.backward(y)
            tape.backward(y)
        assert x.grad == 8.0

    def test_loss_from_other_tape_rejected(self):
        with ad.Tape():
            y = ad.mul(ad.constant(1.0), ad.constant(2.0))
        with ad.Tape() as other:
            with pytest.raises(ValueError, match="tape"):
                other.backward(y)

    @pytest.mark.parametrize("keep_first_tape", [True, False])
    def test_loss_not_recorded_on_this_tape(self, keep_first_tape):
        with ad.Tape() as first:
            y = ad.mul(ad.constant(3.0), ad.constant(2.0))
        if not keep_first_tape:
            del first
        with ad.Tape() as other:
            ad.mul(y, y)
            with pytest.raises(ValueError, match="not recorded on this tape"):
                other.backward(y)

    def test_closed_tape_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref
        enabled = gc.isenabled()
        gc.disable()
        try:
            x = ad.constant(np.arange(1.0, 4.0))
            with ad.Tape() as tape:
                out = ad.reduce_sum(ad.mul(ad.tanh(x), x))
                tape.backward(out)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
            assert out.op_record.tape is None   # the node outlives its tape
            assert np.all(x.grad != 0.0)
        finally:
            if enabled:
                gc.enable()

    def test_first_adjoint_becomes_the_grad_buffer(self):
        # The adjoint a pass allocates is handed over as .grad, with values
        # equal to a zero buffer plus the adjoint.
        x = ad.constant(np.array([1.0, -2.0, 0.5]))
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.mul(x, x))
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, [2.0, -4.0, 1.0])
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [4.0, -8.0, 2.0])


def every_op(x, w):
    """A scalar that runs every op kind once, unstack included."""
    rows = ad.unstack(ad.tanh(ad.linear(x, w, ad.constant([0.5, -1.0]))))
    mixed = ad.concat([ad.mul(rows[0], rows[1]), ad.sub(rows[2], rows[1])])
    picked = ad.gather(ad.stack(rows), (np.array([0, 2, 2]), np.array([1, 0, 0])))
    soft = ad.masked_softmax(ad.div(mixed, ad.constant(2.0)),
                             np.array([True, False, True, True]))
    terms = [ad.reduce_sum(ad.mul(soft, ad.exp(ad.neg(mixed)))),
             ad.reduce_mean(ad.softplus(picked)),
             ad.l2norm(ad.sigmoid(ad.relu(mixed))),
             ad.log(ad.add(ad.reduce_sum(ad.matmul(w, x[0])), ad.constant(10.0))),
             ad.reduce_sum(ad.reduce_sum(ad.stack(rows), axis=0))]
    return ad.mean_of(terms)


class TestTapeScopes:
    def _inputs(self, seed=3):
        rng = np.random.default_rng(seed)
        return (ad.constant(rng.normal(size=(3, 4))),
                ad.constant(rng.normal(size=(2, 4))))

    def test_record_free_pass_equals_recorded_pass_bitwise(self):
        x, w = self._inputs()
        with ad.Tape() as tape:
            recorded = every_op(x, w)
        assert len(tape) > 0
        with ad.no_grad() as scope:
            free = every_op(x, w)
        assert len(scope) == 0
        assert free.op_record is None
        assert free.values.tobytes() == recorded.values.tobytes()

    def test_record_free_unstack_parts_carry_no_record(self):
        with ad.no_grad() as scope:
            parts = ad.unstack(ad.tanh(ad.constant(np.ones((3, 2)))))
        assert [p.op_record for p in parts] == [None, None, None]
        assert len(scope) == 0

    def test_backward_on_the_record_free_scope_raises(self):
        with ad.no_grad() as scope:
            loss = ad.reduce_sum(ad.mul(ad.constant([1.0, 2.0]), 3.0))
            with pytest.raises(ValueError, match="record-free"):
                scope.backward(loss)

    def test_ops_outside_any_scope_record_nothing(self):
        before = len(ad.active_tape())
        y = ad.reduce_sum(ad.tanh(ad.constant([0.5, -1.5])))
        parts = ad.unstack(ad.constant(np.eye(2)))
        assert y.op_record is None and parts[0].op_record is None
        assert len(ad.active_tape()) == before == 0

    def test_recording_resumes_inside_a_nested_tape(self):
        with ad.no_grad():
            with ad.Tape() as tape:
                y = ad.mul(ad.constant(2.0), ad.constant(3.0))
            z = ad.mul(y, y)
        assert len(tape) == 1 and y.op_record.tape is tape
        assert z.op_record is None

    def test_threads_record_only_onto_their_own_tapes(self):
        def run(seed, out):
            x, w = self._inputs(seed)
            with ad.Tape() as tape:
                losses = [every_op(x, w) for _ in range(20)]
                tape.backward(ad.mean_of(losses))
            out[seed] = (len(tape), x.grad.copy(), w.grad.copy())

        seeds = range(4)                    # more threads than cores
        alone: dict = {}
        for seed in seeds:
            run(seed, alone)
        together: dict = {}
        errors: list = []

        def worker(seed):
            try:
                run(seed, together)
            except Exception as exc:        # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for seed in seeds:
            n, gx, gw = together[seed]
            assert n == alone[seed][0]
            assert gx.tobytes() == alone[seed][1].tobytes()
            assert gw.tobytes() == alone[seed][2].tobytes()


class TestParamStore:
    def test_duplicate_registration_rejected(self):
        store = ad.ParamStore()
        store.register("w", [1.0])
        with pytest.raises(ValueError, match="w"):
            store.register("w", [2.0])

    def test_iteration_follows_registration_order(self):
        store = ad.ParamStore()
        for name in ("b", "a", "c"):
            store.register(name, [0.0])
        assert store.names() == ["b", "a", "c"]


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        store = ad.ParamStore()
        p = store.register("w", [1.0, -2.0])
        opt = ad.Adam(store, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_first_step_moves_by_roughly_lr(self):
        # With constant gradient g > 0 the first bias-corrected step is
        # lr * g / (|g| + eps), i.e. just under lr.
        store = ad.ParamStore()
        p = store.register("w", [0.0])
        opt = ad.Adam(store, lr=0.001)
        p.grad[...] = 0.4
        opt.step()
        np.testing.assert_allclose(p.values, [-0.001 * 0.4 / (0.4 + 1e-8)],
                                   rtol=1e-12)

    def test_constant_gradient_moves_monotonically(self):
        store = ad.ParamStore()
        p = store.register("w", [0.0])
        opt = ad.Adam(store, lr=0.001)
        seen = [float(p.values[0])]
        for _ in range(3):
            p.grad[...] = 2.0
            opt.step()
            seen.append(float(p.values[0]))
        assert seen[0] > seen[1] > seen[2] > seen[3]

    def test_step_zeroes_gradients(self):
        store = ad.ParamStore()
        p = store.register("w", [0.0])
        opt = ad.Adam(store)
        p.grad[...] = 1.0
        opt.step()
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_state_roundtrip_is_bit_exact(self):
        store = ad.ParamStore()
        p = store.register("w", [0.5])
        opt = ad.Adam(store, lr=0.01)
        for _ in range(3):
            p.grad[...] = 1.3
            opt.step()
        snap_values = p.values.copy()
        snap_state = opt.state()

        # Continue one step, then rewind and replay: must match bit for bit.
        p.grad[...] = -0.7
        opt.step()
        after_once = p.values.copy()

        p.values[...] = snap_values
        opt.load_state(snap_state)
        p.grad[...] = -0.7
        opt.step()
        np.testing.assert_array_equal(p.values, after_once)


class TestRngHub:
    def test_streams_are_independent_of_creation_order(self):
        a = ad.RngHub(7)
        x1 = a.stream("noise").normal(size=3)
        y1 = a.stream("shuffle").normal(size=3)

        b = ad.RngHub(7)
        y2 = b.stream("shuffle").normal(size=3)
        x2 = b.stream("noise").normal(size=3)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_seed_changes_streams(self):
        assert not np.array_equal(ad.RngHub(1).stream("s").normal(size=4),
                                  ad.RngHub(2).stream("s").normal(size=4))

    def test_state_roundtrip_continues_identically(self):
        hub = ad.RngHub(3)
        hub.stream("noise").normal(size=5)
        saved = hub.state()
        want = hub.stream("noise").normal(size=5)

        fresh = ad.RngHub(3)
        fresh.load_state(saved)
        np.testing.assert_array_equal(fresh.stream("noise").normal(size=5), want)

    def test_derive_is_stateless(self):
        hub = ad.RngHub(9)
        a = hub.derive("eval", 4, 2).normal(size=3)
        b = hub.derive("eval", 4, 2).normal(size=3)
        np.testing.assert_array_equal(a, b)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        def run():
            hub = ad.RngHub(11)
            store = ad.ParamStore()
            W = store.register("W", hub.stream("init/W").uniform(-0.5, 0.5, (4, 3)))
            x = ad.constant(hub.stream("data").normal(size=3))
            opt = ad.Adam(store, lr=0.01)
            with ad.Tape() as tape:
                for _ in range(3):
                    loss = ad.l2norm(ad.tanh(ad.matmul(W, x)))
                    tape.backward(loss)
                    opt.step()
                    tape.reset()
            return W.values.copy()

        np.testing.assert_array_equal(run(), run())
