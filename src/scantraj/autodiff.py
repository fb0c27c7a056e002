"""Reverse-mode automatic differentiation on a linear tape.

Everything is float64. Forward values are computed eagerly; each operation
appends one record to the active tape, and ``Tape.backward`` replays the
records in reverse. Gradient buffers are dense and allocated lazily, so a
node that never receives gradient reads as all zeros.

Broadcasting is deliberately restricted: a binary op accepts two operands of
identical shape, or one of them may be a scalar (shape ``()``). Anything
fancier raises :class:`ShapeError` naming the op and both shapes.

A few ops work on whole batches (one row per pedestrian, one entry per
pedestrian pair, or one slice per sampled future) so that a scene costs one
record per layer, whatever its size or sample count. Their shape rules:

* ``gather(a, index)``: ``a.values[index]`` for an integer array or a tuple
  of integer arrays and slices (numpy advanced indexing); repeated indices
  accumulate their gradients.
* ``masked_softmax(a, mask)``: softmax along the last axis over the entries
  where ``mask`` (same shape) is True; each row normalizes on its own and a
  row with no True entry is all zeros. A row's total is summed from its
  first entry to its last, so masked entries appended to a row change
  nothing, bit for bit.
* ``linear(x, weight, bias=None)``: ``x @ weight.T + bias`` for ``x`` of
  shape ``(..., in)``, ``weight`` ``(out, in)`` and ``bias`` ``(out,)``,
  broadcast over every leading axis: ``(..., in) -> (..., out)``.
* ``lstm_step(gates_in, hidden, cell, w_hh)``: one LSTM update of every
  row, one record with outputs ``(new_hidden, new_cell)``: ``hidden`` and
  ``cell`` are ``(..., H)``, ``w_hh`` ``(4H, H)`` and ``gates_in`` the
  ``(..., 4H)`` input share ``x @ W_ih.T + b`` of the gates (input, forget,
  candidate, output). Values and gradients equal the composed update bit
  for bit.
* ``matmul(a, b)``: ``(m, k) @ (k, n)``, ``(m, k) @ (k,)``, ``(k,) @ (k,)``
  (a scalar), and per slice of equal leading axes ``...``:
  ``(..., m, k) @ (..., k) -> (..., m)`` and
  ``(..., m) @ (..., m, k) -> (..., k)``. numpy runs a batched product one
  slice at a time, so each slice equals its unbatched product bit for bit.
  Batched matrix-matrix products go through ``block_matmul``.
* ``block_matmul(a, b, blocks)``: many small products in one record.
  ``blocks`` lists groups ``(m, p, q)`` that take consecutive rows: m
  blocks of p rows of ``a`` and q rows of ``b`` each, and a block's output
  rows are ``a[..., rows, :q] @ b[..., rows_b, :]``, one (p, q) @ (q, n)
  product per block, equal to the unbatched product bit for bit. ``a`` is
  ``(..., R, J)`` with J >= q (columns past q are ignored) and ``b``
  ``(..., R_b, n)``; the groups cover all R rows of ``a`` and all R_b rows
  of ``b``.
* ``l2norm(a)``: Euclidean norm over the last axis, ``(..., k) -> (...)``;
  the subgradient at a zero vector is 0.
* ``stack(nodes, axis)``, ``concat(nodes, axis)`` and ``reduce_sum(a, axis)``
  take a numpy axis.
* ``unstack(a)``: the ``a.shape[0]`` leading slices as separate nodes, from
  one record with several outputs; each slice gets its own gradient.
  ``split(a, sizes, axis)`` does the same for consecutive runs of ``sizes``
  entries along ``axis``, keeping the axis.

A record refers to its tape weakly, so nothing points back from a node to
the tape that holds it: a tape that nobody refers to any more is freed by
reference counting as soon as its scope closes.

Tape scopes: ops record only inside ``with Tape() as tape:``, which is how
training builds the graph that ``tape.backward`` replays. Forward-only work
(evaluation, prediction, plots) runs inside ``with no_grad():``, a tape that
keeps nothing: every op returns the same values bit for bit, its outputs
carry ``op_record = None`` and ``backward`` on it raises. Outside any scope
ops compute without recording, so nothing grows without bound. The stack of
open tapes and the adjoints of the running backward pass are
``contextvars.ContextVar`` stacks: each thread (and each asyncio context)
has its own, so a tape belongs to the context that opened it and threads
never record onto one another's tapes.
"""

from __future__ import annotations

import contextvars
import hashlib
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

__all__ = [
    "TensorNode", "Tape", "no_grad", "active_tape", "constant", "zeros",
    "add", "sub", "mul", "div", "neg", "matmul", "block_matmul", "linear",
    "lstm_step", "concat", "stack", "unstack", "split", "gather", "relu", "tanh",
    "sigmoid", "exp", "log", "softplus", "masked_softmax", "reduce_sum", "reduce_mean",
    "l2norm", "mean_of", "ParamStore", "Adam", "RngHub", "nonfinite_origin",
    "numeric_gradient",
]


class OpRecord:
    """Back-reference from a node into the tape that produced it.

    The tape is held weakly: a node may outlive its tape, whose records
    would otherwise keep the node, and the node the tape, alive in a cycle.
    """

    __slots__ = ("_tape", "op", "index")

    def __init__(self, tape: "Tape", op: str, index: int):
        self._tape = weakref.ref(tape)
        self.op = op
        self.index = index

    @property
    def tape(self) -> "Tape | None":
        """The producing tape, or None once it has been freed."""
        return self._tape()

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"OpRecord({self.op!r}, index={self.index})"


class TensorNode:
    """A float64 array participating in a recorded computation.

    ``grad`` is allocated on first access and accumulates d(loss)/d(node)
    during backward passes. Leaf nodes (constants, parameters) have
    ``op_record is None``.
    """

    __slots__ = ("values", "_grad", "op_record")

    def __init__(self, values, op_record: OpRecord | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self._grad = None
        self.op_record = op_record

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):  # pragma: no cover - debugging aid
        tag = self.op_record.op if self.op_record is not None else "leaf"
        return f"TensorNode({tag}, shape={self.shape})"

    # Operator sugar. Python scalars are lifted to constant leaves.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return _getitem(self, key)


class Tape:
    """Linear record of operations for one thread of execution.

    Used as a context manager: ops record onto the innermost tape the
    current context has open. Outside every scope nothing records.
    """

    def __init__(self):
        # (output, inputs, backward); a multi-output op records a tuple of
        # outputs and a backward that takes one adjoint (or None) per output.
        self._records: list[tuple] = []

    def __len__(self) -> int:
        return len(self._records)

    def add(self, op: str, out: TensorNode, inputs: tuple, backward: Callable) -> OpRecord:
        self._records.append((out, inputs, backward))
        return OpRecord(self, op, len(self._records) - 1)

    def backward(self, loss: TensorNode) -> None:
        """Accumulate d(loss)/d(node) into every node reachable from loss.

        ``loss`` must be scalar-shaped and recorded on this tape (or a leaf).
        Each call propagates its own unit seed, so repeated calls sum
        gradients instead of double-counting earlier passes.
        """
        if loss.values.shape != ():
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.values.shape}")
        if loss.op_record is not None and loss.op_record.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if not np.isfinite(loss.values):
            raise ValueError(f"backward on non-finite loss ({float(loss.values)})")
        adjoints: dict[int, tuple[TensorNode, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.values))}
        token = _ADJOINT_STACK.set(_ADJOINT_STACK.get() + (adjoints,))
        try:
            for out, _inputs, backward_fn in reversed(self._records):
                if type(out) is tuple:
                    grads = [adjoints.get(id(part)) for part in out]
                    if any(entry is not None for entry in grads):
                        backward_fn([None if entry is None else entry[1]
                                     for entry in grads])
                    continue
                entry = adjoints.get(id(out))
                if entry is None:
                    continue
                backward_fn(entry[1])
        finally:
            _ADJOINT_STACK.reset(token)
        for node, buf in adjoints.values():
            if node._grad is None:
                node._grad = buf        # the buffer is owned by this pass
            else:
                node._grad += buf

    def reset(self) -> None:
        """Drop all records and zero every gradient the tape has touched.

        Parameter values are left intact; only gradient buffers are cleared.
        """
        for out, inputs, _ in self._records:
            for node in (out if type(out) is tuple else (out,)) + inputs:
                node.zero_grad()
        self._records.clear()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, *exc) -> None:
        stack = _TAPE_STACK.get()
        if stack[-1] is not self:
            raise RuntimeError("tape scope closed out of order, or in a "
                               "context other than the one that opened it")
        _TAPE_STACK.set(stack[:-1])


class _RecordFreeTape(Tape):
    """A tape that keeps nothing: ops under it compute their values only."""

    def add(self, op, out, inputs, backward) -> None:
        return None

    def backward(self, loss: TensorNode) -> None:
        raise ValueError("backward on a record-free scope (no_grad): it "
                         "recorded nothing to replay; record under ad.Tape()")


def no_grad() -> Tape:
    """A scope whose ops return the same values as under a recording tape
    but record nothing; its nodes carry ``op_record = None``."""
    return _RecordFreeTape()


# Open tapes of the current context, innermost last. The bottom entry is a
# record-free tape, so ops outside every scope record nothing.
_TAPE_STACK: contextvars.ContextVar[tuple[Tape, ...]] = contextvars.ContextVar(
    "_TAPE_STACK", default=(_RecordFreeTape(),))


def active_tape() -> Tape:
    return _TAPE_STACK.get()[-1]


def nonfinite_origin(node: TensorNode) -> str:
    """Where the tape that recorded ``node`` first went non-finite, as text
    to append to an error message, or "" (it scans the tape: raise paths only)."""
    tape = node.op_record.tape if node.op_record is not None else None
    for out, _inputs, _backward in tape._records if tape is not None else ():
        parts = out if type(out) is tuple else (out,)
        if not all(np.isfinite(part.values).all() for part in parts):
            record = parts[0].op_record
            return f"; first non-finite output: {record.op} at tape record {record.index}"
    return ""


def constant(values) -> TensorNode:
    """A leaf node; gradient may accumulate into it but nothing updates it."""
    return TensorNode(values)


def zeros(shape) -> TensorNode:
    return TensorNode(np.zeros(shape, dtype=np.float64))


def _lift(x) -> TensorNode:
    if isinstance(x, TensorNode):
        return x
    return TensorNode(x)


# Adjoint maps of the backward passes running in the current context.
_ADJOINT_STACK: contextvars.ContextVar[tuple[dict, ...]] = contextvars.ContextVar(
    "_ADJOINT_STACK", default=())


def _add_grad(node: TensorNode, delta) -> None:
    stack = _ADJOINT_STACK.get()
    if stack:
        adjoints = stack[-1]
        entry = adjoints.get(id(node))
        if entry is None:
            # An owned copy, broadcast to the node's shape: it is summed
            # into in place later and may become the node's ``.grad``.
            buf = np.empty_like(node.values)
            buf[...] = delta
            adjoints[id(node)] = (node, buf)
        else:
            entry[1].__iadd__(delta)
    else:
        node.grad.__iadd__(delta)


def _adjoint(node: TensorNode) -> np.ndarray:
    """The buffer this backward pass accumulates ``node``'s adjoint in,
    zeroed on first touch, for backward closures that add into part of it
    in place; outside a pass, the node's ``.grad``."""
    stack = _ADJOINT_STACK.get()
    if not stack:
        return node.grad
    adjoints = stack[-1]
    entry = adjoints.get(id(node))
    if entry is None:
        entry = adjoints[id(node)] = (node, np.zeros_like(node.values))
    return entry[1]


def _record(op: str, out_values, inputs: tuple, backward: Callable) -> TensorNode:
    node = TensorNode(out_values)
    node.op_record = active_tape().add(op, node, inputs, backward)
    return node


def _binary(op, a, b, fwd, da, db) -> TensorNode:
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if av.shape != bv.shape and av.shape != () and bv.shape != ():
        raise ShapeError(
            f"{op}: shapes {av.shape} and {bv.shape} do not match "
            f"(only scalar broadcast is allowed)")
    outv = np.asarray(fwd(av, bv), dtype=np.float64)

    def backward(g):
        ga = da(g, av, bv)
        gb = db(g, av, bv)
        _add_grad(a, ga if av.shape == outv.shape else np.sum(ga))
        _add_grad(b, gb if bv.shape == outv.shape else np.sum(gb))

    return _record(op, outv, (a, b), backward)


def _unary(op, a, fwd, dfn) -> TensorNode:
    a = _lift(a)
    outv = np.asarray(fwd(a.values), dtype=np.float64)

    def backward(g):
        _add_grad(a, dfn(g, a.values, outv))

    return _record(op, outv, (a,), backward)


def add(a, b) -> TensorNode:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> TensorNode:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> TensorNode:
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> TensorNode:
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def neg(a) -> TensorNode:
    return _unary("neg", a, lambda x: -x, lambda g, x, y: -g)


def matmul(a, b) -> TensorNode:
    """Matrix products; see the module docstring for the accepted shapes."""
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        outv = av @ bv

        def backward(g):
            _add_grad(a, np.outer(g, bv))
            _add_grad(b, av.T @ g)
    elif av.ndim == 2 and bv.ndim == 2 and av.shape[1] == bv.shape[0]:
        outv = av @ bv

        def backward(g):
            _add_grad(a, g @ bv.T)
            _add_grad(b, av.T @ g)
    elif av.ndim == 1 and av.shape == bv.shape:
        outv = np.asarray(av @ bv)

        def backward(g):
            _add_grad(a, g * bv)
            _add_grad(b, g * av)
    elif (av.ndim == bv.ndim + 1 >= 3 and av.shape[:-2] == bv.shape[:-1]
          and av.shape[-1] == bv.shape[-1]):
        outv = np.matmul(av, bv[..., None])[..., 0]

        def backward(g):
            _add_grad(a, g[..., :, None] * bv[..., None, :])
            _add_grad(b, np.matmul(g[..., None, :], av)[..., 0, :])
    elif (bv.ndim == av.ndim + 1 >= 3 and av.shape[:-1] == bv.shape[:-2]):
        outv = np.matmul(av[..., None, :], bv)[..., 0, :]

        def backward(g):
            _add_grad(a, np.matmul(bv, g[..., :, None])[..., 0])
            _add_grad(b, av[..., :, None] * g[..., None, :])
    else:
        raise ShapeError(f"matmul: shapes {av.shape} and {bv.shape} do not conform")
    return _record("matmul", outv, (a, b), backward)


def block_matmul(a, b, blocks) -> TensorNode:
    """Many small row-block products in one record; see the module
    docstring."""
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    lead = av.shape[:-2]
    if av.ndim < 2 or bv.ndim != av.ndim or bv.shape[:-2] != lead:
        raise ShapeError(f"block_matmul: shapes {av.shape} and {bv.shape} do not conform")
    pieces, row_a, row_b = [], 0, 0
    for m, p, q in blocks:
        if q > av.shape[-1]:
            raise ShapeError(f"block_matmul: blocks of {q} columns in {av.shape}")
        pieces.append((m, p, q, slice(row_a, row_a + m * p), slice(row_b, row_b + m * q)))
        row_a, row_b = row_a + m * p, row_b + m * q
    if (row_a, row_b) != (av.shape[-2], bv.shape[-2]):
        raise ShapeError(f"block_matmul: blocks {list(blocks)} do not cover "
                         f"{av.shape} and {bv.shape}")

    n = bv.shape[-1]

    def blocks_of(x, rows, m, size, cols=slice(None)):
        # Contiguous, so that numpy takes the same BLAS route for a block
        # however many blocks share its group.
        part = x[..., rows, cols]
        return np.ascontiguousarray(part).reshape(lead + (m, size, part.shape[-1]))

    groups = [np.matmul(blocks_of(av, rows_a, m, p, slice(0, q)),
                        blocks_of(bv, rows_b, m, q)).reshape(lead + (m * p, n))
              for m, p, q, rows_a, rows_b in pieces]
    outv = (groups[0] if len(groups) == 1
            else np.concatenate(groups + [np.zeros(lead + (0, n))], axis=-2))

    def backward(g):
        ga, gb = _adjoint(a), _adjoint(b)
        for m, p, q, rows_a, rows_b in pieces:
            g_block = blocks_of(g, rows_a, m, p)
            ga[..., rows_a, :q] += np.matmul(
                g_block, np.swapaxes(blocks_of(bv, rows_b, m, q), -1, -2)
            ).reshape(lead + (m * p, q))
            gb[..., rows_b, :] += np.matmul(
                np.swapaxes(blocks_of(av, rows_a, m, p, slice(0, q)), -1, -2), g_block
            ).reshape(lead + (m * q, n))

    return _record("block_matmul", outv, (a, b), backward)


def _rows_times(xv: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """``xv @ wv.T`` for rows ``(..., in)``. numpy hands a one-row product to
    gemv, which rounds differently from the gemm that multiplies a row inside
    a larger batch; a lone row therefore runs as the first row of two."""
    if xv.ndim >= 2 and xv.shape[-2] == 1:
        pair = np.concatenate([xv, np.zeros_like(xv)], axis=-2)
        return (pair @ wv.T)[..., :1, :]
    return xv @ wv.T


def linear(x, weight, bias=None) -> TensorNode:
    """``x @ weight.T + bias`` for an input ``(..., in)``, row by row."""
    x, weight = _lift(x), _lift(weight)
    xv, wv = x.values, weight.values
    if wv.ndim != 2 or xv.ndim == 0 or xv.shape[-1] != wv.shape[1]:
        raise ShapeError(f"linear: input {xv.shape} and weight {wv.shape} do not conform")
    outv = _rows_times(xv, wv)
    inputs = (x, weight)
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (wv.shape[0],):
            raise ShapeError(f"linear: bias {bias.shape} for weight {wv.shape}")
        outv = outv + bias.values
        inputs = (x, weight, bias)
    x2 = xv.reshape(-1, wv.shape[1])

    def backward(g):
        g2 = g.reshape(-1, wv.shape[0])
        _add_grad(x, (g2 @ wv).reshape(xv.shape))
        _add_grad(weight, g2.T @ x2)
        if bias is not None:
            _add_grad(bias, g2.sum(axis=0))

    return _record("linear", outv, inputs, backward)


def concat(nodes: Sequence[TensorNode], axis: int = 0) -> TensorNode:
    nodes = [_lift(n) for n in nodes]
    if not nodes:
        raise ShapeError("concat: needs at least one input")
    ndim = nodes[0].values.ndim
    for n in nodes:
        if n.values.ndim != ndim:
            raise ShapeError(
                f"concat: rank mismatch {nodes[0].shape} vs {n.shape}")
    outv = np.concatenate([n.values for n in nodes], axis=axis)
    bounds = np.cumsum([0] + [n.values.shape[axis] for n in nodes]).tolist()
    lead = (slice(None),) * (axis % ndim)

    def backward(g):
        for n, start, stop in zip(nodes, bounds, bounds[1:]):
            _add_grad(n, g[lead + (slice(start, stop),)])

    return _record("concat", outv, tuple(nodes), backward)


def stack(nodes: Sequence[TensorNode], axis: int = 0) -> TensorNode:
    """Stack equal-shaped nodes along a new axis (leading by default)."""
    nodes = [_lift(n) for n in nodes]
    if not nodes:
        raise ShapeError("stack: needs at least one input")
    shp = nodes[0].shape
    for n in nodes:
        if n.shape != shp:
            raise ShapeError(f"stack: shape mismatch {shp} vs {n.shape}")
    outv = np.stack([n.values for n in nodes], axis=axis)

    def backward(g):
        for i, n in enumerate(nodes):
            _add_grad(n, np.take(g, i, axis=axis))

    return _record("stack", outv, tuple(nodes), backward)


def _record_parts(op: str, parts: tuple, inputs: tuple, backward: Callable) -> tuple:
    """Record one op with several output nodes."""
    record = active_tape().add(op, parts, inputs, backward)
    for part in parts:
        part.op_record = record
    return parts


def _parts(op: str, a: TensorNode, keys: list) -> list[TensorNode]:
    """``a.values[key]`` for every key as separate nodes, from one record
    with several outputs; each part gets its own gradient."""
    parts = tuple(TensorNode(a.values[key]) for key in keys)

    def backward(grads):
        buf = _adjoint(a)
        for key, g in zip(keys, grads):
            if g is not None:
                buf[key] += g

    return list(_record_parts(op, parts, (a,), backward))


def unstack(a) -> list[TensorNode]:
    """The leading slices ``a[0], a[1], ...`` as separate nodes, recorded
    once whatever their number; each slice gets its own gradient."""
    a = _lift(a)
    if a.values.ndim == 0:
        raise ShapeError("unstack: needs at least one axis")
    return _parts("unstack", a, list(range(a.shape[0])))


def split(a, sizes: Sequence[int], axis: int = 0) -> list[TensorNode]:
    """Consecutive runs of ``sizes`` entries along ``axis`` as separate
    nodes, recorded once; each part keeps the axis and its own gradient."""
    a = _lift(a)
    if a.values.ndim == 0 or sum(sizes) != a.shape[axis]:
        raise ShapeError(f"split: sizes {list(sizes)} do not add up to axis "
                         f"{axis} of {a.shape}")
    bounds = np.cumsum([0, *sizes]).tolist()
    lead = (slice(None),) * (axis % a.values.ndim)
    return _parts("split", a, [lead + (slice(start, stop),)
                               for start, stop in zip(bounds, bounds[1:])])


def _getitem(a: TensorNode, key) -> TensorNode:
    # Basic (integer / slice / tuple) indexing only; keys must not alias.
    outv = np.array(a.values[key], dtype=np.float64)

    def backward(g):
        _adjoint(a)[key] += g

    return _record("slice", outv, (a,), backward)


def gather(a, index) -> TensorNode:
    """``a.values[index]`` by integer-array indexing; repeats accumulate."""
    a = _lift(a)
    outv = np.array(a.values[index], dtype=np.float64)

    def backward(g):
        delta = np.zeros_like(a.values)
        np.add.at(delta, index, g)
        _add_grad(a, delta)

    return _record("gather", outv, (a,), backward)


def relu(a) -> TensorNode:
    return _unary("relu", a, lambda x: np.maximum(x, 0.0),
                  lambda g, x, y: g * (x > 0.0))


def tanh(a) -> TensorNode:
    return _unary("tanh", a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a) -> TensorNode:
    return _unary("sigmoid", a, _sigmoid_values,
                  lambda g, x, y: g * y * (1.0 - y))


def lstm_step(gates_in, hidden, cell, w_hh) -> tuple[TensorNode, TensorNode]:
    """One LSTM update of every row as one record; see the module docstring.
    The backward replays the composed update's float operations in order."""
    gates_in, hidden, cell, w_hh = map(_lift, (gates_in, hidden, cell, w_hh))
    hv, cv, wv = hidden.values, cell.values, w_hh.values
    H = cv.shape[-1] if cv.ndim else -1
    if (hv.shape != cv.shape or wv.shape != (4 * H, H)
            or gates_in.shape != cv.shape[:-1] + (4 * H,)):
        raise ShapeError(f"lstm_step: gates {gates_in.shape}, hidden {hv.shape}, "
                         f"cell {cv.shape} and weight {wv.shape} do not conform")
    gates = gates_in.values + _rows_times(hv, wv)
    ifo = _sigmoid_values(np.concatenate([gates[..., :2 * H], gates[..., 3 * H:]], axis=-1))
    i, f, o = ifo[..., :H], ifo[..., H:2 * H], ifo[..., 2 * H:]
    g = np.tanh(gates[..., 2 * H:3 * H])
    new_cell = f * cv + i * g
    squashed = np.tanh(new_cell)

    def backward(grads):
        d_hidden, d_cell = grads
        d_o = np.zeros_like(o) if d_hidden is None else d_hidden * squashed
        if d_hidden is not None:
            through = d_hidden * o * (1.0 - squashed * squashed)
            d_cell = through if d_cell is None else d_cell + through
        d_gates = np.concatenate([d_cell * g * i * (1.0 - i),
                                  d_cell * cv * f * (1.0 - f),
                                  d_cell * i * (1.0 - g * g),
                                  d_o * o * (1.0 - o)], axis=-1)
        g2 = d_gates.reshape(-1, 4 * H)
        _add_grad(gates_in, d_gates)
        _add_grad(hidden, (g2 @ wv).reshape(hv.shape))
        _add_grad(w_hh, g2.T @ hv.reshape(-1, H))
        _add_grad(cell, d_cell * f)

    return _record_parts("lstm_step", (TensorNode(o * squashed), TensorNode(new_cell)),
                         (gates_in, hidden, cell, w_hh), backward)


def exp(a) -> TensorNode:
    return _unary("exp", a, np.exp, lambda g, x, y: g * y)


def log(a) -> TensorNode:
    return _unary("log", a, np.log, lambda g, x, y: g / x)


def softplus(a) -> TensorNode:
    """log(1 + exp(x)), computed without overflow."""
    return _unary("softplus", a, lambda x: np.logaddexp(0.0, x),
                  lambda g, x, y: g * _sigmoid_values(x))


def masked_softmax(a, mask) -> TensorNode:
    """Softmax along the last axis over the entries where ``mask`` is True.

    Each row normalizes on its own. Masked-out entries get weight exactly
    0.0 and receive no gradient; a row whose mask is all False is all zeros.
    """
    a = _lift(a)
    xv = a.values
    mask = np.asarray(mask, dtype=bool)
    if xv.ndim == 0 or mask.shape != xv.shape:
        raise ShapeError(
            f"masked_softmax: values {xv.shape} and mask {mask.shape} must be "
            f"equal and at least 1-D")
    top = np.max(np.where(mask, xv, -np.inf), axis=-1, keepdims=True,
                 initial=-np.inf)
    top = np.where(np.isfinite(top), top, 0.0)      # rows with nothing active
    e = np.exp(np.where(mask, xv - top, -np.inf))
    # Left to right, so that masked (zero) entries appended to a row leave
    # its total unchanged; numpy's own sum regroups rows of 8 or more.
    total = (np.cumsum(e, axis=-1)[..., -1:] if e.shape[-1]
             else np.zeros(e.shape[:-1] + (1,)))
    outv = e / np.where(total > 0.0, total, 1.0)

    def backward(g):
        inner = np.sum(g * outv, axis=-1, keepdims=True)  # masked weights are 0
        _add_grad(a, np.where(mask, outv * (g - inner), 0.0))

    return _record("masked_softmax", outv, (a,), backward)


def reduce_sum(a, axis: int | None = None) -> TensorNode:
    """Sum of all entries, or along one axis."""
    a = _lift(a)
    if axis is None:
        return _record("sum", np.asarray(a.values.sum()), (a,),
                       lambda g: _add_grad(a, g))

    def backward(g):
        _add_grad(a, np.broadcast_to(np.expand_dims(g, axis), a.values.shape))

    return _record("sum", a.values.sum(axis=axis), (a,), backward)


def reduce_mean(a) -> TensorNode:
    a = _lift(a)
    n = a.values.size

    def backward(g):
        _add_grad(a, g / n)

    return _record("mean", np.asarray(a.values.mean()), (a,), backward)


def l2norm(a) -> TensorNode:
    """Euclidean norm over the last axis, ``(..., k) -> (...)``.

    Where a vector is exactly zero the subgradient 0 is used.
    """
    a = _lift(a)
    xv = a.values
    if xv.ndim == 0:
        raise ShapeError("l2norm: needs at least one axis")
    outv = np.sqrt(np.sum(xv * xv, axis=-1))

    def backward(g):
        moving = (outv > 0.0)[..., None]
        unit = np.where(moving, xv / np.where(moving, outv[..., None], 1.0), 0.0)
        _add_grad(a, g[..., None] * unit)

    return _record("l2norm", outv, (a,), backward)


def mean_of(terms: Sequence[TensorNode]) -> TensorNode | None:
    """Mean of a list of equal-shaped nodes, summed left to right.

    Returns None for an empty list.
    """
    total = None
    for term in terms:
        total = term if total is None else add(total, term)
    if total is None:
        return None
    return div(total, constant(float(len(terms))))


class ParamStore:
    """Named trainable leaves. Registration order is update order."""

    def __init__(self):
        self._params: dict[str, TensorNode] = {}

    def register(self, name: str, values) -> TensorNode:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice")
        node = TensorNode(np.array(values, dtype=np.float64))
        self._params[name] = node
        return node

    def __getitem__(self, name: str) -> TensorNode:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.values.copy() for k, v in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, values in state.items():
            self._params[name].values[...] = values


class Adam:
    """Bias-corrected Adam over a ParamStore.

    ``step`` consumes the current gradients, updates parameter values in
    place, bumps the step counter, and zeroes the gradients it used.
    """

    def __init__(self, params: ParamStore, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        self.params = params
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.zero_grad()

    def state(self) -> dict:
        return {
            "t": self.t, "lr": self.lr, "beta1": self.beta1,
            "beta2": self.beta2, "eps": self.eps,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state(self, state: dict) -> None:
        self.t = int(state["t"])
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        for k in self.m:
            self.m[k][...] = state["m"][k]
            self.v[k][...] = state["v"][k]


class RngHub:
    """Named, independently seeded random streams over a counter-based generator.

    Each call site owns a stream keyed by name, so adding or removing one
    stream never shifts the draws of another. ``derive`` builds a throwaway
    generator for stateless uses (e.g. evaluation noise), keyed by extra
    integers.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @staticmethod
    def _name_key(name: str) -> int:
        return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            ss = np.random.SeedSequence(entropy=(self.seed, self._name_key(name)))
            self._streams[name] = np.random.Generator(np.random.Philox(ss))
        return self._streams[name]

    def derive(self, name: str, *indices: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=(self.seed, self._name_key(name), *[int(i) for i in indices]))
        return np.random.Generator(np.random.Philox(ss))

    def state(self) -> dict[str, dict]:
        return {name: gen.bit_generator.state for name, gen in self._streams.items()}

    def load_state(self, state: dict[str, dict]) -> None:
        for name, st in state.items():
            self.stream(name).bit_generator.state = st


def numeric_gradient(f: Callable[[], float], values: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
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
