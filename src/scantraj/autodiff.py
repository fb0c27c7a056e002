"""Reverse-mode automatic differentiation on a linear tape.

Everything is float64. Forward values are computed eagerly; each operation
appends one record to the active tape, and ``Tape.backward`` sweeps the
records once, in reverse. Gradient buffers are dense and allocated
lazily, so a node that never receives gradient reads as all zeros.

Broadcasting is deliberately restricted: a binary op accepts two operands of
identical shape, or one of them may be a scalar (shape ``()``). Anything
fancier raises :class:`ShapeError` naming the op and both shapes. Each op's
docstring states its shapes.

Fused ops. ``lstm_step``, ``block_matmul``, ``recurrence``, ``attention``
and ``decoder_rollout`` each do in one record, for a whole batch of rows,
what once took several composed records, which the tests keep as
references. ``recurrence`` runs a known track's every step in one record,
its pair weights, step inputs and their embedding included, and
``decoder_rollout`` a decode's, its geometry included: each computes a
step's pair offsets once and reads both its bins and its distances from
them. Each equals its
composed records bit for bit, in values and in every gradient: the forward
runs their float operations, and the backward runs theirs in their order
and adds every input's shares as they did.

Weight layout. A fused op multiplies rows by an ``(out, in)`` weight as
``rows @ wt`` with ``wt`` the weight's C-contiguous ``(in, out)`` copy
(``_laid_out``), made once per record before any step loop (``linear``,
``lstm_step`` and ``attention`` make theirs per call, so the composed
records round as the fused ones do). With numpy 2.4.6 and OpenBLAS 0.3.31
a ``(S, R, in)`` stack times a C-contiguous weight runs as one gemm, while
the transposed view ``W.T`` runs one gemm per leading slice. Each row still
gets the bits it gets in a lone pass (``tests/test_autodiff.py`` and
``tests/test_properties.py`` pin this); a one-row product runs as the
first row of two, since gemv rounds differently (``_rows_times``).

Saved state and its lifetime. A fused record keeps its inputs, its outputs
and the intermediates whose rebuild would need a matrix product; its
backward rebuilds everything else with the forward's own float operations
(each op's docstring says what it keeps). A tape is swept once:
``Tape.backward`` drops each record's backward, and with it all the state
that backward saved, as soon as the sweep has passed the record, whether
it ran or no adjoint reached it, so a sweep's peak stays close to the tape
it walks. The record keeps only its inputs and outputs, and a second
``backward`` on the tape raises. A track that wants no gradient is passed
to the passes as a plain array, so no position path is recorded for it.

Adjoints live no longer than the sweep needs them on a tape made for the
gradients of some nodes only (``Tape(grads_for=...)``, as every training
step makes it): the sweep drops a recorded output's adjoint as soon as its
record has run, keeps none for any other leaf, and installs ``.grad`` on
those nodes alone. On a default tape every node a sweep reaches keeps its
adjoint to the end and reads it as ``.grad``.

A record refers to its tape weakly, so nothing points back from a node to
the tape that holds it: a tape that nobody refers to any more is freed by
reference counting as soon as its scope closes.

Tape scopes: ops record only inside ``with Tape() as tape:``, which is how
training builds the graph that ``tape.backward`` sweeps. Forward-only work
(evaluation, prediction, plots) runs inside ``with no_grad():``, a tape that
keeps nothing: every op returns the same values bit for bit, its outputs
carry ``op_record = None`` and ``backward`` on it raises. Outside any scope
ops compute without recording, so nothing grows without bound. The stack of
open tapes and the adjoints of the running sweep are ``contextvars``: each
thread (and each asyncio context) has its own, so a tape belongs to the
context that opened it and threads never record onto one another's tapes.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError
from .geometry import advance_kinematics, bin_indices, pair_offsets

__all__ = [
    "TensorNode", "Tape", "no_grad", "active_tape", "constant",
    "add", "sub", "mul", "div", "neg", "block_matmul", "linear",
    "lstm_step", "recurrence", "attention", "decoder_rollout",
    "concat", "stack", "unstack", "split", "gather", "relu", "tanh", "sigmoid", "exp",
    "log", "softplus", "masked_softmax",
    "reduce_sum", "reduce_mean", "l2norm", "mean_of", "ParamStore", "Adam", "RngHub",
    "nonfinite_origin",
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
    during the backward passes that reach the node, on a tape made for its
    gradient (``Tape``'s ``grads_for``). Leaf nodes (constants, parameters)
    have ``op_record is None``.
    """

    __slots__ = ("values", "_grad", "op_record")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self._grad = None
        self.op_record = None

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

    def __getitem__(self, key):
        return _getitem(self, key)


class Tape:
    """Linear record of operations for one thread of execution.

    Used as a context manager: ops record onto the innermost tape the
    current context has open. Outside every scope nothing records.

    ``grads_for`` names the nodes whose gradients the tape's backward sweeps
    are for, say a model's parameters (``ParamStore.nodes``); None, the
    default, is every node a sweep reaches (``backward``).
    """

    def __init__(self, grads_for: Iterable[TensorNode] | None = None):
        # (output, inputs, backward); a multi-output op records a tuple of
        # outputs and a backward that takes one adjoint (or None) per output;
        # the sweep sets each backward to None once past it.
        self._records: list[tuple] = []
        self._swept = False
        # id -> node of every node that gets a ``.grad``; None: all of them.
        self._grads_for = (None if grads_for is None
                           else {id(node): node for node in grads_for})

    def __len__(self) -> int:
        return len(self._records)

    def add(self, op: str, out: TensorNode, inputs: tuple, backward: Callable) -> OpRecord:
        self._records.append((out, inputs, backward))
        return OpRecord(self, op, len(self._records) - 1)

    def backward(self, loss: TensorNode) -> None:
        """Accumulate d(loss)/d(node) into ``.grad`` of the nodes the sweep
        reaches, or of those of them the tape's ``grads_for`` names.

        ``loss`` must be scalar-shaped and recorded on this tape (or a leaf).
        A tape is swept once: the sweep frees each record's saved state as
        it passes the record (module docstring, "Saved state and its
        lifetime"), so a second call raises, even after a sweep that raised
        partway; record on a new ``Tape()`` instead.

        Without ``grads_for`` every node the sweep reaches, recorded or
        leaf, reads its gradient as ``.grad`` afterwards. With it, only the
        nodes it names do: the sweep drops each recorded output's adjoint as
        soon as its record has run and keeps none for any other leaf, so no
        other node gets a ``.grad``. The gradients of the nodes it names are
        the same bit for bit either way.
        """
        if self._swept:
            raise ValueError("backward on a tape that was already swept: its records' "
                             "saved state is freed; record on a new ad.Tape()")
        if loss.values.shape != ():
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.values.shape}")
        if loss.op_record is not None and loss.op_record.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if not np.isfinite(loss.values):
            raise ValueError(f"backward on non-finite loss ({float(loss.values)})")
        self._swept = True
        keep = self._grads_for
        adjoints: dict[int, tuple[TensorNode, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.values))}

        def take(node: TensorNode) -> np.ndarray | None:
            """``node``'s adjoint, dropped from the sweep unless it is kept."""
            entry = (adjoints.get(id(node)) if keep is None or id(node) in keep
                     else adjoints.pop(id(node), None))
            return None if entry is None else entry[1]

        token = _ADJOINTS.set((adjoints, keep))
        records = self._records
        try:
            for index in reversed(range(len(records))):
                out, inputs, backward_fn = records[index]
                if type(out) is tuple:
                    grad = [take(part) for part in out]
                    if all(part is None for part in grad):
                        grad = None
                else:
                    grad = take(out)
                if grad is not None:
                    backward_fn(grad)
                    grad = None                 # an adjoint ``take`` dropped dies here
                records[index] = (out, inputs, None)    # frees what ``backward_fn`` saved
        finally:
            _ADJOINTS.reset(token)
        for node, buf in adjoints.values():
            if keep is not None and id(node) not in keep:
                continue
            if node._grad is None:
                node._grad = buf        # the buffer is owned by this pass
            else:
                node._grad += buf

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
                         "recorded nothing to sweep; record under ad.Tape()")


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


def _lift(x) -> TensorNode:
    if isinstance(x, TensorNode):
        return x
    return TensorNode(x)


# The adjoint map of the backward sweep running in the current context, and
# its tape's ``grads_for`` (None: every node the sweep reaches).
# Backward closures run only inside ``Tape.backward``, which sets it.
_ADJOINTS: contextvars.ContextVar[tuple] = contextvars.ContextVar("_ADJOINTS")


def _unwanted(node: TensorNode, keep) -> bool:
    """Whether ``node`` is a leaf whose gradient a sweep for ``keep`` (a
    tape's ``grads_for``) does not want."""
    return keep is not None and node.op_record is None and id(node) not in keep


def _add_grad(node: TensorNode, delta) -> None:
    adjoints, keep = _ADJOINTS.get()
    entry = adjoints.get(id(node))
    if entry is None:
        if _unwanted(node, keep):
            return
        # An owned copy, broadcast to the node's shape: it is summed into in
        # place later and may become the node's ``.grad``.
        buf = np.empty_like(node.values)
        buf[...] = delta
        adjoints[id(node)] = (node, buf)
    else:
        entry[1].__iadd__(delta)


def _adjoint(node: TensorNode) -> np.ndarray:
    """The buffer this backward sweep accumulates ``node``'s adjoint in,
    zeroed on first touch, for backward closures that add into part of it
    in place (a throwaway one for a leaf whose gradient nobody asked for)."""
    adjoints, keep = _ADJOINTS.get()
    entry = adjoints.get(id(node))
    if entry is None:
        buf = np.zeros_like(node.values)
        if _unwanted(node, keep):
            return buf
        entry = adjoints[id(node)] = (node, buf)
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


def _blocks_of(x: np.ndarray, rows: slice, m: int, size: int, cols=slice(None)) -> np.ndarray:
    """Rows ``rows`` of ``x`` as m blocks of ``size`` rows, ``(..., m, size, cols)``.
    Contiguous, so that numpy takes the same BLAS route for a block however
    many blocks share its group."""
    part = x[..., rows, cols]
    return np.ascontiguousarray(part).reshape(part.shape[:-2] + (m, size, part.shape[-1]))


def _block_layout(op: str, a_shape: tuple, b_shape: tuple, blocks) -> list:
    """The ``(m, p, q, rows_a, rows_b)`` of every block group, checked against
    ``a``'s ``(..., R, J)`` and ``b``'s ``(..., R_b, n)``."""
    pieces, row_a, row_b = [], 0, 0
    for m, p, q in blocks:
        if q > a_shape[-1]:
            raise ShapeError(f"{op}: blocks of {q} columns in {a_shape}")
        pieces.append((m, p, q, slice(row_a, row_a + m * p), slice(row_b, row_b + m * q)))
        row_a, row_b = row_a + m * p, row_b + m * q
    if (row_a, row_b) != (a_shape[-2], b_shape[-2]):
        raise ShapeError(f"{op}: blocks {list(blocks)} do not cover {a_shape} and {b_shape}")
    return pieces


def _row_blocks(av: np.ndarray, pieces: list) -> list:
    """``a``'s blocks of every group of ``pieces`` (``_block_layout``)."""
    return [_blocks_of(av, rows_a, m, p, slice(0, q)) for m, p, q, rows_a, _ in pieces]


def _block_products(a_blocks: list, bv: np.ndarray, pieces: list) -> np.ndarray:
    """``block_matmul``'s values from the blocks of its ``a`` (``_row_blocks``)."""
    lead, n = bv.shape[:-2], bv.shape[-1]
    groups = [np.matmul(ab, _blocks_of(bv, rows_b, m, q)).reshape(lead + (m * p, n))
              for ab, (m, p, q, _, rows_b) in zip(a_blocks, pieces)]
    return (groups[0] if len(groups) == 1
            else np.concatenate(groups + [np.zeros(lead + (0, n))], axis=-2))


def _block_grads(g, a_blocks: list, bv: np.ndarray, pieces: list, ga, gb) -> None:
    """``block_matmul``'s backward: adds the shares of ``a`` and ``b`` into
    the buffers ``ga`` and ``gb`` in place."""
    lead, n = bv.shape[:-2], bv.shape[-1]
    for ab, (m, p, q, rows_a, rows_b) in zip(a_blocks, pieces):
        g_block = _blocks_of(g, rows_a, m, p)
        ga[..., rows_a, :q] += np.matmul(
            g_block, np.swapaxes(_blocks_of(bv, rows_b, m, q), -1, -2)
        ).reshape(lead + (m * p, q))
        gb[..., rows_b, :] += np.matmul(
            np.swapaxes(ab, -1, -2), g_block).reshape(lead + (m * q, n))


def block_matmul(a, b, blocks) -> TensorNode:
    """Many small row-block products in one record.

    ``blocks`` lists groups ``(m, p, q)`` that take consecutive rows: m
    blocks of p rows of ``a`` and q rows of ``b`` each, and a block's output
    rows are ``a[..., rows, :q] @ b[..., rows_b, :]``, one (p, q) @ (q, n)
    product per block, equal to the unbatched product bit for bit. ``a`` is
    ``(..., R, J)`` with J >= q (columns past q are ignored) and ``b``
    ``(..., R_b, n)``; the groups cover all R rows of ``a`` and all R_b rows
    of ``b``.
    """
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim != av.ndim or bv.shape[:-2] != av.shape[:-2]:
        raise ShapeError(f"block_matmul: shapes {av.shape} and {bv.shape} do not conform")
    pieces = _block_layout("block_matmul", av.shape, bv.shape, blocks)
    a_blocks = _row_blocks(av, pieces)

    def backward(g):
        _block_grads(g, a_blocks, bv, pieces, _adjoint(a), _adjoint(b))

    return _record("block_matmul", _block_products(a_blocks, bv, pieces), (a, b), backward)


def _rows_times(xv: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """``xv @ wt`` for rows ``(..., in)`` and a weight laid out ``(in, out)``,
    C-contiguous (``_laid_out``), so that numpy runs a stack of rows as one
    gemm (module docstring, "Weight layout"). numpy hands a one-row product
    to gemv, which rounds differently from the gemm that multiplies a row
    inside a larger batch; a lone row therefore runs as the first row of two."""
    if xv.ndim >= 2 and xv.shape[-2] == 1:
        pair = np.concatenate([xv, np.zeros_like(xv)], axis=-2)
        return (pair @ wt)[..., :1, :]
    return xv @ wt


def _laid_out(weight: TensorNode) -> np.ndarray:
    """An ``(out, in)`` weight's values as the C-contiguous ``(in, out)``
    copy ``_rows_times`` takes."""
    return np.ascontiguousarray(weight.values.T)


def linear(x, weight, bias=None) -> TensorNode:
    """``x @ weight.T + bias`` for an input ``(..., in)``, a weight ``(out,
    in)`` and a bias ``(out,)``, row by row: ``(..., in) -> (..., out)``."""
    x, weight = _lift(x), _lift(weight)
    xv, wv = x.values, weight.values
    if wv.ndim != 2 or xv.ndim == 0 or xv.shape[-1] != wv.shape[1]:
        raise ShapeError(f"linear: input {xv.shape} and weight {wv.shape} do not conform")
    outv = _rows_times(xv, _laid_out(weight))
    inputs = (x, weight)
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (wv.shape[0],):
            raise ShapeError(f"linear: bias {bias.shape} for weight {wv.shape}")
        outv = outv + bias.values
        inputs = (x, weight, bias)

    def backward(g):
        dx, dw, db = _linear_grads(g, xv, wv)
        _add_grad(x, dx)
        _add_grad(weight, dw)
        if bias is not None:
            _add_grad(bias, db)

    return _record("linear", outv, inputs, backward)


def _linear_grads(g, xv: np.ndarray, wv: np.ndarray) -> tuple:
    """``linear``'s backward: the adjoints of its input, weight and bias."""
    g2 = g.reshape(-1, wv.shape[0])
    return (g2 @ wv).reshape(xv.shape), g2.T @ xv.reshape(-1, wv.shape[1]), g2.sum(axis=0)


def _linear_back(g, xv: np.ndarray, weight: TensorNode, bias: TensorNode | None = None):
    """``linear``'s backward inside a fused op: adds the weight's share, then
    the bias's, and returns the input's adjoint."""
    d_x, d_w, d_b = _linear_grads(g, xv, weight.values)
    _add_grad(weight, d_w)
    if bias is not None:
        _add_grad(bias, d_b)
    return d_x


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


def _take(x: np.ndarray, index) -> np.ndarray:
    """``x[index]``. An index of full slices then one integer array takes
    along one axis with ``np.take``, which copies small trailing blocks far
    faster than fancy indexing does."""
    index = (index,) if isinstance(index, np.ndarray) else index
    if (type(index) is tuple and index and isinstance(index[-1], np.ndarray)
            and index[-1].dtype.kind in "iu"
            and all(type(part) is slice and part == slice(None) for part in index[:-1])):
        return np.take(x, index[-1], axis=len(index) - 1)
    return x[index]


def gather(a, index) -> TensorNode:
    """``a.values[index]`` by integer-array indexing; repeats accumulate."""
    a = _lift(a)
    outv = np.array(_take(a.values, index), dtype=np.float64)
    return _record("gather", outv, (a,), lambda g: _add_grad(a, _scatter(a.shape, index, g)))


def _scatter(shape: tuple, index, g: np.ndarray) -> np.ndarray:
    """``gather``'s backward: ``g`` summed into an array of ``shape`` at
    ``index``, each target in index order, as np.add.at would."""
    size = math.prod(shape)
    flat = _take(np.arange(size).reshape(shape), index)
    return np.bincount(flat.ravel(), g.ravel(), size).reshape(shape)


def relu(a) -> TensorNode:
    return _unary("relu", a, lambda x: np.maximum(x, 0.0),
                  lambda g, x, y: g * (x > 0.0))


def tanh(a) -> TensorNode:
    return _unary("tanh", a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` without overflow: ``exp(-|x|)``, which lies in
    [0, 1], over one plus itself, or 1 over that where ``x >= 0``; the
    maximum picks them as a ``where`` would, on +-0, +-inf and NaN too."""
    z = np.abs(x, out=np.empty_like(x))
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.maximum(z, x >= 0.0)
    z += 1.0
    out /= z
    return out


def sigmoid(a) -> TensorNode:
    return _unary("sigmoid", a, _sigmoid_values,
                  lambda g, x, y: g * y * (1.0 - y))


def _lstm_values(gates_in: np.ndarray, hv: np.ndarray, cv: np.ndarray,
                 w_hh_t: np.ndarray) -> tuple:
    """The LSTM update's forward, with ``W_hh`` laid out ``(H, 4H)``
    (``_laid_out``): the state ``(i, f, o, g, new_cell)`` its backward
    needs, and the new hidden state ``o * tanh(new_cell)``."""
    H = cv.shape[-1]
    gates = gates_in + _rows_times(hv, w_hh_t)
    ifo = _sigmoid_values(np.concatenate([gates[..., :2 * H], gates[..., 3 * H:]], axis=-1))
    i, f, o = ifo[..., :H], ifo[..., H:2 * H], ifo[..., 2 * H:]
    g = np.tanh(gates[..., 2 * H:3 * H])
    new_cell = f * cv + i * g
    return (i, f, o, g, new_cell), o * np.tanh(new_cell)


def _lstm_grads(d_hidden, d_cell, cv: np.ndarray, state: tuple) -> tuple:
    """The update's backward from the adjoints of its outputs (either may be
    None, not both): the adjoints of the gates and of the previous cell.
    ``tanh(new_cell)`` is recomputed, as the forward computed it."""
    i, f, o, g, new_cell = state
    if d_hidden is None:
        d_o = np.zeros_like(o)
    else:
        squashed = np.tanh(new_cell)
        d_o = d_hidden * squashed
        through = d_hidden * o * (1.0 - squashed * squashed)
        d_cell = through if d_cell is None else d_cell + through
    d_gates = np.concatenate([d_cell * g * i * (1.0 - i),
                              d_cell * cv * f * (1.0 - f),
                              d_cell * i * (1.0 - g * g),
                              d_o * o * (1.0 - o)], axis=-1)
    return d_gates, d_cell * f


def lstm_step(gates_in, hidden, cell, w_hh) -> tuple[TensorNode, TensorNode]:
    """One LSTM update of every row, one record with outputs ``(new_hidden,
    new_cell)``. ``hidden`` and ``cell`` are ``(..., H)``, ``w_hh`` ``(4H,
    H)`` and ``gates_in`` the ``(..., 4H)`` input share ``x @ W_ih.T + b`` of
    the gates (input, forget, candidate, output). Keeps the gates and the new
    cell; the backward recomputes ``tanh(new_cell)``."""
    gates_in, hidden, cell, w_hh = map(_lift, (gates_in, hidden, cell, w_hh))
    hv, cv, wv = hidden.values, cell.values, w_hh.values
    H = cv.shape[-1] if cv.ndim else -1
    if (hv.shape != cv.shape or wv.shape != (4 * H, H)
            or gates_in.shape != cv.shape[:-1] + (4 * H,)):
        raise ShapeError(f"lstm_step: gates {gates_in.shape}, hidden {hv.shape}, "
                         f"cell {cv.shape} and weight {wv.shape} do not conform")
    state, new_hidden = _lstm_values(gates_in.values, hv, cv, _laid_out(w_hh))

    def backward(grads):
        d_gates, d_cell = _lstm_grads(*grads, cv, state)
        d_hidden, d_w, _ = _linear_grads(d_gates, hv, wv)
        _add_grad(gates_in, d_gates)
        _add_grad(hidden, d_hidden)
        _add_grad(w_hh, d_w)
        _add_grad(cell, d_cell)

    return _record_parts("lstm_step", (TensorNode(new_hidden), TensorNode(state[4])),
                         (gates_in, hidden, cell, w_hh), backward)


def _plus(first, second):
    """Adjoint ``first`` plus ``second``, where None is no adjoint."""
    return second if first is None else first if second is None else first + second


def recurrence(track, kinematics, mask, spec, grid, neighbors, blocks, embed, lstm, fuse,
               state=None, before=None) -> tuple[TensorNode, TensorNode, TensorNode]:
    """The spatially attentive LSTM over a known track, every step in one
    record with outputs ``(hidden, cell, keys)``.

    ``track`` holds the ``(T, ..., R, 2)`` time-major positions: a node,
    whose positions get gradient through the pair offsets and the step
    inputs, or a plain array, which the record neither differentiates nor
    keeps. Every step's weights are ``decoder_rollout``'s pair weights on
    the ``(m, n)`` ``grid``, of the track's ``pair_offsets`` over the ``(R,
    J)`` ``neighbors``, binned by the ``(T, ..., R)`` ``kinematics`` under
    ``spec``, over the pairs ``mask`` admits. Step t's input ``x[t]`` is
    ``embed`` = (W, b) of the displacement from step t - 1: zeros at step
    0, or measured from ``before``, the ``(R, 2)`` positions every leading
    slice continues from. Then ``context = block_matmul(weights[t], hidden, blocks)``,
    ``joint = [hidden, context]``, ``fused = tanh(linear(joint, *fuse))``
    and ``lstm_step`` on ``fused`` with the input share ``linear(x[t],
    W_ih, b)`` of the gates, ``lstm`` = (W_ih, W_hh, b). Outputs: the final
    ``(..., R, H)`` states and the time-major ``(T, ..., R, H)`` fused
    states. ``state`` is the ``(hidden, cell)`` pair of ``(..., R, H)``
    nodes the first step starts from, zeros when None; the backward sends
    the first step's adjoints into it.

    Keeps the pair state ``decoder_rollout`` keeps, the step inputs and
    their embedding, and each step's gates, new cell, context and fused
    state; the backward rebuilds a step's hidden state as ``o *
    tanh(new_cell)`` of the step before and a live track's offsets from its
    positions, as the forward computed them. It adds each step's products
    to ``W_hh`` and ``fuse`` as it goes, step T - 1 first, runs the input
    linears' backward once over all steps, then the pair weights', and
    gives a live track the step inputs' shares before the pair shares.
    """
    tv, track = ((track.values, track) if isinstance(track, TensorNode)
                 else (np.asarray(track, dtype=np.float64), None))  # an array is not kept
    grid, embed_w, embed_b, fuse_w, fuse_b = map(_lift, (grid, *embed, *fuse))
    w_ih, w_hh, bias = map(_lift, lstm)
    T, H, E = len(tv) if tv.ndim else 0, w_hh.shape[-1], embed_w.shape[:1]
    shape = tv.shape[1:-1] + (H,)
    inputs = (grid, embed_w, embed_b, w_ih, w_hh, bias, fuse_w, fuse_b)
    if state is not None:
        state = tuple(map(_lift, state))
        inputs += state
    # embed W and b, W_ih, W_hh, b, fuse W and b, then the state's hidden and cell
    want = [E + (2,), E, (4 * H,) + E, (4 * H, H), (4 * H,), (H, 2 * H), (H,), shape, shape]
    shapes = [part.shape for part in inputs[1:]]
    if (tv.ndim < 3 or not T or tv.shape[-2:] != (len(neighbors), 2) or grid.values.ndim != 2
            or shapes != want[:len(shapes)]
            or kinematics.heading_deg.shape != tv.shape[:-1]):
        raise ShapeError(f"recurrence: track {tv.shape}, neighbours {neighbors.shape}, grid "
                         f"{grid.shape}, kinematics, parameters and state do not conform")
    pieces = _block_layout("recurrence", neighbors.shape, shape, blocks)
    pair = _pair_values(grid.values, pair_offsets(tv, neighbors), kinematics, spec, neighbors,
                        mask)
    step_in = (np.concatenate([np.zeros((1,) + tv.shape[1:]), tv[1:] - tv[:-1]])
               if before is None
               else tv - np.concatenate([np.broadcast_to(before, (1,) + tv.shape[1:]), tv[:-1]]))
    embedded = _rows_times(step_in, _laid_out(embed_w)) + embed_b.values
    gates_in = _rows_times(embedded, _laid_out(w_ih)) + bias.values     # ``linear``'s rows
    fuse_t, w_hh_t, fb = _laid_out(fuse_w), _laid_out(w_hh), fuse_b.values
    w_blocks = _row_blocks(pair[0], pieces)
    first, first_cell = (np.zeros(shape),) * 2 if state is None else (p.values for p in state)
    hidden, cell = first, first_cell
    states, contexts, fused = [], [], []
    for t in range(T):
        contexts.append(_block_products([ab[t] for ab in w_blocks], hidden, pieces))
        joint = np.concatenate([hidden, contexts[t]], axis=-1)
        fused.append(np.tanh(_rows_times(joint, fuse_t) + fb))
        saved, hidden = _lstm_values(gates_in[t], fused[t], cell, w_hh_t)
        states.append(saved)
        cell = saved[4]
    fused = np.stack(fused)

    def joint_at(t: int) -> np.ndarray:
        """Step t's ``[hidden, context]``; the hidden state is rebuilt from
        the step before with ``_lstm_values``' own ``o * tanh(new_cell)``."""
        hidden = first
        if t:
            _, _, o, _, new_cell = states[t - 1]
            hidden = o * np.tanh(new_cell)
        return np.concatenate([hidden, contexts[t]], axis=-1)

    def backward(grads):
        d_hidden, d_cell, d_keys = grads
        keys_at = [None] * T if d_keys is None else d_keys
        d_gates = np.zeros(embedded.shape[:-1] + (4 * H,))
        d_weights, gated = np.zeros(pair[0].shape), False
        w_blocks = _row_blocks(pair[0], pieces)     # all T steps' blocks, one copy
        for t in reversed(range(T)):
            d_fused = None
            if d_hidden is not None or d_cell is not None:
                c_prev = states[t - 1][4] if t else first_cell
                d_gates[t], d_cell = _lstm_grads(d_hidden, d_cell, c_prev, states[t])
                d_fused = _linear_back(d_gates[t], fused[t], w_hh)
                gated = True
            d_fused = _plus(keys_at[t], d_fused)
            d_hidden = None
            if d_fused is not None:
                joint = joint_at(t)
                d_joint = _linear_back(d_fused * (1.0 - fused[t] * fused[t]), joint, fuse_w,
                                       fuse_b)
                d_hidden = d_joint[..., :H].copy()
                _block_grads(d_joint[..., H:], [ab[t] for ab in w_blocks], joint[..., :H],
                             pieces, d_weights[t], d_hidden)
        if state is not None:       # the first step's hidden and previous cell
            _add_grad(state[0], d_hidden)
            if d_cell is not None:
                _add_grad(state[1], d_cell)
        if gated:                   # the input linears' backward, once over all steps
            d_steps = _linear_back(_linear_back(d_gates, embedded, w_ih, bias), step_in,
                                   embed_w, embed_b)
            if track is not None:   # step t's displacement is position t minus t - 1
                if before is not None:
                    _add_grad(track, d_steps)
                d_track = _adjoint(track)
                d_track[:-1] -= d_steps[1:]
                if before is None:
                    d_track[1:] += d_steps[1:]
        for share in _pair_grads(d_weights, pair, grid, neighbors,
                                 None if track is None else track.values, None):
            _add_grad(track, share)

    return _record_parts("recurrence", (TensorNode(hidden), TensorNode(cell),
                                        TensorNode(fused)),
                         inputs if track is None else (track,) + inputs, backward)


def exp(a) -> TensorNode:
    return _unary("exp", a, np.exp, lambda g, x, y: g * y)


def log(a) -> TensorNode:
    return _unary("log", a, np.log, lambda g, x, y: g / x)


def softplus(a) -> TensorNode:
    """log(1 + exp(x)), computed without overflow."""
    return _unary("softplus", a, lambda x: np.logaddexp(0.0, x),
                  lambda g, x, y: g * _sigmoid_values(x))


def _softmax_values(xv: np.ndarray, mask: np.ndarray | bool) -> np.ndarray:
    masked = xv if mask is True else np.where(mask, xv, -np.inf)
    top = np.maximum.reduce(masked, axis=-1, keepdims=True, initial=-np.inf)
    top = np.where(np.isfinite(top), top, 0.0)      # rows with nothing active
    e = masked - top                                # top is finite: masked entries give 0
    del masked
    np.exp(e, out=e)
    # Left to right, so that masked (zero) entries appended to a row leave
    # its total unchanged; numpy's own sum regroups rows of 8 or more.
    total = (np.cumsum(e, axis=-1)[..., -1:] if e.shape[-1]
             else np.zeros(e.shape[:-1] + (1,)))
    return e / np.where(total > 0.0, total, 1.0)


def _softmax_grad(g: np.ndarray, outv: np.ndarray, mask: np.ndarray | bool) -> np.ndarray:
    inner = np.sum(g * outv, axis=-1, keepdims=True)  # masked weights are 0
    return np.where(mask, outv * (g - inner), 0.0)


def masked_softmax(a, mask) -> TensorNode:
    """Softmax along the last axis over the entries where ``mask`` is True.

    Each row normalizes on its own. Masked-out entries get weight exactly
    0.0 and receive no gradient; a row whose mask is all False is all zeros.
    A row's total is summed left to right, so masked entries appended to a
    row change nothing, bit for bit.
    """
    a = _lift(a)
    xv = a.values
    mask = np.asarray(mask, dtype=bool)
    if xv.ndim == 0 or mask.shape != xv.shape:
        raise ShapeError(
            f"masked_softmax: values {xv.shape} and mask {mask.shape} must be "
            f"equal and at least 1-D")
    outv = _softmax_values(xv, mask)
    return _record("masked_softmax", outv, (a,),
                   lambda g: _add_grad(a, _softmax_grad(g, outv, mask)))


def attention(query, keys, weight, bias) -> TensorNode:
    """Temporal attention of every query row over its own keys, one record.

    Each ``(..., N, K)`` query row scores its ``(..., N, T, K)`` keys, a
    softmax over all T steps blends them into a context, and
    ``tanh(linear([context, query], weight, bias))`` with ``weight`` ``(H,
    2K)`` gives ``(..., N, H)``. Keeps the softmax weights and the context;
    the backward rebuilds ``[context, query]``.
    """
    query, keys, weight, bias = map(_lift, (query, keys, weight, bias))
    qv, kv, wv = query.values, keys.values, weight.values
    K = kv.shape[-1]
    if (kv.ndim < 3 or qv.shape != kv.shape[:-2] + (K,)
            or wv.ndim != 2 or wv.shape[1] != 2 * K or bias.shape != wv.shape[:1]):
        raise ShapeError(f"attention: query {qv.shape}, keys {kv.shape} and weight "
                         f"{wv.shape} do not conform")
    saved = _attention_values(qv, kv, _laid_out(weight), bias.values)

    def backward(g):
        for share in _attention_grads(g, qv, kv, saved, weight, bias, keys):
            _add_grad(query, share)

    return _record("attention", saved[2], (query, keys, weight, bias), backward)


def _attention_values(qv, kv, wt, bv) -> tuple:
    """Attention's forward, its weight laid out ``(2K, H)`` (``_laid_out``):
    (softmax weights, context, output). A mask of ``True`` covers every step."""
    weights = _softmax_values(np.matmul(kv, qv[..., None])[..., 0], True)
    context = np.matmul(weights[..., None, :], kv)[..., 0, :]
    return weights, context, np.tanh(_rows_times(np.concatenate([context, qv], axis=-1), wt) + bv)


def _attention_grads(g, qv, kv, saved, weight, bias, keys) -> tuple:
    """Attention's backward: adds the weight, bias and keys shares in the
    composed records' order and returns the query's two shares, in order.
    The ``[context, query]`` rows are rebuilt as the forward built them."""
    weights, context, outv = saved
    K = kv.shape[-1]
    d_joint = _linear_back(g * (1.0 - outv * outv), np.concatenate([context, qv], axis=-1),
                           weight, bias)
    d_context = d_joint[..., :K].copy()
    _add_grad(keys, weights[..., :, None] * d_context[..., None, :])
    d_scores = _softmax_grad(np.matmul(kv, d_context[..., :, None])[..., 0], weights, True)
    _add_grad(keys, d_scores[..., :, None] * qv[..., None, :])
    return d_joint[..., K:], np.matmul(d_scores[..., None, :], kv)[..., 0, :]


def _pair_values(gv: np.ndarray, offsets: np.ndarray, kinematics, spec, neighbors: np.ndarray,
                 mask: np.ndarray) -> tuple:
    """The spatial weights of ``(..., R, J, 2)`` pair ``offsets`` to the
    ``neighbors``: the ``(m, n)`` grid's range at the flat cells
    ``bin_indices`` reads from the same offsets with the ``kinematics`` and
    ``spec``, minus their length, relu, and softmax over the positive
    scores ``mask`` admits. Returns them with what their backward keeps:
    ``(weights, active, positive, cells)``, the last one those cells, one
    small unsigned integer per pair.

    A row that admits at most one pair sends the grid exactly zero gradient:
    a softmax over one score is 1 whatever the score. So two-person scenes
    never move the grid.
    """
    cells = bin_indices(kinematics, spec, neighbors, offsets)
    reach = np.take(gv, cells) - _norm_values(offsets)
    positive = reach > 0.0
    active = np.asarray(mask, dtype=bool) & positive
    return _softmax_values(np.maximum(reach, 0.0), active), active, positive, cells


def _pair_grads(g, saved: tuple, grid: TensorNode, neighbors: np.ndarray, cum, start) -> tuple:
    """The pair weights' backward: adds the grid's share and returns the
    shares of the positions ``cum``, if live, through the rows and through
    their ``neighbors``; its offsets (plus ``start``) are rebuilt last."""
    outv, active, positive, cells = saved
    d_reach = _softmax_grad(g, outv, active) * positive
    _add_grad(grid, np.bincount(np.broadcast_to(cells, d_reach.shape).ravel(), d_reach.ravel(),
                                grid.values.size).reshape(grid.shape))
    if cum is None:
        return ()
    offsets = pair_offsets(cum, neighbors)
    offsets = offsets if start is None else start + offsets
    d_offsets = _norm_grad(-d_reach, offsets, _norm_values(offsets))
    lead, shape = (slice(None),) * (d_offsets.ndim - 3), d_offsets.shape[:-2] + (2,)
    rows = np.broadcast_to(np.arange(len(neighbors))[:, None], neighbors.shape)
    return (_scatter(shape, lead + (rows,), -d_offsets),
            _scatter(shape, lead + (neighbors,), d_offsets))


def decoder_rollout(hidden, cell, step_in, kinematics, masks, spec, grid, neighbors, blocks,
                    fuse, embed, lstm, out, attention=None) -> tuple[TensorNode, np.ndarray]:
    """One decoder step per entry of ``masks`` in one record: the ``(...,
    R, steps, 2)`` positions as a node and the displacements as values.

    The rows start from ``(..., R, H)`` ``hidden`` and ``cell``, the step
    input ``step_in`` and the ``(R,)`` ``kinematics`` at ``last_pos`` that
    every leading slice (sample) shares. Step t's pair weights
    (``_pair_values``, admitting ``masks[t]`` over the ``(R, J)``
    ``neighbors``) bin and weigh the offsets ``start =
    pair_offsets(last_pos)`` at step 0, once for every sample, and ``start +
    pair_offsets(cum)`` after it, ``cum`` the displacements' running sum,
    with the headings ``advance_kinematics`` carries from the two latest
    positions.
    Then the ``block_matmul`` context is fused by ``fuse`` (W, b) and
    queries ``attention`` (keys, W, b) when given, ``lstm`` (W_ih, W_hh, b)
    runs on the ``embed``-ded step input (then the last displacement),
    ``out`` (W, b) gives the displacement and the position is ``last_pos +
    cum``. Keeps each step's pair state and intermediates, none under
    ``no_grad``; the backward recomputes the offsets and distances. It
    frees each step's state once past it and adds every input's shares in
    the order a tape of a pair-weights and a step record per step did, so
    values and gradients equal those records' bit for bit.
    """
    hidden, cell, step_in, grid = map(_lift, (hidden, cell, step_in, grid))
    params = [_lift(p) for p in (*fuse, *embed, *lstm, *out)]
    fuse_w, fuse_b, embed_w, embed_b, w_ih, w_hh, bias, out_w, out_b = params
    keys, att_w, att_b = map(_lift, attention) if attention else (None,) * 3
    hv, cv, base = hidden.values, cell.values, np.asarray(kinematics.position, dtype=np.float64)
    lead, H, steps = hv.shape[:-2], hv.shape[-1], len(masks)
    if (hv.ndim < 2 or cv.shape != hv.shape or step_in.shape != hv.shape[:-1] + (2,)
            or base.shape != (hv.shape[-2], 2) or grid.values.ndim != 2 or steps < 1
            or np.shape(masks)[1:] != neighbors.shape):
        raise ShapeError(f"decoder_rollout: hidden {hv.shape}, cell {cv.shape}, step input "
                         f"{step_in.shape}, positions {base.shape}, grid {grid.shape} or "
                         f"masks {np.shape(masks)} do not conform")
    pieces = _block_layout("decoder_rollout", neighbors.shape, hv.shape, blocks)
    fuse_t, embed_t, w_ih_t, w_hh_t, out_t = map(_laid_out, (fuse_w, embed_w, w_ih, w_hh, out_w))
    fb, eb, bv, ob = fuse_b.values, embed_b.values, bias.values, out_b.values
    att = None if keys is None else (keys.values, _laid_out(att_w), att_b.values)
    start = pair_offsets(base, neighbors)
    recording = not isinstance(active_tape(), _RecordFreeTape)
    saved, cums, positions, disps = [], [], [base], []
    xv, kin = step_in.values, kinematics
    for t in range(steps):
        offsets = start
        if t:                               # headings from the step just predicted
            kin = advance_kinematics(positions[-2], positions[-1], kin)
            offsets = start + pair_offsets(cums[-1], neighbors)
        pair = _pair_values(grid.values, offsets, kin, spec, neighbors, masks[t])
        wv = pair[0] if t else np.broadcast_to(pair[0], lead + neighbors.shape)
        context = _block_products(_row_blocks(wv, pieces), hv, pieces)
        fused = state = np.tanh(_rows_times(np.concatenate([hv, context], axis=-1), fuse_t) + fb)
        attended = None if att is None else _attention_values(fused, *att)
        if attended is not None:
            state = attended[2]
        embedded = _rows_times(xv, embed_t) + eb
        lstm_state, new_hidden = _lstm_values(_rows_times(embedded, w_ih_t) + bv, state, cv,
                                              w_hh_t)
        if recording:
            saved.append(((hv, cv, xv, wv, context, fused, attended, state, embedded,
                           lstm_state, new_hidden), pair))
        hv, cv, xv = new_hidden, lstm_state[4], _rows_times(new_hidden, out_t) + ob
        cums.append(cums[-1] + xv if t else xv)
        positions.append(base + cums[-1])
        disps.append(xv)

    def step_back(t: int, d_disp, d_h, d_c, kept: tuple) -> tuple:
        """Step t's backward but its pair weights': the adjoints of its
        hidden state, cell, input and weights (step 0's states and input go
        to their nodes)."""
        hv, cv, xv, wv, context, fused, attended, state, embedded, lstm_state, new_hidden = kept
        d_gates, d_c = _lstm_grads(_plus(d_h, _linear_back(d_disp, new_hidden, out_w, out_b)),
                                   d_c, cv, lstm_state)
        d_state = _linear_back(d_gates, state, w_hh)
        if not t:
            _add_grad(cell, d_c)
        d_in = _linear_back(_linear_back(d_gates, embedded, w_ih, bias), xv, embed_w, embed_b)
        if not t:
            _add_grad(step_in, d_in)
        if keys is not None:                # the query's adjoint, from its two shares
            first, second = _attention_grads(d_state, fused, keys.values, attended, att_w, att_b,
                                             keys)
            d_state = first + second
        d_joint = _linear_back(d_state * (1.0 - fused * fused),
                               np.concatenate([hv, context], axis=-1), fuse_w, fuse_b)
        if t:
            d_h = d_joint[..., :H].copy()
        else:
            _add_grad(hidden, d_joint[..., :H])
            d_h = _adjoint(hidden)
        d_weights = np.zeros(lead + neighbors.shape)
        _block_grads(d_joint[..., H:], _row_blocks(wv, pieces), hv, pieces, d_weights, d_h)
        return d_h, d_c, d_in, d_weights

    def backward(g):
        d_h = d_c = d_x = d_cum = None      # adjoints of step t's outputs, from step t + 1
        for t in reversed(range(steps)):
            kept, pair = saved[t]
            saved[t] = None
            d_run = _plus(d_cum, np.take(g, t, axis=-2))        # the running sum's
            d_h, d_c, d_in, d_weights = step_back(t, _plus(d_x, d_run), d_h, d_c, kept)
            kept = None                     # freed before the pair work
            shares = _pair_grads(d_weights, pair, grid, neighbors, cums[t - 1] if t else None,
                                 start)
            if t > 1:
                d_x, d_cum = d_in, d_run + shares[0] + shares[1]
            elif t:                         # step 0's displacement is also its running sum
                d_x, d_cum = d_run + d_in + shares[0] + shares[1], None

    inputs = (hidden, cell, step_in, grid, *params) + ((keys, att_w, att_b) if att else ())
    pos = _record("decoder_rollout", np.stack(positions[1:], axis=-2), inputs, backward)
    return pos, np.stack(disps, axis=-2)


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
    outv = _norm_values(xv)
    return _record("l2norm", outv, (a,), lambda g: _add_grad(a, _norm_grad(g, xv, outv)))


def _norm_values(xv: np.ndarray) -> np.ndarray:
    if xv.shape[-1] == 2:       # np.sum's own two products and add, without its loop
        x, y = xv[..., 0], xv[..., 1]
        return np.sqrt(x * x + y * y)
    return np.sqrt(np.sum(xv * xv, axis=-1))


def _norm_grad(g: np.ndarray, xv: np.ndarray, outv: np.ndarray) -> np.ndarray:
    moving = (outv > 0.0)[..., None]
    unit = np.where(moving, xv / np.where(moving, outv[..., None], 1.0), 0.0)
    return g[..., None] * unit


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

    def nodes(self) -> list[TensorNode]:
        """The parameter nodes in update order, as ``Tape``'s ``grads_for``
        takes them."""
        return list(self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()


class Adam:
    """Bias-corrected Adam over a ParamStore, at the published defaults.

    ``step`` consumes the current gradients, updates parameter values in
    place, bumps the step counter, and zeroes the gradients it used.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: ParamStore, lr: float = 1e-3):
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)
            p.zero_grad()

    def state(self) -> dict:
        return {
            "t": self.t, "lr": self.lr,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state(self, state: dict) -> None:
        self.t = int(state["t"])
        self.lr = float(state["lr"])
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

