"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small. Values are numpy arrays in float64,
row-major with one exception: `conv2d` returns the output of a conv
whose output side is at most `_BATCH_INNER_SIDE` (8) and below its batch
as an NCHW-shaped view of a batch-innermost [C,H,W,B] buffer.
Shapes stay NCHW everywhere; only such an array's strides differ, and
the ops that read it take it in place (numpy gives an elementwise result
its inputs' memory order, and the layer-norm sums run in either order).
Each op builds the implicit graph by storing its parents and a
gradient closure on the output tensor; ``backward()`` walks that DAG
once in reverse topological order and accumulates gradients additively,
so fan-out sums contributions exactly. The walk consumes the tape: it
fills ``.grad`` on leaves only and drops each op output's closure,
gradient and parents as it passes, so saved forward buffers are freed
during the backward, not when the graph is dropped, and a second
``backward()`` over the same graph raises. Elementwise ops accept equal
shapes or a scalar, nothing else; shape problems raise
``ContractViolation`` eagerly rather than relying on numpy broadcasting.

An op's input arrays must not be written in place between its forward
and its backward: several backward closures read them instead of saving
a copy. `mul` and `matmul` read their operands, and `conv2d` reads x
to form its weight gradient. So no op writes its output in place once
it is returned, and a parameter changes only after every closure that
reads it has run. ``backward(on_leaf)`` keeps that rule while it updates
parameters during the walk: it calls ``on_leaf(t)`` as it pops each
leaf t that holds a gradient, which happens only after every op output
computed from t has run its closure, so t's gradient is final and
nothing left on the tape reads t. ``train()`` passes ``SGD.update``
there, which updates the parameter and drops its gradient at once, so a
parameter gradient lives only until the walk pops its parameter;
``SGD.step`` then updates the parameters the walk did not reach. The
in-place writes during a forward are `conv_block`'s into the outputs of
the `conv2d` calls it makes and of its blocks, before any other op sees
them.

Inside ``with no_grad():`` ops record nothing: outputs get no parents, no
gradient closure and ``requires_grad == False``, so every intermediate
buffer is freed as soon as the forward stops referring to it. Parameters
keep ``requires_grad`` and the mode ends with the block, so a model
trains as before once it is left. ``training.predict_batch`` (and with it
``evaluate`` and ``styledl predict``) runs its forwards this way; wrap any
other forward whose gradient is not needed in ``no_grad()`` too.

Inside ``with skip_init():`` ``he_normal`` still checks ``fan_in`` but
returns a read-only placeholder of the requested shape whose strides
are all 0, so it reads one shared 8-byte zero whatever its size, and
draws nothing. Blocks may nest and the mode ends with the
block, as for ``no_grad()``. It is meant for a model whose every
parameter is replaced or dropped before anything reads it:
``Checkpoint.build_model`` builds the network this way, checks each
record's shape against it, drops the adversary heads and gives every
other parameter its record (or a read-only copy of it), so a rebuild
costs no full init.
"""
from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, TrainingError


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo broadcasting: reduce g back to `shape` by summing extra axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """A float64 n-d array, optionally tracked for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], None] | None = None

    # ------------------------------------------------------------- basics
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # --------------------------------------------------------- arithmetic
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractViolation("division only by python scalars")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    # ----------------------------------------------------------- reshapes
    def reshape(self, *shape: int) -> "Tensor":
        new = self.data.reshape(shape)
        src_shape = self.data.shape

        def grad_fn(g):
            _accumulate(self, g.reshape(src_shape))

        return _result(new, (self,), grad_fn)

    def flatten(self) -> "Tensor":
        """Row-major flattening to a 1-d tensor."""
        return self.reshape(self.data.size)

    def transpose(self, *axes: int) -> "Tensor":
        if sorted(axes) != list(range(self.data.ndim)):
            raise ContractViolation(f"transpose axes {axes} invalid for ndim {self.data.ndim}")
        inv = tuple(np.argsort(axes))

        def grad_fn(g):
            _accumulate(self, np.transpose(g, inv))

        return _result(np.transpose(self.data, axes), (self,), grad_fn)

    # --------------------------------------------------------- reductions
    def sum(self, axis: int | None = None) -> "Tensor":
        if axis is not None:
            axis = self._check_axis(axis, "sum")
        out = self.data.sum(axis=axis)

        def grad_fn(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.data.shape))

        return _result(out, (self,), grad_fn)

    def mean(self, axis: int) -> "Tensor":
        """Mean along one axis; the axis is dropped from the shape."""
        axis = self._check_axis(axis, "mean")
        n = self.data.shape[axis]
        out = self.data.mean(axis=axis)

        def grad_fn(g):
            _accumulate(self, np.broadcast_to(np.expand_dims(g / n, axis), self.data.shape))

        return _result(out, (self,), grad_fn)

    def max(self, axis: int) -> "Tensor":
        """Max along one axis; gradient routes to the first argmax."""
        axis = self._check_axis(axis, "max")
        idx = np.argmax(self.data, axis=axis)
        out = np.max(self.data, axis=axis)

        def grad_fn(g):
            gx = np.zeros_like(self.data)
            np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
            _accumulate(self, gx)

        return _result(out, (self,), grad_fn)

    def _check_axis(self, axis: int, op: str) -> int:
        if not -self.data.ndim <= axis < self.data.ndim:
            raise ContractViolation(f"{op}: axis {axis} out of range for shape {self.shape}")
        return axis % self.data.ndim

    # -------------------------------------------------------- activations
    def relu(self) -> "Tensor":
        mask = self.data > 0

        def grad_fn(g):
            _accumulate(self, g * mask)

        return _result(self.data * mask, (self,), grad_fn)

    def leaky_relu(self, slope: float) -> "Tensor":
        pos = self.data > 0
        out = np.where(pos, self.data, slope * self.data)

        def grad_fn(g):
            _accumulate(self, g * np.where(pos, 1.0, slope))

        return _result(out, (self,), grad_fn)

    def sigmoid(self) -> "Tensor":
        x = self.data
        out = np.empty_like(x)
        p = x >= 0
        out[p] = 1.0 / (1.0 + np.exp(-x[p]))
        e = np.exp(x[~p])
        out[~p] = e / (1.0 + e)

        def grad_fn(g):
            _accumulate(self, g * out * (1.0 - out))

        return _result(out, (self,), grad_fn)

    def softmax(self, axis: int) -> "Tensor":
        axis = self._check_axis(axis, "softmax")
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def grad_fn(g):
            dot = (g * out).sum(axis=axis, keepdims=True)
            _accumulate(self, out * (g - dot))

        return _result(out, (self,), grad_fn)

    def log(self) -> "Tensor":
        def grad_fn(g):
            _accumulate(self, g / self.data)

        return _result(np.log(self.data), (self,), grad_fn)

    def clamp_min(self, floor: float) -> "Tensor":
        mask = self.data > floor

        def grad_fn(g):
            _accumulate(self, g * mask)

        return _result(np.maximum(self.data, floor), (self,), grad_fn)

    # ----------------------------------------------------------- backward
    def backward(self, on_leaf: Callable[[Tensor], None] | None = None) -> None:
        """Fill .grad on every tracked leaf reachable from this scalar, and
        free the tape on the way.

        The walk takes each op output's gradient closure and gradient off
        the node before running the closure, so every saved buffer (op
        inputs no other node reads, x_hat, masks) and every intermediate
        gradient is freed once its last reader has run.
        Afterwards the op outputs hold no .grad and no parents; a second
        backward() through them raises ``ContractViolation``.

        ``on_leaf``, when given, is called with each leaf that holds a
        gradient as the walk pops it: every closure that reads the leaf
        has run by then, so it may change the leaf's data and drop its
        gradient (``SGD.update``).
        """
        if self.data.size != 1:
            raise ContractViolation(f"backward() needs a scalar loss, got shape {self.shape}")
        if not np.isfinite(self.data).all():
            raise TrainingError(f"loss is not finite: {float(self.data.reshape(()))}")
        order: list[Tensor] = []
        seen = {id(self)}
        stack: list[tuple[Tensor, Iterable[Tensor]]] = [(self, iter(self._parents))]
        while stack:
            node, it = stack[-1]
            for parent in it:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                order.append(node)
                stack.pop()
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            fn = node._grad_fn
            if fn is None:
                if on_leaf is not None and node.grad is not None:
                    on_leaf(node)
                continue
            g = node.grad
            node.grad = None
            node._parents = ()
            node._grad_fn = _spent
            if g is not None:
                fn(g)


def _spent(g: np.ndarray) -> None:
    raise ContractViolation("backward() through a graph whose tape an earlier backward() freed")


_recording: contextvars.ContextVar[bool] = contextvars.ContextVar("styledl_recording",
                                                                  default=True)
_drawing_init: contextvars.ContextVar[bool] = contextvars.ContextVar("styledl_drawing_init",
                                                                    default=True)


@contextlib.contextmanager
def _switched_off(flag: contextvars.ContextVar[bool]) -> Iterator[None]:
    token = flag.set(False)
    try:
        yield
    finally:
        flag.reset(token)


def no_grad() -> contextlib.AbstractContextManager[None]:
    """Build no tape for the ops run inside the block; nesting is allowed."""
    return _switched_off(_recording)


def skip_init() -> contextlib.AbstractContextManager[None]:
    """Make the weights that ``he_normal`` makes inside the block
    read-only, shape-only placeholders that share one 8-byte zero;
    nesting is allowed."""
    return _switched_off(_drawing_init)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add one gradient contribution to t.grad.

    A leaf's gradient is user-visible, so it gets an owned C-ordered copy
    (a stride-1 conv hands its weight gradient over as a flipped,
    transposed view, and `SGD.step` reads it). An op output keeps the
    array it is handed, which may be a view shared with another node's
    gradient (`add` hands the same g to both operands). This is safe
    because no gradient closure writes into its incoming g or into any
    .grad.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if t._grad_fn is not None else np.array(g, dtype=np.float64, order="C")
    else:
        # out of place: the stored gradient may alias another node's
        t.grad = t.grad + g


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise ContractViolation(
            f"{op}: shapes {a.shape} and {b.shape} differ (only scalars broadcast)"
        )


# ------------------------------------------------------------ elementwise
def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "add")

    def grad_fn(g):
        _accumulate(a, _sum_to_shape(g, a.data.shape))
        _accumulate(b, _sum_to_shape(g, b.data.shape))

    return _result(a.data + b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "mul")

    def grad_fn(g):
        _accumulate(a, _sum_to_shape(g * b.data, a.data.shape))
        _accumulate(b, _sum_to_shape(g * a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), grad_fn)


# ----------------------------------------------------------------- matmul
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching over leading axes.

    Supports [M,K]@[K,N] plus batched forms where either side carries
    leading axes; gradients are reduced back to each operand's shape.
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractViolation("matmul operands need ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ContractViolation(f"matmul: inner dims {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def grad_fn(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _sum_to_shape(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _sum_to_shape(gb, b.data.shape))

    return _result(out, (a, b), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b with the bias broadcast over leading axes."""
    out = matmul(x, w)
    if b.data.ndim != 1 or b.data.shape[0] != out.data.shape[-1]:
        raise ContractViolation(f"linear bias shape {b.shape} vs output {out.shape}")

    def grad_fn(g):
        _accumulate(out, g)
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _result(out.data + b.data, (out, b), grad_fn)


# ------------------------------------------------------------ convolution
# conv2d works in a channel-major buffer: [C, B, H, W], or [C, H, W, B]
# ("batch-innermost", bi below) when its output side is at most
# _BATCH_INNER_SIDE and below its batch. `_order` gives such a buffer's
# shape and `_hwb` indexes either order as [C, H, W, B].
def _order(bsz: int, h: int, w: int, bi: bool) -> tuple[int, int, int]:
    """The non-channel extents of a channel-major buffer, in memory order."""
    return (h, w, bsz) if bi else (bsz, h, w)


def _hwb(a: np.ndarray, bi: bool) -> np.ndarray:
    """A channel-major buffer as a [C, H, W, B] view."""
    return a if bi else a.transpose(0, 2, 3, 1)


def _im2col(x: np.ndarray, k: int, stride: int, bi: bool) -> np.ndarray:
    """Unfold [B,C,H,W], in any memory order, into the [C*k*k, B*ho*wo]
    patch matrix of an odd k x k kernel padded by k // 2, so
    ho = (H - 1) // stride + 1 and wo = (W - 1) // stride + 1. The
    columns run over (b, i, j), or over (i, j, b) when `bi`.

    Padding happens here: for k > 1 the input is written once into an
    owned channel-major zero buffer, [C, B, H+k-1, W+k-1] or, when `bi`,
    [C, H+k-1, W+k-1, B]. The k*k strided slices are then copied into the
    returned matrix, runs of wo values or, when `bi`, of wo*B. For a 1x1
    stride-1 unfold the matrix is x itself in that order: a view of x's
    buffer when x already lies so (any batch-innermost x, or batch 1),
    else one transposing copy. The caller must not write into it.
    """
    bsz, cin, h, w = x.shape
    if k == 1 and stride == 1:
        return x.transpose((1, 2, 3, 0) if bi else (1, 0, 2, 3)).reshape(cin, -1)
    pad = k // 2
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    xs = x.transpose(1, 2, 3, 0)
    if pad:
        xp = _hwb(np.zeros((cin,) + _order(bsz, h + 2 * pad, w + 2 * pad, bi),
                           dtype=np.float64), bi)
        xp[:, pad:pad + h, pad:pad + w] = xs
        xs = xp
    cols = np.empty((cin, k, k) + _order(bsz, ho, wo, bi), dtype=np.float64)
    dst = cols if bi else cols.transpose(0, 1, 2, 4, 5, 3)
    for ki in range(k):
        for kj in range(k):
            dst[:, ki, kj] = xs[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride]
    return cols.reshape(cin * k * k, -1)


def _col2im(gcols: np.ndarray, gxt: np.ndarray, k: int, stride: int, ho: int, wo: int,
            bi: bool) -> None:
    """Adjoint of `_im2col`: scatter-add the patch gradients
    [C*k*k, b*ho*wo] into gxt, the padded channel-major gradient of those
    b samples as a [C, H+k-1, W+k-1, b] view of the caller's whole-batch
    buffer."""
    cin, bsz = gxt.shape[0], gxt.shape[-1]
    g6 = gcols.reshape((cin, k, k) + _order(bsz, ho, wo, bi))
    if not bi:
        g6 = g6.transpose(0, 1, 2, 4, 5, 3)
    for ki in range(k):
        for kj in range(k):
            gxt[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += g6[:, ki, kj]


def _gemm_into(a: np.ndarray, cols: np.ndarray, buf: np.ndarray, lo: int, hi: int,
               bi: bool) -> None:
    """Write a @ cols, the columns of samples lo:hi, into the channel-major
    buffer `buf`. Channel-major, they are one column block of it, and so
    is a whole batch-innermost one; a batch-innermost chunk's columns
    interleave with the other samples', so it goes through a temporary."""
    if bi and hi - lo < buf.shape[-1]:
        buf[..., lo:hi] = (a @ cols).reshape(buf.shape[:3] + (hi - lo,))
    else:
        per = cols.shape[1] // (hi - lo)
        np.matmul(a, cols, out=buf.reshape(len(buf), -1)[:, lo * per:hi * per])


# Cap on the bytes of every patch matrix conv2d unfolds, forward and
# backward: each covers a chunk of whole samples that fits under it (one
# sample at least, so a sample larger than the cap is unfolded alone).
# The benchmark peak of a 128 px backbone's training is 42.2 MB at 8 MiB,
# 36.9 MB at 2 MiB and 36.6 MB at 1 MiB; a smaller cap only adds GEMM calls.
# Temporaries this size sit near glibc's dynamic mmap and trim thresholds,
# so a process that has never freed a larger block gives its heap back
# after each batch-16 forward and faults it in again: about 8,900 minor
# faults per 64-image `predict_batch` of `full` at 64 px in a process that
# only loads and predicts (2-core VM, 1 BLAS thread). After a training
# run, as in every benchmark workload, it takes none, and a reused unfold
# workspace or raised thresholds did not move the benchmark's rates; so
# neither is added.
_UNFOLD_BYTES = 2 << 20
# Largest output side that conv2d computes batch-innermost (for a batch
# above that side); see its docstring.
_BATCH_INNER_SIDE = 8


def _sample_chunks(bsz: int, sample_bytes: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) ranges of whole samples whose unfold, `sample_bytes` per
    sample, fits under `_UNFOLD_BYTES`; they cover 0..bsz in order."""
    step = max(1, _UNFOLD_BYTES // sample_bytes)
    for lo in range(0, bsz, step):
        yield lo, min(lo + step, bsz)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """2-d cross-correlation over [B,Cin,H,W] with weight [Cout,Cin,k,k],
    k odd, and bias [Cout]: the one form the model runs, a biased 3x3 or
    1x1 conv at stride 1 or 2. The input is padded by k // 2 ("half"
    padding, Dumoulin & Visin, 2016), so each output extent is
    H' = (H - 1) // stride + 1: stride 1 keeps H, stride 2 halves an even H.

    The work happens in channel-major buffers, [C, B, H, W], or
    batch-innermost [C, H, W, B] when the output side S = max(H', W') is
    at most `_BATCH_INNER_SIDE` and below the batch B. The choice comes
    from the output size and batch alone, never from x's memory order, so
    an input given in either order gives the same bits. A stride-1
    unfold copies runs of W' values channel-major and of W'*B
    batch-innermost; a stride-2 one copies W' values (every other one)
    against runs of B, so batch-innermost pays once B exceeds the side.
    On the model's stage 2-4 chains (output sides 8, 4, 2; 1 BLAS
    thread) batch-innermost forwards took 1.35, 1.13 and 1.00 of the
    channel-major time at batch 2 and 0.89, 0.80 and 0.70 at batch 16;
    with B above 1 as the only condition a single-image `predict_batch`
    (batch 2 in stages 3-4, which run both attention orders) took 3.5%
    longer. Larger maps stay channel-major: run batch-innermost, the
    128 px stem chain's backward took 21.9 ms against 12.4. A
    batch-innermost output is returned as an NCHW-shaped view of its
    buffer, with no copy, so chained convs, layer norm and relu read it
    in place; a channel-major one is copied to C order. Which layout is
    faster depends on the layer's shape (Li et al., SC 2016, NCHW
    against CHWN on GPUs).

    The forward unfolds the input (im2col, padding included) into a
    [Cin*k*k, b*H'*W'] patch matrix for a chunk of b samples, and one GEMM
    with the [Cout, Cin*k*k] weight writes that chunk's columns of the
    output buffer (Chellapilla et al., 2006). The chunks are as large as
    `_UNFOLD_BYTES` allows, so a small conv unfolds its whole batch at
    once. A split leaves each output column the same dot product over
    Cin*k*k, and the tests check that it keeps the bits of an unsplit
    forward. A 1x1 stride-1 conv is one GEMM on x's own buffer when x is
    batch-innermost, else on one transposing copy. The output buffer is
    made after the first unfold, once that unfold's padded copy of x is
    freed, so the two are never held together. Each patch matrix is
    dropped as soon as its GEMM is done, so the tape holds only x, w and
    b: the backward unfolds again, under the same cap, in the same order.

    A stride-1 backward unfolds the output gradient, padded by the same
    k // 2, into gcols [Cout*k*k, b*H*W] and takes both gradients from it
    (Dumoulin & Visin, 2016): the input gradient is the correlation of
    that padded gradient with the spatially flipped kernel whose in and
    out channels are swapped, `wf @ gcols`; the weight gradient is
    `x_cm @ gcols.T` with x_cm the 1x1 unfold of x, [Cin, b*H*W], which
    gives the flipped and transposed kernel gradient. wf is copied for
    each chunk and dropped before that product, so an unsplit backward
    never holds wf and the weight gradient together.
    A strided backward unfolds x again for the weight gradient,
    `g_cm @ cols.T`, and scatter-adds the patch gradients `wm.T @ g_cm`
    into one padded channel-major input gradient with `_col2im`
    (recomputing the unfold instead of storing it: Chen et al., 2016).
    Either way each chunk writes its own samples of one channel-major
    input gradient, handed over as a view, and the weight gradient is
    summed over the chunks; a split therefore changes only the weight
    gradient's summation order. The bias gradient sums g over batch and
    space.

    The two backward algorithms stay apart on purpose. Running the strided
    one for stride 1 too cost 13.7% of `train.samples_per_s` on the
    `train-full` benchmark and 9.7% on `train-backbone-128` (medians of 3
    and 2 alternating runs against the split code). A polyphase stride 2
    (the stride-1 backward on each of the input's four even/odd phases,
    with 2x2, 2x1, 1x2 and 1x1 sub-kernels, each phase's input gradient
    written by strided assignment, no `_col2im`) matched the strided
    backward's gradients within 2e-15 relative but was slower: 8.85 ms
    against 6.96 for the seven stride-2 backwards of a 64 px `full` step,
    21.55 against 16.49 for the five of a 128 px `B` step (batch 8, 16 for
    `full`'s stages 3-4; 1 BLAS thread, best of 7x20 calls, 2-core VM).
    Other dead ends, as ratios of the time with them to the time without
    (in-process alternating pairs, 1 BLAS thread, 2-core VM): a pool of 2
    threads over the sample chunks, 1.170 on a `full` `train()`, better
    in 0 of 20 pairs; a reused unfold workspace, which cut the minor page
    faults of a `full` `train()` from 7,612 to 194, 0.976 (13 of 20);
    batch-innermost inside conv2d only, with a copy to and from NCHW,
    0.950-0.965 on a batch-16 `predict_batch`; batch-innermost up to
    side 16, 1.023 on a `full` `train()` against up to side 8.
    The stride-1 backward takes both gradients unconditionally: every
    stride-1 conv in the model has x and w tracked, and `_accumulate`
    drops a gradient nothing tracks. The strided one checks each, since
    the stem's input is an image.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 4:
        raise ContractViolation(f"conv2d input must be [B,C,H,W], got {x.shape}")
    if w.data.ndim != 4 or w.data.shape[-1] != w.data.shape[-2] or w.data.shape[-1] % 2 == 0:
        raise ContractViolation(f"conv2d weight must be [Cout,Cin,k,k] with k odd, got {w.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ContractViolation(f"conv2d channels: input {x.shape} vs weight {w.shape}")
    bsz, cin, h, wid = x.data.shape
    cout, _, k, _ = w.data.shape
    if b.data.shape != (cout,):
        raise ContractViolation(f"conv2d bias shape {b.shape}, expected ({cout},)")
    if stride < 1 or h < 1 or wid < 1:
        raise ConfigurationError(f"conv2d stride={stride} on a {h}x{wid} input")
    pad = k // 2
    ho, wo = (h - 1) // stride + 1, (wid - 1) // stride + 1
    side = max(ho, wo)
    bi = side <= _BATCH_INNER_SIDE and bsz > side
    x_chunks = list(_sample_chunks(bsz, cin * k * k * ho * wo * 8))
    out = None
    for lo, hi in x_chunks:
        cols = _im2col(x.data[lo:hi], k, stride, bi)
        if out is None:  # made once the unfold has freed its padded copy of x
            out = np.empty((cout,) + _order(bsz, ho, wo, bi), dtype=np.float64)
        _gemm_into(w.data.reshape(cout, -1), cols, out, lo, hi, bi)
        del cols
    out += b.data[:, None, None, None]

    def grad_fn(g):
        if b.requires_grad:
            _accumulate(b, np.einsum("bchw->c", g))
        if not (x.requires_grad or w.requires_grad):
            return
        gw = None
        if stride > 1:
            if x.requires_grad:
                gxt = _hwb(np.zeros((cin,) + _order(bsz, h + 2 * pad, wid + 2 * pad, bi),
                                    dtype=np.float64), bi)
            for lo, hi in x_chunks:
                g_cm = _im2col(g[lo:hi], 1, 1, bi)
                if w.requires_grad:
                    part = g_cm @ _im2col(x.data[lo:hi], k, stride, bi).T
                    gw = part if gw is None else gw + part
                if x.requires_grad:
                    _col2im(w.data.reshape(cout, -1).T @ g_cm, gxt[..., lo:hi], k, stride, ho, wo,
                            bi)
            if x.requires_grad:
                _accumulate(x, gxt[:, pad:pad + h, pad:pad + wid].transpose(3, 0, 1, 2))
            if w.requires_grad:
                _accumulate(w, gw.reshape(w.data.shape))
            return
        gx = np.empty((cin,) + _order(bsz, h, wid, bi), dtype=np.float64)
        for lo, hi in _sample_chunks(bsz, cout * k * k * h * wid * 8):
            gcols = _im2col(g[lo:hi], k, 1, bi)
            # per chunk: an unsplit backward never holds it with the weight gradient
            wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
            _gemm_into(wf, gcols, gx, lo, hi, bi)
            del wf
            part = _im2col(x.data[lo:hi], 1, 1, bi) @ gcols.T
            gw = part if gw is None else gw + part
            del part, gcols  # freed before the next chunk's unfold
        _accumulate(x, _hwb(gx, bi).transpose(3, 0, 1, 2))
        _accumulate(w, gw.reshape(cin, cout, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))

    out = _hwb(out, bi).transpose(3, 0, 1, 2)
    if not bi:
        out = np.ascontiguousarray(out)
    return _result(out, (x, w, b), grad_fn)


# ------------------------------------------------------------- layer norm
LN_EPS = 1e-6  # added to each sample's variance


def _batch_inner(a: np.ndarray) -> bool:
    """Whether [B,C,H,W] lies in memory as [C,H,W,B], with B above 1."""
    return a.shape[0] > 1 and a.transpose(1, 2, 3, 0).flags.c_contiguous


def _sample_sums(a: np.ndarray) -> np.ndarray:
    """Sum over (C,H,W) of each sample of [B,C,H,W]: one gemv with a ones
    vector over a's buffer, C-ordered or batch-innermost (any other order
    is copied to C order first)."""
    n = a[0].size
    if _batch_inner(a):
        return np.ones(n) @ a.transpose(1, 2, 3, 0).reshape(n, -1)
    return a.reshape(len(a), n) @ np.ones(n)


def _channel_sums(a: np.ndarray) -> np.ndarray:
    """Sum over (H,W) of each sample and channel of [B,C,H,W], as [B,C]:
    the same gemv with a ones vector, one per channel when a is
    batch-innermost."""
    bsz, c, h, w = a.shape
    if _batch_inner(a):
        return (np.ones(h * w) @ a.transpose(1, 2, 3, 0).reshape(c, h * w, bsz)).T
    return (a.reshape(bsz * c, h * w) @ np.ones(h * w)).reshape(bsz, c)


def _ln_forward(x: np.ndarray, gamma: Tensor, beta: Tensor,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample layer norm of [B,C,H,W] over (C,H,W) plus the per-channel
    affine; returns (x_hat, inv_std, y).

    x is centered into `out` (a new buffer in x's memory order when None;
    x itself to work in place) and normalized there into x_hat; y is a new
    buffer in x_hat's order.
    """
    if x.ndim != 4:
        raise ContractViolation(f"layer_norm input must be [B,C,H,W], got {x.shape}")
    bsz, c = x.shape[:2]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ContractViolation(f"layer_norm affine shapes {gamma.shape}/{beta.shape} for C={c}")
    n = x[0].size
    xhat = np.subtract(x, (_sample_sums(x) / n).reshape(bsz, 1, 1, 1), out=out)
    var = np.einsum("bchw,bchw->b", xhat, xhat) / n
    inv_std = (1.0 / np.sqrt(var + LN_EPS)).reshape(bsz, 1, 1, 1)
    xhat *= inv_std
    return xhat, inv_std, _ln_affine(xhat, gamma, beta)


def _ln_affine(xhat: np.ndarray, gamma: Tensor, beta: Tensor) -> np.ndarray:
    """x_hat * gamma + beta per channel, into a new buffer."""
    c = xhat.shape[1]
    y = xhat * gamma.data.reshape(1, c, 1, 1)
    y += beta.data.reshape(1, c, 1, 1)
    return y


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gamma: Tensor,
                 beta: Tensor, dx: np.ndarray | None) -> None:
    """Accumulate the affine gradients of `_ln_forward` and, when `dx` is
    given, write the input gradient into it (`dx` may be g itself)."""
    bsz, c = g.shape[:2]
    n = g[0].size
    s_g = _channel_sums(g)
    s_gx = np.einsum("bchw,bchw->bc", g, xhat)
    if gamma.requires_grad:
        _accumulate(gamma, s_gx.sum(axis=0))
    if beta.requires_grad:
        _accumulate(beta, s_g.sum(axis=0))
    if dx is not None:
        np.multiply(g, gamma.data.reshape(1, c, 1, 1), out=dx)
        dx -= (s_g @ gamma.data / n).reshape(bsz, 1, 1, 1)
        dx -= xhat * (s_gx @ gamma.data / n).reshape(bsz, 1, 1, 1)
        dx *= inv_std


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each sample of [B,C,H,W] over (C,H,W), with LN_EPS added
    to its variance, then apply a per-channel affine. Mean 0 / variance 1
    holds before the affine.

    The forward centers x into one owned buffer, in x's memory order, and
    normalizes it in place into x_hat, which the backward keeps. The
    per-sample mean and the per-(sample, channel) gradient sums are gemv
    products with a ones vector over the buffer as it lies, C-ordered or
    batch-innermost (`_sample_sums`, `_channel_sums`); the two sums of
    products stay einsums, which need no temporary. The backward needs only
    two sums per (sample, channel), s_g = sum_hw g and s_gx = sum_hw g*x_hat
    (Ba et al., 2016): they give both affine gradients and, through gamma,
    the mean and projection terms of dx. dx is built in place in one
    buffer; only the projection term x_hat * (s_gx @ gamma / n) needs a
    temporary.
    """
    xhat, inv_std, out = _ln_forward(x.data, gamma, beta)

    def grad_fn(g):
        dx = np.empty_like(g) if x.requires_grad else None
        _ln_backward(g, xhat, inv_std, gamma, beta, dx)
        if dx is not None:
            _accumulate(x, dx)

    return _result(out, (x, gamma, beta), grad_fn)


def conv_block(x: Tensor, *blocks: tuple[Tensor, Tensor, Tensor, Tensor, int]) -> Tensor:
    """A chain of blocks relu(layer_norm(conv2d(x, w, b, stride), gamma,
    beta)), each given as (w, b, gamma, beta, stride), as one tape node,
    with the bits of the ops run one after another. Each conv pads by
    k // 2 as `conv2d` does, so a stride-1 block keeps the map's H x W
    whatever its (odd) kernel.

    Each conv runs through the public `conv2d`; its output is private to
    this op, so it is normalized in place into x_hat, and each block's
    output is masked in place (`out *= out > 0`, the bits of `x * mask`).
    The tape holds every block's x_hat and only the last block's output,
    plus what each conv's own closure reads: its weight, and its input,
    whose array an inner block drops once the next conv has run. The
    node's parents are x and every block's four parameters.

    The backward walks the blocks from the last. It masks the incoming
    gradient into a new buffer, runs the layer-norm backward in place on
    it, drops that block's x_hat and hands the result to the conv's
    closure. Before an inner block's output is read, by the next conv's
    closure and for the block's mask, it is recomputed from its x_hat as
    relu(x_hat * gamma + beta) with the forward's own ops, so it has the
    forward's bits; the gradient that closure hands back is then masked
    into the recomputed output's buffer. Storing x_hat and recomputing the
    cheap affine and relu is the memory trade of in-place activated batch
    norm (Rota Bulo et al., 2018) and of recomputed checkpoints (Chen et
    al., 2016; Pleiss et al., 2017).
    """
    x = _coerce(x)
    parents = [x]
    for w, b, gamma, beta, _ in blocks:
        parents += (w, b, gamma, beta)
    track = _recording.get() and any(p.requires_grad for p in parents)
    links = []  # per block: (conv input, conv closure, inv_std, x_hat, gamma, beta)
    inp = x
    for i, (w, b, gamma, beta, stride) in enumerate(blocks):
        if i:
            # the previous block's output as a private op output, whose
            # gradient `_accumulate` leaves as the conv's closure hands it
            inp = Tensor(out, requires_grad=track)
            inp._grad_fn = _spent
        conv = conv2d(inp, w, b, stride=stride)
        if i:
            inp.data = None  # the backward recomputes it
        xhat, inv_std, out = _ln_forward(conv.data, gamma, beta, out=conv.data)
        out *= out > 0
        if track:
            links.append((inp, conv._grad_fn, inv_std, xhat, gamma, beta))
        del conv, xhat  # untracked, the next block runs without this x_hat

    def grad_fn(g):
        gm = g * (out > 0)
        while links:
            inp, conv_grad, inv_std, xhat, gamma, beta = links.pop()
            _ln_backward(gm, xhat, inv_std, gamma, beta, gm if conv_grad is not None else None)
            del xhat
            if links:  # no local may keep the previous block's x_hat
                inp.data = _ln_affine(*links[-1][3:])
                inp.data *= inp.data > 0
            if conv_grad is not None:
                conv_grad(gm)
            del gm
            if links:
                # masked into the recomputed output's buffer, whose memory
                # order (C, or batch-innermost as the next conv's gradient
                # then is too) is the one `g * mask` gives
                gm = np.multiply(inp.grad, inp.data > 0, out=inp.data)
                inp.grad = inp.data = None

    return _result(out, tuple(parents), grad_fn)


# ------------------------------------------------------------- resampling
def nearest_index(src: int, dst: int) -> np.ndarray:
    """Source index floor(i * src / dst) for each of dst nearest-resampled cells."""
    return (np.arange(dst) * src) // dst


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resample of an array [...,H,W]; row i copies row floor(i * H / out_h)."""
    if out_h < 1 or out_w < 1:
        raise ContractViolation(f"nearest resample size {out_h}x{out_w} must be at least 1x1")
    rows = np.take(img, nearest_index(img.shape[-2], out_h), axis=-2)
    return np.take(rows, nearest_index(img.shape[-1], out_w), axis=-1)


def resample_nearest(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbour spatial resample of [...,H,W] in either direction;
    the forward is `resize_nearest`.

    The gradient is the forward's adjoint, S_h.T @ (g @ S_w), with S_h
    [out_h, H] and S_w [out_w, W] the one-hot selection matrices of the
    `nearest_index` gather: each source cell sums the output cells that
    copied it, each output row's columns first, then those row sums top
    to bottom. One rule serves every ratio; a downsample's sums have one
    term. At batch 8 the six resample backwards of a `full` step at 64 px
    (the 8, 16 and 32 Grams to 32, the 2 to 4 FPN upsample, the style map
    8 to 4 and 8 to 2) take 0.22 ms, against 0.13 ms for the per-ratio
    strided slices this replaced, of a step of about 33 ms; at 96 px the
    style map's 8 to 6 backward takes 29 us against 146 us for the
    `np.add.at` scatter it took before (2-core VM, 1 BLAS thread, best of
    7x20 calls).
    """
    if x.data.ndim < 2:
        raise ContractViolation(f"resample needs spatial trailing axes, got {x.shape}")
    out = resize_nearest(x.data, out_h, out_w)
    h, w = x.data.shape[-2:]

    def grad_fn(g):
        s_h = (nearest_index(h, out_h)[:, None] == np.arange(h)).astype(np.float64)
        s_w = (nearest_index(w, out_w)[:, None] == np.arange(w)).astype(np.float64)
        # g @ S_w as one GEMM over every row of every leading index
        rows = (g.reshape(-1, out_w) @ s_w).reshape(g.shape[:-1] + (w,))
        _accumulate(x, s_h.T @ rows)

    return _result(out, (x,), grad_fn)


# ------------------------------------------------------- shape assembly
def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along an existing axis; gradients split back."""
    if not parts:
        raise ContractViolation("concat of zero tensors")
    parts = [_coerce(p) for p in parts]
    ndim = parts[0].data.ndim
    if not -ndim <= axis < ndim:
        raise ContractViolation(f"concat axis {axis} for ndim {ndim}")
    axis = axis % ndim
    for p in parts[1:]:
        if p.data.ndim != ndim:
            raise ContractViolation("concat rank mismatch")
        for ax in range(ndim):
            if ax != axis and p.data.shape[ax] != parts[0].data.shape[ax]:
                raise ContractViolation(
                    f"concat off-axis extents differ: {parts[0].shape} vs {p.shape}"
                )
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def grad_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _result(out, tuple(parts), grad_fn)


def repeat_axis(x: Tensor, axis: int, times: int) -> Tensor:
    """Tile a length-1 axis `times` times; gradient sums back over it."""
    axis = x._check_axis(axis, "repeat_axis")
    if x.data.shape[axis] != 1:
        raise ContractViolation(f"repeat_axis needs extent 1 on axis {axis}, got {x.shape}")
    out = np.repeat(x.data, times, axis=axis)

    def grad_fn(g):
        _accumulate(x, g.sum(axis=axis, keepdims=True))

    return _result(out, (x,), grad_fn)


def grad_reverse(x: Tensor) -> Tensor:
    """Identity forward; multiplies the incoming gradient by -1. The
    output shares x's array: no op writes an op output in place."""

    def grad_fn(g):
        _accumulate(x, -g)

    return _result(x.data, (x,), grad_fn)


# ----------------------------------------------------- parameters and SGD
# the 8 bytes behind every `skip_init` placeholder; `bytes` makes it read-only
_ZERO_BYTES = bytes(8)


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Kaiming-style fan-in init, the default for every weight here; inside
    ``skip_init()``, a read-only placeholder that draws nothing: all its
    strides are 0, so every element reads one shared 8-byte zero."""
    if fan_in < 1:
        raise ConfigurationError(f"fan_in {fan_in}")
    if not _drawing_init.get():
        return Tensor(np.ndarray(shape, dtype=np.float64, buffer=_ZERO_BYTES,
                                 strides=(0,) * len(shape)), requires_grad=True)
    scale = np.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def zeros_param(shape: tuple[int, ...] | int) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape: tuple[int, ...] | int) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class SGD:
    """Momentum SGD with decoupled-from-nothing classic weight decay.

    Update per parameter p with gradient g:
        v <- momentum * v + g + weight_decay * p
        p <- p - lr * v

    A parameter is updated either by `update`, during the backward walk
    (``loss.backward(opt.update)``), or by the `step` that ends the train
    step; both run the same operations, so the results are the same bits.
    Every parameter must be writable: a read-only one, such as a weight of
    ``Checkpoint.build_model``'s predictor, raises ContractViolation here.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        if not (0 <= lr < np.inf and 0 <= weight_decay < np.inf):
            raise ConfigurationError(f"lr {lr} and weight_decay {weight_decay} must be finite and >= 0")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum {momentum} outside [0, 1)")
        for key, t in params.items():
            if not t.data.flags.writeable:
                raise ContractViolation(f"parameter {key} is read-only, so SGD cannot update it")
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self._keys = {id(t): k for k, t in self.params.items()}
        self._updated: set[str] = set()

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def update(self, t: Tensor) -> None:
        """Update one parameter now and drop its gradient; the next `step`
        leaves it alone. Meant as ``Tensor.backward``'s ``on_leaf``, which
        calls it once nothing on the tape reads t any more; a leaf that is
        not one of the parameters keeps its gradient."""
        key = self._keys.get(id(t))
        if key is None:
            return
        self._apply(key, t)
        t.grad = None
        self._updated.add(key)

    def step(self) -> None:
        """Update every parameter that `update` has not updated since the
        last step, in place on each velocity and parameter array; the
        operation order is that of the formula above, so results are the
        same bits as computing it out of place."""
        for key, t in self.params.items():
            if key not in self._updated:
                self._apply(key, t)
        self._updated.clear()

    def _apply(self, key: str, t: Tensor) -> None:
        v = self.velocity[key]
        v *= self.momentum
        if t.grad is not None:
            v += t.grad
        v += self.weight_decay * t.data
        t.data -= self.lr * v
