"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small. Values are row-major numpy arrays in
float64. Each op builds the implicit graph by storing its parents and a
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
to form its weight gradient. Nothing in the package writes an op
input in place while a tape is live; `SGD.step` updates the parameters
in place only after the backward. The one in-place write during a
forward is `conv_block`'s into the output of the `conv2d` it calls,
which no other op sees: it normalizes that array into x_hat and masks
its own output before returning it.

Inside ``with no_grad():`` ops record nothing: outputs get no parents, no
gradient closure and ``requires_grad == False``, so every intermediate
buffer is freed as soon as the forward stops referring to it. Parameters
keep ``requires_grad`` and the mode ends with the block, so a model
trains as before once it is left. ``training.predict_batch`` (and with it
``evaluate`` and ``styledl predict``) runs its forwards this way; wrap any
other forward whose gradient is not needed in ``no_grad()`` too.

Inside ``with skip_init():`` ``he_normal`` still checks ``fan_in`` but
returns an uninitialized (``np.empty``) parameter of the requested shape
and draws nothing, so the generator does not advance. It is built the
same way as ``no_grad()``: blocks may nest and the mode ends with the
block. It is meant for a model whose every parameter is overwritten
before anything reads it: ``Checkpoint.build_model`` builds the network
this way and then copies each array from the checkpoint, so rebuilding a
saved model costs the file read and one copy per array, not a full init.
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

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
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        new = self.data.reshape(shape)
        src_shape = self.data.shape

        def grad_fn(g):
            _accumulate(self, g.reshape(src_shape))

        return _result(new, (self,), grad_fn)

    def flatten(self) -> "Tensor":
        """Row-major flattening to a 1-d tensor."""
        return self.reshape(self.data.size)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
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

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
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
    def backward(self) -> None:
        """Fill .grad on every tracked leaf reachable from this scalar, and
        free the tape on the way.

        The walk takes each op output's gradient closure and gradient off
        the node before running the closure, so every saved buffer (op
        inputs no other node reads, x_hat, masks) and every intermediate
        gradient is freed once its last reader has run.
        Afterwards the op outputs hold no .grad and no parents; a second
        backward() through them raises ``ContractViolation``.
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
    """Leave the weights that ``he_normal`` makes inside the block
    uninitialized; nesting is allowed."""
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
        t.grad = g if t._parents else np.array(g, dtype=np.float64, order="C")
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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map x @ w + b with the bias broadcast over leading axes."""
    out = matmul(x, w)
    if b is None:
        return out
    if b.data.ndim != 1 or b.data.shape[0] != out.data.shape[-1]:
        raise ContractViolation(f"linear bias shape {b.shape} vs output {out.shape}")

    def grad_fn(g):
        _accumulate(out, g)
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _result(out.data + b.data, (out, b), grad_fn)


# ------------------------------------------------------------ convolution
def _im2col(x: np.ndarray, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """Unfold [B,C,H,W] into the [C*k*k, B*ho*wo] patch matrix.

    Padding happens here: for pad > 0 the input is written once into an
    owned channel-major zero buffer [C, B, H+2*pad, W+2*pad]; a negative
    pad crops -pad cells from every border instead. The k*k strided
    slices are then copied into the returned matrix, which the caller owns.
    """
    bsz, cin, h, w = x.shape
    xt = x.transpose(1, 0, 2, 3)
    if pad > 0:
        xp = np.zeros((cin, bsz, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        xp[:, :, pad : pad + h, pad : pad + w] = xt
        xt = xp
    elif pad < 0:
        xt = xt[:, :, -pad : h + pad, -pad : w + pad]
    cols = np.empty((cin, k, k, bsz, ho, wo), dtype=np.float64)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = xt[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride]
    return cols.reshape(cin * k * k, bsz * ho * wo)


def _col2im(gcols: np.ndarray, gxt: np.ndarray, k: int, stride: int, ho: int, wo: int) -> None:
    """Adjoint of `_im2col`: scatter-add the patch gradients
    [C*k*k, b*ho*wo] into gxt, the padded channel-major gradient
    [C, b, H+2*pad, W+2*pad] of those b samples (a view of the caller's
    whole-batch buffer)."""
    cin, bsz = gxt.shape[:2]
    g6 = gcols.reshape(cin, k, k, bsz, ho, wo)
    for ki in range(k):
        for kj in range(k):
            gxt[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += g6[:, ki, kj]


# Cap on the bytes of every patch matrix conv2d unfolds, forward and
# backward: each covers a chunk of whole samples that fits under it (one
# sample at least, so a sample larger than the cap is unfolded alone).
# The benchmark peak of a 128 px backbone's training is 42.2 MB at 8 MiB,
# 36.9 MB at 2 MiB and 36.6 MB at 1 MiB; a smaller cap only adds GEMM calls.
_UNFOLD_BYTES = 2 << 20


def _sample_chunks(bsz: int, sample_bytes: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) ranges of whole samples whose unfold, `sample_bytes` per
    sample, fits under `_UNFOLD_BYTES`; they cover 0..bsz in order."""
    step = max(1, _UNFOLD_BYTES // sample_bytes)
    for lo in range(0, bsz, step):
        yield lo, min(lo + step, bsz)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation over [B,Cin,H,W] with weight [Cout,Cin,k,k].

    Output extent follows the floor convention
    H' = (H + 2*pad - k) // stride + 1, which is what lets a 3x3
    stride-2 kernel with pad 1 halve an even input exactly.

    The forward unfolds the input (im2col, padding included) into a
    [Cin*k*k, b*H'*W'] patch matrix for a chunk of b samples, and one GEMM
    with the [Cout, Cin*k*k] weight writes that chunk's columns of one
    [Cout, B*H'*W'] output (Chellapilla et al., 2006). The chunks are as
    large as `_UNFOLD_BYTES` allows, so a small conv unfolds its whole
    batch at once. A split leaves each output column the same dot product
    over Cin*k*k, and the tests check that it keeps the bits of an unsplit
    forward. A 1x1 conv is then one transpose copy and one GEMM. Each patch matrix is dropped as
    soon as its GEMM is done, so the tape holds only x and w for a conv of
    either stride: the backward unfolds again, chunked under the same cap.

    A stride-1 backward unfolds the output gradient, padded by k-1-pad
    (cropped when that is negative), into gcols [Cout*k*k, b*H*W] and
    takes both gradients from it (Dumoulin & Visin, 2016): the input
    gradient is the correlation of that padded gradient with the spatially
    flipped kernel whose in and out channels are swapped, `wf @ gcols`;
    the weight gradient is `x_cm @ gcols.T` with x in channel-major order
    [Cin, b*H*W], which gives the flipped and transposed kernel gradient.
    A strided backward unfolds x again for the weight gradient,
    `g_cm @ cols.T`, and scatter-adds the patch gradients `wm.T @ g_cm`
    into one padded channel-major input gradient with `_col2im`
    (recomputing the unfold instead of storing it: Chen et al., 2016).
    Either way each chunk writes its own samples of one channel-major
    input gradient [Cin, B, H, W], handed over as a transposed view, and
    the weight gradient is summed over the chunks; a split therefore
    changes only the weight gradient's summation order. The bias gradient
    sums g over batch and space.
    """
    x, w = _coerce(x), _coerce(w)
    if x.data.ndim != 4:
        raise ContractViolation(f"conv2d input must be [B,C,H,W], got {x.shape}")
    if w.data.ndim != 4 or w.data.shape[-1] != w.data.shape[-2]:
        raise ContractViolation(f"conv2d weight must be [Cout,Cin,k,k], got {w.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ContractViolation(f"conv2d channels: input {x.shape} vs weight {w.shape}")
    if stride < 1 or pad < 0:
        raise ConfigurationError(f"conv2d stride={stride}, pad={pad}")
    bsz, cin, h, wid = x.data.shape
    cout, _, k, _ = w.data.shape
    if h + 2 * pad < k or wid + 2 * pad < k:
        raise ConfigurationError(f"kernel {k} exceeds padded input {h + 2 * pad}x{wid + 2 * pad}")
    if b is not None and b.data.shape != (cout,):
        raise ContractViolation(f"conv2d bias shape {b.shape}, expected ({cout},)")
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wid + 2 * pad - k) // stride + 1
    hwo = ho * wo
    x_chunks = list(_sample_chunks(bsz, cin * k * k * hwo * 8))
    wm = w.data.reshape(cout, cin * k * k)
    out = np.empty((cout, bsz * hwo), dtype=np.float64)
    for lo, hi in x_chunks:
        np.matmul(wm, _im2col(x.data[lo:hi], k, stride, pad, ho, wo), out=out[:, lo * hwo:hi * hwo])
    if b is not None:
        out += b.data[:, None]
    parents = (x, w) if b is None else (x, w, b)

    def grad_fn(g):
        if b is not None and b.requires_grad:
            _accumulate(b, np.einsum("bchw->c", g))
        if not (x.requires_grad or w.requires_grad):
            return
        gw = None
        if stride > 1:
            if x.requires_grad:
                gxt = np.zeros((cin, bsz, h + 2 * pad, wid + 2 * pad), dtype=np.float64)
            for lo, hi in x_chunks:
                g_cm = g[lo:hi].transpose(1, 0, 2, 3).reshape(cout, (hi - lo) * hwo)
                if w.requires_grad:
                    part = g_cm @ _im2col(x.data[lo:hi], k, stride, pad, ho, wo).T
                    gw = part if gw is None else gw + part
                if x.requires_grad:
                    _col2im(wm.T @ g_cm, gxt[:, lo:hi], k, stride, ho, wo)
            if x.requires_grad:
                _accumulate(x, gxt[:, :, pad:pad + h, pad:pad + wid].transpose(1, 0, 2, 3))
            if w.requires_grad:
                _accumulate(w, gw.reshape(w.data.shape))
            return
        hw = h * wid
        if x.requires_grad:
            wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
            gx_cm = np.empty((cin, bsz * hw), dtype=np.float64)
        for lo, hi in _sample_chunks(bsz, cout * k * k * hw * 8):
            gcols = _im2col(g[lo:hi], k, 1, k - 1 - pad, h, wid)
            if x.requires_grad:
                np.matmul(wf, gcols, out=gx_cm[:, lo * hw:hi * hw])
            if w.requires_grad:
                part = x.data[lo:hi].transpose(1, 0, 2, 3).reshape(cin, (hi - lo) * hw) @ gcols.T
                gw = part if gw is None else gw + part
            del gcols  # freed before the next chunk's unfold
        if x.requires_grad:
            _accumulate(x, gx_cm.reshape(cin, bsz, h, wid).transpose(1, 0, 2, 3))
        if w.requires_grad:
            _accumulate(w, gw.reshape(cin, cout, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))

    out = np.ascontiguousarray(out.reshape(cout, bsz, ho, wo).transpose(1, 0, 2, 3))
    return _result(out, parents, grad_fn)


# ------------------------------------------------------------- layer norm
def _ln_forward(x: np.ndarray, gamma: Tensor, beta: Tensor, eps: float,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample layer norm of [B,C,H,W] over (C,H,W) plus the per-channel
    affine; returns (x_hat, inv_std, y).

    x is centered into `out` (a new buffer when None; x itself to work in
    place) and normalized there into x_hat; y is a new buffer.
    """
    if x.ndim != 4:
        raise ContractViolation(f"layer_norm input must be [B,C,H,W], got {x.shape}")
    bsz, c = x.shape[:2]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ContractViolation(f"layer_norm affine shapes {gamma.shape}/{beta.shape} for C={c}")
    n = x[0].size
    xhat = np.subtract(x, x.mean(axis=(1, 2, 3), keepdims=True), out=out)
    var = np.einsum("bchw,bchw->b", xhat, xhat) / n
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(bsz, 1, 1, 1)
    xhat *= inv_std
    y = xhat * gamma.data.reshape(1, c, 1, 1)
    y += beta.data.reshape(1, c, 1, 1)
    return xhat, inv_std, y


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gamma: Tensor,
                 beta: Tensor, dx: np.ndarray | None) -> None:
    """Accumulate the affine gradients of `_ln_forward` and, when `dx` is
    given, write the input gradient into it (`dx` may be g itself)."""
    bsz, c = g.shape[:2]
    n = g[0].size
    s_g = g.sum(axis=(2, 3))
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


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize each sample of [B,C,H,W] over (C,H,W), then apply a
    per-channel affine. Mean 0 / variance 1 holds before the affine.

    The forward centers x into one owned buffer and normalizes it in
    place into x_hat, which the backward keeps. The backward needs only
    two sums per (sample, channel), s_g = sum_hw g and s_gx = sum_hw g*x_hat
    (Ba et al., 2016): they give both affine gradients and, through gamma,
    the mean and projection terms of dx. dx is built in place in one
    buffer; only the projection term x_hat * (s_gx @ gamma / n) needs a
    temporary.
    """
    xhat, inv_std, out = _ln_forward(x.data, gamma, beta, eps)

    def grad_fn(g):
        dx = np.empty_like(g) if x.requires_grad else None
        _ln_backward(g, xhat, inv_std, gamma, beta, dx)
        if dx is not None:
            _accumulate(x, dx)

    return _result(out, (x, gamma, beta), grad_fn)


def conv_block(x: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
               stride: int) -> Tensor:
    """relu(layer_norm(conv2d(x, w, b, stride, pad=1), gamma, beta)) as one
    tape node, with the bits of the three ops run one after another.

    The conv runs through the public `conv2d`; its output is private to
    this op, so it is normalized in place into x_hat, and the output is
    masked in place (`out *= out > 0`, the bits of `x * mask`). The tape
    holds x_hat and the output, plus the conv's x and w, which its own
    closure reads; the node's parents are the conv's plus gamma and beta. The backward
    takes the mask again from the output, masks the incoming gradient
    into a new buffer, runs the layer-norm backward in place on it and
    hands the result to the conv's closure. This is the memory trade of
    in-place activated batch norm (Rota Bulo et al., 2018).
    """
    x = _coerce(x)
    conv = conv2d(x, w, b, stride=stride, pad=1)
    conv_grad = conv._grad_fn
    xhat, inv_std, out = _ln_forward(conv.data, gamma, beta, 1e-6, out=conv.data)
    out *= out > 0

    def grad_fn(g):
        gm = g * (out > 0)
        _ln_backward(gm, xhat, inv_std, gamma, beta, gm if conv_grad is not None else None)
        if conv_grad is not None:
            conv_grad(gm)

    return _result(out, (x, w, b, gamma, beta), grad_fn)


# ------------------------------------------------------------- resampling
def nearest_index(src: int, dst: int) -> np.ndarray:
    """Source index floor(i * src / dst) for each of dst nearest-resampled cells."""
    return (np.arange(dst) * src) // dst


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resample of an array [...,H,W]; row i copies row floor(i * H / out_h)."""
    if out_h < 1 or out_w < 1:
        raise ContractViolation(f"nearest resample size {out_h}x{out_w} must be at least 1x1")
    rows = nearest_index(img.shape[-2], out_h)
    cols = nearest_index(img.shape[-1], out_w)
    return img[..., rows[:, None], cols[None, :]]


def resample_nearest(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbour spatial resample of [...,H,W] in either direction;
    the forward is `resize_nearest`.

    The gradient sums the output cells that copied each source cell. A
    whole-factor upsample adds strided slices, one per block offset: the
    fw slices of each of the fh block rows left to right, then those row
    sums. On a source larger than 1x1 with factors below 8 that is the
    order a reshape-sum over each block adds in, at a fraction of its
    cost; otherwise the two differ in the last bits. A whole-factor
    downsample (which picks distinct cells) assigns into zeros, and any
    other ratio scatter-adds with `np.add.at`.
    """
    if x.data.ndim < 2:
        raise ContractViolation(f"resample needs spatial trailing axes, got {x.shape}")
    out = resize_nearest(x.data, out_h, out_w)
    h, w = x.data.shape[-2:]
    lead_shape = x.data.shape[:-2]
    lead = int(np.prod(lead_shape)) if lead_shape else 1

    def grad_fn(g):
        g3 = g.reshape(lead, out_h, out_w)
        if out_h % h == 0 and out_w % w == 0:
            fh, fw = out_h // h, out_w // w
            gx = None
            for i in range(fh):
                row = g3[:, i::fh, ::fw]
                for j in range(1, fw):
                    row = row + g3[:, i::fh, j::fw]
                gx = row if gx is None else gx + row
        else:
            gx = np.zeros((lead, h, w), dtype=np.float64)
            if h % out_h == 0 and w % out_w == 0:
                gx[:, :: h // out_h, :: w // out_w] = g3
            else:
                rows = nearest_index(h, out_h)[None, :, None]
                cols = nearest_index(w, out_w)[None, None, :]
                np.add.at(gx, (np.arange(lead)[:, None, None], rows, cols), g3)
        _accumulate(x, gx.reshape(x.data.shape))

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
    """Identity forward; multiplies the incoming gradient by -1."""

    def grad_fn(g):
        _accumulate(x, -g)

    return _result(x.data.copy(), (x,), grad_fn)


# ----------------------------------------------------- parameters and SGD
def he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Kaiming-style fan-in init, the default for every weight here;
    uninitialized, with nothing drawn from `rng`, inside ``skip_init()``."""
    if fan_in < 1:
        raise ConfigurationError(f"fan_in {fan_in}")
    if not _drawing_init.get():
        return Tensor(np.empty(shape), requires_grad=True)
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
    """

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        if not (0 <= lr < np.inf and 0 <= weight_decay < np.inf):
            raise ConfigurationError(f"lr {lr} and weight_decay {weight_decay} must be finite and >= 0")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum {momentum} outside [0, 1)")
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(t.data) for k, t in self.params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self) -> None:
        """One update, in place on each velocity and parameter array; the
        operation order is that of the formula above, so results are the
        same bits as computing it out of place."""
        for key, t in self.params.items():
            v = self.velocity[key]
            v *= self.momentum
            if t.grad is not None:
                v += t.grad
            v += self.weight_decay * t.data
            t.data -= self.lr * v
