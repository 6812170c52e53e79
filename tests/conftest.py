"""Shared test helpers: central-difference gradient checking, and a walk
of the tape with a guard on the gradients its closures are handed.

The numeric oracle never touches the autograd graph: it re-runs the
forward on perturbed plain arrays, so agreement really does cross-check
the hand-written backward rules.
"""
from __future__ import annotations

import numpy as np

from styledl.tensor import Tensor

FD_STEP = 1e-4
REL_TOL = 1e-3
ABS_TOL = 1e-6


def scalarize(fn, arrays, proj):
    """Forward pass on plain arrays, projected to one number."""
    out = fn(*[Tensor(a) for a in arrays])
    return float((out.data * proj).sum())


def numeric_gradient(fn, arrays, index, proj, h=FD_STEP):
    work = [a.astype(np.float64).copy() for a in arrays]
    grad = np.zeros_like(work[index])
    flat_in = work[index].reshape(-1)
    flat_out = grad.reshape(-1)
    for i in range(flat_in.size):
        keep = flat_in[i]
        flat_in[i] = keep + h
        up = scalarize(fn, work, proj)
        flat_in[i] = keep - h
        down = scalarize(fn, work, proj)
        flat_in[i] = keep
        flat_out[i] = (up - down) / (2 * h)
    return grad


def analytic_gradients(fn, arrays, proj):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    scalar = (out * Tensor(proj)).sum()
    scalar.backward()
    return [t.grad for t in tensors]


def gradcheck(fn, *arrays, seed=0, rtol=REL_TOL, atol=ABS_TOL, sign=1.0):
    """Compare autograd against central differences for every input.

    `sign` lets gradient-reversal paths assert the analytic gradient is
    the negated numeric one.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    probe = fn(*[Tensor(a) for a in arrays])
    proj = np.random.default_rng(seed).standard_normal(probe.data.shape)
    analytic = analytic_gradients(fn, arrays, proj)
    for index, a_grad in enumerate(analytic):
        assert a_grad is not None, f"input {index} received no gradient"
        n_grad = numeric_gradient(fn, arrays, index, proj)
        diff = np.abs(a_grad - sign * n_grad)
        scale = np.maximum(np.abs(a_grad), np.abs(n_grad))
        bad = diff > atol + rtol * scale
        assert not bad.any(), (
            f"input {index}: {int(bad.sum())}/{bad.size} elements disagree, "
            f"worst diff {diff.max():.3e} (analytic {a_grad.reshape(-1)[diff.argmax()]:.6e}, "
            f"numeric {n_grad.reshape(-1)[diff.argmax()]:.6e})")


def away_from_kinks(x, margin=0.05):
    """Shift values so |x| stays clear of 0, where relu-family forwards kink."""
    return x + np.sign(x) * margin + (x == 0) * margin


def random_simplex(rng, n, c):
    return rng.dirichlet(np.ones(c), size=n)


def tape(loss):
    """Every op output reachable from loss, the loss included."""
    nodes, stack, seen = [], [loss], {id(loss)}
    while stack:
        t = stack.pop()
        if t._grad_fn is not None:
            nodes.append(t)
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def guard_incoming_gradients(loss):
    """Wrap the gradient closure of every node on loss's tape. Returns
    (calls, written), filled by the backward: each closure run, and the
    qualname of each one that wrote into the g it was handed."""
    calls, written = [], []

    def checked(fn):
        def run(g):
            before = g.copy()
            fn(g)
            calls.append(fn)
            if not np.array_equal(g, before):
                written.append(fn.__qualname__)
        return run

    for node in tape(loss):
        node._grad_fn = checked(node._grad_fn)
    return calls, written
