"""Random compositions of the engine's ops get the gradient of their forward.

c02 and the per-op oracles check each op alone. The engine's speed rests on
in-place rules that only compositions can break: `conv_block` normalizes
its convs' outputs in place and, in a chain, recomputes an inner block's
output and masks its gradient in place, the layer-norm backward works in
place on the masked gradient, and an op output keeps the gradient it is
handed, which may alias another node's. So this draws random DAGs of 3-9 ops from the
table `OPS`, each op reading any earlier node (an input, or an op output
used again), and checks the gradient of a random linear mix of every node
against central differences on 2 coordinates of every leaf. Every gradient
closure on the tape is wrapped to check that it leaves its incoming
gradient as it was handed. Half the graphs run with the unfold cap at one
byte, so every conv runs its chunked paths one sample at a time.

Adding an op to the engine is one row of `OPS`: its arity, the shapes of
the parameters it takes, and how it maps [2,3,4,4] inputs to a [2,3,4,4]
output.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import styledl.tensor as T
from conftest import guard_incoming_gradients
from styledl.tensor import Tensor

SHAPE = (2, 3, 4, 4)
H = 1e-6         # central-difference step
RTOL = 1e-4      # on the larger of the analytic and numeric slope, plus ATOL
ATOL = 1e-6

W3, W1, VEC = (3, 3, 3, 3), (3, 6, 1, 1), (3,)


def _up(t: Tensor) -> Tensor:
    return T.resample_nearest(t, 4, 4)


# name: (number of node inputs, parameter shapes, op over inputs then parameters)
OPS = {
    "add": (2, (), lambda a, b: a + b),
    "sub": (2, (), lambda a, b: a - b),
    "mul": (2, (), lambda a, b: a * b),
    "square": (1, (), lambda a: a * a),
    "relu": (1, (), lambda a: a.relu()),
    "leaky_relu": (1, (), lambda a: a.leaky_relu(0.2)),
    "sigmoid": (1, (), lambda a: a.sigmoid()),
    "softmax": (1, (), lambda a: a.softmax(axis=1)),
    "transpose": (1, (), lambda a: a.transpose(0, 1, 3, 2)),
    "conv2d_s1": (1, (W3, VEC), lambda a, w, b: T.conv2d(a, w, b)),
    "conv2d_s2": (1, (W3, VEC), lambda a, w, b: _up(T.conv2d(a, w, b, stride=2))),
    "conv_block_s1": (1, (W3, VEC, VEC, VEC),
                      lambda a, w, b, g, be: T.conv_block(a, (w, b, g, be, 1))),
    "conv_block_s2": (1, (W3, VEC, VEC, VEC),
                      lambda a, w, b, g, be: _up(T.conv_block(a, (w, b, g, be, 2)))),
    "conv_chain_s2s1": (1, (W3, VEC, VEC, VEC) * 2,
                        lambda a, *p: _up(T.conv_block(a, (*p[:4], 2), (*p[4:], 1)))),
    "layer_norm": (1, (VEC, VEC), lambda a, g, be: T.layer_norm(a, g, be)),
    "resample": (1, (), lambda a: _up(T.resample_nearest(a, 2, 2))),
    "concat_conv1x1": (2, (W1, VEC), lambda a, b, w, bias: T.conv2d(T.concat([a, b], 1), w, bias)),
    "grad_reverse": (1, (), T.grad_reverse),
}

N_INPUTS = 2


@st.composite
def graphs(draw):
    """[(op name, indices of its input nodes)]; nodes 0..N_INPUTS-1 are the
    inputs and node N_INPUTS+i is the output of op i."""
    ops = []
    for i in range(draw(st.integers(3, 9))):
        name = draw(st.sampled_from(sorted(OPS)))
        n_nodes = N_INPUTS + i
        ops.append((name, tuple(draw(st.integers(0, n_nodes - 1))
                                for _ in range(OPS[name][0]))))
    return ops


def _leaves(ops, r):
    """The inputs, then each op's parameters in order."""
    leaves = [r.standard_normal(SHAPE) for _ in range(N_INPUTS)]
    for name, _ in ops:
        for shape in OPS[name][1]:
            leaves.append(r.random(shape) + 0.5 if shape == VEC else r.standard_normal(shape))
    return leaves


def _run(ops, leaves, reversed_at=None):
    """Every node of the graph over `leaves` (Tensors). With `reversed_at`,
    the values of the grad_reverse inputs in the unperturbed graph,
    grad_reverse is the map y -> 2*y0 - y, whose value is the identity's
    at y0 and whose slope is -1: the gradient grad_reverse promises."""
    nodes, params = list(leaves[:N_INPUTS]), iter(leaves[N_INPUTS:])
    for i, (name, inputs) in enumerate(ops):
        _, shapes, fn = OPS[name]
        args = [nodes[j] for j in inputs] + [next(params) for _ in shapes]
        if name == "grad_reverse" and reversed_at is not None:
            nodes.append(Tensor(2 * reversed_at[i] - args[0].data))
        else:
            nodes.append(fn(*args))
    return nodes


def _check_graph(ops, seed):
    r = np.random.default_rng(seed)
    leaves = _leaves(ops, r)
    projs = [r.standard_normal(SHAPE) for _ in range(N_INPUTS + len(ops))]

    tracked = [Tensor(a, requires_grad=True) for a in leaves]
    nodes = _run(ops, tracked)
    reversed_at = {i: nodes[inputs[0]].data.copy() for i, (name, inputs) in enumerate(ops)
                   if name == "grad_reverse"}
    loss = None
    for node, proj in zip(nodes, projs):
        term = (node * Tensor(proj)).sum()
        loss = term if loss is None else loss + term

    written = guard_incoming_gradients(loss)[1]
    loss.backward()
    assert written == [], (ops, written)

    def value(arrays):
        with T.no_grad():
            out = _run(ops, [Tensor(a) for a in arrays], reversed_at)
        return sum(float((n.data * p).sum()) for n, p in zip(out, projs))

    base = value(leaves)
    for k, leaf in enumerate(leaves):
        for idx in r.choice(leaf.size, size=min(2, leaf.size), replace=False):
            work = [a.copy() for a in leaves]
            flat = work[k].reshape(-1)
            flat[idx] += H
            up = (value(work) - base) / H
            flat[idx] -= 2 * H
            down = (base - value(work)) / H
            numeric = (up + down) / 2
            tol = ATOL + RTOL * max(abs(numeric), 1.0)
            if abs(up - down) > tol:
                continue  # a relu-family kink lies within H of this coordinate
            analytic = tracked[k].grad.reshape(-1)[idx]
            assert abs(analytic - numeric) <= ATOL + RTOL * max(abs(analytic), abs(numeric)), (
                ops, k, int(idx), analytic, numeric)


@given(ops=graphs(), seed=st.integers(0, 2**32 - 1), cap=st.sampled_from([1, T._UNFOLD_BYTES]))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_random_graph_gradients_match_central_differences(ops, seed, cap):
    with mock.patch.object(T, "_UNFOLD_BYTES", cap):
        _check_graph(ops, seed)
