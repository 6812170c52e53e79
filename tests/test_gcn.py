"""Graph refinement over label-indexed features."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradcheck
from styledl.errors import ContractViolation
from styledl.gcn import StylisticGcn, dynamic_adjacency, graph_conv
from styledl.tensor import Tensor

rng = np.random.default_rng(41)


def test_static_gcn_hand_value():
    # identity adjacency and identity weights reduce to leaky_relu(F)
    f = Tensor(np.array([[[1.0, -2.0], [3.0, -0.5]]]))
    a = np.eye(2)
    w = Tensor(np.eye(2))
    out = graph_conv(a, f, w).data
    np.testing.assert_allclose(out, [[[1.0, -0.4], [3.0, -0.1]]], rtol=1e-12)


def test_static_gcn_mixes_labels():
    f = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = graph_conv(a, f, Tensor(np.eye(2))).data
    np.testing.assert_allclose(out, [[[0.5, 0.5], [0.5, 0.5]]])


def test_static_gcn_validation():
    f = Tensor(np.zeros((1, 3, 4)))
    with pytest.raises(ContractViolation):
        graph_conv(np.zeros((3, 2)), f, Tensor(np.eye(4)))
    with pytest.raises(ContractViolation):
        graph_conv(np.eye(2), f, Tensor(np.eye(4)))
    with pytest.raises(ContractViolation):
        graph_conv(np.eye(3), f, Tensor(np.zeros((3, 4))))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_dynamic_adjacency_in_unit_interval(seed):
    r = np.random.default_rng(seed)
    f = Tensor(r.standard_normal((2, 4, 3)))
    w_a = Tensor(r.standard_normal((6, 4)))
    a = dynamic_adjacency(f, w_a)
    assert a.shape == (2, 4, 4)
    assert (a.data > 0).all() and (a.data < 1).all()


def test_dynamic_adjacency_validation():
    with pytest.raises(ContractViolation):
        dynamic_adjacency(Tensor(np.zeros((2, 3))), Tensor(np.zeros((6, 3))))
    with pytest.raises(ContractViolation):
        dynamic_adjacency(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((4, 3))))


def test_dynamic_gcn_shapes_and_validation():
    f = Tensor(rng.standard_normal((2, 3, 4)))
    a = Tensor(rng.random((2, 3, 3)))
    w = Tensor(rng.standard_normal((4, 4)))
    assert graph_conv(a, f, w).shape == (2, 3, 4)
    with pytest.raises(ContractViolation):
        graph_conv(Tensor(rng.random((2, 3, 2))), f, w)
    with pytest.raises(ContractViolation):
        graph_conv(a, f, Tensor(np.zeros((2, 4))))


def test_module_static_only_vs_dynamic():
    f = Tensor(rng.standard_normal((2, 4, 6)))
    a = np.eye(4)
    static_only = StylisticGcn(np.random.default_rng(0), n_labels=4, in_width=6,
                               hidden=5, dynamic=False)
    full = StylisticGcn(np.random.default_rng(0), n_labels=4, in_width=6,
                        hidden=5, dynamic=True)
    out_s = static_only(a, f)
    out_d = full(a, f)
    assert out_s.shape == (2, 4, 5)
    assert out_d.shape == (2, 4, 5)
    # dynamic stage changes the refinement
    assert np.abs(out_s.data - out_d.data).max() > 0
    assert len(full.params("gcn")) > len(static_only.params("gcn"))


def test_grad_static_to_dynamic_composite():
    module = StylisticGcn(np.random.default_rng(1), n_labels=3, in_width=4,
                          hidden=4, dynamic=True)
    a = np.random.default_rng(2).random((3, 3))
    a = a / a.sum(axis=1, keepdims=True)

    def path(f):
        return module(a, f)

    gradcheck(path, rng.standard_normal((1, 3, 4)))


def test_grad_pieces():
    a = np.random.default_rng(3).random((2, 2))
    gradcheck(lambda f, w: graph_conv(a, f, w),
              rng.standard_normal((1, 2, 3)), rng.standard_normal((3, 3)))
    gradcheck(lambda f, w: dynamic_adjacency(f, w),
              rng.standard_normal((1, 2, 3)), rng.standard_normal((6, 2)))
    gradcheck(lambda ad, f, w: graph_conv(ad.sigmoid(), f, w),
              rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 2, 3)),
              rng.standard_normal((3, 3)))
