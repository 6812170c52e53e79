"""Divergence objective, adaptive balancing, final mixing."""
import math

import numpy as np
import pytest

from styledl.errors import ConfigurationError, ContractViolation
from styledl.losses import combine_final, kl_loss, pred_loss, total_loss
from styledl.tensor import Tensor

rng = np.random.default_rng(51)


def _simplex(n, c, seed=0):
    return np.random.default_rng(seed).dirichlet(np.ones(c), size=n)


def test_kl_hand_value():
    t = np.array([[0.5, 0.5]])
    p = Tensor(np.array([[0.25, 0.75]]))
    # 0.5 log(0.5/0.25) + 0.5 log(0.5/0.75)
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(kl_loss(t, p).item() - expect) < 1e-12


def test_kl_zero_when_equal():
    p = _simplex(4, 6, seed=1)
    assert abs(kl_loss(p, Tensor(p.copy())).item()) < 1e-12


def test_kl_zero_target_terms_drop():
    t = np.array([[1.0, 0.0]])
    p = Tensor(np.array([[0.5, 0.5]]))
    assert abs(kl_loss(t, p).item() - math.log(2.0)) < 1e-12


def test_kl_batch_mean():
    t = np.array([[0.5, 0.5], [0.5, 0.5]])
    p = Tensor(np.array([[0.25, 0.75], [0.25, 0.75]]))
    single = kl_loss(t[:1], Tensor(p.data[:1])).item()
    assert abs(kl_loss(t, p).item() - single) < 1e-12


def test_kl_clamps_vanishing_pred():
    t = np.array([[0.5, 0.5]])
    p = Tensor(np.array([[1.0, 0.0]]))
    val = kl_loss(t, p).item()
    assert np.isfinite(val)
    # clamped at 1e-12: 0.5 log(0.5/1) + 0.5 log(0.5/1e-12)
    expect = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(1e-12))
    assert abs(val - expect) < 1e-9


def test_kl_rejects_nonsimplex():
    with pytest.raises(ContractViolation):
        kl_loss(np.array([[0.9, 0.3]]), Tensor(np.array([[0.5, 0.5]])))
    with pytest.raises(ContractViolation):
        kl_loss(np.array([[0.5, 0.5]]), Tensor(np.array([[-0.1, 1.1]])))
    with pytest.raises(ContractViolation):
        kl_loss(np.array([[0.5, 0.5]]), Tensor(np.array([[0.3, 0.3, 0.4]])))


def test_kl_gradient_direction():
    t = np.array([[0.8, 0.2]])
    p = Tensor(np.array([[0.5, 0.5]]), requires_grad=True)
    kl_loss(t, p).backward()
    # d/dp_i of -sum t log p = -t/p: more mass needed on label 0
    np.testing.assert_allclose(p.grad, [[-1.6, -0.4]], rtol=1e-12)


def test_pred_loss_averages_orders():
    t = _simplex(3, 4, seed=2)
    y1 = Tensor(_simplex(3, 4, seed=3))
    y2 = Tensor(_simplex(3, 4, seed=4))
    both = pred_loss(Tensor(np.concatenate([y1.data, y2.data])), None, t).item()
    expect = 0.5 * (kl_loss(t, y1).item() + kl_loss(t, y2).item())
    assert abs(both - expect) < 1e-12


def test_pred_loss_adds_graph_term():
    t = _simplex(2, 3, seed=5)
    y1 = Tensor(_simplex(2, 3, seed=6))
    ye = Tensor(_simplex(2, 3, seed=7))
    with_graph = pred_loss(y1, ye, t).item()
    expect = kl_loss(t, y1).item() + kl_loss(t, ye).item()
    assert abs(with_graph - expect) < 1e-12


def test_pred_loss_needs_orders():
    for rows in (0, 3):
        with pytest.raises(ContractViolation):
            pred_loss(Tensor(_simplex(rows, 3)), None, _simplex(2, 3))


def test_total_loss_reference_values():
    l_pred = Tensor(np.array(2.0), requires_grad=True)
    l_adv = Tensor(np.array(4.0), requires_grad=True)
    loss = total_loss(l_pred, l_adv)
    assert abs(loss.item() - 4.0) <= 1e-12
    loss.backward()
    assert abs(float(l_adv.grad) - 0.5) <= 1e-9


def test_total_loss_scale_invariant_in_adv():
    l_pred = Tensor(np.array(2.0))
    assert abs(total_loss(l_pred, Tensor(np.array(4.0))).item()
               - total_loss(l_pred, Tensor(np.array(40.0))).item()) <= 1e-12


def test_total_loss_guards_tiny_adv():
    loss = total_loss(Tensor(np.array(2.0)), Tensor(np.array(0.0)))
    assert np.isfinite(loss.item())
    assert abs(loss.item() - 2.0) < 1e-6


def test_combine_final_endpoints_and_mix():
    ye = Tensor(np.array([[0.7, 0.3]]))
    ys = Tensor(np.array([[0.1, 0.9]]))
    np.testing.assert_allclose(combine_final(ye, ys, 1.0).data, ye.data)
    np.testing.assert_allclose(combine_final(ye, ys, 0.0).data, ys.data)
    np.testing.assert_allclose(combine_final(ye, ys, 0.6).data, [[0.46, 0.54]], rtol=1e-12)
    with pytest.raises(ConfigurationError):
        combine_final(ye, ys, 1.5)
    with pytest.raises(ConfigurationError):
        combine_final(ye, ys, -0.1)
