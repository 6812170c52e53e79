"""Style-content fusion and the mean+max pooled distribution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradcheck
from styledl.errors import ContractViolation
from styledl.fusion import FusionHead, pooled_scores, style_distribution
from styledl.tensor import Tensor

rng = np.random.default_rng(31)


def _head(n_labels=5, style=4, seed=0):
    return FusionHead(np.random.default_rng(seed), n_labels=n_labels,
                      content_channels=4, deep_channels=8, style_channels=style)


def test_fused_width_is_sum_of_squared_extents():
    head = _head()
    style = Tensor(rng.random((2, 4, 8, 8)))
    content = Tensor(rng.random((2 * 2, 4, 4, 4)))
    deep = Tensor(rng.random((2 * 2, 8, 2, 2)))
    assert head(style, content, deep).shape == (2 * 2, 5, 4 * 4 + 2 * 2)


@pytest.mark.parametrize("orders", [1, 2, 3])
def test_stacked_rows_match_one_order_at_a_time(orders):
    # the one style map is shared by every order block
    head = _head()
    style = Tensor(rng.standard_normal((2, 4, 8, 8)))
    content = [rng.standard_normal((2, 4, 4, 4)) for _ in range(orders)]
    deep = [rng.standard_normal((2, 8, 2, 2)) for _ in range(orders)]
    stacked = head(style, Tensor(np.concatenate(content)), Tensor(np.concatenate(deep))).data
    for r in range(orders):
        alone = head(style, Tensor(content[r]), Tensor(deep[r])).data
        np.testing.assert_allclose(stacked[2 * r:2 * r + 2], alone, rtol=1e-12, atol=1e-12)


def test_style_free_head():
    head = FusionHead(np.random.default_rng(1), n_labels=3,
                      content_channels=4, deep_channels=8, style_channels=None)
    content = Tensor(rng.random((1, 4, 4, 4)))
    deep = Tensor(rng.random((1, 8, 2, 2)))
    assert head(None, content, deep).shape == (1, 3, 20)


def test_style_presence_must_match_build():
    head = _head()
    content = Tensor(rng.random((1, 4, 4, 4)))
    deep = Tensor(rng.random((1, 8, 2, 2)))
    with pytest.raises(ContractViolation):
        head(None, content, deep)
    with pytest.raises(ContractViolation):
        head(Tensor(rng.random((1, 4, 8, 8))), content, Tensor(rng.random((2, 8, 2, 2))))


def test_pooled_scores_hand_value():
    # one sample, two labels, two features; lam = 1
    f = Tensor(np.array([[[1.0, 3.0], [2.0, 2.0]]]))
    dist = pooled_scores(f, lam=1.0).data
    # logits: mean+max = [2+3, 2+2] = [5, 4]
    expect = np.exp([5.0, 4.0])
    np.testing.assert_allclose(dist[0], expect / expect.sum(), rtol=1e-12)


def test_pooled_scores_validation():
    with pytest.raises(ContractViolation):
        pooled_scores(Tensor(np.zeros((2, 3))), lam=0.5)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.0, 0.4, 0.8, 1.3]))
@settings(max_examples=25, deadline=None)
def test_pooled_distribution_rows_are_simplex(seed, lam):
    r = np.random.default_rng(seed)
    d = pooled_scores(Tensor(r.standard_normal((2 * 3, 4, 6))), lam)
    assert d.shape == (2 * 3, 4)
    assert (d.data >= 0).all()
    np.testing.assert_allclose(d.data.sum(axis=1), 1.0, atol=1e-9)


def test_style_distribution_averages_orders():
    # two orders of a batch of two: rows 0-1 are order 1, rows 2-3 order 2
    y_e = Tensor(np.array([[0.2, 0.8], [1.0, 0.0], [0.6, 0.4], [0.0, 1.0]]))
    y = style_distribution(y_e, 2).data
    np.testing.assert_allclose(y, [[0.4, 0.6], [0.5, 0.5]], rtol=1e-12)
    np.testing.assert_array_equal(style_distribution(y_e, 1).data, y_e.data)
    for orders in (0, 3):
        with pytest.raises(ContractViolation):
            style_distribution(y_e, orders)


def test_grad_through_fusion_and_pooling():
    head = FusionHead(np.random.default_rng(3), n_labels=2,
                      content_channels=2, deep_channels=2, style_channels=2)

    def path(style, content, deep):
        return pooled_scores(head(style, content, deep), lam=0.8)

    # two order blocks of one sample share the style map
    gradcheck(path,
              rng.standard_normal((1, 2, 4, 4)),
              rng.standard_normal((2, 2, 2, 2)),
              rng.standard_normal((2, 2, 1, 1)))
