"""Style representation: gram properties, stacking, correlation encoder."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradcheck
from styledl.errors import ContractViolation
from styledl.style import InterLayerCorrelation, gram, stack_grams
from styledl.tensor import Tensor

rng = np.random.default_rng(11)


def test_gram_hand_value():
    # one sample, two channels, 1x2 extent: M = [[1,2],[3,4]], G = M M^T
    x = np.array([[[[1.0, 2.0]], [[3.0, 4.0]]]])
    g = gram(Tensor(x)).data
    np.testing.assert_array_equal(g[0], [[5.0, 11.0], [11.0, 25.0]])


def test_gram_normalized():
    x = np.array([[[[1.0, 2.0]], [[3.0, 4.0]]]])
    g = gram(Tensor(x), normalize=True).data
    np.testing.assert_allclose(g[0], np.array([[5.0, 11.0], [11.0, 25.0]]) / 2.0)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 16))
@settings(max_examples=25, deadline=None)
def test_gram_symmetric_psd(seed, c):
    x = np.random.default_rng(seed).standard_normal((2, c, 3, 3))
    g = gram(Tensor(x)).data
    sym = np.abs(g - g.transpose(0, 2, 1)).max()
    assert sym <= 1e-9
    for sample in g:
        assert np.linalg.eigvalsh(sample).min() >= -1e-8


def test_gram_rejects_non_4d():
    with pytest.raises(ContractViolation):
        gram(Tensor(np.zeros((3, 4, 4))))


def test_stack_upsamples_to_widest():
    g0 = Tensor(rng.random((2, 2, 2)))
    g1 = Tensor(rng.random((2, 3, 3)))
    g2 = Tensor(rng.random((2, 5, 5)))
    s = stack_grams(g0, g1, g2)
    assert s.shape == (2, 3, 5, 5)
    # widest layer passes through untouched
    np.testing.assert_array_equal(s.data[:, 2], g2.data)


def test_stack_takes_raw_taps_as_their_own_channels():
    t0 = Tensor(rng.random((2, 2, 8, 8)))
    t1 = Tensor(rng.random((2, 3, 4, 4)))
    g = Tensor(rng.random((2, 5, 5)))
    s = stack_grams(t0, t1, g)
    assert s.shape == (2, 6, 8, 8)
    np.testing.assert_array_equal(s.data[:, :2], t0.data)
    np.testing.assert_array_equal(s.data[:, 2:5], t1.data.repeat(2, axis=2).repeat(2, axis=3))


def test_stack_rejects_rectangular():
    with pytest.raises(ContractViolation):
        stack_grams(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 3, 3))),
                    Tensor(np.zeros((1, 4, 4))))


def test_correlation_encoder_shapes():
    mod = InterLayerCorrelation(np.random.default_rng(0))
    out = mod(Tensor(rng.random((2, 3, 8, 8))))
    assert out.shape == (2, 32, 2, 2)
    out16 = mod(Tensor(rng.random((1, 3, 16, 16))))
    assert out16.shape == (1, 32, 4, 4)


def test_correlation_encoder_validation():
    mod = InterLayerCorrelation(np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        mod(Tensor(np.zeros((2, 3, 8))))


def test_grad_gram_alone():
    gradcheck(lambda a: gram(a), rng.standard_normal((1, 3, 2, 2)))


def test_grad_gram_to_correlation_composite():
    # tiny taps: full style path  gram -> stack -> strided correlation conv
    mod = InterLayerCorrelation(np.random.default_rng(3), widths=(2, 3))

    def path(t0, t1, t2):
        s = stack_grams(gram(t0), gram(t1), gram(t2))
        return mod(s)

    gradcheck(path,
              rng.standard_normal((1, 2, 2, 2)),
              rng.standard_normal((1, 3, 2, 2)),
              rng.standard_normal((1, 4, 2, 2)))
