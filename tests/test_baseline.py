"""Nearest-neighbour baseline behavior."""
import warnings

import numpy as np
import pytest

from styledl.baseline import aaknn_predict, knn_features
from styledl.errors import ContractViolation

rng = np.random.default_rng(71)


def _images(n, size=16, seed=0):
    return np.random.default_rng(seed).random((n, 3, size, size))


def test_features_are_8x8_grayscale():
    imgs = _images(3)
    feats = knn_features(imgs)
    assert feats.shape == (3, 64)
    # constant-channel image averages to itself
    flat = np.zeros((1, 3, 8, 8))
    flat[:, :] = np.arange(64).reshape(8, 8) / 64.0
    np.testing.assert_allclose(knn_features(flat)[0], np.arange(64) / 64.0)


def test_exact_match_returns_neighbour_label():
    imgs = _images(5, seed=1)
    targets = np.random.default_rng(2).dirichlet(np.ones(3), size=5)
    pred = aaknn_predict(imgs, targets, imgs[2:3], k=1)
    np.testing.assert_allclose(pred[0], targets[2], atol=1e-12)


def test_k_averages_neighbours():
    # two training points, query midway: k=2 averages both distributions
    imgs = np.zeros((2, 3, 8, 8))
    imgs[1] = 1.0
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    query = np.full((1, 3, 8, 8), 0.4)
    pred = aaknn_predict(imgs, targets, query, k=2)
    np.testing.assert_allclose(pred[0], [0.5, 0.5])


def test_k_clamped_with_warning():
    imgs = _images(3, seed=3)
    targets = np.random.default_rng(4).dirichlet(np.ones(2), size=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pred = aaknn_predict(imgs, targets, imgs[:1], k=10)
    assert any("clamping" in str(w.message) for w in caught)
    np.testing.assert_allclose(pred[0], targets.mean(axis=0))


def test_tie_break_is_stable():
    # identical training images: stable argsort keeps manifest order,
    # so k=1 picks the first
    imgs = np.zeros((3, 3, 8, 8))
    targets = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
    pred = aaknn_predict(imgs, targets, np.zeros((1, 3, 8, 8)), k=1)
    np.testing.assert_allclose(pred[0], targets[0])


def test_validation():
    with pytest.raises(ContractViolation):
        aaknn_predict(_images(2), np.ones((3, 2)) / 2, _images(1), k=1)
    with pytest.raises(ContractViolation):
        aaknn_predict(_images(2), np.ones((2, 2)) / 2, _images(1), k=0)
    with pytest.raises(ContractViolation):
        aaknn_predict(np.zeros((0, 3, 8, 8)), np.zeros((0, 2)), _images(1), k=1)
    with pytest.raises(ContractViolation):
        knn_features(np.zeros((3, 8, 8)))
