"""Nearest-neighbour label-distribution baseline.

Each image becomes a 64-value feature: channel-mean grayscale, nearest
resampled to 8x8, flattened. A query's distribution is the plain average
of its k nearest training distributions under euclidean distance.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractViolation
from .tensor import resize_nearest

FEATURE_SIDE = 8


def knn_features(images: np.ndarray) -> np.ndarray:
    """[N,3,H,W] float images -> [N, 64] grayscale thumbnails."""
    if images.ndim != 4:
        raise ContractViolation(f"expected [N,C,H,W] images, got {images.shape}")
    thumbs = resize_nearest(images.mean(axis=1), FEATURE_SIDE, FEATURE_SIDE)
    return thumbs.reshape(len(images), FEATURE_SIDE * FEATURE_SIDE)


def aaknn_predict(train_images: np.ndarray, train_targets: np.ndarray,
                  query_images: np.ndarray, k: int) -> np.ndarray:
    """Predicted distributions [Q, C] as neighbour averages."""
    if k < 1:
        raise ContractViolation(f"k must be positive, got {k}")
    if len(train_images) != len(train_targets):
        raise ContractViolation("train images and targets disagree in length")
    if len(train_images) == 0:
        raise ContractViolation("empty training set")
    if k > len(train_images):
        warnings.warn(f"k={k} exceeds training size {len(train_images)}, clamping")
        k = len(train_images)
    feats_train = knn_features(train_images)
    feats_query = knn_features(query_images)
    preds = np.zeros((len(query_images), train_targets.shape[1]))
    for i, q in enumerate(feats_query):
        dist = np.sqrt(((feats_train - q) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:k]
        preds[i] = train_targets[nearest].mean(axis=0)
    return preds
