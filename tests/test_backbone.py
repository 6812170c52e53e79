"""Backbone: tap shapes, halving schedule, input checks."""
import numpy as np
import pytest

from styledl.backbone import Backbone, BackboneConfig
from styledl.errors import ContractViolation
from styledl.tensor import Tensor


def test_tap_shapes_halve_per_stage():
    cfg = BackboneConfig(input_size=64)
    bb = Backbone(cfg, np.random.default_rng(0))
    x0, x1, x2 = bb.taps(Tensor(np.random.default_rng(0).random((2, 3, 64, 64))))
    assert x0.shape == (2, 8, 32, 32)
    assert x1.shape == (2, 16, 16, 16)
    assert x2.shape == (2, 32, 8, 8)
    assert bb.stages[3](x2).shape == (2, 64, 4, 4)
    assert bb.stages[4](bb.stages[3](x2)).shape == (2, 128, 2, 2)


def test_tap_spatial_helper():
    bb = Backbone(BackboneConfig(input_size=64), np.random.default_rng(0))
    assert [bb.tap_spatial(k) for k in range(5)] == [32, 16, 8, 4, 2]


def test_custom_width_config():
    cfg = BackboneConfig(stage_channels=(4, 4, 8, 8, 16), input_size=32)
    bb = Backbone(cfg, np.random.default_rng(1))
    _, _, x2 = bb.taps(Tensor(np.zeros((1, 3, 32, 32))))
    assert x2.shape == (1, 8, 4, 4)


def test_rejects_bad_input():
    bb = Backbone(BackboneConfig(input_size=64), np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        bb.taps(Tensor(np.zeros((1, 3, 32, 32))))
    with pytest.raises(ContractViolation):
        bb.taps(Tensor(np.zeros((1, 1, 64, 64))))
    with pytest.raises(ContractViolation):
        bb.taps(Tensor(np.zeros((3, 64, 64))))


def test_same_seed_same_params():
    a = Backbone(BackboneConfig(), np.random.default_rng(5))
    b = Backbone(BackboneConfig(), np.random.default_rng(5))
    for key, t in a.params("backbone").items():
        np.testing.assert_array_equal(t.data, b.params("backbone")[key].data)


def test_gradients_reach_first_conv():
    cfg = BackboneConfig(input_size=32, stage_channels=(2, 2, 4, 4, 8))
    bb = Backbone(cfg, np.random.default_rng(3))
    _, _, x2 = bb.taps(Tensor(np.random.default_rng(2).random((1, 3, 32, 32))))
    bb.stages[4](bb.stages[3](x2)).sum().backward()
    first = bb.params("backbone")["backbone/stage0/down/w"]
    assert first.grad is not None and np.abs(first.grad).max() > 0
