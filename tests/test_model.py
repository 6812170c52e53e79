"""Full network wiring: output simplexes, ablation presets, seeding."""
import numpy as np
import pytest

import styledl
from styledl.errors import ConfigurationError, ContractViolation
from styledl.model import ABLATION_PRESETS, AblationFlags, EmotionDistributionNet
from styledl.tensor import Tensor
from styledl.training import TrainConfig

rng = np.random.default_rng(61)


def _net(preset="full", n_labels=6, **cfg):
    return EmotionDistributionNet(TrainConfig(ablation=preset, **cfg), n_labels)


def _assert_simplex(arr, atol=1e-6):
    assert (arr >= -atol).all()
    np.testing.assert_allclose(arr.sum(axis=1), 1.0, atol=atol)


@pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
def test_outputs_are_simplexes_for_every_preset(preset):
    net = _net(preset)
    out = net.forward(Tensor(rng.random((2, 3, 64, 64))))
    _assert_simplex(out.y.data)
    _assert_simplex(out.y_style.data)
    _assert_simplex(out.y_e.data)
    assert out.y_e.shape == (2 * net.effective_orders, 6)
    if out.y_emotion is not None:
        _assert_simplex(out.y_emotion.data)


def test_mu_endpoints_select_branch():
    x = Tensor(rng.random((1, 3, 64, 64)))
    style_only = _net("full", mu=0.0)
    emo_only = _net("full", mu=1.0)
    out_s = style_only.forward(x)
    out_e = emo_only.forward(x)
    np.testing.assert_allclose(out_s.y.data, out_s.y_style.data, atol=1e-12)
    np.testing.assert_allclose(out_e.y.data, out_e.y_emotion.data, atol=1e-12)


def test_backbone_only_preset_has_single_order_and_no_extras():
    net = _net("B")
    out = net.forward(Tensor(rng.random((1, 3, 64, 64))))
    assert out.y_e.shape == (1, 6)
    assert out.y_emotion is None
    assert net.adv_head3 is None
    keys = net.parameters()
    assert not any(k.startswith("style") or k.startswith("gcn") or
                   k.startswith("hoa") for k in keys)


def test_attention_off_means_one_effective_order():
    net = _net("B+E")
    assert net.effective_orders == 1
    out = net.forward(Tensor(rng.random((1, 3, 64, 64))))
    assert out.y_e.shape == (1, 6)
    assert out.y_emotion is not None


def test_adversary_needs_attention_and_flag():
    assert _net("full").adv_head3 is not None
    assert _net("noAN").adv_head3 is None
    assert _net("B+E").adv_head3 is None  # no attention, single order
    assert _net("full", R=1).adv_head3 is None


def test_static_gcn_only_has_no_dynamic_params():
    net = _net("static_gcn_only")
    keys = net.parameters()
    assert any(k == "gcn/w_s" for k in keys)
    assert not any(k in ("gcn/w_d", "gcn/w_a") for k in keys)


def test_inter_only_drops_gram_params_but_keeps_style():
    net = _net("inter_only")
    out = net.forward(Tensor(rng.random((1, 3, 64, 64))))
    _assert_simplex(out.y.data)
    assert any(k.startswith("style") for k in net.parameters())


def test_same_seed_same_forward():
    x = rng.random((1, 3, 64, 64))
    a = _net("full", seed=9).forward(Tensor(x.copy()))
    b = _net("full", seed=9).forward(Tensor(x.copy()))
    np.testing.assert_array_equal(a.y.data, b.y.data)


def test_different_seed_different_params():
    a = _net("full", seed=1).parameters()
    b = _net("full", seed=2).parameters()
    diffs = [np.abs(a[k].data - b[k].data).max() for k in a
             if a[k].data.size and a[k].data.std() > 0]
    assert max(diffs) > 0


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        _net("no_such_preset")
    with pytest.raises(ConfigurationError):
        _net("full", n_labels=1)
    with pytest.raises(ConfigurationError):
        _net("full", mu=2.0)
    with pytest.raises(ConfigurationError):
        _net("full", lam=-1.0)
    with pytest.raises(ConfigurationError):
        _net("full", R=0)


def test_set_static_adjacency_validates():
    net = _net("full")
    with pytest.raises(ContractViolation):
        net.set_static_adjacency(np.eye(5))
    adj = np.full((6, 6), 1.0 / 6)
    net.set_static_adjacency(adj)
    np.testing.assert_array_equal(net.static_adjacency, adj)


def test_ablation_flags_are_dataclass_presets():
    flags = ABLATION_PRESETS["full"]
    assert isinstance(flags, AblationFlags)
    assert flags.style and flags.attention and flags.gcn_dynamic
    b = ABLATION_PRESETS["B"]
    assert not b.style and not b.attention and not b.gcn


def test_public_names_resolve():
    for name in styledl.__all__:
        assert getattr(styledl, name, None) is not None, name


# Outputs of the seeded model below, recorded before the attention orders
# were kept stacked after stage 4. They pin the GCN's feature column order
# (order 1's fused features, then order 2's), the style map shared by
# both order blocks and the order mean, so old checkpoints keep their meaning.
GOLDEN_R2 = {
    "y": [[0.4963263364901333, 0.2771138323050148, 0.07680413247960069, 0.14975569872525113],
          [0.08196247117552062, 0.22576025985548465, 0.43303994669095336, 0.2592373222780414]],
    "y_style": [[0.00924851632508116, 0.542860979307065, 0.1608247321786352, 0.28706577218921864],
                [0.028975085710673733, 0.4274765057233657, 0.04912934678722654,
                 0.49441906177873396]],
    "y_emotion": [[0.8210448832668348, 0.09994906763698132, 0.020790399346911036,
                   0.05821564974927277],
                  [0.11728739481875189, 0.09128276261023058, 0.6889803466267712,
                   0.10244949594424635]],
}


def test_full_model_golden_outputs_at_two_orders():
    net = EmotionDistributionNet(TrainConfig(R=2, input_size=32, ablation="full", seed=7), 4)
    out = net.forward(np.random.default_rng(0).random((2, 3, 32, 32)))
    for name, expect in GOLDEN_R2.items():
        np.testing.assert_allclose(getattr(out, name).data, expect, rtol=1e-10, err_msg=name)
