"""Shipping acceptance gate.

One test per release criterion, each enforcing its stated numeric
tolerance and runtime budget. Run `pytest tests/test_acceptance.py -v`
to get one pass/fail line per criterion.

Criteria covered, in order:
 1. comparison-table reproduction from the published per-method scores
 2. autograd versus central finite differences on every op and three
    composite paths
 3. simplex validity of every predicted distribution head
 4. gram matrix symmetry and positive semidefiniteness
 5. order-separation loss contract and gradient reversal
 6. six evaluation metrics against a straight-from-formula oracle
 7. memorization of a 16-sample corpus under the overfit preset
 8. full preset beats the backbone-only preset on style-correlated data
 9. adaptive balance between prediction and separation losses
10. bitwise training determinism
"""
import time

import numpy as np
import pytest

from conftest import away_from_kinks, gradcheck
from tables_fixture import LOWER, METHODS, METRICS, REQUIRED_AVERAGES, TABLES
from test_metrics import oracle_one

import styledl.tensor as T
from styledl.dataio import load_images, split_dataset, synth_generate
from styledl.gcn import StylisticGcn
from styledl.hoa import AdversaryHead, adversary_loss, encode_orders, fpn_fuse
from styledl.layers import Conv1x1, ConvBlock
from styledl.losses import total_loss
from styledl.metrics import average_rank, competition_rank, evaluate_metrics
from styledl.model import EmotionDistributionNet
from styledl.style import InterLayerCorrelation, gram, stack_grams
from styledl.tensor import Tensor
from styledl.training import TrainConfig, predict_batch, train

rng = np.random.default_rng(7)


# ----------------------------------------------------------- criterion 1
def test_c01_rank_table_reproduction():
    start = time.perf_counter()
    for name, (scores, printed_ranks, printed_avg, printed_avg_rank,
               bad_cells, bad_avgs, bad_avg_ranks) in TABLES.items():
        ranks, averages = average_rank(scores, LOWER)
        for i, method in enumerate(METHODS):
            for j, metric in enumerate(METRICS):
                if (method, metric) in bad_cells:
                    continue
                assert ranks[i, j] == printed_ranks[i, j], (name, method, metric)
            if method not in bad_avgs:
                assert round(averages[i], 2) == pytest.approx(printed_avg[i]), (name, method)
        avg_row_ranks = competition_rank(averages, lower_is_better=True)
        for i, method in enumerate(METHODS):
            if method not in bad_avg_ranks:
                assert avg_row_ranks[i] == printed_avg_rank[i], (name, method)
        for method, want in REQUIRED_AVERAGES[name].items():
            got = averages[METHODS.index(method)]
            assert round(got, 2) == pytest.approx(want), (name, method, got)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"rank reproduction took {elapsed:.2f}s"


# ----------------------------------------------------------- criterion 2
def test_c02_gradient_integrity():
    start = time.perf_counter()
    r = np.random.default_rng(11)

    # every differentiable op, inputs capped at 64 elements
    gradcheck(lambda a, b: a + b, r.standard_normal((3, 4)), r.standard_normal((3, 4)))
    gradcheck(lambda a: a + 2.5, r.standard_normal((2, 3)))
    gradcheck(lambda a, b: a * b, r.standard_normal((3, 4)), r.standard_normal((3, 4)))
    gradcheck(lambda a: a * -1.7, r.standard_normal((4,)))
    gradcheck(lambda a, b: -a - b, r.standard_normal((2, 2)), r.standard_normal((2, 2)))
    gradcheck(lambda a: (1.0 - a) / 3.0, r.standard_normal((3, 3)))
    gradcheck(lambda a, b: a @ b, r.standard_normal((3, 4)), r.standard_normal((4, 2)))
    gradcheck(lambda a, b: a @ b, r.standard_normal((2, 3, 4)), r.standard_normal((2, 4, 2)))
    gradcheck(lambda a, b: a @ b, r.standard_normal((2, 3, 4)), r.standard_normal((4, 2)))
    gradcheck(lambda x, w, b: T.linear(x, w, b),
              r.standard_normal((3, 4)), r.standard_normal((4, 2)), r.standard_normal((2,)))
    gradcheck(lambda a: a.reshape(2, 6), r.standard_normal((3, 4)))
    gradcheck(lambda a: a.flatten(), r.standard_normal((2, 3)))
    gradcheck(lambda a: a.transpose(0, 2, 1), r.standard_normal((2, 3, 4)))
    gradcheck(lambda a: a.sum(), r.standard_normal((3, 4)))
    gradcheck(lambda a: a.sum(axis=1), r.standard_normal((3, 4)))
    gradcheck(lambda a: a.mean(axis=0), r.standard_normal((3, 4)))
    gradcheck(lambda a: a.max(axis=1), away_from_kinks(r.standard_normal((3, 5))))
    gradcheck(lambda a: a.relu(), away_from_kinks(r.standard_normal((4, 4))))
    gradcheck(lambda a: a.leaky_relu(0.2), away_from_kinks(r.standard_normal((4, 4))))
    gradcheck(lambda a: a.sigmoid(), r.standard_normal((3, 4)))
    gradcheck(lambda a: a.log(), r.random((3, 4)) + 0.5)
    gradcheck(lambda a: a.softmax(axis=1), r.standard_normal((3, 5)))
    gradcheck(lambda a: a.clamp_min(0.0), away_from_kinks(r.standard_normal((4, 4))))
    gradcheck(lambda x, w, b: T.conv2d(x, w, b),
              r.standard_normal((1, 3, 4, 4)), r.standard_normal((2, 3, 3, 3)),
              r.standard_normal(2))
    gradcheck(lambda x, w, b: T.conv2d(x, w, b, stride=2),
              r.standard_normal((1, 2, 5, 5)), r.standard_normal((3, 2, 3, 3)),
              r.standard_normal(3))
    gradcheck(lambda x, w, b: T.conv2d(x, w, b),
              r.standard_normal((1, 2, 4, 4)), r.standard_normal((2, 2, 1, 1)),
              r.standard_normal(2))
    gradcheck(lambda x, w, b: T.conv2d(x, w, b, stride=2),
              r.standard_normal((1, 2, 5, 5)), r.standard_normal((2, 2, 1, 1)),
              r.standard_normal(2))
    gradcheck(lambda x, g, b: T.layer_norm(x, g, b),
              r.standard_normal((2, 3, 2, 2)), r.random(3) + 0.5, r.standard_normal(3))
    gradcheck(lambda a: T.resample_nearest(a, 4, 4), r.standard_normal((1, 2, 2, 2)))
    gradcheck(lambda a: T.resample_nearest(a, 2, 2), r.standard_normal((1, 2, 4, 4)))
    gradcheck(lambda a, b: T.concat([a, b], axis=1),
              r.standard_normal((2, 3)), r.standard_normal((2, 2)))
    gradcheck(lambda a: T.repeat_axis(a, 1, 4), r.standard_normal((2, 1, 3)))
    gradcheck(lambda a: T.grad_reverse(a), r.standard_normal((3, 3)), sign=-1.0)
    gradcheck(lambda a: gram(a), r.standard_normal((1, 3, 2, 2)))

    # composite 1: intra-layer gram -> stacked -> inter-layer correlation
    corr = InterLayerCorrelation(np.random.default_rng(3), widths=(2, 3))
    gradcheck(lambda t0, t1, t2: corr(stack_grams(gram(t0), gram(t1), gram(t2))),
              r.standard_normal((1, 2, 2, 2)), r.standard_normal((1, 3, 2, 2)),
              r.standard_normal((1, 4, 2, 2)))

    # composite 2: high-order attention -> per-order encoding -> pyramid fuse
    from test_hoa import _seeded_attention
    att = _seeded_attention(channels=2, orders=2, seed=7)
    f3 = ConvBlock(np.random.default_rng(8), 2, 2, stride=2)
    f4 = ConvBlock(np.random.default_rng(9), 2, 2, stride=2)
    lateral = Conv1x1(np.random.default_rng(10), 2, 2)

    def hoa_path(x):
        x3, x4 = encode_orders(att(x), f3, f4)
        return fpn_fuse(x3, x4, lateral)

    gradcheck(hoa_path, r.standard_normal((1, 2, 4, 4)))

    # composite 3: static graph stage feeding the dynamic graph stage
    module = StylisticGcn(np.random.default_rng(1), n_labels=3, in_width=4,
                          hidden=4, dynamic=True)
    adj = np.random.default_rng(2).random((3, 3))
    adj = adj / adj.sum(axis=1, keepdims=True)
    gradcheck(lambda f: module(adj, f), r.standard_normal((1, 3, 4)))

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient integrity took {elapsed:.1f}s"


# ----------------------------------------------------------- criterion 3
def test_c03_simplex_invariants():
    forwards = 0
    for mu in (0.0, 0.3, 0.6, 1.0):
        model = EmotionDistributionNet(TrainConfig(mu=mu, input_size=32, ablation="full",
                                                   seed=3), 5)
        r = np.random.default_rng(int(mu * 10))
        for _ in range(50):
            out = model.forward(r.random((1, 3, 32, 32)))
            forwards += 1
            heads = [out.y_e, out.y_style, out.y]
            if out.y_emotion is not None:
                heads.append(out.y_emotion)
            for head in heads:
                data = head.data
                assert (data >= 0).all()
                np.testing.assert_allclose(data.sum(axis=-1), 1.0, atol=1e-6)
    assert forwards == 200


# ----------------------------------------------------------- criterion 4
def test_c04_gram_properties():
    r = np.random.default_rng(12)
    for _ in range(50):
        c = int(r.integers(1, 17))
        h, w = (int(v) for v in r.integers(1, 7, 2))
        g = gram(Tensor(r.standard_normal((2, c, h, w)))).data
        sym_gap = np.abs(g - g.transpose(0, 2, 1)).max()
        assert sym_gap <= 1e-9
        for b in range(g.shape[0]):
            assert np.linalg.eigvalsh(g[b]).min() >= -1e-8


# ----------------------------------------------------------- criterion 5
class _ScriptedHead:
    """Emits fixed projections, one per order row block of the stacked
    input, ignoring the input values."""

    def __init__(self, outputs):
        self.outputs = np.asarray(outputs, dtype=np.float64)

    def __call__(self, x):
        return Tensor(np.repeat(self.outputs, x.shape[0] // len(self.outputs), axis=0))


def test_c05_adversary_contract():
    # single order: zero exactly
    head = AdversaryHead(np.random.default_rng(5), in_dim=8)
    single = Tensor(rng.random((2, 2, 2, 1)))
    assert adversary_loss(single, single, head, head, 1).item() == 0.0

    # two orders with projections [0,0] and [3,4] per stage: 100 exactly
    stub = _ScriptedHead([[0.0, 0.0], [3.0, 4.0]])
    stacked = Tensor(np.concatenate([np.zeros((1, 2, 1, 1)), np.ones((1, 2, 1, 1))]))
    assert adversary_loss(stacked, stacked, stub, stub, 2).item() == 100.0

    # gradient arrives sign-flipped relative to the unreversed loss
    real = AdversaryHead(np.random.default_rng(6), in_dim=4, hidden=8, out_dim=3)
    base = rng.standard_normal((2, 1, 2, 2))
    other = rng.standard_normal((2, 1, 2, 2))

    def grads(reverse):
        a = Tensor(base.copy(), requires_grad=True)
        b = Tensor(other.copy(), requires_grad=True)
        if reverse:
            stacked = T.concat([a, b], axis=0)
            # stage 4 gets a constant copy, so a and b see stage 3's gradient only
            loss = adversary_loss(stacked, Tensor(stacked.data), real, real, 2)
        else:
            proj = [real(t.reshape(2, -1)) for t in (a, b)]
            d01 = proj[0] - proj[1]
            d10 = proj[1] - proj[0]
            loss = ((d01 * d01).sum() + (d10 * d10).sum()) / 2
        loss.backward()
        return a.grad, b.grad

    ga_rev, gb_rev = grads(True)
    ga_fwd, gb_fwd = grads(False)
    np.testing.assert_allclose(ga_rev, -ga_fwd, rtol=1e-12)
    np.testing.assert_allclose(gb_rev, -gb_fwd, rtol=1e-12)


# ----------------------------------------------------------- criterion 6
def test_c06_metric_oracle():
    r = np.random.default_rng(99)
    for trial in range(20):
        c = int(r.integers(2, 12))
        t = r.dirichlet(np.ones(c))
        p = r.dirichlet(np.ones(c))
        report = evaluate_metrics(t[None], p[None])
        want = oracle_one(t, p)
        for metric, value in want.items():
            assert abs(report.mean[metric] - value) < 1e-9, (trial, metric)

    # identical point masses: all six perfect, IEEE-exact
    p = np.array([[1.0, 0.0, 0.0]])
    perfect = evaluate_metrics(p, p.copy()).mean
    assert perfect["kl"] == 0.0 and perfect["chebyshev"] == 0.0
    assert perfect["clark"] == 0.0 and perfect["canberra"] == 0.0
    assert perfect["cosine"] == 1.0 and perfect["intersection"] == 1.0

    # disjoint point masses
    far = evaluate_metrics(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])).mean
    assert far["chebyshev"] == 1.0 and far["intersection"] == 0.0


# ----------------------------------------------------------- criterion 7
def test_c07_overfit_convergence(tmp_path):
    start = time.perf_counter()
    manifest = synth_generate(seed=0, n_samples=16, n_labels=8, input_size=64,
                              out_dir=tmp_path)
    cfg = TrainConfig.overfit(seed=0)
    checkpoint, logs = train(cfg, manifest, tmp_path)
    images = load_images(manifest, tmp_path, cfg.input_size)
    preds = predict_batch(checkpoint.build_model(), images)
    kl = evaluate_metrics(manifest.distributions(), preds).mean["kl"]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s"
    assert kl < 0.05, f"mean training KL {kl:.4f} after {cfg.epochs} epochs"


# ----------------------------------------------------------- criterion 8
def test_c08_ablation_direction(tmp_path):
    # low-shot protocol: 40 train / 160 test makes generalization, not
    # memorization, the deciding factor between the presets
    manifest = synth_generate(seed=100, n_samples=200, n_labels=8,
                              input_size=32, out_dir=tmp_path)
    train_m, test_m = split_dataset(manifest, 0.2, seed=100)
    test_images = load_images(test_m, tmp_path, 32)
    test_targets = test_m.distributions()

    def median_kl(preset):
        kls = []
        for seed in (0, 1, 2):
            cfg = TrainConfig.overfit(seed=seed, ablation=preset, epochs=100,
                                      input_size=32)
            checkpoint, _ = train(cfg, train_m, tmp_path)
            preds = predict_batch(checkpoint.build_model(), test_images)
            kls.append(evaluate_metrics(test_targets, preds).mean["kl"])
        return float(np.median(kls)), kls

    full_med, full_kls = median_kl("full")
    base_med, base_kls = median_kl("B")
    assert full_med <= base_med, (
        f"full median {full_med:.4f} (runs {full_kls}) vs "
        f"B median {base_med:.4f} (runs {base_kls})")


# ----------------------------------------------------------- criterion 9
def test_c09_loss_balance():
    pred = Tensor(2.0, requires_grad=True)
    adv = Tensor(4.0, requires_grad=True)
    total = total_loss(pred, adv)
    assert abs(total.item() - 4.0) <= 1e-12
    total.backward()
    assert abs(float(adv.grad) - 0.5) <= 1e-9

    scaled = total_loss(Tensor(2.0, requires_grad=True),
                        Tensor(40.0, requires_grad=True))
    assert abs(scaled.item() - total.item()) <= 1e-12


# ---------------------------------------------------------- criterion 10
def test_c10_determinism(tmp_path):
    manifest = synth_generate(seed=4, n_samples=8, n_labels=4, input_size=32,
                              out_dir=tmp_path)
    cfg = TrainConfig(seed=9, epochs=2, input_size=32, ablation="full",
                      lr=0.001, flip=True)
    first, second = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    _, logs1 = train(cfg, manifest, tmp_path, out_path=first)
    _, logs2 = train(cfg, manifest, tmp_path, out_path=second)
    assert [log.line() for log in logs1] == [log.line() for log in logs2]
    assert first.read_bytes() == second.read_bytes()
