"""Metrics against an independent straight-from-formula oracle, plus
competition ranking and table rendering."""
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styledl.errors import ContractViolation, ValidationError
from styledl.metrics import (METRIC_NAMES, average_rank, competition_rank,
                             evaluate_metrics, rank_table)


def oracle_one(t, p, normalize=True):
    """Loop-based reimplementation, kept deliberately naive."""
    c = len(t)
    kl = 0.0
    for ti, pi in zip(t, p):
        if ti > 0:
            kl += ti * math.log(ti / max(pi, 1e-12))
    cheb = max(abs(ti - pi) for ti, pi in zip(t, p))
    clark_sq = 0.0
    canberra = 0.0
    for ti, pi in zip(t, p):
        if ti + pi > 0:
            clark_sq += ((pi - ti) / (pi + ti)) ** 2
            canberra += abs(pi - ti) / (pi + ti)
    clark = math.sqrt(clark_sq)
    if normalize:
        clark /= math.sqrt(c)
        canberra /= c
    dot = sum(ti * pi for ti, pi in zip(t, p))
    nt = math.sqrt(sum(ti * ti for ti in t))
    npp = math.sqrt(sum(pi * pi for pi in p))
    cosine = dot / (nt * npp) if nt * npp > 0 else 0.0
    inter = sum(min(ti, pi) for ti, pi in zip(t, p))
    return {"kl": kl, "chebyshev": cheb, "clark": clark,
            "canberra": canberra, "cosine": cosine, "intersection": inter}


def test_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(99)
    for trial in range(20):
        c = int(rng.integers(2, 12))
        t = rng.dirichlet(np.ones(c))
        p = rng.dirichlet(np.ones(c))
        report = evaluate_metrics(t[None], p[None])
        want = oracle_one(t, p)
        for m in METRIC_NAMES:
            assert abs(report.mean[m] - want[m]) < 1e-9, (trial, m)


def test_perfect_prediction():
    p = np.array([[0.1, 0.2, 0.3, 0.4]])
    r = evaluate_metrics(p, p.copy())
    assert abs(r.mean["kl"]) < 1e-12
    assert abs(r.mean["chebyshev"]) < 1e-12
    assert abs(r.mean["clark"]) < 1e-12
    assert abs(r.mean["canberra"]) < 1e-12
    assert abs(r.mean["cosine"] - 1.0) < 1e-12
    assert abs(r.mean["intersection"] - 1.0) < 1e-12


def test_disjoint_point_masses():
    t = np.array([[1.0, 0.0]])
    p = np.array([[0.0, 1.0]])
    r = evaluate_metrics(t, p)
    assert r.mean["chebyshev"] == 1.0
    assert r.mean["intersection"] == 0.0
    assert abs(r.mean["cosine"]) < 1e-12


def test_zero_denominator_terms_are_zero():
    t = np.array([[0.0, 0.6, 0.4]])
    p = np.array([[0.0, 0.5, 0.5]])
    r = evaluate_metrics(t, p, normalize=False)
    want = oracle_one(t[0], p[0], normalize=False)
    assert abs(r.mean["clark"] - want["clark"]) < 1e-12
    assert abs(r.mean["canberra"] - want["canberra"]) < 1e-12


def test_unnormalized_scales():
    rng = np.random.default_rng(3)
    t = rng.dirichlet(np.ones(9), size=4)
    p = rng.dirichlet(np.ones(9), size=4)
    raw = evaluate_metrics(t, p, normalize=False)
    norm = evaluate_metrics(t, p, normalize=True)
    assert abs(raw.mean["clark"] / math.sqrt(9) - norm.mean["clark"]) < 1e-12
    assert abs(raw.mean["canberra"] / 9 - norm.mean["canberra"]) < 1e-12


def test_shape_mismatch_rejected():
    with pytest.raises(ContractViolation):
        evaluate_metrics(np.ones((2, 3)) / 3, np.ones((2, 4)) / 4)


def test_zero_rows_rejected():
    with pytest.raises(ValidationError, match="no samples"):
        evaluate_metrics(np.zeros((0, 4)), np.zeros((0, 4)))


def test_report_serialization_round_trip():
    rng = np.random.default_rng(5)
    t = rng.dirichlet(np.ones(4), size=3)
    p = rng.dirichlet(np.ones(4), size=3)
    r = evaluate_metrics(t, p)
    doc = json.loads(r.to_json(name="Ours"))
    assert doc["name"] == "Ours" and doc["n"] == 3
    assert set(doc["metrics"]) == set(METRIC_NAMES)
    assert len(doc["metrics"]["kl"]["per_sample"]) == 3
    text = r.to_text()
    assert "samples: 3" in text and "chebyshev" in text


@given(st.lists(st.floats(0.1, 9.9), min_size=1, max_size=8), st.booleans())
@settings(max_examples=40, deadline=None)
def test_rank_properties(values, lower):
    ranks = competition_rank(np.array(values), lower_is_better=lower)
    assert ranks.min() == 1.0
    assert ranks.max() <= len(values)
    # equal scores share a rank
    v = np.asarray(values)
    for i in range(len(values)):
        for j in range(len(values)):
            if v[i] == v[j]:
                assert ranks[i] == ranks[j]


def test_rank_tie_convention():
    # 1, 2, 2, 4: position after a tie is skipped
    ranks = competition_rank(np.array([0.1, 0.5, 0.5, 0.9]), lower_is_better=True)
    np.testing.assert_array_equal(ranks, [1, 2, 2, 4])
    higher = competition_rank(np.array([0.9, 0.5, 0.5, 0.1]), lower_is_better=False)
    np.testing.assert_array_equal(higher, [1, 2, 2, 4])


def test_rank_nan_warns_and_excludes():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ranks = competition_rank(np.array([0.2, np.nan, 0.1]), lower_is_better=True)
    assert any("NaN" in str(w.message) for w in caught)
    assert np.isnan(ranks[1])
    np.testing.assert_array_equal(ranks[[0, 2]], [2, 1])


def test_average_rank_hand_case():
    scores = np.array([
        [1.0, 0.9],   # ranks 1 (lower better), 1 (higher better)
        [2.0, 0.5],   # ranks 2, 2
    ])
    ranks, avg = average_rank(scores, [True, False])
    np.testing.assert_array_equal(ranks, [[1, 1], [2, 2]])
    np.testing.assert_allclose(avg, [1.0, 2.0])


def test_rank_table_single_method():
    means = {m: 0.5 for m in METRIC_NAMES}
    table = rank_table([("Only", means)])
    assert table.count("(1)") == len(METRIC_NAMES) + 1  # every metric plus avg


def test_rank_table_missing_metric_rejected():
    incomplete = {m: 0.5 for m in METRIC_NAMES[:-1]}
    with pytest.raises(ValidationError):
        rank_table([("Bad", incomplete)])


def test_rank_table_layout():
    a = {m: 0.4 for m in METRIC_NAMES}
    b = {m: 0.6 for m in METRIC_NAMES}
    table = rank_table([("A", a), ("B", b)])
    lines = table.splitlines()
    assert lines[0].startswith("method")
    assert "0.40(1)" in lines[1]
    # B wins the higher-is-better columns
    assert "0.60(1)" in lines[2] and "0.60(2)" in lines[2]
