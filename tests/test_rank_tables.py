"""Reproduce the published ranking tables from their printed scores."""
import pytest

from styledl.metrics import average_rank, competition_rank, rank_table
from tables_fixture import LOWER, METHODS, METRICS, REQUIRED_AVERAGES, TABLES


@pytest.mark.parametrize("name", sorted(TABLES))
def test_per_metric_ranks_match_printed(name):
    scores, printed_ranks, _, _, bad_cells, _, _ = TABLES[name]
    ranks, _ = average_rank(scores, list(LOWER))
    for i, method in enumerate(METHODS):
        for j, metric in enumerate(METRICS):
            if (method, metric) in bad_cells:
                assert ranks[i, j] != printed_ranks[i, j], (
                    f"{name}: cell ({method}, {metric}) is listed as "
                    "inconsistent but now agrees; drop it from the fixture")
                continue
            assert ranks[i, j] == printed_ranks[i, j], (
                f"{name}: {method}/{metric} computed {ranks[i, j]}, "
                f"printed {printed_ranks[i, j]}")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_average_rank_values_match_printed(name):
    scores, _, printed_avg, _, _, bad_avgs, _ = TABLES[name]
    _, averages = average_rank(scores, list(LOWER))
    for i, method in enumerate(METHODS):
        if method in bad_avgs:
            assert abs(averages[i] - printed_avg[i]) > 0.005
            continue
        assert abs(averages[i] - printed_avg[i]) <= 0.005, (
            f"{name}: {method} average {averages[i]:.4f} vs printed {printed_avg[i]}")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_average_rank_positions_match_printed(name):
    scores, _, _, printed_pos, _, _, bad_pos = TABLES[name]
    _, averages = average_rank(scores, list(LOWER))
    positions = competition_rank(averages, lower_is_better=True)
    for i, method in enumerate(METHODS):
        if method in bad_pos:
            continue
        assert positions[i] == printed_pos[i], (
            f"{name}: {method} position {positions[i]} vs printed {printed_pos[i]}")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_required_named_averages(name):
    scores = TABLES[name][0]
    _, averages = average_rank(scores, list(LOWER))
    for method, value in REQUIRED_AVERAGES[name].items():
        got = averages[METHODS.index(method)]
        assert abs(got - value) <= 0.005, f"{name}: {method} {got:.4f} != {value}"


def test_rank_table_renders_fixture():
    scores = TABLES["twitter"][0]
    entries = [(m, dict(zip(METRICS, row))) for m, row in zip(METHODS, scores)]
    table = rank_table(entries)
    ours = [line for line in table.splitlines() if line.startswith("Ours")][0]
    assert "0.42(1)" in ours and "1.50(1)" in ours
