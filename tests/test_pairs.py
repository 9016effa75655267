"""The gain rule of tools/pairs.py, checked on synthetic records; no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = {"wall_s": True, "peak_rss_mb": True, "setup_s": True}


def record(parent: list[float], change: list[float]) -> list[dict]:
    """Runs of one workload whose wall_s reads parent[i] and change[i] in
    pair i; the other metrics read 1.0 on both sides."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change, strict=True)):
        for tree, wall in (("parent", p), ("change", c)):
            metrics = {name: {"value": 1.0} for name in METRICS}
            metrics["wall_s"] = {"value": wall}
            result = {"correct": True, "attempted": 20, "failed": 0, "metrics": metrics}
            runs.append({"tree": tree, "workload": "w", "seed": 100 + i, "result": result})
    return runs


# Parent wall times 1.00 .. 1.09: quartiles 1.0225, 1.045, 1.0675, so the IQR
# is 0.045.
PARENT = [1.0 + i / 100 for i in range(10)]


def test_clear_gain():
    table = pairs.summarize(record(PARENT, [p - 0.1 for p in PARENT]), "w", METRICS)
    wall = table["wall_s"]
    assert wall["parent_q25_median_q75"] == [1.0225, 1.045, 1.0675]
    assert wall["change_better_pairs"] == 10
    assert wall["median_gap_over_parent_iqr"] == pytest.approx(0.1 / 0.045, abs=0.01)
    assert wall["gain"]
    assert table["correct"] and table["seeds"] == list(range(100, 110))
    assert table["attempted"] == {"parent": 200, "change": 200}


def test_nine_of_ten_pairs_suffice():
    change = [p - 0.1 for p in PARENT]
    change[3] = PARENT[3] + 0.01
    assert pairs.summarize(record(PARENT, change), "w", METRICS)["wall_s"]["gain"]


def test_eight_of_ten_pairs_do_not():
    change = [p - 0.1 for p in PARENT]
    change[3] = PARENT[3] + 0.01
    change[7] = PARENT[7]  # a tie counts for neither side
    wall = pairs.summarize(record(PARENT, change), "w", METRICS)["wall_s"]
    assert wall["change_better_pairs"] == 8
    assert not wall["gain"]


def test_a_gap_within_the_parent_iqr_is_no_gain():
    # Every pair won, but the medians differ by 0.04 of an IQR of 0.045.
    wall = pairs.summarize(record(PARENT, [p - 0.04 for p in PARENT]), "w", METRICS)["wall_s"]
    assert wall["change_better_pairs"] == 10
    assert wall["median_gap_over_parent_iqr"] == pytest.approx(0.89, abs=0.01)
    assert not wall["gain"]


def test_a_side_against_itself_shows_no_gain():
    table = pairs.summarize(record(PARENT, PARENT), "w", METRICS)
    assert not any(table[name]["gain"] for name in METRICS)
    assert table["wall_s"]["change_better_pairs"] == 0


def test_higher_is_better_reverses_the_rule():
    higher = {"wall_s": False}
    up = [p + 0.1 for p in PARENT]
    assert pairs.summarize(record(PARENT, up), "w", higher)["wall_s"]["gain"]
    assert not pairs.summarize(record(PARENT, [p - 0.1 for p in PARENT]), "w", higher)[
        "wall_s"
    ]["gain"]


def test_sides_on_different_seeds_are_refused():
    runs = record(PARENT, PARENT)
    runs[1]["seed"] = 999
    with pytest.raises(ValueError, match="different seeds"):
        pairs.summarize(runs, "w", METRICS)
