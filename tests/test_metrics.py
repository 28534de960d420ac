from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bugaug.metrics import (
    average_precision,
    compute_metrics,
    mean_average_precision,
    mean_reciprocal_rank,
    parse_metric_names,
    per_bug_scores,
    precision_at_k,
    read_qrels,
    read_run,
    sort_ranking,
    write_qrels,
    write_run,
)


# --- independent oracles (exact rational arithmetic) -------------------------


def oracle_rr(ranking: list[str], relevant: set) -> Fraction:
    for pos, doc in enumerate(ranking, start=1):
        if doc in relevant:
            return Fraction(1, pos)
    return Fraction(0)


def oracle_ap(ranking: list[str], relevant: set) -> Fraction:
    total = Fraction(0)
    for pos in range(1, len(ranking) + 1):
        if ranking[pos - 1] in relevant:
            hits_at_pos = sum(1 for d in ranking[:pos] if d in relevant)
            total += Fraction(hits_at_pos, pos)
    return total / len(relevant)


def oracle_p_at_k(ranking: list[str], relevant: set, k: int) -> Fraction:
    return Fraction(sum(1 for d in ranking[:k] if d in relevant), k)


def _run_of(ranking: list[str]) -> list[tuple[str, float]]:
    return [(doc, float(len(ranking) - i)) for i, doc in enumerate(ranking)]


# --- direct examples -----------------------------------------------------------


def test_mrr_all_first():
    run = {"b1": _run_of(["h1", "h2"]), "b2": _run_of(["h9", "h3"])}
    qrels = {"b1": {"h1"}, "b2": {"h9"}}
    assert mean_reciprocal_rank(run, qrels) == 1.0


def test_mrr_ranks_two_and_four():
    run = {
        "b1": _run_of(["x", "rel1", "y", "z"]),
        "b2": _run_of(["a", "b", "c", "rel2"]),
    }
    qrels = {"b1": {"rel1"}, "b2": {"rel2"}}
    assert mean_reciprocal_rank(run, qrels) == pytest.approx(0.375)


def test_mrr_missing_relevant_contributes_zero():
    run = {"b1": _run_of(["h1"]), "b2": _run_of(["h2"])}
    qrels = {"b1": {"h1"}, "b2": {"absent"}}
    assert mean_reciprocal_rank(run, qrels) == pytest.approx(0.5)


def test_mrr_empty_qrels_is_an_error():
    with pytest.raises(ValueError):
        mean_reciprocal_rank({"b": []}, {})


def test_mrr_bug_missing_from_run_is_an_error():
    with pytest.raises(ValueError):
        mean_reciprocal_rank({"b1": []}, {"b1": {"h"}, "b2": {"h"}})


def test_ap_single_relevant_at_rank_one():
    assert average_precision(_run_of(["h1", "h2"]), {"h1"}) == 1.0


def test_ap_relevants_at_ranks_one_and_three():
    value = average_precision(_run_of(["r1", "x", "r2"]), {"r1", "r2"})
    assert value == pytest.approx(5 / 6)


def test_ap_nothing_retrieved():
    assert average_precision(_run_of(["x", "y"]), {"gone"}) == 0.0


def test_ap_empty_relevant_set_is_an_error():
    with pytest.raises(ValueError):
        average_precision(_run_of(["x"]), set())


def test_map_is_mean_of_aps():
    run = {"b1": _run_of(["r"]), "b2": _run_of(["x", "r2"])}
    qrels = {"b1": {"r"}, "b2": {"r2"}}
    assert mean_average_precision(run, qrels) == pytest.approx((1.0 + 0.5) / 2)


def test_precision_at_k_examples():
    run = {"b1": _run_of(["r", "x", "y"])}
    qrels = {"b1": {"r"}}
    assert precision_at_k(run, qrels, 1) == 1.0
    assert precision_at_k(run, qrels, 3) == pytest.approx(1 / 3)


def test_precision_at_k_empty_ranking_is_zero():
    assert precision_at_k({"b1": []}, {"b1": {"r"}}, 5) == 0.0


def test_precision_at_k_rejects_zero():
    with pytest.raises(ValueError):
        precision_at_k({"b1": []}, {"b1": {"r"}}, 0)


def test_mrr_equals_map_with_single_relevant_items():
    rng = random.Random(77)
    for _ in range(200):
        docs = [f"d{i}" for i in range(rng.randint(1, 30))]
        rng.shuffle(docs)
        run = {"b": _run_of(docs)}
        qrels = {"b": {rng.choice(docs)}}
        assert mean_reciprocal_rank(run, qrels) == pytest.approx(mean_average_precision(run, qrels))


def test_metrics_invariant_under_monotone_score_transform():
    docs = ["a", "b", "c", "d", "e"]
    base = {"b1": sort_ranking([(d, float(i + 1)) for i, d in enumerate(reversed(docs))])}
    squashed = {"b1": sort_ranking([(d, s / 100.0 + 5.0) for d, s in base["b1"]])}
    qrels = {"b1": {"b", "d"}}
    for metric in (mean_reciprocal_rank, mean_average_precision):
        assert metric(base, qrels) == pytest.approx(metric(squashed, qrels))
    assert precision_at_k(base, qrels, 3) == pytest.approx(precision_at_k(squashed, qrels, 3))


def test_random_cases_match_oracles():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 25)
        docs = [f"d{i}" for i in range(n)]
        rng.shuffle(docs)
        retrieved = docs[: rng.randint(1, n)]
        relevant = set(rng.sample(docs, rng.randint(1, min(4, n))))
        run = {"b": _run_of(retrieved)}
        qrels = {"b": relevant}
        assert mean_reciprocal_rank(run, qrels) == pytest.approx(float(oracle_rr(retrieved, relevant)), abs=1e-12)
        assert mean_average_precision(run, qrels) == pytest.approx(float(oracle_ap(retrieved, relevant)), abs=1e-12)
        k = rng.randint(1, 6)
        assert precision_at_k(run, qrels, k) == pytest.approx(float(oracle_p_at_k(retrieved, relevant, k)), abs=1e-12)


# --- plumbing ---------------------------------------------------------------


def test_sort_ranking_breaks_ties_by_id():
    entries = [("h2", 1.0), ("h1", 1.0), ("h3", 2.0)]
    assert sort_ranking(entries) == [("h3", 2.0), ("h1", 1.0), ("h2", 1.0)]


def test_sort_ranking_rejects_duplicates():
    with pytest.raises(ValueError):
        sort_ranking([("h1", 1.0), ("h1", 0.5)])


def test_qrels_and_run_files_round_trip(tmp_path):
    qrels = {"b1": {"h1", "h2"}, "b2": {"h3"}}
    run = {"b1": [("h1", 2.0), ("h2", 1.0)], "b2": [("h3", 9.0), ("h1", 1.5)]}
    qrels_path = tmp_path / "qrels.txt"
    run_path = tmp_path / "run.txt"
    write_qrels(qrels_path, qrels)
    write_run(run_path, sorted(run.items()))
    assert read_qrels(qrels_path) == qrels
    loaded = read_run(run_path)
    assert {b: [h for h, _ in entries] for b, entries in loaded.items()} == {
        "b1": ["h1", "h2"],
        "b2": ["h3", "h1"],
    }


def test_compute_metrics_parses_names():
    run = {"b1": _run_of(["r", "x"])}
    qrels = {"b1": {"r"}}
    values = compute_metrics(run, qrels, ["mrr", "map", "p@1", "p@2"])
    assert values == {"mrr": 1.0, "map": 1.0, "p@1": 1.0, "p@2": 0.5}
    with pytest.raises(ValueError):
        compute_metrics(run, qrels, ["ndcg"])


def test_parse_metric_names_normalizes_and_rejects_non_metrics():
    assert parse_metric_names([" MRR", "map", "P@3", "p@10"]) == ["mrr", "map", "p@3", "p@10"]
    for bad in ("bogus", "p@x", "p@0", "p@-1", "p@", ""):
        with pytest.raises(ValueError, match="metric"):
            parse_metric_names(["mrr", bad])


def test_per_bug_scores_exports_components():
    run = {"b1": _run_of(["r", "x"]), "b2": _run_of(["x", "r2"])}
    qrels = {"b1": {"r"}, "b2": {"r2"}}
    scores = per_bug_scores(run, qrels)
    assert scores["b1"]["reciprocal_rank"] == 1.0
    assert scores["b2"]["reciprocal_rank"] == 0.5
    assert scores["b2"]["p@1"] == 0.0
