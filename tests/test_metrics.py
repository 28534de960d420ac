from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug.metrics import (
    PER_BUG_METRICS,
    average_precision,
    compute_metrics,
    parse_metric_names,
    per_bug_scores,
    read_qrels,
    read_run,
    run_lines,
    sort_ranking,
    write_qrels,
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


def metric(run, qrels, name: str) -> float:
    return compute_metrics(run, qrels, [name])[name]


# --- direct examples -----------------------------------------------------------


def test_mrr_all_first():
    run = {"b1": _run_of(["h1", "h2"]), "b2": _run_of(["h9", "h3"])}
    qrels = {"b1": {"h1"}, "b2": {"h9"}}
    assert metric(run, qrels, "mrr") == 1.0


def test_mrr_ranks_two_and_four():
    run = {
        "b1": _run_of(["x", "rel1", "y", "z"]),
        "b2": _run_of(["a", "b", "c", "rel2"]),
    }
    qrels = {"b1": {"rel1"}, "b2": {"rel2"}}
    assert metric(run, qrels, "mrr") == pytest.approx(0.375)


def test_mrr_missing_relevant_contributes_zero():
    run = {"b1": _run_of(["h1"]), "b2": _run_of(["h2"])}
    qrels = {"b1": {"h1"}, "b2": {"absent"}}
    assert metric(run, qrels, "mrr") == pytest.approx(0.5)


def test_mrr_empty_qrels_is_an_error():
    with pytest.raises(ValueError):
        metric({"b": []}, {}, "mrr")


def test_mrr_bug_missing_from_run_is_an_error():
    with pytest.raises(ValueError):
        metric({"b1": []}, {"b1": {"h"}, "b2": {"h"}}, "mrr")


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
    assert metric(run, qrels, "map") == pytest.approx((1.0 + 0.5) / 2)


def test_precision_at_k_examples():
    run = {"b1": _run_of(["r", "x", "y"])}
    qrels = {"b1": {"r"}}
    assert metric(run, qrels, "p@1") == 1.0
    assert metric(run, qrels, "p@3") == pytest.approx(1 / 3)


def test_precision_at_k_empty_ranking_is_zero():
    assert metric({"b1": []}, {"b1": {"r"}}, "p@5") == 0.0


def test_precision_at_k_rejects_zero():
    with pytest.raises(ValueError):
        metric({"b1": []}, {"b1": {"r"}}, "p@0")


def test_mrr_equals_map_with_single_relevant_items():
    rng = random.Random(77)
    for _ in range(200):
        docs = [f"d{i}" for i in range(rng.randint(1, 30))]
        rng.shuffle(docs)
        run = {"b": _run_of(docs)}
        qrels = {"b": {rng.choice(docs)}}
        assert metric(run, qrels, "mrr") == pytest.approx(metric(run, qrels, "map"))


def test_metrics_invariant_under_monotone_score_transform():
    docs = ["a", "b", "c", "d", "e"]
    base = {"b1": sort_ranking([(d, float(i + 1)) for i, d in enumerate(reversed(docs))])}
    squashed = {"b1": sort_ranking([(d, s / 100.0 + 5.0) for d, s in base["b1"]])}
    qrels = {"b1": {"b", "d"}}
    for name in ("mrr", "map", "p@3"):
        assert metric(base, qrels, name) == pytest.approx(metric(squashed, qrels, name))


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
        assert metric(run, qrels, "mrr") == pytest.approx(float(oracle_rr(retrieved, relevant)), abs=1e-12)
        assert metric(run, qrels, "map") == pytest.approx(float(oracle_ap(retrieved, relevant)), abs=1e-12)
        k = rng.randint(1, 6)
        assert metric(run, qrels, f"p@{k}") == pytest.approx(float(oracle_p_at_k(retrieved, relevant, k)), abs=1e-12)


# one bug: a ranking of up to 8 documents, cut to a prefix that may be empty,
# and relevant documents that d<n> and d<n+1> may leave out of the ranking
_BUG_CASES = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.permutations([f"d{i}" for i in range(n)]),
    st.integers(0, n),
    st.sets(st.sampled_from([f"d{i}" for i in range(n + 2)]), min_size=1, max_size=4),
))


@settings(derandomize=True, database=None, deadline=None)
@given(cases=st.lists(_BUG_CASES, min_size=1, max_size=6), data=st.data())
def test_each_summary_metric_is_the_mean_of_the_per_bug_scores(cases, data):
    """Over runs of several bugs, with qrels in shuffled insertion order, each
    summary metric equals the mean of its per_bug_scores column summed in
    qrels' order, and both equal the exact oracle mean."""
    bugs = [f"b{i}" for i in range(len(cases))]
    run = {bug: _run_of(docs[:cut]) for bug, (docs, cut, _) in zip(bugs, cases)}
    relevant = {bug: rel for bug, (_, _, rel) in zip(bugs, cases)}
    qrels = {bug: relevant[bug] for bug in data.draw(st.permutations(bugs))}
    per_bug = per_bug_scores(run, qrels)
    summary = compute_metrics(run, qrels, ["mrr", "map", "p@1", "p@3", "p@5"])
    oracles = {"mrr": oracle_rr, "map": oracle_ap,
               **{f"p@{k}": lambda r, rel, k=k: oracle_p_at_k(r, rel, k) for k in (1, 3, 5)}}
    for key, name in PER_BUG_METRICS.items():
        column_mean = sum(per_bug[bug][key] for bug in qrels) / len(qrels)
        assert summary[name] == column_mean
        exact = sum(oracles[name]([h for h, _ in run[bug]], qrels[bug]) for bug in qrels) / len(qrels)
        assert summary[name] == pytest.approx(float(exact), abs=1e-12)


# --- plumbing ---------------------------------------------------------------


def test_sort_ranking_breaks_ties_by_id():
    entries = [("h2", 1.0), ("h1", 1.0), ("h3", 2.0)]
    assert sort_ranking(entries) == [("h3", 2.0), ("h1", 1.0), ("h2", 1.0)]


def test_qrels_and_run_files_round_trip(tmp_path):
    qrels = {"b1": {"h1", "h2"}, "b2": {"h3"}}
    run = {"b1": [("h1", 2.0), ("h2", 1.0)], "b2": [("h3", 9.0), ("h1", 1.5)]}
    qrels_path = tmp_path / "qrels.txt"
    run_path = tmp_path / "run.txt"
    write_qrels(qrels_path, qrels)
    run_path.write_text("".join(run_lines(bug_id, ranking) for bug_id, ranking in sorted(run.items())))
    assert read_qrels(qrels_path) == qrels
    # as in trec_eval, only a relevance above zero is relevant
    with qrels_path.open("a") as fh:
        fh.write("b2 h4 0\nb2 h5 -1\nb3 h6 -1\n")
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


@pytest.mark.parametrize("lines", [["b1 h2 1 nan\n", "b1 h1 2 0.5\n"],
                                   ["b1 h1 1 0.5\n", "b1 h2 2 nan\n"]])
def test_read_run_refuses_a_nan_score_in_either_order(tmp_path, lines):
    path = tmp_path / "run.txt"
    path.write_text("".join(lines))
    line = 1 + ["nan" in text for text in lines].index(True)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: score 'nan' is not a finite number$"):
        read_run(path)


@pytest.mark.parametrize("score", ["abc", "inf", "-Infinity"])
def test_read_run_names_the_line_of_a_score_that_is_no_finite_number(tmp_path, score):
    path = tmp_path / "run.txt"
    path.write_text(f"b1 h1 1 1.0\n\nb1 h2 2 {score}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: score '{score}' is not a finite number$"):
        read_run(path)


def test_read_run_names_the_line_of_a_repeated_hunk(tmp_path):
    """A hunk may appear once per bug's ranking; another bug may rank it too."""
    path = tmp_path / "run.txt"
    path.write_text("b1 h1 1 2.0\nb2 h1 1 2.0\nb1 h2 2 1.0\nb1 h1 3 0.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: duplicate hunk id 'h1' for bug 'b1'$"):
        read_run(path)


def test_read_qrels_names_the_line_of_a_relevance_that_is_no_integer(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("b1 h1 1\nb1 h2 x\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: relevance 'x' is not an integer$"):
        read_qrels(path)
