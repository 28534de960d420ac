"""Ranking metrics (MRR, MAP, P@K) plus qrels/run file formats.

Conventions: a bug whose relevant items are absent from the ranking
contributes 0, and score ties are broken by hunk id ascending.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import open_new

Qrels = Mapping[str, set]
Ranking = Sequence[tuple[str, float]]
RankingRun = Mapping[str, Ranking]


def sort_ranking(entries: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """Score descending, ties by hunk id ascending; duplicate ids rejected."""
    ordered = sorted(entries, key=lambda e: (-e[1], e[0]))
    seen = set()
    for hunk_id, _ in ordered:
        if hunk_id in seen:
            raise ValueError(f"duplicate hunk id {hunk_id!r} in ranking")
        seen.add(hunk_id)
    return ordered


def _check_run(run: RankingRun, qrels: Qrels) -> None:
    if not qrels:
        raise ValueError("qrels is empty")
    missing = sorted(set(qrels) - set(run))
    if missing:
        raise ValueError(f"run is missing bugs present in qrels: {missing}")


def reciprocal_rank(ranking: Sequence[tuple[str, float]], relevant: set) -> float:
    for position, (hunk_id, _) in enumerate(ranking, start=1):
        if hunk_id in relevant:
            return 1.0 / position
    return 0.0


def mean_reciprocal_rank(run: RankingRun, qrels: Qrels) -> float:
    _check_run(run, qrels)
    return sum(reciprocal_rank(run[bug], relevant) for bug, relevant in qrels.items()) / len(qrels)


def average_precision(ranking: Sequence[tuple[str, float]], relevant_set: set) -> float:
    """Mean of precision@rank over the ranks where relevant items appear;
    unretrieved relevant items contribute 0."""
    if not relevant_set:
        raise ValueError("relevant_set is empty")
    found = 0
    total = 0.0
    for position, (hunk_id, _) in enumerate(ranking, start=1):
        if hunk_id in relevant_set:
            found += 1
            total += found / position
    return total / len(relevant_set)


def mean_average_precision(run: RankingRun, qrels: Qrels) -> float:
    _check_run(run, qrels)
    return sum(average_precision(run[bug], relevant) for bug, relevant in qrels.items()) / len(qrels)


def precision_at_k(run: RankingRun, qrels: Qrels, k: int) -> float:
    """Mean fraction of the top-k entries that are relevant; short rankings
    keep k as the denominator."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_run(run, qrels)
    total = 0.0
    for bug, relevant in qrels.items():
        top = run[bug][:k]
        total += sum(1 for hunk_id, _ in top if hunk_id in relevant) / k
    return total / len(qrels)


def per_bug_scores(run: RankingRun, qrels: Qrels, ks: Sequence[int] = (1, 3, 5)) -> dict[str, dict]:
    """Per-bug reciprocal rank / AP / P@k, for external significance testing."""
    _check_run(run, qrels)
    out: dict[str, dict] = {}
    for bug in sorted(qrels):
        relevant = qrels[bug]
        ranking = run[bug]
        scores = {
            "reciprocal_rank": reciprocal_rank(ranking, relevant),
            "average_precision": average_precision(ranking, relevant),
        }
        for k in ks:
            scores[f"p@{k}"] = sum(1 for h, _ in ranking[:k] if h in relevant) / k
        out[bug] = scores
    return out


# --- file formats --------------------------------------------------------


def read_qrels(path: str | Path) -> dict[str, set]:
    """Lines: bug_id hunk_id relevance (zero relevance entries are ignored)."""
    qrels: dict[str, set] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'bug_id hunk_id relevance'")
            bug_id, hunk_id, relevance = parts
            if int(relevance):
                qrels.setdefault(bug_id, set()).add(hunk_id)
    return qrels


def write_qrels(path: str | Path, qrels: Qrels) -> None:
    with open_new(path) as fh:
        for bug_id in sorted(qrels):
            for hunk_id in sorted(qrels[bug_id]):
                fh.write(f"{bug_id} {hunk_id} 1\n")


def read_run(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Lines: bug_id hunk_id rank score; per-bug entries re-sorted on load."""
    raw: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'bug_id hunk_id rank score'")
            bug_id, hunk_id, _, score = parts
            raw.setdefault(bug_id, []).append((hunk_id, float(score)))
    return {bug: sort_ranking(entries) for bug, entries in raw.items()}


def write_run(path: str | Path, rankings: Iterable[tuple[str, Ranking]]) -> None:
    """Write (bug_id, ranking) pairs in the order given."""
    with open_new(path) as fh:
        for bug_id, ranking in rankings:
            for position, (hunk_id, score) in enumerate(ranking, start=1):
                fh.write(f"{bug_id} {hunk_id} {position} {score:.6f}\n")


def parse_metric_names(names: Iterable[str]) -> list[str]:
    """Normalize metric names (mrr, map, p@<k> with k >= 1) to lower case;
    raises ValueError naming the first one that is not a metric."""
    out = []
    for raw_name in names:
        name = raw_name.strip().lower()
        if name.startswith("p@"):
            if not (name[2:].isdecimal() and int(name[2:]) >= 1):
                raise ValueError(f"bad metric {raw_name!r}: k in p@<k> must be an integer >= 1")
        elif name not in ("mrr", "map"):
            raise ValueError(f"unknown metric {raw_name!r}")
        out.append(name)
    return out


def compute_metrics(run: RankingRun, qrels: Qrels, names: Iterable[str]) -> dict[str, float]:
    """Evaluate metric names: mrr, map, p@<k>."""
    out: dict[str, float] = {}
    for name in parse_metric_names(names):
        if name == "mrr":
            out[name] = mean_reciprocal_rank(run, qrels)
        elif name == "map":
            out[name] = mean_average_precision(run, qrels)
        else:
            out[name] = precision_at_k(run, qrels, int(name[2:]))
    return out
