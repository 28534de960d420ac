"""Ranking metrics (MRR, MAP, P@K) plus qrels/run file formats.

Each metric is the mean over the qrels' bugs of one per-bug score,
bug_score. A bug whose relevant items are absent from the ranking scores 0,
and score ties are broken by hunk id ascending.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import open_new

Qrels = Mapping[str, set]
Ranking = Sequence[tuple[str, float]]
RankingRun = Mapping[str, Ranking]

# the per-bug scores metrics.json writes, by key, each with the metric behind it
PER_BUG_METRICS = {"reciprocal_rank": "mrr", "average_precision": "map",
                   "p@1": "p@1", "p@3": "p@3", "p@5": "p@5"}


def sort_ranking(entries: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """Score descending, ties by hunk id ascending."""
    return sorted(entries, key=lambda e: (-e[1], e[0]))


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


def bug_score(name: str, ranking: Ranking, relevant: set) -> float:
    """One bug's score under a parsed metric name (mrr, map, p@<k>). P@k is
    the fraction of the top k entries that are relevant; a short ranking
    keeps k as the denominator."""
    if name == "mrr":
        return reciprocal_rank(ranking, relevant)
    if name == "map":
        return average_precision(ranking, relevant)
    k = int(name[2:])
    return sum(1 for hunk_id, _ in ranking[:k] if hunk_id in relevant) / k


def per_bug_scores(run: RankingRun, qrels: Qrels) -> dict[str, dict]:
    """Each bug's PER_BUG_METRICS scores, for external significance testing."""
    _check_run(run, qrels)
    return {bug: {key: bug_score(name, run[bug], qrels[bug]) for key, name in PER_BUG_METRICS.items()}
            for bug in sorted(qrels)}


# --- file formats --------------------------------------------------------


def read_qrels(path: str | Path) -> dict[str, set]:
    """Lines: bug_id hunk_id relevance. As in trec_eval, only a relevance
    above zero makes the hunk relevant."""
    qrels: dict[str, set] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'bug_id hunk_id relevance'")
            bug_id, hunk_id, relevance = parts
            try:
                relevant = int(relevance)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: relevance {relevance!r} is not an integer") from None
            if relevant > 0:
                qrels.setdefault(bug_id, set()).add(hunk_id)
    return qrels


def write_qrels(path: str | Path, qrels: Qrels) -> None:
    with open_new(path) as fh:
        for bug_id in sorted(qrels):
            for hunk_id in sorted(qrels[bug_id]):
                fh.write(f"{bug_id} {hunk_id} 1\n")


def read_run(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Lines: bug_id hunk_id rank score, the score a finite number and each
    hunk once per bug; per-bug entries re-sorted on load."""
    raw: dict[str, dict[str, float]] = {}  # bug id -> its hunks' scores
    hunk_ids: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'bug_id hunk_id rank score'")
            bug_id, hunk_id, _, score = parts
            try:
                value = float(score)
            except ValueError:
                value = math.nan
            # a NaN would compare equal to every score and leave the order to the file
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: score {score!r} is not a finite number")
            # one string per distinct hunk id: a run repeats each one across rankings
            hunk_id = hunk_ids.setdefault(hunk_id, hunk_id)
            scores = raw.setdefault(bug_id, {})
            if hunk_id in scores:
                raise ValueError(f"{path}:{lineno}: duplicate hunk id {hunk_id!r} for bug {bug_id!r}")
            scores[hunk_id] = value
    return {bug: sort_ranking(scores.items()) for bug, scores in raw.items()}


def run_lines(bug_id: str, ranking: Ranking) -> str:
    """bug_id's ranking as run-file lines, the last newline included: the
    one format of a run file."""
    return "".join(f"{bug_id} {hunk_id} {position} {score:.6f}\n"
                   for position, (hunk_id, score) in enumerate(ranking, start=1))


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
    """Each metric name (mrr, map, p@<k>) as the mean of bug_score over
    qrels' bugs, summed in qrels' order."""
    parsed = parse_metric_names(names)
    _check_run(run, qrels)
    return {name: sum(bug_score(name, run[bug], relevant) for bug, relevant in qrels.items()) / len(qrels)
            for name in parsed}
