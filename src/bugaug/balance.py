"""Dataset balancing: selectively augment under-represented bug reports.

Caps are derived from the training set itself: a bug report may occur at most
ceil(alpha * M_br) times and a class at most ceil(omega * M_cl) times, where
M_br/M_cl are the maximum per-bug and per-class positive counts in the input.
The input is copied as-is (copies may exceed the caps); only additions are
constrained.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .builder import augmented_report_id, referenced_refs
from .corpus import NegativeSampler
from .model import Dataset, TrainingSample, read_jsonl, sample_from_dict
from .rng import derive_rng

log = logging.getLogger(__name__)


def scaled_cap(factor: float, maximum: int) -> int:
    # exact rational product: ceil(1.3 * 10) must be 13, not 14
    return math.ceil(Fraction(str(factor)) * maximum)


def balance_dataset(
    d_train: Dataset,
    alpha: float,
    omega: float,
    sampler: NegativeSampler,
    seed: int,
) -> Dataset:
    """Grow each bug toward the per-bug cap by adding (fresh augmented report,
    eligible hunk) positives, one fresh negative per addition; a hunk is
    eligible while its class sits below the class cap. A bug's fresh reports
    are numbered after the largest ordinal d_train references for it. Logs
    how many bugs the class cap stopped below the per-bug cap, and how many
    additions it refused them."""
    if alpha <= 0 or omega <= 0:
        raise ValueError("alpha and omega must be positive")
    positives = d_train.positives()
    if not positives:
        raise ValueError("d_train has no positive samples")
    bug_counts = d_train.positive_counts_by_bug()
    class_counts = d_train.positive_counts_by_class()
    max_br = scaled_cap(alpha, max(bug_counts.values()))
    max_cl = scaled_cap(omega, max(class_counts.values()))

    hunks_by_bug: dict[str, list[tuple[str, str]]] = {}
    for p in positives:
        pairs = hunks_by_bug.setdefault(p.origin_bug_id, [])
        if (p.hunk_id, p.class_name) not in pairs:
            pairs.append((p.hunk_id, p.class_name))
    for pairs in hunks_by_bug.values():
        pairs.sort()
    last_ordinal: dict[str, int] = {}
    for bug, ordinal in referenced_refs(d_train):
        last_ordinal[bug] = max(last_ordinal.get(bug, 0), ordinal)

    samples = list(d_train.samples)
    stopped = refused = 0
    for bug in sorted(hunks_by_bug):
        rng = derive_rng(seed, "balance", bug)
        ordinal = last_ordinal.get(bug, 0)
        while bug_counts[bug] < max_br:
            eligible = [(h, c) for h, c in hunks_by_bug[bug] if class_counts[c] < max_cl]
            if not eligible:
                stopped += 1
                refused += max_br - bug_counts[bug]
                break
            hunk_id, class_name = eligible[rng.randrange(len(eligible))]
            ordinal += 1
            aug_id = augmented_report_id(bug, ordinal)
            positive = TrainingSample(
                bug_ref=aug_id,
                origin_bug_id=bug,
                hunk_id=hunk_id,
                class_name=class_name,
                label="positive",
            )
            samples.extend(sampler.pair(positive, derive_rng(seed, "negative", "D_bl", aug_id)))
            bug_counts[bug] += 1
            class_counts[class_name] += 1
    log.info("class cap %d stopped %d bugs below the per-bug cap %d and refused %d additions",
             max_cl, stopped, max_br, refused)
    return Dataset(name="D_bl", samples=samples)


@dataclass
class DistributionReport:
    """Occurrence counts over positive samples, largest first."""

    per_bug_counts: list[tuple[str, int]]
    per_class_counts: list[tuple[str, int]]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.per_bug_counts)

    def topk_bug_share(self, k: int) -> float:
        return sum(c for _, c in self.per_bug_counts[:k]) / self.total

    def topk_class_share(self, k: int) -> float:
        return sum(c for _, c in self.per_class_counts[:k]) / self.total

    def to_dict(self, top_k: int = 10) -> dict:
        return {
            "total_positives": self.total,
            "distinct_bugs": len(self.per_bug_counts),
            "distinct_classes": len(self.per_class_counts),
            "per_bug_counts": [[b, c] for b, c in self.per_bug_counts],
            "per_class_counts": [[cl, c] for cl, c in self.per_class_counts],
            "topk_bug_share": {str(k): self.topk_bug_share(k) for k in range(1, top_k + 1)},
            "topk_class_share": {str(k): self.topk_class_share(k) for k in range(1, top_k + 1)},
        }


def distribution_report(dataset: Dataset) -> DistributionReport:
    return _count_positives(dataset.name, ((s.origin_bug_id, s.class_name) for s in dataset.positives()))


def file_distribution_report(path: str | Path, name: str) -> DistributionReport:
    """distribution_report of the dataset in the JSON-lines file path, counted
    as its lines are decoded: the dataset is never held as a list."""
    samples = read_jsonl(path, sample_from_dict)
    return _count_positives(name, ((s.origin_bug_id, s.class_name) for s in samples
                                   if s.label == "positive"))


def _count_positives(name: str, positives: Iterable[tuple[str, str]]) -> DistributionReport:
    """The report of a dataset whose positives have these (origin bug, class)
    pairs."""
    bug_counts: Counter[str] = Counter()
    class_counts: Counter[str] = Counter()
    for bug, class_name in positives:
        bug_counts[bug] += 1
        class_counts[class_name] += 1
    if not bug_counts:
        raise ValueError(f"dataset {name!r} has no positive samples")
    return DistributionReport(
        per_bug_counts=sorted(bug_counts.items(), key=lambda kv: (-kv[1], kv[0])),
        per_class_counts=sorted(class_counts.items(), key=lambda kv: (-kv[1], kv[0])),
    )
