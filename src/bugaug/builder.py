"""Assembly of augmented bug reports and of the augmented training sets.

An augmented report reuses the original report's structure: every sample is
the augmented (or, after quality-control fallback, original) counterpart of
exactly one source sample, the samples are randomly reordered, and at most
one sample may be dropped. The permutation and drop are recorded so an output
can be replayed bit-exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

from .code_ops import CodeNameDictionary, augment_code_sample
from .corpus import NegativeSampler
from .model import (
    NL_KINDS,
    AugmentedBugReport,
    Dataset,
    Sample,
    SampleProvenance,
    StructuredBugReport,
    TrainingSample,
)
from .nl_ops import (
    REJECTED,
    AugConfig,
    Paraphraser,
    QualityControl,
    SubstituteDictionary,
    augment_paragraph,
)
from .rng import derive_rng

log = logging.getLogger(__name__)


def augmented_report_id(origin_bug_id: str, ordinal: int) -> str:
    return f"{origin_bug_id}#aug{ordinal}"


def build_augmented_report(
    structured: StructuredBugReport,
    aug_samples: list[Sample],
    rng,
    p_drop: float = 0.5,
    report_id: str | None = None,
    applied_ops: list[list[str]] | None = None,
) -> AugmentedBugReport:
    """Permute the augmented samples and drop at most one.

    The first OB sample (the summary-equivalent) and the sole sample of a
    one-sample report are never dropped.
    """
    n = len(structured.samples)
    if n == 0:
        raise ValueError(f"bug {structured.bug_id!r} has no samples to assemble")
    if len(aug_samples) != n:
        raise ValueError("aug_samples must align 1:1 with structured.samples")
    permutation = list(range(n))
    rng.shuffle(permutation)
    dropped_index: int | None = None
    if n > 1 and rng.random() < p_drop:
        protected = next((i for i, s in enumerate(structured.samples) if s.kind == "OB"), None)
        droppable = [i for i in range(n) if i != protected]
        if droppable:
            dropped_index = rng.choice(droppable)
    ops = applied_ops if applied_ops is not None else [[] for _ in range(n)]
    return AugmentedBugReport(
        id=report_id or augmented_report_id(structured.bug_id, 0),
        origin_bug_id=structured.bug_id,
        samples=[aug_samples[i] for i in permutation if i != dropped_index],
        provenance=[
            SampleProvenance(sample_index=i, applied_ops=ops[i], dropped=(i == dropped_index))
            for i in range(n)
        ],
        permutation=permutation,
    )


def replay_report(aug_samples: list[Sample], report: AugmentedBugReport) -> list[Sample]:
    """Reconstruct the report's sample order from its recorded provenance."""
    dropped = {p.sample_index for p in report.provenance if p.dropped}
    return [aug_samples[i] for i in report.permutation if i not in dropped]


@dataclass
class ReportAugmenter:
    """Full per-report augmentation: NL operators with QC on OB/EB/S2R, code
    operators on traces, snippets, and code-bearing prose, then assembly."""

    structured_by_bug: dict[str, StructuredBugReport]
    code_names_by_bug: dict[str, CodeNameDictionary]
    dictionary: SubstituteDictionary
    qc: QualityControl
    aug_config: AugConfig
    paraphraser: Paraphraser
    p_drop: float = 0.5

    def augment(self, origin_bug_id: str, ordinal: int) -> AugmentedBugReport:
        structured = self.structured_by_bug.get(origin_bug_id)
        if structured is None:
            raise KeyError(f"no structured report for bug {origin_bug_id!r}")
        names = self.code_names_by_bug.get(origin_bug_id)
        aug_samples: list[Sample] = []
        ops_log: list[list[str]] = []
        for idx, sample in enumerate(structured.samples):
            current = sample
            ops: list[str] = []
            if sample.kind in NL_KINDS:
                result = augment_paragraph(
                    sample,
                    self.dictionary,
                    self.aug_config,
                    self.paraphraser,
                    self.qc,
                    stream_key=(origin_bug_id, ordinal, idx),
                )
                if result is REJECTED:
                    ops.append("nl:fallback")
                else:
                    ops.append("nl")
                    current = result
            if names and names.names and (
                sample.kind in ("StackTrace", "CodeSnippet") or any(t.is_code for t in current.tokens)
            ):
                rng = derive_rng(self.aug_config.seed, "code", origin_bug_id, ordinal, idx)
                current = augment_code_sample(current, names, rng)
                ops.append("code")
            aug_samples.append(current)
            ops_log.append(ops)
        rng = derive_rng(self.aug_config.seed, "assemble", origin_bug_id, ordinal)
        return build_augmented_report(
            structured,
            aug_samples,
            rng,
            p_drop=self.p_drop,
            report_id=augmented_report_id(origin_bug_id, ordinal),
            applied_ops=ops_log,
        )


def referenced_reports(
    dataset: Dataset, augmenter: ReportAugmenter
) -> Iterator[AugmentedBugReport]:
    """The report behind each distinct augmented bug_ref of `dataset`, in
    first-reference order; original samples (bug_ref == origin_bug_id) have none."""
    seen: set[str] = set()
    for sample in dataset.samples:
        ref = sample.bug_ref
        if ref != sample.origin_bug_id and ref not in seen:
            seen.add(ref)
            yield augmenter.augment(sample.origin_bug_id, int(ref.rpartition("#aug")[2]))


def generate_augmented_set(d_ori: Dataset, factor: int, sampler: NegativeSampler, seed: int) -> Dataset:
    """D_aug: the original set plus, per original positive, `factor` fresh
    augmented positives on the same hunk and one fresh negative each."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    samples = list(d_ori.samples)
    ordinals: dict[str, int] = {}
    for positive in d_ori.positives():
        bug = positive.origin_bug_id
        for _ in range(factor):
            ordinals[bug] = ordinals.get(bug, 0) + 1
            aug_id = augmented_report_id(bug, ordinals[bug])
            augmented = TrainingSample(
                bug_ref=aug_id,
                origin_bug_id=bug,
                hunk_id=positive.hunk_id,
                class_name=positive.class_name,
                label="positive",
            )
            samples.extend(sampler.pair(augmented, derive_rng(seed, "negative", "D_aug", aug_id)))
    return Dataset(name="D_aug", samples=samples)


def generate_repeated_set(d_ori: Dataset, factor: int, sampler: NegativeSampler, seed: int) -> Dataset:
    """D_rep: positives repeated verbatim to `factor` copies total, with one
    fresh negative per added copy. No augmentation is involved."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    samples = list(d_ori.samples)
    for positive in d_ori.positives():
        for repeat in range(factor - 1):
            rng = derive_rng(seed, "negative", "D_rep", positive.origin_bug_id, positive.hunk_id, repeat)
            samples.extend(sampler.pair(positive, rng))
    return Dataset(name="D_rep", samples=samples)
