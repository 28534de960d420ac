"""Assembly of augmented bug reports and of the augmented training sets.

An augmented report reuses the original report's structure: every sample is
the augmented (or, after quality-control fallback, original) counterpart of
exactly one source sample, the samples are randomly reordered, and at most
one sample may be dropped. The permutation and drop are recorded: they give
the order of the report's samples.
"""

from __future__ import annotations

import logging
import marshal
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, NoReturn, TypeVar

from .code_ops import CodeNameDictionary, augment_code_sample
from .corpus import NegativeSampler
from .model import (
    COUNTS,
    NL_KINDS,
    Dataset,
    Sample,
    StructuredBugReport,
    TrainingSample,
    jsonl_line,
    open_new,
    report_sample_to_dict,
    structured_from_dict,
)
from .nl_ops import (
    REJECTED,
    ParagraphPlan,
    Paraphraser,
    QualityControl,
    SubstituteDictionary,
    augment_paragraph,
    paragraph_plan,
)
from .rng import derive_rng

log = logging.getLogger(__name__)


def augmented_report_id(origin_bug_id: str, ordinal: int) -> str:
    return f"{origin_bug_id}#aug{ordinal}"


def build_augmented_report(
    structured: StructuredBugReport,
    aug_samples: list[Sample],
    rng,
    p_drop: float,
    report_id: str,
    applied_ops: list[list[str]],
) -> dict:
    """Permute the augmented samples, drop at most one, and return the
    report's record, one line of a report file.

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
    return {
        "id": report_id,
        "origin_bug_id": structured.bug_id,
        "samples": [report_sample_to_dict(aug_samples[i]) for i in permutation if i != dropped_index],
        "provenance": [
            {"sample_index": i, "applied_ops": applied_ops[i], "dropped": i == dropped_index}
            for i in range(n)
        ],
        "permutation": permutation,
    }


# the sample kinds the code operators run on even without a code token
_CODE_KINDS = ("StackTrace", "CodeSnippet")


@dataclass(frozen=True)
class SamplePlan:
    """What every augmentation of one source sample shares: the sample, the
    positions of its code tokens and, for an OB/EB/S2R paragraph, its
    ParagraphPlan."""

    sample: Sample
    code: tuple[int, ...]
    paragraph: ParagraphPlan | None


@dataclass(frozen=True)
class BugPlan:
    """A bug's decoded structured report, its code names (None if it has
    none) and one SamplePlan per sample, in the report's order."""

    structured: StructuredBugReport
    names: CodeNameDictionary | None
    samples: tuple[SamplePlan, ...]


@dataclass
class ReportAugmenter:
    """Full per-report augmentation: NL operators with QC on OB/EB/S2R, code
    operators on traces, snippets, and code-bearing prose, then assembly.

    `records` holds each bug's structured.jsonl record, by bug id, and
    `code_names` gives a bug's code names, or None. A bug's plan is built
    the first time one of its reports is, in the process that builds it."""

    records: dict[str, dict]
    code_names: Callable[[str], CodeNameDictionary | None]
    dictionary: SubstituteDictionary
    qc: QualityControl
    seed: int
    paraphraser: Paraphraser
    p_drop: float
    _plans: dict[str, BugPlan] = field(default_factory=dict, init=False, repr=False)

    def plan(self, bug_id: str) -> BugPlan:
        plan = self._plans.get(bug_id)
        if plan is None:
            record = self.records.get(bug_id)
            if record is None:
                raise KeyError(f"no structured report for bug {bug_id!r}")
            structured = structured_from_dict(record)
            names = self.code_names(bug_id)
            plan = self._plans[bug_id] = BugPlan(
                structured=structured,
                names=names if names and names.names else None,
                samples=tuple(
                    SamplePlan(
                        sample=sample,
                        code=tuple(i for i, t in enumerate(sample.tokens) if t.is_code),
                        paragraph=(paragraph_plan(sample, self.dictionary, self.qc)
                                   if sample.kind in NL_KINDS else None),
                    )
                    for sample in structured.samples
                ),
            )
        return plan

    def augment(self, origin_bug_id: str, ordinal: int) -> dict:
        plan = self.plan(origin_bug_id)
        aug_samples: list[Sample] = []
        ops_log: list[list[str]] = []
        for idx, sample_plan in enumerate(plan.samples):
            current, code = sample_plan.sample, sample_plan.code
            ops: list[str] = []
            if sample_plan.paragraph is not None:
                result = augment_paragraph(
                    sample_plan.paragraph,
                    self.dictionary,
                    self.seed,
                    self.paraphraser,
                    self.qc,
                    stream_key=(origin_bug_id, ordinal, idx),
                )
                if result is REJECTED:
                    ops.append("nl:fallback")
                else:
                    ops.append("nl")
                    # QC kept the code-token count, so only the positions moved
                    current, code = result, None
            if plan.names is not None and (current.kind in _CODE_KINDS or sample_plan.code):
                rng = derive_rng(self.seed, "code", origin_bug_id, ordinal, idx)
                current = augment_code_sample(current, plan.names, rng, code)
                ops.append("code")
            aug_samples.append(current)
            ops_log.append(ops)
        rng = derive_rng(self.seed, "assemble", origin_bug_id, ordinal)
        return build_augmented_report(
            plan.structured,
            aug_samples,
            rng,
            p_drop=self.p_drop,
            report_id=augmented_report_id(origin_bug_id, ordinal),
            applied_ops=ops_log,
        )


def referenced_refs(dataset: Dataset) -> list[tuple[str, int]]:
    """(origin bug, ordinal) of each distinct augmented bug_ref of `dataset`,
    in first-reference order; original samples (bug_ref == origin_bug_id)
    have none. A bug_ref that is neither its origin bug nor
    augmented_report_id(origin bug, ordinal) raises ValueError."""
    refs: dict[str, tuple[str, int]] = {}
    for sample in dataset.samples:
        ref, origin = sample.bug_ref, sample.origin_bug_id
        if ref != origin and ref not in refs:
            ordinal = ref.rpartition("#aug")[2]
            if not (ordinal.isdecimal() and ref == augmented_report_id(origin, int(ordinal))):
                raise ValueError(f"bug_ref {ref!r} of bug {origin!r} is neither the bug's id nor "
                                 f"'{origin}#aug<n>'")
            refs[ref] = (origin, int(ordinal))
    return list(refs.values())


Item = TypeVar("Item")


class _Shard:
    """A forked child that clears COUNTS, writes line(item) for each of
    items to one anonymous temporary file and then the byte length of each
    line and its COUNTS, or its error, to another, and leaves through
    os._exit: it runs none of the parent's exit handlers and flushes none of
    its buffers. name ("<name> shard <i> of <n>") heads the errors it
    raises."""

    def __init__(self, items: list[Item], line: Callable[[Item], bytes], name: str):
        self.name = name
        self.lines = tempfile.TemporaryFile()
        self.result = tempfile.TemporaryFile()
        try:
            self.pid: int | None = os.fork()
        except OSError as exc:
            self.lines.close()
            self.result.close()
            raise RuntimeError(f"{name} could not start: {exc}") from exc
        if self.pid == 0:
            self._write(items, line)

    def _write(self, items: list[Item], line: Callable[[Item], bytes]) -> NoReturn:
        code = 1
        try:
            COUNTS.clear()
            lengths = []
            for item in items:
                lengths.append(self.lines.write(line(item)))
            self.lines.flush()
            marshal.dump((lengths, dict(COUNTS)), self.result)
            code = 0
        except BaseException as exc:
            marshal.dump(f"{type(exc).__name__}: {exc}", self.result)
        finally:
            self.result.flush()
            os._exit(code)

    def append_to(self, out: BinaryIO, lengths: list[int]) -> None:
        """Wait for the child, then append its lines to out and their lengths
        to lengths and add its counts to COUNTS; a child that raised or was
        killed raises here."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise RuntimeError(f"{self.name} was killed by signal {-code}")
        self.result.seek(0)
        payload = marshal.load(self.result)
        if code:
            raise RuntimeError(f"{self.name} failed: {payload}")
        self.lines.seek(0)
        shutil.copyfileobj(self.lines, out)
        shard_lengths, counts = payload
        lengths.extend(shard_lengths)
        COUNTS.update(counts)

    def kill(self) -> None:
        if self.pid is not None:
            import signal  # only a failed stage needs it

            os.kill(self.pid, signal.SIGKILL)

    def reap(self) -> None:
        if self.pid is not None:
            os.waitpid(self.pid, 0)
            self.pid = None
        self.lines.close()
        self.result.close()


def write_sharded(path: str | Path, items: list[Item], line: Callable[[Item], bytes],
                  name: str) -> list[int]:
    """Write line(item), bytes, for each of items to path, in items' order,
    on every CPU this process may run on. Returns the byte length of each
    item's line, in items' order. Each child's COUNTS are added to this
    process's, in shard order, so COUNTS end as if this process had written
    every line. Nothing else comes back from a child: what a line caches in
    a child's memory stays there.

    Items are split into contiguous, equal shards, one per CPU, so adjacent
    items share a process except at a shard boundary. Every child is forked
    before this process writes the first shard into path, and each other
    shard is written by its child (one CPU, or fewer than two items, forks
    nothing); the children's lines are appended in shard order, so the bytes
    do not depend on the CPU count as long as each line is a pure function
    of its item. A shard that fails, here or in a child, or cannot be
    forked, fails the call with its error, as "<name> shard <i> of <n>
    failed: ..." or "... could not start: ...": every child is reaped and
    path is removed. A process running other threads forks nothing: a child
    has only the forking thread, so a lock another thread held would stay
    held in it.
    """
    forkable = hasattr(os, "sched_getaffinity") and threading.active_count() == 1
    cpus = len(os.sched_getaffinity(0)) if forkable else 1
    count = max(1, min(cpus, len(items)))
    shards = [items[len(items) * i // count:len(items) * (i + 1) // count] for i in range(count)]
    children: list[_Shard] = []
    try:
        with open_new(path, binary=True) as out:
            # a child must not write again what this process had buffered
            sys.stdout.flush()
            sys.stderr.flush()
            for number, shard in enumerate(shards[1:], start=2):
                children.append(_Shard(shard, line, f"{name} shard {number} of {count}"))
            lengths = [out.write(line(item)) for item in shards[0]]
            for child in children:
                child.append_to(out, lengths)
            return lengths
    except BaseException:
        for child in children:
            child.kill()
        Path(path).unlink(missing_ok=True)
        raise
    finally:
        for child in children:
            child.reap()


# where each report line a run wrote lies, by (origin bug, ordinal): the
# report file, the line's byte offset in it and its length in bytes
ReportStore = dict[tuple[str, int], tuple[Path, int, int]]


def write_reports(path: str | Path, refs: list[tuple[str, int]],
                  augment: Callable[[str, int], dict] | None, store: ReportStore) -> None:
    """Write the record augment(*ref) for each ref to path as JSON lines, in
    refs' order, through write_sharded: each report is a pure function of its
    ref, so the bytes do not depend on the CPU count.

    A ref store holds is not built: its line is copied byte for byte from
    the file an earlier call wrote, which must have built it with the same
    augmenter settings. Each ref's line in path is then added to store."""
    sources: dict[Path, int] = {}  # each report file copied from, read with os.pread
    try:
        for file in {store[ref][0] for ref in refs if ref in store}:
            sources[file] = os.open(file, os.O_RDONLY)

        def line(ref: tuple[str, int]) -> bytes:
            span = store.get(ref)
            if span is None:
                return jsonl_line(augment(*ref)).encode("utf-8")
            return os.pread(sources[span[0]], span[2], span[1])

        lengths = write_sharded(path, refs, line, "report")
    finally:
        for fd in sources.values():
            os.close(fd)
    offset, file = 0, Path(path)
    for ref, length in zip(refs, lengths):
        store[ref] = (file, offset, length)
        offset += length


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
