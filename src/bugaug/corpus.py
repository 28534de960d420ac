"""Corpus ingestion and baseline training-set construction.

Builds the original dataset: one positive per inducing hunk whose class also
appears in a fixing changeset of the same bug, and exactly one seeded-random
negative per positive drawn from hunks of classes outside the bug's inducing
changesets.
"""

from __future__ import annotations

import logging
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .diffs import parse_unified_diff
from .model import (
    BugReport,
    Changeset,
    CorpusError,
    Dataset,
    Hunk,
    LinkRecord,
    TrainingSample,
    bug_from_dict,
    changeset_from_dict,
    hunk_from_dict,
    is_word,
    link_from_dict,
    read_jsonl,
)
from .rng import derive_rng

log = logging.getLogger(__name__)

DROPPED_STATUSES = ("wont_fix", "not_a_bug")
# how many of the changesets without a diff file the warning names
_MISSING_SHOWN = 5


@dataclass
class ProjectCorpus:
    """Hunks by changeset and links by bug: the one place a bug's link is
    joined to its hunks. Every changeset the corpus knows is a key of
    hunks_by_changeset, with [] if it changed nothing."""

    hunks_by_changeset: dict[str, list[Hunk]]
    links: dict[str, LinkRecord]

    def all_hunks(self) -> list[Hunk]:
        out = [h for hunks in self.hunks_by_changeset.values() for h in hunks]
        out.sort(key=lambda h: h.id)
        return out

    def changeset_hunks(self, changeset_id: str) -> list[Hunk]:
        if changeset_id not in self.hunks_by_changeset:
            raise CorpusError(f"link references unknown changeset {changeset_id!r}")
        return self.hunks_by_changeset[changeset_id]

    def inducing_hunks(self, bug_id: str) -> list[Hunk]:
        link = self.links[bug_id]
        hunks = []
        for cs_id in link.inducing_changeset_ids:
            cs_hunks = self.changeset_hunks(cs_id)
            if not cs_hunks:
                raise CorpusError(f"inducing changeset {cs_id!r} of bug {bug_id!r} has no hunks")
            hunks.extend(cs_hunks)
        return hunks

    def inducing_classes(self, bug_id: str) -> frozenset[str]:
        return frozenset(h.class_name for h in self.inducing_hunks(bug_id))

    def positive_hunks(self, bug_id: str) -> list[Hunk]:
        """The bug's inducing hunks whose class a fixing changeset touches."""
        fixing = {h.class_name for cs_id in self.links[bug_id].fixing_changeset_ids
                  for h in self.changeset_hunks(cs_id)}
        return [h for h in self.inducing_hunks(bug_id) if h.class_name in fixing]

    def negative_sampler(self) -> NegativeSampler:
        """Negatives over every hunk. A linked bug excludes its inducing
        classes, joined only when the sampler is first asked about the bug; a
        bug with no link excludes nothing."""
        return NegativeSampler(self.all_hunks(),
                               lambda bug: self.inducing_classes(bug) if bug in self.links else frozenset())


# --- loading -------------------------------------------------------------


def load_bugs(path: str | Path) -> list[BugReport]:
    """The bugs of a bug file; a bug id that is not one word, which the run
    file's whitespace-separated columns could not hold, raises CorpusError,
    as does an id a second bug reuses, in any project: every artifact keys
    on the id alone."""
    bugs = []
    projects: dict[str, str] = {}  # the project of each bug id read
    for bug in read_jsonl(path, bug_from_dict):
        if not is_word(bug.id):
            raise CorpusError(f"{path}: bug id {bug.id!r} is not one word")
        if bug.id in projects:
            raise CorpusError(f"{path}: duplicate bug id {bug.id!r}, in project {projects[bug.id]!r} "
                              f"and in project {bug.project!r}")
        projects[bug.id] = bug.project
        bugs.append(bug)
    return bugs


def load_links(path: str | Path) -> dict[str, LinkRecord]:
    links: dict[str, LinkRecord] = {}
    for link in read_jsonl(path, link_from_dict):
        if not link.usable:
            log.warning("skipping unusable link for bug %s (empty changeset list)", link.bug_id)
            continue
        if link.bug_id in links:
            raise CorpusError(f"duplicate link record for bug {link.bug_id!r}")
        links[link.bug_id] = link
    return links


def load_diff_dir(diffs_dir: str | Path) -> tuple[dict[str, Changeset], dict[str, list[Hunk]]]:
    """Read changesets.jsonl plus one <changeset_id>.diff file per changeset.
    A changeset id must be one word without "/", so that its diff file lies
    in diffs_dir and its hunk ids fit the run file; any other raises
    CorpusError. A changeset without a diff file has no hunks, and one
    warning counts them all."""
    meta_path = Path(diffs_dir) / "changesets.jsonl"
    if not meta_path.exists():
        raise CorpusError(f"missing changeset metadata file {meta_path}")
    changesets: dict[str, Changeset] = {}
    hunks: dict[str, list[Hunk]] = {}
    missing: list[str] = []
    for cs in read_jsonl(meta_path, changeset_from_dict):
        if not is_word(cs.id) or "/" in cs.id:
            raise CorpusError(f"{meta_path}: changeset id {cs.id!r} is not one word without '/'")
        if cs.id in changesets:
            raise CorpusError(f"duplicate changeset id {cs.id!r}")
        changesets[cs.id] = cs
        try:
            with open(f"{diffs_dir}/{cs.id}.diff", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            missing.append(cs.id)
            text = ""
        hunks[cs.id] = parse_unified_diff(text, cs.id)
    if missing:
        log.warning("%d changesets in %s have no .diff file and so no hunks: %s%s", len(missing),
                    meta_path, ", ".join(missing[:_MISSING_SHOWN]),
                    ", ..." if len(missing) > _MISSING_SHOWN else "")
    return changesets, hunks


def load_hunks_jsonl(path: str | Path) -> list[Hunk]:
    return list(read_jsonl(path, hunk_from_dict))


# --- splitting and sampling ----------------------------------------------


def drop_unusable_bugs(bugs: list[BugReport]) -> list[BugReport]:
    return [b for b in bugs if b.status not in DROPPED_STATUSES]


def split_by_date(bugs: list[BugReport]) -> tuple[list[BugReport], list[BugReport]]:
    """Sort by opening date (ties by id) and put the first ceil(n/2) in train."""
    ordered = sorted(bugs, key=lambda b: (b.opened_at, b.id))
    n_train = math.ceil(len(ordered) / 2)
    return ordered[:n_train], ordered[n_train:]


class _HunksWithout:
    """hunks without those at the ascending positions `skipped`, as a sequence
    of indices 0 to len - 1, built without copying hunks."""

    def __init__(self, hunks: list[Hunk], skipped: list[int]):
        self._hunks = hunks
        # _kept_before[j]: how many hunks are kept before skipped[j], as
        # machine ints: a bug skips thousands of positions
        self._kept_before = array("I", [position - j for j, position in enumerate(skipped)])

    def __len__(self) -> int:
        return len(self._hunks) - len(self._kept_before)

    def __getitem__(self, index: int) -> Hunk:
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for {len(self)} hunks")
        # the skipped positions before the index-th kept hunk are those with
        # at most index kept hunks before them
        return self._hunks[index + bisect_right(self._kept_before, index)]


class NegativeSampler:
    """Draws negative hunks for a bug from classes outside its inducing set.
    excluded_classes(bug_id) is called once per bug the sampler is asked about."""

    def __init__(self, hunks: list[Hunk], excluded_classes: Callable[[str], frozenset[str]]):
        self._hunks = sorted(hunks, key=lambda h: h.id)
        self._excluded = excluded_classes
        self._positions: dict[str, list[int]] = {}
        for position, hunk in enumerate(self._hunks):
            self._positions.setdefault(hunk.class_name, []).append(position)
        self._cache: dict[str, _HunksWithout] = {}

    def eligible(self, origin_bug_id: str) -> _HunksWithout:
        """The id-ordered hunks whose class the bug does not exclude."""
        if origin_bug_id not in self._cache:
            skipped = sorted(position for class_name in self._excluded(origin_bug_id)
                             for position in self._positions.get(class_name, ()))
            self._cache[origin_bug_id] = _HunksWithout(self._hunks, skipped)
        return self._cache[origin_bug_id]

    def draw(self, origin_bug_id: str, rng) -> Hunk:
        pool = self.eligible(origin_bug_id)
        if not pool:
            raise CorpusError(f"no eligible negative class for bug {origin_bug_id!r}")
        return rng.choice(pool)

    def pair(self, positive: TrainingSample, rng) -> tuple[TrainingSample, TrainingSample]:
        """The positive and its negative: the same bug_ref and origin bug, and
        a hunk `draw` takes from outside the origin bug's inducing classes."""
        neg = self.draw(positive.origin_bug_id, rng)
        return positive, TrainingSample(
            bug_ref=positive.bug_ref,
            origin_bug_id=positive.origin_bug_id,
            hunk_id=neg.id,
            class_name=neg.class_name,
            label="negative",
        )


# --- D_ori ---------------------------------------------------------------


def build_d_ori(bugs: list[BugReport], corpus: ProjectCorpus, rng_seed: int) -> Dataset:
    """Positives are inducing hunks whose class occurs in a fixing changeset of
    the same bug; each positive gets one seeded-uniform negative."""
    linked = [b for b in sorted(bugs, key=lambda b: b.id) if b.id in corpus.links]
    sampler = corpus.negative_sampler()
    samples: list[TrainingSample] = []
    for bug in linked:
        surviving = corpus.positive_hunks(bug.id)
        if not surviving:
            log.warning("bug %s excluded: no inducing hunk matches a fixing-changeset class", bug.id)
            continue
        for hunk in surviving:
            positive = TrainingSample(
                bug_ref=bug.id,
                origin_bug_id=bug.id,
                hunk_id=hunk.id,
                class_name=hunk.class_name,
                label="positive",
            )
            rng = derive_rng(rng_seed, "negative", "D_ori", bug.id, hunk.id)
            samples.extend(sampler.pair(positive, rng))
    return Dataset(name="D_ori", samples=samples)


def build_qrels(bugs: list[BugReport], corpus: ProjectCorpus) -> dict[str, set[str]]:
    """Relevance judgments: a test bug's surviving inducing hunks."""
    qrels: dict[str, set[str]] = {}
    for bug in sorted(bugs, key=lambda b: b.id):
        if bug.id not in corpus.links:
            continue
        relevant = {h.id for h in corpus.positive_hunks(bug.id)}
        if relevant:
            qrels[bug.id] = relevant
        else:
            log.warning("test bug %s has no relevant hunks after class filtering", bug.id)
    return qrels


@dataclass
class IngestResult:
    corpus: ProjectCorpus
    changesets: dict[str, Changeset]
    train_bugs: list[BugReport]
    test_bugs: list[BugReport]
    d_ori: Dataset
    qrels: dict[str, set[str]]


def ingest_corpus(
    bugs_path: str | Path,
    diffs_dir: str | Path,
    links_path: str | Path,
    seed: int,
) -> IngestResult:
    bugs = drop_unusable_bugs(load_bugs(bugs_path))
    changesets, hunks_by_changeset = load_diff_dir(diffs_dir)
    corpus = ProjectCorpus(hunks_by_changeset, load_links(links_path))
    train_bugs, test_bugs = split_by_date(bugs)
    d_ori = build_d_ori(train_bugs, corpus, seed)
    qrels = build_qrels(test_bugs, corpus)
    return IngestResult(corpus=corpus, changesets=changesets, train_bugs=train_bugs,
                        test_bugs=test_bugs, d_ori=d_ori, qrels=qrels)
