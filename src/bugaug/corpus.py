"""Corpus ingestion and baseline training-set construction.

Builds the original dataset: one positive per inducing hunk whose class also
appears in a fixing changeset of the same bug, and exactly one seeded-random
negative per positive drawn from hunks of classes outside the bug's inducing
changesets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

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
    link_from_dict,
    read_jsonl,
)
from .rng import derive_rng

log = logging.getLogger(__name__)

DROPPED_STATUSES = ("wont_fix", "not_a_bug")


@dataclass
class ProjectCorpus:
    bugs: dict[str, BugReport]
    changesets: dict[str, Changeset]
    hunks_by_changeset: dict[str, list[Hunk]]
    links: dict[str, LinkRecord]

    def all_hunks(self) -> list[Hunk]:
        out = [h for hunks in self.hunks_by_changeset.values() for h in hunks]
        out.sort(key=lambda h: h.id)
        return out

    def changeset_hunks(self, changeset_id: str) -> list[Hunk]:
        if changeset_id not in self.changesets:
            raise CorpusError(f"link references unknown changeset {changeset_id!r}")
        return self.hunks_by_changeset.get(changeset_id, [])

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

    def fixing_classes(self, bug_id: str) -> frozenset[str]:
        link = self.links[bug_id]
        classes: set[str] = set()
        for cs_id in link.fixing_changeset_ids:
            classes.update(h.class_name for h in self.changeset_hunks(cs_id))
        return frozenset(classes)


# --- loading -------------------------------------------------------------


def load_bugs(path: str | Path) -> list[BugReport]:
    bugs = []
    seen: set[tuple[str, str]] = set()
    for record in read_jsonl(path):
        bug = bug_from_dict(record)
        key = (bug.project, bug.id)
        if key in seen:
            raise CorpusError(f"duplicate bug id {bug.id!r} in project {bug.project!r}")
        seen.add(key)
        bugs.append(bug)
    return bugs


def load_links(path: str | Path) -> dict[str, LinkRecord]:
    links: dict[str, LinkRecord] = {}
    for record in read_jsonl(path):
        link = link_from_dict(record)
        if not link.usable:
            log.warning("skipping unusable link for bug %s (empty changeset list)", link.bug_id)
            continue
        if link.bug_id in links:
            raise CorpusError(f"duplicate link record for bug {link.bug_id!r}")
        links[link.bug_id] = link
    return links


def load_diff_dir(diffs_dir: str | Path) -> tuple[dict[str, Changeset], dict[str, list[Hunk]]]:
    """Read changesets.jsonl plus one <changeset_id>.diff file per changeset."""
    diffs_dir = Path(diffs_dir)
    meta_path = diffs_dir / "changesets.jsonl"
    if not meta_path.exists():
        raise CorpusError(f"missing changeset metadata file {meta_path}")
    changesets: dict[str, Changeset] = {}
    hunks: dict[str, list[Hunk]] = {}
    for record in read_jsonl(meta_path):
        cs = changeset_from_dict(record)
        if cs.id in changesets:
            raise CorpusError(f"duplicate changeset id {cs.id!r}")
        changesets[cs.id] = cs
        diff_path = diffs_dir / f"{cs.id}.diff"
        if diff_path.exists():
            hunks[cs.id] = parse_unified_diff(diff_path.read_text(encoding="utf-8"), cs.id)
        else:
            hunks[cs.id] = []
    return changesets, hunks


def load_hunks_jsonl(path: str | Path) -> list[Hunk]:
    return [hunk_from_dict(r) for r in read_jsonl(path)]


# --- splitting and sampling ----------------------------------------------


def drop_unusable_bugs(bugs: list[BugReport]) -> list[BugReport]:
    return [b for b in bugs if b.status not in DROPPED_STATUSES]


def split_by_date(bugs: list[BugReport]) -> tuple[list[BugReport], list[BugReport]]:
    """Sort by opening date (ties by id) and put the first ceil(n/2) in train."""
    ordered = sorted(bugs, key=lambda b: (b.opened_at, b.id))
    n_train = math.ceil(len(ordered) / 2)
    return ordered[:n_train], ordered[n_train:]


class NegativeSampler:
    """Draws negative hunks for a bug from classes outside its inducing set."""

    def __init__(self, hunks: list[Hunk], excluded_classes_by_bug: dict[str, frozenset[str]]):
        self._hunks = sorted(hunks, key=lambda h: h.id)
        self._excluded = excluded_classes_by_bug
        self._cache: dict[str, list[Hunk]] = {}

    def eligible(self, origin_bug_id: str) -> list[Hunk]:
        if origin_bug_id not in self._cache:
            excluded = self._excluded.get(origin_bug_id, frozenset())
            self._cache[origin_bug_id] = [h for h in self._hunks if h.class_name not in excluded]
        return self._cache[origin_bug_id]

    def draw(self, origin_bug_id: str, rng) -> Hunk:
        pool = self.eligible(origin_bug_id)
        if not pool:
            raise CorpusError(f"no eligible negative class for bug {origin_bug_id!r}")
        return rng.choice(pool)


def sampler_from_links(
    hunks_by_changeset: Mapping[str, list[Hunk]], links: Mapping[str, LinkRecord]
) -> NegativeSampler:
    """Negatives over every hunk; each linked bug excludes the classes of its
    inducing changesets' hunks."""
    excluded = {
        bug_id: frozenset(
            h.class_name
            for cs_id in link.inducing_changeset_ids
            for h in hunks_by_changeset.get(cs_id, ())
        )
        for bug_id, link in links.items()
    }
    return NegativeSampler([h for hs in hunks_by_changeset.values() for h in hs], excluded)


def negative_sampler_for(corpus: ProjectCorpus, bug_ids: list[str]) -> NegativeSampler:
    for bug_id in bug_ids:
        corpus.inducing_hunks(bug_id)  # raises on an unknown or empty inducing changeset
    return sampler_from_links(corpus.hunks_by_changeset, {b: corpus.links[b] for b in bug_ids})


# --- D_ori ---------------------------------------------------------------


def build_d_ori(
    bugs: list[BugReport],
    corpus: ProjectCorpus,
    rng_seed: int,
    name: str = "D_ori",
) -> Dataset:
    """Positives are inducing hunks whose class occurs in a fixing changeset of
    the same bug; each positive gets one seeded-uniform negative."""
    linked = [b for b in sorted(bugs, key=lambda b: b.id) if b.id in corpus.links]
    sampler = negative_sampler_for(corpus, [b.id for b in linked])
    samples: list[TrainingSample] = []
    for bug in linked:
        fixing = corpus.fixing_classes(bug.id)
        surviving = [h for h in corpus.inducing_hunks(bug.id) if h.class_name in fixing]
        if not surviving:
            log.warning("bug %s excluded: no inducing hunk matches a fixing-changeset class", bug.id)
            continue
        for hunk in surviving:
            samples.append(
                TrainingSample(
                    bug_ref=bug.id,
                    origin_bug_id=bug.id,
                    hunk_id=hunk.id,
                    class_name=hunk.class_name,
                    label="positive",
                )
            )
            rng = derive_rng(rng_seed, "negative", name, bug.id, hunk.id)
            neg = sampler.draw(bug.id, rng)
            samples.append(
                TrainingSample(
                    bug_ref=bug.id,
                    origin_bug_id=bug.id,
                    hunk_id=neg.id,
                    class_name=neg.class_name,
                    label="negative",
                )
            )
    return Dataset(name=name, samples=samples)


def build_qrels(bugs: list[BugReport], corpus: ProjectCorpus) -> dict[str, set[str]]:
    """Relevance judgments: a test bug's surviving inducing hunks."""
    qrels: dict[str, set[str]] = {}
    for bug in sorted(bugs, key=lambda b: b.id):
        if bug.id not in corpus.links:
            continue
        fixing = corpus.fixing_classes(bug.id)
        relevant = {h.id for h in corpus.inducing_hunks(bug.id) if h.class_name in fixing}
        if relevant:
            qrels[bug.id] = relevant
        else:
            log.warning("test bug %s has no relevant hunks after class filtering", bug.id)
    return qrels


@dataclass
class IngestResult:
    corpus: ProjectCorpus
    train_bugs: list[BugReport]
    test_bugs: list[BugReport]
    d_ori: Dataset
    qrels: dict[str, set[str]] = field(default_factory=dict)


def ingest_corpus(
    bugs_path: str | Path,
    diffs_dir: str | Path,
    links_path: str | Path,
    seed: int,
) -> IngestResult:
    bugs = drop_unusable_bugs(load_bugs(bugs_path))
    changesets, hunks_by_changeset = load_diff_dir(diffs_dir)
    links = load_links(links_path)
    corpus = ProjectCorpus(
        bugs={b.id: b for b in bugs},
        changesets=changesets,
        hunks_by_changeset=hunks_by_changeset,
        links=links,
    )
    train_bugs, test_bugs = split_by_date(bugs)
    d_ori = build_d_ori(train_bugs, corpus, seed)
    qrels = build_qrels(test_bugs, corpus)
    return IngestResult(
        corpus=corpus, train_bugs=train_bugs, test_bugs=test_bugs, d_ori=d_ori, qrels=qrels
    )
