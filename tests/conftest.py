from __future__ import annotations

import random
import tempfile
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from bugaug import code_ops
from bugaug.corpus import ProjectCorpus
from bugaug.extract import PatternDictionary
from bugaug.model import BugReport, Dataset, Hunk, LinkRecord, Token, TrainingSample
from bugaug.nl_ops import SubstituteDictionary

EPOCH = datetime(2021, 3, 1, tzinfo=timezone.utc)

_hypothesis_home = None


def pytest_configure(config):
    # property tests run with database=None, but hypothesis still caches the
    # constants it mines from source files; keep that out of the working tree
    global _hypothesis_home
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="bugaug-hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    if _hypothesis_home is not None:
        _hypothesis_home.cleanup()


def make_bug(bug_id: str, day: int = 0, summary: str = "Widget does not close", description: str = "",
             status: str = "fixed") -> BugReport:
    return BugReport(
        id=bug_id,
        project="demo",
        summary=summary,
        description=description,
        opened_at=EPOCH + timedelta(days=day),
        status=status,
    )


def make_hunk(hunk_id: str, changeset_id: str, class_name: str,
              lines: tuple = (("added", "int x = 1;"),)) -> Hunk:
    n_removed = sum(1 for m, _ in lines if m == "removed")
    n_added = sum(1 for m, _ in lines if m == "added")
    n_context = sum(1 for m, _ in lines if m == "context")
    return Hunk(
        id=hunk_id,
        changeset_id=changeset_id,
        file_path=f"src/{class_name}.java",
        class_name=class_name,
        old_start=1,
        old_len=n_context + n_removed,
        new_start=1,
        new_len=n_context + n_added,
        lines=tuple(lines),
    )


def build_corpus(spec: dict[str, dict]) -> tuple[dict[str, BugReport], ProjectCorpus]:
    """spec: bug_id -> {"inducing": {cs_id: [classes]}, "fixing": {cs_id: [classes]},
    "day": int}. Extra unlinked hunks may ride along under key "_extra".
    Returns the bugs by id beside the corpus."""
    bugs = {}
    hunks_by_changeset: dict[str, list[Hunk]] = {}
    links = {}
    counter = 0
    for bug_id, cfg in spec.items():
        if bug_id == "_extra":
            for cs_id, classes in cfg.items():
                for cls in classes:
                    counter += 1
                    hunks_by_changeset.setdefault(cs_id, []).append(
                        make_hunk(f"{cs_id}#h{counter}", cs_id, cls)
                    )
            continue
        bugs[bug_id] = make_bug(bug_id, day=cfg.get("day", 0))
        for group in ("inducing", "fixing"):
            for cs_id, classes in cfg.get(group, {}).items():
                hunks_by_changeset.setdefault(cs_id, [])
                for cls in classes:
                    counter += 1
                    hunks_by_changeset[cs_id].append(make_hunk(f"{cs_id}#h{counter}", cs_id, cls))
        links[bug_id] = LinkRecord(
            bug_id=bug_id,
            inducing_changeset_ids=tuple(cfg.get("inducing", {})),
            fixing_changeset_ids=tuple(cfg.get("fixing", {})),
        )
    return bugs, ProjectCorpus(hunks_by_changeset, links)


_WORDS = (
    "the queue request never returns data after restart and every worker "
    "thread stays busy while the parser keeps old buffers around for days"
).split()
_CODE_WORDS = ["AsyncContext", "NioChannel.flush()", "check_word_missing_letter", "HttpParser.parse", "byteBuffer"]


def random_tokens(rng: random.Random, n: int, code_ratio: float = 0.25) -> list[Token]:
    out = []
    for _ in range(n):
        if rng.random() < code_ratio:
            out.append(Token(rng.choice(_CODE_WORDS), is_code=True))
        else:
            out.append(Token(rng.choice(_WORDS), is_code=False))
    return out


def negatives(dataset: Dataset) -> list[TrainingSample]:
    return [s for s in dataset.samples if s.label == "negative"]


def _replay(rng: random.Random) -> random.Random:
    """A random.Random in rng's current state: it draws what rng draws next."""
    replay = random.Random()
    replay.setstate(rng.getstate())
    return replay


def traced_insert(tokens, names, rng: random.Random):
    """code_token_insert(tokens, names, rng) and the (anchor, index) of its
    insertion, or None: code_ops._insert_at run on a copy of the operator's
    list with the operator's draws, which must give the operator's output."""
    replay = _replay(rng)
    out = code_ops.code_token_insert(tokens, names, rng)
    replayed = list(tokens)
    inserted = code_ops._insert_at(replayed, code_ops._code_indices(replayed), names, replay)
    assert replayed == out
    return out, inserted


def traced_swap(tokens, context: str, rng: random.Random, line_indices=None):
    """code_token_swap(tokens, context, rng, line_indices=line_indices) and
    the (i, j) it swapped, or None: code_ops._swap_pair drawn from the
    operator's rng state, which must give the operator's output."""
    replay = _replay(rng)
    out = code_ops.code_token_swap(tokens, context, rng, line_indices=line_indices)
    pair = code_ops._swap_pair(code_ops._code_indices(tokens), context, replay, line_indices)
    swapped = list(tokens)
    if pair is not None:
        i, j = pair
        swapped[i], swapped[j] = swapped[j], swapped[i]
    assert swapped == out
    return out, pair


@pytest.fixture(autouse=True)
def _empty_substitute_cache(monkeypatch):
    """Each test starts with no ranked substitutes cached: a test that counts
    cache hits must not pass on what an earlier test ranked."""
    monkeypatch.setattr(code_ops, "_ranked", {})


@pytest.fixture(scope="session")
def patterns() -> PatternDictionary:
    return PatternDictionary.default()


@pytest.fixture(scope="session")
def substitutes() -> SubstituteDictionary:
    return SubstituteDictionary.default()
