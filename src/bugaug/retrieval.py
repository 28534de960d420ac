"""Lexical hunk ranking so the pipeline runs end-to-end without a neural model.

Plain BM25 (k1=1.2, b=0.75) over bag-of-words hunk documents built from the
changeset log message plus the hunk's lines. Inputs follow the model input
limits: hunks truncated to 512 tokens, queries to 256. A query scores only the
hunks in its terms' postings lists (term-at-a-time over an inverted index).
"""

from __future__ import annotations

import heapq
import math
import re
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .model import Hunk

HUNK_TOKEN_LIMIT = 512
QUERY_TOKEN_LIMIT = 256
K1 = 1.2
B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def index_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class HunkIndex:
    """Hunk ids in ascending order. `postings` maps each term to the ascending
    positions in `hunk_ids` of the hunks that contain it, so its document
    frequency is the list's length; `posting_tfs` maps it to an array of the
    term's frequency in each of them, and `posting_denominators` to an array
    of each one's BM25 denominator tf + norm, in the same order. A hunk's
    norm is its length normaliser, K1 * (1 - B + B * length / average length).

    `contributions` caches, by (term, query count), what `rank` adds to each
    of the term's hunks, in posting order: filled on first use, so a process
    computes each one once, and gone with the index."""

    hunk_ids: list[str]
    postings: dict[str, list[int]]
    posting_tfs: dict[str, array]
    posting_denominators: dict[str, array]
    contributions: dict[tuple[str, int], array] = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.hunk_ids)


def hunk_document(hunk: Hunk, log_message: str = "") -> str:
    return f"{log_message}\n{hunk.text}" if log_message else hunk.text


def index_hunks(hunks: Sequence[Hunk], log_messages: Mapping[str, str] | None = None) -> HunkIndex:
    """Index hunks by term frequency; each document is truncated to the first
    HUNK_TOKEN_LIMIT tokens before counting."""
    log_messages = log_messages or {}
    hunk_ids: list[str] = []
    lengths: list[int] = []
    postings: dict[str, list[int]] = {}
    posting_tfs: dict[str, array] = {}
    for position, hunk in enumerate(sorted(hunks, key=lambda h: h.id)):
        tokens = index_tokens(hunk_document(hunk, log_messages.get(hunk.changeset_id, "")))
        tokens = tokens[:HUNK_TOKEN_LIMIT]
        tf: dict[str, int] = {}
        for token in tokens:
            tf[token] = tf.get(token, 0) + 1
        for token, count in tf.items():
            positions = postings.get(token)
            if positions is None:
                postings[token] = [position]
                posting_tfs[token] = array("I", (count,))
            else:
                positions.append(position)
                posting_tfs[token].append(count)
        hunk_ids.append(hunk.id)
        lengths.append(len(tokens))
    # the average length, unless every length is 0: it must not divide then
    divisor = sum(lengths) / len(lengths) if any(lengths) else 1.0
    norms = [K1 * (1.0 - B + B * length / divisor) for length in lengths]
    denominators = {
        term: array("d", [tf + norms[position] for position, tf in zip(positions, posting_tfs[term])])
        for term, positions in postings.items()
    }
    return HunkIndex(
        hunk_ids=hunk_ids,
        postings=postings,
        posting_tfs=posting_tfs,
        posting_denominators=denominators,
    )


def rank(bug_report_text: str, index: HunkIndex, top_n: int) -> list[tuple[str, float]]:
    """Top-n (hunk_id, score) pairs, score descending, ties by hunk id.

    Scores accumulate term at a time into one flat list indexed by hunk
    position, over only the postings of the query's terms, each posting's
    contribution computed once per (term, query count) and cached on the
    index. A hunk that shares no term with the query keeps 0.0; every other
    score is positive. Positions ascend with hunk id and the top-n selection
    is stable, so equal scores, the 0.0 ones included, come in id order."""
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n}")
    if not index.hunk_ids:
        raise ValueError("index is empty")
    tokens = index_tokens(bug_report_text)[:QUERY_TOKEN_LIMIT]
    query_counts: dict[str, int] = {}
    for token in tokens:
        query_counts[token] = query_counts.get(token, 0) + 1
    n_docs = len(index)
    k1_plus_1 = K1 + 1.0
    scores = [0.0] * n_docs
    for term, query_count in query_counts.items():
        positions = index.postings.get(term)
        if positions is None:
            continue
        contributions = index.contributions.get((term, query_count))
        if contributions is None:
            df = len(positions)
            # query_count * idf * tf * (k1 + 1) / (tf + norm), multiplied left to right
            qi = query_count * math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            contributions = array("d", [qi * tf * k1_plus_1 / denominator for tf, denominator
                                        in zip(index.posting_tfs[term], index.posting_denominators[term])])
            index.contributions[term, query_count] = contributions
        for position, contribution in zip(positions, contributions):
            scores[position] += contribution
    top = heapq.nlargest(top_n, range(n_docs), key=scores.__getitem__)
    return [(index.hunk_ids[position], scores[position]) for position in top]
