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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import Hunk

HUNK_TOKEN_LIMIT = 512
QUERY_TOKEN_LIMIT = 256

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def index_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class IndexedHunk:
    hunk_id: str
    class_name: str
    length: int


@dataclass
class HunkIndex:
    """Hunks in ascending id order. `postings` maps each term to the ascending
    positions in `hunks` of the hunks that contain it, so its document
    frequency is the list's length, and `posting_tfs` to an array of the
    term's frequency in each of them, in the same order.
    `norms[position]` is that hunk's BM25 length normaliser,
    k1 * (1 - b + b * length / average_length)."""

    hunks: list[IndexedHunk]
    average_length: float
    postings: dict[str, list[int]]
    posting_tfs: dict[str, array]
    norms: list[float]
    k1: float

    def __len__(self) -> int:
        return len(self.hunks)


def hunk_document(hunk: Hunk, log_message: str = "") -> str:
    return "\n".join([log_message] + hunk.all_texts()) if log_message else "\n".join(hunk.all_texts())


def index_hunks(
    hunks: Sequence[Hunk],
    log_messages: Mapping[str, str] | None = None,
    token_limit: int = HUNK_TOKEN_LIMIT,
    k1: float = 1.2,
    b: float = 0.75,
) -> HunkIndex:
    """Index hunks by term frequency; each document is truncated to the first
    `token_limit` tokens before counting."""
    log_messages = log_messages or {}
    indexed: list[IndexedHunk] = []
    postings: dict[str, list[int]] = {}
    posting_tfs: dict[str, array] = {}
    for position, hunk in enumerate(sorted(hunks, key=lambda h: h.id)):
        tokens = index_tokens(hunk_document(hunk, log_messages.get(hunk.changeset_id, "")))
        tokens = tokens[:token_limit]
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
        indexed.append(IndexedHunk(hunk_id=hunk.id, class_name=hunk.class_name, length=len(tokens)))
    total_length = sum(d.length for d in indexed)
    average_length = total_length / len(indexed) if indexed else 0.0
    # average_length is 0 only when every length is 0; it must not divide then
    divisor = average_length or 1.0
    norms = [k1 * (1.0 - b + b * d.length / divisor) for d in indexed]
    return HunkIndex(
        hunks=indexed,
        average_length=average_length,
        postings=postings,
        posting_tfs=posting_tfs,
        norms=norms,
        k1=k1,
    )


def rank(
    bug_report_text: str,
    index: HunkIndex,
    top_n: int,
    query_token_limit: int = QUERY_TOKEN_LIMIT,
) -> list[tuple[str, float]]:
    """Top-n (hunk_id, score) pairs, score descending, ties by hunk id.

    Only hunks that share a term with the query are scored; every such score
    is positive, so hunks sharing none fill any remaining places at 0.0 in id
    order."""
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n}")
    if not index.hunks:
        raise ValueError("index is empty")
    tokens = index_tokens(bug_report_text)[:query_token_limit]
    query_counts: dict[str, int] = {}
    for token in tokens:
        query_counts[token] = query_counts.get(token, 0) + 1
    n_docs = len(index)
    k1_plus_1 = index.k1 + 1.0
    norms = index.norms
    scores: dict[int, float] = {}
    for term, query_count in query_counts.items():
        positions = index.postings.get(term)
        if positions is None:
            continue
        df = len(positions)
        # query_count * idf * tf * (k1 + 1) / (tf + norm), multiplied left to right
        qi = query_count * math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for position, tf in zip(positions, index.posting_tfs[term]):
            score = qi * tf * k1_plus_1 / (tf + norms[position])
            scores[position] = scores.get(position, 0.0) + score
    # positions ascend with hunk id, so (-score, position) orders as (-score, hunk id)
    top = heapq.nsmallest(top_n, [(-score, position) for position, score in scores.items()])
    ranking = [(index.hunks[position].hunk_id, -negated) for negated, position in top]
    for position, doc in enumerate(index.hunks):
        if len(ranking) == top_n:
            break
        if position not in scores:
            ranking.append((doc.hunk_id, 0.0))
    return ranking
