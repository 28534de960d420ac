from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug.retrieval import hunk_document, index_hunks, index_tokens, rank

from conftest import make_hunk


def _hunks():
    return [
        make_hunk("h1", "cs1", "AsyncDispatcher", lines=(("added", "dispatcher.fireEvent(payload);"),)),
        make_hunk("h2", "cs1", "TimerQueue", lines=(("added", "queue.cancel(timer);"),)),
        make_hunk("h3", "cs2", "HttpParser", lines=(("added", "parser.readHeaders(buffer);"),)),
    ]


def test_unique_shared_token_ranks_first():
    index = index_hunks(_hunks())
    ranking = rank("the fireEvent call never returns", index, top_n=3)
    assert ranking[0][0] == "h1"
    assert ranking[0][1] > 0


def test_query_without_index_terms_scores_zero_in_id_order():
    index = index_hunks(_hunks())
    ranking = rank("zzz qqq www", index, top_n=3)
    assert [h for h, _ in ranking] == ["h1", "h2", "h3"]
    assert all(score == 0.0 for _, score in ranking)


def test_long_hunk_truncates_to_limit():
    lines = tuple(("added", f"token{i} filler{i};") for i in range(400))  # >1200 tokens
    hunk = make_hunk("big", "cs", "Big", lines=lines)
    index = index_hunks([hunk], token_limit=512)
    assert index.hunks[0].length == 512


def test_empty_hunk_indexes_with_zero_length():
    hunk = make_hunk("empty", "cs", "Empty", lines=())
    index = index_hunks([hunk])
    assert index.hunks[0].length == 0
    ranking = rank("anything", index, top_n=1)
    assert ranking == [("empty", 0.0)]


def test_reindexing_is_idempotent():
    first = index_hunks(_hunks())
    second = index_hunks(_hunks())
    assert first.postings == second.postings
    assert first.posting_tfs == second.posting_tfs
    assert first.average_length == second.average_length


def test_log_message_terms_are_indexed():
    index = index_hunks(_hunks(), log_messages={"cs2": "rework header parsing"})
    ranking = rank("rework header parsing", index, top_n=1)
    assert ranking[0][0] == "h3"


def test_scores_match_brute_force_oracle():
    """Direct evaluation of the BM25 formula over a 10-document corpus."""
    rng = random.Random(3)
    vocabulary = [f"term{i}" for i in range(12)]
    hunks = []
    for i in range(10):
        words = [rng.choice(vocabulary) for _ in range(rng.randint(1, 30))]
        hunks.append(make_hunk(f"h{i}", "cs", f"Cls{i}", lines=(("added", " ".join(words) + ";"),)))
    index = index_hunks(hunks)
    docs_tokens = {
        h.id: index_tokens(hunk_document(h))[:512] for h in sorted(hunks, key=lambda h: h.id)
    }
    n_docs = len(hunks)
    avgdl = sum(len(t) for t in docs_tokens.values()) / n_docs

    query = "term1 term2 term2 term9"
    query_tokens = query.split()

    def oracle(doc_id: str) -> float:
        tokens = docs_tokens[doc_id]
        score = 0.0
        for term in set(query_tokens):
            qtf = query_tokens.count(term)
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for t in docs_tokens.values() if term in t)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            score += qtf * idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * len(tokens) / avgdl))
        return score

    ranking = rank(query, index, top_n=10)
    for hunk_id, score in ranking:
        assert score == pytest.approx(oracle(hunk_id), abs=1e-12)


def test_scores_reproducible_to_1e12():
    index = index_hunks(_hunks())
    first = rank("dispatcher cancel timer fireEvent", index, top_n=3)
    second = rank("dispatcher cancel timer fireEvent", index, top_n=3)
    for (h1, s1), (h2, s2) in zip(first, second):
        assert h1 == h2
        assert abs(s1 - s2) <= 1e-12


def test_scores_are_nonnegative():
    index = index_hunks(_hunks())
    rng = random.Random(8)
    words = ["dispatcher", "queue", "parser", "zzz", "cancel", "timer"]
    for _ in range(50):
        query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
        for _, score in rank(query, index, top_n=3):
            assert score >= 0.0


def test_query_truncation_to_256_tokens():
    index = index_hunks(_hunks())
    head = "fireEvent " + " ".join(f"pad{i}" for i in range(255))
    tail_only = " ".join(f"pad{i}" for i in range(255)) + " fireEvent" + " trailing" * 10
    with_hit = rank(head, index, top_n=1)
    # fireEvent is inside the first 256 tokens of `head` but beyond them in `tail_only`
    assert with_hit[0][0] == "h1" and with_hit[0][1] > 0
    truncated = rank(tail_only + " " + "x " * 300, index, top_n=1)
    assert truncated[0][1] > 0  # fireEvent at position 256 exactly -> included

    far = " ".join(f"pad{i}" for i in range(256)) + " fireEvent"
    assert rank(far, index, top_n=1)[0][1] == 0.0


def test_rank_on_empty_index_raises():
    empty = index_hunks([])
    with pytest.raises(ValueError):
        rank("q", empty, top_n=1)


def _document_tokens(hunks) -> list[tuple[str, list[str]]]:
    """(hunk id, its first 512 index tokens) in id order, rebuilt without the index."""
    return [(h.id, index_tokens(hunk_document(h))[:512]) for h in sorted(hunks, key=lambda h: h.id)]


def _full_scan_rank(query: str, hunks, top_n: int, k1: float = 1.2, b: float = 0.75):
    """Reference ranking: BM25 over every hunk, with tf and df counted from
    the hunks' own tokens, then one full sort."""
    query_counts: dict[str, int] = {}
    for token in index_tokens(query)[:256]:
        query_counts[token] = query_counts.get(token, 0) + 1
    documents = _document_tokens(hunks)
    n_docs = len(documents)
    average_length = sum(len(tokens) for _, tokens in documents) / n_docs
    scored = []
    for hunk_id, tokens in documents:
        score = 0.0
        for term, query_count in query_counts.items():
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for _, other in documents if term in other)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            if average_length > 0:
                norm = k1 * (1.0 - b + b * len(tokens) / average_length)
            else:
                norm = k1
            score += query_count * idf * tf * (k1 + 1.0) / (tf + norm)
        scored.append((hunk_id, score))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:top_n]


_TERMS = st.sampled_from(["alpha", "beta", "gamma", "delta", "eps", "zeta"])
# documents may be empty; hunk ids are drawn out of index order
_CORPORA = st.lists(st.lists(_TERMS, max_size=12), min_size=1, max_size=12)
# "absent" and "missing" never occur in a document
_QUERIES = st.lists(st.one_of(_TERMS, st.sampled_from(["absent", "missing"])), max_size=10)


@settings(derandomize=True, database=None, deadline=None)
@given(documents=_CORPORA, query_terms=_QUERIES, data=st.data())
def test_rank_equals_full_scan_reference(documents, query_terms, data):
    ids = data.draw(st.permutations([f"h{i:02d}" for i in range(len(documents))]))
    hunks = [
        make_hunk(hunk_id, "cs", "Cls", lines=(("added", " ".join(words)),) if words else ())
        for hunk_id, words in zip(ids, documents)
    ]
    index = index_hunks(hunks)
    # each posting list holds, in ascending order, exactly the positions of the
    # hunks whose tokens contain the term, with the term's count in each
    documents = _document_tokens(hunks)
    postings: dict[str, list[int]] = {}
    for position, (_, tokens) in enumerate(documents):
        for term in dict.fromkeys(tokens):
            postings.setdefault(term, []).append(position)
    assert index.postings == postings
    for term, positions in postings.items():
        assert list(index.posting_tfs[term]) == [documents[p][1].count(term) for p in positions]

    query = " ".join(query_terms)
    matched = sum(1 for _, tokens in documents if set(tokens) & set(query_terms))
    for top_n in sorted({1, max(1, matched - 1), max(1, matched), matched + 1, len(hunks) + 2}):
        assert rank(query, index, top_n) == _full_scan_rank(query, hunks, top_n)


def test_rank_rejects_top_n_below_one():
    index = index_hunks(_hunks())
    for top_n in (0, -1):
        with pytest.raises(ValueError, match="top_n"):
            rank("fireEvent", index, top_n)
