from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug import code_ops
from bugaug.code_ops import (
    CodeNameDictionary,
    augment_code_sample,
    code_token_insert,
    code_token_replace,
    code_token_swap,
    levenshtein,
    mine_code_names,
    top_k_substitutes,
)
from bugaug.model import COUNTS, Sample, Token

from conftest import make_hunk, traced_insert, traced_swap


def oracle_levenshtein(a: str, b: str) -> int:
    """Full-matrix dynamic programming reference."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def oracle_top_k(token: str, names, k: int) -> list[str]:
    pool = [n for n in set(names) if n != token]
    pool.sort(key=lambda n: (oracle_levenshtein(token, n), n))
    return pool[:k]


RANDOM_IDENT_CHARS = "abcdefg_XYZ"


def _random_identifier(rng: random.Random) -> str:
    return "".join(rng.choice(RANDOM_IDENT_CHARS) for _ in range(rng.randint(1, 12)))


def test_levenshtein_known_values():
    assert levenshtein("word", "word") == 0
    assert levenshtein("word", "is_word") == 3 == oracle_levenshtein("word", "is_word")
    assert levenshtein("kitten", "sitting") == 3 == oracle_levenshtein("kitten", "sitting")


def test_levenshtein_agrees_with_oracle_on_random_pairs():
    rng = random.Random(21)
    for _ in range(300):
        a, b = _random_identifier(rng), _random_identifier(rng)
        assert levenshtein(a, b) == oracle_levenshtein(a, b)
        assert levenshtein(a, b) == levenshtein(b, a)
        assert (levenshtein(a, b) == 0) == (a == b)


# few distinct characters, so repeats are common; "é" and "字" are not ASCII
_EDIT_TEXTS = st.text(alphabet="ab_Xé字", max_size=150)


@settings(derandomize=True, database=None, deadline=None)
@given(a=_EDIT_TEXTS, b=_EDIT_TEXTS)
def test_levenshtein_equals_the_dp_oracle(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)
    # one string past 64 characters, the other a few edits away
    longer = a * 3 + "Z" * 70
    edited = longer[5:] + b[:3]
    assert levenshtein(longer, edited) == oracle_levenshtein(longer, edited)


def test_top_k_paper_word_neighbors():
    names = {"is_word", "set_word", "get_word", "check_word_missing_letter", "unrelatedIdentifier"}
    top = top_k_substitutes("word", names, 20)
    # the three *_word variants are the closest neighbors; is_word (3 edits)
    # beats get_word/set_word (4 edits each), which tie and order by name
    assert set(top[:3]) == {"get_word", "is_word", "set_word"}
    assert top == oracle_top_k("word", names, 20)
    assert top[0] == "is_word"
    assert "check_word_missing_letter" in top


def test_top_k_excludes_the_token_itself():
    assert top_k_substitutes("word", {"word"}, 5) == []


def test_top_k_with_small_pool_returns_everything_sorted():
    names = {"alpha", "beta"}
    assert top_k_substitutes("alp", names, 10) == ["alpha", "beta"]


def test_top_k_agrees_with_full_sort_oracle():
    rng = random.Random(22)
    for _ in range(100):
        names = {_random_identifier(rng) for _ in range(rng.randint(1, 40))}
        token = _random_identifier(rng)
        k = rng.randint(1, 25)
        assert top_k_substitutes(token, names, k) == oracle_top_k(token, names, k)


_IDENTS = st.text(alphabet="abcXY_", min_size=1, max_size=6)
_DICTIONARIES = st.lists(st.lists(_IDENTS, max_size=12), min_size=1, max_size=4)


@settings(derandomize=True, database=None, deadline=None)
@given(dictionaries=_DICTIONARIES, data=st.data())
def test_memoized_ranking_agrees_with_oracle_across_dictionaries(dictionaries, data):
    # dictionaries are sorted, duplicate-free tuples, as CodeNameDictionary holds them
    tuples = [tuple(sorted(set(names))) for names in dictionaries]
    queries = data.draw(st.lists(
        st.tuples(st.integers(0, len(tuples) - 1), _IDENTS, st.integers(1, 25)),
        min_size=1, max_size=20,
    ))
    # every key again in the opposite order, interleaving the dictionaries
    queries += queries[::-1]
    hits_before = COUNTS["substitute_hits"]
    for which, token, k in queries:
        names = tuples[which]
        assert list(code_ops._ranked_substitutes(token, names, k)) == oracle_top_k(token, names, k)
    assert COUNTS["substitute_hits"] - hits_before >= len(queries) // 2


def test_substitutes_are_ranked_once_per_key(monkeypatch):
    calls = []

    def counting(token, names, k):
        calls.append((token, names, k))
        return top_k_substitutes(token, names, k)

    # looked up at call time, so a wrapper installed over it sees every miss
    monkeypatch.setattr(code_ops, "top_k_substitutes", counting)
    names = CodeNameDictionary(bug_id="memo", names=("memoAlpha", "memoBeta", "memoGamma"))
    tokens = [Token("memoAlphx", is_code=True), Token("words")]
    rng = random.Random(4)
    for _ in range(30):
        code_token_replace(tokens, names, rng)
        code_token_insert(tokens, names, rng)
    assert calls == [("memoAlphx", names.names, 20)]


def _mixed_tokens() -> list[Token]:
    return [
        Token("the"),
        Token("AsyncContext", is_code=True),
        Token("never"),
        Token("timesExact", is_code=True),
        Token("out"),
    ]


NAMES = CodeNameDictionary(bug_id="b", names=("AsyncChannel", "AsyncPool", "timesOut", "timerQueue"))


def test_replace_keeps_code_token_count():
    rng = random.Random(1)
    for _ in range(50):
        tokens = _mixed_tokens()
        out = code_token_replace(tokens, NAMES, rng)
        assert sum(t.is_code for t in out) == sum(t.is_code for t in tokens)
        assert len(out) == len(tokens)


def test_replace_without_code_tokens_is_identity():
    tokens = [Token("just"), Token("words")]
    assert code_token_replace(tokens, NAMES, random.Random(0)) == tokens


def test_replace_single_candidate_is_deterministic():
    tokens = [Token("lonelyCode", is_code=True)]
    names = CodeNameDictionary(bug_id="b", names=("onlySub",))
    out = code_token_replace(tokens, names, random.Random(0))
    assert [t.text for t in out] == ["onlySub"]


def test_insert_index_stays_within_radius():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 12)
        tokens = [Token(f"w{i}") for i in range(n)]
        code_at = rng.randrange(n)
        tokens[code_at] = Token("someCodeName", is_code=True)
        out, (anchor, index) = traced_insert(tokens, NAMES, rng)
        assert len(out) == n + 1
        assert anchor == code_at
        assert max(0, code_at - 3) <= index <= min(n, code_at + 3)


def test_insert_with_empty_pool_is_identity():
    tokens = [Token("onlyCodeHere", is_code=True)]
    names = CodeNameDictionary(bug_id="b", names=("onlyCodeHere",))  # self excluded
    assert code_token_insert(tokens, names, random.Random(0)) == tokens


def test_swap_single_line_stack_trace_unchanged():
    tokens = [Token("A.b", is_code=True), Token("C.d", is_code=True)]
    out = code_token_swap(tokens, "stack_trace", random.Random(0), line_indices=[0, 0])
    assert out == tokens


def test_swap_stack_trace_only_between_consecutive_lines():
    rng = random.Random(9)
    tokens = [Token(f"Cls{i}", is_code=True) for i in range(6)]
    lines = [0, 0, 1, 2, 4, 4]
    for _ in range(200):
        _, (i, j) = traced_swap(tokens, "stack_trace", rng, lines)
        assert abs(lines[i] - lines[j]) == 1


def test_swap_snippet_radius_three():
    tokens = [Token(f"c{i}", is_code=(i in (2, 5))) for i in range(8)]
    out, pair = traced_swap(tokens, "snippet", random.Random(0))
    assert pair == (2, 5)
    assert out[2].text == "c5" and out[5].text == "c2"


def test_swap_never_pairs_beyond_radius():
    tokens = [Token(f"c{i}", is_code=(i in (2, 6))) for i in range(8)]
    rng = random.Random(1)
    for _ in range(100):
        out = code_token_swap(tokens, "snippet", rng)
        assert out == tokens  # |2-6| > 3, no legal pair


def test_swap_rejects_unknown_context():
    with pytest.raises(ValueError):
        code_token_swap([], "elsewhere", random.Random(0))


def test_augment_code_sample_never_loses_tokens():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 15)
        tokens = [
            Token(f"name{i}", is_code=rng.random() < 0.4) or Token(f"w{i}") for i in range(n)
        ]
        sample = Sample(kind="CodeSnippet", tokens=tokens)
        before_code = sum(t.is_code for t in tokens)
        out = augment_code_sample(sample, NAMES, rng)
        assert len(out.tokens) >= len(tokens)
        assert len(out.tokens) - len(tokens) in (0, 1)  # at most the one insert
        assert sum(t.is_code for t in out.tokens) >= before_code


def test_augment_code_sample_without_code_tokens_is_identity():
    sample = Sample(kind="CodeSnippet", tokens=[Token("plain"), Token("words")])
    out = augment_code_sample(sample, NAMES, random.Random(0))
    assert out.tokens == sample.tokens


def test_augment_code_sample_keeps_line_indices_aligned():
    tokens = [Token("at"), Token("org.A.m", is_code=True), Token("at"), Token("org.B.n", is_code=True)]
    sample = Sample(kind="StackTrace", tokens=tokens, line_indices=[0, 0, 1, 1])
    rng = random.Random(2)
    for _ in range(50):
        out = augment_code_sample(sample, NAMES, rng)
        assert out.line_indices is not None
        assert len(out.line_indices) == len(out.tokens)


def _stacked_code_operators(sample: Sample, names, rng) -> Sample:
    """augment_code_sample as the public operators stack, each finding the
    code positions on every call: the reference the positional path must
    equal."""
    context = {"StackTrace": "stack_trace", "CodeSnippet": "snippet"}.get(sample.kind, "prose")
    lines = list(sample.line_indices) if sample.line_indices is not None else None
    tokens = code_token_replace(sample.tokens, names, rng)
    tokens, inserted = traced_insert(tokens, names, rng)
    if lines is not None and inserted is not None:
        anchor, index = inserted
        lines.insert(index, lines[anchor])
    tokens = code_token_swap(tokens, context, rng, line_indices=lines)
    return Sample(kind=sample.kind, tokens=tokens, source_span=sample.source_span, line_indices=lines)


_CODE_SAMPLE_TOKENS = st.lists(
    st.builds(Token, st.sampled_from(["AsyncChannel", "timesOut", "at", "the", "org.x.Pool.run"]),
              st.booleans()),
    max_size=14,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tokens=_CODE_SAMPLE_TOKENS, kind=st.sampled_from(["StackTrace", "CodeSnippet", "OB"]),
       data=st.data(), seed=st.integers(0, 2**32 - 1), given_code=st.booleans())
def test_augment_code_sample_equals_the_stacked_operators(tokens, kind, data, seed, given_code):
    lines = None
    if kind == "StackTrace":
        lines = sorted(data.draw(st.lists(st.integers(0, 4), min_size=len(tokens),
                                          max_size=len(tokens))))
    sample = Sample(kind=kind, tokens=tokens, source_span=(1, 2), line_indices=lines)
    code = tuple(i for i, t in enumerate(tokens) if t.is_code) if given_code else None
    assert (augment_code_sample(sample, NAMES, random.Random(seed), code)
            == _stacked_code_operators(sample, NAMES, random.Random(seed)))


def test_mine_code_names_collects_classes_and_methods():
    hunks = [
        make_hunk(
            "h1",
            "cs1",
            "AsyncDispatcher",
            lines=(
                ("added", "    dispatcher.fireEvent(payload);"),
                ("removed", "    if (ready) legacyCall();"),
                ("context", "    contextOnly();"),
            ),
        )
    ]
    names = mine_code_names("b1", hunks)
    assert "AsyncDispatcher" in names.names
    assert "fireEvent" in names.names
    assert "legacyCall" in names.names
    assert "if" not in names.names  # keyword filtered
    assert "contextOnly" not in names.names  # context lines are not mined


def test_mine_code_names_leaves_out_a_class_name_with_whitespace():
    hunks = [make_hunk("h1", "cs1", "ByteBufferPool Copy",
                       lines=(("added", "    pool.release(buffer);"),)),
             make_hunk("h2", "cs1", "SessionManager")]
    names = mine_code_names("b1", hunks)
    assert names.names == ("SessionManager", "release")


def test_load_code_name_dicts_round_trip(tmp_path):
    import json

    from bugaug.code_ops import load_code_name_dicts

    path = tmp_path / "names.json"
    path.write_text(json.dumps({"b1": ["Zeta", "Alpha", "Alpha"], "b2": ["solo"]}), "utf-8")
    loaded = load_code_name_dicts(path)
    assert loaded["b1"].names == ("Alpha", "Zeta")  # deduplicated, sorted
    assert loaded["b2"].names == ("solo",)


def test_load_code_name_dicts_rejects_a_string_of_names(tmp_path):
    import json

    from bugaug.code_ops import load_code_name_dicts

    path = tmp_path / "names.json"
    path.write_text(json.dumps({"b1": ["Alpha"], "b2": "Alpha"}), "utf-8")
    with pytest.raises(ValueError, match="'b2'"):
        load_code_name_dicts(path)
