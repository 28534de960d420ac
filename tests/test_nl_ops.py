from __future__ import annotations

import json
import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug.extract import PatternDictionary, classify_tokens, detect_code_tokens, tokenize
from bugaug.model import Sample, Token
from bugaug.nl_ops import (
    REJECTED,
    AugConfig,
    QualityControl,
    SubstituteDictionary,
    augment_paragraph,
    dictionary_insert,
    dictionary_replace,
    identity_paraphraser,
    make_shuffle_paraphraser,
    op_budget,
    random_delete,
    random_swap,
)

from conftest import random_tokens


def _toks(text: str, code=()) -> list[Token]:
    return [Token(t, is_code=t in code) for t in text.split()]


def _texts(tokens) -> list[str]:
    return [t.text for t in tokens]


def test_token_rejects_empty_or_whitespace_text():
    for bad in ("", "a b", " a", "a\t", "\n"):
        with pytest.raises(ValueError, match="bad token text"):
            Token(bad)
    assert Token("a.b()").text == "a.b()"


# --- budgets ---------------------------------------------------------------


def test_budget_replace_thirty_tokens():
    assert op_budget(30, 0.1, "replace") == 3


def test_budget_delete_floors():
    assert op_budget(30, 0.05, "delete") == 1
    assert op_budget(10, 0.05, "delete") == 0


def test_budget_floor_of_one_for_short_paragraphs():
    assert op_budget(5, 0.1, "swap") == 1
    assert op_budget(2, 0.1, "insert") == 1
    assert op_budget(1, 0.1, "replace") == 0
    assert op_budget(0, 0.1, "replace") == 0


def test_budget_rejects_unknown_kind():
    with pytest.raises(ValueError):
        op_budget(10, 0.1, "mangle")


# --- dictionary replace ------------------------------------------------------


def test_replace_single_candidate():
    dictionary = SubstituteDictionary({"timeout": ("hang",)})
    out = dictionary_replace(_toks("does not timeout"), dictionary, 1, random.Random(0))
    assert _texts(out) == ["does", "not", "hang"]


def test_replace_context_to_session_is_reachable(substitutes):
    tokens = _toks("Async connector does not timeout with HTTP NIO context.")
    seen = set()
    for seed in range(50):
        out = dictionary_replace(tokens, substitutes, 1, random.Random(seed))
        seen.add(" ".join(_texts(out)))
    assert "Async connector does not timeout with HTTP NIO session." in seen


def test_replace_n_zero_is_identity(substitutes):
    tokens = _toks("the request fails")
    assert dictionary_replace(tokens, substitutes, 0, random.Random(1)) == tokens


def test_replace_preserves_capitalization_and_punctuation():
    dictionary = SubstituteDictionary({"blocked": ("dead",), "fails": ("crashes",)})
    out = dictionary_replace(_toks("Blocked! it fails."), dictionary, 2, random.Random(3))
    assert _texts(out) == ["Dead!", "it", "crashes."]


def test_replace_never_touches_code_tokens():
    dictionary = SubstituteDictionary({"timeout": ("hang",)})
    tokens = _toks("timeout timeout", code=("timeout",))  # both marked code
    assert dictionary_replace(tokens, dictionary, 5, random.Random(0)) == tokens


def test_replace_caps_at_candidate_count():
    dictionary = SubstituteDictionary({"fails": ("crashes",)})
    out = dictionary_replace(_toks("fails fails fails"), dictionary, 99, random.Random(0))
    assert _texts(out) == ["crashes", "crashes", "crashes"]


# --- dictionary insert -------------------------------------------------------


def test_insert_grows_length_by_one():
    dictionary = SubstituteDictionary({"fails": ("crashes",)})
    tokens = _toks("the widget fails on start")
    out = dictionary_insert(tokens, dictionary, 1, random.Random(5))
    assert len(out) == len(tokens) + 1
    assert Counter(_texts(out)) == Counter(_texts(tokens)) + Counter(["crashes"])


def test_insert_blocked_to_dead(substitutes):
    tokens = _toks("the channel is blocked now")
    seen = set()
    for seed in range(40):
        out = dictionary_insert(tokens, substitutes, 1, random.Random(seed))
        seen.update(_texts(out))
    assert "dead" in seen


def test_insert_with_empty_dictionary_is_identity():
    dictionary = SubstituteDictionary({})
    tokens = _toks("nothing to do here")
    assert dictionary_insert(tokens, dictionary, 3, random.Random(0)) == tokens


# --- random swap -------------------------------------------------------------


def test_swap_can_produce_the_does_timeout_not_variant():
    tokens = _toks("Async connector does not timeout with HTTP NIO context.", code=("Async",))
    target = "Async connector does timeout not with HTTP NIO context."
    outputs = {" ".join(_texts(random_swap(tokens, 1, random.Random(seed)))) for seed in range(300)}
    assert target in outputs


def test_swap_single_token_unchanged():
    tokens = _toks("lonely")
    assert random_swap(tokens, 1, random.Random(0)) == tokens


def test_swap_preserves_multiset_and_code_positions():
    rng = random.Random(11)
    for _ in range(200):
        tokens = random_tokens(rng, rng.randint(2, 20))
        out = random_swap(tokens, rng.randint(0, 4), rng)
        assert Counter(_texts(out)) == Counter(_texts(tokens))
        for i, tok in enumerate(tokens):
            if tok.is_code:
                assert out[i] == tok


# --- random delete -----------------------------------------------------------


def test_delete_zero_is_identity():
    tokens = _toks("a b c")
    assert random_delete(tokens, 0, random.Random(0)) == tokens


def test_delete_gives_submultiset():
    rng = random.Random(13)
    for _ in range(200):
        tokens = random_tokens(rng, rng.randint(1, 20))
        out = random_delete(tokens, rng.randint(0, 3), rng)
        assert not Counter(_texts(out)) - Counter(_texts(tokens))
        assert len(out) <= len(tokens)


def test_delete_never_removes_code_tokens():
    tokens = _toks("AsyncContext NioChannel", code=("AsyncContext", "NioChannel"))
    assert random_delete(tokens, 5, random.Random(0)) == tokens


# --- all NL operators -----------------------------------------------------------

# dictionary keywords (some capitalized or punctuated), plain words and code
# names; a keyword marked as code must survive the replace operator untouched
_VOCAB = ("fails", "Blocked!", "timeout", "close", "session.", "the", "widget", "never",
          "AsyncContext", "NioChannel.flush()", "byteBuffer")
_TOKENS = st.lists(st.builds(Token, text=st.sampled_from(_VOCAB), is_code=st.booleans()),
                   max_size=30)


@pytest.mark.parametrize("operator", ["dictionary_replace", "dictionary_insert", "random_swap",
                                      "random_delete"])
@settings(derandomize=True, database=None, deadline=None)
@given(tokens=_TOKENS, n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_nl_operators_never_drop_or_alter_a_code_token(operator, substitutes, tokens, n, seed):
    rng = random.Random(seed)
    if operator == "dictionary_replace":
        out = dictionary_replace(tokens, substitutes, n, rng)
    elif operator == "dictionary_insert":
        out = dictionary_insert(tokens, substitutes, n, rng)
    elif operator == "random_swap":
        out = random_swap(tokens, n, rng)
    else:
        out = random_delete(tokens, n, rng)
    assert [t for t in out if t.is_code] == [t for t in tokens if t.is_code]


# --- dictionaries -------------------------------------------------------------


def test_dictionary_validation_rejects_self_mapping():
    with pytest.raises(ValueError):
        SubstituteDictionary({"fails": ("fails",)})


def test_dictionary_validation_rejects_uppercase_keys():
    with pytest.raises(ValueError):
        SubstituteDictionary({"Fails": ("crashes",)})


def test_dictionary_validation_rejects_empty_substitutes():
    with pytest.raises(ValueError):
        SubstituteDictionary({"fails": ()})


def test_bundled_substitutes_keep_categories_stable(patterns, substitutes):
    """Replacing a category keyword must not silently change the label: every
    substitute of an OB/EB/S2R keyword belongs to the same keyword list."""
    categories = {
        "OB": patterns.negative_verbs | patterns.negations,
        "EB": patterns.eb,
        "S2R": patterns.s2r,
    }
    for keyword, subs in substitutes.entries.items():
        for name, members in categories.items():
            if keyword in members:
                for sub in subs:
                    assert sub in members, f"{keyword} -> {sub} leaves {name}"
            else:
                for sub in subs:
                    assert sub not in members, f"{keyword} -> {sub} enters {name}"


# --- quality control ----------------------------------------------------------


def _qc(patterns, identifiers=()) -> QualityControl:
    return QualityControl(patterns=patterns, identifiers=frozenset(identifiers))


def _paragraph(text: str, patterns, identifiers=()) -> Sample:
    tokens = detect_code_tokens(tokenize(text), identifiers)
    return Sample(kind=classify_tokens(tokens, patterns), tokens=tokens)


def test_augment_accepts_and_preserves_category_and_code_count(patterns, substitutes):
    qc = _qc(patterns, identifiers=("Async",))
    paragraph = _paragraph(
        "Async connector does not timeout with HTTP NIO context.", patterns, identifiers=("Async",)
    )
    assert paragraph.kind == "OB"
    config = AugConfig(seed=99, qc_max_retries=10)
    result = augment_paragraph(paragraph, substitutes, config, identity_paraphraser, qc, ("b", 1, 0))
    assert result is not REJECTED
    assert qc.category(result.tokens) == "OB"
    assert qc.code_token_count(result.tokens) == qc.code_token_count(paragraph.tokens)


def test_augment_rejects_when_paraphraser_destroys_code_token(patterns, substitutes):
    # the paraphraser rewrites the code word into a plain one; the count check
    # must catch it no matter how the change slipped past the operators
    qc = _qc(patterns, identifiers=("Async",))
    paragraph = _paragraph(
        "Async connector does not timeout with HTTP NIO context.", patterns, identifiers=("Async",)
    )

    def break_async(text: str) -> str:
        return text.replace("Async", "TCP")

    config = AugConfig(seed=4, qc_max_retries=5)
    result = augment_paragraph(paragraph, substitutes, config, break_async, qc, ("b", 1, 0))
    assert result is REJECTED


def test_augment_rejects_when_category_is_lost(patterns, substitutes):
    qc = _qc(patterns)
    paragraph = _paragraph("The request should return 200.", patterns)
    assert paragraph.kind == "EB"

    def drop_marker(text: str) -> str:
        return text.replace("should", "will").replace("ought", "will").replace("must", "will")

    config = AugConfig(seed=4, qc_max_retries=5)
    result = augment_paragraph(paragraph, substitutes, config, drop_marker, qc, ("b", 1, 0))
    assert result is REJECTED


def test_augment_is_deterministic_under_seed(patterns, substitutes):
    qc = _qc(patterns)
    paragraph = _paragraph("The SessionManager fails and the request hangs forever.", patterns)
    config = AugConfig(seed=1234)
    runs = [
        augment_paragraph(paragraph, substitutes, config, identity_paraphraser, qc, ("bug", 2, 1))
        for _ in range(2)
    ]
    assert runs[0] is not REJECTED
    assert [t for t in runs[0].tokens] == [t for t in runs[1].tokens]


def test_augment_rejects_non_nl_kinds(patterns, substitutes):
    sample = Sample(kind="StackTrace", tokens=[Token("at")])
    with pytest.raises(ValueError):
        augment_paragraph(sample, substitutes, AugConfig(), identity_paraphraser, _qc(patterns))


# --- paraphrasers ---------------------------------------------------------------


def test_identity_paraphraser():
    assert identity_paraphraser("abc") == "abc"


def test_shuffle_paraphraser_preserves_code_tokens(patterns, substitutes):
    paraphrase = make_shuffle_paraphraser(substitutes, seed=5, identifiers=("JarScanner",))
    text = "JarScanner keeps handles open, the build fails."
    out = paraphrase(text)
    assert "JarScanner" in out.split()
    before = [t.text for t in detect_code_tokens(tokenize(text), ("JarScanner",)) if t.is_code]
    after = [t.text for t in detect_code_tokens(tokenize(out), ("JarScanner",)) if t.is_code]
    assert Counter(before) == Counter(after)


def test_shuffle_paraphraser_with_empty_dict_rotates_only():
    paraphrase = make_shuffle_paraphraser(SubstituteDictionary({}), seed=5)
    out = paraphrase("first clause, second clause")
    assert Counter(out.split()) == Counter("first clause, second clause".split())
    assert out == "second clause first clause,"


def test_aug_config_validation():
    with pytest.raises(ValueError):
        AugConfig(lambda_replace=1.5)
    with pytest.raises(ValueError):
        AugConfig(qc_max_retries=0)


def test_service_paraphraser_round_trip_and_fallbacks(monkeypatch, caplog):
    import threading
    import urllib.request
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from bugaug.nl_ops import SERVICE_FAILURE_BUDGET, make_service_paraphraser

    requests = []

    class UpperHandler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            body = self.rfile.read(length).decode("utf-8")
            requests.append(body)
            failed = self.path == "/empty" or body == "fail"
            payload = ("" if failed else body.upper()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    def switch_warnings():
        return sum("switching to identity" in r.getMessage() for r in caplog.records)

    server = HTTPServer(("127.0.0.1", 0), UpperHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_port}"
        paraphrase = make_service_paraphraser(base + "/", timeout=5.0)
        assert paraphrase("make it loud") == "MAKE IT LOUD"
        # empty response falls back to identity
        empty = make_service_paraphraser(base + "/empty", timeout=5.0)
        assert empty("unchanged text") == "unchanged text"

        # one success between failures resets the count of consecutive failures
        flaky = make_service_paraphraser(base + "/", timeout=5.0)
        requests.clear()
        texts = ["fail", "fail", "ok", "fail", "fail", "ok", "fail", "fail", "fail", "ok"]
        with caplog.at_level(logging.WARNING):
            outputs = [flaky(t) for t in texts]
        assert outputs == ["fail", "fail", "OK", "fail", "fail", "OK", "fail", "fail", "fail", "ok"]
        assert requests == texts[:9]
        assert switch_warnings() == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    # unreachable service falls back to identity
    dead = make_service_paraphraser(f"http://127.0.0.1:{server.server_port}/", timeout=0.5)
    assert dead("still here") == "still here"

    # ... and is called SERVICE_FAILURE_BUDGET times in a row at most
    calls = []
    urlopen = urllib.request.urlopen
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda *a, **k: calls.append(a) or urlopen(*a, **k))
    caplog.clear()
    dead = make_service_paraphraser(f"http://127.0.0.1:{server.server_port}/", timeout=0.5)
    with caplog.at_level(logging.WARNING):
        assert [dead(f"text {i}") for i in range(10)] == [f"text {i}" for i in range(10)]
    assert len(calls) == SERVICE_FAILURE_BUDGET == 3
    assert switch_warnings() == 1


def test_strip_punctuation_output_never_matches_punctuation_set():
    import random as _random

    from bugaug.extract import PUNCTUATION_CHARS, strip_punctuation

    rng = _random.Random(3)
    pieces = ["foo", "a.b", "x()", "{", "};", "bar_baz", "...", "v,", "(y)"]
    for _ in range(200):
        tokens = [Token(rng.choice(pieces)) for _ in range(rng.randint(1, 10))]
        for out in strip_punctuation(tokens):
            assert not all(c in PUNCTUATION_CHARS for c in out.text)
