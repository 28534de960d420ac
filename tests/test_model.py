from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugaug.model import (
    LINE_MARKERS,
    SAMPLE_KINDS,
    CorpusError,
    Hunk,
    Sample,
    StructuredBugReport,
    Token,
    hunk_from_dict,
    hunk_to_dict,
    is_word,
    jsonl_line,
    report_sample_from_dict,
    structured_from_dict,
    structured_to_dict,
)

from conftest import make_hunk

# words of any characters, unicode whitespace excluded: what Token accepts
_WORDS = st.one_of(
    st.sampled_from(["fails", "getFoo()", "org.demo.Util", "1.", "\"quoted\"", "é", "\\", "{}"]),
    st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc")), min_size=1,
            max_size=6).filter(is_word),
)
_TOKENS = st.lists(st.builds(Token, _WORDS, st.booleans()), max_size=8)


@st.composite
def _samples(draw) -> Sample:
    tokens = draw(_TOKENS)
    kind = draw(st.sampled_from(SAMPLE_KINDS))
    lines = None
    if kind == "StackTrace" or draw(st.booleans()):
        lines = draw(st.lists(st.integers(0, 9), min_size=len(tokens), max_size=len(tokens)))
    span = draw(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    return Sample(kind=kind, tokens=tokens, source_span=span, line_indices=lines)


def _through_a_file(record: dict) -> dict:
    return json.loads(jsonl_line(record))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(bug_id=_WORDS, samples=st.lists(_samples(), max_size=4))
def test_structured_reports_round_trip(bug_id, samples):
    report = StructuredBugReport(bug_id=bug_id, samples=samples)
    record = structured_to_dict(report)
    assert structured_from_dict(_through_a_file(record)) == report
    for sample, written in zip(samples, record["samples"]):
        assert written["text"].split() == [t.text for t in sample.tokens]
        assert written["code"] == [i for i, t in enumerate(sample.tokens) if t.is_code]


def test_a_code_position_past_the_last_token_is_refused():
    with pytest.raises(ValueError, match="out of range"):
        report_sample_from_dict({"kind": "OB", "text": "a b", "code": [2], "line_indices": None})


def test_a_sample_of_the_token_dict_layout_is_refused():
    old = {"kind": "OB", "tokens": [{"text": "fails", "is_code": False}], "line_indices": None}
    with pytest.raises(ValueError, match="token-dict layout"):
        structured_from_dict({"bug_id": "b", "samples": [{**old, "source_span": [0, 5]}]})


# hunk lines as a diff could give them: any text without a "\n", the empty
# text included, and hunks of no line at all
_HUNK_LINES = st.lists(
    st.tuples(st.sampled_from(LINE_MARKERS),
              st.one_of(st.just(""), st.text(st.characters(blacklist_characters="\n",
                                                           blacklist_categories=("Cs",)),
                                             max_size=8))),
    max_size=6)


def _pair_layout_line(hunk: Hunk, lines) -> str:
    """The hunks.jsonl line of hunk as the encoder of the tuple-per-line
    layout wrote it: lines as [marker, text] pairs."""
    return json.dumps({
        "id": hunk.id, "changeset_id": hunk.changeset_id, "file_path": hunk.file_path,
        "class_name": hunk.class_name, "old_start": hunk.old_start, "old_len": hunk.old_len,
        "new_start": hunk.new_start, "new_len": hunk.new_len,
        "lines": [[marker, text] for marker, text in lines],
    }, ensure_ascii=False, sort_keys=True) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(lines=_HUNK_LINES)
@example(lines=[])
@example(lines=[("context", "")])
@example(lines=[("added", ""), ("removed", ""), ("context", "")])
def test_hunk_lines_round_trip_through_the_pair_layout(lines):
    hunk = make_hunk("cs#h1", "cs", "Foo", lines)
    assert hunk.lines == tuple(lines)
    assert hunk.changed_texts() == [text for marker, text in lines if marker != "context"]
    line = jsonl_line(hunk_to_dict(hunk))
    assert hunk_from_dict(json.loads(line)) == hunk
    assert line == _pair_layout_line(hunk, lines)


@pytest.mark.parametrize("entry,message", [
    (["added"], "expected a \\[marker, text\\] pair"),
    (["added", "x", "y"], "expected a \\[marker, text\\] pair"),
    ("added x", "expected a \\[marker, text\\] pair"),
    ({"added": 1, "x": 2}, "expected a \\[marker, text\\] pair"),
    (["changed", "x"], "bad line marker 'changed'"),
    ([["added"], "x"], "bad line marker"),
    (["added", 5], "line text must be a string"),
    (["added", "a\nb"], "line text holds a newline"),
])
def test_a_malformed_hunks_jsonl_line_names_its_hunk_and_index(entry, message):
    record = json.loads(jsonl_line(hunk_to_dict(make_hunk("cs#h7", "cs", "Foo",
                                                          (("context", "a"), ("added", "b"))))))
    record["lines"].insert(1, entry)
    with pytest.raises(CorpusError, match=f"hunk 'cs#h7' line 1: {message}"):
        hunk_from_dict(record)


@pytest.mark.parametrize("lines", ["context x", None])
def test_hunk_lines_that_are_no_list_are_refused(lines):
    with pytest.raises(CorpusError, match="hunk 'cs#h1': lines must be a list"):
        Hunk("cs#h1", "cs", "src/Foo.java", "Foo", 1, 1, 1, 1, lines=lines)
    record = json.loads(jsonl_line(hunk_to_dict(make_hunk("cs#h1", "cs", "Foo", ()))))
    with pytest.raises(CorpusError, match="hunk 'cs#h1': lines must be a list"):
        hunk_from_dict({**record, "lines": lines})


@pytest.mark.parametrize("markers,text", [("x", ""), ("", "a"), (" ", "a\nb"), ("+-", "a")])
def test_markers_that_do_not_code_one_line_each_are_refused(markers, text):
    with pytest.raises(CorpusError, match="do not code one line each"):
        Hunk("cs#h1", "cs", "src/Foo.java", "Foo", 1, 1, 1, 1, markers=markers, text=text)
