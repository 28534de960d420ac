from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug.extract import (
    DEFAULT_LIBRARY_PREFIXES,
    PUNCTUATION_CHARS,
    PatternDictionary,
    _find_traces,
    classify_tokens,
    detect_code_tokens,
    strip_punctuation,
    structure_bug_report,
    tokenize,
)
from bugaug.model import Token

from conftest import make_bug

NPE_TRACE = """\
java.lang.NullPointerException: boom
    at org.apache.catalina.AsyncContext.timeout(AsyncContext.java:312)
    at org.apache.coyote.AbstractProcessor.process(AbstractProcessor.java:59)
    at java.util.concurrent.ThreadPoolExecutor.runWorker(ThreadPoolExecutor.java:1149)
    at java.lang.Thread.run(Thread.java:748)
"""

CAUSED_BY_TRACE = """\
org.demo.WrapperException: request failed
    at org.demo.Api.call(Api.java:10)
    at org.demo.Client.send(Client.java:20)
    at java.util.Timer.run(Timer.java:30)
    at java.lang.Thread.run(Thread.java:40)
Caused by: java.io.IOError: disk gone
    at org.demo.Disk.read(Disk.java:5)
    at org.demo.Disk.open(Disk.java:9)
"""


def _structure(text: str, patterns) -> list:
    """Samples of a report whose whole text is `text`, so spans index into it."""
    return structure_bug_report(make_bug("b", summary=text), patterns).samples


def _traces(text: str) -> list[tuple[int, int]]:
    """(start, end_exclusive) line range of every trace in `text`."""
    return _find_traces(text.splitlines())


def _kept_lines(sample) -> list[str]:
    """The lines a StackTrace sample kept, each as its tokens joined by one space."""
    kept: dict[int, list[str]] = {}
    for token, line in zip(sample.tokens, sample.line_indices):
        kept.setdefault(line, []).append(token.text)
    return [" ".join(kept[i]) for i in sorted(kept)]


def _reduced(text: str, library_prefixes=DEFAULT_LIBRARY_PREFIXES) -> list[list[str]]:
    """The kept lines of every trace in a report whose description is `text`."""
    bug = make_bug("b", summary="Crash", description=text)
    samples = structure_bug_report(bug, PatternDictionary.default(), library_prefixes).samples
    return [_kept_lines(s) for s in samples if s.kind == "StackTrace"]


def _normalized(lines) -> list[str]:
    return [" ".join(line.split()) for line in lines]


def test_npe_trace_has_five_frames(patterns):
    text = "Some prose before.\n\n" + NPE_TRACE + "\nAnd after."
    assert _traces(text) == [(2, 7)]
    samples = _structure(text, patterns)
    assert [s.kind for s in samples].count("StackTrace") == 1
    prose = " ".join(s.text() for s in samples if s.kind != "StackTrace")
    assert "Some prose before." in prose and "And after." in prose
    assert "NullPointerException" not in prose


def test_plain_prose_has_no_traces(patterns):
    prose = "The connector never times out.\nIt just waits."
    assert _traces(prose) == []
    samples = _structure(prose, patterns)
    assert [s.source_span for s in samples] == [(0, len(prose))]
    assert samples[0].kind != "StackTrace"


def test_caused_by_chain_attaches_to_same_trace():
    # 5 header+frame lines plus 3 caused-by lines -> one trace of 8 lines
    assert _traces(CAUSED_BY_TRACE) == [(0, 8)]


def test_header_requires_following_frame(patterns):
    text = "We saw a NullPointerException: boom\nbut no trace followed."
    assert _traces(text) == []
    samples = _structure(text, patterns)
    assert [s.source_span for s in samples] == [(0, len(text))]
    assert samples[0].kind != "StackTrace"


def _frame(i: int, app: bool) -> str:
    pkg = "org.demo.Worker" if app else "java.util.Lib"
    return f"    at {pkg}.m{i}({'Worker' if app else 'Lib'}.java:{i})"


def test_reduce_twenty_frame_trace():
    # lines indexed 0..19: header, 4 library, app at 5..8, library to 18, last 19
    lines = ["org.demo.BoomException: x"]
    for i in range(1, 19):
        lines.append(_frame(i, app=5 <= i <= 8))
    lines.append("    at java.lang.Thread.run(Thread.java:748)")
    assert _traces("\n".join(lines)) == [(0, 20)]
    assert _reduced("\n".join(lines)) == [_normalized([lines[0], lines[5], lines[6], lines[7], lines[19]])]


def test_reduce_two_frame_trace_keeps_both():
    lines = ["org.X.BoomError: x", "    at org.X.A.m(A.java:1)"]
    assert _traces("\n".join(lines)) == [(0, 2)]
    assert _reduced("\n".join(lines)) == [_normalized(lines)]


def test_reduce_trace_without_app_frames_keeps_header_and_bottom():
    lines = ["java.lang.OutOfMemoryError: heap"] + [_frame(i, app=False) for i in range(1, 6)]
    assert _reduced("\n".join(lines)) == [_normalized([lines[0], lines[5]])]


def test_reduce_always_keeps_first_and_last_frames():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 12)
        lines = ["org.demo.RandomException: x"] + [_frame(i, rng.random() < 0.4) for i in range(1, n)]
        traces = _traces("\n".join(lines))
        if not traces:
            continue
        assert traces == [(0, n)]
        (kept,) = _reduced("\n".join(lines))
        assert kept[0] == _normalized(lines[:1])[0]
        assert kept[-1] == _normalized(lines[-1:])[0]
        assert len(kept) <= 5


_FRAME_CLASSES = ("java.util.Lib", "javax.swing.Pane", "sun.misc.Unsafe", "org.demo.Worker",
                  "org.demo.util.Strings", "com.acme.Thing")
# Java 9+ frames name their module before the class; the class alone decides
_MODULES = ("", "java.base/", "com.acme.app/")
_CAUSES = ("Caused by: java.io.IOError: disk gone", "Caused by: org.demo.WrapperException")
# an 'at ...' line and its class
_FRAME = st.builds(lambda module, cls, n: (f"    at {module}{cls}.m{n}({cls.rsplit('.', 1)[1]}.java:{n})",
                                           cls),
                   st.sampled_from(_MODULES), st.sampled_from(_FRAME_CLASSES), st.integers(1, 999))
# what may follow a trace's first frame: a frame, a 'Caused by:' line with its
# frame, or a '... N more' line, as (line, class or None) pairs
_BODY_PART = st.one_of(
    _FRAME.map(lambda frame: [frame]),
    st.tuples(st.sampled_from(_CAUSES), _FRAME).map(lambda cause: [(cause[0], None), cause[1]]),
    st.integers(1, 99).map(lambda n: [(f"    ... {n} more", None)]),
)


@settings(derandomize=True, database=None, deadline=None)
@given(
    first=_FRAME,
    rest=st.lists(_BODY_PART, max_size=12),
    prefixes=st.lists(st.sampled_from(DEFAULT_LIBRARY_PREFIXES + ("org.demo.util.", "com.")),
                      unique=True),
)
def test_structured_trace_keeps_header_first_three_app_frames_and_last(first, rest, prefixes):
    header = "org.demo.BoomException: x"
    body = [first, *(pair for part in rest for pair in part)]
    text = "\n".join([header] + [line for line, _ in body])
    bug = make_bug("b", summary="Crash", description=text)
    (trace,) = [s for s in structure_bug_report(bug, PatternDictionary.default(), prefixes).samples
                if s.kind == "StackTrace"]
    assert trace.source_span == (len(bug.text) - len(text), len(bug.text))
    app = [line for line, cls in body[:-1] if cls is not None and not cls.startswith(tuple(prefixes))]
    assert _kept_lines(trace) == _normalized([header, *app[:3], body[-1][0]])


def test_three_line_method_body_is_one_snippet(patterns):
    text = "public int add(int a, int b) {\n    return a + b;\n}"
    samples = _structure(text, patterns)
    assert [s.kind for s in samples] == ["CodeSnippet"]
    assert samples[0].source_span == (0, len(text))


def test_inline_identifier_is_not_a_snippet(patterns):
    text = "Calling AsyncContext.dispatch() hangs the worker."
    samples = _structure(text, patterns)
    assert [s.source_span for s in samples] == [(0, len(text))]
    assert samples[0].kind != "CodeSnippet"


def test_two_blocks_give_two_snippets(patterns):
    text = (
        "int a = 1;\nint b = 2;\n"
        "\nplain prose in between explains the issue\n\n"
        "foo.close();\nbar.flush();\n"
    )
    kinds = [s.kind for s in _structure(text, patterns)]
    assert kinds.count("CodeSnippet") == 2


_PROSE_LINES = ("The widget leaks memory.", "It should close the handle", "Open the dialog twice",
                "AsyncContext.dispatch() hangs")
_CODE_LINES = ("int a = 1;", "}", "@Override", "foo.close();")
_BLANK_LINES = ("", "   ")
_TRACE_LINES = ("org.demo.BoomException: x", "    at org.demo.Worker.run(Worker.java:1)",
                "    at java.lang.Thread.run(Thread.java:2)")


def _maximal_runs(indices: list[int]) -> list[list[int]]:
    runs: list[list[int]] = []
    for i in indices:
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    # a report's summary may not be empty
    lines=st.lists(st.sampled_from(_PROSE_LINES + _CODE_LINES + _BLANK_LINES), max_size=14).filter(any),
    trace_at=st.one_of(st.none(), st.integers(0, 14)),
)
def test_lines_group_into_maximal_snippet_and_paragraph_runs(lines, trace_at):
    """A snippet is a maximal run of at least two code lines outside the
    trace, a paragraph a maximal run of the other non-blank lines outside it;
    a lone code line reads as prose."""
    lines = list(lines)
    trace: set[int] = set()
    if trace_at is not None:
        trace_at = min(trace_at, len(lines))
        lines[trace_at:trace_at] = _TRACE_LINES
        trace = set(range(trace_at, trace_at + len(_TRACE_LINES)))
    starts = [sum(len(line) + 1 for line in lines[:i]) for i in range(len(lines))]

    def span(run: list[int]) -> tuple[int, int]:
        return starts[run[0]], starts[run[-1]] + len(lines[run[-1]])

    code = [i for i, line in enumerate(lines) if line in _CODE_LINES and i not in trace]
    snippets = [run for run in _maximal_runs(code) if len(run) >= 2]
    in_snippet = {i for run in snippets for i in run}
    paragraphs = _maximal_runs([i for i, line in enumerate(lines)
                                if line.strip() and i not in trace and i not in in_snippet])

    samples = _structure("\n".join(lines), _DEFAULT_PATTERNS)
    spans = [s.source_span for s in samples]
    assert spans == sorted(spans)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    kinds = {s.source_span: s.kind for s in samples}
    assert list(kinds.values()).count("StackTrace") == (trace_at is not None)
    snippet_spans = {span(run) for run in snippets}
    assert {s for s, kind in kinds.items() if kind == "CodeSnippet"} <= snippet_spans
    for run in snippets:
        # a run of nothing but braces has no token left after punctuation filtering
        punctuation_only = all(lines[i] == "}" for i in run)
        assert kinds[span(run)] == ("Other" if punctuation_only else "CodeSnippet")
    paragraph_spans = [span(run) for run in paragraphs]
    assert paragraph_spans == [s for s in spans if kinds[s] != "StackTrace" and s not in snippet_spans]
    for i in code:
        if i not in in_snippet:
            assert any(start <= starts[i] < end for start, end in paragraph_spans)


def _tokens(*texts: str, code=()) -> list[Token]:
    return [Token(t, is_code=t in code) for t in texts]


def test_strip_punctuation_drops_pure_punctuation():
    tokens = _tokens("foo", "(", "bar", ")", ";")
    assert [t.text for t in strip_punctuation(tokens)] == ["foo", "bar"]


def test_strip_punctuation_splits_identifiers():
    tokens = [Token("a.b.c()", is_code=True)]
    out = strip_punctuation(tokens)
    assert [t.text for t in out] == ["a", "b", "c"]
    assert all(t.is_code for t in out)


def test_strip_punctuation_can_empty_out():
    assert strip_punctuation(_tokens("{", "}")) == []


def test_classify_table_sentence_as_ob(patterns):
    samples = _structure("Async connector does not timeout with HTTP NIO context.", patterns)
    assert [s.kind for s in samples] == ["OB"]


def test_classify_should_sentence_as_eb(patterns):
    samples = _structure("The request should return 200.", patterns)
    assert [s.kind for s in samples] == ["EB"]


def test_classify_numbered_steps_as_s2r(patterns):
    samples = _structure("1. open app 2. click save", patterns)
    assert [s.kind for s in samples] == ["S2R"]


def test_classify_priority_s2r_over_eb_over_ob(patterns):
    text = "Steps: 1. it should fail 2. it does not work"
    (sample,) = _structure(text, patterns)
    assert sample.kind == "S2R"


def test_classify_is_deterministic_and_idempotent(patterns):
    text = "The valve leaks memory.\n\nIt should not."
    first = _structure(text, patterns)
    second = _structure(text, patterns)
    assert [(s.kind, s.source_span) for s in first] == [(s.kind, s.source_span) for s in second]
    for sample in first:
        assert classify_tokens(sample.tokens, patterns) == sample.kind


def _brute_force_category(tokens, patterns) -> str:
    """The S2R > EB > OB rule, stated over the non-code words directly."""
    words = [t.text for t in tokens if not t.is_code]
    cores = [w.strip(PUNCTUATION_CHARS).lower() for w in words]
    steps = [w for w in words if re.fullmatch(r"\d+[.)]", w)]
    if len(steps) >= 2 or set(cores) & patterns.s2r:
        return "S2R"
    if set(cores) & patterns.eb:
        return "EB"
    if set(cores) & (patterns.negations | patterns.negative_verbs):
        return "OB"
    return "Other"


_DEFAULT_PATTERNS = PatternDictionary.default()
_KEYWORDS = sorted(_DEFAULT_PATTERNS.s2r | _DEFAULT_PATTERNS.eb | _DEFAULT_PATTERNS.negations
                   | _DEFAULT_PATTERNS.negative_verbs)
# keywords and numbered steps, wrapped in punctuation or in upper case, and plain words
_CATEGORY_WORDS = st.one_of(
    st.builds(lambda pre, word, post: pre + word + post,
              st.sampled_from(["", "(", "\"", "*"]),
              st.one_of(st.sampled_from(_KEYWORDS), st.sampled_from(_KEYWORDS).map(str.upper),
                        st.sampled_from(_KEYWORDS).map(str.title)),
              st.sampled_from(["", ".", ",", ":", "!)", "'"])),
    st.builds("{}{}".format, st.integers(0, 12), st.sampled_from([".", ")", "", ".)", ":"])),
    st.sampled_from(["the", "request", "Steps", "1", "12.5", "AsyncContext"]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(words=st.lists(st.tuples(_CATEGORY_WORDS, st.booleans()), max_size=10))
def test_classify_tokens_is_the_s2r_eb_ob_rule(words):
    """The memoized per-word bits fold to the rule's label; a code token's
    word counts for nothing, even if it is a keyword or a step."""
    patterns = PatternDictionary.default()
    tokens = [Token(word, is_code) for word, is_code in words]
    assert classify_tokens(tokens, patterns) == _brute_force_category(tokens, patterns)
    assert classify_tokens(tokens, _DEFAULT_PATTERNS) == _brute_force_category(tokens, patterns)


def test_detect_code_tokens_rules():
    tokens = detect_code_tokens(["AsyncContext", "timeout", "check_word_missing_letter"])
    assert [t.is_code for t in tokens] == [True, False, True]


def test_detect_code_tokens_dotted_call_and_identifiers():
    tokens = detect_code_tokens(
        ["org.apache.Foo", "close()", "Async", "plain"], identifiers=("Async",)
    )
    assert [t.is_code for t in tokens] == [True, True, True, False]


def test_structure_covers_input_with_spans(patterns):
    bug = make_bug(
        "b1",
        summary="JarScanner does not close cached jars",
        description=(
            "The scanner keeps file handles open and the build fails.\n"
            "\n"
            "Expected: handles should be released.\n"
            "\n" + NPE_TRACE + "\n"
            "public void close() {\n    handle.release();\n}\n"
        ),
    )
    structured = structure_bug_report(bug, patterns, identifiers=("JarScanner",))
    text = bug.text
    spans = [s.source_span for s in structured.samples]
    assert spans == sorted(spans)
    # non-overlapping, and every gap between spans is whitespace-only
    cursor = 0
    for start, end in spans:
        assert start >= cursor
        assert text[cursor:start].strip() == ""
        cursor = end
    assert text[cursor:].strip() == ""
    kinds = [s.kind for s in structured.samples]
    assert kinds[0] == "OB"  # summary paragraph
    assert "StackTrace" in kinds and "CodeSnippet" in kinds and "EB" in kinds


def test_structure_stack_trace_tokens_carry_line_indices(patterns):
    bug = make_bug("b2", summary="Worker hangs", description=NPE_TRACE)
    structured = structure_bug_report(bug, patterns)
    trace_samples = [s for s in structured.samples if s.kind == "StackTrace"]
    assert len(trace_samples) == 1
    sample = trace_samples[0]
    assert sample.line_indices is not None
    assert len(sample.line_indices) == len(sample.tokens)
    assert sample.line_indices == sorted(sample.line_indices)
    # reduced trace: header + 2 app frames + bottom = 4 lines
    assert sample.line_indices[-1] == 3


def test_structure_is_deterministic(patterns):
    bug = make_bug("b3", summary="CacheRegistry leaks entries", description="It should not.\n\nint x = 1;\nint y = 2;")
    a = structure_bug_report(bug, patterns)
    b = structure_bug_report(bug, patterns)
    assert [(s.kind, [t.text for t in s.tokens]) for s in a.samples] == [
        (s.kind, [t.text for t in s.tokens]) for s in b.samples
    ]


def test_tokenize_never_yields_whitespace():
    for token in tokenize("  a\tb\nc  d "):
        assert token and not any(c.isspace() for c in token)


@pytest.mark.parametrize("data, key", [({"EB": "should"}, "'EB'"),
                                       ({"OB": {"negations": "not"}}, "'negations'"),
                                       ({"OB": ["fails"]}, "'OB'")])
def test_pattern_loading_rejects_a_string_of_keywords(data, key):
    with pytest.raises(ValueError, match=key):
        PatternDictionary.from_dict(data)


@pytest.mark.parametrize("word", ["steps to reproduce", "reproduce.", "(fails)", ""])
def test_pattern_loading_rejects_a_word_that_can_never_match(word):
    """Paragraph words are matched in their keyword form, one word with no
    surrounding punctuation, so a pattern word of any other form is refused,
    by name; case alone is folded."""
    with pytest.raises(ValueError, match=re.escape(f"'S2R': {word!r} can never match")):
        PatternDictionary.from_dict({"S2R": ["Steps", word]})
    assert PatternDictionary.from_dict({"S2R": ["Steps", "can't"]}).s2r == {"steps", "can't"}
