from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug.diffs import DiffParseError, derive_class_name, parse_unified_diff, serialize_hunks
from bugaug.model import Hunk

SINGLE_HUNK = """\
--- a/src/Foo.java
+++ b/src/Foo.java
@@ -1,2 +1,3 @@
 context line
+added line
 second context
"""

TWO_FILES = """\
--- a/java/org/apache/Alpha.java
+++ b/java/org/apache/Alpha.java
@@ -1,2 +1,2 @@
 keep
-old alpha
+new alpha
@@ -10,1 +10,2 @@
 tail
+alpha extra
--- a/java/org/apache/Beta.java
+++ b/java/org/apache/Beta.java
@@ -5,2 +5,1 @@
-gone
 stays
"""


def test_single_hunk_header_counts():
    hunks = parse_unified_diff(SINGLE_HUNK, "cs1")
    assert len(hunks) == 1
    h = hunks[0]
    assert h.new_len == 3
    assert h.old_len == 2
    assert h.file_path == "src/Foo.java"
    assert [m for m, _ in h.lines] == ["context", "added", "context"]


def test_two_files_three_hunks():
    # hand-built diff: 2 sections for Alpha + 1 for Beta = 3 hunks
    hunks = parse_unified_diff(TWO_FILES, "cs2")
    assert len(hunks) == 3
    assert [h.file_path for h in hunks] == [
        "java/org/apache/Alpha.java",
        "java/org/apache/Alpha.java",
        "java/org/apache/Beta.java",
    ]
    assert [h.class_name for h in hunks] == ["Alpha", "Alpha", "Beta"]
    assert [h.id for h in hunks] == ["cs2#h1", "cs2#h2", "cs2#h3"]


def test_empty_diff():
    assert parse_unified_diff("") == []


def test_git_noise_lines_are_skipped():
    text = (
        "diff --git a/src/Foo.java b/src/Foo.java\n"
        "index abc123..def456 100644\n" + SINGLE_HUNK
    )
    assert len(parse_unified_diff(text)) == 1


def test_short_form_header_defaults_len_to_one():
    text = "--- a/A.java\n+++ b/A.java\n@@ -3 +3 @@\n-x\n+y\n"
    (h,) = parse_unified_diff(text)
    assert (h.old_start, h.old_len, h.new_start, h.new_len) == (3, 1, 3, 1)


def test_no_newline_marker_is_ignored():
    text = "--- a/A.java\n+++ b/A.java\n@@ -1,1 +1,1 @@\n-x\n\\ No newline at end of file\n+y\n"
    (h,) = parse_unified_diff(text)
    assert h.lines == (("removed", "x"), ("added", "y"))


def test_malformed_header_reports_line_number():
    text = "--- a/A.java\n+++ b/A.java\n@@ bogus @@\n"
    with pytest.raises(DiffParseError) as exc:
        parse_unified_diff(text)
    assert exc.value.line_number == 3


def test_hunk_before_file_header_is_an_error():
    with pytest.raises(DiffParseError):
        parse_unified_diff("@@ -1,1 +1,1 @@\n-x\n+y\n")


def test_truncated_body_is_an_error():
    text = "--- a/A.java\n+++ b/A.java\n@@ -1,2 +1,2 @@\n x\n"
    with pytest.raises(DiffParseError):
        parse_unified_diff(text)


def test_deleted_file_uses_old_path():
    text = "--- a/src/Gone.java\n+++ /dev/null\n@@ -1,1 +0,0 @@\n-bye\n"
    (h,) = parse_unified_diff(text)
    assert h.file_path == "src/Gone.java"


def test_round_trip_is_identity():
    for text in (SINGLE_HUNK, TWO_FILES):
        first = parse_unified_diff(text, "cs")
        second = parse_unified_diff(serialize_hunks(first), "cs")
        assert first == second


# line texts hold no character that str.splitlines would break on
_LINE_TEXTS = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=16)
_BODIES = st.lists(st.tuples(st.sampled_from(["context", "added", "removed"]), _LINE_TEXTS),
                   max_size=6)
_SECTIONS = st.tuples(st.integers(0, 999), st.integers(0, 999), _BODIES)
_PATHS = st.sampled_from(["src/Foo.java", "java/org/apache/Alpha.java", "b/Beta.py", "Gamma"])
_FILES = st.lists(st.tuples(_PATHS, st.lists(_SECTIONS, min_size=1, max_size=3)), max_size=4)


@settings(derandomize=True, database=None, deadline=None)
@given(files=_FILES)
def test_parse_inverts_serialize_for_random_hunks(files):
    hunks = []
    for path, sections in files:
        for old_start, new_start, body in sections:
            hunks.append(Hunk(
                id=f"cs#h{len(hunks) + 1}",
                changeset_id="cs",
                file_path=path,
                class_name=derive_class_name(path),
                old_start=old_start,
                old_len=sum(marker != "added" for marker, _ in body),
                new_start=new_start,
                new_len=sum(marker != "removed" for marker, _ in body),
                lines=tuple(body),
            ))
    assert parse_unified_diff(serialize_hunks(hunks), "cs") == hunks


@pytest.mark.parametrize(
    "path,expected",
    [
        ("java/org/apache/Foo.java", "Foo"),
        ("Foo.java", "Foo"),
        ("a/b/READ", "READ"),
    ],
)
def test_derive_class_name(path, expected):
    assert derive_class_name(path) == expected


def test_derive_class_name_rejects_empty():
    with pytest.raises(ValueError):
        derive_class_name("")
