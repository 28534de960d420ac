"""Unified-diff parsing: one Hunk per ``@@`` section.

Hunks are the retrieval unit downstream, so parsing is strict: header counts
must match the hunk body, and violations raise with the offending line number.
"""

from __future__ import annotations

import re
from functools import cache
from pathlib import Path
from sys import intern

from .model import MARKER_CODES, Hunk

_HUNK_HEADER = re.compile(
    r"^@@ -(?P<old_start>\d+)(?:,(?P<old_len>\d+))? \+(?P<new_start>\d+)(?:,(?P<new_len>\d+))? @@"
)
# a body line's prefix is its marker's code in Hunk.markers
_LINE_PREFIXES = frozenset(MARKER_CODES.values())

# non-hunk lines emitted by git and friends; skipped during parsing
_NOISE_PREFIXES = (
    "diff ",
    "index ",
    "new file mode",
    "deleted file mode",
    "old mode",
    "new mode",
    "similarity index",
    "rename from",
    "rename to",
    "copy from",
    "copy to",
    "Binary files",
)


class DiffParseError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@cache
def derive_class_name(file_path: str) -> str:
    """File stem without extension: ``a/b/Foo.java`` -> ``Foo``. Cached: a
    diff names one path for each of its hunks."""
    if not file_path:
        raise ValueError("file_path must be non-empty")
    return Path(file_path).stem


def _strip_git_prefix(path: str, prefix: str) -> str:
    path = path.split("\t", 1)[0].strip()
    if path.startswith(prefix):
        return path[len(prefix):]
    return path


def parse_unified_diff(diff_text: str, changeset_id: str = "") -> list[Hunk]:
    """Parse unified-diff text into hunks.

    file_path comes from the ``+++`` header (``b/`` prefix stripped); for
    deletions (``+++ /dev/null``) the ``---`` path is used instead. Hunk ids
    are ``<changeset_id>#h<n>`` with n counting from 1 in file order. Paths
    and class names repeat across hunks and are interned, as hunk_from_dict
    interns them, so each value is held once.
    """
    lines = diff_text.splitlines()
    hunks: list[Hunk] = []
    old_path: str | None = None
    new_path: str | None = None
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("--- "):
            old_path = _strip_git_prefix(line[4:], "a/")
            new_path = None
            i += 1
            continue
        if line.startswith("+++ "):
            new_path = _strip_git_prefix(line[4:], "b/")
            i += 1
            continue
        if line.startswith("@@"):
            match = _HUNK_HEADER.match(line)
            if not match:
                raise DiffParseError(f"malformed hunk header {line!r}", i + 1)
            if new_path is None:
                raise DiffParseError("hunk header before any '+++' file header", i + 1)
            file_path = intern(new_path if new_path != "/dev/null" else (old_path or ""))
            if not file_path:
                raise DiffParseError("hunk has no usable file path", i + 1)
            old_start = int(match.group("old_start"))
            old_len = int(match.group("old_len") or "1")
            new_start = int(match.group("new_start"))
            new_len = int(match.group("new_len") or "1")
            markers, text, i = _read_hunk_body(lines, i + 1, old_len, new_len)
            hunks.append(
                Hunk(
                    id=f"{changeset_id}#h{len(hunks) + 1}",
                    changeset_id=changeset_id,
                    file_path=file_path,
                    class_name=intern(derive_class_name(file_path)),
                    old_start=old_start,
                    old_len=old_len,
                    new_start=new_start,
                    new_len=new_len,
                    markers=markers,
                    text=text,
                )
            )
            continue
        if line.startswith(_NOISE_PREFIXES) or not line.strip():
            i += 1
            continue
        raise DiffParseError(f"unexpected line outside hunk: {line!r}", i + 1)
    return hunks


def _read_hunk_body(lines: list[str], start: int, old_len: int, new_len: int) -> tuple[str, str, int]:
    """The body's markers and text (see Hunk) and the index of the line after it."""
    prefixes: list[str] = []
    texts: list[str] = []
    remaining_old = old_len
    remaining_new = new_len
    i = start
    while remaining_old > 0 or remaining_new > 0:
        if i >= len(lines):
            raise DiffParseError("hunk body ended before header counts were satisfied", i)
        line = lines[i]
        if line.startswith("\\"):  # "\ No newline at end of file"
            i += 1
            continue
        prefix = line[:1] if line else " "  # empty line == empty context line
        if prefix not in _LINE_PREFIXES:
            raise DiffParseError(f"invalid hunk body line {line!r}", i + 1)
        if prefix != "+":
            remaining_old -= 1
        if prefix != "-":
            remaining_new -= 1
        if remaining_old < 0 or remaining_new < 0:
            raise DiffParseError("hunk body exceeds header counts", i + 1)
        prefixes.append(prefix)
        texts.append(line[1:])
        i += 1
    return "".join(prefixes), "\n".join(texts), i


def serialize_hunks(hunks: list[Hunk]) -> str:
    """Render hunks back to unified-diff text (inverse of parse_unified_diff)."""
    out: list[str] = []
    current_path: str | None = None
    for hunk in hunks:
        if hunk.file_path != current_path:
            out.append(f"--- a/{hunk.file_path}")
            out.append(f"+++ b/{hunk.file_path}")
            current_path = hunk.file_path
        out.append(f"@@ -{hunk.old_start},{hunk.old_len} +{hunk.new_start},{hunk.new_len} @@")
        for marker, text in hunk.lines:
            out.append(MARKER_CODES[marker] + text)
    return "\n".join(out) + ("\n" if out else "")
