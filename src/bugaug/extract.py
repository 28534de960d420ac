"""Bug-report structure extraction.

Decomposes raw bug-report text into stack traces, code snippets, and
natural-language paragraphs labeled OB (observed behavior), EB (expected
behavior), or S2R (steps to reproduce), with noise reduction for traces and
punctuation filtering for snippets.
"""

from __future__ import annotations

import functools
import json
import re
import string
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .model import BugReport, Sample, StructuredBugReport, Token, is_word, json_object, str_list

DEFAULT_LIBRARY_PREFIXES = ("java.", "javax.", "sun.", "jdk.")

# punctuation filtered from code snippets; underscore is an identifier character
PUNCTUATION_CHARS = "".join(c for c in string.punctuation if c != "_")

_CODE_LINE_KEYWORDS = frozenset(
    """public private protected class interface enum void int long double float
    boolean char byte short return if else for while do try catch finally throw
    throws import package static final new switch case break continue this super
    synchronized abstract var def""".split()
)

_EXC_CLASS = r"(?:[A-Za-z_$][\w$]*\.)*[A-Za-z_$][\w$]*?(?:Exception|Error)"
_HEADER_RE = re.compile(
    r"^\s*(?:Exception in thread \"[^\"]*\"\s*:?\s*)?(?P<cls>" + _EXC_CLASS + r")\b"
)
_CAUSED_BY_RE = re.compile(r"^\s*Caused by:\s+(?P<cls>" + _EXC_CLASS + r")\b")
_AT_FRAME_RE = re.compile(r"^\s*at\s+(?P<loc>[\w$.<>/]+)\s*\((?P<src>[^)]*)\)")
_ELLIPSIS_RE = re.compile(r"^\s*\.\.\.\s*\d+\s+more\s*$")

_CAMEL_RE = re.compile(r"[a-z][A-Z]")
_SNAKE_RE = re.compile(r"^[A-Za-z0-9]+(?:_[A-Za-z0-9]+)+$")
_DOTTED_RE = re.compile(r"[A-Za-z_$][\w$]*\.[A-Za-z_$]")
_NUMBERED_STEP_RE = re.compile(r"^\d+[.)]$")


# --- tokens -------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    return text.split()


def word_core(token: str) -> str:
    """Token text with surrounding punctuation stripped ('context.' -> 'context')."""
    return token.strip(PUNCTUATION_CHARS)


@functools.cache
def keyword_form(token: str) -> str:
    """word_core(token).lower(), the form dictionary keywords take. Memoized:
    the cache grows with a corpus's vocabulary, not with its length."""
    return word_core(token).lower()


def is_code_token(text: str, identifiers: Iterable[str] = ()) -> bool:
    core = word_core(text)
    if text in identifiers or core in identifiers:
        return True
    if _CAMEL_RE.search(text):
        return True
    if core and _SNAKE_RE.match(core):
        return True
    if _DOTTED_RE.search(text):
        return True
    if text.rstrip(".,;:!?'\"").endswith("()"):
        return True
    return False


@functools.cache
def _token(word: str, identifiers: frozenset[str]) -> Token:
    """word's Token under identifiers. Memoized per process: Token is frozen,
    so each distinct word is classified once and its Token shared. A hit
    compares identifiers, which is cheap only when the caller passes the
    same frozenset object every time."""
    return Token(text=word, is_code=is_code_token(word, identifiers))


def detect_code_tokens(tokens: Sequence[str], identifiers: Iterable[str] = ()) -> list[Token]:
    """Mark code tokens: camelCase, snake_case, dotted paths, calls, or known identifiers."""
    identifiers = frozenset(identifiers)  # a frozenset is returned as it is
    return [_token(word, identifiers) for word in tokens]


def strip_punctuation(snippet_tokens: Sequence[Token]) -> list[Token]:
    """Drop punctuation-only tokens and split identifiers on punctuation.

    'a.b.c()' becomes three tokens a b c; fragments keep the parent's code flag.
    """
    out: list[Token] = []
    for tok in snippet_tokens:
        for fragment in re.split("[" + re.escape(PUNCTUATION_CHARS) + "]+", tok.text):
            if fragment:
                out.append(Token(text=fragment, is_code=tok.is_code))
    return out


# --- pattern dictionary -------------------------------------------------

# a word's category bits: the keyword lists its keyword form is in, and
# whether it is a numbered step ("1." or "2)"); _TWO_STEPS is set only by
# classify_tokens, at a paragraph's second numbered step
_S2R_WORD, _EB_WORD, _OB_WORD, _NUMBERED_STEP = 1, 2, 4, 8
_TWO_STEPS = _NUMBERED_STEP << 1


class _WordBits(dict):
    """word -> its category bits, computed the first time the word is looked
    up and kept."""

    def __init__(self, s2r: frozenset[str], eb: frozenset[str], ob: frozenset[str]):
        super().__init__()
        self.lists = ((s2r, _S2R_WORD), (eb, _EB_WORD), (ob, _OB_WORD))

    def __missing__(self, word: str) -> int:
        core = keyword_form(word)
        bits = _NUMBERED_STEP if _NUMBERED_STEP_RE.match(word) else 0
        for words, bit in self.lists:
            if core in words:
                bits |= bit
        self[word] = bits
        return bits


@dataclass(frozen=True)
class PatternDictionary:
    """Keyword lists that decide whether a paragraph reads as OB, EB, or S2R.
    `word_bits` maps a non-code word to its category bits, memoized per
    instance."""

    negative_verbs: frozenset[str]
    negations: frozenset[str]
    eb: frozenset[str]
    s2r: frozenset[str]
    word_bits: _WordBits = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "word_bits",
                           _WordBits(self.s2r, self.eb, self.negations | self.negative_verbs))

    @classmethod
    def from_dict(cls, data: dict) -> "PatternDictionary":
        ob = json_object(data).get("OB", {})
        if not isinstance(ob, dict):
            raise ValueError(f"'OB': expected an object of word lists, got {type(ob).__name__} {ob!r}")

        def words(section: dict, key: str) -> frozenset[str]:
            items = str_list(section.get(key, []), key)
            for w in items:
                # a paragraph's words are matched in their keyword form
                if not is_word(w) or keyword_form(w) != w.lower():
                    raise ValueError(f"{key!r}: {w!r} can never match: a pattern word must be one "
                                     "word without surrounding punctuation")
            return frozenset(w.lower() for w in items)

        return cls(
            negative_verbs=words(ob, "negative_verbs"),
            negations=words(ob, "negations"),
            eb=words(data, "EB"),
            s2r=words(data, "S2R"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "PatternDictionary":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def default(cls) -> "PatternDictionary":
        data = resources.files("bugaug").joinpath("data/patterns.json").read_text("utf-8")
        return cls.from_dict(json.loads(data))


def classify_tokens(tokens: Sequence[Token], patterns: PatternDictionary) -> str:
    """Label a token sequence OB/EB/S2R/Other; priority S2R > EB > OB. Code
    tokens are not read. S2R needs an S2R keyword or two numbered steps, EB
    an EB keyword, OB a negation or a negative verb."""
    word_bits = patterns.word_bits
    found = 0
    for t in tokens:
        if not t.is_code:
            bits = word_bits[t.text]
            # a numbered step already found makes this one the second
            found |= bits | (bits & found & _NUMBERED_STEP) << 1
    if found & (_S2R_WORD | _TWO_STEPS):
        return "S2R"
    if found & _EB_WORD:
        return "EB"
    if found & _OB_WORD:
        return "OB"
    return "Other"


def _lines_with_offsets(text: str) -> list[tuple[int, int, str]]:
    out = []
    pos = 0
    for raw in text.splitlines(keepends=True):
        line = raw.rstrip("\r\n")
        out.append((pos, pos + len(line), line))
        pos += len(raw)
    return out


# --- stack traces -------------------------------------------------------


def _is_app_frame(line: str, library_prefixes: Sequence[str]) -> bool:
    """True if line is an 'at ...' frame whose class, with any Java 9+
    'module/' prefix dropped, matches no library prefix."""
    at = _AT_FRAME_RE.match(line)
    if not at:
        return False
    loc = at.group("loc").rsplit("/", 1)[-1]
    return not loc.rsplit(".", 1)[0].startswith(tuple(library_prefixes))


def _find_traces(lines: Sequence[str]) -> list[tuple[int, int]]:
    """Locate traces as (start_line, end_line_exclusive) ranges.

    A trace starts at an exception-header line immediately followed by at least
    one 'at ...' frame; 'Caused by:' chains and '... N more' lines attach.
    """
    found: list[tuple[int, int]] = []
    i = 0
    while i < len(lines):
        if not (_HEADER_RE.match(lines[i]) and i + 1 < len(lines) and _AT_FRAME_RE.match(lines[i + 1])):
            i += 1
            continue
        j = i + 1
        while j < len(lines):
            if _AT_FRAME_RE.match(lines[j]) or _ELLIPSIS_RE.match(lines[j]):
                j += 1
            elif (
                _CAUSED_BY_RE.match(lines[j])
                and j + 1 < len(lines)
                and _AT_FRAME_RE.match(lines[j + 1])
            ):
                j += 1
            else:
                break
        found.append((i, j))
        i = j
    return found


# --- code snippets ------------------------------------------------------


def _is_code_line(line: str) -> bool:
    stripped = line.strip()
    if not stripped:
        return False
    if stripped.endswith(("{", "}", ";")):
        return True
    if stripped.startswith("@"):
        return True
    first = stripped.split(None, 1)[0]
    return first in _CODE_LINE_KEYWORDS


def _runs(indices: Iterable[int]) -> list[list[int]]:
    """Ascending line indices split into runs of consecutive ones."""
    runs: list[list[int]] = []
    for i in indices:
        if runs and i == runs[-1][-1] + 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def _snippet_sample(block_text: str, span: tuple[int, int], identifiers: Iterable[str]) -> Sample:
    tokens = strip_punctuation(detect_code_tokens(tokenize(block_text), identifiers))
    if not tokens:
        # nothing but punctuation; keep raw tokens so the span stays accounted for
        return Sample(kind="Other", tokens=detect_code_tokens(tokenize(block_text)), source_span=span)
    return Sample(kind="CodeSnippet", tokens=tokens, source_span=span)


# --- whole-report structuring -------------------------------------------


def structure_bug_report(
    bug: BugReport,
    patterns: PatternDictionary,
    library_prefixes: Sequence[str] = DEFAULT_LIBRARY_PREFIXES,
    identifiers: Iterable[str] = (),
) -> StructuredBugReport:
    """Decompose a bug report into ordered stack-trace/snippet/paragraph samples."""
    text = bug.text
    offsets = _lines_with_offsets(text)
    lines = [line for _, _, line in offsets]
    ident_set = frozenset(identifiers)

    samples: list[Sample] = []
    claimed: set[int] = set()

    for start, end in _find_traces(lines):
        claimed.update(range(start, end))
        # keep the header, the first three application frames and the last frame
        app = [k for k in range(start + 1, end - 1) if _is_app_frame(lines[k], library_prefixes)]
        tokens: list[Token] = []
        line_indices: list[int] = []
        for li, k in enumerate(sorted({start, *app[:3], end - 1})):
            line_tokens = detect_code_tokens(tokenize(lines[k]), ident_set)
            tokens.extend(line_tokens)
            line_indices.extend([li] * len(line_tokens))
        samples.append(
            Sample(
                kind="StackTrace",
                tokens=tokens,
                source_span=(offsets[start][0], offsets[end - 1][1]),
                line_indices=line_indices,
            )
        )

    code_lines = (i for i in range(len(lines)) if i not in claimed and _is_code_line(lines[i]))
    for run in _runs(code_lines):
        if len(run) < 2:
            continue
        claimed.update(run)
        span = (offsets[run[0]][0], offsets[run[-1]][1])
        samples.append(_snippet_sample(" ".join(lines[i] for i in run), span, ident_set))

    # remaining lines form paragraphs; blank lines and already-claimed lines
    # split them, and a non-blank line has a token: strip and split agree on
    # whitespace
    prose_lines = (i for i in range(len(lines)) if i not in claimed and lines[i].strip())
    for run in _runs(prose_lines):
        tokens = detect_code_tokens(tokenize(" ".join(lines[i] for i in run)), ident_set)
        kind = classify_tokens(tokens, patterns)
        samples.append(Sample(kind=kind, tokens=tokens, source_span=(offsets[run[0]][0], offsets[run[-1]][1])))

    samples.sort(key=lambda s: s.source_span)
    return StructuredBugReport(bug_id=bug.id, samples=samples)
