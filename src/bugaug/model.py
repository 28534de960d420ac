"""Domain types shared across the pipeline, plus JSON-lines (de)serialization.

All record types are plain dataclasses with a fixed field order so that
serialized artifacts are byte-stable across runs.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from sys import intern
from typing import IO, Callable, Iterable, Iterator, Sequence

BUG_STATUSES = ("fixed", "wont_fix", "not_a_bug", "other")
LINE_MARKERS = ("context", "added", "removed")
LABELS = ("positive", "negative")

SAMPLE_KINDS = ("OB", "EB", "S2R", "StackTrace", "CodeSnippet", "Other")
NL_KINDS = ("OB", "EB", "S2R")

# the process's event counts, by name ("substitute_hits", ...): a forked
# report or ranking shard clears them when it starts, and builder.write_sharded
# adds each shard's counts to its parent's, so a caller reads what a call did,
# on every CPU, as the difference of COUNTS around it
COUNTS: Counter[str] = Counter()


class CorpusError(ValueError):
    """Raised when an input record violates a corpus invariant."""


@dataclass(frozen=True)
class BugReport:
    id: str
    project: str
    summary: str
    description: str
    opened_at: datetime
    status: str = "fixed"

    def __post_init__(self):
        if not self.summary:
            raise CorpusError(f"bug {self.id!r}: summary must be non-empty")
        if self.status not in BUG_STATUSES:
            raise CorpusError(f"bug {self.id!r}: unknown status {self.status!r}")

    @property
    def text(self) -> str:
        return self.summary + "\n\n" + self.description if self.description else self.summary


@dataclass(frozen=True)
class Changeset:
    id: str
    author: str
    committed_at: datetime
    log_message: str


# each line marker's code in Hunk.markers: the line's unified-diff prefix
MARKER_CODES = {"context": " ", "added": "+", "removed": "-"}
_MARKER_BY_CODE = {code: marker for marker, code in MARKER_CODES.items()}
_CODES = "".join(_MARKER_BY_CODE)
_set_field = object.__setattr__  # what a frozen dataclass's __init__ sets fields with
_FROM_MARKERS = object()  # Hunk's `lines` when it is built from `markers` and `text`


@dataclass(frozen=True, slots=True, init=False)
class Hunk:
    """One ``@@`` section of a diff. Its lines are two strings: `markers`,
    one MARKER_CODES character per line, and `text`, the line texts joined
    by "\n", so no line text holds a "\n". Build it from `lines`, (marker,
    text) pairs with markers from LINE_MARKERS, or from `markers` and `text`;
    `lines` reads the pairs back."""

    id: str
    changeset_id: str
    file_path: str
    class_name: str
    old_start: int
    old_len: int
    new_start: int
    new_len: int
    markers: str
    text: str

    def __init__(self, id: str, changeset_id: str, file_path: str, class_name: str,
                 old_start: int, old_len: int, new_start: int, new_len: int,
                 lines: Sequence[Sequence[str]] = _FROM_MARKERS, *, markers: str = "", text: str = ""):
        if lines is not _FROM_MARKERS:
            markers, text = _pack_lines(id, lines)
        elif markers.strip(_CODES) or not _one_code_per_line(markers, text):
            raise CorpusError(f"hunk {id!r}: markers {markers!r} do not code one line each")
        _set_field(self, "id", id)
        _set_field(self, "changeset_id", changeset_id)
        _set_field(self, "file_path", file_path)
        _set_field(self, "class_name", class_name)
        _set_field(self, "old_start", old_start)
        _set_field(self, "old_len", old_len)
        _set_field(self, "new_start", new_start)
        _set_field(self, "new_len", new_len)
        _set_field(self, "markers", intern(markers))
        _set_field(self, "text", text)

    @property
    def lines(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(map(_MARKER_BY_CODE.__getitem__, self.markers), self.text.split("\n")))

    def changed_texts(self) -> list[str]:
        return [text for code, text in zip(self.markers, self.text.split("\n")) if code != " "]


def _one_code_per_line(markers: str, text: str) -> bool:
    """Whether markers holds one code per line of text; with no markers
    there is no line, so text must be empty."""
    return len(markers) == text.count("\n") + 1 if markers else not text


def _pack_lines(hunk_id: str, lines) -> tuple[str, str]:
    """The markers and text of a list or tuple of [marker, text] pairs, each
    of a LINE_MARKERS marker and a text without "\n"; anything else raises
    CorpusError naming the hunk and the line."""
    if not isinstance(lines, (list, tuple)):
        raise CorpusError(f"hunk {hunk_id!r}: lines must be a list of [marker, text] pairs, "
                          f"got {type(lines).__name__}")
    codes: list[str] = []
    texts: list[str] = []
    for index, entry in enumerate(lines):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            problem = f"expected a [marker, text] pair, got {entry!r}"
        elif entry[0] not in LINE_MARKERS:
            problem = f"bad line marker {entry[0]!r}"
        elif not isinstance(entry[1], str):
            problem = f"line text must be a string, got {entry[1]!r}"
        elif "\n" in entry[1]:
            problem = f"line text holds a newline: {entry[1]!r}"
        else:
            codes.append(MARKER_CODES[entry[0]])
            texts.append(entry[1])
            continue
        raise CorpusError(f"hunk {hunk_id!r} line {index}: {problem}")
    return "".join(codes), "\n".join(texts)


@dataclass(frozen=True)
class LinkRecord:
    bug_id: str
    inducing_changeset_ids: tuple[str, ...]
    fixing_changeset_ids: tuple[str, ...]

    @property
    def usable(self) -> bool:
        return bool(self.inducing_changeset_ids) and bool(self.fixing_changeset_ids)


@dataclass(frozen=True, slots=True)
class TrainingSample:
    bug_ref: str
    origin_bug_id: str
    hunk_id: str
    class_name: str
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise CorpusError(f"sample {self.bug_ref!r}: bad label {self.label!r}")


@dataclass
class Dataset:
    name: str
    samples: list[TrainingSample]

    def positives(self) -> list[TrainingSample]:
        return [s for s in self.samples if s.label == "positive"]

    def positive_counts_by_bug(self) -> Counter[str]:
        return Counter(s.origin_bug_id for s in self.positives())

    def positive_counts_by_class(self) -> Counter[str]:
        return Counter(s.class_name for s in self.positives())

    def __len__(self) -> int:
        return len(self.samples)


def is_word(text: str) -> bool:
    """True if text is one non-empty run of non-whitespace characters: the
    check every token, code name and substitute passes. str.split splits on
    exactly the characters str.isspace accepts, so this is one C call."""
    return text.split() == [text]


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    is_code: bool = False

    def __post_init__(self):
        if not is_word(self.text):
            raise ValueError(f"bad token text {self.text!r}")


@dataclass
class Sample:
    kind: str
    tokens: list[Token]
    source_span: tuple[int, int] = (0, 0)
    # per-token stack-trace line index; only set for StackTrace samples
    line_indices: list[int] | None = None

    def __post_init__(self):
        if self.kind not in SAMPLE_KINDS:
            raise ValueError(f"unknown sample kind {self.kind!r}")
        if self.line_indices is not None and len(self.line_indices) != len(self.tokens):
            raise ValueError("line_indices must align with tokens")

    def text(self) -> str:
        return " ".join(t.text for t in self.tokens)


@dataclass
class StructuredBugReport:
    bug_id: str
    samples: list[Sample]


# --- user dictionaries and word lists ----------------------------------


def json_object(value) -> dict:
    """value, if it is an object: a dictionary file's top level must be one."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object at the top level, got {type(value).__name__}")
    return value


def word_list(value, key: str) -> list | tuple:
    """value, if it is a list of words; a bare string, which would iterate as
    its characters, is refused with the key that holds it."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r}: expected a list of words, got {type(value).__name__} {value!r}")
    return value


def str_list(value, key: str) -> list | tuple:
    """word_list(value, key), if every item is a string: the check of every
    dictionary loader, where str() would make ["fail"] or null a word that
    no report holds."""
    for item in word_list(value, key):
        if not isinstance(item, str):
            raise ValueError(f"{key!r}: expected words, got {type(item).__name__} {item!r}")
    return value


# --- timestamps ---------------------------------------------------------


def parse_timestamp(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    raw = value.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# --- JSON-lines codecs --------------------------------------------------


def read_jsonl(path: str | Path, convert: Callable[[dict], object] | None = None) -> Iterator:
    """The JSON object on each non-blank line of path, or convert(object). A
    line that is not a JSON object, whose object lacks a field convert reads,
    or whose field convert refuses, raises CorpusError naming path and line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise CorpusError(f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}")
            if convert is not None:
                try:
                    record = convert(record)
                except KeyError as exc:
                    raise CorpusError(f"{path}:{lineno}: missing field {exc}") from None
                except (ValueError, TypeError) as exc:
                    raise CorpusError(f"{path}:{lineno}: {exc}") from exc
            yield record


def open_new(path: str | Path, newline: str | None = None, binary: bool = False) -> IO:
    """Open path for writing as a new file, as UTF-8 text or as bytes,
    unlinking any file already there.

    Truncating an existing file in place is slow on ext4, which flushes a file
    truncated to zero when it is closed (auto_da_alloc); a new file is not
    flushed. Readers and hard links that hold the old file keep its contents.
    """
    Path(path).unlink(missing_ok=True)
    if binary:
        return open(path, "wb")
    return open(path, "w", encoding="utf-8", newline=newline)


def jsonl_line(record: dict) -> str:
    """record as one JSON-lines line, newline included: the one format of
    every .jsonl artifact."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with open_new(path) as fh:
        for record in records:
            fh.write(jsonl_line(record))


def bug_to_dict(bug: BugReport) -> dict:
    return {
        "id": bug.id,
        "project": bug.project,
        "summary": bug.summary,
        "description": bug.description,
        "opened_at": format_timestamp(bug.opened_at),
        "status": bug.status,
    }


def _optional_text(d: dict, key: str) -> str:
    """d[key] as text; a missing key or a JSON null reads as ""."""
    value = d.get(key)
    return "" if value is None else str(value)


def bug_from_dict(d: dict) -> BugReport:
    return BugReport(
        id=str(d["id"]),
        project=_optional_text(d, "project"),
        summary=str(d["summary"]),
        description=_optional_text(d, "description"),
        opened_at=parse_timestamp(str(d["opened_at"])),
        status=str(d.get("status", "fixed")),
    )


def changeset_to_dict(cs: Changeset) -> dict:
    return {
        "id": cs.id,
        "author": cs.author,
        "committed_at": format_timestamp(cs.committed_at),
        "log_message": cs.log_message,
    }


def changeset_from_dict(d: dict) -> Changeset:
    return Changeset(
        id=str(d["id"]),
        author=_optional_text(d, "author"),
        committed_at=parse_timestamp(str(d["committed_at"])),
        log_message=_optional_text(d, "log_message"),
    )


def hunk_to_dict(hunk: Hunk) -> dict:
    return {
        "id": hunk.id,
        "changeset_id": hunk.changeset_id,
        "file_path": hunk.file_path,
        "class_name": hunk.class_name,
        "old_start": hunk.old_start,
        "old_len": hunk.old_len,
        "new_start": hunk.new_start,
        "new_len": hunk.new_len,
        "lines": hunk.lines,  # json writes a tuple as a list
    }


def hunk_from_dict(d: dict) -> Hunk:
    # changeset ids, paths, class names and Hunk's markers repeat across a
    # corpus's hunks; interned, each value is held once, as in the hunks
    # ingest parses
    return Hunk(
        id=str(d["id"]),
        changeset_id=intern(str(d["changeset_id"])),
        file_path=intern(str(d["file_path"])),
        class_name=intern(str(d["class_name"])),
        old_start=int(d["old_start"]),
        old_len=int(d["old_len"]),
        new_start=int(d["new_start"]),
        new_len=int(d["new_len"]),
        lines=d["lines"],
    )


def link_to_dict(link: LinkRecord) -> dict:
    return {
        "bug_id": link.bug_id,
        "inducing_changeset_ids": list(link.inducing_changeset_ids),
        "fixing_changeset_ids": list(link.fixing_changeset_ids),
    }


def _id_list(d: dict, key: str) -> tuple[str, ...]:
    return tuple(str(x) for x in word_list(d.get(key, []), key))


def link_from_dict(d: dict) -> LinkRecord:
    return LinkRecord(
        bug_id=str(d["bug_id"]),
        inducing_changeset_ids=_id_list(d, "inducing_changeset_ids"),
        fixing_changeset_ids=_id_list(d, "fixing_changeset_ids"),
    )


def sample_to_dict(sample: TrainingSample) -> dict:
    return {
        "bug_ref": sample.bug_ref,
        "origin_bug_id": sample.origin_bug_id,
        "hunk_id": sample.hunk_id,
        "class_name": sample.class_name,
        "label": sample.label,
    }


def sample_from_dict(d: dict) -> TrainingSample:
    return TrainingSample(
        bug_ref=str(d["bug_ref"]),
        origin_bug_id=str(d["origin_bug_id"]),
        hunk_id=str(d["hunk_id"]),
        class_name=str(d["class_name"]),
        label=str(d["label"]),
    )


def report_sample_to_dict(sample: Sample) -> dict:
    """A sample in the compact layout of structured.jsonl and the report
    files: its tokens as one space-joined text and the positions of its code
    tokens. is_word holds for every token, so text.split() gives them back."""
    return {
        "kind": sample.kind,
        "text": sample.text(),
        "code": [i for i, t in enumerate(sample.tokens) if t.is_code],
        "line_indices": sample.line_indices,
    }


def report_sample_from_dict(d: dict) -> Sample:
    """The sample report_sample_to_dict wrote; a code position that names no
    token, or a sample of the token-dict layout that bugaug 0.1.0 wrote,
    raises ValueError. A report sample keeps no source span: it reads as
    (0, 0)."""
    if "tokens" in d:
        raise ValueError("sample in the token-dict layout of bugaug 0.1.0; rerun its stage")
    words = str(d["text"]).split()
    code = set(d["code"])
    if not code <= set(range(len(words))):
        raise ValueError(f"code positions {sorted(code)} out of range for {len(words)} tokens")
    return Sample(
        kind=str(d["kind"]),
        tokens=[Token(word, i in code) for i, word in enumerate(words)],
        source_span=tuple(d.get("source_span", (0, 0))),
        line_indices=list(d["line_indices"]) if d.get("line_indices") is not None else None,
    )


def structured_to_dict(report: StructuredBugReport) -> dict:
    return {
        "bug_id": report.bug_id,
        "samples": [{**report_sample_to_dict(s), "source_span": list(s.source_span)}
                    for s in report.samples],
    }


def structured_from_dict(d: dict) -> StructuredBugReport:
    return StructuredBugReport(bug_id=str(d["bug_id"]),
                               samples=[report_sample_from_dict(s) for s in d["samples"]])

