"""Natural-language augmentation operators for OB/EB/S2R paragraphs.

Token-level operators (dictionary replace/insert, random swap/delete) stack in
a fixed order, a pluggable paraphraser rewrites the result, and a two-step
quality control accepts only outputs that keep the paragraph's category and
its code-token count. Code tokens are never selected by any NL operator.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .extract import (PatternDictionary, classify_tokens, detect_code_tokens, keyword_form, tokenize,
                      word_core)
from .model import COUNTS, NL_KINDS, Sample, Token, is_word, json_object, str_list
from .rng import derive_rng

log = logging.getLogger(__name__)

Paraphraser = Callable[[str], str]

OP_KINDS = ("replace", "insert", "swap", "delete")

# the paper's per-operator rates: lambda applications per paragraph token
LAMBDAS = {"replace": 0.1, "insert": 0.1, "swap": 0.1, "delete": 0.05}

# seconds the service paraphraser waits for one response
SERVICE_TIMEOUT_S = 10.0

# consecutive failures at which the service paraphraser fails its stage
SERVICE_FAILURE_BUDGET = 3

# attempts augment_paragraph makes at a paragraph before it returns REJECTED
QC_MAX_RETRIES = 10


# what augment_paragraph returns when every retry failed quality control
REJECTED = None


@dataclass(frozen=True)
class SubstituteDictionary:
    """In-domain keyword -> substitutes map driving replace/insert."""

    entries: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for keyword, subs in self.entries.items():
            # a paragraph's words are looked up in their keyword form
            if not is_word(keyword) or keyword_form(keyword) != keyword:
                raise ValueError(f"dictionary keyword {keyword!r} can never match: it must be one "
                                 "lowercase word without surrounding punctuation")
            if not subs:
                raise ValueError(f"dictionary keyword {keyword!r} has no substitutes")
            if keyword in subs:
                raise ValueError(f"dictionary keyword {keyword!r} maps to itself")
            for sub in subs:
                if not is_word(sub):
                    raise ValueError(f"dictionary keyword {keyword!r}: substitute {sub!r} "
                                     "is not one word")

    def __contains__(self, keyword: str) -> bool:
        return keyword in self.entries

    def substitutes(self, keyword: str) -> tuple[str, ...]:
        return self.entries[keyword]

    @classmethod
    def from_dict(cls, data: dict) -> "SubstituteDictionary":
        return cls({k: tuple(str_list(v, k)) for k, v in sorted(json_object(data).items())})

    @classmethod
    def load(cls, path: str | Path) -> "SubstituteDictionary":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def default(cls) -> "SubstituteDictionary":
        data = resources.files("bugaug").joinpath("data/substitutes.json").read_text("utf-8")
        return cls.from_dict(json.loads(data))


def op_budget(token_count: int, kind: str) -> int:
    """Number of applications: floor(LAMBDAS[kind] * tokens), floored at 1 for
    replace/insert/swap on paragraphs of at least 2 tokens; delete uses the
    plain floor."""
    if kind not in OP_KINDS:
        raise ValueError(f"unknown op kind {kind!r}")
    if token_count < 0:
        raise ValueError("token_count must be >= 0")
    n = int(LAMBDAS[kind] * token_count)
    if kind == "delete":
        return n
    return max(1, n) if token_count >= 2 else 0


def _match_case(original_core: str, substitute: str) -> str:
    if original_core.isupper() and len(original_core) > 1:
        return substitute.upper()
    if original_core[:1].isupper():
        return substitute[:1].upper() + substitute[1:]
    return substitute


def _replace_core(original: str, substitute: str) -> str:
    core = word_core(original)
    start = original.find(core)
    return original[:start] + _match_case(core, substitute) + original[start + len(core):]


def _keyword_indices(tokens: Sequence[Token], dictionary: SubstituteDictionary) -> list[int]:
    return [
        i
        for i, t in enumerate(tokens)
        if not t.is_code and keyword_form(t.text) in dictionary
    ]


def _non_code_indices(tokens: Sequence[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens) if not t.is_code]


# Each operator below edits `out` at positions its caller found: the
# public operators find them on every call, augment_paragraph reads them
# from a ParagraphPlan.


def _replace_at(out: list[Token], candidates: Sequence[int], dictionary, n, rng) -> list[int]:
    """Replace up to n of the keywords at candidates, in place; returns the
    positions rewritten, ascending."""
    if n <= 0 or not candidates:
        return []
    chosen = sorted(rng.sample(candidates, min(n, len(candidates))))
    for i in chosen:
        keyword = keyword_form(out[i].text)
        substitute = rng.choice(dictionary.substitutes(keyword))
        out[i] = Token(text=_replace_core(out[i].text, substitute), is_code=False)
    return chosen


def _insert_at(out: list[Token], candidates: Sequence[int], dictionary, n, rng) -> None:
    if n <= 0 or not candidates:
        return
    # resolve keywords first: insertions below shift the candidate indices
    chosen = sorted(rng.sample(candidates, min(n, len(candidates))))
    for keyword in [keyword_form(out[i].text) for i in chosen]:
        substitute = rng.choice(dictionary.substitutes(keyword))
        out.insert(rng.randint(0, len(out)), Token(text=substitute, is_code=False))


def _swap_at(out: list[Token], eligible: Sequence[int], n, rng) -> None:
    if n <= 0 or len(eligible) < 2:
        return
    for _ in range(n):
        i, j = rng.sample(eligible, 2)
        out[i], out[j] = out[j], out[i]


def _delete_at(tokens: Sequence[Token], eligible: Sequence[int], n, rng) -> list[Token]:
    k = min(n, len(eligible))
    if k <= 0:
        return list(tokens)
    doomed = set(rng.sample(eligible, k))
    return [t for i, t in enumerate(tokens) if i not in doomed]


def dictionary_replace(tokens, dictionary, n, rng) -> list[Token]:
    """Replace up to n dictionary keywords with substitutes, keeping the
    original capitalization and surrounding punctuation."""
    out = list(tokens)
    _replace_at(out, _keyword_indices(out, dictionary), dictionary, n, rng)
    return out


def dictionary_insert(tokens, dictionary, n, rng) -> list[Token]:
    """Insert substitutes of up to n present keywords at random positions."""
    out = list(tokens)
    _insert_at(out, _keyword_indices(out, dictionary), dictionary, n, rng)
    return out


def random_swap(tokens, n, rng) -> list[Token]:
    """Swap n random pairs of non-code tokens."""
    out = list(tokens)
    _swap_at(out, _non_code_indices(out), n, rng)
    return out


def random_delete(tokens, n, rng) -> list[Token]:
    """Delete n random non-code tokens; code tokens are never removed."""
    return _delete_at(tokens, _non_code_indices(tokens), n, rng)


# --- quality control -----------------------------------------------------


@dataclass(frozen=True)
class QualityControl:
    """Independent category and code-token checks applied to augmented text,
    which is tokenized as extraction tokenizes a report."""

    patterns: PatternDictionary
    identifiers: frozenset[str]

    def retokenize(self, text: str) -> list[Token]:
        return detect_code_tokens(tokenize(text), self.identifiers)

    def category(self, tokens: Sequence[Token]) -> str:
        return classify_tokens(tokens, self.patterns)

    def code_token_count(self, tokens: Sequence[Token]) -> int:
        return sum(1 for t in tokens if t.is_code)


@dataclass(frozen=True)
class ParagraphPlan:
    """What every augmentation of one OB/EB/S2R paragraph shares: the
    paragraph, its category and code-token count (what QC must keep), the
    op_budget of each of OP_KINDS, in that order, and the replace
    candidates, the positions of its non-code dictionary keywords."""

    paragraph: Sample
    category: str
    code_count: int
    budgets: tuple[int, int, int, int]
    candidates: tuple[int, ...]


def paragraph_plan(paragraph: Sample, dictionary: SubstituteDictionary,
                   qc: QualityControl) -> ParagraphPlan:
    if paragraph.kind not in NL_KINDS:
        raise ValueError(f"augment_paragraph expects OB/EB/S2R, got {paragraph.kind!r}")
    tokens = paragraph.tokens
    return ParagraphPlan(
        paragraph=paragraph,
        category=qc.category(tokens),
        code_count=qc.code_token_count(tokens),
        budgets=tuple(op_budget(len(tokens), kind) for kind in OP_KINDS),
        candidates=tuple(_keyword_indices(tokens, dictionary)),
    )


def augment_paragraph(
    plan: ParagraphPlan,
    dictionary: SubstituteDictionary,
    seed: int,
    paraphraser: Paraphraser,
    qc: QualityControl,
    stream_key: tuple,
):
    """Run replace -> insert -> swap -> delete -> paraphrase on the planned
    paragraph, with the public operators' draws.

    The result must keep the paragraph's category and its code-token count;
    otherwise the pipeline retries with fresh randomness, drawn from seed and
    stream_key, up to QC_MAX_RETRIES times and finally returns REJECTED.
    Replace rewrites only candidate positions and keeps the others, so insert's
    candidates are the plan's, less the rewritten ones that are no keyword
    now; a swap never moves a code token, so delete draws from swap's
    non-code positions.
    """
    paragraph = plan.paragraph
    replace_n, insert_n, swap_n, delete_n = plan.budgets
    for attempt in range(QC_MAX_RETRIES):
        rng = derive_rng(seed, "nl", *stream_key, attempt)
        tokens = list(paragraph.tokens)
        candidates = plan.candidates
        rewritten = _replace_at(tokens, candidates, dictionary, replace_n, rng)
        if rewritten:
            candidates = [i for i in candidates
                          if i not in rewritten or keyword_form(tokens[i].text) in dictionary]
        _insert_at(tokens, candidates, dictionary, insert_n, rng)
        eligible = _non_code_indices(tokens)
        _swap_at(tokens, eligible, swap_n, rng)
        tokens = _delete_at(tokens, eligible, delete_n, rng)
        paraphrased = paraphraser(" ".join(t.text for t in tokens))
        new_tokens = qc.retokenize(paraphrased)
        if (
            new_tokens
            and qc.category(new_tokens) == plan.category
            and qc.code_token_count(new_tokens) == plan.code_count
        ):
            return Sample(kind=paragraph.kind, tokens=new_tokens, source_span=paragraph.source_span)
    return REJECTED


# --- paraphraser ports ---------------------------------------------------


def identity_paraphraser(text: str) -> str:
    return text


def make_shuffle_paraphraser(
    dictionary: SubstituteDictionary,
    seed: int,
    identifiers: Iterable[str],
) -> Paraphraser:
    """Offline paraphrase stand-in: one dictionary-replace pass plus a rotation
    of clause order; code tokens are preserved by construction."""
    ident_set = frozenset(identifiers)

    def paraphrase(text: str) -> str:
        tokens = detect_code_tokens(tokenize(text), ident_set)
        if not tokens:
            return text
        rng = derive_rng(seed, "shuffle", text)
        tokens = dictionary_replace(tokens, dictionary, op_budget(len(tokens), "replace"), rng)
        clauses: list[list[Token]] = [[]]
        for tok in tokens:
            clauses[-1].append(tok)
            if not tok.is_code and tok.text[-1:] in (",", ";", "."):
                clauses.append([])
        clauses = [c for c in clauses if c]
        if len(clauses) > 1:
            clauses = clauses[1:] + clauses[:1]
        return " ".join(t.text for clause in clauses for t in clause)

    return paraphrase


def make_service_paraphraser(url: str) -> Paraphraser:
    """Round-trip paraphrase via an external HTTP service.

    POSTs plain text and expects plain text back; on a failure (or an empty
    response) falls back to the identity paraphrase, logs a warning and
    counts a "paraphrase_fallbacks" in COUNTS. The SERVICE_FAILURE_BUDGET-th
    consecutive failure raises RuntimeError, which fails the stage; a
    success resets the count.
    """
    # imported here, not at module level: urllib.request loads ssl, which
    # every other run would pay for at startup
    import urllib.error
    import urllib.request

    failures = 0

    def fallback(text: str, reason: str) -> str:
        nonlocal failures
        failures += 1
        if failures == SERVICE_FAILURE_BUDGET:
            raise RuntimeError(f"paraphrase service {url} failed {failures} times in a row; "
                               f"last: {reason}")
        log.warning("paraphrase service %s %s; using identity", url, reason)
        COUNTS["paraphrase_fallbacks"] += 1
        return text

    def paraphrase(text: str) -> str:
        nonlocal failures
        request = urllib.request.Request(
            url,
            data=text.encode("utf-8"),
            headers={"Content-Type": "text/plain; charset=utf-8"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=SERVICE_TIMEOUT_S) as response:
                body = response.read().decode("utf-8")
        except (urllib.error.URLError, OSError, UnicodeDecodeError) as exc:
            return fallback(text, f"failed ({exc})")
        if not body.strip():
            return fallback(text, "returned empty text")
        failures = 0
        return body

    return paraphrase
