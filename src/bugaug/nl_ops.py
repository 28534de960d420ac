"""Natural-language augmentation operators for OB/EB/S2R paragraphs.

Token-level operators (dictionary replace/insert, random swap/delete) stack in
a fixed order, a pluggable paraphraser rewrites the result, and a two-step
quality control accepts only outputs that keep the paragraph's category and
its code-token count. Code tokens are never selected by any NL operator.
"""

from __future__ import annotations

import json
import logging
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

from .extract import PatternDictionary, classify_tokens, detect_code_tokens, tokenize, word_core
from .model import NL_KINDS, Sample, Token
from .rng import derive_rng

log = logging.getLogger(__name__)

Paraphraser = Callable[[str], str]

OP_KINDS = ("replace", "insert", "swap", "delete")

# consecutive failures after which the service paraphraser stops calling out
SERVICE_FAILURE_BUDGET = 3


class _RejectedType:
    """Sentinel: augmentation failed quality control on every retry."""

    def __repr__(self) -> str:
        return "REJECTED"

    def __bool__(self) -> bool:
        return False


REJECTED = _RejectedType()


@dataclass(frozen=True)
class AugConfig:
    lambda_replace: float = 0.1
    lambda_insert: float = 0.1
    lambda_swap: float = 0.1
    lambda_delete: float = 0.05
    qc_max_retries: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("lambda_replace", "lambda_insert", "lambda_swap", "lambda_delete"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.qc_max_retries < 1:
            raise ValueError("qc_max_retries must be >= 1")


@dataclass(frozen=True)
class SubstituteDictionary:
    """In-domain keyword -> substitutes map driving replace/insert."""

    entries: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for keyword, subs in self.entries.items():
            if keyword != keyword.lower():
                raise ValueError(f"dictionary keyword {keyword!r} must be lowercase")
            if not subs:
                raise ValueError(f"dictionary keyword {keyword!r} has no substitutes")
            if keyword in subs:
                raise ValueError(f"dictionary keyword {keyword!r} maps to itself")

    def __contains__(self, keyword: str) -> bool:
        return keyword in self.entries

    def substitutes(self, keyword: str) -> tuple[str, ...]:
        return self.entries[keyword]

    @classmethod
    def from_dict(cls, data: dict) -> "SubstituteDictionary":
        return cls({str(k): tuple(str(s) for s in v) for k, v in sorted(data.items())})

    @classmethod
    def load(cls, path: str | Path) -> "SubstituteDictionary":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def default(cls) -> "SubstituteDictionary":
        data = resources.files("bugaug").joinpath("data/substitutes.json").read_text("utf-8")
        return cls.from_dict(json.loads(data))


def op_budget(token_count: int, lam: float, kind: str) -> int:
    """Number of applications: floor(lambda * tokens), floored at 1 for
    replace/insert/swap on paragraphs of at least 2 tokens; delete uses the
    plain floor."""
    if kind not in OP_KINDS:
        raise ValueError(f"unknown op kind {kind!r}")
    if token_count < 0:
        raise ValueError("token_count must be >= 0")
    n = int(lam * token_count)
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
        if not t.is_code and word_core(t.text).lower() in dictionary
    ]


def dictionary_replace(tokens, dictionary, n, rng) -> list[Token]:
    """Replace up to n dictionary keywords with substitutes, keeping the
    original capitalization and surrounding punctuation."""
    out = list(tokens)
    candidates = _keyword_indices(out, dictionary)
    if n <= 0 or not candidates:
        return out
    for i in sorted(rng.sample(candidates, min(n, len(candidates)))):
        keyword = word_core(out[i].text).lower()
        substitute = rng.choice(dictionary.substitutes(keyword))
        out[i] = Token(text=_replace_core(out[i].text, substitute), is_code=False)
    return out


def dictionary_insert(tokens, dictionary, n, rng) -> list[Token]:
    """Insert substitutes of up to n present keywords at random positions."""
    out = list(tokens)
    candidates = _keyword_indices(out, dictionary)
    if n <= 0 or not candidates:
        return out
    # resolve keywords first: insertions below shift the candidate indices
    chosen = sorted(rng.sample(candidates, min(n, len(candidates))))
    for keyword in [word_core(out[i].text).lower() for i in chosen]:
        substitute = rng.choice(dictionary.substitutes(keyword))
        out.insert(rng.randint(0, len(out)), Token(text=substitute, is_code=False))
    return out


def random_swap(tokens, n, rng) -> list[Token]:
    """Swap n random pairs of non-code tokens."""
    out = list(tokens)
    eligible = [i for i, t in enumerate(out) if not t.is_code]
    if n <= 0 or len(eligible) < 2:
        return out
    for _ in range(n):
        i, j = rng.sample(eligible, 2)
        out[i], out[j] = out[j], out[i]
    return out


def random_delete(tokens, n, rng) -> list[Token]:
    """Delete n random non-code tokens; code tokens are never removed."""
    eligible = [i for i, t in enumerate(tokens) if not t.is_code]
    k = min(n, len(eligible))
    if k <= 0:
        return list(tokens)
    doomed = set(rng.sample(eligible, k))
    return [t for i, t in enumerate(tokens) if i not in doomed]


# --- quality control -----------------------------------------------------


@dataclass(frozen=True)
class QualityControl:
    """Independent category and code-token checks applied to augmented text."""

    patterns: PatternDictionary
    identifiers: frozenset[str] = field(default_factory=frozenset)

    def retokenize(self, text: str) -> list[Token]:
        return detect_code_tokens(tokenize(text), self.identifiers)

    def category(self, tokens: Sequence[Token]) -> str:
        return classify_tokens(tokens, self.patterns)

    def code_token_count(self, tokens: Sequence[Token]) -> int:
        return sum(1 for t in tokens if t.is_code)


def augment_paragraph(
    paragraph: Sample,
    dictionary: SubstituteDictionary,
    config: AugConfig,
    paraphraser: Paraphraser,
    qc: QualityControl,
    stream_key: tuple = (),
):
    """Run replace -> insert -> swap -> delete -> paraphrase on one paragraph.

    The result must keep the paragraph's category and its code-token count;
    otherwise the pipeline retries with fresh randomness up to
    config.qc_max_retries times and finally returns REJECTED.
    """
    if paragraph.kind not in NL_KINDS:
        raise ValueError(f"augment_paragraph expects OB/EB/S2R, got {paragraph.kind!r}")
    original = list(paragraph.tokens)
    n_tokens = len(original)
    original_category = qc.category(original)
    original_code_count = qc.code_token_count(original)
    budgets = {
        "replace": op_budget(n_tokens, config.lambda_replace, "replace"),
        "insert": op_budget(n_tokens, config.lambda_insert, "insert"),
        "swap": op_budget(n_tokens, config.lambda_swap, "swap"),
        "delete": op_budget(n_tokens, config.lambda_delete, "delete"),
    }
    for attempt in range(config.qc_max_retries):
        rng = derive_rng(config.seed, "nl", *stream_key, attempt)
        tokens = dictionary_replace(original, dictionary, budgets["replace"], rng)
        tokens = dictionary_insert(tokens, dictionary, budgets["insert"], rng)
        tokens = random_swap(tokens, budgets["swap"], rng)
        tokens = random_delete(tokens, budgets["delete"], rng)
        paraphrased = paraphraser(" ".join(t.text for t in tokens))
        new_tokens = qc.retokenize(paraphrased)
        if (
            new_tokens
            and qc.category(new_tokens) == original_category
            and qc.code_token_count(new_tokens) == original_code_count
        ):
            return Sample(kind=paragraph.kind, tokens=new_tokens, source_span=paragraph.source_span)
    return REJECTED


# --- paraphraser ports ---------------------------------------------------


def identity_paraphraser(text: str) -> str:
    return text


def make_shuffle_paraphraser(
    dictionary: SubstituteDictionary,
    seed: int,
    identifiers: Sequence[str] = (),
) -> Paraphraser:
    """Offline paraphrase stand-in: one dictionary-replace pass plus a rotation
    of clause order; code tokens are preserved by construction."""
    ident_set = frozenset(identifiers)

    def paraphrase(text: str) -> str:
        tokens = detect_code_tokens(tokenize(text), ident_set)
        if not tokens:
            return text
        rng = derive_rng(seed, "shuffle", text)
        tokens = dictionary_replace(tokens, dictionary, op_budget(len(tokens), 0.1, "replace"), rng)
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


def make_service_paraphraser(url: str, timeout: float = 10.0) -> Paraphraser:
    """Round-trip paraphrase via an external HTTP service.

    POSTs plain text and expects plain text back; on any failure (or an empty
    response) falls back to the identity paraphrase and logs a warning. After
    SERVICE_FAILURE_BUDGET consecutive failures it stops calling the service
    and is the identity from then on; a success resets the count.
    """
    failures = 0

    def fallback(text: str, reason: str) -> str:
        nonlocal failures
        failures += 1
        log.warning("paraphrase service %s %s; using identity", url, reason)
        if failures == SERVICE_FAILURE_BUDGET:
            log.warning("paraphrase service %s failed %d times in a row; switching to identity",
                        url, failures)
        return text

    def paraphrase(text: str) -> str:
        nonlocal failures
        if failures >= SERVICE_FAILURE_BUDGET:
            return text
        request = urllib.request.Request(
            url,
            data=text.encode("utf-8"),
            headers={"Content-Type": "text/plain; charset=utf-8"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                body = response.read().decode("utf-8")
        except (urllib.error.URLError, OSError, UnicodeDecodeError) as exc:
            return fallback(text, f"failed ({exc})")
        if not body.strip():
            return fallback(text, "returned empty text")
        failures = 0
        return body

    return paraphrase
