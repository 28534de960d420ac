"""Code-token augmentation for stack traces, snippets, and inline code.

Substitutes come from a per-bug dictionary of class and method names mined
from the bug's inducing changesets, ranked by Levenshtein distance; a
substitute is drawn from the top-k closest names. There is deliberately no
delete operator, and swaps are constrained (consecutive stack lines, or a
three-token radius) to limit semantic drift.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .diffs import derive_class_name
from .model import Hunk, Sample, Token

_METHOD_CALL_RE = re.compile(r"\b([A-Za-z_$][\w$]*)\s*\(")
_CALL_KEYWORDS = frozenset(
    "if for while switch catch return super this synchronized assert do try throw".split()
)

SWAP_CONTEXTS = ("stack_trace", "snippet", "prose")


@dataclass(frozen=True)
class CodeOpConfig:
    top_k: int = 20
    insert_radius: int = 3
    swap_radius: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.insert_radius < 1 or self.swap_radius < 1:
            raise ValueError("radii must be >= 1")


@dataclass(frozen=True)
class CodeNameDictionary:
    bug_id: str
    names: tuple[str, ...]

    def __post_init__(self):
        for name in self.names:
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad code name {name!r} for bug {self.bug_id!r}")


def mine_code_names(bug_id: str, inducing_hunks: Sequence[Hunk]) -> CodeNameDictionary:
    """Collect class names (from file paths) and method names (identifiers
    followed by '(' on changed lines) out of a bug's inducing hunks."""
    names: set[str] = set()
    for hunk in inducing_hunks:
        names.add(hunk.class_name)
        for text in hunk.changed_texts():
            for match in _METHOD_CALL_RE.finditer(text):
                if match.group(1) not in _CALL_KEYWORDS:
                    names.add(match.group(1))
    return CodeNameDictionary(bug_id=bug_id, names=tuple(sorted(names)))


def load_code_name_dicts(path: str | Path) -> dict[str, CodeNameDictionary]:
    """Read a JSON map bug_id -> [names], overriding mining."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {
        str(bug_id): CodeNameDictionary(bug_id=str(bug_id), names=tuple(sorted(set(map(str, names)))))
        for bug_id, names in raw.items()
    }


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character inserts, deletes, and substitutions.

    Myers' bit-parallel algorithm (JACM 1999) as formulated by Hyyrö (2001):
    one DP column over the longer string is held in two bit masks, `pv` and
    `mv` (bit i set: cell i is one more / one less than cell i - 1), and each
    character of the shorter string advances it with a few integer
    operations. Python ints are unbounded, so strings longer than a machine
    word need no blocking. The result equals the DP recurrence's.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    masks: dict[str, int] = {}
    bit = 1
    for c in a:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    full, last = bit - 1, bit >> 1
    pv, mv, distance = full, 0, len(a)
    for c in b:
        eq = masks.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return distance


def top_k_substitutes(token: str, dict_names: Iterable[str], k: int) -> list[str]:
    """The k dictionary names closest to token by edit distance, excluding the
    token itself; ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = sorted(set(dict_names) - {token})
    pool.sort(key=lambda name: (levenshtein(token, name), name))
    return pool[:k]


@functools.lru_cache(maxsize=None)
def _ranked_substitutes(token: str, names: tuple[str, ...], k: int) -> tuple[str, ...]:
    """top_k_substitutes, computed once per (token, names, k) per process.

    The operators call this on every application, but one bug's dictionary
    meets the same code tokens again and again, across augmented reports and
    across the augment and balance stages. The result is a pure function of
    the key, so caching it changes no artifact. top_k_substitutes is looked
    up at call time, so a wrapper installed over it sees every miss.
    """
    return tuple(top_k_substitutes(token, names, k))


def substitute_cache_info():
    """Hits and misses of the substitute ranking cache (functools CacheInfo)."""
    return _ranked_substitutes.cache_info()


def _code_indices(tokens: Sequence[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens) if t.is_code]


def code_token_replace(tokens, names: CodeNameDictionary, rng, *, top_k: int = 20, audit=None) -> list[Token]:
    """Replace one random code token with one of its top-k nearest names."""
    out = list(tokens)
    code_idx = _code_indices(out)
    if not code_idx:
        return out
    i = rng.choice(code_idx)
    pool = _ranked_substitutes(out[i].text, names.names, top_k)
    if not pool:
        return out
    out[i] = Token(text=rng.choice(pool), is_code=True)
    if audit is not None:
        audit.append({"op": "replace", "index": i})
    return out


def code_token_insert(
    tokens, names: CodeNameDictionary, rng, *, top_k: int = 20, insert_radius: int = 3, audit=None
) -> list[Token]:
    """Insert a substitute of one random code token at most insert_radius
    positions away from it (clamped to the sequence bounds)."""
    out = list(tokens)
    code_idx = _code_indices(out)
    if not code_idx:
        return out
    i = rng.choice(code_idx)
    pool = _ranked_substitutes(out[i].text, names.names, top_k)
    if not pool:
        return out
    insert_at = rng.randint(max(0, i - insert_radius), min(len(out), i + insert_radius))
    out.insert(insert_at, Token(text=rng.choice(pool), is_code=True))
    if audit is not None:
        audit.append({"op": "insert", "anchor": i, "index": insert_at})
    return out


def code_token_swap(
    tokens,
    context: str,
    rng,
    *,
    line_indices: Sequence[int] | None = None,
    swap_radius: int = 3,
    audit=None,
) -> list[Token]:
    """Swap two code tokens under the context's constraint.

    Stack traces allow swaps only between tokens on consecutive lines;
    snippets and prose only within swap_radius positions. With no legal pair
    the input is returned unchanged.
    """
    if context not in SWAP_CONTEXTS:
        raise ValueError(f"unknown swap context {context!r}")
    if context == "stack_trace" and line_indices is None:
        raise ValueError("stack_trace context requires line_indices")
    out = list(tokens)
    code_idx = _code_indices(out)
    pairs: list[tuple[int, int]] = []
    for a in range(len(code_idx)):
        for b in range(a + 1, len(code_idx)):
            i, j = code_idx[a], code_idx[b]
            if context == "stack_trace":
                if abs(line_indices[i] - line_indices[j]) == 1:
                    pairs.append((i, j))
            elif j - i <= swap_radius:
                pairs.append((i, j))
    if not pairs:
        return out
    i, j = pairs[rng.randrange(len(pairs))]
    out[i], out[j] = out[j], out[i]
    if audit is not None:
        entry = {"op": "swap", "context": context, "i": i, "j": j}
        if line_indices is not None:
            entry["line_i"] = line_indices[i]
            entry["line_j"] = line_indices[j]
        audit.append(entry)
    return out


def augment_code_sample(
    sample: Sample,
    names: CodeNameDictionary,
    config: CodeOpConfig,
    rng,
    audit=None,
) -> Sample:
    """Apply replace -> insert -> swap once each; operators with no legal move
    are skipped and no token is ever deleted."""
    context = {
        "StackTrace": "stack_trace",
        "CodeSnippet": "snippet",
    }.get(sample.kind, "prose")
    tokens = list(sample.tokens)
    lines = list(sample.line_indices) if sample.line_indices is not None else None
    events: list[dict] = []
    tokens = code_token_replace(tokens, names, rng, top_k=config.top_k, audit=events)
    tokens = code_token_insert(
        tokens, names, rng, top_k=config.top_k, insert_radius=config.insert_radius, audit=events
    )
    if lines is not None:
        for event in events:
            if event["op"] == "insert":
                lines.insert(event["index"], lines[event["anchor"]])
    tokens = code_token_swap(
        tokens,
        context,
        rng,
        line_indices=lines,
        swap_radius=config.swap_radius,
        audit=events,
    )
    if audit is not None:
        audit.extend(events)
    return Sample(kind=sample.kind, tokens=tokens, source_span=sample.source_span, line_indices=lines)
