"""Code-token augmentation for stack traces, snippets, and inline code.

Substitutes come from a per-bug dictionary of class and method names mined
from the bug's inducing changesets, ranked by Levenshtein distance; a
substitute is drawn from the top-k closest names. There is deliberately no
delete operator, and swaps are constrained (consecutive stack lines, or a
three-token radius) to limit semantic drift.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .model import COUNTS, Hunk, Sample, Token, is_word, json_object, str_list

_METHOD_CALL_RE = re.compile(r"\b([A-Za-z_$][\w$]*)\s*\(")
_CALL_KEYWORDS = frozenset(
    "if for while switch catch return super this synchronized assert do try throw".split()
)

SWAP_CONTEXTS = ("stack_trace", "snippet", "prose")

# the paper's settings: substitutes from the 20 nearest names; an insert lands
# and a snippet or prose swap pairs within 3 positions
TOP_K = 20
INSERT_RADIUS = 3
SWAP_RADIUS = 3


@dataclass(frozen=True)
class CodeNameDictionary:
    bug_id: str
    names: tuple[str, ...]

    def __post_init__(self):
        for name in self.names:
            if not is_word(name):
                raise ValueError(f"bad code name {name!r} for bug {self.bug_id!r}")


def mine_code_names(bug_id: str, inducing_hunks: Sequence[Hunk]) -> CodeNameDictionary:
    """Collect class names (from file paths) and method names (identifiers
    followed by '(' on changed lines) out of a bug's inducing hunks. A class
    name that is not one word, a file name with whitespace, is left out: no
    token holds whitespace, so it could never be substituted."""
    names: set[str] = set()
    for hunk in inducing_hunks:
        if is_word(hunk.class_name):
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
    return {bug_id: CodeNameDictionary(bug_id=bug_id, names=tuple(sorted(set(str_list(names, bug_id)))))
            for bug_id, names in json_object(raw).items()}


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


# (token, names, k) -> its ranked substitutes, for this process: a forked
# report shard starts with the entries its parent held and sends none back
_ranked: dict[tuple[str, tuple[str, ...], int], tuple[str, ...]] = {}


def _ranked_substitutes(token: str, names: tuple[str, ...], k: int) -> tuple[str, ...]:
    """top_k_substitutes, computed once per (token, names, k), counted in
    COUNTS as a "substitute_hits" or a "substitute_misses".

    The operators call this on every application, but one bug's dictionary
    meets the same code tokens again and again, across augmented reports and
    across the augment and balance stages. The result is a pure function of
    the key, so caching it changes no artifact. top_k_substitutes is looked
    up at call time, so a wrapper installed over it sees every miss.
    """
    key = (token, names, k)
    try:
        ranked = _ranked[key]
    except KeyError:
        COUNTS["substitute_misses"] += 1
        ranked = _ranked[key] = tuple(top_k_substitutes(token, names, k))
    else:
        COUNTS["substitute_hits"] += 1
    return ranked


def _code_indices(tokens: Sequence[Token]) -> list[int]:
    return [i for i, t in enumerate(tokens) if t.is_code]


# Each operator below edits `out` at the code positions its caller found:
# the public operators find them on every call, augment_code_sample takes
# them from its caller or finds them once.


def _replace_at(out: list[Token], code: Sequence[int], names: CodeNameDictionary, rng) -> None:
    if not code:
        return
    i = rng.choice(code)
    pool = _ranked_substitutes(out[i].text, names.names, TOP_K)
    if pool:
        out[i] = Token(text=rng.choice(pool), is_code=True)


def _insert_at(out: list[Token], code: Sequence[int], names: CodeNameDictionary,
               rng) -> tuple[int, int] | None:
    """Insert a substitute near one of the code positions, in place; returns
    (anchor, index) of the insertion, or None if there was none."""
    if not code:
        return None
    i = rng.choice(code)
    pool = _ranked_substitutes(out[i].text, names.names, TOP_K)
    if not pool:
        return None
    insert_at = rng.randint(max(0, i - INSERT_RADIUS), min(len(out), i + INSERT_RADIUS))
    out.insert(insert_at, Token(text=rng.choice(pool), is_code=True))
    return i, insert_at


def _swap_pair(code: Sequence[int], context: str, rng,
               line_indices: Sequence[int] | None) -> tuple[int, int] | None:
    """One legal pair of code positions under the context's constraint,
    drawn uniformly, or None if there is none."""
    pairs: list[tuple[int, int]] = []
    for a in range(len(code)):
        for b in range(a + 1, len(code)):
            i, j = code[a], code[b]
            if context == "stack_trace":
                if abs(line_indices[i] - line_indices[j]) == 1:
                    pairs.append((i, j))
            elif j - i <= SWAP_RADIUS:
                pairs.append((i, j))
    return pairs[rng.randrange(len(pairs))] if pairs else None


def code_token_replace(tokens, names: CodeNameDictionary, rng) -> list[Token]:
    """Replace one random code token with one of its TOP_K nearest names."""
    out = list(tokens)
    _replace_at(out, _code_indices(out), names, rng)
    return out


def code_token_insert(tokens, names: CodeNameDictionary, rng) -> list[Token]:
    """Insert a substitute of one random code token at most INSERT_RADIUS
    positions away from it (clamped to the sequence bounds)."""
    out = list(tokens)
    _insert_at(out, _code_indices(out), names, rng)
    return out


def _check_swap_context(context: str, line_indices: Sequence[int] | None) -> None:
    if context not in SWAP_CONTEXTS:
        raise ValueError(f"unknown swap context {context!r}")
    if context == "stack_trace" and line_indices is None:
        raise ValueError("stack_trace context requires line_indices")


def code_token_swap(
    tokens,
    context: str,
    rng,
    *,
    line_indices: Sequence[int] | None = None,
) -> list[Token]:
    """Swap two code tokens under the context's constraint.

    Stack traces allow swaps only between tokens on consecutive lines;
    snippets and prose only within SWAP_RADIUS positions. With no legal pair
    the input is returned unchanged.
    """
    _check_swap_context(context, line_indices)
    out = list(tokens)
    pair = _swap_pair(_code_indices(out), context, rng, line_indices)
    if pair is None:
        return out
    i, j = pair
    out[i], out[j] = out[j], out[i]
    return out


def augment_code_sample(sample: Sample, names: CodeNameDictionary, rng,
                        code: Sequence[int] | None = None) -> Sample:
    """Apply replace -> insert -> swap once each, with the public operators'
    draws; operators with no legal move are skipped and no token is ever
    deleted. code, if given, lists the positions of the sample's code
    tokens. A replace keeps every token's code flag, so insert draws from the
    same positions, and swap from those shifted past the inserted token."""
    context = {
        "StackTrace": "stack_trace",
        "CodeSnippet": "snippet",
    }.get(sample.kind, "prose")
    tokens = list(sample.tokens)
    lines = list(sample.line_indices) if sample.line_indices is not None else None
    _check_swap_context(context, lines)
    code = _code_indices(tokens) if code is None else code
    _replace_at(tokens, code, names, rng)
    inserted = _insert_at(tokens, code, names, rng)
    if inserted is not None:
        anchor, at = inserted
        if lines is not None:
            lines.insert(at, lines[anchor])
        code = [i for i in code if i < at] + [at] + [i + 1 for i in code if i >= at]
    pair = _swap_pair(code, context, rng, lines)
    if pair is not None:
        i, j = pair
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return Sample(kind=sample.kind, tokens=tokens, source_span=sample.source_span, line_indices=lines)
