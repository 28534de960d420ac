"""The benchmark's workloads and the generator of their ingest inputs.

Each workload loads a different layer of the pipeline:

* ``augment-f10``: a large augmentation factor, so the code operators'
  top-k substitute ranking dominates (memoisation and a bounded Levenshtein
  show here; BM25 work does not).
* ``retrieve-pool``: factor 1 and alpha 0.1 (balancing adds nothing) over a
  corpus padded with unlinked noise hunks, so BM25 ranking, ingest/diff
  parsing and repeated ``hunks.jsonl`` loads dominate.
* ``balance-shuffle``: alpha 2.0 and omega 4.0 with the shuffle
  paraphraser, so the balance stage rebuilds many reports the augment stage
  already built and the re-tokenising paraphraser path of ``nl_ops`` runs.

Inputs are a pure function of (workload, seed, smoke). The program receives
only the generated files: ``bugs.jsonl``, ``links.jsonl`` and ``diffs/``.

The fixture draws each bug's shape at random (1 to 3 classes, 1 or 2 hunks
per class, a stack trace or snippet or neither), and the cost of augmenting
a bug grows with the product of these. Left alone, two seeds' corpora differ
by up to half in the work they cause. So the seed draws a pool four times
the workload's size, and the corpus keeps, for each bug of a fixed reference
corpus, a pool bug of the same shape and the closest estimated top-k cost:
the seed decides the content, the workload decides how much work it is.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

from bugaug.code_ops import mine_code_names
from bugaug.diffs import parse_unified_diff, serialize_hunks
from bugaug.extract import PatternDictionary, structure_bug_report
from bugaug.fixtures import generate_corpus
from bugaug.model import (
    Changeset,
    Hunk,
    bug_from_dict,
    bug_to_dict,
    changeset_to_dict,
    read_jsonl,
    write_jsonl,
)


@dataclass(frozen=True)
class Workload:
    name: str
    bugs: int
    noise_hunks: int
    factor: int
    alpha: float
    omega: float
    paraphraser: str

    def pipeline_args(self, seed: int) -> list[str]:
        return [
            "--factor", str(self.factor),
            "--alpha", str(self.alpha),
            "--omega", str(self.omega),
            "--paraphraser", self.paraphraser,
            "--seed", str(seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("augment-f10", bugs=100, noise_hunks=0, factor=10, alpha=0.7, omega=1.0,
                 paraphraser="identity"),
        Workload("retrieve-pool", bugs=300, noise_hunks=3000, factor=1, alpha=0.1, omega=1.0,
                 paraphraser="identity"),
        Workload("balance-shuffle", bugs=200, noise_hunks=0, factor=1, alpha=2.0, omega=4.0,
                 paraphraser="shuffle"),
    )
}

# Tiny versions of the same workloads for the benchmark's own tests: every
# stage and every check runs, in about a second per pipeline run.
SMOKE_WORKLOADS = {
    "augment-f10": Workload("augment-f10", bugs=8, noise_hunks=0, factor=3, alpha=0.7, omega=1.0,
                            paraphraser="identity"),
    "retrieve-pool": Workload("retrieve-pool", bugs=12, noise_hunks=60, factor=1, alpha=0.1,
                              omega=1.0, paraphraser="identity"),
    "balance-shuffle": Workload("balance-shuffle", bugs=10, noise_hunks=0, factor=1, alpha=2.0,
                                omega=4.0, paraphraser="shuffle"),
}

# Vocabulary of the unlinked noise changesets: class names outside the
# fixture's own classes, so noise hunks also widen the negative pool.
_NOISE_PACKAGES = ("org.demo.io", "org.demo.sched", "org.demo.auth", "org.demo.store")
_NOISE_PREFIXES = ("Stream", "Batch", "Token", "Index", "Cursor", "Shard", "Ledger", "Quota",
                   "Frame", "Route", "Lease", "Vault")
_NOISE_SUFFIXES = ("Writer", "Reader", "Planner", "Resolver", "Tracker", "Codec", "Gate", "Store")
_NOISE_VERBS = ("open", "close", "merge", "split", "renew", "evict", "encode", "decode", "scan",
                "commit", "rollback", "probe")
_NOISE_NOUNS = ("buffer", "offset", "lease", "segment", "window", "cursor", "quota", "record",
                "epoch", "checksum", "header", "payload")
_NOISE_EPOCH = datetime(2019, 6, 1, 9, 0, 0, tzinfo=timezone.utc)
_HUNKS_PER_NOISE_CHANGESET = 3


def _noise_hunk(rng: random.Random) -> Hunk:
    package = rng.choice(_NOISE_PACKAGES)
    name = rng.choice(_NOISE_PREFIXES) + rng.choice(_NOISE_SUFFIXES)
    verb, noun, other = rng.choice(_NOISE_VERBS), rng.choice(_NOISE_NOUNS), rng.choice(_NOISE_NOUNS)
    method = verb + noun.capitalize()
    old_value = rng.randint(1, 64)
    lines = (
        ("context", f"    void {method}({other.capitalize()} {other}) {{"),
        ("removed", f"        int {noun}Limit = {old_value};"),
        ("added", f"        int {noun}Limit = {old_value + rng.randint(1, 16)};"),
        ("added", f"        {other}.{verb}({noun}Limit); // {verb} the {noun} before the {other}"),
        ("context", "    }"),
    )
    old_start = rng.randint(1, 900)
    return Hunk(
        id="", changeset_id="", file_path=package.replace(".", "/") + f"/{name}.java",
        class_name=name, old_start=old_start, old_len=3, new_start=old_start, new_len=4,
        lines=lines,
    )


def _add_noise_changesets(corpus_dir: Path, n_hunks: int, seed: int) -> None:
    """Append unlinked changesets holding about n_hunks hunks to diffs/."""
    rng = random.Random(f"perfbench-noise:{seed}")
    diffs_dir = corpus_dir / "diffs"
    meta_path = diffs_dir / "changesets.jsonl"
    records = list(read_jsonl(meta_path))
    n_changesets = -(-n_hunks // _HUNKS_PER_NOISE_CHANGESET)
    for j in range(n_changesets):
        hunks = [_noise_hunk(rng) for _ in range(_HUNKS_PER_NOISE_CHANGESET)]
        hunks.sort(key=lambda h: h.file_path)
        cs = Changeset(
            id=f"nz{j:05d}",
            author=f"dev{rng.randint(1, 9)}",
            committed_at=_NOISE_EPOCH + timedelta(hours=7 * j),
            log_message=f"{rng.choice(_NOISE_VERBS)} {hunks[0].class_name} {rng.choice(_NOISE_NOUNS)} handling",
        )
        (diffs_dir / f"{cs.id}.diff").write_text(serialize_hunks(hunks), "utf-8")
        records.append(changeset_to_dict(cs))
    write_jsonl(meta_path, records)


POOL_FACTOR = 4
REFERENCE_SEED = 0


def _bug_profiles(corpus_dir: Path) -> dict[str, tuple[tuple, int]]:
    """Linked bug id -> (shape, cost).

    The shape is (positives, inducing hunks, classes, has trace, has snippet).
    The cost estimates the top-k work of augmenting the bug once per positive:
    each sample with code tokens ranks one of them against every mined name,
    so it adds (mean code-token length) x (characters of all mined names).
    """
    diffs_dir = corpus_dir / "diffs"
    hunks = {r["id"]: parse_unified_diff((diffs_dir / f"{r['id']}.diff").read_text("utf-8"), r["id"])
             for r in read_jsonl(diffs_dir / "changesets.jsonl")}
    identifiers = {h.class_name for cs_hunks in hunks.values() for h in cs_hunks}
    patterns = PatternDictionary.default()
    bugs = {r["id"]: bug_from_dict(r) for r in read_jsonl(corpus_dir / "bugs.jsonl")}
    profiles = {}
    for link in read_jsonl(corpus_dir / "links.jsonl"):
        bug = bugs[link["bug_id"]]
        inducing = [h for cs in link["inducing_changeset_ids"] for h in hunks[cs]]
        fixing = {h.class_name for cs in link["fixing_changeset_ids"] for h in hunks[cs]}
        positives = sum(h.class_name in fixing for h in inducing)
        name_chars = sum(map(len, mine_code_names(bug.id, inducing).names))
        code_chars = 0.0
        for sample in structure_bug_report(bug, patterns, identifiers=identifiers).samples:
            code = [len(t.text) for t in sample.tokens if t.is_code]
            if code:
                code_chars += sum(code) / len(code)
        shape = (positives, len(inducing), len({h.class_name for h in inducing}),
                 "\n    at " in bug.description, "public void " in bug.description)
        profiles[bug.id] = (shape, round(positives * code_chars * name_chars))
    return profiles


def _pick(wanted: tuple[tuple, int], free: list[tuple[str, tuple[tuple, int]]]) -> str:
    """Take the free pool bug that matches the most leading shape fields and,
    among those, comes closest in cost."""
    shape, cost = wanted
    for width in range(len(shape), -1, -1):
        matches = [i for i, (_, (s, _)) in enumerate(free) if s[:width] == shape[:width]]
        if matches:
            best = min(matches, key=lambda i: abs(free[i][1][1] - cost))
            return free.pop(best)[0]
    raise ValueError("pool exhausted")


def _stratified_corpus(n_bugs: int, seed: int, out_dir: Path) -> None:
    """A corpus of n_bugs whose bug shapes follow the reference corpus, slot by
    slot, with content drawn from a pool generated from the seed."""
    reference = out_dir.with_name(out_dir.name + ".reference")
    pool = out_dir.with_name(out_dir.name + ".pool")
    try:
        generate_corpus(reference, n_bugs=n_bugs, seed=REFERENCE_SEED)
        wanted = [profile for _, profile in sorted(_bug_profiles(reference).items())]
        generate_corpus(pool, n_bugs=POOL_FACTOR * n_bugs, seed=seed)
        free = sorted(_bug_profiles(pool).items())
        chosen = [_pick(profile, free) for profile in wanted]

        bugs = {r["id"]: bug_from_dict(r) for r in read_jsonl(pool / "bugs.jsonl")}
        links = {r["bug_id"]: r for r in read_jsonl(pool / "links.jsonl")}
        linked = set(links)
        # slot i opens on day 2i, so the date split keeps the reference's
        # train/test halves; unlinked (closed) reports are kept as they are
        epoch = min(b.opened_at for b in bugs.values())
        out_bugs = [
            replace(bugs[b], opened_at=bugs[b].opened_at.replace(
                year=epoch.year, month=epoch.month, day=epoch.day) + timedelta(days=2 * slot))
            for slot, b in enumerate(chosen)
        ] + [b for b_id, b in bugs.items() if b_id not in linked]
        out_links = [links[b] for b in chosen]
        dropped = {cs for b_id in linked - set(chosen) for key in ("inducing_changeset_ids",
                                                                    "fixing_changeset_ids")
                   for cs in links[b_id][key]}
        changesets = [r for r in read_jsonl(pool / "diffs" / "changesets.jsonl")
                      if r["id"] not in dropped]

        diffs_dir = out_dir / "diffs"
        diffs_dir.mkdir(parents=True, exist_ok=True)
        for record in changesets:
            source = pool / "diffs" / f"{record['id']}.diff"
            if source.exists():
                shutil.copyfile(source, diffs_dir / source.name)
        write_jsonl(out_dir / "bugs.jsonl", (bug_to_dict(b) for b in out_bugs))
        write_jsonl(out_dir / "links.jsonl", out_links)
        write_jsonl(diffs_dir / "changesets.jsonl", changesets)
    finally:
        shutil.rmtree(reference, ignore_errors=True)
        shutil.rmtree(pool, ignore_errors=True)


def generate_inputs(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's ingest inputs under out_dir; returns out_dir."""
    _stratified_corpus(workload.bugs, seed, out_dir)
    if workload.noise_hunks:
        _add_noise_changesets(out_dir, workload.noise_hunks, seed)
    return out_dir
