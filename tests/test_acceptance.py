"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; runtime-limited criteria assert their own wall-clock budgets.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from bugaug import nl_ops
from bugaug.balance import balance_dataset, distribution_report, scaled_cap
from bugaug.builder import generate_augmented_set, generate_repeated_set
from bugaug.cli import main
from bugaug.code_ops import (
    CodeNameDictionary,
    code_token_replace,
    levenshtein,
    top_k_substitutes,
)
from bugaug.corpus import NegativeSampler
from bugaug.extract import classify_tokens, detect_code_tokens, tokenize
from bugaug.fixtures import generate_corpus
from bugaug.metrics import compute_metrics
from bugaug.model import Dataset, Sample, Token, TrainingSample
from bugaug.nl_ops import (
    REJECTED,
    QualityControl,
    SubstituteDictionary,
    augment_paragraph,
    dictionary_insert,
    dictionary_replace,
    identity_paraphraser,
    paragraph_plan,
    random_delete,
    random_swap,
)

from conftest import make_hunk, random_tokens, traced_insert, traced_swap
from test_code_ops import oracle_levenshtein, oracle_top_k


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _positive(bug: str, hunk: str, cls: str) -> TrainingSample:
    return TrainingSample(bug_ref=bug, origin_bug_id=bug, hunk_id=hunk, class_name=cls, label="positive")


def _negative(bug: str, hunk: str, cls: str) -> TrainingSample:
    return TrainingSample(bug_ref=bug, origin_bug_id=bug, hunk_id=hunk, class_name=cls, label="negative")


def _spare_sampler(bugs: set[str], excluded: dict[str, frozenset]) -> NegativeSampler:
    pool = [make_hunk(f"spare{i}", "csx", f"SpareClass{i}") for i in range(4)]
    return NegativeSampler(pool, lambda bug: excluded.get(bug, frozenset()) if bug in bugs else frozenset())


def _synthetic_d_ori(n_positives: int, n_bugs: int) -> tuple[Dataset, NegativeSampler]:
    samples = []
    bugs = set()
    for i in range(n_positives):
        bug = f"b{i % n_bugs:04d}"
        bugs.add(bug)
        samples.append(_positive(bug, f"h{i:05d}", f"C{i % 37}"))
        samples.append(_negative(bug, f"hn{i:05d}", f"N{i % 23}"))
    sampler = _spare_sampler(bugs, {})
    return Dataset(name="D_ori", samples=samples), sampler


def test_criterion_1_dataset_size_arithmetic():
    started = time.perf_counter()
    d_ori, sampler = _synthetic_d_ori(n_positives=2500, n_bugs=250)  # S = 5000
    size = len(d_ori)
    assert size == 5000
    d_rep = generate_repeated_set(d_ori, 10, sampler, seed=42)
    d_aug = generate_augmented_set(d_ori, 10, sampler, seed=42)
    assert len(d_rep) == 10 * size
    assert len(d_aug) == 11 * size

    # a realistic project scale: 100 bugs, 2212 samples -> 22120 and 24332
    medium, medium_sampler = _synthetic_d_ori(n_positives=1106, n_bugs=100)
    assert len(medium) == 2212
    assert len(generate_repeated_set(medium, 10, medium_sampler, seed=1)) == 22120
    assert len(generate_augmented_set(medium, 10, medium_sampler, seed=1)) == 24332

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"|D_rep| = 10*S and |D_aug| = 11*S exactly ({elapsed:.2f}s)")


def test_criterion_2_algorithm1_cap_invariant():
    started = time.perf_counter()
    rng = random.Random(2024)
    violations = 0
    for fixture_no in range(200):
        n_bugs = rng.randint(2, 10)
        classes = [f"C{i}" for i in range(rng.randint(2, 6))]
        samples = []
        hunk_no = 0
        for b in range(n_bugs):
            for _ in range(rng.randint(1, 12)):
                hunk_no += 1
                samples.append(_positive(f"b{b:02d}", f"h{hunk_no:04d}", rng.choice(classes)))
        d_train = Dataset(name="D_train", samples=samples)
        excluded = {f"b{b:02d}": frozenset() for b in range(n_bugs)}
        sampler = _spare_sampler(set(excluded), excluded)
        alpha = rng.choice([0.5, 0.7, 0.85, 1.0, 1.3, 2.0])
        omega = rng.choice([0.5, 1.0, 2.0, 2.5])
        d_bl = balance_dataset(d_train, alpha, omega, sampler, seed=fixture_no)
        max_br = scaled_cap(alpha, max(d_train.positive_counts_by_bug().values()))
        max_cl = scaled_cap(omega, max(d_train.positive_counts_by_class().values()))
        final_bug = d_bl.positive_counts_by_bug()
        final_class = d_bl.positive_counts_by_class()
        for sample in d_bl.samples[len(samples):]:
            if sample.label != "positive":
                continue
            if final_bug[sample.origin_bug_id] > max_br or final_class[sample.class_name] > max_cl:
                violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"0 cap violations across 200 randomized balancing fixtures ({elapsed:.2f}s)")


def test_criterion_3_balancing_smooths_the_skew():
    # heavily skewed corpus: 11 of 97 bugs hold 220 of 392 positives (56% > 50%)
    samples = []
    hunk_no = 0
    hot_classes = [f"Hot{i}" for i in range(15)]
    for b in range(11):
        for j in range(20):
            hunk_no += 1
            samples.append(_positive(f"hot{b:02d}", f"h{hunk_no:04d}", hot_classes[(b + j) % 15]))
    for b in range(86):
        for j in range(2):
            hunk_no += 1
            samples.append(_positive(f"cold{b:02d}", f"h{hunk_no:04d}", f"Cold{b}_{j}"))
    d_ori = Dataset(name="D_ori", samples=samples)
    report = distribution_report(d_ori)
    assert report.topk_bug_share(11) > 0.50

    bugs = set(d_ori.positive_counts_by_bug())
    sampler = _spare_sampler(bugs, {})
    d_aug = generate_augmented_set(d_ori, 10, sampler, seed=3)
    d_bl = balance_dataset(d_ori, 0.7, 1.0, sampler, seed=3)
    aug_report = distribution_report(d_aug)
    bl_report = distribution_report(d_bl)
    for k in (5, 10):
        assert bl_report.topk_bug_share(k) < aug_report.topk_bug_share(k)
    _report(3, "D_bl(0.7, 1.0) top-k bug shares strictly below unbalanced D_aug for k in {5, 10}")


def _oracle_rr(ranking: list[str], relevant: set) -> Fraction:
    for pos, doc in enumerate(ranking, start=1):
        if doc in relevant:
            return Fraction(1, pos)
    return Fraction(0)


def _oracle_ap(ranking: list[str], relevant: set) -> Fraction:
    total = Fraction(0)
    hits = 0
    for pos, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
            total += Fraction(hits, pos)
    return total / len(relevant)


def _oracle_p_at_k(ranking: list[str], relevant: set, k: int) -> Fraction:
    return Fraction(sum(1 for d in ranking[:k] if d in relevant), k)


def _run_of(ranking: list[str]) -> list[tuple[str, float]]:
    return [(doc, float(len(ranking) - i)) for i, doc in enumerate(ranking)]


def test_criterion_4_metric_oracles():
    started = time.perf_counter()
    checked = 0
    for n_docs in range(1, 7):
        docs = [f"d{i}" for i in range(n_docs)]
        universe = docs + ["unretrieved"]
        relevant_sets = [
            set(combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations(universe, size)
        ]
        for perm in itertools.permutations(docs):
            ranking = list(perm)
            run = {"b": _run_of(ranking)}
            for relevant in relevant_sets:
                values = compute_metrics(run, {"b": relevant}, ["mrr", "map", "p@1", "p@3", "p@5"])
                assert abs(values["mrr"] - float(_oracle_rr(ranking, relevant))) <= 1e-12
                assert abs(values["map"] - float(_oracle_ap(ranking, relevant))) <= 1e-12
                for k in (1, 3, 5):
                    assert abs(values[f"p@{k}"] - float(_oracle_p_at_k(ranking, relevant, k))) <= 1e-12
                checked += 1
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(7, 60)
        docs = [f"d{i}" for i in range(n)]
        rng.shuffle(docs)
        ranking = docs[: rng.randint(1, n)]
        relevant = set(rng.sample(docs, rng.randint(1, min(10, n))))
        run = {"b": _run_of(ranking)}
        k = rng.randint(1, 12)
        values = compute_metrics(run, {"b": relevant}, ["mrr", "map", f"p@{k}"])
        assert abs(values["mrr"] - float(_oracle_rr(ranking, relevant))) <= 1e-12
        assert abs(values["map"] - float(_oracle_ap(ranking, relevant))) <= 1e-12
        assert abs(values[f"p@{k}"] - float(_oracle_p_at_k(ranking, relevant, k))) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - started
    _report(4, f"mrr/map/p@k match rational oracles on {checked} rankings ({elapsed:.2f}s)")


def test_criterion_5_operator_constraint_suite():
    rng = random.Random(555)
    dictionary = SubstituteDictionary.default()
    names = CodeNameDictionary(
        bug_id="b", names=("AsyncPool", "AsyncQueue", "NioChannel", "byteSink", "timerWheel")
    )
    applications = 0

    for _ in range(2000):  # random_swap: permutation, code positions fixed
        tokens = random_tokens(rng, rng.randint(1, 24))
        out = random_swap(tokens, rng.randint(0, 4), rng)
        applications += 1
        assert Counter(t.text for t in out) == Counter(t.text for t in tokens)
        assert all(out[i] == tokens[i] for i, t in enumerate(tokens) if t.is_code)

    for _ in range(2000):  # random_delete: sub-multiset, code preserved
        tokens = random_tokens(rng, rng.randint(1, 24))
        out = random_delete(tokens, rng.randint(0, 4), rng)
        applications += 1
        assert not Counter(t.text for t in out) - Counter(t.text for t in tokens)
        assert Counter(t.text for t in out if t.is_code) == Counter(t.text for t in tokens if t.is_code)

    for _ in range(1000):  # dictionary replace/insert never mutate code tokens
        tokens = random_tokens(rng, rng.randint(1, 24))
        replaced = dictionary_replace(tokens, dictionary, rng.randint(0, 3), rng)
        inserted = dictionary_insert(tokens, dictionary, rng.randint(0, 3), rng)
        applications += 2
        assert all(replaced[i] == tokens[i] for i, t in enumerate(tokens) if t.is_code)
        code_multiset = Counter(t.text for t in tokens if t.is_code)
        assert Counter(t.text for t in inserted if t.is_code) == code_multiset
        assert len(inserted) >= len(tokens)

    for _ in range(1500):  # code replace/insert never reduce token count
        tokens = random_tokens(rng, rng.randint(1, 20), code_ratio=0.5)
        replaced = code_token_replace(tokens, names, rng)
        applications += 1
        assert len(replaced) == len(tokens)
        inserted, event = traced_insert(tokens, names, rng)
        applications += 1
        assert len(inserted) >= len(tokens)
        if event is not None:
            anchor, index = event
            assert abs(index - anchor) <= 3 or index in (0, len(tokens))
            assert max(0, anchor - 3) <= index <= min(len(tokens), anchor + 3)

    for _ in range(1000):  # code swap predicates, on the pair the operator swapped
        n = rng.randint(2, 18)
        tokens = [Token(f"Name{i}", is_code=rng.random() < 0.6) for i in range(n)]
        context = rng.choice(["snippet", "prose", "stack_trace"])
        lines = None
        if context == "stack_trace":
            lines, line = [], 0
            for _ in range(n):
                line += rng.random() < 0.4
                lines.append(line)
        out, pair = traced_swap(tokens, context, rng, lines)
        applications += 1
        assert len(out) == len(tokens)
        assert Counter(t.text for t in out) == Counter(t.text for t in tokens)
        if pair is not None:
            i, j = pair
            if context == "stack_trace":
                assert abs(lines[i] - lines[j]) == 1
            else:
                assert abs(i - j) <= 3

    assert applications >= 10000
    _report(5, f"0 violations across {applications} randomized operator applications")


_CATEGORY_SENTENCES = {
    "OB": "the {code} does not respond and the request {verb} every time",
    "EB": "the {code} should accept the payload and reply correctly",
    "S2R": "steps to reproduce: 1. start {code} 2. send the request 3. watch it",
}


def test_criterion_6_qc_invariance(patterns, substitutes, monkeypatch):
    monkeypatch.setattr(nl_ops, "QC_MAX_RETRIES", 3)
    rng = random.Random(66)
    identifiers = ("AsyncContext", "NioChannel", "HttpParser")
    qc = QualityControl(patterns=patterns, identifiers=frozenset(identifiers))

    def chaos(text: str) -> str:
        # half the time, rewrite the code token into a plain word, breaking
        # the code-token count so QC has real rejections to exercise
        words = text.split()
        if rng.random() < 0.5:
            words = ["thing" if w in identifiers else w for w in words]
        if len(words) > 2 and rng.random() < 0.5:
            words.pop(rng.randrange(len(words)))
        return " ".join(words)

    accepted = rejected = 0
    for i in range(1000):
        kind = rng.choice(("OB", "EB", "S2R"))
        text = _CATEGORY_SENTENCES[kind].format(
            code=rng.choice(identifiers), verb=rng.choice(["fails", "hangs", "crashes"])
        )
        extra = " ".join(rng.choice(["today", "again", "locally", "remotely"]) for _ in range(rng.randint(0, 4)))
        tokens = detect_code_tokens(tokenize(text + " " + extra), identifiers)
        paragraph = Sample(kind=classify_tokens(tokens, patterns), tokens=tokens)
        if paragraph.kind not in ("OB", "EB", "S2R"):
            continue
        original_category = classify_tokens(paragraph.tokens, patterns)
        original_code_count = sum(t.is_code for t in paragraph.tokens)
        paraphraser = identity_paraphraser if i % 2 == 0 else chaos
        plan = paragraph_plan(paragraph, substitutes, qc)
        result = augment_paragraph(plan, substitutes, i, paraphraser, qc, ("qc", i))
        if result is REJECTED:
            rejected += 1
            continue
        accepted += 1
        # independent re-verification: classifier and counter run from scratch
        fresh = detect_code_tokens([t.text for t in result.tokens], identifiers)
        assert classify_tokens(fresh, patterns) == original_category
        assert sum(t.is_code for t in fresh) == original_code_count
    assert accepted > 0 and rejected > 0
    _report(6, f"category + code-token count preserved in all {accepted} accepted paragraphs "
               f"({rejected} rejected by QC)")


def test_criterion_7_levenshtein_and_topk_oracles():
    rng = random.Random(7)
    chars = "abcdefg_WXYZ"
    for _ in range(1000):
        a = "".join(rng.choice(chars) for _ in range(rng.randint(0, 14)))
        b = "".join(rng.choice(chars) for _ in range(rng.randint(0, 14)))
        assert levenshtein(a, b) == oracle_levenshtein(a, b)
    for _ in range(1000):
        names = {
            "".join(rng.choice(chars) for _ in range(rng.randint(1, 10)))
            for _ in range(rng.randint(1, 30))
        }
        token = "".join(rng.choice(chars) for _ in range(rng.randint(1, 10)))
        k = rng.randint(1, 25)
        assert top_k_substitutes(token, names, k) == oracle_top_k(token, names, k)
    _report(7, "levenshtein == DP oracle and top-k == full-sort oracle on 1000 random cases each")


def test_criterion_8_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    corpus = generate_corpus(tmp_path / "corpus", n_bugs=50, seed=7)
    manifests = []
    for run_dir in ("run_a", "run_b"):
        code = main(
            [
                "pipeline",
                "--bugs", str(corpus / "bugs.jsonl"),
                "--diffs", str(corpus / "diffs"),
                "--links", str(corpus / "links.jsonl"),
                "--out", str(tmp_path / run_dir),
                "--seed", "42",
            ]
        )
        assert code == 0
        manifests.append((tmp_path / run_dir / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s"
    _report(8, f"two 50-bug pipeline runs (seed 42) produced byte-identical manifests ({elapsed:.1f}s)")


def test_criterion_9_worked_paper_examples(patterns, substitutes, monkeypatch):
    # (a) the "does not" <-> "timeout" swap is a reachable random_swap output
    identifiers = ("Async",)
    tokens = detect_code_tokens(
        tokenize("Async connector does not timeout with HTTP NIO context."), identifiers
    )
    target = "Async connector does timeout not with HTTP NIO context."
    eligible = [i for i, t in enumerate(tokens) if not t.is_code]
    reachable = set()
    for i, j in itertools.combinations(eligible, 2):
        swapped = list(tokens)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        reachable.add(" ".join(t.text for t in swapped))
    assert target in reachable
    sampled = {
        " ".join(t.text for t in random_swap(tokens, 1, random.Random(seed))) for seed in range(400)
    }
    assert target in sampled
    assert sampled <= reachable | {" ".join(t.text for t in tokens)}

    # (b) QC rejects when the code token Async is replaced away (Async -> TCP)
    qc = QualityControl(patterns=patterns, identifiers=frozenset(identifiers))
    paragraph = Sample(kind="OB", tokens=tokens)

    def replace_async(text: str) -> str:
        return text.replace("Async", "TCP")

    monkeypatch.setattr(nl_ops, "QC_MAX_RETRIES", 4)
    result = augment_paragraph(paragraph_plan(paragraph, substitutes, qc), substitutes, 9,
                               replace_async, qc, ("t1",))
    assert result is REJECTED
    _report(9, "paper swap variant reachable by random_swap(n=1); QC rejects the lost code token")
