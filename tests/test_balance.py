from __future__ import annotations

import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug.balance import balance_dataset, distribution_report, scaled_cap
from bugaug.builder import augmented_report_id
from bugaug.corpus import NegativeSampler
from bugaug.model import Dataset, TrainingSample

from conftest import make_hunk


def _positive(bug: str, hunk: str, cls: str) -> TrainingSample:
    return TrainingSample(bug_ref=bug, origin_bug_id=bug, hunk_id=hunk, class_name=cls, label="positive")


def _dataset(positives: list[tuple[str, str, str]]) -> Dataset:
    return Dataset(name="D_train", samples=[_positive(b, h, c) for b, h, c in positives])


def _sampler(positives: list[tuple[str, str, str]]) -> NegativeSampler:
    pool = [make_hunk(f"neg{i}", "csn", f"Spare{i}") for i in range(3)]
    return NegativeSampler(pool, lambda bug: frozenset(c for b, _, c in positives if b == bug))


def test_scaled_cap_uses_exact_arithmetic():
    assert scaled_cap(1.3, 10) == 13  # float multiply would give 14
    assert scaled_cap(0.7, 4) == 3
    assert scaled_cap(1.0, 4) == 4
    assert scaled_cap(0.85, 2) == 2


def test_hand_traced_balancing():
    # bug A: 4 hunks in class X; bug B: 1 hunk in class Y; alpha=omega=1.0
    # caps: max_br=4, max_cl=4; B gains 3 Y-positives, A gains none
    positives = [("A", f"hA{i}", "X") for i in range(4)] + [("B", "hB0", "Y")]
    d_train = _dataset(positives)
    d_bl = balance_dataset(d_train, 1.0, 1.0, _sampler(positives), seed=2)
    counts = d_bl.positive_counts_by_bug()
    assert counts == {"A": 4, "B": 4}
    class_counts = d_bl.positive_counts_by_class()
    assert class_counts == {"X": 4, "Y": 4}


def test_bug_already_above_cap_gets_no_additions():
    positives = [("A", f"hA{i}", "X") for i in range(4)] + [("B", "hB0", "Y")]
    d_train = _dataset(positives)
    d_bl = balance_dataset(d_train, 0.7, 5.0, _sampler(positives), seed=2)
    # max_br = ceil(0.7*4) = 3; A already has 4 (copy retained, nothing added)
    counts = d_bl.positive_counts_by_bug()
    assert counts["A"] == 4
    assert counts["B"] == 3


def test_class_saturated_by_earlier_bug_stops_later_bug():
    # A and B share class X; A is processed first (ascending id), its
    # additions saturate X, so B gains nothing
    positives = [("A", "hA0", "X"), ("B", "hB0", "X")]
    d_train = _dataset(positives)
    d_bl = balance_dataset(d_train, 3.0, 2.0, _sampler(positives), seed=2)
    # max_br = 3, max_cl = ceil(2*2) = 4; A grows 1->3 (X: 2->4), X full, B stays 1
    counts = d_bl.positive_counts_by_bug()
    assert counts == {"A": 3, "B": 1}
    assert d_bl.positive_counts_by_class()["X"] == 4


def test_balance_logs_the_bugs_and_additions_the_class_cap_stopped(caplog):
    # A has 4 X-positives, B and D one X-positive each, C one Y-positive;
    # alpha=omega=1.0: max_br=4, max_cl=6, and X starts at its cap, so B
    # and D stay at 1 (3 additions refused each) while C grows to 4
    positives = ([("A", f"hA{i}", "X") for i in range(4)]
                 + [("B", "hB0", "X"), ("C", "hC0", "Y"), ("D", "hD0", "X")])
    caplog.set_level(logging.INFO, logger="bugaug")
    d_bl = balance_dataset(_dataset(positives), 1.0, 1.0, _sampler(positives), seed=2)
    assert d_bl.positive_counts_by_bug() == {"A": 4, "B": 1, "C": 4, "D": 1}
    assert d_bl.positive_counts_by_class() == {"X": 6, "Y": 4}
    assert [r.getMessage() for r in caplog.records if r.name == "bugaug.balance"] == [
        "class cap 6 stopped 2 bugs below the per-bug cap 4 and refused 6 additions"]


def test_balanced_output_contains_input_as_multiset():
    positives = [("A", "hA0", "X"), ("A", "hA1", "Y"), ("B", "hB0", "Z")]
    d_train = _dataset(positives)
    d_bl = balance_dataset(d_train, 2.0, 2.0, _sampler(positives), seed=4)
    assert len(d_bl) >= len(d_train)
    original = Counter(d_train.samples)
    merged = Counter(d_bl.samples)
    assert all(merged[s] >= c for s, c in original.items())


def test_additions_respect_caps_on_random_fixtures():
    rng = random.Random(31)
    for _ in range(40):
        n_bugs = rng.randint(2, 8)
        classes = [f"C{i}" for i in range(rng.randint(2, 5))]
        positives = []
        hunk_no = 0
        for b in range(n_bugs):
            for _ in range(rng.randint(1, 9)):
                hunk_no += 1
                positives.append((f"b{b:02d}", f"h{hunk_no:03d}", rng.choice(classes)))
        d_train = _dataset(positives)
        alpha = rng.choice([0.5, 0.7, 1.0, 1.3, 2.0])
        omega = rng.choice([0.5, 1.0, 2.0, 2.5])
        d_bl = balance_dataset(d_train, alpha, omega, _sampler(positives), seed=rng.randint(0, 99))
        max_br = scaled_cap(alpha, max(d_train.positive_counts_by_bug().values()))
        max_cl = scaled_cap(omega, max(d_train.positive_counts_by_class().values()))
        added = d_bl.samples[len(d_train.samples):]
        final_bug = d_bl.positive_counts_by_bug()
        final_class = d_bl.positive_counts_by_class()
        for sample in added:
            if sample.label != "positive":
                continue
            assert final_bug[sample.origin_bug_id] <= max_br
            assert final_class[sample.class_name] <= max_cl


# (bug, hunk number, class); a hunk keeps the class it is first drawn with
_DRAWN_POSITIVES = st.lists(
    st.tuples(st.sampled_from("ABCDE"), st.integers(0, 3), st.sampled_from("WXYZ")),
    min_size=1, max_size=14,
)


@settings(derandomize=True, database=None, deadline=None)
@given(drawn=_DRAWN_POSITIVES, alpha_tenths=st.integers(1, 40), omega_tenths=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_balance_caps_hold_for_random_training_sets(drawn, alpha_tenths, omega_tenths, seed):
    class_of: dict[str, str] = {}
    positives = []
    for bug, number, cls in drawn:
        hunk = f"h{bug}{number}"
        positives.append((bug, hunk, class_of.setdefault(hunk, cls)))
    sampler = _sampler(positives)
    d_ori = Dataset(name="D_ori", samples=[
        sample
        for bug, hunk, cls in positives
        for sample in (_positive(bug, hunk, cls), TrainingSample(
            bug_ref=bug, origin_bug_id=bug, hunk_id="neg0", class_name="Spare0", label="negative"))
    ])
    d_bl = balance_dataset(d_ori, alpha_tenths / 10, omega_tenths / 10, sampler, seed)

    # ceil(alpha * M_br) and ceil(omega * M_cl), in integers
    max_br = -(-alpha_tenths * max(Counter(b for b, _, _ in positives).values()) // 10)
    max_cl = -(-omega_tenths * max(Counter(c for _, _, c in positives).values()) // 10)
    assert d_bl.samples[: len(d_ori)] == d_ori.samples
    added = d_bl.samples[len(d_ori):]
    assert len(added) % 2 == 0
    bug_counts = d_bl.positive_counts_by_bug()
    class_counts = d_bl.positive_counts_by_class()
    own_hunks = {(b, h, c) for b, h, c in positives}
    for positive, negative in zip(added[::2], added[1::2]):
        bug = positive.origin_bug_id
        assert positive.label == "positive" and negative.label == "negative"
        assert positive.bug_ref == negative.bug_ref != bug
        assert (bug, positive.hunk_id, positive.class_name) in own_hunks
        assert negative.class_name not in {c for b, _, c in positives if b == bug}
        assert bug_counts[bug] <= max_br
        assert class_counts[positive.class_name] <= max_cl
    # a bug stops below its cap only when every class it could add is full
    for bug, count in bug_counts.items():
        assert count >= max_br or all(
            class_counts[c] >= max_cl for b, _, c in positives if b == bug
        )


def test_balancing_is_deterministic():
    positives = [("A", "hA0", "X"), ("B", "hB0", "Y"), ("B", "hB1", "Z")]
    d_train = _dataset(positives)
    runs = [
        balance_dataset(d_train, 2.0, 2.0, _sampler(positives), seed=7).samples
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_each_addition_consumes_a_fresh_report():
    positives = [("A", "hA0", "X"), ("B", "hB0", "Y")]
    d_train = _dataset(positives)
    d_bl = balance_dataset(d_train, 3.0, 5.0, _sampler(positives), seed=7)
    added_positives = [s for s in d_bl.samples[len(d_train.samples):] if s.label == "positive"]
    assert added_positives
    for bug in ("A", "B"):
        refs = [s.bug_ref for s in added_positives if s.origin_bug_id == bug]
        assert refs == [augmented_report_id(bug, n) for n in range(1, len(refs) + 1)]
    assert len({s.bug_ref for s in added_positives}) == len(added_positives)


def test_additions_are_numbered_after_the_refs_the_input_holds():
    """Balancing an augmented set adds reports it does not reference yet."""
    positives = [("A", "hA0", "X"), ("B", "hB0", "Y")]
    augmented = [TrainingSample(bug_ref=augmented_report_id(bug, n), origin_bug_id=bug, hunk_id=hunk,
                                class_name=cls, label="positive")
                 for bug, hunk, cls, n in (("A", "hA0", "X", 3), ("A", "hA0", "X", 1),
                                           ("B", "hB0", "Y", 2))]
    d_train = Dataset("D_aug", [*_dataset(positives).samples, *augmented])
    d_bl = balance_dataset(d_train, 3.0, 5.0, _sampler(positives), seed=7)
    added_positives = [s for s in d_bl.samples[len(d_train.samples):] if s.label == "positive"]
    for bug, last in (("A", 3), ("B", 2)):
        refs = [s.bug_ref for s in added_positives if s.origin_bug_id == bug]
        assert refs == [augmented_report_id(bug, n) for n in range(last + 1, last + 1 + len(refs))]
        assert refs
    assert not {s.bug_ref for s in added_positives} & {s.bug_ref for s in d_train.samples}


def test_balance_rejects_bad_parameters():
    d_train = _dataset([("A", "h", "X")])
    with pytest.raises(ValueError):
        balance_dataset(d_train, 0.0, 1.0, _sampler([("A", "h", "X")]), seed=1)
    with pytest.raises(ValueError):
        balance_dataset(Dataset("empty", []), 1.0, 1.0, _sampler([("A", "h", "X")]), seed=1)


# --- distribution report -------------------------------------------------------


def test_uniform_dataset_share_is_k_over_n():
    positives = [(f"b{i}", f"h{i}{j}", f"C{i}") for i in range(10) for j in range(3)]
    report = distribution_report(_dataset(positives))
    for k in (1, 3, 7):
        assert report.topk_bug_share(k) == pytest.approx(k / 10)


def test_single_bug_top1_share_is_one():
    report = distribution_report(_dataset([("b", "h1", "X"), ("b", "h2", "Y")]))
    assert report.topk_bug_share(1) == 1.0


def test_report_counts_are_sorted_desc():
    positives = [("a", "h1", "X"), ("b", "h2", "X"), ("b", "h3", "Y"), ("b", "h4", "Y")]
    report = distribution_report(_dataset(positives))
    counts = [c for _, c in report.per_bug_counts]
    assert counts == sorted(counts, reverse=True)
    assert report.per_bug_counts[0] == ("b", 3)
    assert report.per_class_counts[0][1] >= report.per_class_counts[-1][1]


def test_report_on_empty_dataset_raises():
    with pytest.raises(ValueError):
        distribution_report(Dataset("x", []))


def test_report_to_dict_shape():
    report = distribution_report(_dataset([("b", "h1", "X")]))
    payload = report.to_dict(top_k=3)
    assert payload["total_positives"] == 1
    assert set(payload["topk_bug_share"]) == {"1", "2", "3"}
