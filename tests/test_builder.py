from __future__ import annotations

import errno
import gc
import os
import random
import signal
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug import builder
from bugaug.builder import (
    ReportAugmenter,
    augmented_report_id,
    build_augmented_report,
    generate_augmented_set,
    generate_repeated_set,
    referenced_refs,
    write_reports,
    write_sharded,
)
from bugaug.code_ops import mine_code_names
from bugaug.corpus import build_d_ori
from bugaug.extract import structure_bug_report
from bugaug.model import (
    COUNTS,
    Dataset,
    Sample,
    StructuredBugReport,
    Token,
    TrainingSample,
    jsonl_line,
    report_sample_to_dict,
    structured_to_dict,
)
from bugaug.nl_ops import QualityControl, identity_paraphraser

from conftest import build_corpus, make_bug, negatives


def _sample(kind: str, *texts: str) -> Sample:
    return Sample(kind=kind, tokens=[Token(t) for t in texts])


def _structured(bug_id: str = "b1", n: int = 4) -> StructuredBugReport:
    kinds = ["OB", "EB", "S2R", "Other", "OB"]
    return StructuredBugReport(
        bug_id=bug_id,
        samples=[_sample(kinds[i % len(kinds)], f"tok{i}a", f"tok{i}b") for i in range(n)],
    )


def _assemble(structured: StructuredBugReport, aug_samples: list[Sample], rng, p_drop: float):
    """build_augmented_report as the augmenter calls it for the bug's first
    report, with no operator applied to any sample."""
    return build_augmented_report(structured, aug_samples, rng, p_drop,
                                  augmented_report_id(structured.bug_id, 1),
                                  [[] for _ in structured.samples])


def test_single_sample_report_is_never_dropped_or_permuted():
    structured = _structured(n=1)
    report = _assemble(structured, list(structured.samples), random.Random(0), p_drop=1.0)
    assert report["permutation"] == [0]
    assert len(report["samples"]) == 1


def test_p_drop_zero_preserves_length():
    structured = _structured(n=5)
    for seed in range(20):
        report = _assemble(structured, list(structured.samples), random.Random(seed), p_drop=0.0)
        assert len(report["samples"]) == 5


def test_at_most_one_sample_dropped_and_first_ob_protected():
    structured = _structured(n=5)  # kinds: OB EB S2R Other OB -> index 0 protected
    for seed in range(200):
        report = _assemble(structured, list(structured.samples), random.Random(seed), p_drop=1.0)
        dropped = [p["sample_index"] for p in report["provenance"] if p["dropped"]]
        assert len(dropped) == 1
        assert dropped[0] != 0
        assert len(report["samples"]) == 4


def test_second_ob_may_be_dropped_but_not_the_first():
    structured = StructuredBugReport(
        bug_id="b",
        samples=[_sample("OB", "first"), _sample("StackTrace", "at"), _sample("OB", "third")],
    )
    dropped_indices = set()
    for seed in range(300):
        report = _assemble(structured, list(structured.samples), random.Random(seed), p_drop=1.0)
        dropped_indices.update(p["sample_index"] for p in report["provenance"] if p["dropped"])
    assert 0 not in dropped_indices
    assert dropped_indices == {1, 2}


def test_permutation_and_drop_replay_bit_exact():
    structured = _structured(n=6)
    aug_samples = list(structured.samples)
    for seed in range(50):
        report = _assemble(structured, aug_samples, random.Random(seed), p_drop=0.7)
        dropped = {p["sample_index"] for p in report["provenance"] if p["dropped"]}
        assert report["samples"] == [report_sample_to_dict(aug_samples[i])
                                     for i in report["permutation"] if i not in dropped]


def test_zero_samples_is_an_error():
    structured = StructuredBugReport(bug_id="b", samples=[])
    with pytest.raises(ValueError):
        _assemble(structured, [], random.Random(0), p_drop=0.5)


def test_misaligned_samples_is_an_error():
    structured = _structured(n=3)
    with pytest.raises(ValueError):
        _assemble(structured, structured.samples[:2], random.Random(0), p_drop=0.5)


# --- dataset generators -----------------------------------------------------


def _tiny_d_ori() -> tuple[Dataset, object]:
    bugs, corpus = build_corpus(
        {
            "b1": {"inducing": {"cs1": ["Alpha"]}, "fixing": {"cs1f": ["Alpha"]}},
            "b2": {"inducing": {"cs2": ["Beta"]}, "fixing": {"cs2f": ["Beta"]}},
            "_extra": {"csN": ["Gamma", "Delta", "Epsilon"]},
        }
    )
    d_ori = build_d_ori(list(bugs.values()), corpus, rng_seed=3)
    return d_ori, corpus.negative_sampler()


def test_augmented_set_factor_one_arithmetic():
    d_ori, sampler = _tiny_d_ori()
    assert len(d_ori) == 4  # 2 positives + 2 negatives
    d_aug = generate_augmented_set(d_ori, 1, sampler, seed=5)
    assert len(d_aug) == 8


def test_augmented_set_scales_as_one_plus_factor():
    d_ori, sampler = _tiny_d_ori()
    for factor in (1, 3, 10):
        d_aug = generate_augmented_set(d_ori, factor, sampler, seed=5)
        assert len(d_aug) == (1 + factor) * len(d_ori)
        positives = d_aug.positives()
        assert len(positives) == len(negatives(d_aug))


def test_augmented_positives_keep_origin_hunk():
    d_ori, sampler = _tiny_d_ori()
    d_aug = generate_augmented_set(d_ori, 4, sampler, seed=5)
    by_origin = {p.hunk_id for p in d_ori.positives()}
    for p in d_aug.positives():
        assert p.hunk_id in by_origin
        if "#aug" in p.bug_ref:
            assert p.bug_ref.startswith(p.origin_bug_id + "#aug")


def test_augmented_negative_pairs_share_the_augmented_ref():
    d_ori, sampler = _tiny_d_ori()
    d_aug = generate_augmented_set(d_ori, 2, sampler, seed=5)
    new = [s for s in d_aug.samples if "#aug" in s.bug_ref]
    refs = Counter(s.bug_ref for s in new)
    assert all(count == 2 for count in refs.values())  # one positive + one negative each


def test_repeated_set_scales_as_factor():
    d_ori, sampler = _tiny_d_ori()
    for factor in (1, 2, 10):
        d_rep = generate_repeated_set(d_ori, factor, sampler, seed=6)
        assert len(d_rep) == factor * len(d_ori)


def test_repeated_set_factor_one_is_identity():
    d_ori, sampler = _tiny_d_ori()
    d_rep = generate_repeated_set(d_ori, 1, sampler, seed=6)
    assert d_rep.samples == d_ori.samples


def test_repeated_positives_are_verbatim_copies():
    d_ori, sampler = _tiny_d_ori()
    d_rep = generate_repeated_set(d_ori, 3, sampler, seed=6)
    expected = Counter((p.bug_ref, p.hunk_id) for p in d_ori.positives())
    got = Counter((p.bug_ref, p.hunk_id) for p in d_rep.positives())
    assert got == {key: 3 * count for key, count in expected.items()}


def test_generators_reject_factor_below_one():
    d_ori, sampler = _tiny_d_ori()
    with pytest.raises(ValueError):
        generate_augmented_set(d_ori, 0, sampler, seed=1)
    with pytest.raises(ValueError):
        generate_repeated_set(d_ori, 0, sampler, seed=1)


# --- full ReportAugmenter -----------------------------------------------------


def _full_augmenter(patterns, substitutes) -> ReportAugmenter:
    _, corpus = build_corpus(
        {
            "b1": {"inducing": {"cs1": ["AsyncDispatcher", "TimerQueue"]}, "fixing": {"cs1f": ["AsyncDispatcher", "TimerQueue"]}},
            "_extra": {"csN": ["Gamma"]},
        }
    )
    bug = make_bug(
        "b1",
        summary="AsyncDispatcher does not release the TimerQueue",
        description=(
            "The dispatcher hangs after shutdown.\n\n"
            "It should stop all timers properly.\n\n"
            "Steps to reproduce: 1. start 2. stop"
        ),
    )
    identifiers = ("AsyncDispatcher", "TimerQueue")
    structured = structure_bug_report(bug, patterns, identifiers=identifiers)
    names = mine_code_names("b1", corpus.inducing_hunks("b1"))
    return ReportAugmenter(
        records={"b1": structured_to_dict(structured)},
        code_names={"b1": names}.get,
        dictionary=substitutes,
        qc=QualityControl(patterns=patterns, identifiers=frozenset(identifiers)),
        seed=77,
        paraphraser=identity_paraphraser,
        p_drop=0.5,
    )


def test_report_augmenter_produces_replayable_reports(patterns, substitutes):
    augmenter = _full_augmenter(patterns, substitutes)
    report = augmenter.augment("b1", 1)
    assert report["id"] == "b1#aug1"
    assert report["origin_bug_id"] == "b1"
    n_original = len(augmenter.plan("b1").structured.samples)
    assert len(report["samples"]) in (n_original - 1, n_original)
    assert sorted(report["permutation"]) == list(range(n_original))


def test_report_augmenter_is_deterministic(patterns, substitutes):
    first = _full_augmenter(patterns, substitutes).augment("b1", 2)
    second = _full_augmenter(patterns, substitutes).augment("b1", 2)
    assert first["permutation"] == second["permutation"]
    assert [s["text"] for s in first["samples"]] == [s["text"] for s in second["samples"]]


def test_report_augmenter_looks_up_the_sample_operators_when_called(patterns, substitutes,
                                                                   monkeypatch):
    """A wrapper installed over builder.augment_paragraph or
    builder.augment_code_sample after the augmenter and its plans exist is
    the one augment calls, and it sees every NL and code sample."""
    augmenter = _full_augmenter(patterns, substitutes)
    expected = augmenter.augment("b1", 3)
    calls = Counter()
    for name in ("augment_paragraph", "augment_code_sample"):
        def counted(*args, name=name, run=getattr(builder, name), **kwargs):
            calls[name] += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(builder, name, counted)
    report = augmenter.augment("b1", 3)
    assert report == expected
    ops = [p["applied_ops"] for p in report["provenance"]]
    assert calls["augment_paragraph"] == sum(op.startswith("nl") for o in ops for op in o) > 0
    assert calls["augment_code_sample"] == sum(o.count("code") for o in ops) > 0


def test_referenced_reports_follow_first_reference_order(patterns, substitutes):
    augmenter = _full_augmenter(patterns, substitutes)
    dataset = Dataset(
        name="D",
        samples=[
            TrainingSample(bug_ref=ref, origin_bug_id="b1", hunk_id="h", class_name="C", label="positive")
            for ref in ("b1", "b1#aug2", "b1#aug1", "b1#aug2", "b1")
        ],
    )
    assert referenced_refs(dataset) == [("b1", 2), ("b1", 1)]
    reports = [augmenter.augment(*ref) for ref in referenced_refs(dataset)]
    assert [r["id"] for r in reports] == ["b1#aug2", "b1#aug1"]
    assert reports == [augmenter.augment("b1", n) for n in (2, 1)]


def test_referenced_refs_refuse_a_ref_that_is_no_augmented_report_id():
    for ref in ("b1-copy", "b1#aug", "b1#augx", "b1#aug01", "b2#aug1", "7"):
        sample = TrainingSample(bug_ref=ref, origin_bug_id="b1", hunk_id="h", class_name="C",
                                label="positive")
        with pytest.raises(ValueError, match=f"^bug_ref '{ref}' of bug 'b1' is neither"):
            referenced_refs(Dataset(name="D", samples=[sample]))


def test_report_augmenter_unknown_bug_raises(patterns, substitutes):
    with pytest.raises(KeyError):
        _full_augmenter(patterns, substitutes).augment("missing", 1)


def test_generated_negatives_avoid_inducing_classes_and_keep_ratio():
    bugs, corpus = build_corpus(
        {
            "b1": {"inducing": {"cs1": ["Alpha"]}, "fixing": {"cs1f": ["Alpha"]}},
            "b2": {"inducing": {"cs2": ["Beta"]}, "fixing": {"cs2f": ["Beta"]}},
            "_extra": {"csN": ["Gamma", "Delta"]},
        }
    )
    d_ori = build_d_ori(list(bugs.values()), corpus, rng_seed=3)
    sampler = corpus.negative_sampler()
    for dataset in (
        generate_augmented_set(d_ori, 5, sampler, seed=8),
        generate_repeated_set(d_ori, 5, sampler, seed=8),
    ):
        assert len(dataset.positives()) == len(negatives(dataset))
        for neg in negatives(dataset):
            assert neg.class_name not in corpus.inducing_classes(neg.origin_bug_id)


def _cpus(monkeypatch, count: int) -> None:
    """Make the report writer see count CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(ordinals=st.lists(st.integers(1, 9), unique=True, max_size=8), shards=st.integers(1, 4))
def test_sharded_reports_are_the_one_shard_bytes(tmp_path_factory, patterns, substitutes, ordinals,
                                                  shards):
    """Any ref list (empty, one ref, fewer refs than shards) on 1 to 4 CPUs:
    the same bytes as one shard, the children's ranking calls are counted
    here as one shard counts them, and each store span reads back its own
    line."""
    augment = _full_augmenter(patterns, substitutes).augment
    refs = [("b1", n) for n in ordinals]
    lines = [jsonl_line(augment(*ref)).encode("utf-8") for ref in refs]
    path = tmp_path_factory.mktemp("reports") / "reports.jsonl"
    deltas = []
    for count in (1, shards):
        before = COUNTS.copy()
        store = {}
        with pytest.MonkeyPatch.context() as monkeypatch:
            _cpus(monkeypatch, count)
            write_reports(path, refs, augment, store)
        delta = COUNTS - before
        assert path.read_bytes() == b"".join(lines)
        assert delta["substitute_misses"] == 0  # the first build above ranked every key
        deltas.append(delta)
        assert list(store) == refs
        fd = os.open(path, os.O_RDONLY)
        try:
            for ref, line in zip(refs, lines):
                file, offset, length = store[ref]
                assert file == path
                assert os.pread(fd, length, offset) == line
        finally:
            os.close(fd)
    assert deltas[0] == deltas[1]
    assert _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_sharded_returns_each_line_length_and_adds_each_shards_counts(tmp_path, monkeypatch,
                                                                            cpus):
    """Three items on 1 to 3 CPUs (at 3, every shard holds one item): each
    line's length comes back in item order, and every count a line made, in
    whichever process, reaches COUNTS here."""
    items = ["a", "bb", "ccc"]

    def line(item: str) -> bytes:
        COUNTS["test_lines"] += 1
        COUNTS[f"test_{item}"] += len(item)
        return item.encode("utf-8") * 2 + b"\n"

    _cpus(monkeypatch, cpus)
    before = COUNTS.copy()
    lengths = write_sharded(tmp_path / "lines.txt", items, line, "line")
    assert (tmp_path / "lines.txt").read_bytes() == b"aa\nbbbb\ncccccc\n"
    assert lengths == [3, 5, 7]
    assert COUNTS - before == {"test_lines": 3, "test_a": 1, "test_bb": 2, "test_ccc": 3}
    assert _no_child_left()


def test_a_shard_this_process_builds_fails_after_every_child_is_reaped(tmp_path, monkeypatch,
                                                                       patterns, substitutes):
    augment = _full_augmenter(patterns, substitutes).augment

    def fails_first(origin, ordinal):
        if ordinal == 1:
            raise ValueError("first shard fails")
        return augment(origin, ordinal)

    _cpus(monkeypatch, 3)
    path = tmp_path / "reports.jsonl"
    with pytest.raises(ValueError, match="first shard fails"):
        write_reports(path, [("b1", n) for n in range(1, 7)], fails_first, {})
    assert _no_child_left()
    assert list(tmp_path.iterdir()) == []


def test_a_child_killed_by_a_signal_fails_the_write(tmp_path, monkeypatch, patterns, substitutes):
    augment = _full_augmenter(patterns, substitutes).augment
    parent = os.getpid()

    def dies_in_the_last_shard(origin, ordinal):
        if ordinal == 6 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return augment(origin, ordinal)

    _cpus(monkeypatch, 2)
    path = tmp_path / "reports.jsonl"
    with pytest.raises(RuntimeError, match=f"report shard 2 of 2 was killed by signal {int(signal.SIGKILL)}$"):
        write_reports(path, [("b1", n) for n in range(1, 7)], dies_in_the_last_shard, {})
    assert _no_child_left()
    assert list(tmp_path.iterdir()) == []


def test_a_shard_that_cannot_be_forked_fails_the_write_and_leaks_no_file(tmp_path, monkeypatch):
    """os.fork refuses the second shard: the call fails naming the shard, the
    shard's temporary files are closed (the suite turns an unclosed file's
    ResourceWarning into an error) and path is removed."""
    def refuse():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse)
    refused = f"^line shard 2 of 2 could not start: .*{os.strerror(errno.EAGAIN)}$"
    with pytest.raises(RuntimeError, match=refused):
        write_sharded(tmp_path / "lines.txt", ["a\n", "b\n"], str.encode, "line")
    gc.collect()
    assert list(tmp_path.iterdir()) == []


def test_a_process_running_threads_forks_no_shard(tmp_path, monkeypatch, patterns, substitutes):
    augment = _full_augmenter(patterns, substitutes).augment
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    refs = [("b1", n) for n in range(1, 7)]
    _cpus(monkeypatch, 3)
    write_reports(tmp_path / "alone.jsonl", refs, augment, {})
    assert len(forks) == 2
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(10,))
    waiter.start()
    try:
        write_reports(tmp_path / "threaded.jsonl", refs, augment, {})
    finally:
        stop.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert len(forks) == 2
    assert (tmp_path / "threaded.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
