from __future__ import annotations

import gc
import logging
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugaug.corpus import (
    NegativeSampler,
    build_d_ori,
    drop_unusable_bugs,
    ingest_corpus,
    load_bugs,
    load_diff_dir,
    load_hunks_jsonl,
    split_by_date,
)
from bugaug.fixtures import generate_corpus
from bugaug.model import (
    CorpusError,
    bug_from_dict,
    changeset_from_dict,
    hunk_to_dict,
    link_from_dict,
    read_jsonl,
    write_jsonl,
)

from conftest import build_corpus, make_bug, make_hunk, negatives


def test_positive_filter_keeps_only_classes_touched_by_fix():
    bugs, corpus = build_corpus(
        {
            "b1": {
                "inducing": {"csI": ["Alpha", "Beta"]},
                "fixing": {"csF": ["Alpha"]},
            },
            "_extra": {"csN": ["Gamma", "Delta"]},
        }
    )
    dataset = build_d_ori([bugs["b1"]], corpus, rng_seed=1)
    positives = dataset.positives()
    assert positives and all(p.class_name == "Alpha" for p in positives)


def test_positive_negative_counts_match_and_exclusion_holds():
    bugs, corpus = build_corpus(
        {
            "b1": {"inducing": {"cs1": ["Alpha", "Beta"]}, "fixing": {"cs1f": ["Alpha", "Beta"]}},
            "b2": {"inducing": {"cs2": ["Gamma"]}, "fixing": {"cs2f": ["Gamma"]}},
            "_extra": {"csN": ["Delta", "Epsilon"]},
        }
    )
    dataset = build_d_ori(list(bugs.values()), corpus, rng_seed=9)
    assert len(dataset.positives()) == len(negatives(dataset))
    for neg in negatives(dataset):
        assert neg.class_name not in corpus.inducing_classes(neg.origin_bug_id)


def test_negatives_are_deterministic_under_seed():
    bugs, corpus = build_corpus(
        {
            "b1": {"inducing": {"cs1": ["Alpha"]}, "fixing": {"cs1f": ["Alpha"]}},
            "_extra": {"csN": ["Beta", "Gamma", "Delta"]},
        }
    )
    first = build_d_ori(list(bugs.values()), corpus, rng_seed=7)
    second = build_d_ori(list(bugs.values()), corpus, rng_seed=7)
    assert first.samples == second.samples
    assert negatives(first)


def test_bug_with_no_surviving_hunks_is_excluded_and_logged(caplog):
    bugs, corpus = build_corpus(
        {
            "b1": {"inducing": {"cs1": ["Alpha"]}, "fixing": {"cs1f": ["Beta"]}},
            "_extra": {"csN": ["Gamma"]},
        }
    )
    with caplog.at_level(logging.WARNING):
        dataset = build_d_ori([bugs["b1"]], corpus, rng_seed=1)
    assert dataset.samples == []
    assert any("excluded" in rec.message for rec in caplog.records)


def test_no_eligible_negative_class_raises():
    bugs, corpus = build_corpus(
        {"b1": {"inducing": {"cs1": ["Alpha"]}, "fixing": {"cs1f": ["Alpha"]}}}
    )
    with pytest.raises(CorpusError):
        build_d_ori([bugs["b1"]], corpus, rng_seed=1)


def test_missing_changeset_raises():
    bugs, corpus = build_corpus(
        {"b1": {"inducing": {"cs1": ["Alpha"]}, "fixing": {"cs1f": ["Alpha"]}}}
    )
    corpus.links["b1"] = corpus.links["b1"].__class__(
        bug_id="b1", inducing_changeset_ids=("nope",), fixing_changeset_ids=("cs1f",)
    )
    with pytest.raises(CorpusError):
        build_d_ori([bugs["b1"]], corpus, rng_seed=1)


def test_split_even_count():
    bugs = [make_bug(f"b{i}", day=i) for i in range(4)]
    train, test = split_by_date(bugs)
    assert [b.id for b in train] == ["b0", "b1"]
    assert [b.id for b in test] == ["b2", "b3"]


def test_split_odd_count_gives_train_the_ceiling():
    bugs = [make_bug(f"b{i}", day=i) for i in range(5)]
    train, test = split_by_date(bugs)
    assert len(train) == 3 and len(test) == 2


def test_split_tie_breaks_by_bug_id():
    bugs = [make_bug("b2", day=0), make_bug("b1", day=0)]
    train, test = split_by_date(bugs)
    assert [b.id for b in train] == ["b1"]
    assert [b.id for b in test] == ["b2"]


def test_split_partitions_input():
    bugs = [make_bug(f"b{i:02d}", day=i % 3) for i in range(9)]
    train, test = split_by_date(bugs)
    assert sorted(b.id for b in train + test) == sorted(b.id for b in bugs)
    assert not {b.id for b in train} & {b.id for b in test}


def test_wont_fix_and_not_a_bug_are_dropped():
    bugs = [
        make_bug("b1", status="fixed"),
        make_bug("b2", status="wont_fix"),
        make_bug("b3", status="not_a_bug"),
        make_bug("b4", status="other"),
    ]
    assert [b.id for b in drop_unusable_bugs(bugs)] == ["b1", "b4"]


def test_ingest_on_generated_fixture(tmp_path):
    corpus_dir = generate_corpus(tmp_path / "corpus", n_bugs=8, seed=3)
    result = ingest_corpus(
        corpus_dir / "bugs.jsonl", corpus_dir / "diffs", corpus_dir / "links.jsonl", seed=5
    )
    assert len(result.train_bugs) == 4 and len(result.test_bugs) == 4
    assert len(result.d_ori.positives()) == len(negatives(result.d_ori)) > 0
    assert result.qrels  # test bugs have relevance judgments
    # dropped statuses never reach the split
    assert all(b.status == "fixed" for b in result.train_bugs + result.test_bugs)


def test_changesets_without_a_diff_file_are_counted_in_one_warning(tmp_path, caplog):
    """A listed changeset whose .diff file is missing gets no hunks, and one
    warning gives their count and the first five ids in file order; an empty
    .diff file also gives no hunks, silently."""
    diffs = generate_corpus(tmp_path / "corpus", n_bugs=8, seed=3) / "diffs"
    ids = [cs.id for cs in read_jsonl(diffs / "changesets.jsonl", changeset_from_dict)]
    with caplog.at_level(logging.WARNING, logger="bugaug.corpus"):
        _, complete = load_diff_dir(diffs)
    assert caplog.records == []
    assert all(complete[cs_id] for cs_id in ids)

    missing, empty = ids[1:8], ids[9]
    for cs_id in missing:
        (diffs / f"{cs_id}.diff").unlink()
    (diffs / f"{empty}.diff").write_text("", "utf-8")
    with caplog.at_level(logging.WARNING, logger="bugaug.corpus"):
        changesets, hunks = load_diff_dir(diffs)
    assert list(changesets) == ids
    assert [cs_id for cs_id in ids if not hunks[cs_id]] == [*missing, empty]
    assert [record.getMessage() for record in caplog.records] == [
        f"7 changesets in {diffs / 'changesets.jsonl'} have no .diff file and so no hunks: "
        f"{', '.join(missing[:5])}, ..."]


def test_duplicate_bug_ids_rejected(tmp_path):
    """An id a second bug reuses is refused, in the same project or in
    another one: every artifact keys on the id alone."""
    path = tmp_path / "bugs.jsonl"
    record = (
        '{"id": "b1", "project": "p", "summary": "s", "description": "",'
        ' "opened_at": "2021-01-01T00:00:00Z", "status": "fixed"}'
    )
    for project in ("p", "other"):
        again = record.replace('"project": "p"', f'"project": "{project}"')
        path.write_text(record + "\n" + again + "\n", "utf-8")
        with pytest.raises(CorpusError, match=f"duplicate bug id 'b1', in project 'p' and in project '{project}'$"):
            load_bugs(path)


@pytest.mark.parametrize("file, line, error", [
    ("bugs.jsonl", '{"id": "b9", "opened_at": "2021-01-01T00:00:00Z"}', "missing field 'summary'"),
    ("bugs.jsonl", "[1, 2]", "expected a JSON object, got list"),
    ("bugs.jsonl", '{"id": "b9", "summary": "s", "opened_at": "yesterday"}',
     "Invalid isoformat string: 'yesterday'"),
    ("links.jsonl", '{"inducing_changeset_ids": ["cs1"]}', "missing field 'bug_id'"),
    ("links.jsonl", '"b1"', "expected a JSON object, got str"),
    ("diffs/changesets.jsonl", '{"id": "cs9", "author": "dev"}', "missing field 'committed_at'"),
    ("diffs/changesets.jsonl", "null", "expected a JSON object, got NoneType"),
    ("diffs/changesets.jsonl", '{"id": "cs9", "author": "dev", "committed_at": 17}',
     "Invalid isoformat string: '17'"),
])
def test_an_ingest_input_line_that_is_no_record_names_its_file_and_line(tmp_path, file, line, error):
    """A line appended to one of ingest's three input files that is not a
    JSON object, lacks a field or holds a field its decoder refuses, is
    refused naming the file, the line and the fault."""
    corpus_dir = generate_corpus(tmp_path / "corpus", n_bugs=4, seed=3)
    path = corpus_dir / file
    lines = path.read_text("utf-8").splitlines()
    path.write_text("\n".join([*lines, line]) + "\n", "utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:{len(lines) + 1}: {re.escape(error)}$"):
        ingest_corpus(corpus_dir / "bugs.jsonl", corpus_dir / "diffs", corpus_dir / "links.jsonl", seed=5)


def test_null_optional_bug_fields_read_as_empty_text():
    bug = bug_from_dict({"id": "b1", "project": None, "summary": "Crash", "description": None,
                         "opened_at": "2021-03-01T00:00:00Z"})
    assert (bug.project, bug.description, bug.text) == ("", "", "Crash")


def test_null_optional_changeset_fields_read_as_empty_text():
    cs = changeset_from_dict({"id": "cs1", "author": None, "committed_at": "2021-03-01T00:00:00Z",
                              "log_message": None})
    assert (cs.author, cs.log_message) == ("", "")


@pytest.mark.parametrize("key", ["inducing_changeset_ids", "fixing_changeset_ids"])
def test_link_refuses_a_string_changeset_list(key):
    record = {"bug_id": "b1", "inducing_changeset_ids": ["cs1"], "fixing_changeset_ids": ["cs2"]}
    record[key] = "cs1"
    with pytest.raises(ValueError, match=key):
        link_from_dict(record)


_CLASSES = ["Alpha", "Beta", "Gamma", "Delta"]


@settings(derandomize=True, database=None, deadline=None)
@given(classes=st.lists(st.sampled_from(_CLASSES), max_size=30),
       excluded=st.frozensets(st.sampled_from([*_CLASSES, "Absent"])),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_negative_pool_is_the_filtered_hunk_list(classes, excluded, seed, data):
    """The pool is a view over the id-sorted hunks: element by element the
    list of the hunks outside the excluded classes, so a draw from an rng
    state picks the hunk random.choice picks from that list."""
    ids = data.draw(st.permutations([f"h{i:02d}" for i in range(len(classes))]))
    hunks = [make_hunk(hunk_id, "cs", class_name) for hunk_id, class_name in zip(ids, classes)]
    sampler = NegativeSampler(hunks, lambda bug: excluded)
    expected = [h for h in sorted(hunks, key=lambda h: h.id) if h.class_name not in excluded]
    pool = sampler.eligible("b1")
    assert len(pool) == len(expected)
    assert [pool[i] for i in range(len(pool))] == expected
    for index in (-1, len(pool)):
        with pytest.raises(IndexError):
            pool[index]
    if expected:
        assert sampler.draw("b1", random.Random(seed)) is random.Random(seed).choice(expected)
    else:
        with pytest.raises(CorpusError, match="no eligible negative class for bug 'b1'"):
            sampler.draw("b1", random.Random(seed))


def test_parsed_hunks_keep_under_160_bytes_live_per_line(tmp_path):
    """A parsed hunk holds its lines in two strings. On this file of 4,000
    lines of up to 40 characters, load_hunks_jsonl keeps about 79 B live per
    line (tracemalloc); with a tuple and a string per line it kept about
    195 B."""
    path = tmp_path / "hunks.jsonl"
    write_jsonl(path, (hunk_to_dict(make_hunk(f"cs{i // 3:04d}#h{i % 3 + 1}", f"cs{i // 3:04d}",
                                              f"Flush{i % 40}", (
        ("context", f"    void flush{i}(Buffer buffer) {{"),
        ("removed", f"        int limit = {i};"),
        ("added", f"        int limit = {i + 1};"),
        ("added", f"        buffer.flush(limit); // hunk {i}"),
        ("context", "    }"),
    ))) for i in range(800)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hunks = load_hunks_jsonl(path)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_lines = sum(len(h.lines) for h in hunks)
    assert n_lines == 4000
    assert live / n_lines < 160
