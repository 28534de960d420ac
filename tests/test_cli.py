from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import re
import shutil
import socket
import subprocess
import sys
from functools import cache
from importlib import resources

import pytest

from bugaug import builder, cli
from bugaug.balance import distribution_report, file_distribution_report
from bugaug.cli import main
from bugaug.corpus import load_hunks_jsonl
from bugaug.fixtures import generate_corpus
from bugaug.model import (CorpusError, Hunk, bug_from_dict, read_jsonl, report_sample_from_dict,
                          write_jsonl)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "corpus"
    generate_corpus(path, n_bugs=10, seed=11)
    return path


def _pipeline_args(corpus_dir, out_dir, extra=()):
    return [
        "pipeline",
        "--bugs", str(corpus_dir / "bugs.jsonl"),
        "--diffs", str(corpus_dir / "diffs"),
        "--links", str(corpus_dir / "links.jsonl"),
        "--out", str(out_dir),
        "--seed", "42",
        "--factor", "2",
        *extra,
    ]


def test_fixture_command_writes_inputs(tmp_path):
    out = tmp_path / "corpus"
    assert main(["fixture", "--out", str(out), "--bugs", "6", "--seed", "1"]) == 0
    assert (out / "bugs.jsonl").exists()
    assert (out / "links.jsonl").exists()
    assert (out / "diffs" / "changesets.jsonl").exists()


def test_ingest_then_extract(tmp_path, corpus_dir):
    out = tmp_path / "artifacts"
    code = main(
        [
            "ingest",
            "--bugs", str(corpus_dir / "bugs.jsonl"),
            "--diffs", str(corpus_dir / "diffs"),
            "--links", str(corpus_dir / "links.jsonl"),
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("train_bugs.jsonl", "test_bugs.jsonl", "hunks.jsonl", "d_ori.jsonl", "qrels.txt"):
        assert (out / name).exists(), name

    structured_path = out / "structured.jsonl"
    assert main(["extract", "--corpus", str(out), "--out", str(structured_path)]) == 0
    records = list(read_jsonl(structured_path))
    assert records and all(r["samples"] for r in records)


def test_lib_prefixes_ignore_empty_entries(tmp_path, corpus_dir):
    """A trailing comma must not add a "" prefix, which every class name
    starts with and which would class every frame as a library frame."""
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    plain, trailing = tmp_path / "plain.jsonl", tmp_path / "trailing.jsonl"
    for prefixes, path in (("java.,javax.", plain), ("java.,javax.,", trailing)):
        assert main(["extract", "--corpus", str(out), "--lib-prefixes", prefixes, "--out", str(path)]) == 0
    assert trailing.read_bytes() == plain.read_bytes()
    traces = [s for r in read_jsonl(plain) for s in r["samples"] if s["kind"] == "StackTrace"]
    assert any(max(s["line_indices"]) > 1 for s in traces)  # app frames between header and bottom


def test_missing_input_exits_2_and_names_the_flag(tmp_path, capsys, corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "ingest",
                "--bugs", str(tmp_path / "nope.jsonl"),
                "--diffs", str(tmp_path),
                "--links", str(tmp_path / "links.jsonl"),
                "--out", str(tmp_path / "out"),
            ]
        )
    assert exc.value.code == 2
    assert "--bugs" in capsys.readouterr().err

    # option errors are found before any stage runs
    missing = str(tmp_path / "missing.json")
    stage_args = ["--corpus", str(tmp_path), "--structured", str(tmp_path)]
    cases = [
        (["extract", "--corpus", str(tmp_path), "--patterns", missing,
          "--out", str(tmp_path / "s.jsonl")], "--patterns"),
        (["augment", *stage_args, "--out", str(tmp_path / "a.jsonl"), "--code-dict", missing],
         "--code-dict"),
        (["augment", *stage_args, "--out", str(tmp_path / "a.jsonl"), "--paraphraser", "service"],
         "--service-url"),
        (["balance", *stage_args, "--train", str(tmp_path), "--alpha", "1", "--omega", "1",
          "--out", str(tmp_path / "b.jsonl"), "--paraphraser", "service"], "--service-url"),
        (["balance", *stage_args, "--train", str(tmp_path), "--alpha", "1", "--omega", "1",
          "--out", str(tmp_path / "b.jsonl"), "--substitutes", missing], "--substitutes"),
        (_pipeline_args(corpus_dir, tmp_path / "run", extra=["--patterns", missing]), "--patterns"),
        (_pipeline_args(corpus_dir, tmp_path / "run", extra=["--paraphraser", "service"]),
         "--service-url"),
        *[(_pipeline_args(corpus_dir, tmp_path / "run", extra=["--metrics", bad]), "--metrics")
          for bad in ("mrr,bogus", "p@x", "p@0")],
        (["eval", "--run", str(tmp_path), "--qrels", str(tmp_path), "--metrics", "mrr,bogus",
          "--out", str(tmp_path / "m.json")], "--metrics"),
        *[(["retrieve", "--index", str(tmp_path), "--bugs", str(tmp_path), "--top-n", bad,
            "--out", str(tmp_path / "r.txt")], "--top-n") for bad in ("0", "-1")],
        *[(["augment", *stage_args, "--out", str(tmp_path / "a.jsonl"), "--factor", bad],
           "--factor") for bad in ("0", "-2")],
        *[(["balance", *stage_args, "--train", str(tmp_path), "--alpha", alpha, "--omega", omega,
            "--out", str(tmp_path / "b.jsonl")], flag)
          for alpha, omega, flag in (("0", "1", "--alpha"), ("-1", "1", "--alpha"),
                                     ("1", "0", "--omega"), ("1", "nan", "--omega"))],
        (["stats", "--dataset", str(tmp_path), "--top-k", "-1", "--out", str(tmp_path / "s.json")],
         "--top-k"),
        *[(_pipeline_args(corpus_dir, tmp_path / "run", extra=[flag, bad]), flag)
          for flag, bad in (("--top-n", "0"), ("--top-n", "-1"), ("--factor", "0"),
                            ("--alpha", "-1"), ("--alpha", "0"), ("--omega", "-1"),
                            ("--top-k", "0"))],
        *[(argv + ["--p-drop", bad], "--p-drop") for bad in ("1.5", "-0.1", "nan")
          for argv in (["augment", *stage_args, "--out", str(tmp_path / "a.jsonl")],
                       ["balance", *stage_args, "--train", str(tmp_path), "--out", str(tmp_path / "b.jsonl")],
                       _pipeline_args(corpus_dir, tmp_path / "run"))],
    ]
    for argv, flag in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "r.txt").exists()
    assert not (tmp_path / "s.json").exists()


def _flags(parser, command: str, capsys) -> set[str]:
    """The options `bugaug <command> --help` lists."""
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    return set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))


def _required(parser, command: str, capsys) -> set[str]:
    """The options `bugaug <command>` refuses to run without."""
    with pytest.raises(SystemExit):
        parser.parse_args([command])
    match = re.search(r"required: (.*)$", capsys.readouterr().err, re.M)
    return set(match.group(1).split(", ")) if match else set()


# option values for the shared-option test, good for some options and bad for others
_PROBES = ("x", "nan", "inf", "-1", "-0.1", "0", "0.5", "1", "1.5", "7", "identity", "shuffle",
           "mrr,p@1", "http://localhost:9", "com.")


def test_pipeline_and_the_stage_subcommands_share_each_option(capsys):
    """An option that pipeline shares with a stage's subcommand is required in
    both or in neither, has the same default and takes or refuses the same
    values; pipeline takes its inputs, --out, --force and every stage's config."""
    parser = cli.build_parser()
    pipeline = _flags(parser, "pipeline", capsys)
    names = {*cli._PIPELINE_INPUTS, "out", "force", *(k for stage in cli.STAGES for k in stage.config)}
    assert pipeline == {f"--{name.replace('_', '-')}" for name in names}
    required = {"pipeline": _required(parser, "pipeline", capsys)}

    def outcome(command: str, dest: str, *extra: str) -> str:
        """dest as parsed (its repr, so nan equals nan), or the error if
        argparse refuses the command line."""
        try:
            args = parser.parse_args([command, *(a for flag in required[command] for a in (flag, "x")),
                                      *extra])
        except SystemExit:
            return capsys.readouterr().err.splitlines()[-1].partition(": error: ")[2]
        return repr(getattr(args, dest))

    for stage in cli.STAGES:
        required[stage.name] = _required(parser, stage.name, capsys)
        shared = _flags(parser, stage.name, capsys) & pipeline
        assert "--out" in shared, stage.name
        for flag in sorted(shared):
            assert (flag in required[stage.name]) == (flag in required["pipeline"]), (stage.name, flag)
            dest = flag[2:].replace("-", "_")
            for extra in ((), *((flag, value) for value in _PROBES)):
                assert outcome(stage.name, dest, *extra) == outcome("pipeline", dest, *extra), \
                    (stage.name, extra)


def test_subcommand_usage_errors_print_the_subcommand_usage(tmp_path, capsys, corpus_dir):
    cases = [
        (["eval", "--run", str(tmp_path / "nonexistent"), "--qrels", str(tmp_path),
          "--out", str(tmp_path / "m.json")], "usage: bugaug eval "),
        (_pipeline_args(corpus_dir, tmp_path / "run",
                        extra=["--code-dict", str(tmp_path / "missing.json")]),
         "usage: bugaug pipeline "),
    ]
    for argv, usage in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.startswith(usage), argv


def test_a_malformed_dictionary_exits_2_before_any_stage_runs(tmp_path, capsys, corpus_dir):
    """A dictionary file its loader refuses is a usage error: the message starts
    with the subcommand's usage and names the flag, the file and the fault,
    and nothing is written."""
    array = tmp_path / "array.json"
    array.write_text('["fails"]', "utf-8")
    multi_word = tmp_path / "multi_word.json"
    multi_word.write_text('{"fails": ["stops working"]}', "utf-8")
    phrase = tmp_path / "phrase.json"
    phrase.write_text('{"S2R": ["steps to reproduce", "reproduce."]}', "utf-8")
    punctuated = tmp_path / "punctuated.json"
    punctuated.write_text('{"fails.": ["crashes"]}', "utf-8")
    # str() would make these the words "['fail']" and "None", which no report holds
    nested = tmp_path / "nested.json"
    nested.write_text('{"crash": [["fail"]]}', "utf-8")
    null = tmp_path / "null.json"
    null.write_text('{"crash": [null]}', "utf-8")
    null_name = tmp_path / "null_name.json"
    null_name.write_text('{"BUG-0001": [null, 3]}', "utf-8")
    not_an_object, not_a_word = "expected an object at the top level, got list", "is not one word"
    stage_args = ["--corpus", str(tmp_path), "--structured", str(tmp_path)]
    balance_args = ["balance", *stage_args, "--train", str(tmp_path), "--alpha", "1", "--omega", "1",
                    "--out", str(tmp_path / "b.jsonl")]
    cases = [
        (_pipeline_args(corpus_dir, tmp_path / "run", extra=["--substitutes", str(multi_word)]),
         "pipeline", "--substitutes", multi_word, not_a_word),
        (_pipeline_args(corpus_dir, tmp_path / "run", extra=["--patterns", str(array)]),
         "pipeline", "--patterns", array, not_an_object),
        (["extract", "--corpus", str(tmp_path), "--patterns", str(array),
          "--out", str(tmp_path / "s.jsonl")], "extract", "--patterns", array, not_an_object),
        (["augment", *stage_args, "--out", str(tmp_path / "a.jsonl"), "--code-dict", str(array)],
         "augment", "--code-dict", array, not_an_object),
        (["augment", *stage_args, "--out", str(tmp_path / "a.jsonl"), "--substitutes",
          str(multi_word)], "augment", "--substitutes", multi_word, not_a_word),
        ([*balance_args, "--substitutes", str(array)], "balance", "--substitutes", array,
         not_an_object),
        (_pipeline_args(corpus_dir, tmp_path / "run", extra=["--patterns", str(phrase)]),
         "pipeline", "--patterns", phrase, "'steps to reproduce' can never match"),
        ([*balance_args, "--substitutes", str(punctuated)], "balance", "--substitutes", punctuated,
         "'fails.' can never match"),
        ([*balance_args, "--substitutes", str(nested)], "balance", "--substitutes", nested,
         "'crash': expected words, got list ['fail']"),
        (["augment", *stage_args, "--out", str(tmp_path / "a.jsonl"), "--substitutes", str(null)],
         "augment", "--substitutes", null, "'crash': expected words, got NoneType None"),
        (["augment", *stage_args, "--out", str(tmp_path / "a.jsonl"), "--code-dict", str(null_name)],
         "augment", "--code-dict", null_name, "'BUG-0001': expected words, got NoneType None"),
    ]
    for argv, command, flag, path, fault in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage: bugaug {command} "), argv
        assert f"{flag}: {path}: " in err and fault in err, argv
    for name in ("run", "s.jsonl", "a.jsonl", "b.jsonl"):
        assert not (tmp_path / name).exists(), name


def test_a_non_string_pattern_word_exits_2_naming_the_flag(tmp_path, capsys):
    patterns = tmp_path / "patterns.json"
    patterns.write_text('{"OB": {"negations": [1]}}', "utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--corpus", str(tmp_path), "--patterns", str(patterns),
              "--out", str(tmp_path / "s.jsonl")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bugaug extract ")
    assert f"--patterns: {patterns}: 'negations': expected words, got int 1" in err
    assert not (tmp_path / "s.jsonl").exists()


def test_runtime_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "bugs.jsonl").write_text("{not json}\n", "utf-8")
    (bad / "links.jsonl").write_text("", "utf-8")
    (bad / "diffs").mkdir()
    code = main(
        [
            "ingest",
            "--bugs", str(bad / "bugs.jsonl"),
            "--diffs", str(bad / "diffs"),
            "--links", str(bad / "links.jsonl"),
            "--out", str(bad / "out"),
        ]
    )
    assert code == 1
    assert "ingest" in capsys.readouterr().err


@pytest.mark.parametrize("kind, bad_id", [("bug", "BUG 0099"), ("changeset", "cs 1"),
                                          ("changeset", "../cs0001a")])
def test_ingest_refuses_an_id_that_breaks_the_run_format(tmp_path, corpus_dir, capsys, kind, bad_id):
    """A bug id or changeset id that is not one word would break run.txt's
    columns, and a changeset id with "/" names a diff file outside diffs/:
    the pipeline fails in ingest, naming the file and the id, and writes no
    artifact."""
    bad = tmp_path / "corpus"
    shutil.copytree(corpus_dir, bad)
    path = bad / "bugs.jsonl" if kind == "bug" else bad / "diffs" / "changesets.jsonl"
    records = list(read_jsonl(path))
    records[0]["id"] = bad_id
    write_jsonl(path, records)
    out = tmp_path / "run"
    assert main(_pipeline_args(bad, out)) == 1
    assert f"{path}: {kind} id {bad_id!r} is not one word" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_full_pipeline_produces_all_artifacts(tmp_path, corpus_dir, capsys):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    expected = [
        "train_bugs.jsonl", "test_bugs.jsonl", "hunks.jsonl", "links.jsonl", "changesets.jsonl",
        "d_ori.jsonl", "qrels.txt", "structured.jsonl", "d_aug.jsonl", "d_rep.jsonl",
        "augmented_reports.jsonl", "d_bl.jsonl", "balance_reports.jsonl", "stats.json",
        "run.txt", "metrics.json", "manifest.json",
    ]
    for name in expected:
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    for metric in ("mrr", "map", "p@1", "p@3", "p@5"):
        assert metric in printed
    metrics = json.loads((out / "metrics.json").read_text("utf-8"))
    assert set(metrics["metrics"]) == {"mrr", "map", "p@1", "p@3", "p@5"}

    d_ori = list(read_jsonl(out / "d_ori.jsonl"))
    d_aug = list(read_jsonl(out / "d_aug.jsonl"))
    d_rep = list(read_jsonl(out / "d_rep.jsonl"))
    assert len(d_aug) == 3 * len(d_ori)  # factor 2 -> (1+2)x
    assert len(d_rep) == 2 * len(d_ori)


def test_pipeline_rerun_without_force_is_a_noop(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    manifest_before = (out / "manifest.json").read_bytes()
    stamp_before = (out / "d_aug.jsonl").stat().st_mtime_ns
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert (out / "manifest.json").read_bytes() == manifest_before
    assert (out / "d_aug.jsonl").stat().st_mtime_ns == stamp_before  # not recomputed


def test_pipeline_rerun_after_config_change_recomputes(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    patterns = tmp_path / "patterns.json"
    patterns.write_text(resources.files("bugaug").joinpath("data/patterns.json").read_text("utf-8"), "utf-8")
    changed = ["--factor", "1", "--top-k", "3", "--patterns", str(patterns)]
    assert main(_pipeline_args(corpus_dir, out, extra=changed)) == 0
    fresh = tmp_path / "fresh"
    assert main(_pipeline_args(corpus_dir, fresh, extra=changed)) == 0
    assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
    assert len(list(read_jsonl(out / "d_aug.jsonl"))) == 2 * len(list(read_jsonl(out / "d_ori.jsonl")))
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["config"]["factor"] == 1 and manifest["config"]["top_k"] == 3
    assert manifest["inputs"]["patterns"] == {
        "patterns.json": hashlib.sha256(patterns.read_bytes()).hexdigest()
    }


def test_pipeline_rerun_after_truncation_recomputes_the_stage(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    manifest_before = (out / "manifest.json").read_bytes()
    d_bl = (out / "d_bl.jsonl").read_bytes()
    (out / "d_bl.jsonl").write_bytes(d_bl[: len(d_bl) // 2])
    stamp_before = (out / "d_aug.jsonl").stat().st_mtime_ns
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert (out / "d_bl.jsonl").read_bytes() == d_bl
    assert (out / "manifest.json").read_bytes() == manifest_before
    assert (out / "d_aug.jsonl").stat().st_mtime_ns == stamp_before  # intact stage still resumes


@pytest.mark.parametrize("text", ['{"tool": "bug', "[]", '"manifest"', '{"keys": [], "stages": {}}',
                                  '{"keys": {}, "stages": 3}'])
def test_a_manifest_cut_short_or_of_another_shape_reads_as_none(tmp_path, corpus_dir, caplog, text):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    manifest = (out / "manifest.json").read_bytes()
    (out / "manifest.json").write_text(text, "utf-8")
    caplog.set_level(logging.INFO, logger="bugaug")
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert _skipped_stages(caplog) == []
    assert (out / "manifest.json").read_bytes() == manifest


def test_pipeline_records_each_completed_stage(tmp_path, corpus_dir, capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("eval crashed")

    monkeypatch.setattr(cli, "stage_eval", fail)
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 1
    assert "eval crashed" in capsys.readouterr().err
    stages = json.loads((out / "manifest.json").read_text("utf-8"))["stages"]
    assert sorted(stages) == sorted(["ingest", "extract", "augment", "balance", "stats", "retrieve"])


def test_pipeline_force_recomputes_identically(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    manifest_before = (out / "manifest.json").read_bytes()
    assert main(_pipeline_args(corpus_dir, out, extra=["--force"])) == 0
    assert (out / "manifest.json").read_bytes() == manifest_before


def test_pipeline_rerun_writes_new_files_and_leaves_old_ones_intact(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    link = tmp_path / "d_aug_factor2.jsonl"
    link.hardlink_to(out / "d_aug.jsonl")
    inode, old_bytes = link.stat().st_ino, link.read_bytes()
    assert main(_pipeline_args(corpus_dir, out, extra=["--factor", "1", "--force"])) == 0
    assert link.stat().st_ino == inode and link.read_bytes() == old_bytes
    assert (out / "d_aug.jsonl").stat().st_ino != inode
    assert len(list(read_jsonl(out / "d_aug.jsonl"))) == 2 * len(list(read_jsonl(out / "d_ori.jsonl")))


def _skipped_stages(caplog) -> list[str]:
    return [m[1] for r in caplog.records
            if (m := re.fullmatch(r"stage (\S+): .*skipping.*", r.getMessage()))]


def test_a_stale_link_changes_no_artifact(tmp_path, corpus_dir):
    """A link for a bug bugs.jsonl does not hold, naming an unknown changeset,
    is joined for no bug: the datasets, report files and metrics stay as
    they are without it."""
    stale = tmp_path / "stale"
    shutil.copytree(corpus_dir, stale)
    with open(stale / "links.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"bug_id": "ghost-1", "inducing_changeset_ids": ["nope"],
                             "fixing_changeset_ids": ["nope"]}) + "\n")
    assert main(_pipeline_args(corpus_dir, tmp_path / "plain")) == 0
    assert main(_pipeline_args(stale, tmp_path / "with_stale")) == 0
    assert "ghost-1" in (tmp_path / "with_stale" / "links.jsonl").read_text("utf-8")
    for name in ("d_ori.jsonl", "d_aug.jsonl", "d_bl.jsonl", "augmented_reports.jsonl",
                 "balance_reports.jsonl", "metrics.json"):
        assert (tmp_path / "with_stale" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


def test_each_run_parses_hunks_jsonl_once(tmp_path, corpus_dir, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="bugaug")
    loads = []
    load = cli.load_hunks_jsonl
    monkeypatch.setattr(cli, "load_hunks_jsonl", lambda path: loads.append(path) or load(path))
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert loads == []  # ingest hands the hunks it parsed to every later stage

    stage_args = ["--corpus", str(out), "--structured", str(out / "structured.jsonl"),
                  "--seed", "42"]
    loads.clear()
    assert main(["augment", *stage_args, "--factor", "2", "--out", str(tmp_path / "d_aug.jsonl"),
                 "--rep-out", str(tmp_path / "d_rep.jsonl"),
                 "--reports-out", str(tmp_path / "aug_reports.jsonl")]) == 0
    assert len(loads) == 1
    loads.clear()
    assert main(["balance", *stage_args, "--train", str(out / "d_ori.jsonl"), "--alpha", "2",
                 "--omega", "4", "--out", str(tmp_path / "d_bl.jsonl"),
                 "--reports-out", str(tmp_path / "bl_reports.jsonl")]) == 0
    assert len(loads) == 1

    # resume skips ingest and extract and reruns augment, whose output is truncated
    d_aug = (out / "d_aug.jsonl").read_bytes()
    (out / "d_aug.jsonl").write_bytes(d_aug[: len(d_aug) // 2])
    loads.clear()
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert len(loads) == 1
    assert (out / "d_aug.jsonl").read_bytes() == d_aug

    # a changed --factor reruns only augment and stats, which reads d_aug.jsonl and
    # d_rep.jsonl, and still parses once
    loads.clear()
    caplog.clear()
    assert main(_pipeline_args(corpus_dir, out, extra=["--factor", "3"])) == 0
    assert len(loads) == 1
    assert _skipped_stages(caplog) == ["ingest", "extract", "balance", "retrieve", "eval"]
    fresh = tmp_path / "fresh"
    assert main(_pipeline_args(corpus_dir, fresh, extra=["--factor", "3"])) == 0
    assert (out / "d_aug.jsonl").read_bytes() == (fresh / "d_aug.jsonl").read_bytes()


def test_parsed_hunks_hold_each_repeated_string_once(tmp_path, corpus_dir):
    """hunks.jsonl repeats line markers, changeset ids, paths and class
    names; parsing it keeps one string for each distinct value, and so do
    the hunks ingest parsed from the diffs and hands to later stages."""
    out = tmp_path / "run"
    corpus = cli.CorpusDir(out)
    cli.stage_ingest(corpus_dir / "bugs.jsonl", corpus_dir / "diffs", corpus_dir / "links.jsonl", 42,
                     corpus)
    ingested = vars(corpus)["hunks"]  # set by ingest, not parsed from hunks.jsonl
    parsed = load_hunks_jsonl(out / "hunks.jsonl")
    assert ingested == parsed
    for hunks in (ingested, parsed):
        for values in ([h.changeset_id for h in hunks], [h.file_path for h in hunks],
                       [h.class_name for h in hunks], [m for h in hunks for m, _ in h.lines]):
            assert len(values) > len(set(values))
            assert len({id(v) for v in values}) == len(set(values))


def test_an_input_directorys_digests_are_those_of_its_files(tmp_path):
    """A pipeline input's digests, which key resume, are each file's SHA-256
    by name: a symlink to a file counts as the file, and a subdirectory and a
    dangling symlink are left out. A file names only itself."""
    inputs = tmp_path / "diffs"
    inputs.mkdir()
    (inputs / "b.diff").write_bytes(bytes(range(256)) * 300)  # over one 64 KiB chunk
    (inputs / "a.jsonl").write_text("{}\n", "utf-8")
    (inputs / "sub").mkdir()
    (inputs / "sub" / "inner.diff").write_text("inner\n", "utf-8")
    (inputs / "link.diff").symlink_to(inputs / "a.jsonl")
    (inputs / "dangling.diff").symlink_to(inputs / "gone.diff")
    expected = {p.name: cli._sha256(p) for p in sorted(inputs.iterdir()) if p.is_file()}
    assert cli._digest_tree(inputs) == expected
    assert list(expected) == ["a.jsonl", "b.diff", "link.diff"]
    assert expected["b.diff"] == hashlib.sha256((inputs / "b.diff").read_bytes()).hexdigest()
    assert expected["link.diff"] == expected["a.jsonl"]
    assert cli._digest_tree(inputs / "b.diff") == {"b.diff": expected["b.diff"]}


def test_a_pipeline_run_releases_the_parsed_hunks_after_their_last_reader(tmp_path, corpus_dir,
                                                                           monkeypatch):
    """retrieve is the last stage that reads hunks.jsonl or links.jsonl, so
    eval runs with none of the hunks retrieve received alive. A hunk is
    tracked by the garbage collector, so gc.get_objects finds every live
    one; the hunks are known by their ids, which hold no reference."""
    hunk_ids: set[int] = set()
    alive_in_eval = []

    def watched_retrieve(corpus, *args, run=cli.stage_retrieve):
        hunk_ids.update(map(id, corpus.hunks))
        return run(corpus, *args)

    def watched_eval(*args, run=cli.stage_eval):
        gc.collect()
        alive_in_eval.append(sum(isinstance(o, Hunk) and id(o) in hunk_ids for o in gc.get_objects()))
        return run(*args)

    monkeypatch.setattr(cli, "stage_retrieve", watched_retrieve)
    monkeypatch.setattr(cli, "stage_eval", watched_eval)
    assert main(_pipeline_args(corpus_dir, tmp_path / "run")) == 0
    assert hunk_ids and alive_in_eval == [0]


_BALANCED = ["--alpha", "2.0", "--omega", "4.0"]


def _report_counts(caplog, name: str) -> tuple[int, int]:
    """(built, copied) that the run logged for dataset name's report file."""
    return next((int(m[1]), int(m[2])) for r in caplog.records
                if (m := re.fullmatch(rf"{name} reports: (\d+) built, (\d+) copied", r.getMessage())))


def test_each_stage_mines_the_code_names_of_the_bugs_it_builds_reports_for(tmp_path, corpus_dir,
                                                                          monkeypatch):
    """A bug's code names are mined when its plan is built: once per stage,
    for each bug the stage builds a report for, and for no other bug.
    balance copies the reports augment wrote, so it builds, and mines for,
    only the D_bl refs that D_aug does not hold."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every report in this process
    mined: dict[str, list[str]] = {}
    stage = None
    mine = cli.mine_code_names

    def recording_mine(bug_id, hunks):
        mined.setdefault(stage, []).append(bug_id)
        return mine(bug_id, hunks)

    monkeypatch.setattr(cli, "mine_code_names", recording_mine)
    for name in ("augment", "balance"):
        def tagged(*args, name=name, run=getattr(cli, f"stage_{name}")):
            nonlocal stage
            stage = name
            return run(*args)

        monkeypatch.setattr(cli, f"stage_{name}", tagged)
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out, extra=_BALANCED)) == 0
    structured = [r["bug_id"] for r in read_jsonl(out / "structured.jsonl")]
    augmented = {r["id"]: r["origin_bug_id"] for r in read_jsonl(out / "augmented_reports.jsonl")}
    balanced = {r["id"]: r["origin_bug_id"] for r in read_jsonl(out / "balance_reports.jsonl")}
    assert augmented.keys() & balanced.keys()  # balance copies some reports
    for name, built in (("augment", set(augmented.values())),
                        ("balance", {bug for ref, bug in balanced.items() if ref not in augmented})):
        assert built, name
        assert sorted(mined[name]) == sorted(built)
    assert len(mined["balance"]) < len(structured)


def test_a_pipeline_run_builds_each_augmented_report_once(tmp_path, corpus_dir, monkeypatch,
                                                         caplog):
    """balance copies each report augment wrote, so a run calls
    ReportAugmenter.augment once per distinct (bug, ordinal) of its two
    report files."""
    caplog.set_level(logging.INFO, logger="bugaug")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every report in this process
    built = []
    augment = builder.ReportAugmenter.augment
    monkeypatch.setattr(builder.ReportAugmenter, "augment",
                        lambda self, bug, ordinal: built.append((bug, ordinal)) or augment(self, bug, ordinal))
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out, extra=_BALANCED)) == 0
    augmented, balanced = ([r["id"] for r in read_jsonl(out / name)]
                           for name in ("augmented_reports.jsonl", "balance_reports.jsonl"))
    shared = set(augmented) & set(balanced)
    assert shared and set(balanced) - shared
    assert sorted(builder.augmented_report_id(*ref) for ref in built) == sorted({*augmented, *balanced})
    assert _report_counts(caplog, "D_bl") == (len(balanced) - len(shared), len(shared))


def test_balance_reports_are_the_same_copied_or_built(tmp_path, corpus_dir, monkeypatch, caplog):
    """balance_reports.jsonl, at 1 and at 3 shards, of a fresh pipeline run
    (which copies augment's reports), of a rerun with only --alpha changed
    (augment skipped, so balance builds every report) and of the balance
    subcommand on the same run directory (which builds every report)."""
    caplog.set_level(logging.INFO, logger="bugaug")
    expected = None
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        fresh, rerun, alone = tmp_path / f"fresh{cpus}", tmp_path / f"rerun{cpus}", tmp_path / f"alone{cpus}"
        caplog.clear()
        assert main(_pipeline_args(corpus_dir, fresh, extra=_BALANCED)) == 0
        built, copied = _report_counts(caplog, "D_bl")
        assert built and copied
        assert main(_pipeline_args(corpus_dir, rerun, extra=["--omega", "4.0"])) == 0
        caplog.clear()
        assert main(_pipeline_args(corpus_dir, rerun, extra=_BALANCED)) == 0
        assert "augment" in _skipped_stages(caplog) and "balance" not in _skipped_stages(caplog)
        assert _report_counts(caplog, "D_bl") == (built + copied, 0)
        caplog.clear()
        assert main(["balance", "--corpus", str(fresh), "--structured", str(fresh / "structured.jsonl"),
                     "--train", str(fresh / "d_ori.jsonl"), "--seed", "42", *_BALANCED,
                     "--out", str(tmp_path / "d_bl.jsonl"), "--reports-out", str(alone)]) == 0
        assert _report_counts(caplog, "D_bl") == (built + copied, 0)
        expected = expected or (fresh / "balance_reports.jsonl").read_bytes()
        for path in (fresh / "balance_reports.jsonl", rerun / "balance_reports.jsonl", alone):
            assert path.read_bytes() == expected, path


def test_a_manifest_of_another_version_reruns_every_stage(tmp_path, corpus_dir, monkeypatch, caplog):
    """A file layout is in no stage's config or input digests: the version
    in each stage's key is what tells a run directory of another version
    apart, so a rerun by this version redoes every stage."""
    caplog.set_level(logging.INFO, logger="bugaug")
    out = tmp_path / "run"
    with monkeypatch.context() as older:
        older.setattr(cli, "__version__", "0.1.0")
        assert main(_pipeline_args(corpus_dir, out)) == 0
    assert json.loads((out / "manifest.json").read_text("utf-8"))["version"] == "0.1.0"
    caplog.clear()
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert _skipped_stages(caplog) == []
    assert json.loads((out / "manifest.json").read_text("utf-8"))["version"] == cli.__version__
    caplog.clear()
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert _skipped_stages(caplog) == [s.name for s in cli.STAGES]


def _substitute_cache_counts(caplog) -> dict[str, tuple[int, int]]:
    counts = {}
    for record in caplog.records:
        match = re.fullmatch(r"(\S+) reports: substitute ranking (\d+) cache hits, (\d+) misses",
                             record.getMessage())
        if match:
            counts[match[1]] = (int(match[2]), int(match[3]))
    return counts


def test_pipeline_logs_substitute_cache_counts_per_stage(tmp_path, corpus_dir, caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="bugaug")
    # every report in this process: a forked shard's cache entries stay in the shard
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    first = _substitute_cache_counts(caplog)
    assert sorted(first) == ["D_aug", "D_bl"]
    assert sum(first["D_aug"]) > 0
    caplog.clear()
    assert main(_pipeline_args(corpus_dir, out, extra=["--force"])) == 0
    again = _substitute_cache_counts(caplog)
    # the cache outlives a run: the same keys come back as hits
    assert again["D_aug"] == (sum(first["D_aug"]), 0)
    assert again["D_bl"] == (sum(first["D_bl"]), 0)
    assert "substitute" not in (out / "manifest.json").read_text("utf-8")


def test_stats_and_eval_subcommands(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    stats_out = tmp_path / "stats.json"
    assert main(
        ["stats", "--dataset", str(out / "d_bl.jsonl"), "--top-k", "5",
         "--out", str(stats_out), "--csv", str(tmp_path / "curves.csv")]
    ) == 0
    payload = json.loads(stats_out.read_text("utf-8"))
    assert "d_bl" in payload
    assert (tmp_path / "curves.csv").read_text("utf-8").startswith("dataset,kind,rank,key,count")

    metrics_out = tmp_path / "metrics2.json"
    assert main(
        ["eval", "--run", str(out / "run.txt"), "--qrels", str(out / "qrels.txt"),
         "--metrics", "mrr,p@1", "--out", str(metrics_out)]
    ) == 0
    loaded = json.loads(metrics_out.read_text("utf-8"))
    assert set(loaded["metrics"]) == {"mrr", "p@1"}
    assert loaded["per_bug"]


def test_stats_counts_from_the_dataset_lines_what_the_datasets_count(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out, extra=["--alpha", "2.0", "--omega", "4.0"])) == 0
    for name in ("d_ori", "d_rep", "d_aug", "d_bl"):
        path = out / f"{name}.jsonl"
        assert file_distribution_report(path, name) == distribution_report(cli.load_dataset(path, name))

    bad = tmp_path / "bad.jsonl"
    write_jsonl(bad, [{"bug_ref": "B-1", "origin_bug_id": "B-1", "hunk_id": "cs#h1",
                       "class_name": "Foo", "label": "maybe"}])
    with pytest.raises(CorpusError, match="bad label 'maybe'"):
        file_distribution_report(bad, "bad")
    missing = tmp_path / "missing.jsonl"
    write_jsonl(missing, [{"bug_ref": "B-1", "origin_bug_id": "B-1", "class_name": "Foo",
                           "label": "positive"}])
    with pytest.raises(CorpusError, match="missing.jsonl:1: missing field 'hunk_id'"):
        cli.load_dataset(missing, "missing")
    with pytest.raises(CorpusError, match="missing.jsonl:1: missing field 'hunk_id'"):
        file_distribution_report(missing, "missing")


def test_log_messages_read_a_null_or_missing_message_as_empty_text(tmp_path):
    committed = {"author": "dev", "committed_at": "2021-03-01T00:00:00Z"}
    write_jsonl(tmp_path / "changesets.jsonl", [
        {"id": "cs1", **committed, "log_message": "rework header parsing"},
        {"id": "cs2", **committed, "log_message": None},
        {"id": "cs3", **committed},
    ])
    assert cli.CorpusDir(tmp_path).log_messages() == {"cs1": "rework header parsing", "cs2": "",
                                                      "cs3": ""}


def test_retrieve_subcommand(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    run_path = tmp_path / "run2.txt"
    assert main(
        ["retrieve", "--index", str(out), "--bugs", str(out / "test_bugs.jsonl"),
         "--top-n", "5", "--out", str(run_path)]
    ) == 0
    lines = run_path.read_text("utf-8").strip().splitlines()
    assert lines
    assert all(len(line.split()) == 4 for line in lines)


def test_retrieve_writes_rankings_in_bug_id_order(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    lines = (out / "test_bugs.jsonl").read_text("utf-8").splitlines(keepends=True)
    assert len(lines) > 1
    reversed_bugs = tmp_path / "reversed.jsonl"
    reversed_bugs.write_text("".join(reversed(lines)), "utf-8")
    assert main(["retrieve", "--index", str(out), "--bugs", str(reversed_bugs),
                 "--out", str(tmp_path / "run.txt")]) == 0
    assert (tmp_path / "run.txt").read_bytes() == (out / "run.txt").read_bytes()
    bug_ids = [line.split()[0] for line in (out / "run.txt").read_text("utf-8").splitlines()]
    assert bug_ids == sorted(bug_ids)


@pytest.mark.parametrize("edit, message", [
    (lambda bugs: [{**bugs[0], "id": "BUG 1"}, *bugs[1:]], "bug id 'BUG 1' is not one word"),
    (lambda bugs: [*bugs, bugs[0]], "duplicate bug id"),
], ids=["id_not_one_word", "duplicate_id"])
def test_retrieve_refuses_a_bug_file_that_ingest_would_refuse(tmp_path, corpus_dir, capsys, edit, message):
    """retrieve --bugs reads its file as ingest does: a bug id with a space
    would give run.txt lines of five columns, and a repeated id would be
    ranked once under a count of two."""
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    bugs = edit(list(read_jsonl(out / "test_bugs.jsonl")))
    bad = tmp_path / "bad_bugs.jsonl"
    bad.write_text("".join(json.dumps(bug) + "\n" for bug in bugs), "utf-8")
    capsys.readouterr()
    assert main(["retrieve", "--index", str(out), "--bugs", str(bad), "--out", str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def test_augment_subcommand_with_shuffle_paraphraser(tmp_path, corpus_dir):
    out = tmp_path / "artifacts"
    main(
        ["ingest", "--bugs", str(corpus_dir / "bugs.jsonl"), "--diffs", str(corpus_dir / "diffs"),
         "--links", str(corpus_dir / "links.jsonl"), "--seed", "3", "--out", str(out)]
    )
    main(["extract", "--corpus", str(out), "--out", str(out / "structured.jsonl")])
    code = main(
        ["augment", "--corpus", str(out), "--structured", str(out / "structured.jsonl"),
         "--factor", "1", "--seed", "9", "--paraphraser", "shuffle",
         "--out", str(out / "d_aug.jsonl"), "--reports-out", str(out / "reports.jsonl")]
    )
    assert code == 0
    d_ori = list(read_jsonl(out / "d_ori.jsonl"))
    d_aug = list(read_jsonl(out / "d_aug.jsonl"))
    assert len(d_aug) == 2 * len(d_ori)
    reports = list(read_jsonl(out / "reports.jsonl"))
    assert reports and all("#aug" in r["id"] for r in reports)


def _distinct_augmented_refs(dataset_path) -> list[str]:
    refs = [s["bug_ref"] for s in read_jsonl(dataset_path) if s["bug_ref"] != s["origin_bug_id"]]
    return list(dict.fromkeys(refs))


def test_report_files_hold_exactly_the_reports_their_dataset_references(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    for dataset, reports in (("d_aug.jsonl", "augmented_reports.jsonl"),
                             ("d_bl.jsonl", "balance_reports.jsonl")):
        refs = _distinct_augmented_refs(out / dataset)
        assert refs, dataset
        assert [r["id"] for r in read_jsonl(out / reports)] == refs


_PINNED_DIGESTS = {
    "d_ori.jsonl": "281820a08324f6493f4bbd2ce3533386c3710a4cc7a6ed74a7481d62a39c1d41",
    "d_aug.jsonl": "c462976a09b93577fe7c0f1c4eedfec79b8906e78d00b3704124752b2efa656c",
    "d_rep.jsonl": "bb3473dc2a21ea36759f0936bd358325abb90bfced12b9fcb5669fad237e0e6c",
    "d_bl.jsonl": "3489af2aebb964abc52229bc821d6d776c63674b18be76bfd82c7f95df3abd71",
    "augmented_reports.jsonl": "02c3cb613b9ef4fccb0d2dec6b64cc44e0cf719b7d9184175e907d931fd4a0c8",
    "balance_reports.jsonl": "6c0c27d33ddbdde5c2aff308f6441279048fbdd8502bf58bb0fdf52892eeef24",
    "hunks.jsonl": "c50ea2df2a922e2a26e1ce401ed4e429394d686fee109e0a1f289d9dbe057181",
    "structured.jsonl": "66f5b4a2d18d226bdf1969997872e06a2bffeb699b19ad53f2a2481df6d539e9",
}


def test_dataset_artifacts_match_pinned_digests(tmp_path):
    """Every dataset and report file is a pure function of its inputs and
    seed: a changed random stream key (negative, augment or balance) shows
    here as a changed digest. D_bl adds samples at these settings.
    hunks.jsonl pins how ingest parses and writes the hunks, structured.jsonl
    how extract splits and reduces each report, source spans included."""
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, n_bugs=30, seed=7)
    out = tmp_path / "run"
    extra = ["--factor", "3", "--alpha", "2.0", "--omega", "4.0", "--paraphraser", "shuffle"]
    assert main(_pipeline_args(corpus, out, extra=extra)) == 0
    assert len(list(read_jsonl(out / "d_bl.jsonl"))) > len(list(read_jsonl(out / "d_ori.jsonl")))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _PINNED_DIGESTS}
    assert digests == _PINNED_DIGESTS


def test_report_files_do_not_depend_on_the_shard_count(tmp_path, monkeypatch):
    """The pinned run's report files, built in one shard, in one per CPU of
    this machine and in three."""
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, n_bugs=30, seed=7)
    extra = ["--factor", "3", "--alpha", "2.0", "--omega", "4.0", "--paraphraser", "shuffle"]
    names = ("augmented_reports.jsonl", "balance_reports.jsonl")
    machine = len(os.sched_getaffinity(0))
    runs = {}
    for cpus in (1, machine, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        out = tmp_path / f"run{cpus}"
        assert main(_pipeline_args(corpus, out, extra=extra)) == 0
        runs[cpus] = [(out / name).read_bytes() for name in names]
    assert all(runs[1])
    assert runs[machine] == runs[1]
    assert runs[3] == runs[1]


def test_a_dead_paraphrase_service_fails_the_augment_stage(tmp_path, corpus_dir, capsys, monkeypatch):
    """A port bound on loopback but not listening refuses every call, so the
    SERVICE_FAILURE_BUDGET-th call fails augment, in one shard and in three:
    the run exits 1 with no reports file and no manifest entry for augment."""
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{closed.getsockname()[1]}/"
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            out = tmp_path / f"run{cpus}"
            extra = ["--paraphraser", "service", "--service-url", url]
            assert main(_pipeline_args(corpus_dir, out, extra=extra)) == 1
            err = capsys.readouterr().err
            assert "pipeline stage 'augment' failed: " in err
            assert f"paraphrase service {url} failed 3 times in a row" in err
            assert not (out / "augmented_reports.jsonl").exists()
            stages = json.loads((out / "manifest.json").read_text("utf-8"))["stages"]
            assert sorted(stages) == ["extract", "ingest"]


# a paraphrase service that answers 500 to every request whose body's
# SHA-256 is 0 mod argv[1] and echoes every other; it prints its port
_FLAKY_ECHO_SERVER = """
import hashlib, sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

k = int(sys.argv[1])

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if int(hashlib.sha256(body).hexdigest(), 16) % k == 0:
            self.send_error(500)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
print(server.server_port, flush=True)
server.serve_forever()
"""


def _fallback_counts(caplog) -> dict[str, int]:
    return {m[1]: int(m[2]) for r in caplog.records
            if (m := re.fullmatch(r"(\S+) reports: (\d+) paraphrase service fallbacks", r.getMessage()))}


def test_a_flaky_paraphrase_service_counts_the_same_fallbacks_in_any_shard_count(
        tmp_path, corpus_dir, caplog, monkeypatch):
    """The service runs in its own process, since write_sharded forks nothing
    while this one runs a thread. Every run completes and logs the same
    fallback counts in one shard and in three, and since the service echoes,
    its report files are an identity run's."""
    caplog.set_level(logging.INFO, logger="bugaug")
    balance = ["--alpha", "2.0", "--omega", "4.0"]  # so balance builds reports too
    identity = tmp_path / "identity"
    assert main(_pipeline_args(corpus_dir, identity, extra=balance)) == 0
    names = ("augmented_reports.jsonl", "balance_reports.jsonl")
    counts = {}
    with subprocess.Popen([sys.executable, "-c", _FLAKY_ECHO_SERVER, "10"], stdout=subprocess.PIPE,
                          text=True) as server:
        try:
            url = f"http://127.0.0.1:{int(server.stdout.readline())}/"
            for cpus in (1, 3):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
                caplog.clear()
                out = tmp_path / f"run{cpus}"
                extra = [*balance, "--paraphraser", "service", "--service-url", url]
                assert main(_pipeline_args(corpus_dir, out, extra=extra)) == 0
                counts[cpus] = _fallback_counts(caplog)
                for name in names:
                    assert (out / name).read_bytes() == (identity / name).read_bytes(), name
        finally:
            server.kill()
    assert sorted(counts[1]) == ["D_aug", "D_bl"]
    assert counts[1]["D_aug"] > 0 and counts[1]["D_bl"] > 0
    assert counts[3] == counts[1]


_PINNED_RUN_EXTRA = ["--factor", "3", "--alpha", "2.0", "--omega", "4.0", "--paraphraser", "shuffle"]
_PINNED_RANKING_DIGESTS = {
    "run.txt": "28591db2a312e47d44bec88474c31d29bfd6a50263184407f15faefa6280e0c4",
    "metrics.json": "5a0e88be51a46acfb6ed67c009f052555e1f153d8a57b0a887e8ce0951fa0e37",
}


def _pinned_run(tmp_path):
    """The run directory of the pipeline run whose datasets are pinned above."""
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, n_bugs=30, seed=7)
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus, out, extra=_PINNED_RUN_EXTRA)) == 0
    return out


# the pinned report files as the token-dict layout wrote them, one
# {"is_code", "text"} dict per token, before the compact sample layout
_TOKEN_DICT_DIGESTS = {
    "augmented_reports.jsonl": "01f4c33fff5e2017b0403d6c0d97a1246fdc4957aebf5978331af7a87d60b497",
    "balance_reports.jsonl": "a861fd10e1877854def4b1597ae7db815c9f16910e2895a431b11b8657b80692",
}


def _token_dict_line(record: dict) -> str:
    """A report-file record as a line of the token-dict layout: its samples
    decoded, each token written as a dict."""
    samples = map(report_sample_from_dict, record["samples"])
    return json.dumps({
        **record,
        "samples": [
            {"kind": s.kind, "tokens": [{"text": t.text, "is_code": t.is_code} for t in s.tokens],
             "line_indices": s.line_indices}
            for s in samples
        ],
    }, ensure_ascii=False, sort_keys=True) + "\n"


def test_pinned_report_files_hold_the_reports_the_token_dict_layout_held(tmp_path):
    """Only the layout of the report files changed: decoded and written in
    the old layout, they are the old files byte for byte."""
    out = _pinned_run(tmp_path)
    digests = {
        name: hashlib.sha256("".join(
            _token_dict_line(r) for r in read_jsonl(out / name)
        ).encode("utf-8")).hexdigest()
        for name in _TOKEN_DICT_DIGESTS
    }
    assert digests == _TOKEN_DICT_DIGESTS


def test_ranking_artifacts_match_pinned_digests(tmp_path):
    """A changed BM25 score, tie order or run-line format shows here as a
    changed digest."""
    out = _pinned_run(tmp_path)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in _PINNED_RANKING_DIGESTS}
    assert digests == _PINNED_RANKING_DIGESTS


def test_run_file_does_not_depend_on_the_shard_count(tmp_path, monkeypatch):
    """The pinned run's run file, ranked in one shard, in one per CPU of
    this machine and in three."""
    out = _pinned_run(tmp_path)
    assert len(list(read_jsonl(out / "test_bugs.jsonl"))) > 3
    machine = len(os.sched_getaffinity(0))
    runs = {}
    for cpus in (1, machine, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        path = tmp_path / f"run{cpus}.txt"
        assert main(["retrieve", "--index", str(out), "--bugs", str(out / "test_bugs.jsonl"),
                     "--out", str(path)]) == 0
        runs[cpus] = path.read_bytes()
    assert runs[1] == (out / "run.txt").read_bytes()
    assert runs[machine] == runs[1]
    assert runs[3] == runs[1]


def _run_dir_files(out) -> set[str]:
    return {p.name for p in out.iterdir()}


def test_a_pipeline_run_leaves_only_its_artifacts_and_manifest(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert _run_dir_files(out) == {name for s in cli.STAGES for name in s.writes} | {"manifest.json"}


def _last_train_bug(out) -> str:
    return list(read_jsonl(out / "d_ori.jsonl"))[-1]["origin_bug_id"]


def test_a_report_shard_missing_its_structured_report_fails_augment(tmp_path, corpus_dir, capsys,
                                                                     monkeypatch):
    """The last train bug's refs are the last ones, so its missing structured
    report fails the forked second shard: exit 1 with the child's error, no
    reports file and no child left running."""
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    last = _last_train_bug(out)
    work = tmp_path / "work"
    work.mkdir()
    structured = [r for r in read_jsonl(out / "structured.jsonl") if r["bug_id"] != last]
    write_jsonl(work / "structured.jsonl", structured)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    capsys.readouterr()
    assert main(["augment", "--corpus", str(out), "--structured", str(work / "structured.jsonl"),
                 "--factor", "2", "--out", str(work / "d_aug.jsonl"),
                 "--reports-out", str(work / "reports.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"report shard 2 of 2 failed: KeyError: \"no structured report for bug '{last}'\"" in err
    assert _run_dir_files(work) == {"structured.jsonl", "d_aug.jsonl"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_directory_line_missing_a_field_names_its_file_and_line(tmp_path, corpus_dir, capsys):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    work = tmp_path / "work"
    shutil.copytree(out, work)

    def drop(name: str, key: str) -> str:
        path = work / name
        records = list(read_jsonl(path))
        del records[1][key]
        write_jsonl(path, records)
        return f"{path}:2: missing field '{key}'"

    corpus = cli.CorpusDir(work)
    with pytest.raises(CorpusError, match=re.escape(drop("train_bugs.jsonl", "summary"))):
        corpus.train_bugs()
    with pytest.raises(CorpusError, match=re.escape(drop("changesets.jsonl", "committed_at"))):
        corpus.log_messages()
    error = drop("structured.jsonl", "bug_id")
    capsys.readouterr()
    assert main(["augment", "--corpus", str(out), "--structured", str(work / "structured.jsonl"),
                 "--factor", "2", "--out", str(work / "d_aug.jsonl"),
                 "--reports-out", str(work / "reports.jsonl")]) == 1
    assert error in capsys.readouterr().err


def _last_test_bug_text(out) -> str:
    return max(map(bug_from_dict, read_jsonl(out / "test_bugs.jsonl")), key=lambda b: b.id).text


# per stage that writes its file in shards: the call that builds one item,
# as (owner, attribute, which argument names the item, the item the last
# shard holds), the shard name in its error and what it writes before
@pytest.mark.parametrize("stage, owner, call, argument, last, shard, partial", [
    ("augment", builder.ReportAugmenter, "augment", 1, _last_train_bug, "report", {"d_aug.jsonl"}),
    ("retrieve", cli, "rank", 0, _last_test_bug_text, "ranking", set()),
], ids=["augment", "retrieve"])
def test_a_failed_shard_gets_no_manifest_entry(tmp_path, corpus_dir, capsys, caplog, monkeypatch,
                                               stage, owner, call, argument, last, shard, partial):
    """The last item fails in the forked second shard: exit 1 with the
    child's error, the sharded file removed, no child left running and no
    manifest entry for the stage, so the next run reruns it."""
    caplog.set_level(logging.INFO, logger="bugaug")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "run"
    build = getattr(owner, call)
    last_item = cache(lambda: last(out))  # ingest wrote what it reads before the stage runs

    def fails_for_the_last_item(*args):
        if args[argument] == last_item():
            raise RuntimeError("shard sabotaged")
        return build(*args)

    with monkeypatch.context() as patched:
        patched.setattr(owner, call, fails_for_the_last_item)
        assert main(_pipeline_args(corpus_dir, out)) == 1
    assert (f"pipeline stage {stage!r} failed: {shard} shard 2 of 2 failed: "
            "RuntimeError: shard sabotaged") in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    before = cli.STAGES[:[s.name for s in cli.STAGES].index(stage)]
    ran = {name for s in before for name in s.writes}
    assert _run_dir_files(out) == ran | partial | {"manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert sorted(manifest["stages"]) == sorted(s.name for s in before)
    caplog.clear()
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert _skipped_stages(caplog) == [s.name for s in before]
    assert _run_dir_files(out) == {name for s in cli.STAGES for name in s.writes} | {"manifest.json"}


def test_a_malformed_train_bug_ref_fails_balance_before_it_writes(tmp_path, corpus_dir, capsys):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    work = tmp_path / "work"
    work.mkdir()
    samples = list(read_jsonl(out / "d_ori.jsonl"))
    origin = samples[0]["origin_bug_id"]
    samples[0]["bug_ref"] = f"{origin}-copy"
    write_jsonl(work / "train.jsonl", samples)
    capsys.readouterr()
    assert main(["balance", "--corpus", str(out), "--structured", str(out / "structured.jsonl"),
                 "--train", str(work / "train.jsonl"), "--alpha", "2.0", "--omega", "4.0",
                 "--out", str(work / "d_bl.jsonl"), "--reports-out", str(work / "reports.jsonl")]) == 1
    assert (f"bugaug balance: bug_ref '{origin}-copy' of bug '{origin}' is neither the bug's id "
            f"nor '{origin}#aug<n>'") in capsys.readouterr().err
    assert _run_dir_files(work) == {"train.jsonl"}


def test_augment_writes_the_same_d_aug_without_reports_out(tmp_path, corpus_dir):
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    common = ["augment", "--corpus", str(out), "--structured", str(out / "structured.jsonl"),
              "--factor", "2", "--seed", "42"]
    assert main([*common, "--out", str(tmp_path / "with.jsonl"),
                 "--reports-out", str(tmp_path / "reports.jsonl")]) == 0
    assert main([*common, "--out", str(tmp_path / "without.jsonl")]) == 0
    assert (tmp_path / "with.jsonl").read_bytes() == (tmp_path / "without.jsonl").read_bytes()
    assert (tmp_path / "with.jsonl").read_bytes() == (out / "d_aug.jsonl").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bugaug" in capsys.readouterr().out


def test_fresh_run_skips_nothing_and_rerun_skips_everything(tmp_path, corpus_dir, caplog):
    caplog.set_level(logging.INFO, logger="bugaug")
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert _skipped_stages(caplog) == []
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    names = [stage.name for stage in cli.STAGES]
    assert sorted(manifest["stages"]) == sorted(manifest["keys"]) == sorted(names)
    assert all(re.fullmatch(r"[0-9a-f]{64}", key) for key in manifest["keys"].values())
    caplog.clear()
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert _skipped_stages(caplog) == names


def test_each_stage_needs_only_its_declared_reads(tmp_path, corpus_dir):
    out = tmp_path / "run"
    argv = _pipeline_args(corpus_dir, out)
    assert main(argv) == 0
    args = cli.build_parser().parse_args(argv)
    for stage in cli.STAGES:
        alone = tmp_path / stage.name
        alone.mkdir()
        # pipeline inputs such as --bugs stay where they are; run-directory files are copied
        copied = [name for name in stage.reads if (out / name).is_file()]
        for name in copied:
            shutil.copyfile(out / name, alone / name)
        cli.run_stage(stage, args, cache(cli.CorpusDir), alone)
        for name in stage.writes:
            assert (alone / name).read_bytes() == (out / name).read_bytes(), (stage.name, name)
        assert sorted(p.name for p in alone.iterdir()) == sorted({*copied, *stage.writes})


def _option_files(tmp_path, base) -> dict[str, list[str]]:
    """A changed value for each option that names a file the pipeline reads."""
    bundled = resources.files("bugaug").joinpath("data")
    patterns = json.loads(bundled.joinpath("patterns.json").read_text("utf-8"))
    patterns["EB"] = ["should"]
    substitutes = {word: ["glitch"]
                   for word in json.loads(bundled.joinpath("substitutes.json").read_text("utf-8"))}
    first_bug = list(read_jsonl(base / "train_bugs.jsonl"))[0]["id"]
    files = {"patterns": patterns, "substitutes": substitutes,
             "code_dict": {first_bug: ["AlphaService", "BetaQueue"]}}
    changes = {}
    for option, payload in files.items():
        path = tmp_path / f"{option}.json"
        path.write_text(json.dumps(payload), "utf-8")
        changes[option] = [f"--{option.replace('_', '-')}", str(path)]
    return changes


_CONFIG_CHANGES = {
    "seed": ["--seed", "43"],
    "factor": ["--factor", "3"],
    "alpha": ["--alpha", "1.5"],
    "omega": ["--omega", "2.0"],
    "p_drop": ["--p-drop", "0.2"],
    "paraphraser": ["--paraphraser", "shuffle"],
    "service_url": ["--service-url", "http://localhost:9"],
    "lib_prefixes": ["--lib-prefixes", "com."],
    "top_k": ["--top-k", "3"],
    "top_n": ["--top-n", "5"],
    "metrics": ["--metrics", "mrr,p@1"],
}


def _file_digests(manifest: dict) -> dict[str, str]:
    return {name: digest for stage in manifest["stages"].values() for name, digest in stage.items()}


def test_each_stage_declares_the_config_its_outputs_depend_on(tmp_path, corpus_dir, caplog):
    caplog.set_level(logging.INFO, logger="bugaug")
    base = tmp_path / "base"
    assert main(_pipeline_args(corpus_dir, base)) == 0
    base_manifest = json.loads((base / "manifest.json").read_text("utf-8"))
    assert set(base_manifest["config"]) | {"seed"} == set(_CONFIG_CHANGES)
    base_digests = _file_digests(base_manifest)
    for option, extra in {**_CONFIG_CHANGES, **_option_files(tmp_path, base)}.items():
        rerun, fresh = tmp_path / f"rerun_{option}", tmp_path / f"fresh_{option}"
        shutil.copytree(base, rerun)
        caplog.clear()
        assert main(_pipeline_args(corpus_dir, rerun, extra=extra)) == 0, option
        skipped = _skipped_stages(caplog)
        assert main(_pipeline_args(corpus_dir, fresh, extra=extra)) == 0, option
        for path in sorted(fresh.iterdir()):
            assert (rerun / path.name).read_bytes() == path.read_bytes(), (option, path.name)
        assert sorted(p.name for p in rerun.iterdir()) == sorted(p.name for p in fresh.iterdir())

        manifest = json.loads((fresh / "manifest.json").read_text("utf-8"))
        digests = _file_digests(manifest)
        changed = {option} | {name for name in digests if digests[name] != base_digests.get(name)}
        # the identity paraphraser never calls the service, so no stage reruns for
        # its URL; every other change shows
        assert (len(changed) > 1) == (option != "service_url"), option
        expected = [stage.name for stage in cli.STAGES
                    if option == "service_url" or not changed & {*stage.config, *stage.reads}]
        assert skipped == expected, option


def test_only_the_service_paraphraser_keys_its_stages_on_the_service_url(tmp_path, corpus_dir):
    def keys(*extra):
        args = cli.build_parser().parse_args(_pipeline_args(corpus_dir, tmp_path, extra=extra))
        manifest = cli._pipeline_manifest(args)
        return {stage.name: cli._stage_key(stage, manifest, args, {}) for stage in cli.STAGES}

    for paraphraser in ("identity", "shuffle"):
        chosen = ["--paraphraser", paraphraser]
        assert keys(*chosen) == keys(*chosen, "--service-url", "http://localhost:9")
    service = ["--paraphraser", "service"]
    first = keys(*service, "--service-url", "http://localhost:9")
    second = keys(*service, "--service-url", "http://localhost:8")
    assert {name for name in first if first[name] != second[name]} == {"augment", "balance"}


def test_stage_functions_are_looked_up_when_called(tmp_path, corpus_dir, monkeypatch):
    """Every stage function is found by name at call time and called with
    positional arguments only, so a replaced stage_<name> (a stub, a tracing
    wrapper) is the one that runs, in the pipeline and in its subcommand."""
    calls = []

    def positional_only(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for stage in cli.STAGES:
        name = f"stage_{stage.name}"
        monkeypatch.setattr(cli, name, positional_only(stage.name, getattr(cli, name)))
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert calls == [stage.name for stage in cli.STAGES]

    alone = tmp_path / "alone"
    common = ["--corpus", str(out), "--structured", str(out / "structured.jsonl")]
    commands = {
        "ingest": ["--bugs", str(corpus_dir / "bugs.jsonl"), "--diffs", str(corpus_dir / "diffs"),
                   "--links", str(corpus_dir / "links.jsonl"), "--out", str(alone)],
        "extract": ["--corpus", str(out), "--out", str(tmp_path / "structured.jsonl")],
        "augment": [*common, "--out", str(tmp_path / "d_aug.jsonl")],
        "balance": [*common, "--train", str(out / "d_ori.jsonl"), "--alpha", "1", "--omega", "1",
                    "--out", str(tmp_path / "d_bl.jsonl")],
        "stats": ["--dataset", str(out / "d_bl.jsonl"), "--out", str(tmp_path / "stats.json")],
        "retrieve": ["--index", str(out), "--bugs", str(out / "test_bugs.jsonl"),
                     "--out", str(tmp_path / "run.txt")],
        "eval": ["--run", str(out / "run.txt"), "--qrels", str(out / "qrels.txt"),
                 "--out", str(tmp_path / "metrics.json")],
    }
    assert list(commands) == [stage.name for stage in cli.STAGES]
    for command, argv in commands.items():
        calls.clear()
        assert main([command, *argv]) == 0, command
        assert calls == [command]
