from __future__ import annotations

import hashlib
import json
import logging
import re
import shutil
from functools import cache
from importlib import resources

import pytest

from bugaug import cli
from bugaug.cli import main
from bugaug.fixtures import generate_corpus
from bugaug.model import read_jsonl


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


def test_each_run_parses_hunks_jsonl_once(tmp_path, corpus_dir, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="bugaug")
    loads = []
    load = cli.load_hunks_jsonl
    monkeypatch.setattr(cli, "load_hunks_jsonl", lambda path: loads.append(path) or load(path))
    out = tmp_path / "run"
    assert main(_pipeline_args(corpus_dir, out)) == 0
    assert loads == [out / "hunks.jsonl"]

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


def _substitute_cache_counts(caplog) -> dict[str, tuple[int, int]]:
    counts = {}
    for record in caplog.records:
        match = re.fullmatch(r"(\S+) reports: substitute ranking (\d+) cache hits, (\d+) misses",
                             record.getMessage())
        if match:
            counts[match[1]] = (int(match[2]), int(match[3]))
    return counts


def test_pipeline_logs_substitute_cache_counts_per_stage(tmp_path, corpus_dir, caplog):
    caplog.set_level(logging.INFO, logger="bugaug")
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
        # the identity paraphraser never calls the service; every other change shows
        assert (len(changed) > 1) == (option != "service_url"), option
        expected = [stage.name for stage in cli.STAGES
                    if not changed & {*stage.config, *stage.reads}]
        assert skipped == expected, option


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
