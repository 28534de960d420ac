"""bugaug command line: ingest -> extract -> augment -> balance -> stats ->
retrieve -> eval, individually or as one resumable pipeline run.

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
from functools import cached_property
from pathlib import Path

from . import __version__
from .balance import balance_dataset, distribution_report
from .builder import (
    ReportAugmenter,
    generate_augmented_set,
    generate_repeated_set,
    referenced_reports,
)
from .code_ops import (
    CodeOpConfig,
    load_code_name_dicts,
    mine_code_names,
    substitute_cache_info,
)
from .corpus import ingest_corpus, load_hunks_jsonl, load_links, sampler_from_links
from .extract import DEFAULT_LIBRARY_PREFIXES, PatternDictionary, structure_bug_report
from .fixtures import generate_corpus
from .metrics import (
    compute_metrics,
    parse_metric_names,
    per_bug_scores,
    read_qrels,
    read_run,
    write_qrels,
    write_run,
)
from .model import (
    Dataset,
    augmented_report_to_dict,
    bug_from_dict,
    bug_to_dict,
    changeset_from_dict,
    changeset_to_dict,
    hunk_to_dict,
    link_to_dict,
    open_new,
    read_jsonl,
    sample_from_dict,
    sample_to_dict,
    structured_from_dict,
    structured_to_dict,
    write_jsonl,
)
from .nl_ops import (
    AugConfig,
    QualityControl,
    SubstituteDictionary,
    identity_paraphraser,
    make_service_paraphraser,
    make_shuffle_paraphraser,
)
from .retrieval import index_hunks, rank

log = logging.getLogger("bugaug")


# --- corpus directory layout ---------------------------------------------


class CorpusDir:
    """Reader for the artifact directory written by the ingest stage.

    Artifacts that several stages read, and views derived from them, are
    cached properties: parsed when first asked for and kept, so a run parses
    hunks.jsonl once. Ingest, the only writer, runs before any reader, so
    nothing is invalidated. Each method's artifact has one reader per run.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def train_bugs(self):
        return [bug_from_dict(r) for r in read_jsonl(self.path / "train_bugs.jsonl")]

    def d_ori(self) -> Dataset:
        return load_dataset(self.path / "d_ori.jsonl", "D_ori")

    def changesets(self):
        return {r["id"]: changeset_from_dict(r) for r in read_jsonl(self.path / "changesets.jsonl")}

    @cached_property
    def hunks(self):
        return load_hunks_jsonl(self.path / "hunks.jsonl")

    @cached_property
    def hunks_by_changeset(self):
        grouped: dict[str, list] = {}
        for hunk in self.hunks:
            grouped.setdefault(hunk.changeset_id, []).append(hunk)
        return grouped

    @cached_property
    def links(self):
        return load_links(self.path / "links.jsonl")

    @cached_property
    def class_identifiers(self) -> list[str]:
        return sorted({h.class_name for h in self.hunks})

    @cached_property
    def code_names(self):
        """Code names mined from each linked bug's inducing hunks."""
        names = {}
        for bug_id, link in sorted(self.links.items()):
            hunks = [h for cs_id in link.inducing_changeset_ids
                     for h in self.hunks_by_changeset.get(cs_id, [])]
            if hunks:
                names[bug_id] = mine_code_names(bug_id, hunks)
        return names


def load_dataset(path: str | Path, name: str) -> Dataset:
    return Dataset(name=name, samples=[sample_from_dict(r) for r in read_jsonl(path)])


def write_dataset(path: str | Path, dataset: Dataset) -> None:
    write_jsonl(path, (sample_to_dict(s) for s in dataset.samples))


def _write_json(path: Path, payload: dict) -> None:
    with open_new(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _paraphraser(kind: str, service_url: str | None, dictionary: SubstituteDictionary, seed: int,
                 identifiers: list[str]):
    if kind == "shuffle":
        return make_shuffle_paraphraser(dictionary, seed, identifiers)
    if kind == "service":
        return make_service_paraphraser(service_url)
    return identity_paraphraser


def _build_augmenter(corpus_dir: CorpusDir, structured_path: Path, args) -> ReportAugmenter:
    structured = {
        r["bug_id"]: structured_from_dict(r) for r in read_jsonl(structured_path)
    }
    dictionary = (
        SubstituteDictionary.load(args.substitutes) if args.substitutes
        else SubstituteDictionary.default()
    )
    patterns = PatternDictionary.load(args.patterns) if args.patterns else PatternDictionary.default()
    identifiers = corpus_dir.class_identifiers
    qc = QualityControl(patterns=patterns, identifiers=frozenset(identifiers))
    paraphraser = _paraphraser(args.paraphraser, args.service_url, dictionary, args.seed, identifiers)
    return ReportAugmenter(
        structured_by_bug=structured,
        code_names_by_bug=(
            load_code_name_dicts(args.code_dict) if args.code_dict else corpus_dir.code_names
        ),
        dictionary=dictionary,
        qc=qc,
        aug_config=AugConfig(seed=args.seed),
        code_config=CodeOpConfig(seed=args.seed),
        paraphraser=paraphraser,
        p_drop=args.p_drop,
    )


# --- stages ---------------------------------------------------------------


def stage_ingest(bugs: Path, diffs: Path, links: Path, seed: int, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ingest_corpus(bugs, diffs, links, seed)
    write_jsonl(out_dir / "train_bugs.jsonl", (bug_to_dict(b) for b in result.train_bugs))
    write_jsonl(out_dir / "test_bugs.jsonl", (bug_to_dict(b) for b in result.test_bugs))
    write_jsonl(out_dir / "hunks.jsonl", (hunk_to_dict(h) for h in result.corpus.all_hunks()))
    write_jsonl(
        out_dir / "links.jsonl",
        (link_to_dict(result.corpus.links[k]) for k in sorted(result.corpus.links)),
    )
    write_jsonl(
        out_dir / "changesets.jsonl",
        (changeset_to_dict(result.corpus.changesets[k]) for k in sorted(result.corpus.changesets)),
    )
    write_dataset(out_dir / "d_ori.jsonl", result.d_ori)
    write_qrels(out_dir / "qrels.txt", result.qrels)
    log.info(
        "ingested %d train / %d test bugs, %d hunks, |D_ori|=%d",
        len(result.train_bugs),
        len(result.test_bugs),
        len(result.corpus.all_hunks()),
        len(result.d_ori),
    )


def stage_extract(corpus_dir: CorpusDir, patterns_path: str | None, lib_prefixes: list[str],
                  out_path: Path) -> None:
    patterns = PatternDictionary.load(patterns_path) if patterns_path else PatternDictionary.default()
    identifiers = corpus_dir.class_identifiers
    records = []
    for bug in corpus_dir.train_bugs():
        structured = structure_bug_report(bug, patterns, lib_prefixes, identifiers)
        records.append(structured_to_dict(structured))
    write_jsonl(out_path, records)
    log.info("extracted structure for %d bug reports", len(records))


def _write_reports(path: Path, dataset: Dataset, corpus_dir: CorpusDir, structured_path: Path,
                   args) -> None:
    """Stream the augmented report behind each distinct augmented bug_ref of
    dataset; the augmenter is built only if there is one."""
    before = substitute_cache_info()
    reports = ()
    if any(s.bug_ref != s.origin_bug_id for s in dataset.samples):
        reports = referenced_reports(dataset, _build_augmenter(corpus_dir, structured_path, args))
    write_jsonl(path, (augmented_report_to_dict(r) for r in reports))
    after = substitute_cache_info()
    log.info("%s reports: substitute ranking %d cache hits, %d misses", dataset.name,
             after.hits - before.hits, after.misses - before.misses)


def stage_augment(corpus_dir: CorpusDir, structured_path: Path, args, out_path: Path,
                  rep_out: Path | None, reports_out: Path | None) -> None:
    d_ori = corpus_dir.d_ori()
    sampler = sampler_from_links(corpus_dir.hunks_by_changeset, corpus_dir.links)
    d_aug = generate_augmented_set(d_ori, args.factor, sampler, args.seed)
    write_dataset(out_path, d_aug)
    log.info("|D_aug|=%d (factor %d over |D_ori|=%d)", len(d_aug), args.factor, len(d_ori))
    if reports_out is not None:
        _write_reports(reports_out, d_aug, corpus_dir, structured_path, args)
    if rep_out is not None:
        d_rep = generate_repeated_set(d_ori, args.factor, sampler, args.seed)
        write_dataset(rep_out, d_rep)
        log.info("|D_rep|=%d", len(d_rep))


def stage_balance(corpus_dir: CorpusDir, structured_path: Path, train_path: Path, args,
                  out_path: Path, reports_out: Path | None) -> None:
    d_train = load_dataset(train_path, "D_train")
    sampler = sampler_from_links(corpus_dir.hunks_by_changeset, corpus_dir.links)
    d_bl = balance_dataset(d_train, args.alpha, args.omega, sampler, args.seed)
    write_dataset(out_path, d_bl)
    log.info("|D_bl|=%d (alpha=%s omega=%s)", len(d_bl), args.alpha, args.omega)
    if reports_out is not None:
        _write_reports(reports_out, d_bl, corpus_dir, structured_path, args)


def stage_stats(dataset_paths: dict[str, Path], top_k: int, out_path: Path,
                csv_path: Path | None) -> None:
    payload = {}
    for name, path in sorted(dataset_paths.items()):
        report = distribution_report(load_dataset(path, name))
        payload[name] = report.to_dict(top_k)
    _write_json(out_path, payload)
    if csv_path is not None:
        with open_new(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "kind", "rank", "key", "count"])
            for name in sorted(dataset_paths):
                data = payload[name]
                for rank_, (key, count) in enumerate(data["per_bug_counts"], start=1):
                    writer.writerow([name, "bug", rank_, key, count])
                for rank_, (key, count) in enumerate(data["per_class_counts"], start=1):
                    writer.writerow([name, "class", rank_, key, count])


def stage_retrieve(corpus_dir: CorpusDir, bugs_path: Path, top_n: int, out_path: Path) -> None:
    log_messages = {cs_id: cs.log_message for cs_id, cs in corpus_dir.changesets().items()}
    index = index_hunks(corpus_dir.hunks, log_messages)
    run = {}
    for record in read_jsonl(bugs_path):
        bug = bug_from_dict(record)
        run[bug.id] = rank(bug.text, index, top_n)
    write_run(out_path, run)
    log.info("ranked %d hunks for %d bug reports", len(index), len(run))


def stage_eval(run_path: Path, qrels_path: Path, metric_names: list[str], out_path: Path) -> None:
    run = read_run(run_path)
    qrels = read_qrels(qrels_path)
    metric_values = compute_metrics(run, qrels, metric_names)
    _write_json(out_path, {"metrics": metric_values, "per_bug": per_bug_scores(run, qrels)})
    for name, value in metric_values.items():
        print(f"{name}\t{value:.4f}")


# --- manifest --------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digest_files(paths: list[Path]) -> dict[str, str]:
    return {p.name: _sha256(p) for p in paths if p.is_file()}


def _digest_tree(path: Path) -> dict[str, str]:
    return _digest_files(sorted(path.iterdir()) if path.is_dir() else [path])


def _pipeline_manifest(args) -> dict:
    """Everything that determines the pipeline's artifacts, before any stage runs."""
    option_files = {"patterns": args.patterns, "substitutes": args.substitutes,
                    "code_dict": args.code_dict}
    return {
        "tool": "bugaug",
        "version": __version__,
        "seed": args.seed,
        "config": {
            "factor": args.factor,
            "alpha": args.alpha,
            "omega": args.omega,
            "p_drop": args.p_drop,
            "paraphraser": args.paraphraser,
            "service_url": args.service_url,
            "lib_prefixes": args.lib_prefixes,
            "top_k": args.top_k,
            "top_n": args.top_n,
            "metrics": args.metrics,
        },
        "inputs": {
            "bugs": _digest_tree(args.bugs),
            "diffs": _digest_tree(args.diffs),
            "links": _digest_tree(args.links),
            **{name: _digest_tree(Path(path)) for name, path in option_files.items() if path},
        },
        "stages": {},
    }


def _completed_stages(manifest_path: Path, manifest: dict) -> dict[str, dict[str, str]]:
    """Stage digests of the previous run in this directory, if it ran with the
    same tool, version, seed, config and inputs; otherwise none."""
    try:
        previous = json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError):
        return {}
    if any(previous.get(k) != manifest[k] for k in ("tool", "version", "seed", "config", "inputs")):
        return {}
    return previous.get("stages", {})


# --- command handlers -------------------------------------------------------


def _require(parser: argparse.ArgumentParser, flag: str, path: Path) -> Path:
    if not path.exists():
        parser.error(f"{flag}: path does not exist: {path}")
    return path


def _metric_names(parser: argparse.ArgumentParser, spec: str) -> list[str]:
    try:
        return parse_metric_names(spec.split(","))
    except ValueError as exc:
        parser.error(f"--metrics: {exc}")


def cmd_fixture(args, parser) -> int:
    generate_corpus(args.out, n_bugs=args.bugs, seed=args.seed)
    print(f"fixture corpus written to {args.out}")
    return 0


def cmd_ingest(args, parser) -> int:
    _require(parser, "--bugs", args.bugs)
    _require(parser, "--diffs", args.diffs)
    _require(parser, "--links", args.links)
    stage_ingest(args.bugs, args.diffs, args.links, args.seed, args.out)
    return 0


def _require_augment_opts(parser: argparse.ArgumentParser, args) -> None:
    for flag, path in (("--patterns", args.patterns), ("--substitutes", args.substitutes),
                       ("--code-dict", args.code_dict)):
        if path:
            _require(parser, flag, Path(path))
    if args.paraphraser == "service" and not args.service_url:
        parser.error("--paraphraser service requires --service-url")


def cmd_extract(args, parser) -> int:
    _require(parser, "--corpus", args.corpus)
    if args.patterns:
        _require(parser, "--patterns", Path(args.patterns))
    stage_extract(CorpusDir(args.corpus), args.patterns, args.lib_prefixes.split(","), args.out)
    return 0


def cmd_augment(args, parser) -> int:
    _require(parser, "--corpus", args.corpus)
    _require(parser, "--structured", args.structured)
    _require_augment_opts(parser, args)
    stage_augment(
        CorpusDir(args.corpus), args.structured, args, args.out, args.rep_out, args.reports_out
    )
    return 0


def cmd_balance(args, parser) -> int:
    _require(parser, "--corpus", args.corpus)
    _require(parser, "--structured", args.structured)
    _require(parser, "--train", args.train)
    _require_augment_opts(parser, args)
    stage_balance(
        CorpusDir(args.corpus), args.structured, args.train, args, args.out, args.reports_out
    )
    return 0


def cmd_stats(args, parser) -> int:
    _require(parser, "--dataset", args.dataset)
    stage_stats({args.dataset.stem: args.dataset}, args.top_k, args.out, args.csv)
    return 0


def cmd_retrieve(args, parser) -> int:
    _require(parser, "--index", args.index)
    _require(parser, "--bugs", args.bugs)
    stage_retrieve(CorpusDir(args.index), args.bugs, args.top_n, args.out)
    return 0


def cmd_eval(args, parser) -> int:
    _require(parser, "--run", args.run)
    _require(parser, "--qrels", args.qrels)
    stage_eval(args.run, args.qrels, _metric_names(parser, args.metrics), args.out)
    return 0


def cmd_pipeline(args, parser) -> int:
    _require(parser, "--bugs", args.bugs)
    _require(parser, "--diffs", args.diffs)
    _require(parser, "--links", args.links)
    _require_augment_opts(parser, args)
    metric_names = _metric_names(parser, args.metrics)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    corpus_dir = CorpusDir(out)
    structured_path = out / "structured.jsonl"

    stages = [
        (
            "ingest",
            [
                "train_bugs.jsonl", "test_bugs.jsonl", "hunks.jsonl", "links.jsonl",
                "changesets.jsonl", "d_ori.jsonl", "qrels.txt",
            ],
            lambda: stage_ingest(args.bugs, args.diffs, args.links, args.seed, out),
        ),
        (
            "extract",
            ["structured.jsonl"],
            lambda: stage_extract(corpus_dir, args.patterns, args.lib_prefixes.split(","), structured_path),
        ),
        (
            "augment",
            ["d_aug.jsonl", "d_rep.jsonl", "augmented_reports.jsonl"],
            lambda: stage_augment(
                corpus_dir, structured_path, args, out / "d_aug.jsonl",
                out / "d_rep.jsonl", out / "augmented_reports.jsonl",
            ),
        ),
        (
            "balance",
            ["d_bl.jsonl", "balance_reports.jsonl"],
            lambda: stage_balance(
                corpus_dir, structured_path, out / "d_ori.jsonl", args,
                out / "d_bl.jsonl", out / "balance_reports.jsonl",
            ),
        ),
        (
            "stats",
            ["stats.json"],
            lambda: stage_stats(
                {
                    "d_ori": out / "d_ori.jsonl",
                    "d_rep": out / "d_rep.jsonl",
                    "d_aug": out / "d_aug.jsonl",
                    "d_bl": out / "d_bl.jsonl",
                },
                args.top_k,
                out / "stats.json",
                None,
            ),
        ),
        (
            "retrieve",
            ["run.txt"],
            lambda: stage_retrieve(corpus_dir, out / "test_bugs.jsonl", args.top_n, out / "run.txt"),
        ),
        (
            "eval",
            ["metrics.json"],
            lambda: stage_eval(out / "run.txt", out / "qrels.txt", metric_names, out / "metrics.json"),
        ),
    ]

    manifest_path = out / "manifest.json"
    manifest = _pipeline_manifest(args)
    completed = {} if args.force else _completed_stages(manifest_path, manifest)
    for name, outputs, fn in stages:
        paths = [out / o for o in outputs]
        if completed.get(name) == _digest_files(paths):
            log.info("stage %s: outputs match the manifest, skipping (use --force to recompute)", name)
        else:
            try:
                fn()
            except Exception as exc:
                print(f"pipeline stage {name!r} failed: {exc}", file=sys.stderr)
                return 1
        manifest["stages"][name] = _digest_files(paths)
        _write_json(manifest_path, manifest)
    print(f"pipeline complete; artifacts in {out}")
    return 0


# --- parser -----------------------------------------------------------------


def _at_least_one(text: str) -> int:
    """argparse type for a count option: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive(text: str) -> float:
    """argparse type for a cap multiplier: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _add_command(subparsers, name: str, handler, summary: str) -> argparse.ArgumentParser:
    """A subcommand whose handler reports usage errors through its own parser."""
    sub = subparsers.add_parser(name, help=summary)
    sub.set_defaults(func=lambda args: handler(args, sub))
    return sub


def _add_augment_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--p-drop", dest="p_drop", type=float, default=0.5)
    sub.add_argument("--paraphraser", choices=("identity", "shuffle", "service"), default="identity")
    sub.add_argument("--service-url", dest="service_url", default=None)
    sub.add_argument("--patterns", default=None, help="pattern dictionary JSON (default: bundled)")
    sub.add_argument("--substitutes", default=None, help="substitute dictionary JSON (default: bundled)")
    sub.add_argument("--code-dict", dest="code_dict", default=None,
                     help="JSON map bug_id -> [code names], overrides mining")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bugaug",
        description="Data augmentation and balancing for bug-localization training sets.",
    )
    parser.add_argument("--version", action="version", version=f"bugaug {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="verbose logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = _add_command(subparsers, "fixture", cmd_fixture, "generate a synthetic demo corpus")
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--bugs", type=int, default=50)
    sub.add_argument("--seed", type=int, default=7)

    sub = _add_command(subparsers, "ingest", cmd_ingest,
                       "parse inputs, build D_ori and the date split")
    sub.add_argument("--bugs", type=Path, required=True, help="bug reports JSON-lines")
    sub.add_argument("--diffs", type=Path, required=True, help="directory of .diff files + changesets.jsonl")
    sub.add_argument("--links", type=Path, required=True, help="bug/changeset link records JSON-lines")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--out", type=Path, required=True, help="output corpus directory")

    sub = _add_command(subparsers, "extract", cmd_extract,
                       "decompose train bug reports into structured samples")
    sub.add_argument("--corpus", type=Path, required=True, help="ingest output directory")
    sub.add_argument("--patterns", default=None)
    sub.add_argument("--lib-prefixes", dest="lib_prefixes", default=",".join(DEFAULT_LIBRARY_PREFIXES))
    sub.add_argument("--out", type=Path, required=True)

    sub = _add_command(subparsers, "augment", cmd_augment, "generate D_aug (and optionally D_rep)")
    sub.add_argument("--corpus", type=Path, required=True)
    sub.add_argument("--structured", type=Path, required=True)
    sub.add_argument("--factor", type=_at_least_one, default=10)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--rep-out", dest="rep_out", type=Path, default=None)
    sub.add_argument("--reports-out", dest="reports_out", type=Path, default=None)
    _add_augment_opts(sub)

    sub = _add_command(subparsers, "balance", cmd_balance, "build the balanced dataset D_bl")
    sub.add_argument("--corpus", type=Path, required=True)
    sub.add_argument("--structured", type=Path, required=True)
    sub.add_argument("--train", type=Path, required=True, help="training dataset JSON-lines (e.g. d_ori.jsonl)")
    sub.add_argument("--alpha", type=_positive, required=True)
    sub.add_argument("--omega", type=_positive, required=True)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--reports-out", dest="reports_out", type=Path, default=None)
    _add_augment_opts(sub)

    sub = _add_command(subparsers, "stats", cmd_stats, "per-bug / per-class distribution report")
    sub.add_argument("--dataset", type=Path, required=True)
    sub.add_argument("--top-k", dest="top_k", type=_at_least_one, default=10)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--csv", type=Path, default=None)

    sub = _add_command(subparsers, "retrieve", cmd_retrieve,
                       "rank hunks for bug reports with the lexical baseline")
    sub.add_argument("--index", type=Path, required=True, help="corpus directory with hunks.jsonl")
    sub.add_argument("--bugs", type=Path, required=True)
    sub.add_argument("--top-n", dest="top_n", type=_at_least_one, default=100)
    sub.add_argument("--out", type=Path, required=True)

    sub = _add_command(subparsers, "eval", cmd_eval, "score a run file against qrels")
    sub.add_argument("--run", type=Path, required=True)
    sub.add_argument("--qrels", type=Path, required=True)
    sub.add_argument("--metrics", default="mrr,map,p@1,p@3,p@5")
    sub.add_argument("--out", type=Path, required=True)

    sub = _add_command(subparsers, "pipeline", cmd_pipeline, "run every stage into one output directory")
    sub.add_argument("--bugs", type=Path, required=True)
    sub.add_argument("--diffs", type=Path, required=True)
    sub.add_argument("--links", type=Path, required=True)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--factor", type=_at_least_one, default=10)
    sub.add_argument("--alpha", type=_positive, default=0.7)
    sub.add_argument("--omega", type=_positive, default=1.0)
    sub.add_argument("--top-k", dest="top_k", type=_at_least_one, default=10)
    sub.add_argument("--top-n", dest="top_n", type=_at_least_one, default=100)
    sub.add_argument("--metrics", default="mrr,map,p@1,p@3,p@5")
    sub.add_argument("--lib-prefixes", dest="lib_prefixes", default=",".join(DEFAULT_LIBRARY_PREFIXES))
    sub.add_argument("--force", action="store_true",
                     help="recompute every stage, even one whose outputs match the manifest")
    _add_augment_opts(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> exit 1 with cause
        print(f"bugaug {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
