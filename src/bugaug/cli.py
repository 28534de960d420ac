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
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

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
    corpus = result.corpus
    write_jsonl(out_dir / "train_bugs.jsonl", (bug_to_dict(b) for b in result.train_bugs))
    write_jsonl(out_dir / "test_bugs.jsonl", (bug_to_dict(b) for b in result.test_bugs))
    write_jsonl(out_dir / "hunks.jsonl", (hunk_to_dict(h) for h in corpus.all_hunks()))
    write_jsonl(out_dir / "links.jsonl", (link_to_dict(corpus.links[k]) for k in sorted(corpus.links)))
    write_jsonl(out_dir / "changesets.jsonl",
                (changeset_to_dict(corpus.changesets[k]) for k in sorted(corpus.changesets)))
    write_dataset(out_dir / "d_ori.jsonl", result.d_ori)
    write_qrels(out_dir / "qrels.txt", result.qrels)
    log.info("ingested %d train / %d test bugs, %d hunks, |D_ori|=%d", len(result.train_bugs),
             len(result.test_bugs), len(corpus.all_hunks()), len(result.d_ori))


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
    texts = {bug.id: bug.text for bug in map(bug_from_dict, read_jsonl(bugs_path))}
    # one bug's ranking at a time, in id order
    write_run(out_path, ((bug_id, rank(text, index, top_n)) for bug_id, text in sorted(texts.items())))
    log.info("ranked %d hunks for %d bug reports", len(index), len(texts))


def stage_eval(run_path: Path, qrels_path: Path, metric_names: list[str], out_path: Path) -> None:
    run = read_run(run_path)
    qrels = read_qrels(qrels_path)
    metric_values = compute_metrics(run, qrels, metric_names)
    _write_json(out_path, {"metrics": metric_values, "per_bug": per_bug_scores(run, qrels)})
    for name, value in metric_values.items():
        print(f"{name}\t{value:.4f}")


# --- stage table -------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """A stage, run alone by its subcommand or in order by `pipeline`.

    Options go by their argparse dest: "code_dict" for --code-dict.
    `inputs`: the subcommand's options that name files the stage reads.
    `paths`: what each path option names in a pipeline run's directory (""
    is the directory, a tuple several files); other options keep their value.
    `reads`: run-directory files and pipeline inputs (by option) that the
    outputs depend on; `writes`: the run-directory files it writes;
    `config`: the options its outputs depend on. `call` maps the options and
    a CorpusDir factory to the stage function's positional arguments."""

    name: str
    inputs: tuple[str, ...]
    paths: dict[str, str | tuple[str, ...]]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    config: tuple[str, ...]
    call: Callable[[argparse.Namespace, Callable[[Path], CorpusDir]], tuple]


_OPTION_FILES = ("patterns", "substitutes", "code_dict")
_AUGMENT_READS = ("d_ori.jsonl", "hunks.jsonl", "links.jsonl", "structured.jsonl", *_OPTION_FILES)
_AUGMENT_CONFIG = ("seed", "p_drop", "paraphraser", "service_url")
_DATASETS = ("d_ori.jsonl", "d_rep.jsonl", "d_aug.jsonl", "d_bl.jsonl")


def _by_stem(paths: Path | list[Path]) -> dict[str, Path]:
    """Datasets by name: the one --dataset file, or a pipeline run's four."""
    return {p.stem: p for p in ([paths] if isinstance(paths, Path) else paths)}


STAGES = (
    Stage("ingest", ("bugs", "diffs", "links"), {"out": ""},
          reads=("bugs", "diffs", "links"),
          writes=("train_bugs.jsonl", "test_bugs.jsonl", "hunks.jsonl", "links.jsonl",
                  "changesets.jsonl", "d_ori.jsonl", "qrels.txt"),
          config=("seed",), call=lambda a, corpus: (a.bugs, a.diffs, a.links, a.seed, a.out)),
    Stage("extract", ("corpus", "patterns"), {"corpus": "", "out": "structured.jsonl"},
          reads=("train_bugs.jsonl", "hunks.jsonl", "patterns"), writes=("structured.jsonl",),
          config=("lib_prefixes",),
          call=lambda a, corpus: (corpus(a.corpus), a.patterns, a.lib_prefixes.split(","), a.out)),
    Stage("augment", ("corpus", "structured", *_OPTION_FILES),
          {"corpus": "", "structured": "structured.jsonl", "out": "d_aug.jsonl",
           "rep_out": "d_rep.jsonl", "reports_out": "augmented_reports.jsonl"},
          reads=_AUGMENT_READS, writes=("d_aug.jsonl", "d_rep.jsonl", "augmented_reports.jsonl"),
          config=("factor", *_AUGMENT_CONFIG),
          call=lambda a, corpus: (corpus(a.corpus), a.structured, a, a.out, a.rep_out, a.reports_out)),
    Stage("balance", ("corpus", "structured", "train", *_OPTION_FILES),
          {"corpus": "", "structured": "structured.jsonl", "train": "d_ori.jsonl",
           "out": "d_bl.jsonl", "reports_out": "balance_reports.jsonl"},
          reads=_AUGMENT_READS, writes=("d_bl.jsonl", "balance_reports.jsonl"),
          config=("alpha", "omega", *_AUGMENT_CONFIG),
          call=lambda a, corpus: (corpus(a.corpus), a.structured, a.train, a, a.out, a.reports_out)),
    Stage("stats", ("dataset",), {"dataset": _DATASETS, "out": "stats.json"},
          reads=_DATASETS, writes=("stats.json",), config=("top_k",),
          call=lambda a, corpus: (_by_stem(a.dataset), a.top_k, a.out, getattr(a, "csv", None))),
    Stage("retrieve", ("index", "bugs"),
          {"index": "", "bugs": "test_bugs.jsonl", "out": "run.txt"},
          reads=("changesets.jsonl", "hunks.jsonl", "test_bugs.jsonl"), writes=("run.txt",),
          config=("top_n",), call=lambda a, corpus: (corpus(a.index), a.bugs, a.top_n, a.out)),
    Stage("eval", ("run", "qrels"),
          {"run": "run.txt", "qrels": "qrels.txt", "out": "metrics.json"},
          reads=("run.txt", "qrels.txt"), writes=("metrics.json",), config=("metrics",),
          call=lambda a, corpus: (a.run, a.qrels, parse_metric_names(a.metrics.split(",")), a.out)),
)


def run_stage(stage: Stage, args, corpus: Callable[[Path], CorpusDir], run_dir: Path | None = None):
    """Run stage with args; given run_dir, with its path options naming files
    there. stage_<name> is looked up now, not at import, so a replaced stage
    function (a test stub, a benchmark's tracing wrapper) is the one called."""
    if run_dir is not None:
        args = argparse.Namespace(**{**vars(args), **{
            option: run_dir / name if isinstance(name, str) else [run_dir / n for n in name]
            for option, name in stage.paths.items()}})
    globals()[f"stage_{stage.name}"](*stage.call(args, corpus))


def _check_usage(parser: argparse.ArgumentParser, args, options) -> None:
    """Exit 2 with the subcommand's usage, before any stage runs, if a file one
    of options names is missing, a service paraphraser has no URL or a metric
    is unknown. An option is named by its flag, as typed."""
    for option in options:
        path = getattr(args, option)
        if path is not None and not Path(path).exists():
            parser.error(f"--{option.replace('_', '-')}: path does not exist: {path}")
    if getattr(args, "paraphraser", None) == "service" and not args.service_url:
        parser.error("--paraphraser service requires --service-url")
    if hasattr(args, "metrics"):
        try:
            parse_metric_names(args.metrics.split(","))
        except ValueError as exc:
            parser.error(f"--metrics: {exc}")


# --- manifest and resume ------------------------------------------------------


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
    """Everything that determines the pipeline's artifacts, before any stage
    runs. Its inputs are the reads that no stage writes."""
    written = {name for stage in STAGES for name in stage.writes}
    inputs = [name for stage in STAGES for name in stage.reads if name not in written]
    return {
        "tool": "bugaug",
        "version": __version__,
        "seed": args.seed,
        "config": {k: getattr(args, k) for stage in STAGES for k in stage.config if k != "seed"},
        "inputs": {name: _digest_tree(Path(getattr(args, name)))
                   for name in inputs if getattr(args, name)},
        "stages": {},
        "keys": {},
    }


def _stage_key(stage: Stage, manifest: dict, args, digests: dict) -> str:
    """SHA-256 of the tool, the version, the stage's config values and the
    digests of what it reads (None for an option file not given)."""
    payload = [manifest["tool"], manifest["version"],
               {k: getattr(args, k) for k in stage.config},
               {name: digests.get(name) for name in stage.reads}]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


# --- command handlers -------------------------------------------------------


def cmd_fixture(args, parser) -> int:
    generate_corpus(args.out, n_bugs=args.bugs, seed=args.seed)
    print(f"fixture corpus written to {args.out}")
    return 0


def cmd_stage(args, parser) -> int:
    """Run the stage the subcommand names on its own."""
    stage = next(s for s in STAGES if s.name == args.command)
    _check_usage(parser, args, stage.inputs)
    run_stage(stage, args, cache(CorpusDir))
    return 0


def cmd_pipeline(args, parser) -> int:
    # options a stage maps into the run directory name files that earlier stages write
    _check_usage(parser, args, [o for s in STAGES for o in s.inputs if o not in s.paths])
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest = _pipeline_manifest(args)
    try:
        previous = {} if args.force else json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError):
        previous = {}
    digests = dict(manifest["inputs"])  # by input name, then by each written file's name
    corpus = cache(CorpusDir)
    for stage in STAGES:
        key = _stage_key(stage, manifest, args, digests)
        outputs = [out / name for name in stage.writes]
        written = _digest_files(outputs) if previous.get("keys", {}).get(stage.name) == key else None
        if written is not None and written == previous.get("stages", {}).get(stage.name):
            log.info("stage %s: key and outputs match the manifest, skipping "
                     "(use --force to recompute)", stage.name)
        else:
            try:
                run_stage(stage, args, corpus, out)
            except Exception as exc:
                print(f"pipeline stage {stage.name!r} failed: {exc}", file=sys.stderr)
                return 1
            written = _digest_files(outputs)
        digests.update(written)
        manifest["stages"][stage.name] = written
        manifest["keys"][stage.name] = key
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


def _add_command(subparsers, name: str, summary: str, handler=cmd_stage) -> argparse.ArgumentParser:
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

    sub = _add_command(subparsers, "fixture", "generate a synthetic demo corpus", cmd_fixture)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--bugs", type=int, default=50)
    sub.add_argument("--seed", type=int, default=7)

    sub = _add_command(subparsers, "ingest", "parse inputs, build D_ori and the date split")
    sub.add_argument("--bugs", type=Path, required=True, help="bug reports JSON-lines")
    sub.add_argument("--diffs", type=Path, required=True, help="directory of .diff files + changesets.jsonl")
    sub.add_argument("--links", type=Path, required=True, help="bug/changeset link records JSON-lines")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--out", type=Path, required=True, help="output corpus directory")

    sub = _add_command(subparsers, "extract",
                       "decompose train bug reports into structured samples")
    sub.add_argument("--corpus", type=Path, required=True, help="ingest output directory")
    sub.add_argument("--patterns", default=None)
    sub.add_argument("--lib-prefixes", dest="lib_prefixes", default=",".join(DEFAULT_LIBRARY_PREFIXES))
    sub.add_argument("--out", type=Path, required=True)

    sub = _add_command(subparsers, "augment", "generate D_aug (and optionally D_rep)")
    sub.add_argument("--corpus", type=Path, required=True)
    sub.add_argument("--structured", type=Path, required=True)
    sub.add_argument("--factor", type=_at_least_one, default=10)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--rep-out", dest="rep_out", type=Path, default=None)
    sub.add_argument("--reports-out", dest="reports_out", type=Path, default=None)
    _add_augment_opts(sub)

    sub = _add_command(subparsers, "balance", "build the balanced dataset D_bl")
    sub.add_argument("--corpus", type=Path, required=True)
    sub.add_argument("--structured", type=Path, required=True)
    sub.add_argument("--train", type=Path, required=True, help="training dataset JSON-lines (e.g. d_ori.jsonl)")
    sub.add_argument("--alpha", type=_positive, required=True)
    sub.add_argument("--omega", type=_positive, required=True)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--reports-out", dest="reports_out", type=Path, default=None)
    _add_augment_opts(sub)

    sub = _add_command(subparsers, "stats", "per-bug / per-class distribution report")
    sub.add_argument("--dataset", type=Path, required=True)
    sub.add_argument("--top-k", dest="top_k", type=_at_least_one, default=10)
    sub.add_argument("--out", type=Path, required=True)
    sub.add_argument("--csv", type=Path, default=None)

    sub = _add_command(subparsers, "retrieve",
                       "rank hunks for bug reports with the lexical baseline")
    sub.add_argument("--index", type=Path, required=True, help="corpus directory with hunks.jsonl")
    sub.add_argument("--bugs", type=Path, required=True)
    sub.add_argument("--top-n", dest="top_n", type=_at_least_one, default=100)
    sub.add_argument("--out", type=Path, required=True)

    sub = _add_command(subparsers, "eval", "score a run file against qrels")
    sub.add_argument("--run", type=Path, required=True)
    sub.add_argument("--qrels", type=Path, required=True)
    sub.add_argument("--metrics", default="mrr,map,p@1,p@3,p@5")
    sub.add_argument("--out", type=Path, required=True)

    sub = _add_command(subparsers, "pipeline", "run every stage into one output directory",
                       cmd_pipeline)
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
