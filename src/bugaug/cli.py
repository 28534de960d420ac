"""bugaug command line: ingest -> extract -> augment -> balance -> stats ->
retrieve -> eval, individually or as one resumable pipeline run.

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

from . import __version__
from .balance import balance_dataset, file_distribution_report
from .builder import (
    ReportAugmenter,
    ReportStore,
    generate_augmented_set,
    generate_repeated_set,
    referenced_refs,
    write_reports,
    write_sharded,
)
from .code_ops import load_code_name_dicts, mine_code_names
from .corpus import ProjectCorpus, ingest_corpus, load_bugs, load_hunks_jsonl, load_links
from .extract import DEFAULT_LIBRARY_PREFIXES, PatternDictionary, structure_bug_report
from .metrics import (
    compute_metrics,
    parse_metric_names,
    per_bug_scores,
    read_qrels,
    read_run,
    run_lines,
    write_qrels,
)
from .model import (
    COUNTS,
    Dataset,
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
    structured_to_dict,
    write_jsonl,
)
from .nl_ops import (
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
    hunks.jsonl at most once. Ingest, the only writer, runs before any
    reader, so nothing is invalidated, and it sets `hunks` to the hunks it
    parsed: a run whose ingest ran parses hunks.jsonl zero times. The
    pipeline drops its CorpusDir after the last stage that reads hunks.jsonl
    or links.jsonl, so later stages run without the parsed corpus. Each
    method's artifact has one reader per run.

    `reports` is the run's report store: where each augmented report the run
    wrote lies, so a later stage copies it instead of building it again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.reports: ReportStore = {}

    def train_bugs(self):
        return list(read_jsonl(self.path / "train_bugs.jsonl", bug_from_dict))

    def d_ori(self) -> Dataset:
        return load_dataset(self.path / "d_ori.jsonl", "D_ori")

    def log_messages(self) -> dict[str, str]:
        """Each changeset's log message, by changeset id, as changeset_from_dict
        reads it; only the messages are kept."""
        return {cs.id: cs.log_message
                for cs in read_jsonl(self.path / "changesets.jsonl", changeset_from_dict)}

    @cached_property
    def hunks(self):
        return load_hunks_jsonl(self.path / "hunks.jsonl")

    @cached_property
    def corpus(self) -> ProjectCorpus:
        """The hunks and links. A changeset with no hunks is not a key, so it
        reads as unknown: an inducing changeset may not be empty either way."""
        grouped: dict[str, list] = {}
        for hunk in self.hunks:
            grouped.setdefault(hunk.changeset_id, []).append(hunk)
        return ProjectCorpus(grouped, load_links(self.path / "links.jsonl"))

    @cached_property
    def class_identifiers(self) -> frozenset[str]:
        """The hunks' class names: one object, which extraction, QC and the
        paraphraser all pass on, so their shared token cache hits by identity."""
        return frozenset(h.class_name for h in self.hunks)


def load_dataset(path: str | Path, name: str) -> Dataset:
    return Dataset(name=name, samples=list(read_jsonl(path, sample_from_dict)))


def write_dataset(path: str | Path, dataset: Dataset) -> None:
    write_jsonl(path, (sample_to_dict(s) for s in dataset.samples))


def _write_json(path: Path, payload: dict) -> None:
    with open_new(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _paraphraser(kind: str, service_url: str | None, dictionary: SubstituteDictionary, seed: int,
                 identifiers: frozenset[str]):
    if kind == "shuffle":
        return make_shuffle_paraphraser(dictionary, seed, identifiers)
    if kind == "service":
        return make_service_paraphraser(service_url)
    return identity_paraphraser


def _build_augmenter(corpus_dir: CorpusDir, structured_path: Path, args) -> ReportAugmenter:
    dictionary = (
        SubstituteDictionary.load(args.substitutes) if args.substitutes
        else SubstituteDictionary.default()
    )
    patterns = PatternDictionary.load(args.patterns) if args.patterns else PatternDictionary.default()
    identifiers = corpus_dir.class_identifiers
    qc = QualityControl(patterns=patterns, identifiers=identifiers)
    paraphraser = _paraphraser(args.paraphraser, args.service_url, dictionary, args.seed, identifiers)
    if args.code_dict:
        code_names = load_code_name_dicts(args.code_dict).get
    else:
        corpus = corpus_dir.corpus  # built before the report shards fork

        def code_names(bug_id: str):
            if bug_id not in corpus.links:
                return None
            return mine_code_names(bug_id, corpus.inducing_hunks(bug_id))

    return ReportAugmenter(
        # a record is decoded when its bug's plan is built
        records=dict(read_jsonl(structured_path, lambda r: (r["bug_id"], r))),
        code_names=code_names,
        dictionary=dictionary,
        qc=qc,
        seed=args.seed,
        paraphraser=paraphraser,
        p_drop=args.p_drop,
    )


# --- stages ---------------------------------------------------------------


def stage_ingest(bugs: Path, diffs: Path, links: Path, seed: int, corpus_dir: CorpusDir) -> None:
    out_dir = corpus_dir.path
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ingest_corpus(bugs, diffs, links, seed)
    corpus = result.corpus
    hunks = corpus.all_hunks()
    write_jsonl(out_dir / "train_bugs.jsonl", (bug_to_dict(b) for b in result.train_bugs))
    write_jsonl(out_dir / "test_bugs.jsonl", (bug_to_dict(b) for b in result.test_bugs))
    write_jsonl(out_dir / "hunks.jsonl", (hunk_to_dict(h) for h in hunks))
    write_jsonl(out_dir / "links.jsonl", (link_to_dict(corpus.links[k]) for k in sorted(corpus.links)))
    write_jsonl(out_dir / "changesets.jsonl",
                (changeset_to_dict(result.changesets[k]) for k in sorted(result.changesets)))
    write_dataset(out_dir / "d_ori.jsonl", result.d_ori)
    write_qrels(out_dir / "qrels.txt", result.qrels)
    corpus_dir.hunks = hunks  # what hunks.jsonl now holds, so no later stage parses it
    log.info("ingested %d train / %d test bugs, %d hunks, |D_ori|=%d", len(result.train_bugs),
             len(result.test_bugs), len(hunks), len(result.d_ori))


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


def _write_reports(path: Path, name: str, refs: list[tuple[str, int]], corpus_dir: CorpusDir,
                   structured_path: Path, args) -> None:
    """Write the augmented report behind each of refs, the distinct augmented
    bug_refs of dataset name. A report this run wrote already is copied from
    corpus_dir's store: augment and balance share their augmenter settings
    (_AUGMENT_CONFIG, _AUGMENT_READS), so it is the report balance would
    build. The augmenter is built only if a ref is left to build."""
    built = sum(ref not in corpus_dir.reports for ref in refs)
    augment = _build_augmenter(corpus_dir, structured_path, args).augment if built else None
    before = COUNTS.copy()
    write_reports(path, refs, augment, corpus_dir.reports)
    counts = COUNTS - before
    log.info("%s reports: %d built, %d copied", name, built, len(refs) - built)
    log.info("%s reports: substitute ranking %d cache hits, %d misses", name,
             counts["substitute_hits"], counts["substitute_misses"])
    log.info("%s reports: %d paraphrase service fallbacks", name, counts["paraphrase_fallbacks"])


def stage_augment(corpus_dir: CorpusDir, structured_path: Path, args, out_path: Path,
                  rep_out: Path | None, reports_out: Path | None) -> None:
    d_ori = corpus_dir.d_ori()
    sampler = corpus_dir.corpus.negative_sampler()
    d_aug = generate_augmented_set(d_ori, args.factor, sampler, args.seed)
    refs = referenced_refs(d_aug)  # refuses a malformed bug_ref before anything is written
    write_dataset(out_path, d_aug)
    log.info("|D_aug|=%d (factor %d over |D_ori|=%d)", len(d_aug), args.factor, len(d_ori))
    if reports_out is not None:
        _write_reports(reports_out, d_aug.name, refs, corpus_dir, structured_path, args)
    if rep_out is not None:
        d_rep = generate_repeated_set(d_ori, args.factor, sampler, args.seed)
        write_dataset(rep_out, d_rep)
        log.info("|D_rep|=%d", len(d_rep))


def stage_balance(corpus_dir: CorpusDir, structured_path: Path, train_path: Path, args,
                  out_path: Path, reports_out: Path | None) -> None:
    d_train = load_dataset(train_path, "D_train")
    sampler = corpus_dir.corpus.negative_sampler()
    d_bl = balance_dataset(d_train, args.alpha, args.omega, sampler, args.seed)
    refs = referenced_refs(d_bl)
    write_dataset(out_path, d_bl)
    log.info("|D_bl|=%d (alpha=%s omega=%s)", len(d_bl), args.alpha, args.omega)
    if reports_out is not None:
        _write_reports(reports_out, d_bl.name, refs, corpus_dir, structured_path, args)


def stage_stats(dataset_paths: dict[str, Path], top_k: int, out_path: Path,
                csv_path: Path | None) -> None:
    payload = {}
    for name, path in sorted(dataset_paths.items()):
        payload[name] = file_distribution_report(path, name).to_dict(top_k)
    _write_json(out_path, payload)
    if csv_path is not None:
        import csv  # only --csv needs it

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
    index = index_hunks(corpus_dir.hunks, corpus_dir.log_messages())
    texts = {bug.id: bug.text for bug in load_bugs(bugs_path)}
    # bugs in id order, ranked on every CPU against the one index built here;
    # rank is looked up when a shard calls it, so a wrapper over cli.rank runs
    write_sharded(out_path, sorted(texts.items()),
                  lambda bug: run_lines(bug[0], rank(bug[1], index, top_n)).encode("utf-8"),
                  "ranking")
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

    Options go by their argparse dest: "code_dict" for --code-dict. The
    subcommand takes the options of `inputs`, `paths` and `config`, and
    `summary` is its help line.
    `inputs`: the subcommand's options that name files the stage reads.
    `paths`: what each path option names in a pipeline run's directory (""
    is the directory, a tuple several files, None no file: the option is
    None); other options keep their value.
    `reads`: run-directory files and pipeline inputs (by option) that the
    outputs depend on; `writes`: the run-directory files it writes;
    `config`: the options its outputs depend on. `call` maps the options and
    a CorpusDir factory to the stage function's positional arguments."""

    name: str
    summary: str
    inputs: tuple[str, ...]
    paths: dict[str, str | tuple[str, ...] | None]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    config: tuple[str, ...]
    call: Callable[[argparse.Namespace, Callable[[Path], CorpusDir]], tuple]


# the options that name a dictionary file, each with the loader that parses it
_DICTIONARY_LOADERS = {"patterns": PatternDictionary.load, "substitutes": SubstituteDictionary.load,
                       "code_dict": load_code_name_dicts}
_OPTION_FILES = tuple(_DICTIONARY_LOADERS)
_AUGMENT_READS = ("d_ori.jsonl", "hunks.jsonl", "links.jsonl", "structured.jsonl", *_OPTION_FILES)
_AUGMENT_CONFIG = ("seed", "p_drop", "paraphraser", "service_url")
_DATASETS = ("d_ori.jsonl", "d_rep.jsonl", "d_aug.jsonl", "d_bl.jsonl")


def _by_stem(paths: Path | list[Path]) -> dict[str, Path]:
    """Datasets by name: the one --dataset file, or a pipeline run's four."""
    return {p.stem: p for p in ([paths] if isinstance(paths, Path) else paths)}


STAGES = (
    Stage("ingest", "parse inputs, build D_ori and the date split",
          ("bugs", "diffs", "links"), {"out": ""},
          reads=("bugs", "diffs", "links"),
          writes=("train_bugs.jsonl", "test_bugs.jsonl", "hunks.jsonl", "links.jsonl",
                  "changesets.jsonl", "d_ori.jsonl", "qrels.txt"),
          config=("seed",), call=lambda a, corpus: (a.bugs, a.diffs, a.links, a.seed, corpus(a.out))),
    Stage("extract", "decompose train bug reports into structured samples",
          ("corpus", "patterns"), {"corpus": "", "out": "structured.jsonl"},
          reads=("train_bugs.jsonl", "hunks.jsonl", "patterns"), writes=("structured.jsonl",),
          config=("lib_prefixes",),
          call=lambda a, corpus: (corpus(a.corpus), a.patterns,
                                  [p for p in a.lib_prefixes.split(",") if p], a.out)),
    Stage("augment", "generate D_aug (and optionally D_rep)",
          ("corpus", "structured", *_OPTION_FILES),
          {"corpus": "", "structured": "structured.jsonl", "out": "d_aug.jsonl",
           "rep_out": "d_rep.jsonl", "reports_out": "augmented_reports.jsonl"},
          reads=_AUGMENT_READS, writes=("d_aug.jsonl", "d_rep.jsonl", "augmented_reports.jsonl"),
          config=("factor", *_AUGMENT_CONFIG),
          call=lambda a, corpus: (corpus(a.corpus), a.structured, a, a.out, a.rep_out, a.reports_out)),
    Stage("balance", "build the balanced dataset D_bl",
          ("corpus", "structured", "train", *_OPTION_FILES),
          {"corpus": "", "structured": "structured.jsonl", "train": "d_ori.jsonl",
           "out": "d_bl.jsonl", "reports_out": "balance_reports.jsonl"},
          reads=_AUGMENT_READS, writes=("d_bl.jsonl", "balance_reports.jsonl"),
          config=("alpha", "omega", *_AUGMENT_CONFIG),
          call=lambda a, corpus: (corpus(a.corpus), a.structured, a.train, a, a.out, a.reports_out)),
    Stage("stats", "per-bug / per-class distribution report", ("dataset",),
          {"dataset": _DATASETS, "out": "stats.json", "csv": None},
          reads=_DATASETS, writes=("stats.json",), config=("top_k",),
          call=lambda a, corpus: (_by_stem(a.dataset), a.top_k, a.out, a.csv)),
    Stage("retrieve", "rank hunks for bug reports with the lexical baseline", ("index", "bugs"),
          {"index": "", "bugs": "test_bugs.jsonl", "out": "run.txt"},
          reads=("changesets.jsonl", "hunks.jsonl", "test_bugs.jsonl"), writes=("run.txt",),
          config=("top_n",), call=lambda a, corpus: (corpus(a.index), a.bugs, a.top_n, a.out)),
    Stage("eval", "score a run file against qrels", ("run", "qrels"),
          {"run": "run.txt", "qrels": "qrels.txt", "out": "metrics.json"},
          reads=("run.txt", "qrels.txt"), writes=("metrics.json",), config=("metrics",),
          call=lambda a, corpus: (a.run, a.qrels, parse_metric_names(a.metrics.split(",")), a.out)),
)

# a pipeline run's input options: the reads that no stage writes
_PIPELINE_INPUTS = tuple(dict.fromkeys(
    name for stage in STAGES for name in stage.reads if all(name not in s.writes for s in STAGES)))
_PIPELINE_CONFIG = tuple(dict.fromkeys(name for stage in STAGES for name in stage.config))
# the last stage that reads the parsed corpus: a pipeline run drops its CorpusDir after it
_LAST_CORPUS_READER = [s.name for s in STAGES if {"hunks.jsonl", "links.jsonl"} & set(s.reads)][-1]


def run_stage(stage: Stage, args, corpus: Callable[[Path], CorpusDir], run_dir: Path | None = None):
    """Run stage with args; given run_dir, with its path options naming files
    there. stage_<name> is looked up now, not at import, so a replaced stage
    function (a test stub, a benchmark's tracing wrapper) is the one called."""
    if run_dir is not None:
        args = argparse.Namespace(**{**vars(args), **{
            option: None if name is None else run_dir / name if isinstance(name, str)
            else [run_dir / n for n in name]
            for option, name in stage.paths.items()}})
    globals()[f"stage_{stage.name}"](*stage.call(args, corpus))


def _check_usage(parser: argparse.ArgumentParser, args, options) -> None:
    """Exit 2 with the subcommand's usage, before any stage runs, if a file one
    of options names is missing or is a dictionary its loader refuses, a
    service paraphraser has no URL or a metric is unknown. An option is named
    by its flag, as typed."""
    for option in options:
        path = getattr(args, option)
        if path is None:
            continue
        flag = _flag(option)
        if not Path(path).exists():
            parser.error(f"{flag}: path does not exist: {path}")
        if option in _DICTIONARY_LOADERS:
            try:
                _DICTIONARY_LOADERS[option](path)
            except (OSError, ValueError) as exc:
                parser.error(f"{flag}: {path}: {exc}")
    if getattr(args, "paraphraser", None) == "service" and not args.service_url:
        parser.error("--paraphraser service requires --service-url")
    if hasattr(args, "metrics"):
        try:
            parse_metric_names(args.metrics.split(","))
        except ValueError as exc:
            parser.error(f"--metrics: {exc}")


# --- manifest and resume ------------------------------------------------------


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digest_files(paths: list[Path]) -> dict[str, str]:
    return {p.name: _sha256(p) for p in paths if p.is_file()}


def _digest_tree(path: Path) -> dict[str, str]:
    """The digest of each file in directory path (a symlink to a file
    included), by name, or of the file path."""
    if not path.is_dir():
        return _digest_files([path])
    with os.scandir(path) as entries:
        files = sorted((entry.name, entry.path) for entry in entries if entry.is_file())
    return {name: _sha256(file) for name, file in files}


def _pipeline_manifest(args) -> dict:
    """Everything that determines the pipeline's artifacts, before any stage
    runs."""
    return {
        "tool": "bugaug",
        "version": __version__,
        "seed": args.seed,
        "config": {k: getattr(args, k) for k in _PIPELINE_CONFIG if k != "seed"},
        "inputs": {name: _digest_tree(Path(getattr(args, name)))
                   for name in _PIPELINE_INPUTS if getattr(args, name)},
        "stages": {},
        "keys": {},
    }


def _stage_key(stage: Stage, manifest: dict, args, digests: dict) -> str:
    """SHA-256 of the tool, the version, the stage's config values and the
    digests of what it reads (None for an option file not given). Only the
    service paraphraser reads --service-url, so only it keys on the URL."""
    config = {k: getattr(args, k) for k in stage.config}
    if "service_url" in config and args.paraphraser != "service":
        config["service_url"] = None
    payload = [manifest["tool"], manifest["version"], config,
               {name: digests.get(name) for name in stage.reads}]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


# --- command handlers -------------------------------------------------------


def cmd_fixture(args, parser) -> int:
    from .fixtures import generate_corpus  # only this command needs it

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
    _check_usage(parser, args, _PIPELINE_INPUTS)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest = _pipeline_manifest(args)
    try:
        previous = {} if args.force else json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError):
        previous = {}
    # a manifest of another shape reads as none, as one cut short does
    if not (isinstance(previous, dict)
            and all(isinstance(previous.get(k, {}), dict) for k in ("keys", "stages"))):
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
        if stage.name == _LAST_CORPUS_READER:
            corpus.cache_clear()
        digests.update(written)
        manifest["stages"][stage.name] = written
        manifest["keys"][stage.name] = key
        _write_json(manifest_path, manifest)
    print(f"pipeline complete; artifacts in {out}")
    return 0


# --- parser -----------------------------------------------------------------


def _checked(convert: Callable[[str], float], accepts: Callable[[float], bool], expected: str):
    """An argparse type: convert(text), refused unless convert succeeds and
    accepts its value."""
    def parse(text: str):
        try:
            value = convert(text)
            if accepts(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


# a count; a cap multiplier; a probability (nan fails every comparison)
_at_least_one = _checked(int, lambda value: value >= 1, "an integer of at least 1")
_positive = _checked(float, lambda value: 0 < value < math.inf, "a finite number > 0")
_probability = _checked(float, lambda value: 0 <= value <= 1, "a number in [0, 1]")

# every stage and pipeline option, by dest: its argparse keywords; one with
# no default is required
_OPTIONS: dict[str, dict] = {
    "bugs": dict(type=Path, help="bug reports JSON-lines"),
    "diffs": dict(type=Path, help="directory of .diff files + changesets.jsonl"),
    "links": dict(type=Path, help="bug/changeset link records JSON-lines"),
    "corpus": dict(type=Path, help="ingest output directory"),
    "structured": dict(type=Path),
    "train": dict(type=Path, help="training dataset JSON-lines (e.g. d_ori.jsonl)"),
    "dataset": dict(type=Path),
    "index": dict(type=Path, help="corpus directory with hunks.jsonl"),
    "run": dict(type=Path),
    "qrels": dict(type=Path),
    "patterns": dict(default=None, help="pattern dictionary JSON (default: bundled)"),
    "substitutes": dict(default=None, help="substitute dictionary JSON (default: bundled)"),
    "code_dict": dict(default=None, help="JSON map bug_id -> [code names], overrides mining"),
    "out": dict(type=Path, help="output file (a directory for ingest and pipeline)"),
    "rep_out": dict(type=Path, default=None),
    "reports_out": dict(type=Path, default=None),
    "csv": dict(type=Path, default=None),
    "seed": dict(type=int, default=42),
    "lib_prefixes": dict(default=",".join(DEFAULT_LIBRARY_PREFIXES)),
    "factor": dict(type=_at_least_one, default=10),
    "p_drop": dict(type=_probability, default=0.5),
    "paraphraser": dict(choices=("identity", "shuffle", "service"), default="identity"),
    "service_url": dict(default=None),
    "alpha": dict(type=_positive, default=0.7),
    "omega": dict(type=_positive, default=1.0),
    "top_k": dict(type=_at_least_one, default=10),
    "top_n": dict(type=_at_least_one, default=100),
    "metrics": dict(default="mrr,map,p@1,p@3,p@5"),
    "force": dict(action="store_true", default=False,
                  help="recompute every stage, even one whose outputs match the manifest"),
}


def _flag(option: str) -> str:
    return f"--{option.replace('_', '-')}"


def _add_command(subparsers, name: str, summary: str, options,
                 handler=cmd_stage) -> argparse.ArgumentParser:
    """A subcommand taking options (dests, as declared in _OPTIONS), whose
    handler reports usage errors through its own parser."""
    sub = subparsers.add_parser(name, help=summary)
    for option in dict.fromkeys(options):
        spec = _OPTIONS[option]
        sub.add_argument(_flag(option), dest=option, required="default" not in spec, **spec)
    sub.set_defaults(func=lambda args: handler(args, sub))
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bugaug",
        description="Data augmentation and balancing for bug-localization training sets.",
    )
    parser.add_argument("--version", action="version", version=f"bugaug {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="verbose logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = _add_command(subparsers, "fixture", "generate a synthetic demo corpus", ("out",), cmd_fixture)
    sub.add_argument("--bugs", type=int, default=50)
    sub.add_argument("--seed", type=int, default=7)
    for stage in STAGES:
        _add_command(subparsers, stage.name, stage.summary, (*stage.inputs, *stage.paths, *stage.config))
    _add_command(subparsers, "pipeline", "run every stage into one output directory",
                 (*_PIPELINE_INPUTS, "out", *_PIPELINE_CONFIG, "force"), cmd_pipeline)
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
