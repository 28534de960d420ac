"""Traced pipeline run and the per-layer metrics derived from its spans.

Run as a program, this module wraps the calls into each bugaug module's
public functions, runs ``bugaug pipeline`` in-process and writes the recorded
spans and counters to a JSON file once, when the run ends:

    PYTHONPATH=src python3 perfbench/tracing.py TRACE.json pipeline --bugs ...

A name is wrapped where its caller looks it up: ``bugaug.cli`` does
``from .retrieval import rank``, so ``bugaug.cli.rank`` is patched, not
``bugaug.retrieval.rank``. ``levenshtein`` is deliberately not wrapped: it
runs about a million times per pipeline run and a span around it would
swamp what it measures. Untraced runs never import this module, so they run
bugaug unpatched.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
from time import perf_counter

from checks import STAGES


class Recorder:
    """In-memory spans (name, start, end, parent index) plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._topk_keys: set = set()
        self._report_keys: set = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_return=None):
        """fn wrapped in a span; on_return(args, kwargs, result) records counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn):
        """fn with a call counter and no span, for calls too cheap to time."""

        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        from bugaug import builder, cli, code_ops, corpus, nl_ops

        for stage in STAGES:
            fn_name = f"stage_{stage}"
            setattr(cli, fn_name, self.wrap(f"cli.{stage}", getattr(cli, fn_name),
                                            self._stage_rss(stage)))
        cli.load_hunks_jsonl = self.counted("cli.hunks_loads", cli.load_hunks_jsonl)
        cli.ingest_corpus = self.wrap("corpus.ingest", cli.ingest_corpus)
        corpus.parse_unified_diff = self.wrap(
            "diffs.parse", corpus.parse_unified_diff,
            lambda a, k, hunks: self.count("diffs.hunks_parsed", len(hunks)))
        corpus.NegativeSampler.draw = self.counted("corpus.negatives_drawn",
                                                   corpus.NegativeSampler.draw)
        cli.structure_bug_report = self.wrap("extract.structure", cli.structure_bug_report)
        cli.balance_dataset = self.wrap(
            "balance.balance_dataset", cli.balance_dataset,
            lambda a, k, d_bl: self.count(
                "balance.additions", len(d_bl.positives()) - len(a[0].positives())))
        cli.index_hunks = self.wrap(
            "retrieval.index", cli.index_hunks,
            lambda a, k, index: self.count("retrieval.index_docs", len(index)))
        cli.rank = self.wrap("retrieval.rank", cli.rank)
        cli.compute_metrics = self.wrap("metrics.eval", cli.compute_metrics)
        cli.per_bug_scores = self.wrap("metrics.eval", cli.per_bug_scores)
        cli.write_jsonl = self.wrap(
            "model.write_jsonl", cli.write_jsonl,
            lambda a, k, _: self.count("model.artifact_bytes", os.path.getsize(a[0])))

        paraphrase = "nl_ops.paraphrase"
        cli.identity_paraphraser = self.wrap(paraphrase, cli.identity_paraphraser)
        for factory_name in ("make_shuffle_paraphraser", "make_service_paraphraser"):
            factory = getattr(cli, factory_name)
            setattr(cli, factory_name,
                    lambda *a, _factory=factory, **k: self.wrap(paraphrase, _factory(*a, **k)))
        builder.augment_paragraph = self.wrap(
            "nl_ops.paragraph", builder.augment_paragraph,
            lambda a, k, result: self.count("nl_ops.qc_rejected", int(result is nl_ops.REJECTED)))
        nl_ops.QualityControl.retokenize = self.wrap("nl_ops.retokenize",
                                                     nl_ops.QualityControl.retokenize)
        builder.augment_code_sample = self.wrap("code_ops.sample", builder.augment_code_sample)
        builder.ReportAugmenter.augment = self.wrap(
            "builder.report", builder.ReportAugmenter.augment,
            lambda a, k, _: self._report_keys.add((a[1], a[2])))
        code_ops.top_k_substitutes = self.wrap(
            "code_ops.topk", code_ops.top_k_substitutes,
            lambda a, k, _: self._topk_keys.add((a[0], tuple(a[1]), a[2])))

    def _stage_rss(self, stage: str):
        def after(args, kwargs, result):
            self.counters[f"cli.{stage}_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        return after

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters["code_ops.topk_distinct_keys"] = len(self._topk_keys)
        counters["builder.reports_distinct"] = len(self._report_keys)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


# --- per-layer metrics -------------------------------------------------------


def _percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, keyed by metric name."""
    spans, counters = trace["spans"], trace["counters"]
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"cli.{stage}_s"] = total(f"cli.{stage}")
        out[f"cli.{stage}_rss_mb"] = counters[f"cli.{stage}_rss_kb"] / 1024.0
    out["cli.other_s"] = total("cli.main") - sum(out[f"cli.{s}_s"] for s in STAGES)
    out["cli.hunks_loads"] = counters.get("cli.hunks_loads", 0)

    out["corpus.ingest_s"] = total("corpus.ingest")
    out["corpus.negatives_drawn"] = counters.get("corpus.negatives_drawn", 0)
    out["diffs.parse_s"] = total("diffs.parse")
    out["diffs.hunks_parsed"] = counters.get("diffs.hunks_parsed", 0)
    out["extract.structure_s"] = total("extract.structure")
    out["extract.reports"] = calls("extract.structure")

    paragraphs = calls("nl_ops.paragraph")
    attempts = calls("nl_ops.retokenize")
    rejected = counters.get("nl_ops.qc_rejected", 0)
    out["nl_ops.paragraph_calls"] = paragraphs
    out["nl_ops.paragraph_s"] = total("nl_ops.paragraph")
    out["nl_ops.qc_attempts"] = attempts
    out["nl_ops.qc_rejected"] = rejected
    out["nl_ops.qc_accept_ratio"] = (paragraphs - rejected) / attempts if attempts else 1.0
    out["nl_ops.paraphrase_calls"] = calls("nl_ops.paraphrase")
    out["nl_ops.paraphrase_s"] = total("nl_ops.paraphrase")

    topk_calls = calls("code_ops.topk")
    topk_keys = counters["code_ops.topk_distinct_keys"]
    out["code_ops.sample_calls"] = calls("code_ops.sample")
    out["code_ops.sample_s"] = total("code_ops.sample")
    out["code_ops.topk_calls"] = topk_calls
    out["code_ops.topk_s"] = total("code_ops.topk")
    out["code_ops.topk_distinct_keys"] = topk_keys
    out["code_ops.topk_repeat_ratio"] = 1.0 - topk_keys / topk_calls if topk_calls else 0.0

    reports = durations.get("builder.report", [])
    distinct = counters["builder.reports_distinct"]
    out["builder.reports_built"] = len(reports)
    out["builder.reports_distinct"] = distinct
    out["builder.duplicate_report_ratio"] = 1.0 - distinct / len(reports) if reports else 0.0
    out["builder.report_s"] = sum(reports)
    out["builder.report_p50_ms"] = _percentile_ms(reports, 0.50) if reports else 0.0
    out["builder.report_p99_ms"] = _percentile_ms(reports, 0.99) if reports else 0.0

    out["balance.self_s"] = sum(
        (end - start) - child_time[i]
        for i, (name, start, end, _) in enumerate(spans)
        if name == "balance.balance_dataset"
    )
    out["balance.additions"] = counters.get("balance.additions", 0)

    ranks = durations.get("retrieval.rank", [])
    out["retrieval.index_s"] = total("retrieval.index")
    out["retrieval.index_docs"] = counters.get("retrieval.index_docs", 0)
    out["retrieval.rank_calls"] = len(ranks)
    out["retrieval.rank_s"] = sum(ranks)
    out["retrieval.rank_p50_ms"] = _percentile_ms(ranks, 0.50) if ranks else 0.0
    out["retrieval.rank_p90_ms"] = _percentile_ms(ranks, 0.90) if ranks else 0.0

    out["metrics.eval_s"] = total("metrics.eval")
    out["model.write_jsonl_s"] = total("model.write_jsonl")
    out["model.artifact_bytes"] = counters.get("model.artifact_bytes", 0)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py TRACE_OUT pipeline [pipeline options]", file=sys.stderr)
        return 2
    trace_path, cli_argv = argv[0], argv[1:]
    from bugaug import cli

    recorder = Recorder()
    recorder.install()
    code = recorder.wrap("cli.main", cli.main)(cli_argv)
    recorder.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
