"""Output checks made on every benchmark run of ``bugaug pipeline``.

Each check returns ``(name, ok, detail)``. A run with any failed check counts
as failed. The caps are recomputed here from ``d_ori.jsonl`` rather than read
from the program, so a wrong cap in the program shows as a failed check.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

STAGES = ("ingest", "extract", "augment", "balance", "stats", "retrieve", "eval")
CHECKS = ("stages_ran", "d_aug_size", "d_rep_size", "d_bl_caps", "metrics_range", "digest_stable")


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cap(factor: float, maximum: int) -> int:
    return math.ceil(Fraction(str(factor)) * maximum)


def _positive_counts(samples: list[dict], key: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in samples:
        if s["label"] == "positive":
            counts[s[key]] = counts.get(s[key], 0) + 1
    return counts


def _check_stages(out: Path, log_text: str) -> tuple[bool, str]:
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return False, "no manifest.json"
    stages = json.loads(manifest_path.read_text("utf-8")).get("stages", {})
    if tuple(sorted(stages)) != tuple(sorted(STAGES)):
        return False, f"manifest stages {sorted(stages)}"
    if "skipping" in log_text:
        return False, "a stage was skipped by resume"
    return True, "7 stages"


def _check_d_bl(d_ori: list[dict], d_bl: list[dict], alpha: float, omega: float) -> tuple[bool, str]:
    """D_bl is D_ori copied as-is plus (positive, negative) pairs; every bug and
    class that received an addition ends at most at its cap."""
    if d_bl[: len(d_ori)] != d_ori:
        return False, "D_bl does not start with D_ori"
    additions = d_bl[len(d_ori):]
    if len(additions) % 2:
        return False, "odd number of added samples"
    for pos, neg in zip(additions[::2], additions[1::2]):
        if (pos["label"], neg["label"]) != ("positive", "negative") or pos["bug_ref"] != neg["bug_ref"]:
            return False, f"addition {pos['bug_ref']} is not a positive/negative pair"
    cap_br = _cap(alpha, max(_positive_counts(d_ori, "origin_bug_id").values()))
    cap_cl = _cap(omega, max(_positive_counts(d_ori, "class_name").values()))
    bug_counts = _positive_counts(d_bl, "origin_bug_id")
    class_counts = _positive_counts(d_bl, "class_name")
    added = additions[::2]
    over_br = sorted({p["origin_bug_id"] for p in added if bug_counts[p["origin_bug_id"]] > cap_br})
    over_cl = sorted({p["class_name"] for p in added if class_counts[p["class_name"]] > cap_cl})
    if over_br or over_cl:
        return False, f"over cap: bugs {over_br[:3]} (cap {cap_br}), classes {over_cl[:3]} (cap {cap_cl})"
    return True, f"{len(added)} additions, caps {cap_br}/{cap_cl}"


def _check_metrics(out: Path) -> tuple[bool, str]:
    payload = json.loads((out / "metrics.json").read_text("utf-8"))
    values = list(payload["metrics"].values())
    values += [v for scores in payload["per_bug"].values() for v in scores.values()]
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    return not bad, f"{len(values)} values" if not bad else f"out of [0,1]: {bad[:3]}"


def check_run(out: Path, log_text: str, factor: int, alpha: float, omega: float):
    """Checks of one run's output directory, without the cross-run digest
    check, and the number of training samples written (|D_aug|+|D_rep|+|D_bl|)."""
    results = [("stages_ran", *_check_stages(out, log_text))]
    d_ori = _records(out / "d_ori.jsonl")
    d_bl = _records(out / "d_bl.jsonl")
    n_ori = len(d_ori)
    n_aug = len(_records(out / "d_aug.jsonl"))
    n_rep = len(_records(out / "d_rep.jsonl"))
    results.append(("d_aug_size", n_ori > 0 and n_aug == (1 + factor) * n_ori,
                    f"|D_aug|={n_aug}, |D_ori|={n_ori}"))
    results.append(("d_rep_size", n_ori > 0 and n_rep == factor * n_ori,
                    f"|D_rep|={n_rep}, |D_ori|={n_ori}"))
    results.append(("d_bl_caps", *_check_d_bl(d_ori, d_bl, alpha, omega)))
    results.append(("metrics_range", *_check_metrics(out)))
    return results, n_aug + n_rep + len(d_bl)


def stage_digest(out: Path) -> str:
    """One digest over the manifest's per-stage artifact digests."""
    stages = json.loads((out / "manifest.json").read_text("utf-8"))["stages"]
    return hashlib.sha256(json.dumps(stages, sort_keys=True).encode("utf-8")).hexdigest()
