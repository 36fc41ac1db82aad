"""Output checks, digests and evidence recall for one workload iteration."""

from __future__ import annotations

import glob
import hashlib
import json
import os


class CheckError(Exception):
    """An output of the program is missing or wrong."""


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}") from exc


def check_outputs(out_dir: str, manifest: dict) -> None:
    """Raise CheckError unless predictions and report cover every claim
    and each predicted verdict equals the scripted label."""
    labels = manifest["labels"]
    preds = _load(os.path.join(out_dir, "predictions.json"))
    if not isinstance(preds, list):
        raise CheckError("predictions.json is not a JSON array")
    by_id = {}
    for record in preds:
        if not isinstance(record, dict) or "claim_id" not in record:
            raise CheckError("predictions.json has a record without claim_id")
        by_id[str(record["claim_id"])] = record
    if len(by_id) != len(preds) or set(by_id) != set(labels):
        raise CheckError(
            f"predictions cover claims {sorted(by_id)}, expected {sorted(labels)}"
        )
    wrong = [cid for cid, label in labels.items() if by_id[cid].get("verdict") != label]
    if wrong:
        raise CheckError(f"verdict differs from the scripted label for claims {sorted(wrong)}")

    report = _load(os.path.join(out_dir, "report.json"))
    per_claim = report.get("per_claim") if isinstance(report, dict) else None
    if not isinstance(per_claim, list):
        raise CheckError("report.json has no per_claim list")
    covered = {str(c.get("claim_id")) for c in per_claim if isinstance(c, dict)}
    if covered != set(labels) or len(per_claim) != len(labels):
        raise CheckError(f"report.json covers claims {sorted(covered)}, expected {sorted(labels)}")
    if report.get("accuracy") != 1.0:
        raise CheckError(f"report.json accuracy is {report.get('accuracy')}, expected 1.0")


def digests(out_dir: str, trace_dir: str | None = None) -> dict[str, str]:
    """sha256 of predictions.json, report.json and all trace_*.json files."""

    def sha(paths):
        h = hashlib.sha256()
        for path in paths:
            h.update(os.path.basename(path).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    out = {
        "predictions.json": sha([os.path.join(out_dir, "predictions.json")]),
        "report.json": sha([os.path.join(out_dir, "report.json")]),
    }
    traces = sorted(glob.glob(os.path.join(trace_dir or out_dir, "trace_*.json")))
    if traces:
        out["trace_*.json"] = sha(traces)
    return out


def evidence_recall(predictions_path: str, manifest: dict) -> float:
    """Share of the planted evidence documents cited as source_url."""
    preds = _load(predictions_path)
    planted = cited = 0
    for record in preds:
        urls = manifest["evidence"].get(str(record["claim_id"]), [])
        sources = {e.get("source_url") for e in record.get("evidence", [])}
        planted += len(urls)
        cited += sum(1 for url in urls if url in sources)
    return cited / planted if planted else 0.0
