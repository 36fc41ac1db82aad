"""Output validation rejects tampered outputs; digests track bytes."""

import json

import pytest

from checks import CheckError, check_outputs, digests, evidence_recall

LABELS = {"0": "Supported", "1": "Refuted"}
MANIFEST = {
    "labels": LABELS,
    "evidence": {"0": ["u0", "u1"], "1": ["u2", "u3"]},
}


def _write_outputs(out, preds=None, report=None):
    preds = preds if preds is not None else [
        {"claim_id": int(cid), "verdict": label,
         "evidence": [{"question": "q", "answer": "a", "source_url": f"u{2 * int(cid)}"}]}
        for cid, label in LABELS.items()
    ]
    report = report if report is not None else {
        "accuracy": 1.0,
        "per_claim": [{"claim_id": int(cid)} for cid in LABELS],
    }
    (out / "predictions.json").write_text(json.dumps(preds))
    (out / "report.json").write_text(json.dumps(report))
    return preds, report


def test_valid_outputs_pass(tmp_path):
    _write_outputs(tmp_path)
    check_outputs(str(tmp_path), MANIFEST)
    assert evidence_recall(str(tmp_path / "predictions.json"), MANIFEST) == 0.5


def test_tampered_verdict_is_rejected(tmp_path):
    preds, _ = _write_outputs(tmp_path)
    preds[1]["verdict"] = "Supported"
    (tmp_path / "predictions.json").write_text(json.dumps(preds))
    with pytest.raises(CheckError, match="scripted label"):
        check_outputs(str(tmp_path), MANIFEST)


def test_missing_claim_is_rejected(tmp_path):
    preds, _ = _write_outputs(tmp_path)
    (tmp_path / "predictions.json").write_text(json.dumps(preds[:1]))
    with pytest.raises(CheckError, match="cover claims"):
        check_outputs(str(tmp_path), MANIFEST)


def test_truncated_predictions_are_rejected(tmp_path):
    _write_outputs(tmp_path)
    text = (tmp_path / "predictions.json").read_text()
    (tmp_path / "predictions.json").write_text(text[: len(text) // 2])
    with pytest.raises(CheckError, match="predictions.json"):
        check_outputs(str(tmp_path), MANIFEST)


def test_report_missing_a_claim_is_rejected(tmp_path):
    _write_outputs(tmp_path, report={"accuracy": 1.0, "per_claim": [{"claim_id": 0}]})
    with pytest.raises(CheckError, match="report.json covers"):
        check_outputs(str(tmp_path), MANIFEST)


def test_digest_changes_with_one_byte(tmp_path):
    _write_outputs(tmp_path)
    (tmp_path / "trace_0.json").write_text("{}")
    before = digests(str(tmp_path))
    assert set(before) == {"predictions.json", "report.json", "trace_*.json"}
    assert digests(str(tmp_path)) == before
    (tmp_path / "trace_0.json").write_text("{ }")
    after = digests(str(tmp_path))
    assert after["trace_*.json"] != before["trace_*.json"]
    assert after["predictions.json"] == before["predictions.json"]
