"""One contract for every reader of outside JSON records.

A record is a dataset element, a knowledge-store line (one file per
claim, or one combined file), an embedding-cache line or a verify
progress line. Each case writes a file whose first record is good and
whose second holds one fault. Reading it must raise a ValidationError
naming the file and where the bad record is, and the command that reads
it must exit 2. The faults here are the seed list for fuzzing these
readers.
"""

import json

import pytest

from claimcheck.appendlog import AppendLog
from claimcheck.cli import _load_progress
from claimcheck.corpus import load_dataset, load_knowledge_store
from claimcheck.dense import EmbeddingCache
from claimcheck.errors import ValidationError

from conftest import FIXTURES, run_cli

F64_ONE = "AAAAAAAA8D8="  # base64 of the float64 1.0

# faults that a line decoder rejects, the same for every kind
DECODE_FAULTS = {
    "not_utf8": b'{"url": "\xff"}',
    "not_json": b'{"url": ',
    "nested_too_deeply": b"[" * 50_000 + b"]" * 50_000,
    "not_an_object": b"[1]",
}


def _json(obj) -> bytes:
    return json.dumps(obj).encode()


# each kind: its good first record, and its faults in a record's fields
KINDS = {
    "dataset": (
        {"claim_id": 0, "claim": "A claim."},
        {
            "claim_id_true": {"claim_id": True, "claim": "A claim."},
            "missing_field": {"claim_id": 1},
        },
    ),
    "store_directory": (
        {"claim_id": 1, "url": "u", "url2text": ["Fine."]},
        # no field of a store line is required: a line without claim_id
        # is every claim's, and one without url2text is dropped as empty
        {"claim_id_true": {"claim_id": True, "url": "u", "url2text": ["Fine."]}},
    ),
    "store_combined": (
        {"claim_id": 1, "url": "u", "url2text": ["Fine."]},
        {"claim_id_true": {"claim_id": True, "url": "u", "url2text": ["Fine."]}},
    ),
    "cache": (
        {"key": "j", "dim": 1, "f64": F64_ONE},
        {
            "key_number": {"key": 5, "dim": 1, "f64": F64_ONE},
            "dim_true": {"key": "k", "dim": True, "f64": F64_ONE},
            "dim_fraction": {"key": "k", "dim": 1.9, "f64": F64_ONE},
            "dim_string": {"key": "k", "dim": "1", "f64": F64_ONE},
            "missing_field": {"dim": 1, "f64": F64_ONE},
        },
    ),
    "progress": (
        {"claim_id": 0, "status": "error", "error": "x"},
        {
            "claim_id_true": {"claim_id": True, "status": "ok", "record": {}},
            "claim_id_string": {"claim_id": "1", "status": "error", "error": "x"},
            "record_not_object": {"claim_id": 1, "status": "ok", "record": "junk"},
            "missing_field": {"status": "ok", "record": {}},
        },
    ),
}

CASES = [
    (kind, fault, bad)
    for kind, (_good, field_faults) in KINDS.items()
    for fault, bad in [*DECODE_FAULTS.items(),
                       *((name, _json(obj)) for name, obj in field_faults.items())]
]


def _write(tmp_path, kind, bad: bytes, decoder_rejects: bool):
    """Write a file holding kind's good record, then bad.

    Returns the file, what the reader is given, where the bad record is
    and the CLI arguments that read it.
    """
    good = _json(KINDS[kind][0])
    lines = good + b"\n" + bad + b"\n"
    if kind == "dataset":
        path = tmp_path / "dataset.json"
        path.write_bytes(b"[" + good + b",\n" + bad + b"]\n")
        return path, path, "element 1", ["ingest", "--dataset", str(path)]
    store_argv = ["ingest", "--dataset", str(FIXTURES / "dataset.json"), "--claims", "1"]
    if kind == "store_directory":
        store = tmp_path / "store"
        store.mkdir()
        path = store / "1.jsonl"
        path.write_bytes(lines)
        return path, store, "line 2", store_argv + ["--knowledge-store", str(store)]
    if kind == "store_combined":
        path = tmp_path / "store.jsonl"
        path.write_bytes(lines)
        # the offset index decodes every line, naming it by number; a line
        # it cannot place under a claim is read again, by its byte offset,
        # by every claim's load
        where = "line 2" if decoder_rejects else f"byte {len(good) + 1}"
        return path, path, where, store_argv + ["--knowledge-store", str(path)]
    if kind == "cache":
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        path = cache_dir / "emb_1.jsonl"
        path.write_bytes(lines)
        return path, path, "line 2", ["cache", "inspect", "--cache-dir", str(cache_dir)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    path = out_dir / "verify_progress.jsonl"
    path.write_bytes(lines)
    return path, path, "line 2", _verify_argv(out_dir)


def _verify_argv(out_dir):
    """verify's arguments, with a mock script that has no replies: any
    claim it runs fails."""
    (out_dir / "no_replies.json").write_text("{}")
    return [
        "verify", "--dataset", str(FIXTURES / "dataset.json"),
        "--knowledge-store", str(FIXTURES / "knowledge_store.jsonl"),
        "--train-set", str(FIXTURES / "train_set.json"),
        "--mock-script", str(out_dir / "no_replies.json"), "--output-dir", str(out_dir),
    ]


def _read(kind, target):
    if kind == "dataset":
        return load_dataset(target)
    if kind.startswith("store"):
        return load_knowledge_store(target, 1)
    if kind == "cache":
        return EmbeddingCache(str(target))
    return _load_progress(AppendLog(str(target)))


@pytest.mark.parametrize("kind,fault,bad", CASES, ids=[f"{k}-{f}" for k, f, _ in CASES])
def test_bad_record_named_by_reader_and_exits_2(tmp_path, capsys, kind, fault, bad):
    path, target, where, argv = _write(tmp_path, kind, bad, fault in DECODE_FAULTS)
    with pytest.raises(ValidationError) as exc:
        _read(kind, target)
    message = str(exc.value)
    if kind == "dataset" and fault in ("not_utf8", "not_json", "nested_too_deeply"):
        # the file does not parse as a whole, so there is no element to name
        what = "UTF-8" if fault == "not_utf8" else "JSON"
        assert message.startswith(f"dataset file is not valid {what}: {path}: ")
    else:
        assert message.startswith(f"{path}: {where}: ")
    assert run_cli(argv) == 2
    assert str(path) in capsys.readouterr().err


def test_progress_line_with_boolean_claim_id_writes_no_predictions(tmp_path, capsys):
    """true equals claim 1 as a dict key: read as an id, it would pass
    "junk" off as claim 1's finished record."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    progress = out_dir / "verify_progress.jsonl"
    progress.write_text(json.dumps({"claim_id": True, "status": "ok", "record": "junk"}) + "\n")
    assert run_cli(_verify_argv(out_dir)) == 2
    assert f"{progress}: line 1: bad progress entry: " in capsys.readouterr().err
    assert not (out_dir / "predictions.json").exists()
