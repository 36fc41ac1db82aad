"""One contract for every reader of outside JSON records.

A record is a dataset element, a knowledge-store line (one file per
claim, or one combined file), an embedding-cache batch or a verify
progress line. Each case writes a file whose first record is good and
whose second holds one fault. Reading it must raise a ValidationError
naming the file and where the bad record is, and the command that reads
it must exit 2. The faults here are the seed list for fuzzing these
readers.
"""

import builtins
import hashlib
import json
import math
import os
import struct
from pathlib import Path
from unittest import mock

import pytest

import claimcheck.corpus as corpus
import claimcheck.retriever as retriever
from claimcheck.appendlog import AppendLog
from claimcheck.cli import _load_progress
from claimcheck.corpus import Claim, load_dataset, load_knowledge_store
from claimcheck.dense import EmbeddingCache, EmbeddingProviderConfig
from claimcheck.errors import ValidationError
from claimcheck.retriever import RetrievalConfig, pool_key, read_pool

from conftest import F64_ONE, FIXTURES, cache_batch, run_cli

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

# an embedding cache's records are batches: a header line, then a
# payload of float64 vectors (see cache_batch)
CACHE_GOOD = cache_batch(keys=["j"])
CACHE_FAULTS = {
    "key_number": cache_batch(keys=[5]),
    "keys_not_array": cache_batch(keys="k"),
    "dim_true": cache_batch(dim=True),
    "dim_fraction": cache_batch(dim=1.9),
    "dim_string": cache_batch(dim="1"),
    "missing_field": cache_batch(drop=("payload_sha256",)),
    "payload_bytes_not_8_dim_keys": cache_batch(payload=F64_ONE * 2),
    # a complete batch, not the last one, whose payload fails its checksum
    "payload_checksum": cache_batch(payload_sha256=hashlib.sha256(b"other").hexdigest())
    + cache_batch(keys=["later"]),
}

CASES = [
    *((kind, fault, bad + b"\n")
      for kind in [*KINDS, "cache"]
      for fault, bad in DECODE_FAULTS.items()),
    *((kind, fault, _json(obj) + b"\n")
      for kind, (_good, field_faults) in KINDS.items()
      for fault, obj in field_faults.items()),
    *(("cache", fault, bad) for fault, bad in CACHE_FAULTS.items()),
]


def _write(tmp_path, kind, bad: bytes, decoder_rejects: bool):
    """Write a file holding kind's good record, then bad, which ends with
    its newline or payload.

    Returns the file, what the reader is given, where the bad record is
    and the CLI arguments that read it.
    """
    if kind == "cache":
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        path = cache_dir / "emb_1.cache"
        path.write_bytes(CACHE_GOOD + bad)
        return path, path, "batch 2", ["cache", "inspect", "--cache-dir", str(cache_dir)]
    good = _json(KINDS[kind][0])
    lines = good + b"\n" + bad
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


# Derived files (corpus.read_derived): a cache dir's combined-store index
# and kept KNN pools only save time. A fault in one is ignored: the reader
# parses the JSON lines, or retrieves the claim in full, instead and
# writes the file again. It must never fail a command.


def _split_derived(path):
    header, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(header), payload


def _rewrite_derived(path, header, payload):
    """path holding header and payload, with a checksum that matches."""
    header = dict(header, payload_sha256=hashlib.sha256(payload).hexdigest())
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def _replace_header(raw: bytes):
    def fault(path):
        path.write_bytes(raw + b"\n" + _split_derived(path)[1])
    return fault


def _truncate_header(path):
    data = path.read_bytes()
    path.write_bytes(data[: data.index(b"\n") // 2])


def _flip_payload_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def _short_payload(path):
    header, payload = _split_derived(path)
    _rewrite_derived(path, header, payload[:-8])


def _edit_derived(payload=lambda header, payload: payload, **fields):
    """A fault that edits the payload, then the header's fields, and
    writes them with a checksum that matches."""
    def fault(path):
        header, data = _split_derived(path)
        _rewrite_derived(path, {**header, **{k: f(header[k]) for k, f in fields.items()}},
                         payload(header, data))
    return fault


STORE = FIXTURES / "knowledge_store.jsonl"


def _pool_key(claim_text=None, omega=None, file_id=None, version=None):
    """The key of claim 1's pool under the default settings, or under the
    inputs given instead."""
    claim = load_dataset(str(FIXTURES / "dataset.json"))[1]
    claim = Claim(id=claim.id, text=claim_text or claim.text)
    cfg = RetrievalConfig(omega=omega or RetrievalConfig().omega)
    with mock.patch.object(retriever, "POOL_VERSION", version or retriever.POOL_VERSION):
        return pool_key(claim, file_id or corpus.store_file_id(str(STORE), 1), cfg,
                        EmbeddingProviderConfig())


def _other_key(**inputs):
    """A fault giving claim 1's pool the key of other inputs."""
    return _edit_derived(key=lambda _: _pool_key(**inputs))


def _other_store_state(file_id):
    resolved, dev, ino, size, mtime_ns = file_id
    return (resolved, dev, ino, size + 1, mtime_ns + 1)


def _line_offset(claim_id: int) -> int:
    """The byte offset of claim_id's first line in the fixture store."""
    offset = 0
    for raw in STORE.read_bytes().splitlines(keepends=True):
        if json.loads(raw).get("claim_id") == claim_id:
            return offset
        offset += len(raw)
    raise AssertionError(f"no line of claim {claim_id}")


def _set_first_entry(entry):
    """A pool whose first entry is entry(that entry)."""
    return _edit_derived(entries=lambda entries: [entry(entries[0])] + entries[1:])


def _first_sim(sim: float):
    """A pool's payload (little-endian float64 sims) whose first sim is sim."""
    return lambda header, data: struct.pack("<d", sim) + data[8:]


HEADER_FAULTS = {
    "header_truncated": _truncate_header,
    "header_not_an_object": _replace_header(b"[1]"),
    "header_nested_too_deeply": _replace_header(b"[" * 50_000 + b"]" * 50_000),
    "payload_checksum": _flip_payload_byte,
    "payload_length": _short_payload,
}
DERIVED_CASES = [
    *((kind, name, fault) for kind in ("index", "pool") for name, fault in HEADER_FAULTS.items()),
    ("index", "stale_file_key", _edit_derived(file_key=lambda key: key[:3] + [key[3] + 1])),
    ("index", "of_another_store", _edit_derived(store=lambda path: path + ".old")),
    ("pool", "of_another_claim_text", _other_key(claim_text="another claim")),
    ("pool", "of_another_omega", _other_key(omega=RetrievalConfig().omega - 1)),
    ("pool", "of_another_store_state", _other_key(
        file_id=_other_store_state(corpus.store_file_id(str(STORE), 1)))),
    ("pool", "of_another_version", _other_key(version=retriever.POOL_VERSION + 1)),
    ("pool", "count_disagrees", _edit_derived(pruned_count=lambda n: n - 1)),
    ("pool", "payload_not_whole_sims", _edit_derived(lambda header, data: data[:-1])),
    ("pool", "offset_past_store", _set_first_entry(lambda e: [STORE.stat().st_size + 100, e[1]])),
    ("pool", "offset_negative", _set_first_entry(lambda e: [-1, e[1]])),
    ("pool", "entry_repeated", _edit_derived(entries=lambda entries: [entries[0]] * len(entries))),
    ("pool", "offset_mid_line", _set_first_entry(lambda e: [e[0] + 1, e[1]])),
    ("pool", "offset_of_another_claim", _set_first_entry(lambda e: [_line_offset(0), e[1]])),
    ("pool", "chunk_past_document", _set_first_entry(lambda e: [e[0], e[1] + 1])),
    ("pool", "entry_repeated_at_end", _edit_derived(
        lambda header, data: data + data[:8], entries=lambda entries: entries + entries[:1])),
    ("pool", "sim_not_a_number", _edit_derived(_first_sim(math.nan))),
    ("pool", "sim_infinite", _edit_derived(_first_sim(math.inf))),
    ("pool", "payload_extra_sim", _edit_derived(lambda header, data: data + data[:8])),
]


def _verify_cached(monkeypatch, tmp_path, cache_dir, out_name, echo_script_path):
    """verify over the fixtures, through cache_dir, in a new process's
    state: no store index in memory. Returns (exit code, predictions)."""
    monkeypatch.setattr(corpus, "_store_indexes", {})
    out_dir = tmp_path / out_name
    code = run_cli([
        "verify", "--dataset", str(FIXTURES / "dataset.json"),
        "--knowledge-store", str(STORE),
        "--train-set", str(FIXTURES / "train_set.json"),
        "--mock-script", str(echo_script_path), "--cache-dir", str(cache_dir),
        "--output-dir", str(out_dir),
    ])
    predictions = out_dir / "predictions.json"
    return code, predictions.read_bytes() if predictions.exists() else None


def _caches_only(cache_dir, copy):
    copy.mkdir()
    for path in cache_dir.glob("emb_*.cache"):
        (copy / path.name).write_bytes(path.read_bytes())
    return copy


@pytest.fixture
def warm_cache(monkeypatch, tmp_path, echo_script_path):
    """A cache dir after a verify run, which writes the caches and the
    store index."""
    cache_dir = tmp_path / "cache"
    code, _ = _verify_cached(monkeypatch, tmp_path, cache_dir, "cold", echo_script_path)
    assert code == 0
    return cache_dir


def _store_index_file(cache_dir):
    return Path(corpus.store_index_path(str(cache_dir), os.path.realpath(STORE)))


def _index_serves(monkeypatch, cache_dir) -> bool:
    """Whether the store loads without indexing it again."""
    builds = []
    real_build = corpus._index_store
    monkeypatch.setattr(corpus, "_index_store", lambda *a: builds.append(a) or real_build(*a))
    monkeypatch.setattr(corpus, "_store_indexes", {})
    try:
        load_knowledge_store(str(STORE), 1, str(cache_dir))
    finally:
        monkeypatch.setattr(corpus, "_index_store", real_build)
    return not builds


def _pool_serves(cache_dir) -> bool:
    """Whether claim 1's pool is read for its text, store state and settings."""
    return read_pool(str(cache_dir / "pool_1.pool"), _pool_key()) is not None


def _derived_file(kind, cache_dir):
    return _store_index_file(cache_dir) if kind == "index" else cache_dir / "pool_1.pool"


def _serves(kind, monkeypatch, cache_dir) -> bool:
    return _index_serves(monkeypatch, cache_dir) if kind == "index" else _pool_serves(cache_dir)


def _keep_pools(monkeypatch, tmp_path, cache_dir, echo_script_path):
    """A second verify, whose caches are warm, keeps the KNN pools."""
    code, _ = _verify_cached(monkeypatch, tmp_path, cache_dir, "warm", echo_script_path)
    assert code == 0
    assert len(list(cache_dir.glob("pool_*.pool"))) == 10


@pytest.mark.parametrize("kind,fault,damage", DERIVED_CASES,
                         ids=[f"{k}-{f}" for k, f, _ in DERIVED_CASES])
def test_bad_derived_file_is_ignored_and_rebuilt(
    monkeypatch, tmp_path, capsys, caplog, echo_script_path, warm_cache, kind, fault, damage
):
    cache_dir = warm_cache
    if kind == "pool":
        _keep_pools(monkeypatch, tmp_path, cache_dir, echo_script_path)
    assert _serves(kind, monkeypatch, cache_dir)
    path = _derived_file(kind, cache_dir)
    intact = path.read_bytes()
    damage(path)
    assert path.read_bytes() != intact
    # what a run over the same caches without derived files writes
    plain = _caches_only(cache_dir, tmp_path / "plain_cache")
    code, expected = _verify_cached(monkeypatch, tmp_path, plain, "plain", echo_script_path)
    assert code == 0
    capsys.readouterr()

    with caplog.at_level("INFO", logger="claimcheck.corpus"):
        code, predictions = _verify_cached(monkeypatch, tmp_path, cache_dir, "out",
                                           echo_script_path)
    err = capsys.readouterr().err
    assert code == 0, err
    assert "Traceback" not in err
    assert predictions == expected
    assert f"ignoring derived file {path}: " in caplog.text
    assert _serves(kind, monkeypatch, cache_dir)
    assert path.read_bytes() == intact
    for cache in plain.iterdir():
        assert (cache_dir / cache.name).read_bytes() == cache.read_bytes()


def test_read_only_cache_dir_writes_no_derived_file(
    monkeypatch, tmp_path, capsys, caplog, echo_script_path, warm_cache
):
    """Where a cache dir cannot be written, warm runs read the caches,
    parse the store and retrieve each claim in full as if no derived file
    had ever been kept."""
    cache_dir = warm_cache
    _keep_pools(monkeypatch, tmp_path, cache_dir, echo_script_path)
    for pool in cache_dir.glob("pool_*.pool"):
        pool.unlink()
    _store_index_file(cache_dir).unlink()
    expected = (tmp_path / "cold" / "predictions.json").read_bytes()

    def read_only(file, mode="r", *args, **kwargs):
        # root ignores the mode bits, so refuse writes here too
        if any(c in mode for c in "wax+") and str(file).startswith(str(cache_dir)):
            raise PermissionError(13, "Permission denied", str(file))
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(corpus, "open", read_only, raising=False)
    cache_dir.chmod(0o555)
    try:
        with caplog.at_level("INFO", logger="claimcheck.corpus"):
            code, predictions = _verify_cached(monkeypatch, tmp_path, cache_dir, "out",
                                               echo_script_path)
    finally:
        cache_dir.chmod(0o755)
    err = capsys.readouterr().err
    assert code == 0, err
    assert "Traceback" not in err
    assert predictions == expected
    assert sorted(p.name for p in cache_dir.iterdir()) == [f"emb_{i}.cache" for i in range(10)]
    for kind in ("index", "pool"):
        assert f"not writing derived file {_derived_file(kind, cache_dir)}: " in caplog.text
