"""Kept KNN pools through the CLI: a warm rerun that changes only k,
lambda or generator settings re-selects from the pool a warm run kept in
the cache dir, and writes what a cold run writes, byte for byte; any
change the pool depends on misses it and keeps a new one."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import claimcheck.cli as cli
import claimcheck.corpus as corpus
import claimcheck.retriever as retriever
from claimcheck.corpus import load_dataset
from claimcheck.lexical import tokenize

from conftest import FIXTURES, file_state, run_cli

SRC = Path(__file__).resolve().parent.parent / "src"
SHARED = "https://shared.example.org/"
# small chunks and a pool smaller than most claims' chunk sets
BASE = ["--set", "retrieval.max_chars=120", "--set", "retrieval.pool_size=12"]
FILLER = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu".split()


def _sentence(rng, words):
    return " ".join(rng.choice(words) for _ in range(rng.randint(3, 10))).capitalize() + "."


def _store_lines(seed: int) -> list[dict]:
    """Store lines for the fixture dataset's claims: each claim's own
    documents, a mirrored copy of one (duplicate chunk texts), a copy of
    another with each sentence's words reversed and upper-cased (other
    texts of the same tokens, so tied similarities), and two claim-less
    lines, every claim's, of all claims' texts."""
    rng = random.Random(seed)
    claims = load_dataset(str(FIXTURES / "dataset.json"))
    lines = []
    for claim in claims:
        words = tokenize(claim.text) + FILLER
        own = [{"claim_id": claim.id, "url": f"https://example.org/{claim.id}/{d}",
                "url2text": [_sentence(rng, words) for _ in range(rng.randint(2, 8))]}
               for d in range(rng.randint(8, 14))]
        own.append(dict(own[0], url=f"https://mirror.example.org/{claim.id}/0"))
        own.append(dict(own[1], url=f"https://reversed.example.org/{claim.id}/1",
                        url2text=[" ".join(reversed(s.split())).upper()
                                  for s in own[1]["url2text"]]))
        rng.shuffle(own)
        lines.extend(own)
    for i in range(2):
        texts = [c.text.upper() if i else c.text for c in claims]
        lines.insert(rng.randrange(len(lines)), {"url": f"{SHARED}{i}", "url2text": texts})
    return lines


def _write_lines(path: Path, lines, newline="\n"):
    path.write_bytes("".join(json.dumps(line) + newline for line in lines).encode())


def _store(tmp_path: Path, layout: str, seed: int = 0) -> Path:
    """The store of _store_lines in one layout: a combined file with LF
    or CRLF line ends, or a directory of per-claim files (odd claims'
    with CRLF) that each hold the claim-less lines too."""
    lines = _store_lines(seed)
    if layout == "directory":
        store = tmp_path / "store"
        store.mkdir()
        for claim_id in range(10):
            mine = [line for line in lines if line.get("claim_id", claim_id) == claim_id]
            _write_lines(store / f"{claim_id}.jsonl", mine, "\r\n" if claim_id % 2 else "\n")
        return store
    store = tmp_path / "store.jsonl"
    _write_lines(store, lines, "\r\n" if layout == "crlf" else "\n")
    return store


class Runner:
    """CLI runs over one store, each in a new process's state (no store
    index in memory), returning the bytes of every file written to the
    output dir."""

    def __init__(self, tmp_path, monkeypatch, store, echo_script_path, dataset=None):
        self.tmp_path = tmp_path
        self.monkeypatch = monkeypatch
        self.store = store
        self.script = echo_script_path
        self.dataset = dataset or FIXTURES / "dataset.json"
        self.runs = 0

    def __call__(self, command, cache_dir, *settings) -> dict[str, bytes]:
        self.monkeypatch.setattr(corpus, "_store_indexes", {})
        self.runs += 1
        out_dir = self.tmp_path / f"out{self.runs}"
        argv = [command, "--dataset", str(self.dataset), "--knowledge-store", str(self.store),
                "--cache-dir", str(cache_dir), "--output-dir", str(out_dir), *BASE, *settings]
        if command == "verify":
            argv += ["--train-set", str(FIXTURES / "train_set.json"),
                     "--mock-script", str(self.script)]
        assert run_cli(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def cold(self, command, *settings) -> dict[str, bytes]:
        """A run through a new, empty cache dir."""
        return self(command, self.tmp_path / f"cold{self.runs + 1}", *settings)


def _pools(cache_dir) -> dict[int, tuple[dict, bytes]]:
    """Each kept pool's header and payload, by claim id."""
    pools = {}
    for path in cache_dir.glob("pool_*.pool"):
        header, _, payload = path.read_bytes().partition(b"\n")
        pools[int(path.stem.split("_")[1])] = (json.loads(header), payload)
    return pools


def _warm(run) -> tuple[Path, dict[str, bytes]]:
    """A cache dir after a cold retrieve (the caches) and a warm one (the pools)."""
    cache_dir = run.tmp_path / "cache"
    run("retrieve", cache_dir)
    assert not list(cache_dir.glob("pool_*"))
    traces = run("retrieve", cache_dir)
    assert len(_pools(cache_dir)) == 10
    return cache_dir, traces


def test_fixture_store_has_what_the_parity_tests_need(tmp_path, monkeypatch, echo_script_path):
    """Pools that hold a claim-less line, tied similarities and one of two
    duplicate chunk texts."""
    run = Runner(tmp_path, monkeypatch, _store(tmp_path, "combined"), echo_script_path)
    _, traces = _warm(run)
    pools = [json.loads(traces[f"trace_{i}.json"])["pool"] for i in range(10)]
    keys = [entry["key"] for pool in pools for entry in pool]
    assert any(key.startswith(SHARED) for key in keys)
    assert any(len({e["sim"] for e in pool}) < len(pool) for pool in pools)
    assert any(key.startswith("https://reversed.example.org/") for key in keys)
    copies = [{f"https://example.org/{i}/0", f"https://mirror.example.org/{i}/0"}
              & {entry["key"].split("#")[0] for entry in pool} for i, pool in enumerate(pools)]
    assert any(copies) and all(len(urls) < 2 for urls in copies)


@pytest.mark.parametrize("layout", ["combined", "crlf", "directory"])
def test_hit_writes_what_a_cold_run_writes(layout, tmp_path, monkeypatch, echo_script_path):
    """retrieve's traces, and verify's predictions and progress lines, for
    every k and lambda, from the pools a warm run kept; the hits write
    nothing to the cache dir and never index the store."""
    run = Runner(tmp_path, monkeypatch, _store(tmp_path, layout), echo_script_path)
    cache_dir, _ = _warm(run)
    state = file_state(cache_dir)
    for k in ("1", "3", "10"):
        for lambda_ in ("0", "0.6", "1"):
            settings = ["--k", k, "--set", f"retrieval.lambda={lambda_}"]
            for command in ("retrieve", "verify"):
                expected = run.cold(command, *settings)
                with monkeypatch.context() as patch:
                    patch.setattr(corpus, "_index_store", _never)
                    patch.setattr(corpus, "_load_store_index", _never)
                    assert run(command, cache_dir, *settings) == expected
                assert file_state(cache_dir) == state


def _never(*args):
    raise AssertionError("a hit read or built the store index")


def test_hit_on_an_empty_pool(tmp_path, monkeypatch, echo_script_path):
    """A claim whose cache is warm but whose new text matches no chunk
    keeps a pool of no members, and a rerun re-selects from it."""
    store = _store(tmp_path, "combined")
    run = Runner(tmp_path, monkeypatch, store, echo_script_path)
    cache_dir, _ = _warm(run)
    claims = json.loads((FIXTURES / "dataset.json").read_text())
    claims[3]["claim"] = "Zyxq wvvq."
    run.dataset = tmp_path / "unmatched.json"
    run.dataset.write_text(json.dumps(claims))
    first = run("retrieve", cache_dir)
    header, payload = _pools(cache_dir)[3]
    assert (header["pruned_count"], header["entries"], payload) == (0, [], b"")
    assert json.loads(first["trace_3.json"])["pool"] == []
    state = file_state(cache_dir)
    assert run("retrieve", cache_dir, "--k", "3") == run.cold("retrieve", "--k", "3")
    assert file_state(cache_dir) == state


def _rewrite_store(run):
    """The store written again with the same bytes, a second later."""
    data, st = run.store.read_bytes(), run.store.stat()
    run.store.write_bytes(data)
    os.utime(run.store, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))


def _new_dataset(run):
    claims = json.loads((FIXTURES / "dataset.json").read_text())
    claims[0]["claim"] += " Its deck is concrete."
    run.dataset = run.tmp_path / "changed.json"
    run.dataset.write_text(json.dumps(claims))


@pytest.mark.parametrize("change,missed", [
    (_new_dataset, {0}),
    (["--omega", "20"], set(range(10))),
    (["--set", "retrieval.pool_size=11"], set(range(10))),
    (["--set", "retrieval.max_chars=100"], set(range(10))),
    (["--set", "embedding.model_name=mock-other"], set(range(10))),
    (_rewrite_store, set(range(10))),
], ids=["claim_text", "omega", "pool_size", "max_chars", "model_name", "store_rewritten"])
def test_a_change_the_pool_depends_on_misses_it(
    change, missed, tmp_path, monkeypatch, echo_script_path
):
    """Each claim whose pool depends on the change is retrieved in full and
    keeps a pool of a new key; the others hit theirs."""
    run = Runner(tmp_path, monkeypatch, _store(tmp_path, "combined"), echo_script_path)
    cache_dir, _ = _warm(run)
    before = file_state(cache_dir)
    keys = {i: header["key"] for i, (header, _) in _pools(cache_dir).items()}
    settings = change if isinstance(change, list) else []
    if callable(change):
        change(run)
    expected = run.cold("retrieve", *settings)
    assert run("retrieve", cache_dir, *settings) == expected
    after = _pools(cache_dir)
    assert {i for i in range(10) if after[i][0]["key"] != keys[i]} == missed
    for i in set(range(10)) - missed:
        assert file_state(cache_dir)[f"pool_{i}.pool"] == before[f"pool_{i}.pool"]


@pytest.mark.parametrize("settings", [
    ["--k", "4"],
    ["--set", "retrieval.lambda=0.3"],
    ["--simplified"],
    ["--set", "generator.fewshot_count=2", "--set", "generator.max_retries=1"],
], ids=["k", "lambda", "simplified", "generator_fields"])
def test_k_lambda_and_generator_settings_hit(settings, tmp_path, monkeypatch, echo_script_path):
    run = Runner(tmp_path, monkeypatch, _store(tmp_path, "combined"), echo_script_path)
    cache_dir, _ = _warm(run)
    state = file_state(cache_dir)
    assert run("verify", cache_dir, *settings) == run.cold("verify", *settings)
    assert file_state(cache_dir) == state


def test_a_hit_decodes_and_chunks_only_the_pool_lines(tmp_path, monkeypatch, echo_script_path):
    """json_line runs once per distinct line of each pool, chunk_document
    once per its document (at most pool_size each), and the store is
    never indexed."""
    store = _store(tmp_path, "combined")
    run = Runner(tmp_path, monkeypatch, store, echo_script_path)
    cache_dir, _ = _warm(run)
    lines = {i: len({offset for offset, _ in header["entries"]})
             for i, (header, _) in _pools(cache_dir).items()}
    assert all(0 < n <= 12 for n in lines.values())
    decoded, chunked = [], []
    real_line, real_chunk = corpus.json_line, retriever.chunk_document
    monkeypatch.setattr(corpus, "json_line", lambda path, where, raw: (
        path == str(store) and decoded.append(where)) or real_line(path, where, raw))
    monkeypatch.setattr(retriever, "chunk_document",
                        lambda doc, n: chunked.append(doc) or real_chunk(doc, n))
    monkeypatch.setattr(corpus, "_index_store", _never)
    monkeypatch.setattr(corpus, "_load_store_index", _never)
    run("retrieve", cache_dir, "--k", "2")
    assert len(decoded) == len(chunked) == sum(lines.values())
    assert len(decoded) < len(store.read_bytes().splitlines())


PROBE = """
import json, sys
import claimcheck.cli as cli

opened = []
real_cache, real_load = cli.EmbeddingCache, cli.load_knowledge_store

def cache(*args, **kwargs):
    opened.append(args)
    return real_cache(*args, **kwargs)

def first_load(*args, **kwargs):
    cli.load_knowledge_store = real_load
    offsets = args[3] if len(args) > 3 else kwargs.get("offsets")
    print(json.dumps({"numpy": "numpy" in sys.modules, "caches_opened": len(opened),
                      "offsets": offsets}))
    sys.stdout.flush()
    return real_load(*args, **kwargs)

cli.EmbeddingCache, cli.load_knowledge_store = cache, first_load
sys.exit(cli.main(sys.argv[1:]))
"""


def test_first_store_load_of_a_hit_comes_before_numpy_and_any_cache(
    tmp_path, monkeypatch, echo_script_path
):
    """The benchmark times set-up at the first load_knowledge_store call:
    on a hit, it loads only the pool's lines, and the pool was read
    without numpy and before any embedding cache was opened."""
    store = _store(tmp_path, "combined")
    run = Runner(tmp_path, monkeypatch, store, echo_script_path)
    cache_dir, _ = _warm(run)
    argv = ["verify", "--claims", "4", "--dataset", str(FIXTURES / "dataset.json"),
            "--knowledge-store", str(store), "--train-set", str(FIXTURES / "train_set.json"),
            "--mock-script", str(echo_script_path), "--cache-dir", str(cache_dir),
            "--output-dir", str(tmp_path / "probe"), *BASE]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[0])
    header, _ = _pools(cache_dir)[4]
    assert seen == {"numpy": False, "caches_opened": 0,
                    "offsets": sorted({offset for offset, _ in header["entries"]})}


def test_a_store_changed_before_its_pool_lines_load_is_loaded_in_full(
    tmp_path, monkeypatch, echo_script_path
):
    """A pool is keyed by the store file's identity before the load; when
    the load then reads another file state, the pool's offsets are not
    trusted and the claim is loaded and retrieved in full."""
    run = Runner(tmp_path, monkeypatch, _store(tmp_path, "combined"), echo_script_path)
    cache_dir, _ = _warm(run)
    expected = run.cold("retrieve", "--k", "2")
    loads = []
    real_load = cli.load_knowledge_store

    def load(*args):
        store = real_load(*args)
        loads.append(len(args) > 3)
        if len(args) > 3:
            # as if the file were replaced between the stat and the open
            store = dataclasses.replace(store, file_id=store.file_id[:-1] + (0,))
        return store

    monkeypatch.setattr(cli, "load_knowledge_store", load)
    assert run("retrieve", cache_dir, "--k", "2") == expected
    assert loads == [True, False] * 10
