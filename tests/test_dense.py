import hashlib
import json
import random
import re

import numpy as np
import pytest

import claimcheck.dense as dense
from claimcheck.dense import (
    embed_batch,
    embed_cached,
    EmbeddingCache,
    EmbeddingProviderConfig,
    HttpEmbeddingProvider,
    knn,
    make_embedding_provider,
    mmr_select,
    MOCK_DIM,
    mock_embed,
    MockEmbeddingProvider,
    VectorIndex,
)
from claimcheck.errors import ConfigError, ProviderError, ValidationError
from claimcheck.lexical import encode, tokenize
from claimcheck.retriever import RetrievalConfig

from conftest import F64_ONE, cache_batch, cache_batches


def _hash_oracle(text):
    """mock_embed recomputed independently, one token at a time."""
    expected = np.zeros(MOCK_DIM)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
        bucket = int.from_bytes(digest[:4], "little") % MOCK_DIM
        expected[bucket] += 1.0 if digest[4] % 2 == 0 else -1.0
    norm = np.linalg.norm(expected)
    if norm == 0.0:
        expected[0] = 1.0
        return expected
    return expected / norm


class TestMockEmbed:
    def test_unit_norm_and_dim(self):
        v = mock_embed("The Halvern Bridge was completed in 1977.")
        assert v.shape == (MOCK_DIM,)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12

    def test_deterministic(self):
        a = mock_embed("same text twice")
        b = mock_embed("same text twice")
        assert np.array_equal(a, b)

    def test_token_order_invariant(self):
        a = mock_embed("alpha beta gamma")
        b = mock_embed("gamma alpha beta")
        assert np.array_equal(a, b)

    def test_matches_hash_oracle(self):
        # "w14 w22" share a bucket with opposite signs and cancel. One
        # batch goes through one bincount: repeated texts, texts with no
        # tokens and long texts next to short ones each keep their own row
        rng = random.Random(4417)
        vocab = [f"w{i}" for i in range(40)]
        texts = ["Quorvel sold forty thousand vans", "w14 w22", "w22 w14 w14 w22"] + [
            " ".join(rng.choice(vocab) for _ in range(rng.choice([1, 7, 60, 900])))
            for _ in range(200)
        ]
        texts += ["", "?!...", texts[5], texts[5], "", "Ünïcode only ☃"]
        rng.shuffle(texts)
        assert np.array_equal(mock_embed("w14 w22"), np.eye(MOCK_DIM)[0])
        batched = MockEmbeddingProvider(EmbeddingProviderConfig()).embed(texts)
        assert len(batched) == len(texts)
        for text, vec in zip(texts, batched):
            expected = _hash_oracle(text).tobytes()
            assert mock_embed(text).tobytes() == expected, text
            assert vec.shape == (MOCK_DIM,) and vec.tobytes() == expected, text

    def test_ids_from_a_larger_table_match_hash_oracle(self):
        # rows picked out of a table whose vocabulary holds words the
        # picked texts lack, in another order, each keep their own row
        rng = random.Random(9021)
        vocab = [f"w{i}" for i in range(300)]
        texts = ["", "?!", "Ünïcode only ☃", "w3 w3 w3"] + [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 80))) for _ in range(60)
        ]
        table = encode(map(tokenize, texts))
        rows = rng.sample(range(len(texts)), 30) + [0, 3, 3]
        provider = MockEmbeddingProvider(EmbeddingProviderConfig())
        vectors = provider.embed([texts[r] for r in rows], table.select(rows))
        assert [v.tobytes() for v in vectors] == [_hash_oracle(texts[r]).tobytes() for r in rows]

    def test_no_tokens_maps_to_basis(self):
        v = mock_embed("?!...")
        assert v[0] == 1.0
        assert float(np.linalg.norm(v)) == 1.0

    def test_distinguishes_texts(self):
        assert not np.array_equal(mock_embed("river bridge"), mock_embed("comet orbit"))

    def test_given_tokens_used_else_tokenized(self, monkeypatch):
        tokenized = []
        real = dense.tokenize
        monkeypatch.setattr(
            dense, "tokenize", lambda *a: tokenized.append(a[0]) or real(*a)
        )
        provider = MockEmbeddingProvider(EmbeddingProviderConfig())
        texts = ["alpha beta alpha", "gamma, delta!", ""]
        expected = [mock_embed(t).tobytes() for t in texts]
        tokens = encode(tokenize(t) for t in texts)
        tokenized.clear()

        given = provider.embed(texts, tokens)
        assert tokenized == []
        own = provider.embed(texts)
        assert tokenized == texts
        for got in (given, own):
            assert [v.tobytes() for v in got] == expected


class TestProviderConfig:
    def test_http_requires_endpoint(self):
        with pytest.raises(ConfigError):
            EmbeddingProviderConfig(kind="http")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            EmbeddingProviderConfig(kind="grpc")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError) as exc:
            EmbeddingProviderConfig(kind="http", base_url="http://x", model_name="m1", retries=-1)
        assert "retries must be >= 0" in str(exc.value)
        EmbeddingProviderConfig(retries=0)

    def test_effective_model_name(self):
        assert EmbeddingProviderConfig(kind="mock").effective_model_name == "mock-64"
        cfg = EmbeddingProviderConfig(kind="http", base_url="http://x", model_name="m1")
        assert cfg.effective_model_name == "m1"

    def test_factory(self):
        assert isinstance(
            make_embedding_provider(EmbeddingProviderConfig(kind="mock")),
            MockEmbeddingProvider,
        )


def _embedding_payload(batch, dim=4, shuffle_rng=None):
    items = []
    for i, _ in enumerate(batch):
        vec = [float(i + 1)] + [0.0] * (dim - 1)
        items.append({"index": i, "embedding": vec})
    if shuffle_rng is not None:
        shuffle_rng.shuffle(items)
    return {"data": items}


class TestHttpEmbeddingProvider:
    def _cfg(self, base_url, **kw):
        defaults = dict(kind="http", base_url=base_url, model_name="emb-1", retries=0)
        defaults.update(kw)
        return EmbeddingProviderConfig(**defaults)

    def test_respects_index_field_over_position(self, stub_server):
        server, base_url = stub_server
        rng = random.Random(99)

        def app(path, body, headers):
            assert path.endswith("/embeddings")
            return 200, _embedding_payload(body["input"], shuffle_rng=rng)

        server.app = app
        provider = HttpEmbeddingProvider(self._cfg(base_url))
        vectors = provider.embed(["a", "b", "c", "d", "e"])
        assert [v[0] for v in vectors] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_batching_splits_requests(self, stub_server):
        server, base_url = stub_server
        calls = []

        def app(path, body, headers):
            calls.append(list(body["input"]))
            return 200, _embedding_payload(body["input"])

        server.app = app
        provider = HttpEmbeddingProvider(self._cfg(base_url, batch_size=2))
        provider.embed(["a", "b", "c", "d", "e"])
        assert calls == [["a", "b"], ["c", "d"], ["e"]]

    def test_retry_then_success(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        attempts = []

        def app(path, body, headers):
            attempts.append(1)
            if len(attempts) == 1:
                return 500, {"error": "transient"}
            return 200, _embedding_payload(body["input"])

        server.app = app
        provider = HttpEmbeddingProvider(self._cfg(base_url, retries=2))
        vectors = provider.embed(["only"])
        assert len(attempts) == 2
        assert vectors[0][0] == 1.0

    def test_client_error_not_retried(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        attempts = []

        def app(path, body, headers):
            attempts.append(1)
            return 401, {"error": "bad key"}

        server.app = app
        provider = HttpEmbeddingProvider(self._cfg(base_url, retries=3))
        with pytest.raises(ProviderError) as exc:
            provider.embed(["x"])
        assert len(attempts) == 1
        assert "401" in str(exc.value)

    def test_rate_limit_retried(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        attempts = []

        def app(path, body, headers):
            attempts.append(1)
            if len(attempts) == 1:
                return 429, {"error": "slow down"}
            return 200, _embedding_payload(body["input"])

        server.app = app
        provider = HttpEmbeddingProvider(self._cfg(base_url, retries=2))
        assert provider.embed(["only"])[0][0] == 1.0
        assert len(attempts) == 2

    def test_exhausted_retries_raise(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        server.app = lambda path, body, headers: (503, {"error": "down"})
        provider = HttpEmbeddingProvider(self._cfg(base_url, retries=1))
        with pytest.raises(ProviderError) as exc:
            provider.embed(["x"])
        assert "503" in str(exc.value)

    def test_api_key_header_and_secrecy(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_EMB_KEY", "sk-super-secret")
        seen = {}

        def app(path, body, headers):
            seen.update(headers)
            return 200, _embedding_payload(body["input"])

        server.app = app
        cfg = self._cfg(base_url, api_key_env="TEST_EMB_KEY")
        HttpEmbeddingProvider(cfg).embed(["x"])
        assert seen.get("Authorization") == "Bearer sk-super-secret"
        assert seen["Content-Type"] == "application/json"

        # failures must not leak the key into the raised message
        server.app = lambda path, body, headers: (500, {"error": "boom"})
        with pytest.raises(ProviderError) as exc:
            HttpEmbeddingProvider(cfg).embed(["x"])
        assert "sk-super-secret" not in str(exc.value)

    def test_no_key_env_sends_no_auth_header(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.delenv("ABSENT_KEY_VAR", raising=False)
        seen = {}

        def app(path, body, headers):
            seen.update(headers)
            return 200, _embedding_payload(body["input"])

        server.app = app
        HttpEmbeddingProvider(self._cfg(base_url, api_key_env="ABSENT_KEY_VAR")).embed(["x"])
        assert "Authorization" not in seen
        assert seen["Content-Type"] == "application/json"

    def test_missing_index_rejected(self, stub_server):
        server, base_url = stub_server
        server.app = lambda path, body, headers: (
            200,
            {"data": [{"index": 0, "embedding": [1.0]}, {"index": 0, "embedding": [2.0]}]},
        )
        with pytest.raises(ProviderError):
            HttpEmbeddingProvider(self._cfg(base_url)).embed(["a", "b"])

    def test_wrong_item_count_rejected(self, stub_server):
        server, base_url = stub_server
        server.app = lambda path, body, headers: (200, {"data": []})
        with pytest.raises(ProviderError):
            HttpEmbeddingProvider(self._cfg(base_url)).embed(["a"])

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"<html>gateway</html>", "embeddings response is not JSON"),
            (b"[" * 200_000, "embeddings response is not JSON"),
            ([{"index": 0, "embedding": [1.0]}], "has no items"),
            ({"data": [[1.0], "x"]}, "item is a list, not an object"),
            (
                {"data": [{"index": False, "embedding": [1.0]}, {"index": 1, "embedding": [2.0]}]},
                "bad index False",
            ),
            (
                {"data": [{"index": 0, "embedding": [1.0]}, {"index": True, "embedding": [2.0]}]},
                "bad index True",
            ),
        ],
        ids=[
            "not-json",
            "too-deep",
            "json-array",
            "non-object-items",
            "false-index",
            "true-index",
        ],
    )
    def test_malformed_success_body(self, stub_server, payload, message):
        server, base_url = stub_server
        server.app = lambda path, body, headers: (200, payload)
        with pytest.raises(ProviderError) as exc:
            HttpEmbeddingProvider(self._cfg(base_url)).embed(["a", "b"])
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "item, message",
        [
            ({"index": 0, "embedding": ["a"]}, "not a vector of numbers"),
            ({"index": 0, "embedding": {"x": 1}}, "not a vector of numbers"),
            ({"index": 0}, "expected a non-empty 1-d vector"),
            ({"index": 0, "embedding": None}, "expected a non-empty 1-d vector"),
            ({"index": 0, "embedding": []}, "expected a non-empty 1-d vector"),
        ],
        ids=["string-component", "object", "missing", "null", "empty"],
    )
    def test_malformed_vector_is_provider_error(self, stub_server, item, message):
        server, base_url = stub_server
        server.app = lambda path, body, headers: (200, {"data": [item]})
        with pytest.raises(ProviderError) as exc:
            HttpEmbeddingProvider(self._cfg(base_url)).embed(["a"])
        assert str(exc.value).startswith("embedding 0: ")
        assert message in str(exc.value)


class TestEmbedBatch:
    def test_order_preserved(self):
        cfg = EmbeddingProviderConfig(kind="mock")
        texts = ["one", "two", "three"]
        vectors = embed_batch(texts, cfg)
        for t, v in zip(texts, vectors):
            assert np.array_equal(v, mock_embed(t))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            embed_batch([], EmbeddingProviderConfig(kind="mock"))

    def test_mixed_dimensions_are_provider_error(self, monkeypatch):
        class TwoDims:
            def embed(self, texts, tokens=None):
                return [np.ones(3), np.ones(4)]

        monkeypatch.setattr(dense, "make_embedding_provider", lambda cfg: TwoDims())
        with pytest.raises(ProviderError) as exc:
            embed_batch(["a", "b"], EmbeddingProviderConfig(kind="mock"))
        assert str(exc.value) == "embedding dimensions disagree within one batch: [3, 4]"


class TestEmbeddingCache:
    def test_key_format(self):
        key = EmbeddingCache.key_for(7, "emb-1", "some text")
        digest = hashlib.sha256(b"some text").hexdigest()[:24]
        assert key == f"7:emb-1:{digest}"

    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "emb_0.cache")
        cache = EmbeddingCache(path)
        vec = np.array([0.5, -0.25, 1.0])
        cache.put_many([("k1", vec)])
        reloaded = EmbeddingCache(path)
        assert len(reloaded) == 1
        assert np.array_equal(reloaded.get("k1"), vec)

    @pytest.mark.parametrize(
        "values",
        [
            [-0.0],
            [5e-324],  # smallest subnormal
            [2.2250738585072014e-309, -0.0, 1e308, -1e308],
            [1e308],
            "dim1536",
        ],
    )
    def test_f64_lines_round_trip_bit_exact(self, tmp_path, values):
        if values == "dim1536":
            rng = np.random.default_rng(1536)
            vec = rng.standard_normal(1536) * 10.0 ** rng.integers(-300, 300, 1536)
            vec[:4] = [-0.0, 5e-324, 1e308, -1e308]
        else:
            vec = np.array(values, dtype=np.float64)
        path = tmp_path / "emb_0.cache"
        EmbeddingCache(str(path)).put_many([("k", vec)])
        ((header, payload),) = cache_batches(path)
        assert header == {
            "dim": vec.size, "keys": ["k"], "payload_bytes": 8 * vec.size,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        assert payload == vec.astype("<f8").tobytes()
        got = EmbeddingCache(str(path)).get("k")
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags.writeable
        assert got.tobytes() == vec.tobytes()

    @pytest.mark.parametrize(
        "key",
        [
            "3:mock-64:0123abcd",
            '0:model "quoted":ff',
            "0:C:\\models\\emb\\v2:aa",
            "12:modèle-é☃-埋め込み:bb",
            "1:tab\tnewline\n\u0000:cc",
        ],
        ids=["plain", "quotes", "backslashes", "non-ascii", "control"],
    )
    def test_lines_equal_json_dumps_of_the_record(self, tmp_path, key):
        """A batch is its header as json.dumps gives it, keys sorted, on
        one line, then its vectors' float64 bytes."""
        rng = np.random.default_rng(305)
        special = np.full(MOCK_DIM, 5e-324)
        special[:2] = [-0.0, 1e308]
        vecs = [rng.standard_normal(MOCK_DIM), special, np.eye(MOCK_DIM)[0]]
        path = tmp_path / "emb_0.cache"
        items = [(f"{key}:{i}", vec) for i, vec in enumerate(vecs)]
        EmbeddingCache(str(path)).put_many(items)
        payload = np.stack(vecs).astype("<f8").tobytes()
        header = {
            "keys": [k for k, _v in items],
            "dim": MOCK_DIM,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        expected = json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload
        assert path.read_bytes() == expected
        reloaded = EmbeddingCache(str(path))
        assert all(reloaded.get(k).tobytes() == v.tobytes() for k, v in items)

    @pytest.mark.parametrize(
        "entry",
        [
            # the older one-line-per-vector forms
            {"key": "k", "f64": "AAAAAAAA8D8=", "payload": b"",
             "drop": ("keys", "payload_bytes", "payload_sha256")},
            {"key": "k", "values": [1.0], "payload": b"",
             "drop": ("keys", "payload_bytes", "payload_sha256")},
            {"keys": "k"},  # not an array
            {"keys": [5]},
            {"dim": True},
            {"dim": 1.9},
            {"dim": "1"},
            {"dim": 0, "payload": b""},
            {"drop": ("dim",)},
            {"payload": F64_ONE * 2},  # 16 bytes for one vector of dim 1
            {"payload_bytes": "8"},
            {"drop": ("payload_sha256",)},
            {"payload_sha256": hashlib.sha256(b"other").hexdigest()},
        ],
    )
    def test_malformed_f64_line_rejected(self, tmp_path, entry):
        path = tmp_path / "emb_0.cache"
        good = cache_batch(keys=["j"])
        path.write_bytes(good)
        assert EmbeddingCache(str(path)).get("j").tolist() == [1.0]
        path.write_bytes(good + cache_batch(**entry))
        with pytest.raises(ValidationError) as exc:
            EmbeddingCache(str(path))
        assert str(exc.value).startswith(f"{path}: batch 2: ")

    def test_append_only_no_duplicates(self, tmp_path):
        path = tmp_path / "emb_0.cache"
        cache = EmbeddingCache(str(path))
        cache.put_many([("k1", np.array([1.0]))])
        cache.put_many([("k1", np.array([9.9])), ("k2", np.array([2.0]))])
        assert [header["keys"] for header, _ in cache_batches(path)] == [["k1"], ["k2"]]
        assert np.array_equal(cache.get("k1"), np.array([1.0]))

    def test_corrupt_line_rejected(self, tmp_path):
        path = tmp_path / "emb_0.cache"
        path.write_bytes(cache_batch(dim=3))
        with pytest.raises(ValidationError) as exc:
            EmbeddingCache(str(path))
        assert str(exc.value).startswith(f"{path}: batch 1: bad cache entry: ")

    @pytest.mark.parametrize(
        "bad", ['{"keys": ["k"], "dim": ' + "9" * 5000 + "}", "[" * 50_000],
        ids=["overlong_integer", "nested_too_deeply"],
    )
    def test_unconvertible_line_rejected_naming_it(self, tmp_path, bad):
        path = tmp_path / "emb_0.cache"
        path.write_bytes(cache_batch(keys=["j"]) + bad.encode() + b"\n")
        with pytest.raises(ValidationError) as exc:
            EmbeddingCache(str(path))
        assert str(exc.value).startswith(f"{path}: batch 2: not valid JSON: ")

    def test_torn_final_line_dropped_then_cut_before_append(self, tmp_path, caplog):
        """A last batch cut in its header line or in its payload is dropped."""
        path = tmp_path / "emb_0.cache"
        cache = EmbeddingCache(str(path))
        cache.put_many([("k1", np.array([1.0]))])
        first = path.stat().st_size
        more = [("k2", np.array([2.0])), ("k3", np.array([3.0]))]
        cache.put_many(more)
        intact = path.read_bytes()
        for cut in (first + 10, len(intact) - 5):
            caplog.clear()
            path.write_bytes(intact[:cut])
            with caplog.at_level("WARNING"):
                torn = EmbeddingCache(str(path))
            assert f"{path}: batch 2: dropping a torn final batch" in caplog.text
            assert len(torn) == 1 and torn.get("k2") is None
            torn.put_many(more)
            assert path.read_bytes() == intact
            assert len(EmbeddingCache(str(path))) == 3

    def test_bad_line_before_others_rejected(self, tmp_path):
        path = tmp_path / "emb_0.cache"
        path.write_bytes(b'{"keys": ["j"], "dim": 1, "val\n' + cache_batch())
        with pytest.raises(ValidationError) as exc:
            EmbeddingCache(str(path))
        assert str(exc.value).startswith(f"{path}: batch 1: not valid JSON: ")

    def test_batches_of_two_dimensions_read_back_bit_exact(self, tmp_path):
        """Two models' vectors, of two sizes, share a claim's file."""
        path = tmp_path / "emb_0.cache"
        rng = np.random.default_rng(2)
        small = {EmbeddingCache.key_for(0, "small", t): rng.standard_normal(3) for t in "ab"}
        large = {EmbeddingCache.key_for(0, "large", t): rng.standard_normal(1536) for t in "ab"}
        cache = EmbeddingCache(str(path))
        cache.put_many(list(small.items()))
        cache.put_many(list(large.items()))
        assert [header["dim"] for header, _ in cache_batches(path)] == [3, 1536]
        reloaded = EmbeddingCache(str(path))
        assert len(reloaded) == 4
        for key, vec in {**small, **large}.items():
            assert reloaded.get(key).tobytes() == vec.tobytes()


class TestEmbedCached:
    def test_all_missing_lends_the_callers_tokens(self, tmp_path, monkeypatch):
        cfg = EmbeddingProviderConfig(kind="mock")
        cache = EmbeddingCache(str(tmp_path / "emb_3.cache"))
        lent = []
        real = dense.embed_batch

        def spying(texts, c, tokens=None):
            lent.append(tokens)
            return real(texts, c, tokens)

        monkeypatch.setattr(dense, "embed_batch", spying)
        texts = ["first text", "second text", "third text"]
        tokens = encode(map(tokenize, texts))
        out = embed_cached(texts, 3, cfg, cache, tokens)
        assert lent == [tokens] and lent[0] is tokens
        assert [v.tobytes() for v in out] == [mock_embed(t).tobytes() for t in texts]
        # one text cached: the embedder gets the other rows
        more = ["first text", "fourth text", "fifth text"]
        embed_cached(more, 3, cfg, cache, encode(map(tokenize, more)))
        assert [lent[1].tokens(i) for i in range(len(lent[1]))] == [
            tokenize(t) for t in more[1:]
        ]

    def test_second_run_hits_cache(self, tmp_path, monkeypatch):
        cfg = EmbeddingProviderConfig(kind="mock")
        cache = EmbeddingCache(str(tmp_path / "emb_3.cache"))
        calls = []
        real = dense.embed_batch

        def counting(texts, c, tokens=None):
            calls.append(list(texts))
            return real(texts, c, tokens)

        monkeypatch.setattr(dense, "embed_batch", counting)
        texts = ["first text", "second text", "first text"]
        out1 = embed_cached(texts, 3, cfg, cache)
        # duplicate text embedded once; second call embeds nothing
        assert calls == [["first text", "second text"]]
        out2 = embed_cached(texts, 3, cfg, cache)
        assert calls == [["first text", "second text"]]
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)
        assert np.array_equal(out1[0], out1[2])

    @pytest.mark.parametrize("embeds", [True, False])
    def test_cached_vector_of_other_dimension_rejected(self, tmp_path, embeds):
        cfg = EmbeddingProviderConfig(kind="mock")
        cache = EmbeddingCache(str(tmp_path / "emb_3.cache"))
        odd_key = EmbeddingCache.key_for(3, cfg.effective_model_name, "odd")
        cache.put_many([(odd_key, np.array([1.0, 2.0, 3.0]))])
        embed_cached(["first"], 3, cfg, cache)
        # with a fresh text embedded, its 64 dims are expected even of a
        # cached vector served before it; with none, those of the first
        texts = ["odd", "first", "new"] if embeds else ["first", "odd"]
        with pytest.raises(ValidationError) as exc:
            embed_cached(texts, 3, cfg, cache)
        assert str(exc.value) == (
            f"{cache.path}: cached vector {odd_key} has dimension 3, expected 64"
        )

    def test_no_cache_passthrough(self):
        cfg = EmbeddingProviderConfig(kind="mock")
        out = embed_cached(["plain"], 0, cfg, None)
        assert np.array_equal(out[0], mock_embed("plain"))

    def test_cache_keys_separate_claims(self, tmp_path):
        cfg = EmbeddingProviderConfig(kind="mock")
        cache = EmbeddingCache(str(tmp_path / "emb.cache"))
        embed_cached(["shared"], 1, cfg, cache)
        embed_cached(["shared"], 2, cfg, cache)
        assert len(cache) == 2


class TestVectorIndexKnn:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(515)
        for _ in range(50):
            n, d = int(rng.integers(1, 30)), int(rng.integers(2, 8))
            vectors = [rng.normal(size=d) for _ in range(n)]
            index = VectorIndex.build(vectors, list(range(n)))
            query = rng.normal(size=d)
            p = int(rng.integers(1, n + 3))
            got = knn(index, query, p)
            qn = query / np.linalg.norm(query)
            sims = [(i, float(np.dot(v / np.linalg.norm(v), qn))) for i, v in enumerate(vectors)]
            sims.sort(key=lambda x: -x[1])
            want_ids = [i for i, _ in sims[:p]]
            got_ids = [i for i, _ in got]
            # allow reordering only among exactly-equal sims
            assert len(got_ids) == len(want_ids)
            for (gi, gs), (wi, ws) in zip(got, [sims[j] for j in range(len(got))]):
                assert abs(gs - ws) < 1e-12

    def test_tie_keeps_insertion_order(self):
        v = np.array([1.0, 0.0])
        index = VectorIndex.build([v, v.copy(), v.copy()], ["a", "b", "c"])
        got = knn(index, np.array([2.0, 0.0]), 3)
        assert [pid for pid, _ in got] == ["a", "b", "c"]

    def test_normalization_inside_build(self):
        index = VectorIndex.build([np.array([10.0, 0.0])], ["a"])
        pid, sim = knn(index, np.array([0.1, 0.0]), 1)[0]
        assert pid == "a"
        assert abs(sim - 1.0) < 1e-12

    def test_p_larger_than_index(self):
        index = VectorIndex.build([np.array([1.0, 0.0])], ["a"])
        assert len(knn(index, np.array([1.0, 1.0]), 10)) == 1

    def test_empty_index(self):
        index = VectorIndex.build([], [])
        assert knn(index, np.array([1.0]), 3) == []

    def test_matrix_is_frozen(self):
        index = VectorIndex.build([np.array([1.0, 0.0])], ["a"])
        with pytest.raises(ValueError):
            index.matrix[0, 0] = 5.0

    def test_errors(self):
        index = VectorIndex.build([np.array([1.0, 0.0])], ["a"])
        with pytest.raises(ValidationError):
            knn(index, np.array([1.0, 0.0, 0.0]), 1)
        with pytest.raises(ValidationError):
            knn(index, np.array([0.0, 0.0]), 1)
        with pytest.raises(ValidationError):
            knn(index, np.array([1.0, 0.0]), 0)
        with pytest.raises(ValidationError):
            VectorIndex.build([np.array([0.0, 0.0])], ["z"])

    @pytest.mark.parametrize("vectors, ids, message", [
        ([np.ones(3), np.ones(2)], ["a", "b"], "not a matrix of numbers"),
        ([np.ones(2), np.array([1.0, np.nan])], ["a", "b"], "matrix has NaN or inf"),
        ([np.ones(2)] * 3, ["a", "b", "a"], "payload ids must be distinct"),
        ([np.ones((2, 2))], ["a"], "expected a non-empty 2-d matrix"),
    ], ids=["mixed-dim", "nan-row", "repeated-id", "3-d"])
    def test_build_rejects(self, vectors, ids, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            VectorIndex.build(vectors, ids)

    @pytest.mark.parametrize("dim", [64, 384, 768, 1536, 3072])
    def test_subset_rows_equal_the_full_build_rows(self, dim):
        """A kept pool's index is built over its rows alone: normalization
        is per row, so each row equals the full index's bit for bit."""
        rng = np.random.default_rng(dim)
        vectors = list(rng.normal(size=(300, dim)) * rng.uniform(0.01, 100, size=(300, 1)))
        full = VectorIndex.build(vectors, list(range(300)))
        rows = rng.permutation(300)[:40].tolist()
        subset = VectorIndex.build([vectors[r] for r in rows], rows)
        assert np.array_equal(subset.matrix, full.matrix[rows])

    def test_build_leaves_input_unmodified(self):
        rows = np.array([[3.0, 4.0], [0.0, 2.0]])
        before = rows.copy()
        for vectors in (rows, list(rows)):
            index = VectorIndex.build(vectors, ["a", "b"])
            assert np.array_equal(rows, before)
            assert not np.shares_memory(index.matrix, rows)
            assert np.array_equal(index.matrix, [[0.6, 0.8], [0.0, 1.0]])

    def test_array_and_list_input_build_the_same_bits(self):
        rows = np.random.default_rng(8).normal(size=(30, 64))
        from_array = VectorIndex.build(rows, list(range(30)))
        from_list = VectorIndex.build(list(rows), list(range(30)))
        assert from_array.matrix.tobytes() == from_list.matrix.tobytes()
        divided = rows / np.linalg.norm(rows, axis=1)[:, None]
        assert from_array.matrix.tobytes() == divided.tobytes()


def mmr_oracle(candidates, lam, k):
    """Independent greedy recomputation of maximal marginal relevance."""
    ids = [c[0] for c in candidates]
    unit = [np.asarray(c[1], dtype=np.float64) for c in candidates]
    unit = [v / np.linalg.norm(v) for v in unit]
    sims_q = [float(c[2]) for c in candidates]
    chosen: list[int] = []
    remaining = list(range(len(ids)))
    while remaining and len(chosen) < k:
        best = None
        for i in remaining:
            red = max((float(np.dot(unit[i], unit[j])) for j in chosen), default=0.0)
            score = lam * sims_q[i] - (1.0 - lam) * red
            key = (score, sims_q[i], -i)
            if best is None or key > best[0]:
                best = (key, i)
        chosen.append(best[1])
        remaining.remove(best[1])
    return [ids[i] for i in chosen]


def _mmr(candidates, cfg):
    """mmr_select of (id, vector, sim_to_query) candidates, indexed as retrieve does."""
    index = VectorIndex.build([c[1] for c in candidates], [c[0] for c in candidates])
    return mmr_select(index, [(c[0], c[2]) for c in candidates], cfg)


class TestMmr:
    def test_lambda_one_equals_knn_order(self):
        rng = np.random.default_rng(77)
        vectors = [rng.normal(size=6) for _ in range(25)]
        query = rng.normal(size=6)
        index = VectorIndex.build(vectors, list(range(25)))
        pool = knn(index, query, 25)
        cfg = RetrievalConfig(lambda_=1.0, pool_size=25, k=8)
        assert mmr_select(index, pool, cfg) == [pid for pid, _ in pool[:8]]

    def test_demotes_duplicate_of_selected(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 0.0])  # duplicate of a
        c = np.array([0.0, 1.0])  # orthogonal, lower query sim
        candidates = [("a", a, 0.95), ("b", b, 0.94), ("c", c, 0.50)]
        cfg = RetrievalConfig(lambda_=0.5, pool_size=3, k=2)
        # after picking a: b scores .5*.94-.5*1=-0.03, c scores .5*.5-.5*0=0.25
        assert _mmr(candidates, cfg) == ["a", "c"]

    def test_negative_redundancy_boosts(self):
        a = np.array([1.0, 0.0])
        b = np.array([-1.0, 0.05])  # strongly anti-aligned with a
        c = np.array([0.0, 1.0])
        candidates = [("a", a, 0.9), ("b", b, 0.2), ("c", c, 0.3)]
        cfg = RetrievalConfig(lambda_=0.5, pool_size=3, k=2)
        got = _mmr(candidates, cfg)
        # b's redundancy is ~-1 so its score .5*.2+.5*~1 ~= .6 beats c's .15
        assert got == ["a", "b"]

    def test_score_tie_prefers_higher_query_sim(self):
        # equal mmr scores by construction: both orthogonal to selected
        s = np.array([1.0, 0.0, 0.0])
        x = np.array([0.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 1.0])
        # lambda 0.5: score(x) = .5*0.4, score(y) = .5*0.4 -> tie; sim_q tie too,
        # then earlier index wins
        candidates = [("s", s, 0.9), ("x", x, 0.4), ("y", y, 0.4)]
        cfg = RetrievalConfig(lambda_=0.5, pool_size=3, k=3)
        assert _mmr(candidates, cfg) == ["s", "x", "y"]

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2026)
        for trial in range(200):
            n = int(rng.integers(1, 18))
            d = int(rng.integers(2, 7))
            vectors = [rng.normal(size=d) for _ in range(n)]
            # inject duplicates to exercise tie handling
            if n >= 4 and trial % 3 == 0:
                vectors[1] = vectors[0].copy()
            sims = [round(float(rng.uniform(-1, 1)), 3) for _ in range(n)]
            if n >= 4 and trial % 3 == 0:
                sims[1] = sims[0]
            candidates = [(i, vectors[i], sims[i]) for i in range(n)]
            lam = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            k = int(rng.integers(1, n + 1))
            cfg = RetrievalConfig(lambda_=lam, pool_size=n, k=k)
            assert _mmr(candidates, cfg) == mmr_oracle(candidates, lam, k), (
                f"trial {trial}: lam={lam} k={k}"
            )

    def test_select_capped_by_pool(self):
        with pytest.raises(ConfigError):
            RetrievalConfig(lambda_=0.75, pool_size=3, k=5)

    def test_pool_id_not_in_index_rejected(self):
        index = VectorIndex.build([np.array([1.0, 0.0])], ["a"])
        with pytest.raises(ValidationError, match="mmr pool id 'b' is not in the index"):
            mmr_select(index, [("a", 0.9), ("b", 0.5)], RetrievalConfig(pool_size=2, k=2))

    def test_reads_index_rows_by_pool_id(self):
        # c nearly duplicates a; the pool's order differs from the index's,
        # so reading rows by position would pick a second instead of b
        vectors = {
            "a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]), "c": np.array([1.0, 0.001])
        }
        index = VectorIndex.build(list(vectors.values()), list(vectors))
        pool = [("c", 0.9), ("a", 0.85), ("b", 0.5)]
        cfg = RetrievalConfig(lambda_=0.5, pool_size=3, k=3)
        candidates = [(pid, vectors[pid], sim) for pid, sim in pool]
        assert mmr_select(index, pool, cfg) == mmr_oracle(candidates, 0.5, 3) == ["c", "b", "a"]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError):
            mmr_select(VectorIndex.build([], []), [], RetrievalConfig())

    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            RetrievalConfig(lambda_=1.2)
