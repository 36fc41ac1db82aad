import dataclasses
import json
import os
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import claimcheck.dense as dense
import claimcheck.retriever as retriever
from claimcheck.corpus import Claim, Document, chunk_document, load_knowledge_store
from claimcheck.dense import (
    EmbeddingCache,
    EmbeddingProviderConfig,
    mock_embed,
    VectorIndex,
    knn,
)
from claimcheck.errors import ConfigError, ProviderError
from claimcheck.lexical import bm25_top, build_index, tokenize
from claimcheck.retriever import PoolFile, RetrievalConfig, pool_key, read_pool, retrieve

MOCK = EmbeddingProviderConfig(kind="mock")


def _claim(text, cid=0):
    return Claim(id=cid, text=text)


def _docs_for(claims_fixture_path, cid, store_path):
    return list(load_knowledge_store(store_path, cid).documents)


class TestConfig:
    def test_stage_size_invariant(self):
        with pytest.raises(ConfigError):
            RetrievalConfig(k=10, pool_size=5, omega=100)
        with pytest.raises(ConfigError):
            RetrievalConfig(k=2, pool_size=50, omega=40)
        RetrievalConfig(k=2, pool_size=2, omega=2)  # equality allowed

    def test_lambda_and_chars(self):
        with pytest.raises(ConfigError):
            RetrievalConfig(lambda_=-0.1)
        with pytest.raises(ConfigError):
            RetrievalConfig(max_chars=0)


class TestPipeline:
    def test_fixture_claim_end_to_end(self, knowledge_store_path, claims):
        claim = claims[0]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cfg = RetrievalConfig(max_chars=200, omega=50, pool_size=8, k=4)
        result = retrieve(claim, docs, cfg, MOCK)
        assert result.claim_id == claim.id
        assert 1 <= len(result.sources) <= 4
        assert [s.rank for s in result.sources] == list(range(1, len(result.sources) + 1))
        keys = [s.chunk.key for s in result.sources]
        assert len(set(keys)) == len(keys)

    def test_trace_shape(self, knowledge_store_path, claims):
        claim = claims[0]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cfg = RetrievalConfig(max_chars=200, omega=50, pool_size=8, k=4)
        result = retrieve(claim, docs, cfg, MOCK)
        trace = result.trace
        assert trace["claim_id"] == claim.id
        assert trace["pruned_count"] >= len(trace["pool"]) >= len(trace["selected"])
        assert [e["rank"] for e in trace["selected"]] == list(
            range(1, len(result.sources) + 1)
        )
        pool_keys = {e["key"] for e in trace["pool"]}
        assert all(e["key"] in pool_keys for e in trace["selected"])
        json.dumps(trace)  # must be serializable as-is

    def test_stagewise_matches_manual_composition(self, knowledge_store_path, claims):
        """Pipeline output equals running the stages by hand in order."""
        claim = claims[2]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cfg = RetrievalConfig(max_chars=150, omega=30, pool_size=6, k=3)

        chunks = []
        for doc in docs:
            chunks.extend(chunk_document(doc, cfg.max_chars))
        index = build_index([tokenize(c.text) for c in chunks])
        pruned = bm25_top(index, tokenize(claim.text), cfg.omega)
        survivors, seen = [], set()
        for ordinal, _ in pruned:
            if chunks[ordinal].text not in seen:
                seen.add(chunks[ordinal].text)
                survivors.append(ordinal)
        claim_vec = mock_embed(claim.text)
        chunk_vecs = [mock_embed(chunks[o].text) for o in survivors]
        dense_index = VectorIndex.build(chunk_vecs, survivors)
        pool = knn(dense_index, claim_vec, cfg.pool_size)

        result = retrieve(claim, docs, cfg, MOCK)
        assert [e["key"] for e in result.trace["pool"]] == [
            chunks[o].key for o, _ in pool
        ]
        got_sims = [e["sim"] for e in result.trace["pool"]]
        assert got_sims == [s for _, s in pool]
        assert result.trace["pruned_count"] == len(pruned)

    def test_rank_one_is_mmr_first_not_necessarily_highest_sim(self):
        # with heavy redundancy, MMR reorders below the top pick
        base = "the comet passed close to earth in twenty thirty one"
        docs = [
            Document(url=f"u{i}", sentences=(f"{base} variant {i}.",))
            for i in range(6)
        ]
        claim = _claim("comet passed close to earth")
        cfg = RetrievalConfig(max_chars=500, omega=10, pool_size=6, k=3, lambda_=0.3)
        result = retrieve(claim, docs, cfg, MOCK)
        assert len(result.sources) == 3
        assert result.sources[0].sim_to_claim == max(
            s.sim_to_claim for s in result.sources
        )

    def test_duplicate_chunk_texts_deduped(self):
        sent = "The Halvern Bridge was completed in 1977."
        docs = [
            Document(url="mirror-a", sentences=(sent,)),
            Document(url="mirror-b", sentences=(sent,)),
            Document(url="other", sentences=("The Ruden River floods in spring.",)),
        ]
        claim = _claim("Halvern Bridge completed 1977 Ruden River")
        cfg = RetrievalConfig(max_chars=500, omega=10, pool_size=5, k=3)
        result = retrieve(claim, docs, cfg, MOCK)
        texts = [s.chunk.text for s in result.sources]
        assert len(texts) == len(set(texts))
        assert len(result.sources) == 2  # three chunks, two distinct texts
        # the best-ranked duplicate survives: mirror-a precedes mirror-b
        assert {s.chunk.doc_url for s in result.sources} == {"mirror-a", "other"}

    def test_k_honored_when_enough_distinct(self):
        docs = [
            Document(url=f"u{i}", sentences=(f"bridge river span {i} words here.",))
            for i in range(12)
        ]
        claim = _claim("bridge river span")
        cfg = RetrievalConfig(max_chars=500, omega=20, pool_size=12, k=5)
        result = retrieve(claim, docs, cfg, MOCK)
        assert len(result.sources) == 5

    def test_empty_docs_gives_empty_result(self):
        claim = _claim("anything at all")
        result = retrieve(claim, [], RetrievalConfig(), MOCK)
        assert result.sources == ()
        assert result.trace == {
            "claim_id": 0,
            "pruned_count": 0,
            "pool": [],
            "selected": [],
        }

    def test_no_lexical_overlap_gives_empty_result(self):
        docs = [Document(url="u", sentences=("entirely unrelated words here.",))]
        claim = _claim("zyxxyq qqzzyx")
        result = retrieve(claim, docs, RetrievalConfig(), MOCK)
        assert result.sources == ()
        assert result.trace["pruned_count"] == 0

    def test_deterministic_across_runs(self, knowledge_store_path, claims):
        claim = claims[4]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cfg = RetrievalConfig(max_chars=180, omega=40, pool_size=8, k=4)
        a = retrieve(claim, docs, cfg, MOCK)
        b = retrieve(claim, docs, cfg, MOCK)
        assert json.dumps(a.trace, sort_keys=True) == json.dumps(b.trace, sort_keys=True)
        assert [s.chunk.key for s in a.sources] == [s.chunk.key for s in b.sources]

    def test_cache_does_not_change_results(self, tmp_path, knowledge_store_path, claims):
        claim = claims[9]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cfg = RetrievalConfig(max_chars=180, omega=40, pool_size=8, k=4)
        plain = retrieve(claim, docs, cfg, MOCK)
        cache = EmbeddingCache(str(tmp_path / f"emb_{claim.id}.cache"))
        cold = retrieve(claim, docs, cfg, MOCK, cache=cache)
        warm = retrieve(claim, docs, cfg, MOCK, cache=cache)
        for other in (cold, warm):
            assert json.dumps(other.trace, sort_keys=True) == json.dumps(
                plain.trace, sort_keys=True
            )

    def test_embedder_failure_raises_provider_error(
        self, stub_server, knowledge_store_path, claims
    ):
        server, base_url = stub_server
        server.app = lambda path, body, headers: (200, b"[" * 200_000)
        claim = claims[0]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cfg = EmbeddingProviderConfig(
            kind="http", base_url=base_url, model_name="emb-1", retries=0
        )
        with pytest.raises(ProviderError) as exc:
            retrieve(claim, docs, RetrievalConfig(), cfg)
        assert str(exc.value).startswith("embeddings response is not JSON: ")

    def test_sim_values_are_cosine_to_claim(self, knowledge_store_path, claims):
        claim = claims[8]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cfg = RetrievalConfig(max_chars=300, omega=40, pool_size=8, k=4)
        result = retrieve(claim, docs, cfg, MOCK)
        claim_vec = mock_embed(claim.text)
        for s in result.sources:
            expect = float(np.dot(claim_vec, mock_embed(s.chunk.text)))
            assert abs(s.sim_to_claim - expect) < 1e-12


class TestOneMatrix:
    def test_vectors_checked_once_per_claim(
        self, knowledge_store_path, claims, tmp_path, monkeypatch
    ):
        """VectorIndex.build checks the chunk matrix whole; only knn's query is checked alone."""
        checked = []
        real = dense._check_vector

        def counting(values, what):
            checked.append(what)
            return real(values, what)

        monkeypatch.setattr(dense, "_check_vector", counting)
        cfg = RetrievalConfig(max_chars=200, omega=50, pool_size=8, k=4)
        cache = EmbeddingCache(str(tmp_path / "emb.cache"))
        for claim in claims:
            docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
            for run_cache in (None, cache, cache):  # uncached, cold cache, warm cache
                checked.clear()
                result = retrieve(claim, docs, cfg, MOCK, run_cache)
                assert checked == (["knn query"] if result.trace["pool"] else [])


def _count_tokenize(monkeypatch) -> dict[str, list[str]]:
    """Texts tokenized through retriever's and dense's names, per module."""
    calls: dict[str, list[str]] = {"retriever": [], "dense": []}
    for name, module in (("retriever", retriever), ("dense", dense)):
        real = module.tokenize

        def counting(text, *args, _real=real, _calls=calls[name]):
            _calls.append(text)
            return _real(text, *args)

        monkeypatch.setattr(module, "tokenize", counting)
    return calls


class TestTokensOnce:
    CFG = RetrievalConfig(max_chars=200, omega=50, pool_size=8, k=4)

    def _inputs(self, store_path, claim):
        docs = list(load_knowledge_store(store_path, claim.id).documents)
        chunks = [c for d in docs for c in chunk_document(d, self.CFG.max_chars)]
        return docs, [c.text for c in chunks]

    @pytest.mark.parametrize("cached", [False, True])
    def test_each_chunk_tokenized_once(
        self, knowledge_store_path, claims, tmp_path, monkeypatch, cached
    ):
        claim = claims[0]
        docs, chunk_texts = self._inputs(knowledge_store_path, claim)
        assert claim.text not in chunk_texts
        cache = EmbeddingCache(str(tmp_path / "emb_0.cache")) if cached else None
        calls = _count_tokenize(monkeypatch)
        retrieve(claim, docs, self.CFG, MOCK, cache=cache)
        assert Counter(calls["retriever"]) == Counter(chunk_texts + [claim.text])
        # the claim's and the chunks' tokens are passed to the mock embedder
        assert calls["dense"] == []

    def test_repeated_words_are_one_object(self, knowledge_store_path, claims, monkeypatch):
        claim = claims[0]
        docs, chunk_texts = self._inputs(knowledge_store_path, claim)
        lent = []
        real = retriever.embed_cached

        def capturing(texts, claim_id, cfg, cache, tokens):
            lent.append((texts, tokens))
            return real(texts, claim_id, cfg, cache, tokens)

        monkeypatch.setattr(retriever, "embed_cached", capturing)
        retrieve(claim, docs, self.CFG, MOCK)
        ((texts, table),) = lent
        assert len(table) == len(texts)
        assert [table.tokens(i) for i in range(len(texts))] == [tokenize(t) for t in texts]
        # each distinct word is held once, as one id
        assert len(set(table.words)) == len(table.words)
        ids = table.ids.tolist()
        # make sure words repeat, so the check above means something
        assert len(ids) - len(set(ids)) > 20

    def test_threads_match_sequential_runs(self, knowledge_store_path, claims, monkeypatch):
        jobs = [(c, self._inputs(knowledge_store_path, c)[0]) for c in claims[:2]]
        real = dense.embed_batch
        vectors: dict[str, list] = {}

        def recording(texts, cfg, tokens=None):
            out = real(texts, cfg, tokens)
            vectors[texts[0]] = out  # texts[0] is the claim
            return out

        monkeypatch.setattr(dense, "embed_batch", recording)
        sequential = [retrieve(c, d, self.CFG, MOCK) for c, d in jobs]
        expected = dict(vectors)
        vectors.clear()

        barrier = threading.Barrier(len(jobs), timeout=10)

        def meet_then_embed(texts, cfg, tokens=None):
            barrier.wait()  # both claims embed at once
            return recording(texts, cfg, tokens)

        monkeypatch.setattr(dense, "embed_batch", meet_then_embed)
        calls = _count_tokenize(monkeypatch)
        results = [None] * len(jobs)

        def run(i):
            results[i] = retrieve(*jobs[i], self.CFG, MOCK)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert results == sequential
        assert vectors.keys() == expected.keys()
        for text, want in expected.items():
            assert all(np.array_equal(g, w) for g, w in zip(vectors[text], want, strict=True))
        # each thread passed its own tokens: the mock tokenized nothing
        assert calls["dense"] == []


class TestKeptPool:
    """A warm run keeps its KNN pool in pool_{id}.pool next to the
    embedding cache; a rerun under the same key re-selects from it: it
    chunks only the pool's documents and neither tokenizes, ranks, embeds
    nor searches. Here the documents' line offsets are their positions."""

    CFG = RetrievalConfig(max_chars=200, omega=50, pool_size=8, k=4)

    @staticmethod
    def _pool_file(tmp_path, claim, docs, cfg=CFG, model=MOCK):
        key = pool_key(claim, ("docs",), cfg, model)
        return PoolFile(str(tmp_path / f"pool_{claim.id}.pool"), key, tuple(range(len(docs))))

    @staticmethod
    def _reselect(claim, docs, pool, cache, cfg=CFG, model=MOCK):
        """retrieve from the pool kept at pool.path, given only its documents."""
        kept = read_pool(pool.path, pool.key)
        assert kept is not None
        return retrieve(claim, [docs[o] for o in kept.offsets], cfg, model, cache,
                        PoolFile(pool.path, pool.key, kept.offsets, kept))

    def _runs(self, tmp_path, claim, docs, n=3):
        """n retrievals through one cache: the first cold, the second
        keeping the pool, the rest re-selecting from it."""
        cache = EmbeddingCache(str(tmp_path / f"emb_{claim.id}.cache"))
        pool = self._pool_file(tmp_path, claim, docs)
        runs = [retrieve(claim, docs, self.CFG, MOCK, cache, pool) for _ in range(min(n, 2))]
        runs += [self._reselect(claim, docs, pool, cache) for _ in range(n - 2)]
        return cache, pool, runs

    @staticmethod
    def _count(monkeypatch) -> dict[str, list]:
        """_count_tokenize's texts, and the arguments of each bm25_top,
        embed_cached and knn call and the document of each chunk_document
        call through retriever's names."""
        calls = _count_tokenize(monkeypatch)
        for name in ("bm25_top", "embed_cached", "knn", "chunk_document"):
            made = calls[name] = []
            real = getattr(retriever, name)
            monkeypatch.setattr(retriever, name,
                                lambda *a, _real=real, _made=made: _made.append(a) or _real(*a))
        return calls

    def test_reselection_neither_tokenizes_ranks_embeds_nor_searches(
        self, knowledge_store_path, claims, tmp_path, monkeypatch
    ):
        for claim in claims:
            docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
            cache, pool, _ = self._runs(tmp_path, claim, docs, 2)
            kept = read_pool(pool.path, pool.key)
            calls = self._count(monkeypatch)
            self._reselect(claim, docs, pool, cache)
            chunked = [a[0] for a in calls.pop("chunk_document")]
            assert chunked == [docs[o] for o in kept.offsets]
            assert calls == {"retriever": [], "dense": [], "bm25_top": [], "embed_cached": [],
                             "knn": []}
            monkeypatch.undo()

    def test_reselection_equals_the_cold_path(self, knowledge_store_path, claims, tmp_path):
        """Sources and traces alike, for every k and lambda the pool allows."""
        for claim in claims:
            docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
            cache, pool, runs = self._runs(tmp_path, claim, docs)
            assert runs == [retrieve(claim, docs, self.CFG, MOCK)] * 3
            for k in (1, 3, 8):
                for lambda_ in (0.0, 0.6, 1.0):
                    cfg = RetrievalConfig(max_chars=200, omega=50, pool_size=8, k=k,
                                          lambda_=lambda_)
                    assert self._reselect(claim, docs, pool, cache, cfg) == retrieve(
                        claim, docs, cfg, MOCK)

    def test_cold_cache_keeps_no_pool(self, knowledge_store_path, claims, tmp_path):
        claim = claims[0]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        _, pool, _ = self._runs(tmp_path, claim, docs, 1)
        assert not os.path.exists(pool.path)

    def test_lone_surrogate_on_reselection(self, tmp_path):
        docs = [
            Document(url="u", sentences=("The bridge \ud800 spans the river.",)),
            Document(url="v", sentences=("A river without a bridge.",)),
        ]
        claim = _claim("bridge over the river \udfff")
        plain = retrieve(claim, docs, self.CFG, MOCK)
        assert any("\ud800" in s.chunk.text for s in plain.sources)
        _, _, runs = self._runs(tmp_path, claim, docs)
        assert runs == [plain] * 3

    def test_parts_that_concatenate_alike_do_not_share_a_key(self):
        """Claim 1 "2 bridge" and claim 12 " bridge"; models "ab" and "a"
        after a store path ending in "b"."""
        a = pool_key(_claim("2 bridge", 1), ("docs",), self.CFG, MOCK)
        b = pool_key(_claim(" bridge", 12), ("docs",), self.CFG, MOCK)
        assert a != b
        claim = _claim("bridge")
        ab = EmbeddingProviderConfig(kind="mock", model_name="ab")
        assert pool_key(claim, ("docs",), self.CFG, ab) != pool_key(
            claim, ("docsb",), self.CFG, EmbeddingProviderConfig(kind="mock", model_name="a"))

    def test_empty_pool_round_trips(self, tmp_path, monkeypatch):
        """A warm claim that matches no chunk keeps a pool of no members,
        and the next run re-selects from it."""
        claim = _claim("bridge over the river")
        unmatched = [Document(url="v", sentences=("Nothing here is alike.",))]
        plain = retrieve(claim, unmatched, self.CFG, MOCK)
        assert plain.sources == () and plain.trace["pruned_count"] == 0
        # one cold run over a matching chunk caches its vectors
        matching = [Document(url="u", sentences=("The bridge spans the river.",))]
        cache, pool, _ = self._runs(tmp_path, claim, matching, 1)
        pool = self._pool_file(tmp_path, claim, unmatched)
        assert not os.path.exists(pool.path)
        assert retrieve(claim, unmatched, self.CFG, MOCK, cache, pool) == plain
        header, _, payload = Path(pool.path).read_bytes().partition(b"\n")
        header = json.loads(header)
        assert (header["pruned_count"], header["entries"], payload) == (0, [], b"")
        calls = self._count(monkeypatch)
        assert self._reselect(claim, unmatched, pool, cache) == plain
        assert calls == {"retriever": [], "dense": [], "bm25_top": [], "embed_cached": [],
                         "knn": [], "chunk_document": []}

    def test_another_embedding_model_has_another_key(
        self, knowledge_store_path, claims, tmp_path, caplog
    ):
        """The pool kept for one model is not read for another; given to
        retrieve all the same, it does not resolve, as the cache holds no
        vector of that model, and the file is logged as ignored."""
        claim = claims[0]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cache, pool, _ = self._runs(tmp_path, claim, docs, 2)
        other = EmbeddingProviderConfig(kind="mock", model_name="mock-other")
        assert read_pool(pool.path, pool_key(claim, ("docs",), self.CFG, other)) is None
        kept = read_pool(pool.path, pool.key)
        with caplog.at_level("INFO", logger="claimcheck.corpus"):
            assert retrieve(claim, [docs[o] for o in kept.offsets], self.CFG, other, cache,
                            PoolFile(pool.path, pool.key, kept.offsets, kept)) is None
        assert f"ignoring derived file {pool.path}: " in caplog.text

    def test_entry_naming_no_document_or_chunk_does_not_resolve(
        self, knowledge_store_path, claims, tmp_path, caplog
    ):
        claim = claims[0]
        docs = list(load_knowledge_store(knowledge_store_path, claim.id).documents)
        cache, pool, _ = self._runs(tmp_path, claim, docs, 2)
        kept = read_pool(pool.path, pool.key)
        (offset, index), *rest = kept.members
        for members in ([(offset, index + 99), *rest], [(len(docs), index), *rest]):
            bad = dataclasses.replace(kept, members=tuple(members))
            with caplog.at_level("INFO", logger="claimcheck.corpus"):
                assert retrieve(claim, docs, self.CFG, MOCK, cache,
                                PoolFile(pool.path, pool.key, pool.offsets, bad)) is None
            assert f"ignoring derived file {pool.path}: entry 0: " in caplog.text
            caplog.clear()
