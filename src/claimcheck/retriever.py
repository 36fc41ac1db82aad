"""Per-claim retrieval: chunk, BM25-prune, embed, KNN pool, MMR select.

The stage order is fixed. Chunking covers every document; BM25 cuts the
chunk set to omega before any embedding happens (embedding dominates
cost); exact cosine search builds the relevance pool; MMR picks the
final k sources, trading relevance against redundancy.

A warm run, one whose embedding cache already holds vectors, keeps BM25's
pruned order (lexical.parse_pruned) next to the cache, pruned_{claim
id}.order, keyed by the claim text, omega and the chunk texts. A rerun
with the same key reads it and neither tokenizes nor ranks; the vectors
of the chunks it names are cached already. A cold run neither reads nor
writes one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

from .corpus import Chunk, Claim, Document, chunk_document, read_derived, write_derived
from .dense import (
    EmbeddingCache,
    EmbeddingProviderConfig,
    VectorIndex,
    embed_cached,
    knn,
    mmr_select,
)
from .errors import ConfigError
from .lexical import (
    PRUNED_ORDER_FORMAT,
    TokenIds,
    bm25_top,
    build_index,
    encode,
    parse_pruned,
    prune_key,
    pruned_order_record,
    tokenize,
)


@dataclass(frozen=True)
class RetrievalConfig:
    max_chars: int = 2048
    omega: int = 6000
    pool_size: int = 40
    k: int = 10
    lambda_: float = 0.75

    def __post_init__(self):
        if self.max_chars < 1:
            raise ConfigError("max_chars must be >= 1")
        if not 1 <= self.k <= self.pool_size <= self.omega:
            raise ConfigError(
                f"need 1 <= k <= pool_size <= omega, got k={self.k}, "
                f"pool_size={self.pool_size}, omega={self.omega}"
            )
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError("lambda must be in [0, 1]")


@dataclass(frozen=True)
class RetrievedSource:
    rank: int
    chunk: Chunk
    sim_to_claim: float


@dataclass(frozen=True)
class RetrievalResult:
    """Sources plus the stage-by-stage trace.

    An empty sources list is a legitimate outcome (nothing matched the
    claim lexically), not an error; downstream generation short-circuits
    to Not Enough Evidence.
    """

    claim_id: int
    sources: tuple[RetrievedSource, ...]
    trace: dict


def _empty_result(claim: Claim) -> RetrievalResult:
    return RetrievalResult(
        claim_id=claim.id,
        sources=(),
        trace={"claim_id": claim.id, "pruned_count": 0, "pool": [], "selected": []},
    )


def _pruned(
    claim: Claim, texts: list[str], omega: int, cache: EmbeddingCache | None
) -> tuple[TokenIds | None, list[int]]:
    """The ordinals of BM25's top-omega chunks, in rank order, and the
    token ids they were ranked by: row 0 the claim's, row o + 1 chunk o's.

    A claim's chunks repeat a few thousand words hundreds of thousands of
    times: as ids, each token is four bytes, and tokenize's strings are
    dropped row by row. With a warm cache the order is read from the
    claim's pruned-order file, and then no ids are built (None), or is
    kept there for the next run.
    """
    warm = cache is not None and len(cache) > 0
    if warm:
        key = prune_key(claim.text, omega, texts)
        path = os.path.join(os.path.dirname(cache.path), f"pruned_{claim.id}.order")
        order = read_derived(path, PRUNED_ORDER_FORMAT, partial(parse_pruned, key, len(texts)))
        if order is not None:
            return None, order
    table = encode(map(tokenize, [claim.text, *texts]))
    query_tokens = table.tokens(0)
    order = []
    # BM25 needs a query and at least one chunk with a token
    if query_tokens and table.starts[-1] > table.starts[1]:
        index = build_index(table.select(range(1, len(table))), terms=query_tokens)
        order = [ordinal for ordinal, _score in bm25_top(index, query_tokens, omega)]
    if warm:
        write_derived(path, PRUNED_ORDER_FORMAT, *pruned_order_record(key, order))
    return table, order


def retrieve(
    claim: Claim,
    docs: list[Document],
    cfg: RetrievalConfig,
    embedding_cfg: EmbeddingProviderConfig,
    cache: EmbeddingCache | None = None,
) -> RetrievalResult:
    """Run the full retrieval pipeline for one claim."""
    chunks: list[Chunk] = []
    for doc in docs:
        chunks.extend(chunk_document(doc, cfg.max_chars))
    table, pruned = _pruned(claim, [c.text for c in chunks], cfg.omega, cache)
    if not pruned:
        return _empty_result(claim)

    # Duplicate chunk texts (mirrored pages, boilerplate) would let MMR
    # hand back the same evidence twice; keep the best-ranked copy only.
    survivors: list[int] = []
    seen_texts: set[str] = set()
    for ordinal in pruned:
        text = chunks[ordinal].text
        if text in seen_texts:
            continue
        seen_texts.add(text)
        survivors.append(ordinal)

    texts = [claim.text] + [chunks[o].text for o in survivors]
    # the mock embedder reuses these ids instead of tokenizing again (a
    # warm run that read its order has none, and tokenizes only the texts
    # the cache lacks); they are a copy (rows ranked by score rarely run
    # consecutively), so the table is freed before the embedder's own
    # arrays are made, which keeps the claim's peak memory down
    tokens = None if table is None else table.select([0] + [o + 1 for o in survivors])
    del table
    vectors = embed_cached(texts, claim.id, embedding_cfg, cache, tokens)

    index_dense = VectorIndex.build(vectors[1:], survivors)
    pool = knn(index_dense, vectors[0], cfg.pool_size)
    selected = mmr_select(index_dense, pool, cfg)

    sim_by_ordinal = dict(pool)
    sources = tuple(
        RetrievedSource(
            rank=i + 1, chunk=chunks[ordinal], sim_to_claim=sim_by_ordinal[ordinal]
        )
        for i, ordinal in enumerate(selected)
    )
    trace = {
        "claim_id": claim.id,
        "pruned_count": len(pruned),
        "pool": [
            {"key": chunks[ordinal].key, "sim": sim} for ordinal, sim in pool
        ],
        "selected": [
            {"key": s.chunk.key, "rank": s.rank} for s in sources
        ],
    }
    return RetrievalResult(claim_id=claim.id, sources=sources, trace=trace)
