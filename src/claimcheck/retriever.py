"""Per-claim retrieval: chunk, BM25-prune, embed, KNN pool, MMR select.

The stage order is fixed. Chunking covers every document; BM25 cuts the
chunk set to omega before any embedding happens (embedding dominates
cost); exact cosine search builds the relevance pool; MMR picks the
final k sources, trading relevance against redundancy.

A warm retrieval, one whose embedding cache already holds vectors, keeps
its KNN pool next to the cache, in pool_{claim id}.pool (see PoolFile):
each member's store line and chunk, and its similarity to the claim,
keyed by pool_key. The pool depends on neither k nor lambda, so a rerun
under the same key re-selects from it: it decodes and chunks only the
pool's documents, takes their vectors from the cache and runs MMR, and
tokenizes, ranks, embeds and searches nothing. A cold run neither reads
nor writes a pool.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

from .corpus import (Chunk, Claim, Document, chunk_document, count_field, ignore_derived,
                     read_derived, str_field, write_derived)
from .dense import (
    EmbeddingCache,
    EmbeddingProviderConfig,
    VectorIndex,
    embed_cached,
    knn,
    mmr_select,
)
from .errors import ConfigError, ValidationError
from .lexical import TokenIds, bm25_top, build_index, encode, tokenize


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


# Bump whenever the output of tokenize, bm25_top, chunk_document, the
# dedup in retrieve, VectorIndex's normalization or knn changes: each
# decides a kept pool, so pools made by older code are then ignored
# (tests/test_lexical.py pins the output of tokenize and bm25_top).
POOL_VERSION = 1

POOL_FORMAT = "claimcheck-pool/1"


@dataclass(frozen=True)
class KeptPool:
    """A claim's KNN pool as its pool file holds it.

    members holds each pool member's store line, as a byte offset, and
    its chunk's index_in_doc, in pool order; sims holds each member's
    similarity to the claim; pruned_count is the number of chunks BM25
    kept.
    """

    pruned_count: int
    members: tuple[tuple[int, int], ...]
    sims: tuple[float, ...]

    @property
    def offsets(self) -> list[int]:
        """The members' line offsets, each once, ascending."""
        return sorted({offset for offset, _index in self.members})


@dataclass(frozen=True)
class PoolFile:
    """Where a claim's KNN pool is kept and under which key (pool_key),
    with the store line offset of each document retrieve is given
    (corpus.StoreLoadResult.offsets) and, to re-select from, the pool the
    file holds."""

    path: str
    key: str
    offsets: Sequence[int]
    kept: KeptPool | None = None


def pool_key(claim: Claim, file_id: tuple, cfg: RetrievalConfig,
             embedding_cfg: EmbeddingProviderConfig) -> str:
    """sha256 of what a claim's KNN pool depends on: POOL_VERSION, the
    claim's id and text, the identity of the store file that holds its
    lines (corpus.store_file_id), max_chars, omega, pool_size and the
    embedding model; not k or lambda, which only MMR reads.

    Each part is hashed as its UTF-8 byte length, then its bytes, so
    parts that concatenate alike but split differently differ. Lone
    surrogates, which a JSON store's escapes can hold, hash as their own
    bytes.
    """
    digest = hashlib.sha256()
    for part in (POOL_VERSION, claim.id, claim.text, *file_id, cfg.max_chars, cfg.omega,
                 cfg.pool_size, embedding_cfg.effective_model_name):
        data = str(part).encode("utf-8", "surrogatepass")
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def read_pool(path: str, key: str) -> KeptPool | None:
    """The pool kept at path under key, or None (see corpus.read_derived).

    The header holds the key, pruned_count and the entries, one
    [line offset, index_in_doc] per member; the payload holds the sims as
    little-endian float64. An empty pool, when no chunk matched the
    claim, is valid. Only the standard library is needed, so a warm
    rerun's first store load still comes before numpy is imported.
    """
    def parse(header: dict, payload: bytes) -> KeptPool:
        if str_field(header, "key") != key:
            raise ValidationError(
                "the pool of another claim, store state, setting, model or version")
        pruned_count = count_field(header, "pruned_count")
        entries = header["entries"]
        if not isinstance(entries, list):
            raise ValidationError("'entries' must be an array")
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(type(n) is int and n >= 0 for n in entry)):
                raise ValidationError(f"entry {entry!r} is not a line offset and a chunk index")
        members = tuple(map(tuple, entries))
        if len(set(members)) != len(members):
            raise ValidationError("an entry is repeated")
        if len(members) > pruned_count or bool(members) != bool(pruned_count):
            raise ValidationError(f"{len(members)} entries of {pruned_count} pruned chunks")
        if len(payload) != 8 * len(members):
            raise ValidationError(f"payload of {len(payload)} bytes, not {len(members)} sims")
        sims = struct.unpack(f"<{len(members)}d", payload)
        if not all(map(math.isfinite, sims)):
            raise ValidationError("a sim is not finite")
        return KeptPool(pruned_count=pruned_count, members=members, sims=sims)

    return read_derived(path, POOL_FORMAT, parse)


def _write_pool(pool: PoolFile, pruned_count: int, members: list, sims: list[float]) -> None:
    header = {"key": pool.key, "pruned_count": pruned_count, "entries": members}
    write_derived(pool.path, POOL_FORMAT, header, struct.pack(f"<{len(sims)}d", *sims))


def _empty_result(claim: Claim) -> RetrievalResult:
    return RetrievalResult(
        claim_id=claim.id,
        sources=(),
        trace={"claim_id": claim.id, "pruned_count": 0, "pool": [], "selected": []},
    )


def _result(claim: Claim, pruned_count: int, chunks: Sequence[Chunk], pool: list,
            selected: list[int]) -> RetrievalResult:
    """The sources and trace of a KNN pool, (id, sim) pairs as knn returns
    them, of which MMR selected the given ids; each id is a position in
    chunks."""
    sim_by_id = dict(pool)
    sources = tuple(
        RetrievedSource(rank=i + 1, chunk=chunks[c], sim_to_claim=sim_by_id[c])
        for i, c in enumerate(selected)
    )
    trace = {
        "claim_id": claim.id,
        "pruned_count": pruned_count,
        "pool": [{"key": chunks[c].key, "sim": sim} for c, sim in pool],
        "selected": [{"key": s.chunk.key, "rank": s.rank} for s in sources],
    }
    return RetrievalResult(claim_id=claim.id, sources=sources, trace=trace)


def _pruned(claim_text: str, texts: list[str], omega: int) -> tuple[TokenIds, list[int]]:
    """The ordinals of BM25's top-omega chunks, in rank order, and the
    token ids they were ranked by: row 0 the claim's, row o + 1 chunk o's.

    A claim's chunks repeat a few thousand words hundreds of thousands of
    times: as ids, each token is four bytes, and tokenize's strings are
    dropped row by row.
    """
    table = encode(map(tokenize, [claim_text, *texts]))
    query_tokens = table.tokens(0)
    order = []
    # BM25 needs a query and at least one chunk with a token
    if query_tokens and table.starts[-1] > table.starts[1]:
        index = build_index(table.select(range(1, len(table))), terms=query_tokens)
        order = [ordinal for ordinal, _score in bm25_top(index, query_tokens, omega)]
    return table, order


def retrieve(
    claim: Claim,
    docs: list[Document],
    cfg: RetrievalConfig,
    embedding_cfg: EmbeddingProviderConfig,
    cache: EmbeddingCache | None = None,
    pool: PoolFile | None = None,
) -> RetrievalResult | None:
    """Run the retrieval pipeline for one claim.

    pool, given with a cache, is the claim's pool file. With pool.kept
    set, docs are the documents at the kept pool's lines, and the result
    is re-selected from the kept pool; when the pool does not resolve (an
    entry names no document or chunk of docs, or a member's vector is not
    cached), the file is logged as ignored and None is returned, and the
    caller retrieves in full. Otherwise docs are all the claim's
    documents and, when the cache already holds vectors, the KNN pool is
    kept in the file.
    """
    if pool is not None and pool.kept is not None:
        return _reselect(claim, docs, cfg, embedding_cfg, cache, pool)
    keep = pool if cache is not None and len(cache) > 0 else None
    chunks: list[Chunk] = []
    owner: list[int] = []  # the position in docs of each chunk's document
    for position, doc in enumerate(docs):
        doc_chunks = chunk_document(doc, cfg.max_chars)
        chunks.extend(doc_chunks)
        owner.extend([position] * len(doc_chunks))
    table, pruned = _pruned(claim.text, [c.text for c in chunks], cfg.omega)
    if not pruned:
        if keep is not None:
            _write_pool(keep, 0, [], [])
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
    # the mock embedder reuses these ids instead of tokenizing again;
    # they are a copy (rows ranked by score rarely run consecutively), so
    # the table is freed before the embedder's own arrays are made, which
    # keeps the claim's peak memory down
    tokens = table.select([0] + [o + 1 for o in survivors])
    del table
    vectors = embed_cached(texts, claim.id, embedding_cfg, cache, tokens)

    index_dense = VectorIndex.build(vectors[1:], survivors)
    knn_pool = knn(index_dense, vectors[0], cfg.pool_size)
    selected = mmr_select(index_dense, knn_pool, cfg)
    if keep is not None:
        members = [[keep.offsets[owner[o]], chunks[o].index_in_doc] for o, _sim in knn_pool]
        _write_pool(keep, len(pruned), members, [sim for _o, sim in knn_pool])
    return _result(claim, len(pruned), chunks, knn_pool, selected)


def _reselect(claim: Claim, docs: list[Document], cfg: RetrievalConfig,
              embedding_cfg: EmbeddingProviderConfig, cache: EmbeddingCache,
              pool: PoolFile) -> RetrievalResult | None:
    """MMR's selection from the pool kept in pool, whose members' chunks
    are cut from docs and whose vectors the cache holds; None, with the
    pool file logged as ignored, when they are not all there.

    The index is built over the pool's vectors alone; normalization is
    per row, so each row equals the full index's row bit for bit, and
    knn's kept sims lead MMR as they did when the pool was found.
    """
    kept = pool.kept
    doc_at = dict(zip(pool.offsets, docs))
    chunked: dict[int, list[Chunk]] = {}
    chunks: list[Chunk] = []
    for n, (offset, index) in enumerate(kept.members):
        if offset not in chunked:
            if offset not in doc_at:
                ignore_derived(pool.path, f"entry {n}: no document of claim {claim.id}"
                                          f" starts at byte {offset}")
                return None
            chunked[offset] = chunk_document(doc_at[offset], cfg.max_chars)
        if index >= len(chunked[offset]):
            ignore_derived(pool.path, f"entry {n}: chunk {index} of a document of"
                                      f" {len(chunked[offset])} chunks")
            return None
        chunks.append(chunked[offset][index])
    if not chunks:
        return _empty_result(claim)
    model = embedding_cfg.effective_model_name
    vectors = [cache.get(EmbeddingCache.key_for(claim.id, model, c.text)) for c in chunks]
    if any(v is None for v in vectors) or len({v.shape for v in vectors}) > 1:
        ignore_derived(pool.path, "a member's vector is not cached, or not of the others' shape")
        return None
    ids = list(range(len(chunks)))
    knn_pool = list(zip(ids, kept.sims))
    selected = mmr_select(VectorIndex.build(vectors, ids), knn_pool, cfg)
    return _result(claim, kept.pruned_count, chunks, knn_pool, selected)
