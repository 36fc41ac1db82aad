"""Embeddings, exact cosine search, and MMR reranking.

The embedding provider is pluggable: an HTTP provider speaking an
OpenAI-style /embeddings endpoint, or a deterministic offline mock that
feature-hashes tokens into a fixed-dimension vector. Search is exact
(full scan): per-claim candidate sets are a few thousand vectors at
most, so approximate indexes would only add a dependency. A claim's
vectors are cached in one append-only file of checksummed float64
batches (EmbeddingCache), so reruns embed only new texts. VectorIndex
owns validation and normalization: build checks and unit-normalizes a
claim's vectors once, as one matrix, and knn and mmr_select read its
rows without checking them again. numpy is imported when an array is
first computed, so a command that computes none (evaluate) loads none.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .appendlog import AppendLog
from .corpus import json_record
from .errors import ConfigError, ProviderError, ValidationError, post_json
from .lexical import TokenIds, encode, tokenize

if TYPE_CHECKING:
    import numpy as np

    from .retriever import RetrievalConfig

MOCK_DIM = 64


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    kind: str = "mock"
    base_url: str | None = None
    model_name: str | None = None
    batch_size: int = 64
    timeout_s: float = 30.0
    retries: int = 3
    api_key_env: str = "CLAIMCHECK_API_KEY"

    def __post_init__(self):
        if self.kind not in ("http", "mock"):
            raise ConfigError(f"unknown embedding provider kind: {self.kind!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ConfigError("timeout_s must be finite and positive")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.kind == "http" and not (self.base_url and self.model_name):
            raise ConfigError("http embedding provider requires base_url and model_name")

    @property
    def effective_model_name(self) -> str:
        return self.model_name or f"mock-{MOCK_DIM}"


def _check_array(values, what: str, ndim: int) -> np.ndarray:
    """values as a non-empty float64 vector (ndim 1) or matrix (ndim 2), all finite."""
    import numpy as np

    noun = "vector" if ndim == 1 else "matrix"
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{what}: not a {noun} of numbers: {exc}") from exc
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{what}: expected a non-empty {ndim}-d {noun}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: {noun} has NaN or inf components")
    return arr


def _check_vector(values, what: str) -> np.ndarray:
    return _check_array(values, what, 1)


def _bucket_code(word: str) -> int:
    """word's bucket, plus MOCK_DIM when its sign is negative.

    The bucket is the first four blake2b digest bytes mod MOCK_DIM, the
    sign the fifth byte's parity.
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest[:4], "little") % MOCK_DIM + MOCK_DIM * (digest[4] & 1)


def _hashed_vectors(table: TokenIds) -> np.ndarray:
    """mock_embed of each row of table, as the rows of one (n, MOCK_DIM) array.

    Each vocabulary word is hashed once. All rows' bucket codes go
    through one bincount, each row's shifted to its own row of counts.
    Bucket sums are integer counts, exact in any order, and so is each
    row's sum of squares, so every row is bit-identical to adding +-1.0
    token by token and dividing by np.linalg.norm.
    """
    import numpy as np

    n = len(table)
    codes = np.fromiter(map(_bucket_code, table.words), np.intp, len(table.words))
    flat = codes[table.ids]
    # int32 row offsets: half the memory of an intp array per token
    offsets = np.arange(0, n * 2 * MOCK_DIM, 2 * MOCK_DIM, dtype=np.int32)
    flat += np.repeat(offsets, np.diff(table.starts))
    counts = np.bincount(flat, minlength=n * 2 * MOCK_DIM).reshape(n, 2 * MOCK_DIM)
    diff = counts[:, :MOCK_DIM] - counts[:, MOCK_DIM:]
    norms = np.sqrt((diff * diff).sum(axis=1).astype(np.float64))
    vecs = diff.astype(np.float64)
    # a text with no tokens, or whose signs cancel, is the first basis vector
    empty = norms == 0.0
    vecs[empty, 0] = 1.0
    norms[empty] = 1.0
    vecs /= norms[:, None]
    return vecs


def mock_embed(text: str) -> np.ndarray:
    """Deterministic feature-hash embedding, unit L2 norm, dimension 64.

    Each token is hashed with blake2b; the first four digest bytes pick
    a bucket and the fifth byte's parity picks the sign. Texts with no
    tokens map to the first basis vector so the result is never zero.
    """
    return _hashed_vectors(encode([tokenize(text)]))[0]


class MockEmbeddingProvider:
    """Offline provider; deterministic across runs and platforms."""

    def __init__(self, cfg: EmbeddingProviderConfig):
        self.cfg = cfg

    def embed(self, texts: list[str], tokens: TokenIds | None = None) -> list[np.ndarray]:
        """tokens, when given, holds tokenize(text) for each text, row by row."""
        if tokens is None:
            tokens = encode(map(tokenize, texts))
        return list(_hashed_vectors(tokens))


class HttpEmbeddingProvider:
    """OpenAI-compatible embeddings endpoint client.

    The response's per-item "index" field, not array position, decides
    output order. The API key, optional, is read from the configured
    environment variable at construction and never logged.
    """

    def __init__(self, cfg: EmbeddingProviderConfig):
        self.cfg = cfg
        # optional: a local endpoint may need no key
        self._key = os.environ.get(cfg.api_key_env, "")

    @staticmethod
    def _parse_response(payload, expected: int) -> list[np.ndarray]:
        items = payload.get("data") if isinstance(payload, dict) else None
        if not isinstance(items, list) or len(items) != expected:
            raise ProviderError(
                f"embeddings response has {len(items) if isinstance(items, list) else 'no'}"
                f" items, expected {expected}"
            )
        out: list[np.ndarray | None] = [None] * expected
        for item in items:
            if not isinstance(item, dict):
                raise ProviderError(
                    f"embeddings response item is a {type(item).__name__}, not an object"
                )
            idx = item.get("index")
            if type(idx) is not int or not 0 <= idx < expected:
                raise ProviderError(f"embeddings response has bad index {idx!r}")
            try:
                out[idx] = _check_vector(item.get("embedding"), f"embedding {idx}")
            except ValidationError as exc:
                # a bad vector is the provider's fault, not the user's input
                raise ProviderError(str(exc)) from exc
        if any(v is None for v in out):
            raise ProviderError("embeddings response is missing indices")
        return out  # type: ignore[return-value]

    def embed(self, texts: list[str], tokens: TokenIds | None = None) -> list[np.ndarray]:
        """tokens is ignored: the endpoint embeds the texts themselves."""
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), self.cfg.batch_size):
            batch = texts[start : start + self.cfg.batch_size]
            payload = post_json(
                self.cfg.base_url,
                "/embeddings",
                {"model": self.cfg.model_name, "input": batch},
                self._key,
                self.cfg.timeout_s,
                self.cfg.retries,
                "embeddings",
            )
            vectors.extend(self._parse_response(payload, len(batch)))
        return vectors


def make_embedding_provider(cfg: EmbeddingProviderConfig):
    if cfg.kind == "mock":
        return MockEmbeddingProvider(cfg)
    return HttpEmbeddingProvider(cfg)


def embed_batch(
    texts: list[str], cfg: EmbeddingProviderConfig, tokens: TokenIds | None = None
) -> list[np.ndarray]:
    """Embed texts in order, enforcing a uniform dimension across the batch.

    tokens, when given, holds tokenize(text) for each text, row by row,
    so the mock embedder need not tokenize again.
    """
    if not texts:
        raise ValidationError("embed_batch requires at least one text")
    vectors = make_embedding_provider(cfg).embed(texts, tokens)
    dims = {v.shape[0] for v in vectors}
    if len(dims) > 1:
        raise ProviderError(f"embedding dimensions disagree within one batch: {sorted(dims)}")
    return vectors


def _batch_shape(header: dict) -> tuple[list[str], int]:
    """The keys and dimension of a cache batch's header, checked against
    its payload_bytes."""
    keys = header["keys"]
    if not isinstance(keys, list) or set(map(type, keys)) - {str}:
        raise ValidationError("'keys' must be an array of strings")
    dim = header["dim"]
    if type(dim) is not int or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    if header["payload_bytes"] != 8 * dim * len(keys):
        raise ValidationError(
            f"payload_bytes is {header['payload_bytes']}, {len(keys)} vectors of dim {dim}"
            f" need {8 * dim * len(keys)}"
        )
    return keys, dim


class EmbeddingCache:
    """Vector cache file keyed by claim, model, and text hash.

    Real embedding runs are the expensive part of retrieval, so vectors
    are persisted and reruns only embed what is missing. The file is an
    append log (see appendlog) of one record per put_many call: a header
    {"dim", "keys", "payload_bytes", "payload_sha256"}, then the batch's
    vectors as little-endian float64, one row per key, so vectors
    round-trip bit-exactly and load as one array per batch. A torn final
    batch left by an interrupted append is dropped, so its vectors are
    embedded again; a batch that fails a check is a ValidationError.
    """

    def __init__(self, path: str):
        import numpy as np

        self.path = path
        self._log = AppendLog(path, "batch")
        self._entries: dict[str, np.ndarray] = {}
        for where, header, payload in self._log.read():
            keys, dim = json_record(path, f"{where}: bad cache entry", header, _batch_shape)
            # copy out of the read-only bytes, in native byte order
            rows = np.frombuffer(payload, dtype="<f8").astype(np.float64)
            self._entries.update(zip(keys, rows.reshape(len(keys), dim)))

    @staticmethod
    def key_for(claim_id: int, model_name: str, text: str) -> str:
        # a lone surrogate, which a JSON store can escape as \ud800, hashes as its own bytes
        digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:24]
        return f"{claim_id}:{model_name}:{digest}"

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> np.ndarray | None:
        return self._entries.get(key)

    def put_many(self, items: list[tuple[str, np.ndarray]]) -> None:
        """Append the vectors, which share one dimension, of the keys not
        cached yet, as one batch."""
        import numpy as np

        fresh = [(k, v) for k, v in items if k not in self._entries]
        if not fresh:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        rows = np.stack([v for _k, v in fresh]).astype("<f8", copy=False)
        self._log.append({"dim": rows.shape[1], "keys": [k for k, _v in fresh]}, rows.tobytes())
        self._entries.update(fresh)


def embed_cached(
    texts: list[str],
    claim_id: int,
    cfg: EmbeddingProviderConfig,
    cache: EmbeddingCache | None,
    tokens: TokenIds | None = None,
) -> list[np.ndarray]:
    """Embed texts, serving repeats from the cache when one is given.

    tokens, when given, holds tokenize(text) for each text, row by row
    (see embed_batch).

    Every vector returned has one dimension: that of the vectors this
    call embedded, if any, else that of the first. A cached vector of
    another dimension (say, stored under the same model name by a model
    of another size) is a ValidationError naming the cache file and key.
    """
    if cache is None:
        return embed_batch(texts, cfg, tokens)
    model = cfg.effective_model_name
    keys = [EmbeddingCache.key_for(claim_id, model, t) for t in texts]
    missing_positions = []
    seen_keys = set()
    for i, key in enumerate(keys):
        if cache.get(key) is None and key not in seen_keys:
            missing_positions.append(i)
            seen_keys.add(key)
    dim = None
    if missing_positions:
        if len(missing_positions) == len(texts):
            # every text, in order: lend the caller's rows, not a copy
            fresh = embed_batch(texts, cfg, tokens)
        else:
            fresh = embed_batch(
                [texts[i] for i in missing_positions],
                cfg,
                None if tokens is None else tokens.select(missing_positions),
            )
        cache.put_many([(keys[i], vec) for i, vec in zip(missing_positions, fresh)])
        dim = fresh[0].shape[0]
    out = []
    for key in keys:
        vec = cache.get(key)
        if vec is None:
            raise ProviderError(f"cache did not resolve key {key}")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ValidationError(
                f"{cache.path}: cached vector {key} has dimension {vec.shape[0]},"
                f" expected {dim}"
            )
        out.append(vec)
    return out


@dataclass(frozen=True)
class VectorIndex:
    """Checked, unit-normalized vectors, one matrix row per payload id."""

    matrix: np.ndarray
    payload_ids: tuple

    @classmethod
    def build(cls, vectors, payload_ids: list) -> "VectorIndex":
        """Index vectors, a list of 1-d vectors or an (n, d) array.

        payload_ids must be distinct. The caller's vectors are not modified.
        """
        import numpy as np

        if len(vectors) != len(payload_ids):
            raise ValidationError("vectors and payload_ids must be parallel lists")
        if len(set(payload_ids)) != len(payload_ids):
            raise ValidationError("payload ids must be distinct")
        if not payload_ids:
            return cls(matrix=np.zeros((0, 0)), payload_ids=())
        mat = _check_array(vectors, "index vectors", 2)
        norms = np.linalg.norm(mat, axis=1)
        if np.any(norms == 0.0):
            raise ValidationError("cannot index a zero-norm vector")
        # a new array, not an in-place division: the caller's (n, d) array
        # stays as it was, and on paper_cold peak RSS was lower this way
        mat = mat / norms[:, None]
        mat.setflags(write=False)
        return cls(matrix=mat, payload_ids=tuple(payload_ids))

    def __len__(self) -> int:
        return len(self.payload_ids)


def knn(index: VectorIndex, query, p: int) -> list[tuple[object, float]]:
    """Exact top-p by cosine similarity; ties keep insertion order."""
    import numpy as np

    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    if len(index) == 0:
        return []
    q = _check_vector(query, "knn query")
    if q.shape[0] != index.matrix.shape[1]:
        raise ValidationError(
            f"query dim {q.shape[0]} does not match index dim {index.matrix.shape[1]}"
        )
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValidationError("knn query has zero norm")
    # elementwise product + per-row reduce, not BLAS gemv: gemv can give
    # bit-identical rows results a ulp apart, which would let float noise
    # decide ties instead of insertion order
    sims = (index.matrix * (q / norm)).sum(axis=1)
    order = np.argsort(-sims, kind="stable")[:p]
    return [(index.payload_ids[i], float(sims[i])) for i in order]


def mmr_select(
    index: VectorIndex, pool: list[tuple[object, float]], cfg: RetrievalConfig
) -> list:
    """Greedy maximal-marginal-relevance selection of cfg.k pool entries.

    pool holds (payload_id, sim_to_query) pairs, as knn returns them;
    each id's vector is its row of index. Each step picks the candidate
    maximizing lambda*sim_to_query - (1-lambda)*max(sim to already
    selected), the redundancy term being 0 while nothing is selected.
    Score ties prefer the higher sim_to_query, then earlier pool
    position. The running redundancy starts undefined rather than at
    zero so that negative similarities to selected items are preserved.
    """
    import numpy as np

    if not pool:
        raise ValidationError("mmr_select requires at least one candidate")
    ids = [pid for pid, _sim in pool]
    row_of = {pid: row for row, pid in enumerate(index.payload_ids)}
    try:
        unit = index.matrix[[row_of[pid] for pid in ids]]
    except KeyError as exc:
        raise ValidationError(f"mmr pool id {exc.args[0]!r} is not in the index") from exc
    sims_q = np.array([sim for _pid, sim in pool], dtype=np.float64)

    n = len(pool)
    take = min(cfg.k, n)
    selected: list[int] = []
    remaining = list(range(n))
    redundancy: np.ndarray | None = None

    while len(selected) < take:
        best_i = None
        best_key = None
        for i in remaining:
            red = 0.0 if redundancy is None else float(redundancy[i])
            score = cfg.lambda_ * float(sims_q[i]) - (1.0 - cfg.lambda_) * red
            key = (score, float(sims_q[i]), -i)
            if best_key is None or key > best_key:
                best_key = key
                best_i = i
        selected.append(best_i)
        remaining.remove(best_i)
        # same reasoning as in knn: keep duplicate rows bit-identical so
        # the documented index tie-break actually decides
        sims_to_new = (unit * unit[best_i]).sum(axis=1)
        redundancy = sims_to_new if redundancy is None else np.maximum(redundancy, sims_to_new)

    return [ids[i] for i in selected]
