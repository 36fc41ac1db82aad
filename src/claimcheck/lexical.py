"""Tokenization and Okapi BM25 ranking.

BM25 is used in two places: pruning a claim's chunk set down to the
omega best-matching chunks before embedding, and picking the most
similar training claims for few-shot prompting. Indexes live in memory
only: the chunk index is rebuilt per claim, the few-shot index once per
run (generator.FewshotPool).

A set of texts' tokens is held as one TokenIds table of integer ids, so
BM25 and the mock embedder count tokens with numpy instead of looking up
each one in a dict. numpy is imported when a table is first built: the
tokenizer alone, which scoring uses, loads none.

A warm rerun does not rank again: it re-selects from the KNN pool that
retrieval kept (retriever.PoolFile), whose key names POOL_VERSION, bumped
when tokenize's or bm25_top's output changes.
"""

from __future__ import annotations

import math
import string
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

# every byte but a-z and 0-9 becomes a space
_KEEP = (string.ascii_lowercase + string.digits).encode("ascii")
_SEPARATORS = bytes(b if b in _KEEP else 0x20 for b in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase, then keep the runs of ASCII letters and digits.

    The same tokens as re.findall(r"[a-z0-9]+", text.lower()), found a
    byte at a time: every non-ASCII code point encodes as "?", and the
    table turns every byte outside [a-z0-9] into a separator.
    """
    return text.lower().encode("ascii", "replace").translate(_SEPARATORS).decode("ascii").split()


class _Vocabulary(dict):
    """word -> id, a new word taking the next id on its first lookup."""

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self)
        return n


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Token lists as one table of integer ids.

    Row i's tokens are words[j] for j in ids[starts[i]:starts[i + 1]]:
    words holds each distinct word once, ids is int32 and starts is
    int64, with starts[0] == 0 and starts[-1] == len(ids).
    """

    words: tuple[str, ...]
    ids: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.starts) - 1

    def tokens(self, i: int) -> list[str]:
        """Row i decoded: tokenize's list for the row's text."""
        words = self.words
        return [words[j] for j in self.ids[self.starts[i] : self.starts[i + 1]].tolist()]

    def select(self, rows: Sequence[int]) -> TokenIds:
        """The given rows, in the given order, with the same vocabulary.

        The ids of a run of consecutive rows, ascending, are a view of
        this table's, not a copy.
        """
        import numpy as np

        rows = np.asarray(rows, dtype=np.intp)
        n = len(rows)
        if n and 0 <= rows[0] <= len(self) - n and np.all(np.diff(rows) == 1):
            starts = self.starts[rows[0] : rows[0] + n + 1]
            return TokenIds(self.words, self.ids[starts[0] : starts[-1]], starts - starts[0])
        first, end = self.starts[rows], self.starts[rows + 1]
        starts = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(end - first, out=starts[1:])
        ids = self.ids
        kept = [ids[a:b] for a, b in zip(first.tolist(), end.tolist())]
        return TokenIds(self.words, np.concatenate(kept or [ids[:0]]), starts)


def encode(token_lists: Iterable[list[str]]) -> TokenIds:
    """One TokenIds table of token_lists, ids given in order of first use.

    The lists are read one at a time, so a caller passing an iterator
    (map(tokenize, texts)) never holds more than one of them.
    """
    import numpy as np

    vocabulary = _Vocabulary()
    word_id = vocabulary.__getitem__
    rows = [np.fromiter(map(word_id, tokens), np.int32, len(tokens)) for tokens in token_lists]
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=starts[1:])
    ids = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
    return TokenIds(tuple(vocabulary), ids, starts)


# Okapi BM25's term-frequency saturation and document-length
# normalization (Robertson & Zaragoza, 2009).
K1 = 1.2
B = 0.75


@dataclass(frozen=True)
class Bm25Index:
    """Postings plus corpus statistics.

    indexed_terms is None for a full index; otherwise postings cover only
    those terms, while the length statistics still come from the whole
    documents, so scores for those terms equal the full index's.
    """

    postings: dict[str, list[tuple[int, int]]]
    doc_lengths: tuple[int, ...]
    avg_doc_length: float
    doc_count: int
    indexed_terms: frozenset[str] | None = None


def build_index(docs: TokenIds | list[list[str]], terms: list[str] | None = None) -> Bm25Index:
    """Build an inverted index over tokenized documents.

    docs is a TokenIds table or token lists, which are encoded first.
    With terms given, only their postings are kept: ranking one query
    reads nothing else, and most of a full index's cost is postings for
    terms no query asks about. Postings hold Python ints, by ascending
    ordinal.
    """
    import numpy as np

    table = docs if isinstance(docs, TokenIds) else encode(docs)
    if not len(table):
        raise ValidationError("cannot build a BM25 index over zero documents")
    doc_lengths = tuple(np.diff(table.starts).tolist())
    total = sum(doc_lengths)
    if total == 0:
        raise ValidationError("all documents are empty of tokens")

    if terms is None:
        wanted = table.words
        term_of_id = np.arange(len(wanted), dtype=np.int32)
    else:
        wanted = tuple(dict.fromkeys(terms))
        position = {term: i for i, term in enumerate(wanted)}
        term_of_id = np.fromiter(
            (position.get(word, -1) for word in table.words), np.int32, len(table.words)
        )
    # a restricted index counts only its terms: the rest would be dropped
    term_at = term_of_id[table.ids]
    kept = np.flatnonzero(term_at >= 0)
    ordinal_at = np.searchsorted(table.starts, kept, side="right") - 1
    n = len(table)
    # one count per (term, document) pair, sorted by term, then ordinal
    keys, tfs = np.unique(term_at[kept].astype(np.int64) * n + ordinal_at, return_counts=True)
    term_rows, ordinals = np.divmod(keys, n)
    firsts = np.flatnonzero(np.diff(term_rows, prepend=-1)).tolist()
    term_rows, ordinals, tfs = term_rows.tolist(), ordinals.tolist(), tfs.tolist()
    postings: dict[str, list[tuple[int, int]]] = {
        wanted[term_rows[a]]: list(zip(ordinals[a:b], tfs[a:b]))
        for a, b in zip(firsts, firsts[1:] + [len(keys)])
    }

    return Bm25Index(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=total / len(table),
        doc_count=len(table),
        indexed_terms=None if terms is None else frozenset(wanted),
    )


def idf(index: Bm25Index, term: str) -> float:
    """Non-negative idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    df = len(index.postings.get(term, ()))
    if df == 0:
        return 0.0
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def tf_weight(tf: int, doc_length: int, avg_doc_length: float) -> float:
    """Okapi saturation term: tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))."""
    norm = K1 * (1.0 - B + B * doc_length / avg_doc_length)
    return tf * (K1 + 1.0) / (tf + norm)


def bm25_top(
    index: Bm25Index, query_tokens: list[str], omega: int
) -> list[tuple[int, float]]:
    """Top-omega documents by BM25 score, descending.

    Repeated query tokens contribute once per occurrence. Ties break by
    ascending document ordinal; documents scoring zero are excluded.
    Contributions accumulate in query-token order so results are
    bit-identical to a per-document loop over the same formula.
    """
    if omega < 1:
        raise ValidationError(f"omega must be >= 1, got {omega}")
    if index.indexed_terms is not None and not index.indexed_terms.issuperset(query_tokens):
        raise ValidationError("query has terms the BM25 index was not built for")
    scores: dict[int, float] = {}
    for token in query_tokens:
        plist = index.postings.get(token)
        if not plist:
            continue
        token_idf = idf(index, token)
        for ordinal, tf in plist:
            w = token_idf * tf_weight(tf, index.doc_lengths[ordinal], index.avg_doc_length)
            scores[ordinal] = scores.get(ordinal, 0.0) + w

    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [(ordinal, score) for ordinal, score in ranked if score > 0.0][:omega]
