"""Tokenization and Okapi BM25 ranking.

BM25 is used in two places: pruning a claim's chunk set down to the
omega best-matching chunks before embedding, and picking the most
similar training claims for few-shot prompting. Indexes live in memory
only: the chunk index is rebuilt per claim, the few-shot index once per
run (generator.FewshotPool).
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass

from .errors import ValidationError

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


def build_index(docs: list[list[str]], terms: list[str] | None = None) -> Bm25Index:
    """Build an inverted index over tokenized documents.

    With terms given, only their postings are kept: ranking one query
    reads nothing else, and most of a full index's cost is postings for
    terms no query asks about.
    """
    if not docs:
        raise ValidationError("cannot build a BM25 index over zero documents")
    doc_lengths = tuple(len(d) for d in docs)
    total = sum(doc_lengths)
    if total == 0:
        raise ValidationError("all documents are empty of tokens")

    wanted = None if terms is None else tuple(dict.fromkeys(terms))
    is_wanted = None if wanted is None else frozenset(wanted).__contains__
    postings: dict[str, list[tuple[int, int]]] = {}
    for ordinal, doc in enumerate(docs):
        # a restricted index counts only its terms: the rest would be dropped
        counts = Counter(doc if is_wanted is None else filter(is_wanted, doc))
        for term in counts if wanted is None else [t for t in wanted if t in counts]:
            postings.setdefault(term, []).append((ordinal, counts[term]))

    return Bm25Index(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=total / len(docs),
        doc_count=len(docs),
        indexed_terms=None if wanted is None else frozenset(wanted),
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
