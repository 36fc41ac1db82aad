import hashlib
import math
import random
import re
import string
from collections import Counter

import numpy as np
import pytest

from claimcheck.errors import ValidationError
from claimcheck.lexical import (
    bm25_top,
    build_index,
    encode,
    idf,
    tf_weight,
    tokenize,
)
from claimcheck.retriever import POOL_VERSION


def _regex_tokens(text):
    """The tokenizer's contract: the runs of [a-z0-9] in the lowercased text."""
    return re.findall(r"[a-z0-9]+", text.lower())


# code points whose lowercase is longer, ASCII or otherwise special
_SPECIAL = "\u0130\u212a\u212b\u017f\ufb03\u1e9e\u0000\ud800\udfff\u00a0\u2028\u0345"
_SCRIPTS = [
    string.ascii_letters + string.digits,
    string.punctuation + " \t\n\r\x0b\x0c",
    "".join(map(chr, range(0x80, 0x250))),  # Latin-1 and Latin Extended
    "".join(map(chr, range(0x370, 0x530))),  # Greek and Cyrillic
    "\u4e2d\u6587\u3042\uac00\u0627\u05d0\u0915\U0001f600\U0001d400\U0010ffff",
    "\u0300\u0301\u200b\u200d\ufeff\uff21\uff41\uff10",  # combining, zero-width, fullwidth
    _SPECIAL,
]


# ASCII, digits, accented letters, CJK and punctuation
_PINNED_SAMPLE = (
    "The U.S. grew 3.5% in Q2! Caf\u00e9 d\u00e9j\u00e0 vu, na\u00efve \u00c5ngstr\u00f6m; "
    "\u4e2d\u6587\u6d4b\u8bd5abc\u3002 x86_64 C++ e-mail \u00bfQu\u00e9? \u00a71.2 \u2014 [ok]"
)


def test_tokenizer_output_is_pinned():
    """KNN pools found through one tokenizer and bm25_top are read by later
    runs: a change to the output of either must bump POOL_VERSION, and
    then these digests, so that older pools are ignored."""
    tokens = tokenize(_PINNED_SAMPLE)
    assert tokens[:8] == ["the", "u", "s", "grew", "3", "5", "in", "q2"]
    digest = hashlib.sha256(" ".join(tokens).encode("ascii")).hexdigest()
    # documents of the sample's words with repeats, so scores tie and differ
    docs = [tokens[i % 7 :: 1 + i % 5] + tokens[: i % 3] for i in range(40)]
    ranked = bm25_top(build_index(docs, terms=tokens[:6]), tokens[:6], omega=25)
    ranked_digest = hashlib.sha256(repr(ranked).encode("ascii")).hexdigest()
    assert (POOL_VERSION, digest, ranked_digest) == (
        1, "7e83e0a6af71d9b72c19f8ffbd8a8b2fd0e4f10c75cc6b926650e9bac249bea6",
        "d365c475f4c8571697d6b0cb397d16fd079661188912d98d86cda38e64747708")


class TestTokenize:
    def test_lowercase_and_strip(self):
        assert tokenize("The U.S. grew 3.5% in Q2!") == ["the", "u", "s", "grew", "3", "5", "in", "q2"]

    def test_every_code_point_matches_regex(self):
        # each code point between two ASCII letters of either case, so a
        # code point that lowercases to ASCII, or splits a run, shows
        letters = string.ascii_letters
        text = "".join(letters[cp % 52] + chr(cp) for cp in range(0x110000)) + "Z"
        for ch in _SPECIAL:
            assert ch in text
        assert tokenize(text) == _regex_tokens(text)

    def test_mixed_scripts_match_regex(self):
        rng = random.Random(5557)
        for _ in range(2000):
            text = "".join(
                rng.choice(rng.choice(_SCRIPTS)) for _ in range(rng.randint(0, 40))
            )
            assert tokenize(text) == _regex_tokens(text), repr(text)


class TestTokenIds:
    def _texts(self):
        rng = random.Random(3301)
        texts = ["", "?!...", "", "Ünïcode ☃ only", "the the THE the", "a b a b a"]
        for _ in range(50):
            texts.append("".join(rng.choice(rng.choice(_SCRIPTS)) for _ in range(30)))
        return texts

    def test_rows_decode_to_tokenize(self):
        texts = self._texts()
        table = encode(map(tokenize, texts))
        assert len(table) == len(texts)
        assert [table.tokens(i) for i in range(len(texts))] == [tokenize(t) for t in texts]
        # each distinct word once, ids given in order of first use
        first_use = list(dict.fromkeys(w for t in texts for w in tokenize(t)))
        assert table.words == tuple(first_use)
        assert table.ids.dtype == np.int32 and table.starts.dtype == np.int64
        assert table.starts[0] == 0 and table.starts[-1] == len(table.ids)

    def test_select_keeps_rows_and_vocabulary(self):
        texts = self._texts()
        table = encode(map(tokenize, texts))
        rng = random.Random(12)
        everyone = range(len(texts))
        for rows in ([], [0], [2, 0, 2], range(1, 9), everyone[::-1], rng.sample(everyone, 20)):
            picked = table.select(rows)
            assert picked.words is table.words
            assert len(picked) == len(rows)
            decoded = [picked.tokens(i) for i in range(len(rows))]
            assert decoded == [tokenize(texts[r]) for r in rows]
            assert picked.starts[0] == 0 and picked.starts[-1] == len(picked.ids)

    def test_consecutive_rows_share_the_ids(self):
        texts = self._texts()
        table = encode(map(tokenize, texts))
        for rows in (range(1, len(texts)), range(0, 9), [4, 5, 6], [len(texts) - 1]):
            picked = table.select(rows)
            assert np.shares_memory(picked.ids, table.ids)
            assert picked.words is table.words
            assert picked.starts[0] == 0 and picked.starts[-1] == len(picked.ids)
            assert [picked.tokens(i) for i in range(len(rows))] == [tokenize(texts[r]) for r in rows]
        # not a run of consecutive ascending rows: a copy, as before
        for rows in ([5, 4], [0, 2], [3, 3]):
            assert not np.shares_memory(table.select(rows).ids, table.ids)
        with pytest.raises(IndexError):
            table.select([len(texts)])

    def test_empty_input(self):
        table = encode([])
        assert len(table) == 0 and table.words == () and len(table.ids) == 0
        assert len(table.select([])) == 0

    def test_more_words_than_int16(self):
        words = [f"w{i}" for i in range(70_500)]
        texts = [" ".join(words[i::3]) for i in range(3)] + [" ".join(words[-5:] * 2)]
        table = encode(map(tokenize, texts))
        assert len(table.words) == 70_500
        assert table.tokens(3) == words[-5:] * 2
        assert table.select([3, 1]).tokens(1) == words[1::3]


def _reference_index(docs, terms=None):
    """Postings, lengths and avgdl counted per document with a Counter."""
    postings = {}
    for ordinal, doc in enumerate(docs):
        counts = Counter(doc)
        for term in counts:
            if terms is None or term in terms:
                postings.setdefault(term, []).append((ordinal, counts[term]))
    lengths = tuple(len(d) for d in docs)
    return postings, lengths, sum(lengths) / len(docs)


def _naive_bm25(docs, query, k1=1.2, b=0.75):
    """Per-document reference implementation of the same formula."""
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    dfs = {}
    for d in docs:
        for t in set(d):
            dfs[t] = dfs.get(t, 0) + 1
    out = []
    for i, d in enumerate(docs):
        score = 0.0
        for t in query:
            df = dfs.get(t, 0)
            if df == 0 or t not in d:
                continue
            tf = d.count(t)
            w_idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = k1 * (1.0 - b + b * len(d) / avgdl)
            score += w_idf * (tf * (k1 + 1.0) / (tf + norm))
        out.append((i, score))
    out.sort(key=lambda x: (-x[1], x[0]))
    return [(i, s) for i, s in out if s > 0.0]


class TestBm25:
    def test_hand_value_single_doc(self):
        # single-doc corpus, tf=1, dl=avgdl: score = ln(1 + 0.5/1.5) * 1
        docs = [["apple", "pear"]]
        index = build_index(docs)
        top = bm25_top(index, ["apple"], omega=10)
        assert len(top) == 1
        assert top[0][0] == 0
        assert abs(top[0][1] - 0.28768207245178085) < 1e-12
        assert abs(top[0][1] - 0.2877) < 1e-4

    def test_hand_value_two_docs(self):
        docs = [["apple", "pear"], ["plum", "grape"]]
        index = build_index(docs)
        top = bm25_top(index, ["apple"], omega=10)
        assert top == [(0, math.log(2.0))]

    def test_matches_naive_oracle_bitwise(self):
        rng = random.Random(7311)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(150):
            n_docs = rng.randint(1, 12)
            docs = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 25))]
                for _ in range(n_docs)
            ]
            if all(not d for d in docs):
                continue
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            index = build_index(docs)
            got = bm25_top(index, query, omega=n_docs)
            want = _naive_bm25(docs, query)
            assert got == want  # exact float equality, same accumulation order
            restricted = build_index(docs, terms=query)
            assert bm25_top(restricted, query, omega=n_docs) == want

    def test_restricted_postings_equal_full_postings(self):
        rng = random.Random(2024)
        vocab = [f"t{i}" for i in range(20)]
        for _ in range(100):
            docs = [[rng.choice(vocab) for _ in range(rng.randint(0, 15))] for _ in range(8)]
            if not any(docs):
                continue
            terms = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
            full = build_index(docs)
            restricted = build_index(docs, terms=terms)
            assert restricted.postings == {t: full.postings[t] for t in terms if t in full.postings}
            assert restricted.doc_lengths == full.doc_lengths
            assert restricted.avg_doc_length == full.avg_doc_length
            assert restricted.indexed_terms == frozenset(terms)

    def test_index_of_ids_matches_counter_reference(self):
        # a table selected out of a larger one holds words its rows lack,
        # ids not in first-use order, and rows in another order
        rng = random.Random(2024)
        vocab = [f"t{i}" for i in range(20)]
        for _ in range(100):
            docs = [[rng.choice(vocab) for _ in range(rng.randint(0, 15))] for _ in range(8)]
            if not any(docs):
                continue
            extra = [[rng.choice(vocab + ["zz", "yy"]) for _ in range(5)] for _ in range(4)]
            everything = extra + docs
            order = list(range(len(everything)))
            rng.shuffle(order)
            shuffled = encode(everything[r] for r in order)
            table = shuffled.select([order.index(len(extra) + i) for i in range(len(docs))])
            for terms in (None, [rng.choice(vocab + ["zz"]) for _ in range(rng.randint(0, 6))]):
                want = _reference_index(docs, terms)
                for index in (build_index(docs, terms), build_index(table, terms)):
                    assert index.postings == want[0]
                    assert all(type(o) is int and type(tf) is int
                               for plist in index.postings.values() for o, tf in plist)
                    assert index.doc_lengths == want[1]
                    assert index.avg_doc_length == want[2]
                    assert index.doc_count == len(docs)

    def test_restricted_index_rejects_other_query_terms(self):
        index = build_index([["apple", "pear"], ["plum"]], terms=["apple"])
        assert set(index.postings) == {"apple"}
        assert index.doc_lengths == (2, 1)
        with pytest.raises(ValidationError):
            bm25_top(index, ["apple", "plum"], omega=10)

    def test_omega_truncates(self):
        docs = [["x", f"u{i}"] for i in range(20)]
        index = build_index(docs)
        top = bm25_top(index, ["x"], omega=5)
        assert len(top) == 5
        assert [o for o, _ in top] == [0, 1, 2, 3, 4]  # ties resolve by ordinal

    def test_zero_score_docs_excluded(self):
        docs = [["match"], ["miss"]]
        index = build_index(docs)
        top = bm25_top(index, ["match"], omega=10)
        assert [o for o, _ in top] == [0]

    def test_no_hits_empty(self):
        index = build_index([["a"], ["b"]])
        assert bm25_top(index, ["zzz"], omega=3) == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_index([])
        with pytest.raises(ValidationError):
            build_index([[], []])

    def test_bad_omega(self):
        index = build_index([["a"]])
        with pytest.raises(ValidationError):
            bm25_top(index, ["a"], omega=0)


class TestFormulaShape:
    def test_idf_decreases_with_df(self):
        # build corpora of 10 docs where the term appears in df of them
        prev = None
        for df in range(1, 11):
            docs = [["shared", "term"] if i < df else ["filler", f"pad{i}"] for i in range(10)]
            index = build_index(docs)
            value = idf(index, "shared")
            assert value > 0.0
            if prev is not None:
                assert value < prev
            prev = value

    def test_idf_unknown_term_zero(self):
        index = build_index([["a"]])
        assert idf(index, "nope") == 0.0

    def test_tf_weight_monotone_in_tf(self):
        prev = None
        for tf in range(1, 20):
            w = tf_weight(tf, doc_length=50, avg_doc_length=50.0)
            if prev is not None:
                assert w > prev
            prev = w

    def test_tf_weight_saturates_below_k1_plus_1(self):
        assert tf_weight(10_000, 50, 50.0) < 1.2 + 1.0

    def test_longer_docs_penalized(self):
        short = tf_weight(2, doc_length=10, avg_doc_length=50.0)
        long = tf_weight(2, doc_length=200, avg_doc_length=50.0)
        assert short > long
