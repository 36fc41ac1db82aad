"""Acceptance gate: one test per numbered criterion, self-contained oracles.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. The final criterion exercises a real LLM endpoint and is
skipped unless the CLAIMCHECK_SMOKE_* environment variables are set.
"""

import itertools
import json
import math
import os
import random
import time

import numpy as np
import pytest

from claimcheck.corpus import (
    AnswerType,
    Claim,
    Document,
    GoldQA,
    VeracityLabel,
    chunk_document,
)
from claimcheck.dense import VectorIndex, knn, mmr_select
from claimcheck.lexical import bm25_top, build_index
from claimcheck.scoring import (
    align_tokens,
    averitec_score,
    hungarian_max,
    meteor_lite,
    PredEvidence,
    PredictionRecord,
    ScoringConfig,
)
from claimcheck.porter import stem
from claimcheck.retriever import RetrievalConfig
from claimcheck.verdict import likert_softmax

from conftest import run_cli

S = VeracityLabel.SUPPORTED
R = VeracityLabel.REFUTED
N = VeracityLabel.NOT_ENOUGH_EVIDENCE
C = VeracityLabel.CONFLICTING


def test_criterion_01_echo_end_to_end(
    dataset_path, knowledge_store_path, train_set_path, echo_script_path, tmp_path,
):
    """Scripted gold echo through verify+evaluate scores perfectly, fast."""
    out_dir = tmp_path / "out"
    started = time.monotonic()
    assert run_cli(
        ["verify",
         "--dataset", str(dataset_path),
         "--knowledge-store", str(knowledge_store_path),
         "--train-set", str(train_set_path),
         "--mock-script", str(echo_script_path),
         "--output-dir", str(out_dir)]
    ) == 0
    assert run_cli(
        ["evaluate", "--dataset", str(dataset_path), "--output-dir", str(out_dir)]
    ) == 0
    elapsed = time.monotonic() - started

    report = json.loads((out_dir / "report.json").read_text())
    assert report["averitec_score"]["0.25"] == 1.0
    assert report["accuracy"] == 1.0
    assert len(report["per_claim"]) == 10
    assert elapsed < 10.0, f"echo pipeline took {elapsed:.1f}s"


def _assignment_bruteforce(arr):
    rows, cols = arr.shape
    n = max(rows, cols)
    best = None
    for perm in itertools.permutations(range(n)):
        pairs = [(r, perm[r]) for r in range(n) if r < rows and perm[r] < cols]
        total = 0.0
        for r, c in pairs:
            total += float(arr[r, c])
        key = (-total, tuple(pairs))
        if best is None or key < best:
            best = key
    return list(best[1]), -best[0]


def test_criterion_02_hungarian_oracle():
    """1000 random matrices up to 5x5 match permutation brute force exactly."""
    rng = np.random.default_rng(2025)
    for trial in range(1000):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        if trial % 2 == 0:
            arr = rng.random((rows, cols))
        else:
            # quarter-integer grids force ties, keeping sums float-exact
            arr = rng.integers(0, 16, size=(rows, cols)).astype(np.float64) / 4.0
        got_pairs, got_total = hungarian_max(arr)
        want_pairs, want_total = _assignment_bruteforce(arr)
        assert got_total == want_total, f"trial {trial}: totals differ"
        assert got_pairs == want_pairs, f"trial {trial}: pairs differ"


def _mmr_greedy(unit_rows, sims_q, lam, take):
    n = len(sims_q)
    chosen = []
    remaining = list(range(n))
    redundancy = [None] * n
    for _ in range(take):
        best = None
        for i in remaining:
            red = 0.0 if redundancy[i] is None else redundancy[i]
            score = lam * sims_q[i] - (1.0 - lam) * red
            key = (score, sims_q[i], -i)
            if best is None or key > best[0]:
                best = (key, i)
        pick = best[1]
        chosen.append(pick)
        remaining.remove(pick)
        for i in range(n):
            s = float(np.dot(unit_rows[i], unit_rows[pick]))
            if redundancy[i] is None or s > redundancy[i]:
                redundancy[i] = s
    return chosen


def test_criterion_03_mmr_oracle():
    """500 random candidate sets match an independent greedy; lambda=1 is KNN."""
    rng = np.random.default_rng(31337)
    for trial in range(500):
        n = int(rng.integers(1, 13))
        dim = int(rng.integers(4, 65))
        mat = rng.normal(size=(n, dim))
        if trial % 3 == 0 and n >= 2:
            mat[n - 1] = mat[0]  # duplicate row exercises tie handling
        index = VectorIndex.build(list(mat), list(range(n)))
        query = rng.normal(size=dim)
        ranked = knn(index, query, n)
        sims = {pid: s for pid, s in ranked}
        candidates = [(i, sims[i]) for i in range(n)]

        take = int(rng.integers(1, n + 1))
        lam = float(rng.random())
        got = mmr_select(
            index, candidates, RetrievalConfig(lambda_=lam, pool_size=n, k=take)
        )
        want = _mmr_greedy(
            [index.matrix[i] for i in range(n)], [sims[i] for i in range(n)], lam, take
        )
        assert got == want, f"trial {trial}: lambda={lam} take={take}"

        knn_order = mmr_select(
            index, candidates, RetrievalConfig(lambda_=1.0, pool_size=n, k=n)
        )
        assert knn_order == [pid for pid, _ in ranked], f"trial {trial}: lambda=1"


def _bm25_scan(docs, query, omega, k1=1.2, b=0.75):
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    scored = []
    for ordinal, doc in enumerate(docs):
        total = 0.0
        for term in query:
            tf = doc.count(term)
            if tf == 0:
                continue
            df = sum(1 for d in docs if term in d)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = k1 * (1.0 - b + b * len(doc) / avgdl)
            total += idf * (tf * (k1 + 1.0) / (tf + norm))
        if total > 0.0:
            scored.append((ordinal, total))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:omega]


def test_criterion_04_bm25_oracle():
    """Naive full-formula scan agrees on random corpora; pinned hand value."""
    hand = bm25_top(build_index([["cat", "sat"]]), ["cat"], omega=10)
    assert len(hand) == 1
    assert abs(hand[0][1] - 0.2877) < 1e-4

    vocab = [f"w{i}" for i in range(15)]
    rng = random.Random(88001)
    for trial in range(150):
        n_docs = rng.randint(1, 50)
        docs = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for _ in range(n_docs)
        ]
        query = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
        omega = rng.randint(1, n_docs + 2)
        got = bm25_top(build_index(docs), query, omega)
        want = _bm25_scan(docs, query, omega)
        assert got == want, f"trial {trial}"
        restricted = bm25_top(build_index(docs, terms=query), query, omega)
        assert restricted == want, f"trial {trial}, query-restricted index"


def test_criterion_05_likert_softmax():
    """All 625 rating vectors normalize and keep the argmax; pinned example."""
    labels = [S, R, N, C]
    for combo in itertools.product(range(1, 6), repeat=4):
        ratings = dict(zip(labels, combo))
        probs = likert_softmax(ratings)
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        top = max(combo)
        if combo.count(top) == 1:
            strict_max = labels[combo.index(top)]
            assert max(probs, key=probs.get) is strict_max

    ratings = {S: 2, R: 5, N: 4, C: 2}
    independent = math.exp(5) / sum(math.exp(v) for v in ratings.values())
    got = likert_softmax(ratings)[R]
    assert abs(got - independent) < 1e-3
    assert abs(got - 0.681) < 1e-3


def _all_matchings(edges):
    out = []

    def rec(idx, used_i, used_j, acc):
        out.append(tuple(acc))
        for k in range(idx, len(edges)):
            i, j = edges[k]
            if i in used_i or j in used_j:
                continue
            rec(k + 1, used_i | {i}, used_j | {j}, acc + [(i, j)])

    rec(0, frozenset(), frozenset(), [])
    return out


def _max_matchings(edges):
    matchings = _all_matchings(edges)
    best = max((len(m) for m in matchings), default=0)
    return [m for m in matchings if len(m) == best]


def _pair_stats(pairs):
    crossings = sum(
        1
        for (c1, r1), (c2, r2) in itertools.combinations(pairs, 2)
        if (c1 - c2) * (r1 - r2) < 0
    )
    ordered = sorted(pairs)
    chunks = 0 if not ordered else 1 + sum(
        1
        for (c1, r1), (c2, r2) in zip(ordered, ordered[1:])
        if not (c2 == c1 + 1 and r2 == r1 + 1)
    )
    return crossings, chunks


def _align_bruteforce(cand, ref):
    stems_c = [stem(t) for t in cand]
    stems_r = [stem(t) for t in ref]
    exact_edges = [
        (i, j) for i in range(len(cand)) for j in range(len(ref)) if cand[i] == ref[j]
    ]
    best = None
    for em in _max_matchings(exact_edges):
        used_i = {i for i, _ in em}
        used_j = {j for _, j in em}
        stem_edges = [
            (i, j)
            for i in range(len(cand))
            if i not in used_i
            for j in range(len(ref))
            if j not in used_j and stems_c[i] == stems_r[j]
        ]
        for sm in _max_matchings(stem_edges):
            pairs = sorted(em + sm)
            crossings, chunks = _pair_stats(pairs)
            key = (crossings, chunks, tuple(pairs))
            if best is None or key < best[0]:
                best = (key, pairs)
    return best[1] if best else []


def test_criterion_06_meteor_lite():
    """Pinned values plus exhaustive-alignment agreement for short pairs."""
    assert abs(meteor_lite("aa bb cc dd", "aa bb cc dd") - (1.0 - 0.5 / 64.0)) < 1e-9
    assert meteor_lite("aa bb cc", "xx yy zz") == 0.0

    vocab = [
        "run", "runs", "running", "ran",
        "cat", "cats", "dog", "dogs", "form", "hoping",
    ]
    rng = random.Random(606)
    for trial in range(300):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        got = align_tokens(cand, ref)
        want = _align_bruteforce(cand, ref)
        assert got == want, f"trial {trial}: cand={cand} ref={ref}"


def test_criterion_07_chunking_property():
    """1000 random documents: exact round trip, length bound, linkage."""
    words = [
        "alpha", "bridge", "creek", "delta", "eastern",
        "facility", "granite", "harbor", "junction", "meadow",
    ]
    rng = random.Random(7777)
    for trial in range(1000):
        sentences = []
        for _ in range(rng.randint(1, 12)):
            body = " ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))
            sentences.append(body.capitalize() + rng.choice([".", "!", "?"]))
        text = " ".join(sentences)

        max_chars = rng.choice([25, 60, 120, 400])
        chunks = chunk_document(Document("u", tuple(sentences)), max_chars)
        assert " ".join(c.text for c in chunks) == text, f"trial {trial}: round trip"
        for c in chunks:
            assert c.text == " ".join(c.sentences)
            assert len(c.text) <= max_chars or c.oversized, f"trial {trial}: length"
            if c.oversized:
                assert len(c.sentences) == 1
        for i, c in enumerate(chunks):
            assert c.index_in_doc == i
            assert c.prev_context == (chunks[i - 1].text if i > 0 else None)
            assert c.next_context == (
                chunks[i + 1].text if i + 1 < len(chunks) else None
            ), f"trial {trial}: linkage"


def _random_eval_fixture(rng):
    labels = [S, R, N, C]
    vocab = [f"tok{i}" for i in range(30)]
    golds = []
    preds = []
    for cid in range(6):
        qas = []
        for _ in range(rng.randint(1, 2)):
            words = [rng.choice(vocab) for _ in range(rng.randint(3, 8))]
            qas.append(
                GoldQA(
                    question=" ".join(words[: len(words) // 2 + 1]) + "?",
                    answer=" ".join(words[len(words) // 2 + 1:]) + ".",
                    answer_type=AnswerType.EXTRACTIVE,
                )
            )
        gold_label = rng.choice(labels)
        golds.append(
            Claim(id=cid, text=f"claim {cid}", gold_label=gold_label,
                  gold_evidence=tuple(qas))
        )
        evidence = []
        for qa in qas:
            style = rng.random()
            if style < 0.4:
                evidence.append(PredEvidence(question=qa.question, answer=qa.answer))
            elif style < 0.7:
                evidence.append(
                    PredEvidence(
                        question=" ".join(qa.question.split()[:2]),
                        answer=rng.choice(vocab),
                    )
                )
            else:
                evidence.append(
                    PredEvidence(question="zz qq ww", answer="vv uu")
                )
        pred_label = gold_label if rng.random() < 0.5 else rng.choice(labels)
        preds.append(
            PredictionRecord(
                claim_id=cid, claim=f"claim {cid}",
                evidence=tuple(evidence), verdict=pred_label,
            )
        )
    return golds, preds


def test_criterion_08_threshold_monotonicity():
    """Score never increases with the threshold and never beats accuracy."""
    rng = random.Random(41)
    thresholds = (0.1, 0.25, 0.5)
    for trial in range(30):
        golds, preds = _random_eval_fixture(rng)
        report = averitec_score(preds, golds, ScoringConfig(thresholds=thresholds))
        scores = [report.averitec_score[t] for t in thresholds]
        assert scores[0] >= scores[1] >= scores[2], f"trial {trial}: {scores}"
        assert all(s <= report.accuracy for s in scores), f"trial {trial}"


def test_criterion_09_retrieval_determinism(
    dataset_path, knowledge_store_path, tmp_path,
):
    """Consecutive retrieval runs emit byte-identical trace files."""
    dirs = (tmp_path / "first", tmp_path / "second")
    for out_dir in dirs:
        assert run_cli(
            ["retrieve",
             "--dataset", str(dataset_path),
             "--knowledge-store", str(knowledge_store_path),
             "--output-dir", str(out_dir)]
        ) == 0
    names = sorted(p.name for p in dirs[0].glob("trace_*.json"))
    assert len(names) == 10
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


_SMOKE_VARS = (
    "CLAIMCHECK_SMOKE_CONFIG",
    "CLAIMCHECK_SMOKE_DATASET",
    "CLAIMCHECK_SMOKE_STORE",
)
_missing_smoke = [v for v in _SMOKE_VARS if not os.environ.get(v)]


@pytest.mark.live
@pytest.mark.skipif(
    bool(_missing_smoke),
    reason="live smoke needs environment variables: " + ", ".join(_SMOKE_VARS),
)
def test_criterion_10_live_smoke(tmp_path):
    """Real-endpoint run completes with bounded, well-cited QA output."""
    out_dir = tmp_path / "live"
    code = run_cli(
        ["verify",
         "--config", os.environ["CLAIMCHECK_SMOKE_CONFIG"],
         "--dataset", os.environ["CLAIMCHECK_SMOKE_DATASET"],
         "--knowledge-store", os.environ["CLAIMCHECK_SMOKE_STORE"],
         "--output-dir", str(out_dir)]
    )
    assert code == 0

    records = json.loads((out_dir / "predictions.json").read_text())
    assert records
    cited = 0
    total = 0
    for record in records:
        assert len(record["evidence"]) <= 10
        for item in record["evidence"]:
            total += 1
            cited += bool(item["source_url"])
    assert total > 0
    assert cited / total >= 0.9, f"only {cited}/{total} citations resolved"

    progress = [
        json.loads(line)
        for line in (out_dir / "verify_progress.jsonl").read_text().splitlines()
    ]
    assert all(entry["status"] == "ok" for entry in progress)
