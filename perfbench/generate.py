"""Seeded synthetic inputs for the benchmark workloads.

Every random choice comes from one numpy Generator seeded with the
benchmark's --seed, drawn as whole arrays rather than word by word, so a
paper-scale claim (1000 documents of 40-60 sentences) is produced in well
under a second. The same seed and workload give byte-identical files; the
program under test only ever sees the files.

Files written under the target directory:

- dataset.json: the claims, with gold label and gold question-answer pairs
- train.json: the few-shot training claims
- store/{claim_id}.json and store.jsonl: the knowledge store in both
  layouts (per-claim directory, one combined JSON-lines file)
- script.json: mock LLM replies, built with claimcheck's serialize_output,
  citing sources 1..k with question-answer pairs that paraphrase the gold
  ones; a fixed share of claims first get a malformed reply
- manifest.json: scripted labels and the planted evidence URLs per claim
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from claimcheck.corpus import AnswerType, VeracityLabel
from claimcheck.generator import EvidenceQA, GeneratorOutput, serialize_output

LABELS = (
    "Supported",
    "Refuted",
    "Not Enough Evidence",
    "Conflicting Evidence/Cherrypicking",
)

# Frequent English function words, most frequent first. About 45% of the
# tokens of running English text are words like these; their repeats are
# what make METEOR alignment expensive.
STOPWORDS = (
    "the of and to a in is that for it was on with as by at be this from are "
    "or an not have has were which their but its had been they more also than "
    "after about who said"
).split()
STOP_SHARE = 0.45


def _content_vocabulary(size: int = 6000) -> list[str]:
    """Fixed pronounceable pseudo-words; independent of the seed."""
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    two = [a + b for a in syllables for b in syllables]
    three = [a + b + c for a in syllables[:24] for b in syllables for c in syllables[:12]]
    words = sorted(set(two + three) - set(STOPWORDS))
    order = np.random.default_rng(0).permutation(len(words))[:size]
    return [words[i] for i in order]


CONTENT = _content_vocabulary()
VOCAB = np.array(STOPWORDS + CONTENT, dtype=object)
N_STOP = len(STOPWORDS)


def _zipf(n: int, offset: float, s: float) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(n) + offset, s)
    return weights / weights.sum()


# "the" comes out at about 8% of all tokens, as in English prose
STOP_P = _zipf(len(STOPWORDS), 1.5, 1.0)
CONTENT_P = _zipf(len(CONTENT), 2.7, 1.05)


@dataclass(frozen=True)
class Spec:
    """Input sizes of one workload. Ranges are inclusive."""

    claims: int
    docs: tuple[int, int] = (0, 0)
    sentences: tuple[int, int] = (0, 0)
    mirror_share: float = 0.0
    strong: int = 0  # planted evidence documents dense in the claim's words
    hidden: int = 0  # planted evidence documents sharing none of its words
    train: int = 0
    k: int = 10  # sources the mock replies cite, 1..k
    malformed_share: float = 0.0
    gold_qa: tuple[int, int] = (2, 3)


SPECS = {
    "paper_cold": Spec(
        claims=3, docs=(1000, 1000), sentences=(40, 60), mirror_share=0.05,
        strong=5, hidden=5, train=100, k=10,
    ),
    "rerun_warm": Spec(
        claims=60, docs=(100, 200), sentences=(4, 8), mirror_share=0.05,
        strong=3, hidden=3, train=3000, k=8, malformed_share=0.1, gold_qa=(5, 8),
    ),
}


def _word_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    """Token ids into VOCAB, a STOP_SHARE of them stopwords."""
    stop = rng.random(n) < STOP_SHARE
    stop_ids = rng.choice(N_STOP, size=n, p=STOP_P)
    content_ids = N_STOP + rng.choice(len(CONTENT), size=n, p=CONTENT_P)
    return np.where(stop, stop_ids, content_ids)


def _join(ids: np.ndarray, lengths: np.ndarray) -> list[str]:
    """Split ids into consecutive sentences of the given lengths."""
    words = VOCAB[ids].tolist()
    ends = np.cumsum(lengths).tolist()
    out = []
    start = 0
    for end in ends:
        text = " ".join(words[start:end])
        out.append(text[0].upper() + text[1:] + ".")
        start = end
    return out


def _phrase(rng: np.random.Generator, low: int, high: int) -> list[str]:
    return VOCAB[_word_ids(rng, int(rng.integers(low, high + 1)))].tolist()


def _short_qa(rng: np.random.Generator) -> tuple[str, str]:
    """A short question-answer pair of distinct content words."""
    words = [CONTENT[i] for i in rng.choice(len(CONTENT), size=6, replace=False)]
    return f"What {' '.join(words[:3])}?", " ".join(words[3:])


def _claim_text(rng: np.random.Generator, content_ids: np.ndarray) -> str:
    words = VOCAB[content_ids].tolist()
    for pos in sorted(rng.choice(len(words), size=4, replace=False).tolist(), reverse=True):
        words.insert(pos, STOPWORDS[int(rng.integers(0, 8))])
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _store_lines(rng, spec: Spec, claim_id: int, claim_ids: np.ndarray, n_docs: int):
    """JSON lines of one claim's documents, plus its planted evidence URLs."""
    n_sent = rng.integers(spec.sentences[0], spec.sentences[1] + 1, size=n_docs)
    lengths = rng.integers(8, 19, size=int(n_sent.sum()))
    ids = _word_ids(rng, int(lengths.sum()))
    word_off = np.concatenate(([0], np.cumsum(lengths)))
    sent_off = np.concatenate(([0], np.cumsum(n_sent)))

    # Evidence recall is about 0.5 by design: the strong documents are
    # found at the default config, the hidden ones (evidence worded without
    # the claim's words) are not, and a retrieval shortcut that loses
    # relevant chunks shows as a drop.
    planted = rng.choice(n_docs, size=spec.strong + spec.hidden, replace=False)
    for doc in planted[: spec.strong].tolist():
        # the claim's words fill about 60% of the doc's first 15
        # sentences, which land in its first chunk
        first = int(sent_off[doc])
        lo = int(word_off[first])
        hi = int(word_off[first + min(15, int(n_sent[doc]))])
        hit = lo + np.flatnonzero(rng.random(hi - lo) < 0.6)
        ids[hit] = rng.choice(claim_ids, size=hit.size)
    for doc in planted[spec.strong:].tolist():
        lo, hi = int(word_off[sent_off[doc]]), int(word_off[sent_off[doc + 1]])
        hidden = lo + np.flatnonzero(np.isin(ids[lo:hi], claim_ids))
        # claim words are drawn from content ranks 100-2000, these from 2000-3000
        ids[hidden] = N_STOP + 2000 + rng.choice(1000, size=hidden.size)

    sentences = _join(ids, lengths)
    urls = [f"https://site{int(h)}.example.com/c{claim_id}/d{j}"
            for j, h in enumerate(rng.integers(0, 500, size=n_docs))]
    docs = [(urls[j], sentences[sent_off[j]:sent_off[j + 1]]) for j in range(n_docs)]
    mirrored = rng.choice(n_docs, size=round(spec.mirror_share * n_docs), replace=False)
    docs += [(f"https://mirror.example.net/c{claim_id}/d{j}", docs[j][1]) for j in mirrored.tolist()]
    lines = [
        json.dumps({"claim_id": claim_id, "url": url, "url2text": sents})
        for url, sents in docs
    ]
    return lines, [urls[j] for j in planted.tolist()]


def _gold_questions(pairs) -> list[dict]:
    return [
        {"question": q, "answers": [{"answer": a, "answer_type": t}]}
        for q, a, t in pairs
    ]


def _reply(qa: list[tuple[str, str, str]], label: str, rng) -> str:
    ratings = {lab: int(rng.integers(1, 4)) for lab in VeracityLabel}
    ratings[VeracityLabel(label)] = 5
    output = GeneratorOutput(
        evidence=tuple(
            EvidenceQA(question=q, answer=a, source_rank=rank, answer_type=AnswerType(t))
            for rank, (q, a, t) in enumerate(qa, start=1)
        ),
        ratings=ratings,
        verdict=VeracityLabel(label),
    )
    return serialize_output(output)


MALFORMED_REPLY = 'Here is my analysis: {"questions": [{"question": "unfinished'


def _paraphrase(rng, words: list[str]) -> list[str]:
    """Drop, insert and reorder stopwords; inflect some content words."""
    out = []
    for w in words:
        if w in STOPWORDS:
            if rng.random() < 0.3:
                continue
        elif rng.random() < 0.2:
            w = w + "s"
        out.append(w)
    for _ in range(int(rng.integers(1, 4))):
        out.insert(int(rng.integers(0, len(out) + 1)),
                   STOPWORDS[int(rng.choice(N_STOP, p=STOP_P))])
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(0, max(1, len(out) - 1)))
        out[i:i + 2] = out[i:i + 2][::-1]
    return out


def _dense_qa(rng, long_answer: bool = False) -> tuple[list[str], list[str]]:
    return _phrase(rng, 7, 13), _phrase(rng, 16, 26) if long_answer else _phrase(rng, 8, 20)


def _qa_pairs(rng, n_gold: int, k: int):
    """Gold QA pairs, and the k pairs the mock reply cites: paraphrases of
    the gold ones, topped up with unrelated pairs, in shuffled order."""
    gold_words = [_dense_qa(rng, j % 4 == 3) for j in range(n_gold)]
    gold = [(" ".join(q) + "?", " ".join(a), "Abstractive") for q, a in gold_words]
    preds = [(_paraphrase(rng, q), _paraphrase(rng, a)) for q, a in gold_words[:k]]
    preds += [_dense_qa(rng) for _ in range(k - len(preds))]
    cited = [(" ".join(preds[i][0]) + "?", " ".join(preds[i][1]), "Abstractive")
             for i in rng.permutation(k).tolist()]
    return gold, cited


def _dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of one workload; return the manifest."""
    spec = SPECS[workload]
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    os.makedirs(os.path.join(out_dir, "store"), exist_ok=True)

    labels = rng.choice(len(LABELS), size=spec.claims).tolist()
    claim_words = [
        N_STOP + 100 + rng.choice(1900, size=10, replace=False) for _ in range(spec.claims)
    ]
    malformed = set(
        rng.choice(spec.claims, size=round(spec.malformed_share * spec.claims),
                   replace=False).tolist()
    )
    # gold pair counts cycle through the range and document counts spread
    # evenly over theirs, so every seed scores the same number of pairs
    # and has a store of the same number of documents
    gold_counts = rng.permutation(np.resize(
        np.arange(spec.gold_qa[0], spec.gold_qa[1] + 1), spec.claims)).tolist()
    doc_counts = rng.permutation(
        np.linspace(spec.docs[0], spec.docs[1], spec.claims).round().astype(int)).tolist()
    dataset, script, evidence = [], {}, {}
    combined = []
    for cid in range(spec.claims):
        label = LABELS[labels[cid]]
        text = _claim_text(rng, claim_words[cid])
        gold, cited = _qa_pairs(rng, gold_counts[cid], spec.k)
        good = _reply(cited, label, rng)
        script[str(cid)] = [MALFORMED_REPLY, good] if cid in malformed else [good]
        lines, evidence[cid] = _store_lines(rng, spec, cid, claim_words[cid], doc_counts[cid])
        with open(os.path.join(out_dir, "store", f"{cid}.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        combined.extend(lines)
        dataset.append({
            "claim_id": cid,
            "claim": text,
            "label": label,
            "questions": _gold_questions(gold),
        })

    # interleave the claims' lines, as a crawl that appends by URL would
    order = rng.permutation(len(combined)).tolist()
    with open(os.path.join(out_dir, "store.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(combined[i] for i in order) + "\n")

    train = []
    for tid in range(spec.train):
        words = VOCAB[N_STOP + rng.choice(2000, size=int(rng.integers(6, 11)), replace=False)].tolist()
        train.append({
            "claim_id": tid,
            "claim": " ".join(words).capitalize() + ".",
            "label": LABELS[int(rng.integers(0, 4))],
            "questions": _gold_questions(
                [_short_qa(rng) + ("Abstractive",) for _ in range(int(rng.integers(1, 4)))]
            ),
        })

    manifest = {
        "workload": workload,
        "seed": seed,
        "labels": {str(c["claim_id"]): c["label"] for c in dataset},
        "evidence": {str(cid): urls for cid, urls in evidence.items()},
        "strong": spec.strong,
        "malformed": sorted(malformed),
    }
    _dump(os.path.join(out_dir, "dataset.json"), dataset)
    _dump(os.path.join(out_dir, "train.json"), train)
    _dump(os.path.join(out_dir, "script.json"), script)
    _dump(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
