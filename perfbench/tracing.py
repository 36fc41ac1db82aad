"""Span tracing for the benchmark's traced runs, and the per-layer table.

Nothing under src/ changes. launch.py calls install() in the CLI process
before claimcheck.cli.main runs; install() replaces each traced function
at the name its caller looks it up by (claimcheck.retriever.tokenize,
claimcheck.scoring.stem, claimcheck.cli.retrieve, ...). A span records
name, start, end, parent span, claim id and a few counts; hot leaf
functions (tokenize, stem, chunk_document) are summed per parent span
instead, which is the same arithmetic at a fraction of the memory. Spans
stay in memory and are written out as JSON when the command ends.

layer_metrics() turns the span files of one workload iteration into the
per-layer metrics. Self time is a span's duration minus the part of it
covered by its child spans (and minus its summed leaf calls).
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# span fields
NAME, START, END, PARENT, CLAIM, ATTRS, LEAVES = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.root_leaves: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def begin(self, name: str, claim=None, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        if claim is None and parent >= 0:
            claim = self.spans[parent][CLAIM]
        span = [name, time.perf_counter(), None, parent, claim, {}, {}]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value: float) -> None:
        """Add to a count on the innermost open span of this thread."""
        idx = self.current()
        if idx >= 0:
            attrs = self.spans[idx][ATTRS]
            attrs[key] = attrs.get(key, 0) + value

    def span(self, fn, name: str, claim=None, attrs=None, parent=None):
        """Wrap fn so each call is one span; attrs(args, result) adds counts."""

        def traced(*args, **kwargs):
            idx = self.begin(name, claim(args) if claim else None,
                             parent() if parent else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][ATTRS]["error"] = type(exc).__name__
                raise
            finally:
                self.end(idx)
            if attrs:
                self.spans[idx][ATTRS].update(attrs(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, fn, name: str, items=None):
        """Wrap a hot leaf: calls, seconds and items summed on the parent span."""

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            idx = self.current()
            if idx >= 0:
                agg = self.spans[idx][LEAVES]
            else:
                agg = self.root_leaves
            entry = agg.get(name)
            if entry is None:
                entry = agg[name] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if items:
                entry[2] += items(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "root_leaves": self.root_leaves}, fh)


class _CountingFile:
    """File proxy that adds the characters read to the open span."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __iter__(self):
        for line in self._fh:
            self._tracer.add("bytes_read", len(line))
            yield line

    def read(self, *args):
        data = self._fh.read(*args)
        self._tracer.add("bytes_read", len(data))
        return data

    def readline(self, *args):
        line = self._fh.readline(*args)
        self._tracer.add("bytes_read", len(line))
        return line

    def __getattr__(self, name):
        return getattr(self._fh, name)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every claimcheck layer."""
    import claimcheck.cli as cli
    import claimcheck.corpus as corpus
    import claimcheck.dense as dense
    import claimcheck.generator as generator
    import claimcheck.retriever as retriever
    import claimcheck.scoring as scoring

    t = tracer

    # cli: one span per claim in the worker pool, parented to the command
    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = t.current()
            traced = t.span(fn, "cli.claim", claim=lambda a: a[0].id,
                            parent=lambda: parent)
            return super().submit(traced, *args, **kwargs)

    cli.ThreadPoolExecutor = TracedPool

    # corpus
    corpus.open = lambda *a, **k: _CountingFile(open(*a, **k), t)
    cli.load_dataset = t.span(cli.load_dataset, "corpus.load_dataset")
    cli.load_knowledge_store = t.span(
        cli.load_knowledge_store, "corpus.load_store",
        attrs=lambda a, r: {"docs": len(r.documents)},
    )
    retriever.chunk_document = t.leaf(retriever.chunk_document, "corpus.chunk", len)

    # lexical
    for module in (retriever, generator, dense, scoring):
        module.tokenize = t.leaf(module.tokenize, "lexical.tokenize")
    retriever.build_index = t.span(retriever.build_index, "lexical.build_index")
    generator.build_index = t.span(generator.build_index, "lexical.build_index")
    retriever.bm25_top = t.span(
        retriever.bm25_top, "lexical.bm25_top",
        attrs=lambda a, r: {"pruned": len(r), "candidates": a[0].doc_count},
    )
    generator.bm25_top = t.span(generator.bm25_top, "lexical.bm25_top")

    # dense
    retriever.embed_cached = t.span(
        retriever.embed_cached, "dense.embed_cached",
        attrs=lambda a, r: {"texts": len(a[0])},
    )
    dense.embed_batch = t.span(
        dense.embed_batch, "dense.embed", attrs=lambda a, r: {"texts": len(a[0])}
    )
    dense.EmbeddingCache.put_many = t.span(dense.EmbeddingCache.put_many, "dense.cache_write")
    cli.EmbeddingCache = t.span(cli.EmbeddingCache, "dense.cache_open")
    build = dense.VectorIndex.__dict__["build"].__func__
    dense.VectorIndex.build = classmethod(t.span(build, "dense.knn"))
    retriever.knn = t.span(retriever.knn, "dense.knn")
    retriever.mmr_select = t.span(retriever.mmr_select, "dense.mmr")

    # retriever
    cli.retrieve = t.span(cli.retrieve, "retriever.retrieve")

    # generator
    cli.make_chat_provider = t.span(cli.make_chat_provider, "generator.load_provider")
    cli.run_generation = t.span(cli.run_generation, "generator.run")
    cli.prediction_record = t.span(cli.prediction_record, "generator.record")
    generator.select_fewshot = t.span(generator.select_fewshot, "generator.fewshot")
    generator.build_prompt = t.span(
        generator.build_prompt, "generator.prompt",
        attrs=lambda a, r: {"chars": len(r[0]) + len(r[1])},
    )
    generator.parse_output = t.span(generator.parse_output, "generator.parse")
    generator.MockChatProvider.complete = t.span(
        generator.MockChatProvider.complete, "generator.llm"
    )

    # verdict
    for attr in ("likert_softmax", "ensemble", "final_label"):
        setattr(cli, attr, t.span(getattr(cli, attr), "verdict"))

    # scoring: hu_meteor calls are the per-claim spans of evaluate
    gold_claim: dict[int, int] = {}

    def remember_golds(fn):
        def inner(preds, golds, *args, **kwargs):
            gold_claim.update({id(c.gold_evidence): c.id for c in golds})
            return fn(preds, golds, *args, **kwargs)
        return inner

    cli.load_predictions = t.span(cli.load_predictions, "scoring.load_predictions")
    cli.averitec_score = t.span(remember_golds(cli.averitec_score), "scoring.averitec")
    scoring.hu_meteor = t.span(
        scoring.hu_meteor, "scoring.hu_meteor", claim=lambda a: gold_claim.get(id(a[1]))
    )
    scoring.meteor_lite = t.span(scoring.meteor_lite, "scoring.meteor")
    scoring.align_tokens = t.span(scoring.align_tokens, "scoring.align")
    scoring.hungarian_max = t.span(scoring.hungarian_max, "scoring.hungarian")
    scoring.stem = t.leaf(scoring.stem, "porter.stem")


# ---------------------------------------------------------------------------
# analysis, in the benchmark process


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of child intervals and the summed leaves."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        covered = union_length([(s, e) for s, e in clipped if e > s])
        leaves = sum(entry[1] for entry in span[LEAVES].values())
        out.append(max(0.0, end - start - covered - leaves))
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of 99.9/99/95/90/75/50 with at
    least ten samples beyond it, or (100, max) when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 100.0, 0.0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))  # nearest rank
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def layer_metrics(span_files: list[dict], command_walls: list[float],
                  own_bytes: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics of one workload iteration.

    span_files: the dumped tracers of the iteration's CLI commands.
    command_walls: wall seconds of those commands, measured outside.
    own_bytes: per claim, the size of its own lines in the store; the
    useful share of what corpus.load_store read.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    retriever_self = 0.0
    attrs: dict[str, float] = {}
    leaves: dict[str, list] = {}
    align: list[float] = []
    claim_time: dict[int, float] = {}
    cli_self = 0.0
    useful = 0
    embedded_cached = 0
    retrieve_counts: dict[tuple[int, int], list[int]] = {}
    scoring_top = 0.0
    parse_failures = 0

    for n, data in enumerate(span_files):
        spans = data["spans"]
        self_t = self_times(spans)
        for name, entry in data["root_leaves"].items():
            leaves.setdefault(name, [0, 0.0, 0])
            for j in range(3):
                leaves[name][j] += entry[j]
        for i, span in enumerate(spans):
            name = span[NAME]
            dur = span[END] - span[START]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name == "retriever.retrieve":
                retriever_self += self_t[i]
            for key, value in span[ATTRS].items():
                if key != "error":
                    attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value
            for lname, entry in span[LEAVES].items():
                leaves.setdefault(lname, [0, 0.0, 0])
                for j in range(3):
                    leaves[lname][j] += entry[j]
            parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
            if name == "corpus.load_store":
                useful += own_bytes.get(span[CLAIM], 0)
            elif name == "dense.embed" and parent and parent[NAME] == "dense.embed_cached":
                embedded_cached += span[ATTRS].get("texts", 0)
            elif name == "scoring.align":
                align.append(dur)
            elif name == "generator.parse" and "error" in span[ATTRS]:
                parse_failures += 1
            elif name in ("scoring.averitec", "scoring.load_predictions"):
                scoring_top += dur
            if parent and parent[NAME] == "retriever.retrieve":
                # chunks BM25 kept, and chunk texts embedded after dedup (+ claim)
                counts = retrieve_counts.setdefault((n, span[PARENT]), [0, 0])
                counts[0] += span[ATTRS].get("pruned", 0)
                counts[1] += span[ATTRS].get("texts", 0)
            if span[CLAIM] is not None and (parent is None or parent[CLAIM] is None):
                claim_time[span[CLAIM]] = claim_time.get(span[CLAIM], 0.0) + dur
        # the command's wall time during which no thread is inside a layer
        layer_spans = [(s[START], s[END]) for s in spans if not s[NAME].startswith("cli.")]
        for span in spans:
            if span[NAME] == "cli.command":
                inside = [(max(s, span[START]), min(e, span[END])) for s, e in layer_spans]
                cli_self += span[END] - span[START] - union_length(
                    [(s, e) for s, e in inside if e > s])

    def leaf(name, j):
        return leaves.get(name, [0, 0.0, 0])[j]

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(command_walls)
    requested = attrs.get("dense.embed_cached.texts", 0)
    bytes_read = attrs.get("corpus.load_store.bytes_read", 0)
    align_pct, align_tail = tail_percentile(align)
    claim_pct, claim_tail = tail_percentile(list(claim_time.values()))
    return {
        "corpus.load_store_s": total.get("corpus.load_store", 0.0),
        "corpus.docs_loaded": attrs.get("corpus.load_store.docs", 0),
        "corpus.store_useful_ratio": ratio(min(useful, bytes_read), bytes_read),
        "corpus.chunk_s": leaf("corpus.chunk", 1),
        "corpus.chunks": leaf("corpus.chunk", 2),
        "lexical.tokenize_s": leaf("lexical.tokenize", 1),
        "lexical.tokenize_calls": leaf("lexical.tokenize", 0),
        "lexical.build_index_s": total.get("lexical.build_index", 0.0),
        "lexical.bm25_top_s": total.get("lexical.bm25_top", 0.0),
        "lexical.pruned_chunks": attrs.get("lexical.bm25_top.pruned", 0),
        "lexical.prune_ratio": ratio(attrs.get("lexical.bm25_top.pruned", 0),
                                     attrs.get("lexical.bm25_top.candidates", 0)),
        "dense.embed_s": total.get("dense.embed", 0.0),
        "dense.texts_embedded": attrs.get("dense.embed.texts", 0),
        "dense.cache_write_s": total.get("dense.cache_write", 0.0),
        "dense.cache_hit_ratio": ratio(requested - embedded_cached, requested),
        "dense.cache_open_s": total.get("dense.cache_open", 0.0),
        "dense.knn_s": total.get("dense.knn", 0.0),
        "dense.mmr_s": total.get("dense.mmr", 0.0),
        "retriever.retrieve_s": total.get("retriever.retrieve", 0.0),
        "retriever.self_s": retriever_self,
        "retriever.duplicates_dropped": sum(
            pruned - (texts - 1) for pruned, texts in retrieve_counts.values() if texts),
        "generator.fewshot_s": total.get("generator.fewshot", 0.0),
        "generator.prompt_s": total.get("generator.prompt", 0.0),
        "generator.parse_s": total.get("generator.parse", 0.0),
        "generator.prompt_chars": attrs.get("generator.prompt.chars", 0),
        "generator.llm_calls": calls.get("generator.llm", 0),
        "generator.parse_failures": parse_failures,
        "verdict.s": total.get("verdict", 0.0),
        "scoring.meteor_calls": calls.get("scoring.meteor", 0),
        "scoring.meteor_s": total.get("scoring.meteor", 0.0),
        "scoring.align_s": total.get("scoring.align", 0.0),
        "scoring.align_samples": len(align),
        "scoring.align_p50_us": statistics.median(align) * 1e6 if align else 0.0,
        "scoring.align_tail_pct": align_pct,
        "scoring.align_tail_us": align_tail * 1e6,
        "porter.stem_s": leaf("porter.stem", 1),
        "scoring.hungarian_s": total.get("scoring.hungarian", 0.0),
        "scoring.hungarian_calls": calls.get("scoring.hungarian", 0),
        "scoring.wall_share": ratio(scoring_top, wall),
        "cli.claims": len(claim_time),
        "cli.claim_p50_s": statistics.median(claim_time.values()) if claim_time else 0.0,
        "cli.claim_tail_pct": claim_pct,
        "cli.claim_tail_s": claim_tail,
        "cli.self_s": cli_self,
    }
