"""Span arithmetic on hand-built trees, and one traced CLI run."""

import json
import os
import subprocess
import sys

import pytest

import generate
from checks import check_outputs
from tracing import layer_metrics, self_times, tail_percentile, union_length

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def span(name, start, end, parent=-1, claim=None, attrs=None, leaves=None):
    return [name, start, end, parent, claim, attrs or {}, leaves or {}]


def test_union_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_subtracts_children_and_leaves():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: covered is 1..5
        span("c", 7.0, 8.0, parent=0, leaves={"lexical.tokenize": [4, 0.5, 0]}),
        span("d", 7.25, 7.5, parent=3),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.25, 0.25])


def test_self_time_clips_children_to_the_parent():
    # a cross-thread child may outlive its parent's end
    spans = [span("root", 0.0, 4.0), span("late", 3.0, 6.0, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 3.0])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_layer_metrics_on_a_hand_built_command():
    spans = [
        span("cli.command", 0.0, 10.0),
        span("cli.claim", 1.0, 9.0, parent=0, claim=4),
        span("corpus.load_store", 1.0, 2.0, parent=1, claim=4,
             attrs={"docs": 3, "bytes_read": 400}),
        span("retriever.retrieve", 2.0, 8.0, parent=1, claim=4,
             leaves={"corpus.chunk": [3, 0.5, 6]}),
        span("lexical.bm25_top", 2.5, 3.0, parent=3, claim=4,
             attrs={"pruned": 5, "candidates": 6}),
        span("dense.embed_cached", 3.0, 6.0, parent=3, claim=4, attrs={"texts": 5}),
        span("dense.embed", 3.0, 5.0, parent=5, claim=4, attrs={"texts": 2}),
    ]
    m = layer_metrics([{"spans": spans, "root_leaves": {}}], [10.5], {4: 100})
    assert m["corpus.docs_loaded"] == 3
    assert m["corpus.store_useful_ratio"] == 0.25
    assert m["corpus.chunks"] == 6
    assert m["lexical.prune_ratio"] == pytest.approx(5 / 6)
    assert m["dense.cache_hit_ratio"] == pytest.approx(3 / 5)
    assert m["retriever.duplicates_dropped"] == 1  # 5 pruned, 4 chunk texts embedded
    assert m["retriever.self_s"] == pytest.approx(6.0 - 0.5 - 3.5)
    assert m["cli.self_s"] == pytest.approx(10.0 - 7.0)  # layers cover 1..8
    assert m["cli.claims"] == 1 and m["cli.claim_p50_s"] == pytest.approx(8.0)


def test_traced_cli_run_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.setitem(generate.SPECS, "paper_cold", generate.Spec(
        claims=2, docs=(30, 30), sentences=(5, 8), mirror_share=0.1,
        strong=2, hidden=1, train=10, k=4,
    ))
    inputs = str(tmp_path / "in")
    manifest = generate.generate("paper_cold", 5, inputs)
    out = str(tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=SRC)
    common = ["--dataset", os.path.join(inputs, "dataset.json"), "--output-dir", out]
    commands = [
        ["verify", *common, "--knowledge-store", os.path.join(inputs, "store.jsonl"),
         "--train-set", os.path.join(inputs, "train.json"),
         "--mock-script", os.path.join(inputs, "script.json"),
         "--cache-dir", str(tmp_path / "cache"), "--k", "4"],
        ["evaluate", *common],
    ]
    dumps = []
    for i, argv in enumerate(commands):
        report = str(tmp_path / f"cmd{i}.json")
        subprocess.run(
            [sys.executable, os.path.join(BENCH, "launch.py"), report, "trace", "--", *argv],
            env=env, check=True, capture_output=True, timeout=120,
        )
        first_work = json.loads(open(report).read())["first_work"]
        assert (first_work is None) == (argv[0] == "evaluate")
        with open(report + ".spans.json") as fh:
            dumps.append(json.load(fh))
    check_outputs(out, manifest)

    for dump in dumps:
        for i, s in enumerate(dump["spans"]):
            assert s[2] >= s[1] and s[3] < len(dump["spans"]) and s[3] != i
    own = {c: os.path.getsize(os.path.join(inputs, "store", f"{c}.json")) for c in range(2)}
    m = layer_metrics(dumps, [1.0, 1.0], own)
    assert m["corpus.docs_loaded"] == 2 * 33
    assert 0.0 < m["corpus.store_useful_ratio"] < 1.0
    assert m["generator.llm_calls"] == 2 and m["generator.parse_failures"] == 0
    assert m["dense.cache_hit_ratio"] == 0.0
    assert m["dense.texts_embedded"] > 0 and m["retriever.duplicates_dropped"] > 0
    assert m["scoring.meteor_calls"] == m["scoring.align_samples"] > 0
    assert m["scoring.hungarian_calls"] == 4 and m["cli.claims"] == 2
    for name in ("lexical.tokenize_s", "lexical.build_index_s", "dense.knn_s",
                 "dense.mmr_s", "generator.fewshot_s", "verdict.s", "porter.stem_s"):
        assert m[name] > 0.0, name
