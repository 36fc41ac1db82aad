import json
import os
import random
import sys
import threading

import pytest

import claimcheck.corpus as corpus
from claimcheck.corpus import (
    AnswerType,
    VeracityLabel,
    chunk_document,
    Document,
    load_dataset,
    load_knowledge_store,
    parse_answer_type,
    parse_label,
)
from claimcheck.errors import ValidationError


class TestLabels:
    def test_canonical_labels_round_trip(self):
        for label in VeracityLabel:
            assert parse_label(label.value) is label

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            parse_label("Mostly True")

    def test_answer_types(self):
        for at in AnswerType:
            assert parse_answer_type(at.value) is at
        with pytest.raises(ValidationError):
            parse_answer_type("Opinion")


class TestLoadDataset:
    def test_fixture_loads(self, claims):
        assert len(claims) == 10
        assert [c.id for c in claims] == list(range(10))
        labels = {c.gold_label for c in claims}
        assert labels == set(VeracityLabel)

    def test_multiple_answers_joined(self, claims):
        qa = claims[1].gold_evidence[0]
        assert qa.answer == (
            "About three hundred thousand households.; "
            "Regional figures list 310,000 connections."
        )
        assert qa.answer_type is AnswerType.EXTRACTIVE

    def test_explicit_claim_id_wins(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([
            {"claim": "A thing happened.", "claim_id": 7},
            {"claim": "Another thing happened."},
        ]))
        loaded = load_dataset(path)
        assert loaded[0].id == 7
        assert loaded[1].id == 1

    def test_unlabeled_claims_allowed(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"claim": "Unlabeled claim text."}]))
        loaded = load_dataset(path)
        assert loaded[0].gold_label is None
        assert loaded[0].gold_evidence == ()

    def test_error_names_element_index(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([
            {"claim": "Fine claim."},
            {"claim": "", "label": "Supported"},
        ]))
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert "1" in str(exc.value)

    def test_not_an_array_rejected(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"claim": "x"}))
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_labeled_claim_without_questions_rejected(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"claim": "Something.", "label": "Supported"}]))
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_repeated_claim_ids_rejected(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([
            {"claim": "First.", "claim_id": 7},
            {"claim": "Second.", "claim_id": 3},
            {"claim": "Third.", "claim_id": 7},
            {"claim": "Fourth."},  # position 3
        ]))
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: claim ids repeated: [3, 7]"

    @pytest.mark.parametrize("claim_id", [True, 1.0, "1", None])
    def test_claim_id_must_be_an_integer(self, tmp_path, claim_id):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"claim": "A claim.", "claim_id": claim_id}]))
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert f"{path}: element 0: claim_id must be an integer" in str(exc.value)

    def test_questions_must_be_an_array(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"claim": "A claim.", "questions": "x"}]))
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: element 0: 'questions' must be an array, got a string"

    def test_too_deeply_nested_json_rejected(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert f"dataset file is not valid JSON: {path}" in str(exc.value)


class TestLoadKnowledgeStore:
    def test_single_file_filtered_by_claim(self, knowledge_store_path):
        result = load_knowledge_store(knowledge_store_path, claim_id=0)
        urls = [d.url for d in result.documents]
        assert len(urls) == 3
        assert all("halvern" in u or "ruden" in u for u in urls)
        assert result.dropped_empty == 1

    def test_other_claims_excluded(self, knowledge_store_path):
        result = load_knowledge_store(knowledge_store_path, claim_id=8)
        assert all("quorvel" in d.url or "vans" in d.url for d in result.documents)

    def test_directory_layout(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        with open(store_dir / "3.json", "w") as fh:
            fh.write(json.dumps({"claim_id": 3, "url": "u1", "url2text": ["One sentence."]}) + "\n")
            fh.write(json.dumps({"claim_id": 3, "url": "u2", "url2text": []}) + "\n")
        result = load_knowledge_store(store_dir, claim_id=3)
        assert [d.url for d in result.documents] == ["u1"]
        assert result.dropped_empty == 1

    def test_missing_per_claim_file_is_empty(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        result = load_knowledge_store(store_dir, claim_id=42)
        assert result.documents == ()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"claim_id": 1, "url":\n')
        with pytest.raises(ValidationError):
            load_knowledge_store(path, claim_id=1)


# each ill-typed field of a claim-1 store line, and the message it gives
_STORE_FAULTS = {
    "url2text_string": ({"url2text": "One sentence here. Two."},
                        "'url2text' must be an array, got a string"),
    "url2text_number": ({"url2text": 5}, "'url2text' must be an array, got a number"),
    "url2text_item": ({"url2text": ["Fine.", 3]}, "'url2text' must hold strings, got a number"),
    "url_number": ({"url": 7}, "'url' must be a string, got a number"),
    "claim_id_bool": ({"claim_id": True}, "claim_id must be an integer, got True"),
    "claim_id_string": ({"claim_id": "1"}, "claim_id must be an integer, got '1'"),
}


class TestStoreFieldTypes:
    @pytest.mark.parametrize("fault", _STORE_FAULTS)
    @pytest.mark.parametrize("layout", ["combined", "directory"])
    def test_ill_typed_field_fails_the_claim_naming_file(self, tmp_path, layout, fault):
        change, message = _STORE_FAULTS[fault]
        bad = {"claim_id": 1, "url": "bad", "url2text": ["Fine."], **change}
        good = [{"claim_id": cid, "url": f"u{cid}", "url2text": ["Fine.", " "]}
                for cid in (1, 2)]
        if layout == "combined":
            path = store = tmp_path / "store.jsonl"
            _write_store(path, [good[0], bad, good[1]])
            # the bad line starts where the first one ends
            where = f"byte {len(json.dumps(good[0])) + 1}"
        else:
            store = tmp_path / "store"
            store.mkdir()
            path = store / "1.jsonl"
            _write_store(path, [good[0], bad])
            _write_store(store / "2.jsonl", [good[1]])
            where = "line 2"
        with pytest.raises(ValidationError) as exc:
            load_knowledge_store(store, 1)
        assert str(exc.value) == f"{path}: {where}: claim 1: {message}"
        if fault.startswith("claim_id") and layout == "combined":
            # the line names no claim, so every claim's load meets it
            with pytest.raises(ValidationError) as exc:
                load_knowledge_store(store, 2)
            assert str(exc.value) == f"{path}: {where}: claim 2: {message}"
        else:
            result = load_knowledge_store(store, 2)
            assert [d.sentences for d in result.documents] == [("Fine.",)]

    @pytest.mark.parametrize(
        "bad", ['{"claim_id": 1, "url": ' + "9" * 5000 + "}", '{"url": ' + "[" * 50_000],
        ids=["overlong_integer", "nested_too_deeply"],
    )
    @pytest.mark.parametrize("layout", ["combined", "directory"])
    def test_unconvertible_line_fails_naming_it(self, tmp_path, layout, bad):
        good = json.dumps({"claim_id": 1, "url": "u1", "url2text": ["Fine."]})
        if layout == "combined":
            path = store = tmp_path / "store.jsonl"
        else:
            store = tmp_path / "store"
            store.mkdir()
            path = store / "1.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValidationError) as exc:
            load_knowledge_store(store, 1)
        assert str(exc.value).startswith(f"{path}: line 2: not valid JSON: ")

    def test_blank_sentences_still_dropped_and_counted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        _write_store(path, [
            {"claim_id": 1, "url": "a", "url2text": [" ", "", "Kept.", "\t"]},
            {"claim_id": 1, "url2text": [" "]},
            {"claim_id": 1},
            {"claim_id": 1, "url": "b", "url2text": []},
        ])
        result = load_knowledge_store(path, 1)
        assert result.documents == (Document(url="a", sentences=("Kept.",)),)
        assert result.dropped_empty == 3

def _reference_load(path, claim_id):
    """The store loader before offset indexing: scan the whole file per claim."""
    documents, dropped = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("claim_id", claim_id) != claim_id:
                continue
            sentences = tuple(
                s for s in obj.get("url2text", []) if isinstance(s, str) and s.strip()
            )
            if not sentences:
                dropped += 1
                continue
            documents.append(Document(url=obj.get("url", ""), sentences=sentences))
    return tuple(documents), dropped


def _write_store(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))


def _random_store_lines(rng, claim_ids, n_lines):
    lines = []
    for n in range(n_lines):
        obj = {"url": f"u{n}", "url2text": [f"Sentence {n}."] if rng.random() > 0.1 else []}
        if rng.random() > 0.15:  # the rest have no claim_id: shared by every claim
            obj["claim_id"] = rng.choice(claim_ids)
        lines.append(obj)
    return lines


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(corpus, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(corpus, name, counted)
    return calls


class TestCombinedStoreIndex:
    def test_matches_full_scan_and_parses_file_once(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        path = tmp_path / "store.jsonl"
        lines = _random_store_lines(rng, list(range(12)), 300)
        _write_store(path, lines)
        parses = _count_calls(monkeypatch, "json_line")
        builds = _count_calls(monkeypatch, "_index_store")
        expected_parses = len(lines)
        for claim_id in list(range(12)) + [99]:
            result = load_knowledge_store(path, claim_id)
            assert (result.documents, result.dropped_empty) == _reference_load(path, claim_id)
            expected_parses += sum(1 for o in lines if o.get("claim_id", claim_id) == claim_id)
        assert len(builds) == 1
        assert len(parses) == expected_parses

    def test_shared_lines_interleave_in_file_order(self, tmp_path):
        path = tmp_path / "store.jsonl"
        _write_store(path, [
            {"claim_id": 1, "url": "a1", "url2text": ["x"]},
            {"url": "s1", "url2text": ["x"]},
            {"claim_id": 2, "url": "b1", "url2text": ["x"]},
            {"claim_id": 1, "url": "a2", "url2text": ["x"]},
            {"url": "s2", "url2text": ["x"]},
            {"claim_id": 2, "url": "b2", "url2text": ["x"]},
        ])
        urls = lambda cid: [d.url for d in load_knowledge_store(path, cid).documents]
        assert urls(1) == ["a1", "s1", "a2", "s2"]
        assert urls(2) == ["s1", "b1", "s2", "b2"]
        assert urls(7) == ["s1", "s2"]

    @pytest.mark.parametrize(
        "bad",
        [b'{"claim_id": 1, "url":', b"[1, 2]", b'{"claim_id": 1, "url": "\xff"}'],
        ids=["truncated_json", "not_an_object", "not_utf8"],
    )
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_bad_line_fails_every_claim_until_fixed(self, tmp_path, monkeypatch, bad, position):
        path = tmp_path / "store.jsonl"
        good = [
            json.dumps({"claim_id": i % 3, "url": f"u{i}", "url2text": ["x"]}).encode()
            for i in range(6)
        ]
        lines = good[:position] + [bad] + good[position:]
        path.write_bytes(b"\n".join(lines) + b"\n")
        builds = _count_calls(monkeypatch, "_index_store")
        for claim_id in (0, 1, 2, 0):
            with pytest.raises(ValidationError) as exc:
                load_knowledge_store(path, claim_id)
            assert str(path) in str(exc.value)
            assert f"line {position + 1}:" in str(exc.value)
        assert len(builds) == 4
        path.write_bytes(b"\n".join(good) + b"\n")
        assert [d.url for d in load_knowledge_store(path, 1).documents] == ["u1", "u4"]

    def test_rewritten_store_is_indexed_again(self, tmp_path):
        path = tmp_path / "store.jsonl"
        one = {"claim_id": 1, "url": "one", "url2text": ["x"]}
        two = {"claim_id": 2, "url": "two", "url2text": ["x"]}
        _write_store(path, [{"claim_id": 1, "url": "old", "url2text": ["x"]}])
        assert [d.url for d in load_knowledge_store(path, 1).documents] == ["old"]
        _write_store(path, [two, one])  # in place, lines moved
        assert [d.url for d in load_knowledge_store(path, 1).documents] == ["one"]
        staged = tmp_path / "staged.jsonl"
        _write_store(staged, [one, two])  # same size, replaced by rename
        os.replace(staged, path)
        assert [d.url for d in load_knowledge_store(path, 2).documents] == ["two"]

    def test_concurrent_loads_build_one_index(self, tmp_path, monkeypatch):
        rng = random.Random(11)
        path = tmp_path / "store.jsonl"
        _write_store(path, _random_store_lines(rng, list(range(8)), 400))
        expected = {cid: _reference_load(path, cid) for cid in range(8)}
        builds = _count_calls(monkeypatch, "_index_store")
        barrier = threading.Barrier(8)
        results, errors = {}, []

        def load(cid):
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    r = load_knowledge_store(path, cid)
                    results.setdefault(cid, set()).add((r.documents, r.dropped_empty))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(cid,)) for cid in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(builds) == 1
        assert results == {cid: {expected[cid]} for cid in range(8)}

    def test_index_kept_in_index_dir_serves_a_later_process(self, tmp_path, monkeypatch):
        rng = random.Random(7)
        path = tmp_path / "store.jsonl"
        lines = _random_store_lines(rng, list(range(6)), 200)
        _write_store(path, lines)
        index_dir = tmp_path / "cache"
        expected = {cid: _reference_load(path, cid) for cid in list(range(6)) + [99]}
        for cid in expected:
            result = load_knowledge_store(path, cid, str(index_dir))
            assert (result.documents, result.dropped_empty) == expected[cid]
        (kept,) = index_dir.iterdir()
        assert kept.name.startswith("store_") and kept.name.endswith(".index")
        # a later process: nothing in memory, the index read from index_dir
        monkeypatch.setattr(corpus, "_store_indexes", {})
        builds = _count_calls(monkeypatch, "_index_store")
        parses = _count_calls(monkeypatch, "json_line")
        for cid in expected:
            result = load_knowledge_store(path, cid, str(index_dir))
            assert (result.documents, result.dropped_empty) == expected[cid]
        assert builds == []
        # the index's header, then only each claim's own and the shared lines
        assert parses[0] == (str(kept), "header", kept.read_bytes().split(b"\n")[0] + b"\n")
        assert len(parses) == 1 + sum(
            1 for cid in expected for o in lines if o.get("claim_id", cid) == cid
        )

    def test_concurrent_loads_read_the_kept_index_once(self, tmp_path, monkeypatch):
        rng = random.Random(13)
        path = tmp_path / "store.jsonl"
        _write_store(path, _random_store_lines(rng, list(range(8)), 400))
        index_dir = str(tmp_path / "cache")
        load_knowledge_store(path, 0, index_dir)
        expected = {cid: _reference_load(path, cid) for cid in range(8)}
        monkeypatch.setattr(corpus, "_store_indexes", {})
        builds = _count_calls(monkeypatch, "_index_store")
        reads = _count_calls(monkeypatch, "_load_store_index")
        barrier = threading.Barrier(8)
        results, errors = {}, []

        def load(cid):
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    r = load_knowledge_store(path, cid, index_dir)
                    results.setdefault(cid, set()).add((r.documents, r.dropped_empty))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(cid,)) for cid in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert builds == [] and len(reads) == 1
        assert results == {cid: {expected[cid]} for cid in range(8)}

    def test_index_is_keyed_by_resolved_path(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        _write_store(path, _random_store_lines(random.Random(2), [1, 2], 30))
        link = tmp_path / "link.jsonl"
        link.symlink_to(path)
        index_dir = tmp_path / "cache"
        load_knowledge_store(path, 1, str(index_dir))
        monkeypatch.setattr(corpus, "_store_indexes", {})
        builds = _count_calls(monkeypatch, "_index_store")
        load_knowledge_store(link, 1, str(index_dir))
        assert builds == [] and len(list(index_dir.iterdir())) == 1
        other = tmp_path / "other.jsonl"
        _write_store(other, [{"claim_id": 1, "url": "o", "url2text": ["x"]}])
        assert [d.url for d in load_knowledge_store(other, 1, str(index_dir)).documents] == ["o"]
        assert len(builds) == 1 and len(list(index_dir.iterdir())) == 2

    def test_rewritten_store_is_indexed_again_in_index_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        index_dir = tmp_path / "cache"
        _write_store(path, [{"claim_id": 1, "url": "old", "url2text": ["x"]}])
        load_knowledge_store(path, 1, str(index_dir))
        _write_store(path, [{"claim_id": 2, "url": "two", "url2text": ["x"]},
                            {"claim_id": 1, "url": "new", "url2text": ["x"]}])
        monkeypatch.setattr(corpus, "_store_indexes", {})
        builds = _count_calls(monkeypatch, "_index_store")
        assert [d.url for d in load_knowledge_store(path, 1, str(index_dir)).documents] == ["new"]
        assert len(builds) == 1
        monkeypatch.setattr(corpus, "_store_indexes", {})
        assert [d.url for d in load_knowledge_store(path, 2, str(index_dir)).documents] == ["two"]
        assert len(builds) == 1  # the rebuilt index was kept

    def test_failed_index_is_not_kept(self, tmp_path, monkeypatch):
        """A bad line fails every claim's load, in this process and the next."""
        path = tmp_path / "store.jsonl"
        good = [json.dumps({"claim_id": i % 3, "url": f"u{i}", "url2text": ["x"]}).encode()
                for i in range(6)]
        path.write_bytes(b"\n".join(good[:4] + [b'{"claim_id": 1, "url":'] + good[4:]) + b"\n")
        index_dir = tmp_path / "cache"
        for _process in range(2):
            monkeypatch.setattr(corpus, "_store_indexes", {})
            for claim_id in (0, 1, 2):
                with pytest.raises(ValidationError) as exc:
                    load_knowledge_store(path, claim_id, str(index_dir))
                assert f"{path}: line 5: " in str(exc.value)
            assert not index_dir.exists() or not list(index_dir.iterdir())
        path.write_bytes(b"\n".join(good) + b"\n")
        assert [d.url for d in load_knowledge_store(path, 1, str(index_dir)).documents] == [
            "u1", "u4"]
        assert len(list(index_dir.iterdir())) == 1

    def test_directory_layout_reads_each_file_without_index(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        rng = random.Random(3)
        for cid in range(3):
            _write_store(store_dir / f"{cid}.jsonl", _random_store_lines(rng, [cid, 9], 40))
        builds = _count_calls(monkeypatch, "_index_store")
        for cid in range(3):
            result = load_knowledge_store(store_dir, cid)
            expected = _reference_load(store_dir / f"{cid}.jsonl", cid)
            assert (result.documents, result.dropped_empty) == expected
        assert builds == []


class TestLoadAtOffsets:
    """A load given line offsets reads only the lines at those offsets, in
    either layout, and reports each document's offset and the file's
    identity; an offset that names no document of the claim gives none."""

    @pytest.mark.parametrize("layout", ["combined", "directory"])
    def test_offsets_round_trip(self, tmp_path, monkeypatch, layout):
        rng = random.Random(11)
        lines = _random_store_lines(rng, [1, 2], 60)
        if layout == "combined":
            path = tmp_path / "store.jsonl"
            path.write_bytes(b"".join(json.dumps(o).encode() + b"\r\n" for o in lines))
            target = path
        else:
            path = tmp_path / "store"
            path.mkdir()
            target = path / "1.jsonl"
            _write_store(target, lines)
        full = load_knowledge_store(path, 1)
        assert full.file_id == corpus.store_file_id(str(path), 1)
        assert full.file_id[0] == os.path.realpath(target)
        data = target.read_bytes()
        for offset in full.offsets:
            assert offset == 0 or data[offset - 1 : offset] == b"\n"
        picked = list(full.offsets[::3])
        parses = _count_calls(monkeypatch, "json_line")
        builds = _count_calls(monkeypatch, "_index_store")
        monkeypatch.setattr(corpus, "_store_indexes", {})
        some = load_knowledge_store(path, 1, offsets=picked)
        assert some.offsets == tuple(picked) and some.file_id == full.file_id
        assert some.documents == tuple(full.documents[full.offsets.index(o)] for o in picked)
        assert len(parses) == len(picked) and builds == []

    def test_an_offset_of_no_document_of_the_claim_gives_none(self, tmp_path):
        path = tmp_path / "store.jsonl"
        lines = [{"claim_id": 1, "url": "a", "url2text": ["One."]},
                 {"claim_id": 2, "url": "b", "url2text": ["Two."]},
                 {"claim_id": "2", "url": "c", "url2text": ["Ill-typed."]},
                 {"claim_id": 1, "url": "d", "url2text": []}]
        raw = [json.dumps(o).encode() for o in lines]
        # a line with leading blanks decodes from a mid-line offset too
        raw.append(b"   " + json.dumps({"url": "shared", "url2text": ["Three."]}).encode())
        path.write_bytes(b"".join(r + b"\n" for r in raw))
        starts = [sum(len(r) + 1 for r in raw[:i]) for i in range(len(raw))]
        result = load_knowledge_store(path, 1, offsets=starts + [starts[0] + 1, starts[4] + 1,
                                                           starts[4] + 2, 10**6])
        assert result.offsets == (starts[0], starts[4])
        assert [d.url for d in result.documents] == ["a", "shared"]
        assert result.dropped_empty == 1


def _doc(url, sentences):
    return Document(url=url, sentences=list(sentences))


class TestChunkDocument:
    def test_fixture_example(self):
        doc = _doc("u", ["aa bb.", "cc dd.", "ee ff."])
        chunks = chunk_document(doc, max_chars=14)
        assert [c.text for c in chunks] == ["aa bb. cc dd.", "ee ff."]
        assert chunks[0].prev_context is None
        assert chunks[0].next_context == "ee ff."
        assert chunks[1].prev_context == "aa bb. cc dd."
        assert chunks[1].next_context is None
        assert [c.key for c in chunks] == ["u#0", "u#1"]

    def test_boundary_exact_fit(self):
        # two 5-char sentences joined = 11 chars, exactly max_chars
        doc = _doc("u", ["abcd.", "efgh.", "ijkl."])
        chunks = chunk_document(doc, max_chars=11)
        assert [c.text for c in chunks] == ["abcd. efgh.", "ijkl."]

    def test_boundary_one_over(self):
        doc = _doc("u", ["abcd.", "efgh.", "ijkl."])
        chunks = chunk_document(doc, max_chars=10)
        assert [c.text for c in chunks] == ["abcd.", "efgh.", "ijkl."]

    def test_oversized_single_sentence_flagged(self):
        doc = _doc("u", ["short.", "x" * 50, "tail."])
        chunks = chunk_document(doc, max_chars=20)
        oversized = [c for c in chunks if c.oversized]
        assert len(oversized) == 1
        assert oversized[0].text == "x" * 50
        assert all(not c.oversized for c in chunks if c is not oversized[0])

    def test_round_trip_property(self):
        rng = random.Random(915)
        for _ in range(300):
            n_sent = rng.randint(1, 30)
            sentences = []
            for _ in range(n_sent):
                n_words = rng.randint(1, 12)
                sentences.append(" ".join("w" * rng.randint(1, 9) for _ in range(n_words)) + ".")
            doc = _doc("u", sentences)
            chunks = chunk_document(doc, max_chars=rng.choice([16, 40, 120, 2048]))
            flat = [s for c in chunks for s in c.sentences]
            assert flat == sentences
            for c in chunks:
                assert c.text == " ".join(c.sentences)

    def test_neighbor_contexts_consistent(self):
        doc = _doc("u", [f"sentence number {i}." for i in range(12)])
        chunks = chunk_document(doc, max_chars=45)
        assert len(chunks) >= 3
        for i, c in enumerate(chunks):
            assert c.prev_context == (chunks[i - 1].text if i > 0 else None)
            assert c.next_context == (chunks[i + 1].text if i + 1 < len(chunks) else None)
            assert c.index_in_doc == i
