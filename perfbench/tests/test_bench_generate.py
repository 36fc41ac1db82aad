"""The input generator is a pure function of workload and seed."""

import filecmp
import json
import os

from generate import SPECS, STOPWORDS, generate


def _files(root):
    out = []
    for dirpath, _dirs, names in os.walk(root):
        out += [os.path.relpath(os.path.join(dirpath, n), root) for n in names]
    return sorted(out)


def test_same_seed_gives_identical_files(tmp_path):
    generate("rerun_warm", 7, str(tmp_path / "a"))
    generate("rerun_warm", 7, str(tmp_path / "b"))
    names = _files(tmp_path / "a")
    assert names == _files(tmp_path / "b")
    _match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", names, shallow=False
    )
    assert mismatch == [] and errors == []


def test_different_seed_gives_different_files(tmp_path):
    generate("rerun_warm", 7, str(tmp_path / "a"))
    generate("rerun_warm", 8, str(tmp_path / "b"))
    for name in ("dataset.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


def test_rerun_warm_inputs_match_the_spec(tmp_path):
    spec = SPECS["rerun_warm"]
    manifest = generate("rerun_warm", 3, str(tmp_path))
    assert len(manifest["labels"]) == spec.claims
    assert len(manifest["malformed"]) == round(spec.malformed_share * spec.claims)

    combined = (tmp_path / "store.jsonl").read_text().splitlines()
    per_claim = sum(
        len((tmp_path / "store" / f"{cid}.json").read_text().splitlines())
        for cid in range(spec.claims)
    )
    assert len(combined) == per_claim

    docs = {json.loads(line)["url"]: json.loads(line)["url2text"] for line in combined}
    claims = {str(c["claim_id"]): c["claim"] for c in
              json.loads((tmp_path / "dataset.json").read_text())}
    for cid, planted in manifest["evidence"].items():
        assert len(planted) == spec.strong + spec.hidden
        claim_words = set(claims[cid].lower().rstrip(".").split()) - set(STOPWORDS)
        shared = [len(claim_words & set(" ".join(docs[url]).lower().replace(".", "").split()))
                  for url in planted]
        assert all(n > 0 for n in shared[: spec.strong])
        assert all(n == 0 for n in shared[spec.strong:])

    script = json.loads((tmp_path / "script.json").read_text())
    for cid, replies in script.items():
        reply = json.loads(replies[-1])
        assert reply["veracity_verdict"] == manifest["labels"][cid]
        assert [q["source"] for q in reply["questions"]] == [str(i) for i in range(1, spec.k + 1)]
        assert len(replies) == (2 if int(cid) in manifest["malformed"] else 1)
    assert len(json.loads((tmp_path / "train.json").read_text())) == spec.train
