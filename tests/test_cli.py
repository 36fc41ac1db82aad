import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import claimcheck
import claimcheck.cli as cli
import claimcheck.corpus as corpus
import claimcheck.dense as dense
from claimcheck.appendlog import AppendLog
from claimcheck.cli import _overrides_from, _write_atomic, build_parser
from claimcheck.config import DEFAULTS, load_app_config
from claimcheck.corpus import VeracityLabel
from claimcheck.errors import ValidationError

from conftest import build_echo_script, cache_batches, echo_response_text, file_state, run_cli


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Keep ambient CLAIMCHECK_* variables from leaking into CLI runs."""
    for key in [k for k in os.environ if k.startswith("CLAIMCHECK_")]:
        monkeypatch.delenv(key)


def _common(dataset_path, knowledge_store_path, out_dir):
    return [
        "--dataset", str(dataset_path),
        "--knowledge-store", str(knowledge_store_path),
        "--output-dir", str(out_dir),
    ]


class TestIngest:
    def test_summary_lines(self, dataset_path, knowledge_store_path, tmp_path, capsys):
        code = run_cli(
            ["ingest"] + _common(dataset_path, knowledge_store_path, tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "claims: 10 (10 labeled)" in out
        assert re.search(r"documents: \d+ \(1 dropped as empty\)", out)
        assert re.search(r"sentences: \d+", out)

    def test_kept_store_index_loads_no_numpy_yaml_or_requests(
        self, dataset_path, knowledge_store_path, tmp_path
    ):
        # the first run builds the store index and keeps it in the cache
        # dir, the second reads it: neither computes an array
        program = (
            "import sys\n"
            "from claimcheck.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "loaded = sorted({'numpy', 'yaml', 'requests'} & set(sys.modules))\n"
            "sys.exit(f'ingest loaded {loaded}' if loaded else code)\n"
        )
        cache_dir = tmp_path / "cache"
        argv = ["ingest", "--cache-dir", str(cache_dir)] + _common(
            dataset_path, knowledge_store_path, tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(claimcheck.__file__).parents[1]))
        outputs = []
        for _run in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", program, *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert [p.suffix for p in cache_dir.iterdir()] == [".index"]
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and "documents: " in outputs[0]

    def test_dataset_only(self, dataset_path, capsys):
        code = run_cli(["ingest", "--dataset", str(dataset_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "documents" not in out

    def test_missing_dataset_path_exits_2(self, capsys):
        code = run_cli(["ingest"])
        assert code == 2
        assert "paths.dataset is not configured" in capsys.readouterr().err

    def test_nonexistent_dataset_exits_2(self, tmp_path, capsys):
        code = run_cli(["ingest", "--dataset", str(tmp_path / "nope.json")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestRetrieve:
    def test_writes_all_traces(self, dataset_path, knowledge_store_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run_cli(
            ["retrieve"] + _common(dataset_path, knowledge_store_path, out_dir)
        )
        assert code == 0
        assert "retrieved 10/10 claims" in capsys.readouterr().out
        for cid in range(10):
            trace = json.loads((out_dir / f"trace_{cid}.json").read_text())
            assert trace["claim_id"] == cid
            ranks = [s["rank"] for s in trace["selected"]]
            assert ranks == list(range(1, len(ranks) + 1))
            assert len(trace["pool"]) >= len(trace["selected"])

    def test_claims_subset(self, dataset_path, knowledge_store_path, tmp_path):
        out_dir = tmp_path / "out"
        code = run_cli(
            ["retrieve", "--claims", "0,2"]
            + _common(dataset_path, knowledge_store_path, out_dir)
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.glob("trace_*.json")) == [
            "trace_0.json", "trace_2.json",
        ]

    def test_unknown_claim_id_exits_2(self, dataset_path, knowledge_store_path, tmp_path, capsys):
        code = run_cli(
            ["retrieve", "--claims", "0,99"]
            + _common(dataset_path, knowledge_store_path, tmp_path)
        )
        assert code == 2
        assert "unknown claim ids [99]" in capsys.readouterr().err

    def test_non_integer_claim_id_exits_2(self, dataset_path, knowledge_store_path, tmp_path, capsys):
        code = run_cli(
            ["retrieve", "--claims", "0,x"]
            + _common(dataset_path, knowledge_store_path, tmp_path)
        )
        assert code == 2
        assert "bad --claims value '0,x'" in capsys.readouterr().err
        assert not list(tmp_path.glob("trace_*.json"))

    @pytest.mark.parametrize("spec", [",", " , ,", ""])
    @pytest.mark.parametrize("command", ["ingest", "retrieve", "verify", "evaluate"])
    def test_claims_naming_no_id_exits_2(
        self, command, spec, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, capsys,
    ):
        out_dir = tmp_path / "out"
        if command == "verify":
            argv = _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                                echo_script_path, out_dir)
        elif command == "evaluate":
            verified = tmp_path / "verified"
            assert run_cli(_verify_argv(dataset_path, knowledge_store_path, train_set_path,
                                        echo_script_path, verified)) == 0
            capsys.readouterr()
            argv = ["evaluate", "--dataset", str(dataset_path), "--output-dir", str(verified)]
        else:
            argv = [command] + _common(dataset_path, knowledge_store_path, out_dir)
        code = run_cli(argv + ["--claims", spec])
        assert code == 2
        assert f"bad --claims value {spec!r}: names no claim id" in capsys.readouterr().err
        assert not list(out_dir.glob("*.json"))

    @pytest.mark.parametrize(
        "command, with_store",
        [
            pytest.param("ingest", True, id="ingest"),
            pytest.param("retrieve", True, id="retrieve"),
            pytest.param("ingest", False, id="ingest-without-store"),
        ],
    )
    def test_repeated_claim_id_exits_2(
        self, command, with_store, dataset_path, knowledge_store_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        paths = _common(dataset_path, knowledge_store_path, out_dir)
        if not with_store:
            paths = ["--dataset", str(dataset_path), "--output-dir", str(out_dir)]
        code = run_cli([command, "--claims", "0,2,1,2"] + paths)
        assert code == 2
        assert "claim ids given more than once in --claims: [2]" in capsys.readouterr().err
        assert not list(out_dir.glob("trace_*.json"))

    def test_jobs_parallel_identical(self, dataset_path, knowledge_store_path, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert run_cli(["retrieve"] + _common(dataset_path, knowledge_store_path, serial)) == 0
        assert run_cli(
            ["retrieve", "--jobs", "4"]
            + _common(dataset_path, knowledge_store_path, parallel)
        ) == 0
        for cid in range(10):
            a = (serial / f"trace_{cid}.json").read_bytes()
            b = (parallel / f"trace_{cid}.json").read_bytes()
            assert a == b, f"trace {cid} differs under --jobs 4"

    def test_repeat_runs_byte_identical(self, dataset_path, knowledge_store_path, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out_dir in (first, second):
            assert run_cli(
                ["retrieve"] + _common(dataset_path, knowledge_store_path, out_dir)
            ) == 0
        for cid in range(10):
            assert (first / f"trace_{cid}.json").read_bytes() == (
                second / f"trace_{cid}.json"
            ).read_bytes()

    @pytest.fixture
    def broken_store_dir(self, claims, tmp_path):
        """Directory store where claim 0 loads and claim 1 is corrupt."""
        store = tmp_path / "store"
        store.mkdir()
        doc = {
            "claim_id": 0,
            "url": "https://example.org/ok",
            "url2text": [claims[0].text + " Extra detail sentence here."],
        }
        (store / "0.json").write_text(json.dumps(doc) + "\n")
        (store / "1.json").write_text('{"claim_id": 1, "url": "x", "url2text": [truncated\n')
        return store

    def test_keep_going_records_failures(self, dataset_path, broken_store_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run_cli(
            ["retrieve", "--claims", "0,1", "--keep-going"]
            + _common(dataset_path, broken_store_dir, out_dir)
        )
        assert code == 0
        assert (out_dir / "trace_0.json").exists()
        assert not (out_dir / "trace_1.json").exists()
        errors = [
            json.loads(line)
            for line in (out_dir / "retrieve_errors.jsonl").read_text().splitlines()
        ]
        assert [e["claim_id"] for e in errors] == [1]
        assert "retrieved 1/2 claims, 1 failures" in capsys.readouterr().out

    def test_clean_rerun_removes_errors_file(
        self, dataset_path, broken_store_dir, claims, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        argv = (["retrieve", "--claims", "0,1", "--keep-going"]
                + _common(dataset_path, broken_store_dir, out_dir))
        assert run_cli(argv) == 0
        assert (out_dir / "retrieve_errors.jsonl").exists()
        assert not list(out_dir.glob("*.tmp"))
        doc = {"claim_id": 1, "url": "https://example.org/fixed", "url2text": [claims[1].text]}
        (broken_store_dir / "1.json").write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert "retrieved 2/2 claims" in capsys.readouterr().out
        assert not (out_dir / "retrieve_errors.jsonl").exists()
        assert sorted(p.name for p in out_dir.iterdir()) == ["trace_0.json", "trace_1.json"]

    def test_without_keep_going_aborts(self, dataset_path, broken_store_dir, tmp_path, capsys):
        code = run_cli(
            ["retrieve", "--claims", "0,1"]
            + _common(dataset_path, broken_store_dir, tmp_path / "out")
        )
        assert code == 1
        assert "claim 1 failed" in capsys.readouterr().err

    def test_abort_runs_no_claim_not_yet_started(
        self, dataset_path, knowledge_store_path, tmp_path, monkeypatch
    ):
        ran = []
        real = cli._retrieve_claim

        def slow(cfg, claim):
            ran.append(claim.id)
            time.sleep(0.2)
            if claim.id == 0:
                raise ValidationError("claim 0 fails")
            return real(cfg, claim)

        monkeypatch.setattr(cli, "_retrieve_claim", slow)
        code = run_cli(
            ["retrieve", "--jobs", "1"]
            + _common(dataset_path, knowledge_store_path, tmp_path / "out")
        )
        assert code == 1
        # claim 1 may start while claim 0's failure is reported; no later one
        assert set(ran) <= {0, 1}

    def test_bad_set_value_exits_2(self, dataset_path, knowledge_store_path, tmp_path, capsys):
        code = run_cli(
            ["retrieve", "--set", "retrieval.omega"]
            + _common(dataset_path, knowledge_store_path, tmp_path)
        )
        assert code == 2
        assert "--set expects" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["embedding.retries", "generator.transport_retries"])
    def test_negative_retries_exit_2(self, key, dataset_path, knowledge_store_path, tmp_path, capsys):
        code = run_cli(
            ["retrieve", "--set", f"{key}=-1"]
            + _common(dataset_path, knowledge_store_path, tmp_path)
        )
        assert code == 2
        assert "retries must be >= 0" in capsys.readouterr().err

    def test_k_zero_exits_2(self, dataset_path, knowledge_store_path, tmp_path, capsys):
        code = run_cli(
            ["retrieve", "--k", "0"]
            + _common(dataset_path, knowledge_store_path, tmp_path / "out")
        )
        assert code == 2
        assert "need 1 <= k <= pool_size <= omega" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_config_value_type_exits_2(
        self, dataset_path, knowledge_store_path, tmp_path, capsys
    ):
        config = tmp_path / "cfg.yaml"
        config.write_text("retrieval:\n  k: 7.9\n")
        code = run_cli(
            ["retrieve", "--config", str(config)]
            + _common(dataset_path, knowledge_store_path, tmp_path / "out")
        )
        assert code == 2
        assert "retrieval.k: expected int, got 7.9" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["retrieve", "verify"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(
        self, command, jobs, dataset_path, knowledge_store_path, tmp_path, capsys
    ):
        code = run_cli(
            [command, "--jobs", jobs]
            + _common(dataset_path, knowledge_store_path, tmp_path / "out")
        )
        assert code == 2
        assert "--jobs: must be a whole number >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--jobs", "2"],
            ["evaluate", "--keep-going"],
            ["cache", "inspect", "--jobs", "2"],
            ["cache", "inspect", "--claims", "0"],
        ],
    )
    def test_flags_only_where_read(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_inconsistent_retrieval_params_exit_2(
        self, dataset_path, knowledge_store_path, tmp_path, capsys
    ):
        code = run_cli(
            ["retrieve", "--omega", "5"]
            + _common(dataset_path, knowledge_store_path, tmp_path)
        )
        assert code == 2
        assert "pool_size" in capsys.readouterr().err


def _verify_argv(dataset_path, knowledge_store_path, train_set_path, script, out_dir):
    return (
        ["verify"]
        + _common(dataset_path, knowledge_store_path, out_dir)
        + ["--train-set", str(train_set_path), "--mock-script", str(script)]
    )


class TestVerify:
    def test_end_to_end(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, claims, tmp_path, capsys,
    ):
        out_dir = tmp_path / "out"
        code = run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         echo_script_path, out_dir)
        )
        assert code == 0
        assert "verified 10/10 claims, 0 failures" in capsys.readouterr().out

        records = json.loads((out_dir / "predictions.json").read_text())
        assert [r["claim_id"] for r in records] == list(range(10))
        for record, claim in zip(records, claims):
            assert record["verdict"] == claim.gold_label.value
            assert [e["question"] for e in record["evidence"]] == [
                qa.question for qa in claim.gold_evidence
            ]
            assert set(record["ratings"]) == {lab.value for lab in VeracityLabel}

        progress = [
            json.loads(line)
            for line in (out_dir / "verify_progress.jsonl").read_text().splitlines()
        ]
        assert all(p["status"] == "ok" for p in progress)
        assert {p["claim_id"] for p in progress} == set(range(10))

    def test_resume_reuses_finished_claims(
        self, dataset_path, knowledge_store_path, train_set_path,
        claims, tmp_path,
    ):
        out_dir = tmp_path / "resumed"
        full_dir = tmp_path / "oneshot"
        script = build_echo_script(claims, tmp_path / "script.json")

        argv_partial = _verify_argv(
            dataset_path, knowledge_store_path, train_set_path, script, out_dir
        ) + ["--claims", "0,1,2"]
        assert run_cli(argv_partial) == 0
        partial = json.loads((out_dir / "predictions.json").read_text())
        assert [r["claim_id"] for r in partial] == [0, 1, 2]

        # second run covers everything; finished claims must not rerun, so
        # strip their scripted replies to prove the provider is never asked
        exhausted = {
            cid: ([] if int(cid) in (0, 1, 2) else replies)
            for cid, replies in json.loads(script.read_text()).items()
        }
        script.write_text(json.dumps(exhausted))
        assert run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         script, out_dir)
        ) == 0

        fresh_script = build_echo_script(claims, tmp_path / "script2.json")
        assert run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         fresh_script, full_dir)
        ) == 0
        assert (out_dir / "predictions.json").read_bytes() == (
            full_dir / "predictions.json"
        ).read_bytes()

    def test_errored_claim_retried_on_rerun(
        self, dataset_path, knowledge_store_path, train_set_path,
        claims, echo_script_path, tmp_path,
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "verify_progress.jsonl").write_text(
            json.dumps({"claim_id": 3, "status": "error", "error": "interrupted"}) + "\n"
        )
        assert run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         echo_script_path, out_dir)
        ) == 0
        records = json.loads((out_dir / "predictions.json").read_text())
        assert [r["claim_id"] for r in records] == list(range(10))

    def test_missing_reply_fails_then_recovers(
        self, dataset_path, knowledge_store_path, train_set_path,
        claims, tmp_path, capsys,
    ):
        out_dir = tmp_path / "out"
        script = build_echo_script(claims[:9], tmp_path / "partial.json")
        code = run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         script, out_dir)
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "verified 9/10 claims, 1 failures" in captured.out
        assert "claim 9" in captured.err
        assert [
            r["claim_id"]
            for r in json.loads((out_dir / "predictions.json").read_text())
        ] == list(range(9))

        full_script = build_echo_script(claims, tmp_path / "full.json")
        assert run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         full_script, out_dir)
        ) == 0
        records = json.loads((out_dir / "predictions.json").read_text())
        assert [r["claim_id"] for r in records] == list(range(10))

    def test_undecodable_chat_reply_recorded_for_claim(
        self, dataset_path, knowledge_store_path, stub_server, tmp_path, monkeypatch, capsys,
    ):
        server, base_url = stub_server
        server.app = lambda path, body, headers: (200, b"[" * 200_000)
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        out_dir = tmp_path / "out"
        code = run_cli(
            ["verify", "--claims", "0"]
            + _common(dataset_path, knowledge_store_path, out_dir)
            + ["--set", "generator.kind=http",
               "--set", f"generator.base_url={base_url}",
               "--set", "generator.model_name=chat-1",
               "--set", "generator.api_key_env=TEST_CHAT_KEY",
               "--set", "generator.transport_retries=0"]
        )
        assert code == 1
        assert "verified 0/1 claims, 1 failures" in capsys.readouterr().out
        [entry] = [
            json.loads(line)
            for line in (out_dir / "verify_progress.jsonl").read_text().splitlines()
        ]
        assert entry["claim_id"] == 0
        assert entry["status"] == "error"
        assert entry["error"].startswith("chat response is not JSON: ")

    def test_overlong_number_reply_retried(
        self, dataset_path, knowledge_store_path, train_set_path,
        claims, tmp_path, capsys, caplog,
    ):
        # over 4,300 digits: int() refuses to convert them
        digits = "9" * 5000
        good = echo_response_text(claims[0])
        label = claims[0].gold_label.value
        quoted_rating = good.replace(f'"{label}": "5"', f'"{label}": "{digits}"')
        bare_rating = good.replace(f'"{label}": "5"', f'"{label}": {digits}')
        assert digits in quoted_rating and digits in bare_rating
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"0": [quoted_rating, bare_rating, good]}))
        out_dir = tmp_path / "out"
        code = run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         script, out_dir) + ["--claims", "0"]
        )
        assert code == 0
        assert "verified 1/1 claims, 0 failures" in capsys.readouterr().out
        assert "claim 0: parse failure on attempt 2" in caplog.text
        [record] = json.loads((out_dir / "predictions.json").read_text())
        assert record["verdict"] == label

    @pytest.mark.parametrize("weight, external_wins", [("1.0", True), ("0.0", False)])
    def test_external_probs_ensemble(
        self, weight, external_wins, dataset_path, knowledge_store_path,
        train_set_path, echo_script_path, claims, tmp_path,
    ):
        # external probabilities peak on a label other than the scripted verdict
        other = {
            c.id: next(label for label in VeracityLabel if label != c.gold_label)
            for c in claims
        }
        probs_path = tmp_path / "probs.json"
        probs_path.write_text(json.dumps([
            {
                "claim_id": c.id,
                "probs": {
                    label.value: 0.97 if label == other[c.id] else 0.01
                    for label in VeracityLabel
                },
            }
            for c in claims
        ]))
        out_dir = tmp_path / "out"
        code = run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         echo_script_path, out_dir)
            + ["--probs", str(probs_path), "--weight-external", weight]
        )
        assert code == 0
        records = json.loads((out_dir / "predictions.json").read_text())
        want = [(other[c.id] if external_wins else c.gold_label).value for c in claims]
        assert [r["verdict"] for r in records] == want

    def test_simplified_skips_train_set(
        self, dataset_path, knowledge_store_path, echo_script_path, tmp_path,
    ):
        # a bogus train-set path must not matter when few-shot is disabled
        code = run_cli(
            ["verify", "--simplified"]
            + _common(dataset_path, knowledge_store_path, tmp_path / "out")
            + ["--train-set", str(tmp_path / "missing.json"),
               "--mock-script", str(echo_script_path)]
        )
        assert code == 0

    def test_mock_without_script_exits_2(
        self, dataset_path, knowledge_store_path, train_set_path, tmp_path, capsys,
    ):
        code = run_cli(
            ["verify"]
            + _common(dataset_path, knowledge_store_path, tmp_path / "out")
            + ["--train-set", str(train_set_path)]
        )
        assert code == 2
        assert "script_path" in capsys.readouterr().err


    def test_torn_progress_line_redoes_that_claim(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, caplog,
    ):
        out_dir = tmp_path / "out"
        argv = _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                            echo_script_path, out_dir)
        assert run_cli(argv + ["--claims", "0,1,2"]) == 0
        progress = out_dir / "verify_progress.jsonl"
        progress.write_bytes(progress.read_bytes()[:-30])  # tear claim 2's record

        assert run_cli(argv) == 0
        assert "torn final line" in caplog.text
        # the next append started on a fresh line: every line parses
        entries = [json.loads(line) for line in progress.read_text().splitlines()]
        assert [e["claim_id"] for e in entries] == list(range(10))
        records = json.loads((out_dir / "predictions.json").read_text())
        assert [r["claim_id"] for r in records] == list(range(10))

    def test_interrupt_runs_no_claim_not_yet_started(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, monkeypatch,
    ):
        ran = []
        real = cli.run_generation

        def slow(claim, *args):
            ran.append(claim.id)
            time.sleep(0.2)
            return real(claim, *args)

        def interrupt(self, lines):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_generation", slow)
        monkeypatch.setattr(AppendLog, "append", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cli(_verify_argv(dataset_path, knowledge_store_path, train_set_path,
                                 echo_script_path, tmp_path / "out") + ["--jobs", "1"])
        # claim 1 may start while claim 0's progress is appended; no later one
        assert set(ran) <= {0, 1}

    def test_blank_progress_lines_skipped(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path,
    ):
        out_dir = tmp_path / "out"
        argv = _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                            echo_script_path, out_dir) + ["--claims", "0,1"]
        assert run_cli(argv) == 0
        predictions = (out_dir / "predictions.json").read_bytes()
        progress = out_dir / "verify_progress.jsonl"
        first, second = progress.read_text().splitlines()
        progress.write_text(f"\n{first}\n  \n{second}\n")

        # no scripted replies: both claims must come from the progress file
        no_replies = tmp_path / "no_replies.json"
        no_replies.write_text("{}")
        assert run_cli(_verify_argv(dataset_path, knowledge_store_path, train_set_path,
                                    no_replies, out_dir) + ["--claims", "0,1"]) == 0
        assert (out_dir / "predictions.json").read_bytes() == predictions

    def test_corrupt_progress_line_exits_2(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, capsys,
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        later = json.dumps({"claim_id": 4, "status": "error", "error": "x"}) + "\n"
        for bad in ('{"claim_id": 3, "sta', '{"claim_id": 3, "status": "ok"}'):
            (out_dir / "verify_progress.jsonl").write_text(bad + "\n" + later)
            assert run_cli(
                _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                             echo_script_path, out_dir)
            ) == 2
            assert "verify_progress.jsonl: line 1" in capsys.readouterr().err

    def test_too_deeply_nested_progress_line_exits_2(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, capsys,
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        first = json.dumps({"claim_id": 4, "status": "error", "error": "x"})
        progress = out_dir / "verify_progress.jsonl"
        progress.write_text(first + "\n" + "[" * 50_000 + "\n")
        assert run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         echo_script_path, out_dir)
        ) == 2
        assert f"{progress}: line 2: not valid JSON" in capsys.readouterr().err

    def test_torn_cache_line_reembeds_only_lost_vector(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, monkeypatch, caplog,
    ):
        """A last cache batch cut in its header or in its payload is dropped
        and only its texts are embedded again: the rerun writes what an
        uninterrupted run wrote."""
        cache_dir = tmp_path / "cache"

        def argv(out_dir):
            return _verify_argv(
                dataset_path, knowledge_store_path, train_set_path,
                echo_script_path, tmp_path / out_dir,
            ) + ["--cache-dir", str(cache_dir)]

        # claim 1's cache gets two batches: the claim and its best chunk,
        # then the other chunks
        assert run_cli(
            ["retrieve", "--claims", "1", "--omega", "1", "--k", "1",
             "--set", "retrieval.pool_size=1", "--cache-dir", str(cache_dir)]
            + _common(dataset_path, knowledge_store_path, tmp_path / "traces")
        ) == 0
        assert run_cli(argv("uninterrupted")) == 0
        cache = cache_dir / "emb_1.cache"
        intact = cache.read_bytes()
        (first, _), (last, _) = cache_batches(cache)
        second_at = intact.index(b"\n") + 1 + first["payload_bytes"]

        embedded = []
        real_embed_batch = dense.embed_batch

        def counting_embed_batch(texts, cfg, tokens=None):
            embedded.append(len(texts))
            return real_embed_batch(texts, cfg, tokens)

        monkeypatch.setattr(dense, "embed_batch", counting_embed_batch)
        for cut in ("mid_header", "mid_payload"):
            cache.write_bytes(intact[: second_at + 10 if cut == "mid_header" else -8])
            embedded.clear()
            caplog.clear()
            assert run_cli(argv(cut)) == 0
            assert f"{cache}: batch 2: dropping a torn final batch" in caplog.text
            assert embedded == [len(last["keys"])]
            assert cache.read_bytes() == intact
            for name in ("predictions.json", "verify_progress.jsonl"):
                assert (tmp_path / cut / name).read_bytes() == (
                    tmp_path / "uninterrupted" / name
                ).read_bytes()

    def test_repeated_claim_id_exits_2_before_any_llm_call(
        self, dataset_path, knowledge_store_path, train_set_path, claims, tmp_path, capsys,
    ):
        # one reply per claim: verifying claim 2 twice would need a second one
        script = build_echo_script(claims, tmp_path / "script.json")
        out_dir = tmp_path / "out"
        argv = _verify_argv(dataset_path, knowledge_store_path, train_set_path, script, out_dir)
        assert run_cli(argv + ["--claims", "2,2"]) == 2
        assert "claim ids given more than once in --claims: [2]" in capsys.readouterr().err
        assert not (out_dir / "predictions.json").exists()
        assert not (out_dir / "verify_progress.jsonl").exists()

    def test_cache_vector_of_other_dimension_fails_that_claim(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, capsys,
    ):
        cache_dir = tmp_path / "cache"
        flags = ["--cache-dir", str(cache_dir), "--claims", "0,1"]
        assert run_cli(
            ["retrieve"] + _common(dataset_path, knowledge_store_path, tmp_path / "r") + flags
        ) == 0
        # the last key is a chunk's (the claim's is the first); keep only
        # that key, with a valid 3-vector under the 64-dim model
        path = cache_dir / "emb_0.cache"
        key = cache_batches(path)[-1][0]["keys"][-1]
        path.unlink()
        dense.EmbeddingCache(str(path)).put_many([(key, np.array([0.5, -1.0, 2.0]))])
        capsys.readouterr()

        out_dir = tmp_path / "out"
        code = run_cli(_verify_argv(dataset_path, knowledge_store_path, train_set_path,
                                    echo_script_path, out_dir) + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert "verified 1/2 claims, 1 failures" in captured.out
        message = f"{path}: cached vector {key} has dimension 3, expected 64"
        assert f"claim 0: {message}" in captured.err
        assert "Traceback" not in captured.err
        entries = [json.loads(line) for line in
                   (out_dir / "verify_progress.jsonl").read_text().splitlines()]
        assert [(e["claim_id"], e["status"]) for e in entries] == [(0, "error"), (1, "ok")]
        assert entries[0]["error"].startswith(message)

    def test_invalid_mock_script_exits_2(
        self, dataset_path, knowledge_store_path, train_set_path, tmp_path, capsys,
    ):
        script = tmp_path / "script.json"
        script.write_text("{not json")
        code = run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         script, tmp_path / "out")
        )
        assert code == 2
        assert str(script) in capsys.readouterr().err

    def test_ill_typed_store_line_fails_that_claim(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, capsys,
    ):
        store = tmp_path / "store.jsonl"
        lines = knowledge_store_path.read_text().splitlines()
        bad = {"claim_id": 1, "url": "u", "url2text": "One sentence here. Two."}
        store.write_text("\n".join(lines + [json.dumps(bad)]) + "\n")
        offset = len(("\n".join(lines) + "\n").encode())
        out_dir = tmp_path / "out"
        code = run_cli(_verify_argv(dataset_path, store, train_set_path,
                                    echo_script_path, out_dir) + ["--claims", "0,1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "verified 1/2 claims, 1 failures" in captured.out
        message = f"{store}: byte {offset}: claim 1: 'url2text' must be an array, got a string"
        assert f"claim 1: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert [r["claim_id"] for r in json.loads((out_dir / "predictions.json").read_text())] == [0]

        assert run_cli(["ingest"] + _common(dataset_path, store, tmp_path / "i")) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestEvaluate:
    @pytest.fixture
    def verified_dir(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path,
    ):
        out_dir = tmp_path / "out"
        assert run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         echo_script_path, out_dir)
        ) == 0
        return out_dir

    def test_reports_perfect_echo_run(self, dataset_path, verified_dir, capsys):
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_path),
             "--output-dir", str(verified_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "AVeriTeC @ 0.25: 1.0000" in out
        assert "Accuracy: 1.0000" in out
        assert "Macro F1: 1.0000" in out

        report = json.loads((verified_dir / "report.json").read_text())
        assert report["averitec_score"] == {"0.25": 1.0}
        assert report["accuracy"] == 1.0
        assert len(report["per_claim"]) == 10

        csv_lines = (verified_dir / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "claim_id,q,qa,label_pred,label_gold,pass@0.25"
        assert len(csv_lines) == 11
        assert csv_lines[1].startswith("0,")
        assert csv_lines[1].endswith(",1")

    def test_loads_no_numpy(self, dataset_path, verified_dir):
        # evaluate computes no arrays: numpy's import would be most of
        # its start-up time
        program = (
            "import sys\n"
            "from claimcheck.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.exit('evaluate loaded numpy' if 'numpy' in sys.modules else code)\n"
        )
        argv = ["evaluate", "--dataset", str(dataset_path), "--output-dir", str(verified_dir)]
        env = dict(os.environ, PYTHONPATH=str(Path(claimcheck.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", program, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "AVeriTeC @ 0.25: 1.0000" in proc.stdout

    def test_report_is_independent_of_hash_seed(self, tmp_path):
        """Two evaluate processes under different string-hash seeds write
        the same bytes: no score may hang on a set's iteration order."""
        words = "the of and a to in is that for it was run runs running cat cats river 1977"
        words = words.split()
        rng = random.Random("hash-seed")

        def text():
            return " ".join(rng.choice(words) for _ in range(rng.randint(4, 16)))

        dataset, predictions = [], []
        for claim_id in range(12):
            gold = [(text(), text()) for _ in range(rng.randint(1, 3))]
            dataset.append({
                "claim": f"claim {claim_id}", "label": "Supported",
                "questions": [
                    {"question": q, "answers": [{"answer": a, "answer_type": "Extractive"}]}
                    for q, a in gold
                ],
            })
            predictions.append({
                "claim_id": claim_id, "claim": f"claim {claim_id}", "verdict": "Supported",
                "evidence": [
                    {"question": text(), "answer": text()} for _ in range(rng.randint(1, 4))
                ],
            })
        (tmp_path / "dataset.json").write_text(json.dumps(dataset))
        (tmp_path / "predictions.json").write_text(json.dumps(predictions))
        reports = []
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(claimcheck.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "claimcheck.cli", "evaluate",
                 "--dataset", str(tmp_path / "dataset.json"),
                 "--predictions", str(tmp_path / "predictions.json"),
                 "--output-dir", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
        assert reports[0] == reports[1]

    def test_multiple_thresholds(self, dataset_path, verified_dir, capsys):
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_path),
             "--output-dir", str(verified_dir),
             "--thresholds", "0.25,1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "AVeriTeC @ 0.25: 1.0000" in out
        # even identical evidence scores 1 - 0.5/n^3, strictly below 1
        assert "AVeriTeC @ 1: 0.0000" in out
        report = json.loads((verified_dir / "report.json").read_text())
        assert set(report["averitec_score"]) == {"0.25", "1"}

    def test_repeated_threshold_exits_2_before_any_report(
        self, dataset_path, verified_dir, capsys
    ):
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_path),
             "--output-dir", str(verified_dir),
             "--thresholds", "0.25,0.25,0.5"]
        )
        assert code == 2
        assert "thresholds repeated: 0.25" in capsys.readouterr().err
        assert not (verified_dir / "report.json").exists()
        assert not (verified_dir / "report.csv").exists()

    def test_missing_predictions_exits_2(self, dataset_path, tmp_path, capsys):
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_path),
             "--output-dir", str(tmp_path / "empty")]
        )
        assert code == 2
        assert "predictions file not found" in capsys.readouterr().err

    def test_no_gold_claims_exits_2(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text("[]")
        (tmp_path / "predictions.json").write_text("[]")
        code = run_cli(["evaluate", "--dataset", str(dataset), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "no gold claims to score" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_prediction_gold_mismatch_exits_2(self, dataset_path, verified_dir, capsys):
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_path),
             "--output-dir", str(verified_dir), "--claims", "0,1"]
        )
        assert code == 2
        assert "id mismatch" in capsys.readouterr().err

    def test_claims_subset_round_trip(
        self, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, capsys,
    ):
        out_dir = tmp_path / "out"
        assert run_cli(
            _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                         echo_script_path, out_dir) + ["--claims", "0,1"]
        ) == 0
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_path),
             "--output-dir", str(out_dir), "--claims", "0,1"]
        )
        assert code == 0
        assert "AVeriTeC @ 0.25: 1.0000" in capsys.readouterr().out

    def test_explicit_predictions_flag(self, dataset_path, verified_dir, tmp_path):
        moved = tmp_path / "elsewhere.json"
        moved.write_bytes((verified_dir / "predictions.json").read_bytes())
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_path),
             "--output-dir", str(tmp_path / "fresh"),
             "--predictions", str(moved)]
        )
        assert code == 0
        assert (tmp_path / "fresh" / "report.json").exists()


_FAULTS = ["missing", "directory", "utf8", "json", "top_level", "element", "nested", "repeated"]

# each whole-file input: its file for the "nested" and "repeated" faults
# (None: its ids are not checked for repeats), and how an element is named
_INPUTS = {
    "--dataset": (
        [{"claim": "A claim.", "label": "Supported", "questions": [5]}],
        [{"claim_id": 7, "claim": "A claim."}, {"claim_id": 7, "claim": "Another."}],
        "element 0",
    ),
    "--train-set": (
        [{"claim": "A claim.", "questions": [{"question": "Q?", "answers": [{"answer": 4}]}]}],
        [{"claim_id": 7, "claim": "A claim."}, {"claim_id": 7, "claim": "Another."}],
        "element 0",
    ),
    "--predictions": (
        [{"claim_id": 0, "evidence": [{"question": "Q?", "answer": None}],
          "verdict": "Supported"}],
        [{"claim_id": 7, "evidence": [], "verdict": "Supported"}] * 2,
        "element 0",
    ),
    "--probs": (
        [{"claim_id": 0, "probs": {label.value: "0.25" for label in VeracityLabel}}],
        [{"claim_id": 7, "probs": {label.value: 0.25 for label in VeracityLabel}}] * 2,
        "element 0",
    ),
    "--mock-script": ({"0": ["reply", 5]}, None, "claim 0"),
}


class TestInputFiles:
    """A faulty input file exits 2, naming the file, without a traceback."""

    @staticmethod
    def _write(path, flag, fault):
        nested, repeated, _where = _INPUTS[flag]
        is_script = flag == "--mock-script"
        if fault == "directory":
            path.mkdir()
        elif fault == "utf8":
            path.write_bytes(b'[{"claim": "caf\xe9"}]')
        elif fault == "json":
            path.write_text('[{"claim": ')
        elif fault == "top_level":
            path.write_text(json.dumps([] if is_script else {"claim_id": 0}))
        elif fault == "element":
            path.write_text(json.dumps({"0": "reply"} if is_script else [1]))
        elif fault == "nested":
            path.write_text(json.dumps(nested))
        elif fault == "repeated":
            path.write_text(json.dumps(repeated))

    @pytest.mark.parametrize(
        "flag, fault",
        [
            (flag, fault)
            for flag in _INPUTS
            for fault in _FAULTS
            if fault != "repeated" or _INPUTS[flag][1] is not None
        ],
    )
    def test_bad_file_exits_2_naming_it(
        self, flag, fault, dataset_path, knowledge_store_path, train_set_path,
        echo_script_path, tmp_path, capsys,
    ):
        path = tmp_path / "input.json"
        self._write(path, flag, fault)
        out_dir = tmp_path / "out"
        if flag == "--dataset":
            argv = ["ingest", "--dataset", str(path)]
        elif flag == "--predictions":
            argv = ["evaluate", "--dataset", str(dataset_path), "--claims", "0",
                    "--output-dir", str(out_dir), "--predictions", str(path)]
        else:
            # the later of two equal flags wins
            argv = _verify_argv(dataset_path, knowledge_store_path, train_set_path,
                                echo_script_path, out_dir) + [flag, str(path)]
        capsys.readouterr()
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        if fault in ("element", "nested"):
            assert _INPUTS[flag][2] in err
        if fault == "repeated":
            assert "claim ids repeated: [7]" in err
        assert "Traceback" not in err
        assert not (out_dir / "predictions.json").exists()
        assert not (out_dir / "report.json").exists()


class TestCache:
    def test_inspect_and_clear(
        self, dataset_path, knowledge_store_path, tmp_path, capsys,
    ):
        cache_dir = tmp_path / "cache"
        assert run_cli(
            ["retrieve", "--cache-dir", str(cache_dir)]
            + _common(dataset_path, knowledge_store_path, tmp_path / "out")
        ) == 0
        files = sorted(cache_dir.glob("emb_*.cache"))
        assert len(files) == 10

        assert run_cli(["cache", "inspect", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "10 cache files" in out
        assert "vectors total" in out

        assert run_cli(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 10 cache files" in capsys.readouterr().out
        assert not list(cache_dir.glob("emb_*.cache"))

    def test_cached_rerun_matches_cold_run(
        self, dataset_path, knowledge_store_path, tmp_path,
    ):
        cache_dir = tmp_path / "cache"
        cold = tmp_path / "cold"
        warm = tmp_path / "warm"
        base = ["retrieve"] + _common(dataset_path, knowledge_store_path, cold)
        assert run_cli(base + ["--cache-dir", str(cache_dir)]) == 0
        assert run_cli(
            ["retrieve", "--cache-dir", str(cache_dir)]
            + _common(dataset_path, knowledge_store_path, warm)
        ) == 0
        for cid in range(10):
            assert (cold / f"trace_{cid}.json").read_bytes() == (
                warm / f"trace_{cid}.json"
            ).read_bytes()

    def _verify(self, paths, cache_dir, out_dir, monkeypatch):
        """verify in a new process's state: no store index in memory."""
        monkeypatch.setattr(corpus, "_store_indexes", {})
        assert run_cli(_verify_argv(*paths, out_dir) + ["--cache-dir", str(cache_dir)]) == 0
        return (out_dir / "predictions.json").read_bytes()

    def test_second_verify_reads_only_derived_files(
        self, dataset_path, knowledge_store_path, train_set_path, echo_script_path,
        tmp_path, monkeypatch,
    ):
        """The first warm run reads the caches and the store index and adds
        only the KNN pools; the next reads them all and writes nothing in
        the cache dir."""
        paths = (dataset_path, knowledge_store_path, train_set_path, echo_script_path)
        cache_dir = tmp_path / "cache"
        cold = self._verify(paths, cache_dir, tmp_path / "cold", monkeypatch)
        assert len(list(cache_dir.glob("emb_*.cache"))) == 10
        assert len(list(cache_dir.glob("store_*.index"))) == 1
        assert not list(cache_dir.glob("pool_*"))
        state = file_state(cache_dir)

        def no_index(*args):
            raise AssertionError("the store was parsed to index it")

        monkeypatch.setattr(corpus, "_index_store", no_index)
        warm = self._verify(paths, cache_dir, tmp_path / "warm", monkeypatch)
        pools = {f"pool_{i}.pool" for i in range(10)}
        written = file_state(cache_dir)
        assert set(written) == set(state) | pools
        assert {name: written[name] for name in state} == state
        state = written
        again = self._verify(paths, cache_dir, tmp_path / "again", monkeypatch)
        assert file_state(cache_dir) == state
        assert cold == warm == again
        assert (tmp_path / "warm" / "verify_progress.jsonl").read_bytes() == (
            tmp_path / "again" / "verify_progress.jsonl").read_bytes()

    def test_inspect_writes_and_clear_removes_derived_files(
        self, dataset_path, knowledge_store_path, train_set_path, echo_script_path,
        tmp_path, monkeypatch, capsys,
    ):
        """inspect writes nothing and counts only the caches' vectors; clear
        removes the caches, the files of the older JSON-lines form, the
        older pruned orders and token tables (never read), the KNN pools,
        the store index and the temporary files their writers left, and no
        other file."""
        paths = (dataset_path, knowledge_store_path, train_set_path, echo_script_path)
        cache_dir = tmp_path / "cache"
        self._verify(paths, cache_dir, tmp_path / "cold", monkeypatch)
        assert run_cli(["cache", "inspect", "--cache-dir", str(cache_dir)]) == 0
        vectors = capsys.readouterr().out.splitlines()[-1]
        self._verify(paths, cache_dir, tmp_path / "warm", monkeypatch)
        assert len(list(cache_dir.glob("pool_*.pool"))) == 10
        (cache_dir / "emb_0.jsonl").write_text(
            json.dumps({"key": "k", "dim": 1, "f64": "AAAAAAAA8D8="}) + "\n")
        (cache_dir / "emb_0.jsonl.snapshot").write_bytes(b"derived from emb_0.jsonl")
        (cache_dir / "store_0.index.123-456.tmp").write_bytes(b"left by a killed writer")
        (cache_dir / "pool_0.pool.123-456.tmp").write_bytes(b"left by a killed writer")
        (cache_dir / "pruned_0.order").write_bytes(b"kept by an older version")
        (cache_dir / "pruned_0.order.123-456.tmp").write_bytes(b"left by a killed writer")
        (cache_dir / "tokens_0.table").write_bytes(b"kept by an older version")
        (cache_dir / "tokens_0.table.123-456.tmp").write_bytes(b"left by a killed writer")
        (cache_dir / "other.tmp").write_bytes(b"another program's")
        state = file_state(cache_dir)
        capsys.readouterr()
        assert run_cli(["cache", "inspect", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "10 cache files" in out
        assert out.splitlines()[-1] == vectors
        assert file_state(cache_dir) == state
        assert run_cli(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert capsys.readouterr().out == (
            "removed 12 cache files, 10 kept pools, 2 older pruned orders and token tables "
            "and 4 temporary files\n")
        assert [p.name for p in cache_dir.iterdir()] == ["other.tmp"]

    def test_inspect_rejects_values_line(self, tmp_path, capsys):
        """A line of an older form, the JSON float list, is a bad cache batch."""
        cache_dir = tmp_path / "cache"
        path = cache_dir / "emb_0.cache"
        cache = dense.EmbeddingCache(str(path))
        for i in range(2):
            cache.put_many([(f"new{i}", np.array([1.0, i]))])
        with path.open("a") as fh:
            fh.write(json.dumps({"key": "old0", "dim": 2, "values": [0.5, -1.0]}) + "\n")
        assert run_cli(["cache", "inspect", "--cache-dir", str(cache_dir)]) == 2
        assert f"{path}: batch 3: bad cache entry" in capsys.readouterr().err

    def test_cache_requires_dir_config(self, capsys):
        assert run_cli(["cache", "inspect"]) == 2
        assert "cache_dir" in capsys.readouterr().err


class TestFlags:
    def test_dedicated_flags_set_accepted_config_keys(self):
        """Each dedicated flag's dest is a config key load_app_config takes."""
        args = build_parser().parse_args(["retrieve"])
        keys = sorted(dest for dest in vars(args) if "." in dest)
        assert len(keys) == 12
        for key in keys:
            section, field = key.split(".")
            default = DEFAULTS[section][field]
            if default is None:
                raw = "x"
            elif isinstance(default, tuple):
                raw = ",".join(map(str, default))
            else:
                raw = str(default)
            load_app_config(None, {}, {key: raw})

    def test_overrides_from_flags_and_set(self):
        args = build_parser().parse_args(
            ["verify", "--omega", "70", "--simplified", "--dataset", "d.json",
             "--set", "retrieval.omega=80", "--set", "retrieval.k=3"]
        )
        assert _overrides_from(args) == {
            "retrieval.omega": "80",
            "generator.simplified": "true",
            "paths.dataset": "d.json",
            "retrieval.k": "3",
        }


class TestEnvPrecedence:
    def test_env_applies_and_flag_wins(
        self, dataset_path, knowledge_store_path, tmp_path, monkeypatch, capsys,
    ):
        monkeypatch.setenv("CLAIMCHECK_RETRIEVAL_OMEGA", "4")
        code = run_cli(
            ["retrieve"] + _common(dataset_path, knowledge_store_path, tmp_path / "a")
        )
        assert code == 2
        assert "pool_size" in capsys.readouterr().err

        # the flag must override the bad environment value
        assert run_cli(
            ["retrieve", "--omega", "6000"]
            + _common(dataset_path, knowledge_store_path, tmp_path / "b")
        ) == 0


class TestWriteAtomic:
    def test_new_content_is_durable_before_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        new = "new content\n" * 10  # small enough to sit in the write buffer
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            real_fsync(fd)
            events.append(("fsync", (tmp_path / "out.json.tmp").read_text(), target.read_text()))

        def replace(src, dst):
            events.append(("replace", target.read_text()))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        _write_atomic(str(target), new)
        assert events == [("fsync", new, "old\n"), ("replace", "old\n")]
        assert target.read_text() == new
        assert not (tmp_path / "out.json.tmp").exists()

    def test_failure_before_rename_keeps_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old\n")

        def fsync(fd):
            raise OSError("device lost")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError):
            _write_atomic(str(target), "new\n")
        assert target.read_text() == "old\n"
