"""Shared fixtures for the test suite."""

import hashlib
import json
import socket
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from claimcheck.cli import main as cli_main
from claimcheck.corpus import VeracityLabel, load_dataset

FIXTURES = Path(__file__).parent / "fixtures"

F64_ONE = struct.pack("<d", 1.0)


def cache_batch(payload=F64_ONE, drop=(), **fields) -> bytes:
    """One embedding-cache record: a header for key "k" of dim 1, whose
    payload_bytes and payload_sha256 match payload, then payload. fields
    replace or add header fields; drop names fields to leave out."""
    header = {"dim": 1, "keys": ["k"], "payload_bytes": len(payload),
              "payload_sha256": hashlib.sha256(payload).hexdigest(), **fields}
    for name in drop:
        del header[name]
    return json.dumps(header).encode() + b"\n" + payload


def cache_batches(path) -> list[tuple[dict, bytes]]:
    """(header, payload) of each record of an embedding-cache file, split
    here without the package's reader."""
    data = Path(path).read_bytes()
    batches = []
    while data:
        line, _, data = data.partition(b"\n")
        header = json.loads(line)
        size = header["payload_bytes"]
        batches.append((header, data[:size]))
        data = data[size:]
    return batches

def file_state(directory):
    """Each file's bytes and st_mtime_ns, by name."""
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in Path(directory).iterdir()}


_real_connect = socket.socket.connect
_LOCAL_HOSTS = {"127.0.0.1", "::1", "localhost"}


@pytest.fixture(autouse=True)
def block_remote_network(request, monkeypatch):
    """Fail any test that tries to reach a non-local host."""
    if request.node.get_closest_marker("live"):
        yield
        return

    def guarded_connect(self, address):
        host = address[0] if isinstance(address, tuple) else address
        if isinstance(host, str) and host not in _LOCAL_HOSTS:
            raise AssertionError(f"test attempted remote connection to {host!r}")
        return _real_connect(self, address)

    monkeypatch.setattr(socket.socket, "connect", guarded_connect)
    yield


@pytest.fixture(scope="session")
def dataset_path():
    return FIXTURES / "dataset.json"


@pytest.fixture(scope="session")
def knowledge_store_path():
    return FIXTURES / "knowledge_store.jsonl"


@pytest.fixture(scope="session")
def train_set_path():
    return FIXTURES / "train_set.json"


@pytest.fixture(scope="session")
def claims(dataset_path):
    return load_dataset(dataset_path)


@pytest.fixture(scope="session")
def train_claims(train_set_path):
    return load_dataset(train_set_path)


def echo_response_text(claim):
    """Scripted chat reply that restates the claim's gold evidence and label."""
    obj = {
        "questions": [
            {
                "question": qa.question,
                "answer": qa.answer,
                "source": "1",
                "answer_type": qa.answer_type.value,
            }
            for qa in claim.gold_evidence
        ],
        "claim_veracity": {
            label.value: "5" if label == claim.gold_label else "1"
            for label in VeracityLabel
        },
        "veracity_verdict": claim.gold_label.value,
    }
    return json.dumps(obj, indent=1)


def build_echo_script(claims, path):
    """Write a mock-provider script that echoes gold evidence for each claim."""
    script = {str(c.id): [echo_response_text(c)] for c in claims}
    path.write_text(json.dumps(script, indent=1), encoding="utf-8")
    return path


@pytest.fixture
def echo_script_path(claims, tmp_path):
    return build_echo_script(claims, tmp_path / "echo_script.json")


def run_cli(argv):
    """Invoke the CLI in-process and normalize its exit code."""
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return 0 if code is None else code


class _StubHandler(BaseHTTPRequestHandler):
    """POST handler that delegates to server.app(path, body, headers)."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        status, payload = self.server.app(self.path, body, dict(self.headers))
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    """Local HTTP server whose behaviour each test sets via server.app."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.app = lambda path, body, headers: (500, {"error": "no app set"})
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
