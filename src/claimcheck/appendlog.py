"""Append-only record files that survive an interrupted append.

A record is one JSON header line, decoded by corpus.json_line. A header
with a "payload_bytes" field is followed by that many bytes of binary
payload, whose sha256 its "payload_sha256" holds. verify's progress
file holds records without payloads, one JSON line each; an embedding
cache holds one record per batch of vectors (see dense.EmbeddingCache).

A record counts once its last byte is written. A process killed in the
middle of an append leaves a torn record at the end of the file: a
header without its newline, or a payload shorter than payload_bytes.
Reading drops it with a warning, so its content is redone, and the
next append first cuts the file back to where the torn record began,
so the new record is not glued to the fragment. A complete record that
fails a check (its header, payload_bytes or payload_sha256 malformed,
or its payload failing its checksum) is corruption and raises a
ValidationError naming the file and the record.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Iterator

from .corpus import count_field, json_line, json_record, str_field
from .errors import ValidationError

log = logging.getLogger(__name__)


def _payload_bytes(header: dict) -> int:
    """The length of a header's payload, 0 if it has none."""
    if "payload_bytes" not in header:
        return 0
    str_field(header, "payload_sha256")
    return count_field(header, "payload_bytes")


class AppendLog:
    def __init__(self, path: str, unit: str = "line"):
        """unit names a record in messages: "line 3", "batch 3"."""
        self.path = path
        self.unit = unit
        self._torn_at: int | None = None  # byte offset of a torn final record

    def read(self) -> Iterator[tuple[str, dict, bytes]]:
        """(where, header, payload) of each complete record, where naming
        it ("line 3") and payload b"" for a record without one. A blank
        line is skipped, but counted in the numbering."""
        self._torn_at = None
        if not os.path.isfile(self.path):
            return
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            offset = number = 0
            while raw := fh.readline():
                number += 1
                where = f"{self.unit} {number}"
                complete = raw.endswith(b"\n")
                header = json_line(self.path, where, raw) if complete else None
                length = 0 if header is None else json_record(
                    self.path, where, header, _payload_bytes
                )
                if not complete or offset + len(raw) + length > size:
                    log.warning(
                        "%s: %s: dropping a torn final %s (%d bytes)",
                        self.path, where, self.unit, size - offset,
                    )
                    self._torn_at = offset
                    return
                offset += len(raw) + length
                if header is None:
                    continue
                payload = fh.read(length)
                if "payload_bytes" in header and (
                    hashlib.sha256(payload).hexdigest() != header["payload_sha256"]
                ):
                    raise ValidationError(
                        f"{self.path}: {where}: payload of {length} bytes fails its checksum"
                    )
                yield where, header, payload

    def append(self, header: dict, payload: bytes | None = None) -> None:
        """Append one record: header as a JSON line, keys sorted, then
        payload if given, its length and sha256 added to the header."""
        if payload is not None:
            header = dict(header, payload_bytes=len(payload),
                          payload_sha256=hashlib.sha256(payload).hexdigest())
        if self._torn_at is not None:
            os.truncate(self.path, self._torn_at)
            self._torn_at = None
        with open(self.path, "ab") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
            if payload:
                fh.write(payload)
