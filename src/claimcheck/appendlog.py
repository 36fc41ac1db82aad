"""Append-only JSON-lines files that survive an interrupted append.

The embedding cache and verify's progress file grow one line at a time,
and a line counts once its newline is written. A process killed in the
middle of an append leaves an unterminated fragment at the end of the
file: reading drops it with a warning, so its record is redone, and the
next append first cuts the file back to the last newline, so the new
line is not glued to the fragment. Complete lines are decoded by
corpus.json_line, so a bad one is corruption and raises ValidationError.
A reader that already holds the first lines' content (an embedding
cache's snapshot) starts reading after them.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable, Iterator

from .corpus import json_line

log = logging.getLogger(__name__)


class AppendLog:
    def __init__(self, path: str):
        self.path = path
        self._torn_at: int | None = None  # byte offset of a torn final line
        # (byte offset, line count) just past the last complete line read
        self.end = (0, 0)

    def read(self, start: int = 0, lines: int = 0, digest=None) -> Iterator[tuple[int, dict]]:
        """(line number, JSON object) of each complete, non-blank line.

        Reading begins at byte offset start, which must follow the file's
        first `lines` lines, so line numbers, self.end and a torn line's
        offset stay those of the whole file. digest, a hashlib object if
        given, is updated with the bytes of each complete line read.
        """
        self._torn_at = None
        self.end = (start, lines)
        if not os.path.isfile(self.path):
            return
        offset = start
        with open(self.path, "rb") as fh:
            fh.seek(start)
            for lineno, raw in enumerate(fh, start=lines + 1):
                if not raw.endswith(b"\n"):
                    log.warning(
                        "%s: line %d: dropping a torn final line (%d bytes)",
                        self.path, lineno, len(raw),
                    )
                    self._torn_at = offset
                    return
                offset += len(raw)
                if digest is not None:
                    digest.update(raw)
                self.end = (offset, lineno)
                obj = json_line(self.path, f"line {lineno}", raw)
                if obj is not None:
                    yield lineno, obj

    def append(self, lines: Iterable[str]) -> None:
        """Append lines, each given without its newline."""
        if self._torn_at is not None:
            os.truncate(self.path, self._torn_at)
            self._torn_at = None
        with open(self.path, "a", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
