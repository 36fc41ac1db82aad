"""JSON input reading, dataset and knowledge-store ingestion, chunking.

Every outside JSON record is read here: a JSON file through load_json,
a line of a JSON-lines file (a knowledge store, verify's progress, an
embedding cache batch's header) through json_line, and each record
through json_record, so a bad one fails the same way whichever it is. A
dataset file is a JSON array of claims with optional gold labels and
question-answer evidence. A knowledge store is a JSON-lines file (or a
directory of per-claim files) of pre-scraped documents, each already
split into sentences. Documents are packed greedily into
character-bounded chunks that carry their neighbours' text as context.

A derived file (read_derived, write_derived) is a disposable binary
file that a rerun reads instead of parsing JSON lines again. A combined
store's offset index is the one such file.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import logging
import os
import sys
import threading
from array import array
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .errors import ValidationError

log = logging.getLogger(__name__)


class VeracityLabel(Enum):
    SUPPORTED = "Supported"
    REFUTED = "Refuted"
    NOT_ENOUGH_EVIDENCE = "Not Enough Evidence"
    CONFLICTING = "Conflicting Evidence/Cherrypicking"


class AnswerType(Enum):
    EXTRACTIVE = "Extractive"
    ABSTRACTIVE = "Abstractive"
    BOOLEAN = "Boolean"
    UNANSWERABLE = "Unanswerable"


def parse_label(value: str) -> VeracityLabel:
    """Strict label parse: only canonical serialization strings pass."""
    try:
        return VeracityLabel(value)
    except ValueError:
        raise ValidationError(f"unknown veracity label: {value!r}") from None


def parse_answer_type(value: str) -> AnswerType:
    try:
        return AnswerType(value)
    except ValueError:
        raise ValidationError(f"unknown answer type: {value!r}") from None


@dataclass(frozen=True)
class GoldQA:
    question: str
    answer: str
    answer_type: AnswerType


@dataclass(frozen=True)
class Claim:
    id: int
    text: str
    claim_date: str | None = None
    gold_label: VeracityLabel | None = None
    gold_evidence: tuple[GoldQA, ...] = ()

    def __post_init__(self):
        if self.id < 0:
            raise ValidationError(f"claim id must be >= 0, got {self.id}")
        if not self.text or not self.text.strip():
            raise ValidationError(f"claim {self.id} has empty text")
        if self.gold_label is not None and not self.gold_evidence:
            raise ValidationError(
                f"claim {self.id} has a gold label but no gold evidence"
            )


@dataclass(frozen=True)
class Document:
    url: str
    sentences: tuple[str, ...]

    def __post_init__(self):
        if not self.sentences:
            raise ValidationError(f"document {self.url!r} has no sentences")


@dataclass(frozen=True)
class Chunk:
    doc_url: str
    index_in_doc: int
    sentences: tuple[str, ...]
    text: str
    prev_context: str | None = None
    next_context: str | None = None
    oversized: bool = False

    @property
    def key(self) -> str:
        return f"{self.doc_url}#{self.index_in_doc}"


@dataclass(frozen=True)
class StoreLoadResult:
    """A claim's documents; offsets holds the byte offset of each one's
    line in file_id's file (see store_file_id)."""

    documents: tuple[Document, ...]
    dropped_empty: int
    offsets: tuple[int, ...] = ()
    file_id: tuple | None = None


def load_json(path: str, what: str):
    """The parsed content of a UTF-8 JSON file.

    what names the file's role in messages. A missing file, a directory,
    an unreadable file, invalid UTF-8 and invalid JSON each raise a
    ValidationError naming what and path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} file not found: {path}") from exc
    except IsADirectoryError as exc:
        raise ValidationError(f"{what} file is a directory: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"{what} file cannot be read: {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} file is not valid UTF-8: {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise ValidationError(f"{what} file is not valid JSON: {path}: {exc}") from exc


def load_json_objects(path: str, what: str, parse) -> list:
    """[parse(pos, obj) for each obj] of a file holding a JSON array of
    objects, each a record at "element {pos}" (see json_record)."""
    data = load_json(path, what)
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a JSON array, got {json_type(data)}")
    return [json_record(path, f"element {pos}", obj, partial(parse, pos))
            for pos, obj in enumerate(data)]


def json_record(path: str, where: str, obj, parse):
    """parse(obj), obj being the record at where in path, which must be an
    object. A ValidationError, KeyError, TypeError or ValueError from
    parse is reported as "{path}: {where}: ..."."""
    try:
        if not isinstance(obj, dict):
            raise ValidationError(f"{json_type(obj)}, not an object")
        return parse(obj)
    except KeyError as exc:
        raise ValidationError(f"{path}: {where}: missing field {exc}") from exc
    except (ValidationError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {where}: {exc}") from exc


def json_line(path: str, where: str, raw: bytes) -> dict | None:
    """The JSON object on a line of a JSON-lines file, given as bytes; None
    for a blank line. Invalid UTF-8, invalid JSON (too deep nesting and
    over-long integer literals included) and a value that is not an
    object each raise a ValidationError naming path and where."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {where}: not valid UTF-8: {exc}") from exc
    if not line:
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise ValidationError(f"{path}: {where}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: {where}: {json_type(obj)}, not an object")
    return obj


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def json_type(value) -> str:
    """The JSON name of a parsed value's type, for messages."""
    return _JSON_TYPES[type(value)]


def str_field(obj: dict, key: str, default: str | None = None) -> str:
    """obj[key], which must be a string; default when absent, if given."""
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, str):
        raise ValidationError(f"{key!r} must be a string, got {json_type(value)}")
    return value


def object_list(obj: dict, key: str) -> list[dict]:
    """obj[key], which must be an array of objects; [] when absent or null."""
    items = obj.get(key)
    if items is None:
        return []
    if not isinstance(items, list):
        raise ValidationError(f"{key!r} must be an array, got {json_type(items)}")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValidationError(f"{key}[{i}] is {json_type(item)}, not an object")
    return items


def count_field(obj: dict, key: str) -> int:
    """obj[key], which must be a non-negative integer (not a boolean)."""
    value = obj[key]
    if type(value) is not int or value < 0:
        raise ValidationError(f"{key!r} must be a non-negative integer, got {value!r}")
    return value


def read_derived(path: str, fmt: str, parse):
    """parse(header, payload) of the derived file at path, or None when
    the file is missing or fails a check.

    A derived file is one JSON header line, then a binary payload whose
    sha256 the header's "payload_sha256" holds. A header that does not
    decode or is not of format fmt, a payload that fails its checksum,
    and any ValidationError, KeyError, TypeError or ValueError of parse
    (which checks the header against the payload and against the file
    it derives from) make the file ignored, with a logged reason: the
    caller parses the source instead and writes the file again.
    """
    try:
        with open(path, "rb") as fh:
            header = json_line(path, "header", fh.readline())
            payload = fh.read()
        return json_record(path, "header", header, partial(_derived, fmt, payload, parse))
    except FileNotFoundError:
        return None
    except (OSError, ValidationError) as exc:
        ignore_derived(path, exc)
        return None


def ignore_derived(path: str, reason) -> None:
    """Log that the derived file at path is ignored, and why."""
    log.info("ignoring derived file %s: %s", path, reason)


def _derived(fmt: str, payload: bytes, parse, header: dict):
    if header.get("format") != fmt:
        raise ValidationError(f"format {header.get('format')!r}, not {fmt!r}")
    if str_field(header, "payload_sha256") != hashlib.sha256(payload).hexdigest():
        raise ValidationError(f"payload of {len(payload)} bytes fails its checksum")
    return parse(header, payload)


def write_derived(path: str, fmt: str, header: dict, payload: bytes) -> None:
    """Replace the derived file at path (see read_derived) atomically.

    A write that fails, say in a read-only directory, is logged and
    leaves no temporary file: derived files only save time. They are
    not synced to disk, since a torn one fails its checksum.
    """
    header = dict(header, format=fmt, payload_sha256=hashlib.sha256(payload).hexdigest())
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                fh.write(json.dumps(header).encode("ascii") + b"\n")
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        log.info("not writing derived file %s: %s", path, exc)


def claim_id_field(obj: dict, default: int | None = None) -> int:
    """obj["claim_id"], which must be an integer (not a boolean)."""
    claim_id = obj["claim_id"] if default is None else obj.get("claim_id", default)
    if type(claim_id) is not int:
        raise ValidationError(f"claim_id must be an integer, got {claim_id!r}")
    return claim_id


def repeated_ids(ids) -> list[int]:
    """The ids that occur more than once, sorted."""
    return sorted(i for i, n in Counter(ids).items() if n > 1)


def require_distinct_ids(path: str, claim_ids) -> None:
    """Raise a ValidationError naming path unless claim_ids are distinct."""
    repeated = repeated_ids(claim_ids)
    if repeated:
        raise ValidationError(f"{path}: claim ids repeated: {repeated}")


def load_dataset(path: str, what: str = "dataset") -> list[Claim]:
    """Load a JSON-array dataset file into Claim objects.

    Ids come from an explicit "claim_id" field when present, else from the
    array position, and must be distinct. Unknown fields are ignored.
    Multiple answers to one question are joined with "; " into a single
    gold answer.
    """
    claims = load_json_objects(path, what, _claim_from_json)
    require_distinct_ids(path, (c.id for c in claims))
    return claims


def _claim_from_json(position: int, item: dict) -> Claim:
    claim_id = claim_id_field(item, position)
    text = str_field(item, "claim")
    label = None
    raw_label = item.get("label")
    if raw_label is not None:
        label = parse_label(raw_label)

    return Claim(
        id=claim_id,
        text=text,
        claim_date=item.get("claim_date"),
        gold_label=label,
        gold_evidence=tuple(_gold_qa(q) for q in object_list(item, "questions")),
    )


def _gold_qa(q: dict) -> GoldQA:
    answers = object_list(q, "answers")
    answer = "; ".join(str_field(a, "answer", "") for a in answers)
    at = AnswerType.ABSTRACTIVE
    if answers:
        raw_type = answers[0].get("answer_type")
        if raw_type is not None:
            at = parse_answer_type(raw_type)
    return GoldQA(question=str_field(q, "question", ""), answer=answer, answer_type=at)


def _store_file_for_claim(path: str, claim_id: int) -> str | None:
    for name in (f"{claim_id}.json", f"{claim_id}.jsonl"):
        candidate = os.path.join(path, name)
        if os.path.isfile(candidate):
            return candidate
    return None


def _file_id(path: str, st: os.stat_result) -> tuple:
    return (os.path.realpath(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def store_file_id(path: str, claim_id: int) -> tuple | None:
    """The file_id that a load of claim_id's documents from the store at
    path reports while its file stays as it is: the file's resolved path,
    device, inode, size and mtime_ns. None when there is no such file."""
    target = _store_file_for_claim(path, claim_id) if os.path.isdir(path) else path
    if target is None:
        return None
    try:
        return _file_id(target, os.stat(target))
    except OSError:
        return None


def load_knowledge_store(
    path: str, claim_id: int, index_dir: str | None = None, offsets: Iterable[int] | None = None
) -> StoreLoadResult:
    """Load the documents for one claim from a knowledge store.

    `path` may be a single JSON-lines file holding many claims or a
    directory of per-claim files named {claim_id}.json(l). A line without
    a claim_id belongs to every claim. A combined file is offset-indexed
    by claim on its first load in the process (see _combined_store_lines),
    so each later load parses only that claim's lines; with index_dir
    given, the index is kept there for later processes too. A per-claim
    file is read once, in full. Lines end at LF or CRLF. Lines with an empty
    sentence list are dropped and counted rather than erroring: scraped
    stores routinely contain them. A line whose url2text is not an array
    of strings, or whose url or claim_id is present but not a string or
    an integer, fails the load with a ValidationError naming the file,
    the line (by number in a per-claim file, by byte offset in a
    combined one) and the claim; in a combined file, a line with an
    ill-typed claim_id fails every claim's load.

    With offsets given, byte offsets of lines of the claim's file (as an
    earlier load's StoreLoadResult.offsets held them), only the lines at
    those offsets are read, and no offset index. An offset that does not
    start a line, or whose line fails to decode or check, is another
    claim's or has no sentence, gives no document and no error: such
    offsets come from a derived file, which the caller checks against the
    documents returned.
    """
    combined = not os.path.isdir(path)
    target = path if combined else _store_file_for_claim(path, claim_id)
    if target is None:
        log.warning("no knowledge store file for claim %d under %s", claim_id, path)
        return StoreLoadResult(documents=(), dropped_empty=0)
    parse = partial(_store_document, claim_id)
    with open(target, "rb") as fh:
        file_id = _file_id(target, os.fstat(fh.fileno()))
        if offsets is not None:
            found = list(_documents_at(target, fh, offsets, parse))
        else:
            if combined:
                lines = _combined_store_lines(path, fh, file_id, claim_id, index_dir)
            else:
                lines = _store_lines(target, fh)
            found = [(offset, json_record(target, f"{where}: claim {claim_id}", obj, parse))
                     for where, offset, obj in lines]
    found = [(offset, doc) for offset, doc in found if doc is not None]
    kept = [(offset, Document(url=url, sentences=sentences))
            for offset, (url, sentences) in found if sentences]
    dropped = len(found) - len(kept)
    if dropped:
        log.info("claim %d: dropped %d empty documents", claim_id, dropped)
    return StoreLoadResult(documents=tuple(doc for _offset, doc in kept), dropped_empty=dropped,
                           offsets=tuple(offset for offset, _doc in kept), file_id=file_id)


def _store_document(claim_id: int, obj: dict) -> tuple[str, tuple[str, ...]] | None:
    """(url, non-blank sentences) of claim_id's store line; None for another claim's."""
    if claim_id_field(obj, claim_id) != claim_id:
        return None
    return str_field(obj, "url", ""), _store_sentences(obj)


def _store_sentences(obj: dict) -> tuple[str, ...]:
    """The non-blank sentences of a store line's url2text, an array of
    strings; none when it is absent."""
    texts = obj.get("url2text", [])
    if not isinstance(texts, list):
        raise ValidationError(f"'url2text' must be an array, got {json_type(texts)}")
    sentences = []
    for s in texts:
        if not isinstance(s, str):
            raise ValidationError(f"'url2text' must hold strings, got {json_type(s)}")
        if s.strip():
            sentences.append(s)
    return tuple(sentences)


def _parsed_lines(path: str, fh):
    """(line number, byte offset, object) of each non-blank line of a store."""
    offset = 0
    for lineno, raw in enumerate(fh, start=1):
        obj = json_line(path, f"line {lineno}", raw)
        if obj is not None:
            yield lineno, offset, obj
        offset += len(raw)


def _store_lines(path: str, fh):
    """("line N", byte offset, object) for every non-blank line of a store file, in order."""
    for lineno, offset, obj in _parsed_lines(path, fh):
        yield f"line {lineno}", offset, obj


def _documents_at(path: str, fh, offsets: Iterable[int], parse):
    """(offset, parse(object)) for each of offsets that starts a line of
    fh whose object parse takes; any other offset is skipped."""
    for offset in offsets:
        fh.seek(max(offset - 1, 0))
        if offset and fh.read(1) != b"\n":
            continue
        where = f"byte {offset}"
        try:
            obj = json_line(path, where, fh.readline())
            if obj is not None:
                yield offset, json_record(path, where, obj, parse)
        except ValidationError:
            continue


@dataclass(frozen=True)
class _StoreIndex:
    """Byte offsets of a combined store's lines, by claim.

    file_key identifies the file state the offsets were taken from.
    Offsets ascend, so merging a claim's own and the shared lines keeps
    file order. Offsets, not documents, so memory does not grow with the
    parsed store.
    """

    file_key: tuple[int, int, int, int]
    by_claim: dict[int, array]
    shared: array


# Combined-store offset indexes by resolved path. An entry is reused only
# while the file's device, inode, size and mtime match, so a rewritten
# store is indexed again; one built from a file with a bad line is never
# stored, here or in an index directory.
_store_indexes: dict[str, _StoreIndex] = {}
_store_index_lock = threading.Lock()

STORE_INDEX_FORMAT = "claimcheck-store-index/1"


def store_index_path(index_dir: str, resolved: str) -> str:
    """Where the index of the store at resolved path is kept in index_dir."""
    digest = hashlib.sha256(resolved.encode("utf-8", "surrogateescape")).hexdigest()
    return os.path.join(index_dir, f"store_{digest[:24]}.index")


def _index_store(path: str, fh, file_key: tuple[int, int, int, int]) -> _StoreIndex:
    by_claim: dict[int, array] = {}
    shared = array("q")
    for _lineno, offset, obj in _parsed_lines(path, fh):
        line_claim = obj.get("claim_id")
        if type(line_claim) is int:
            by_claim.setdefault(line_claim, array("q")).append(offset)
        else:
            # no claim_id, or one that is not an integer: every claim's
            # load reads it, and rejects the latter
            shared.append(offset)
    return _StoreIndex(file_key=file_key, by_claim=by_claim, shared=shared)


def _save_store_index(path: str, resolved: str, index: _StoreIndex) -> None:
    """Keep index in the derived file at path: the header names the store
    and its file_key, the claims with their offset counts and the count
    of shared offsets; the payload is every claim's offsets, then the
    shared ones, as native int64."""
    claims = list(index.by_claim)
    header = {
        "store": resolved,
        "file_key": list(index.file_key),
        "byteorder": sys.byteorder,
        "claims": claims,
        "counts": [len(index.by_claim[c]) for c in claims],
        "shared": len(index.shared),
    }
    payload = b"".join(index.by_claim[c].tobytes() for c in claims) + index.shared.tobytes()
    write_derived(path, STORE_INDEX_FORMAT, header, payload)


def _load_store_index(path: str, resolved: str, file_key) -> _StoreIndex | None:
    """The index kept at path, if it is of this store's file state."""

    def parse(header: dict, payload: bytes) -> _StoreIndex:
        if str_field(header, "store") != resolved:
            raise ValidationError(f"indexes {header['store']!r}, not {resolved!r}")
        if header["file_key"] != list(file_key):
            raise ValidationError("store file changed since it was indexed")
        if header["byteorder"] != sys.byteorder:
            raise ValidationError(f"{header['byteorder']!r}-endian offsets")
        claims, counts = header["claims"], header["counts"]
        if not (isinstance(claims, list) and isinstance(counts, list)
                and len(claims) == len(counts)):
            raise ValidationError("claims and counts are not parallel arrays")
        offsets = array("q")
        offsets.frombytes(payload)
        by_claim: dict[int, array] = {}
        start = 0
        for claim_id, count in zip(claims, counts):
            if type(claim_id) is not int or type(count) is not int or count < 0:
                raise ValidationError(f"bad offset count {count!r} of claim {claim_id!r}")
            by_claim[claim_id] = offsets[start : start + count]
            start += count
        if start + count_field(header, "shared") != len(offsets):
            raise ValidationError(f"counts do not add up to the {len(offsets)} offsets")
        return _StoreIndex(file_key=file_key, by_claim=by_claim, shared=offsets[start:])

    return read_derived(path, STORE_INDEX_FORMAT, parse)


def _combined_store_lines(path: str, fh, file_id: tuple, claim_id: int,
                          index_dir: str | None = None):
    """("byte N", byte offset, object) for claim_id's and the shared lines
    of the combined store open as fh, whose file_id is given.

    The first load of a file state in the process reads its offset index
    from index_dir, if kept there for this state, or else parses the
    whole file to build it and keeps it there; under a lock, so
    concurrent loads build it once. Each load then seeks to its claim's
    lines and parses only those.
    """
    resolved, file_key = file_id[0], file_id[1:]
    with _store_index_lock:
        index = _store_indexes.get(resolved)
        if index is None or index.file_key != file_key:
            kept = None if index_dir is None else store_index_path(index_dir, resolved)
            index = None if kept is None else _load_store_index(kept, resolved, file_key)
            if index is None:
                index = _index_store(path, fh, file_key)
                if kept is not None:
                    _save_store_index(kept, resolved, index)
            _store_indexes[resolved] = index
    for offset in heapq.merge(index.by_claim.get(claim_id, ()), index.shared):
        fh.seek(offset)
        where = f"byte {offset}"
        obj = json_line(path, where, fh.readline())
        if obj is not None:
            yield where, offset, obj


def chunk_document(doc: Document, max_chars: int) -> list[Chunk]:
    """Pack sentences greedily into chunks of at most max_chars characters.

    Length is measured on sentences joined by single spaces. A lone
    sentence longer than the bound becomes its own chunk flagged
    oversized; sentences are never split mid-way so that source text
    stays quotable verbatim.
    """
    if max_chars < 1:
        raise ValidationError(f"max_chars must be >= 1, got {max_chars}")

    groups: list[tuple[str, ...]] = []
    current: list[str] = []
    length = 0
    for sentence in doc.sentences:
        added = len(sentence) if not current else length + 1 + len(sentence)
        if current and added > max_chars:
            groups.append(tuple(current))
            current = [sentence]
            length = len(sentence)
        else:
            current.append(sentence)
            length = added
    if current:
        groups.append(tuple(current))

    texts = [" ".join(g) for g in groups]
    chunks = []
    for i, (group, text) in enumerate(zip(groups, texts)):
        chunks.append(
            Chunk(
                doc_url=doc.url,
                index_in_doc=i,
                sentences=group,
                text=text,
                prev_context=texts[i - 1] if i > 0 else None,
                next_context=texts[i + 1] if i + 1 < len(texts) else None,
                oversized=len(text) > max_chars,
            )
        )
    return chunks
