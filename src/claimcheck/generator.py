"""Evidence and verdict generation through a chat LLM.

Builds a fact-checker system prompt carrying the numbered retrieved
sources and few-shot examples picked by BM25 from the training set,
sends the claim as the user message, and parses the structured JSON
reply: up to l question-answer pairs with 1-based source references,
per-label Likert ratings, and a verdict. Unparseable replies are
regenerated up to a retry budget. A scripted mock provider stands in
for the real endpoint in tests and offline runs.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
from dataclasses import dataclass, replace

from .corpus import AnswerType, Claim, VeracityLabel, json_type, load_json
from .errors import (
    ConfigError,
    GenerationParseError,
    ProviderError,
    ValidationError,
    post_json,
)
from .lexical import Bm25Index, TokenIds, bm25_top, build_index, encode, tokenize
from .retriever import RetrievedSource
from .verdict import check_rating, single_label_ratings, validate_ratings

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeneratorConfig:
    l: int = 10
    fewshot_count: int = 10
    max_retries: int = 3
    kind: str = "mock"
    model_name: str | None = None
    base_url: str | None = None
    temperature: float | None = None
    script_path: str | None = None
    api_key_env: str = "CLAIMCHECK_API_KEY"
    simplified: bool = False
    timeout_s: float = 120.0
    transport_retries: int = 3

    def __post_init__(self):
        if self.l < 1:
            raise ConfigError("l must be >= 1")
        if self.fewshot_count < 0:
            raise ConfigError("fewshot_count must be >= 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.transport_retries < 0:
            raise ConfigError("transport_retries must be >= 0")
        if self.kind not in ("http", "mock"):
            raise ConfigError(f"unknown chat provider kind: {self.kind!r}")
        if self.temperature is not None and not (
            math.isfinite(self.temperature) and self.temperature >= 0
        ):
            raise ConfigError("temperature must be finite and >= 0")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ConfigError("timeout_s must be finite and positive")
        if self.kind == "http" and not (self.base_url and self.model_name):
            raise ConfigError("http chat provider requires base_url and model_name")


@dataclass(frozen=True)
class EvidenceQA:
    question: str
    answer: str
    source_rank: int
    answer_type: AnswerType


@dataclass(frozen=True)
class GeneratorOutput:
    evidence: tuple[EvidenceQA, ...]
    ratings: dict
    verdict: VeracityLabel
    parse_warnings: tuple[str, ...] = ()


def _normalize_label_text(value: str) -> str:
    out = re.sub(r"[^a-z0-9]+", "", value.lower())
    if out.endswith("claim") and out != "claim":
        out = out[: -len("claim")]
    return out


_LABEL_ALIASES = {
    "supported": VeracityLabel.SUPPORTED,
    "refuted": VeracityLabel.REFUTED,
    "notenoughevidence": VeracityLabel.NOT_ENOUGH_EVIDENCE,
    "conflictingevidencecherrypicking": VeracityLabel.CONFLICTING,
    "conflictingevidence": VeracityLabel.CONFLICTING,
    "cherrypicking": VeracityLabel.CONFLICTING,
}


def coerce_label(value: str) -> VeracityLabel:
    """Lenient verdict parse accepting the prompt's phrasings."""
    label = _LABEL_ALIASES.get(_normalize_label_text(value))
    if label is None:
        raise GenerationParseError(f"unrecognized veracity label: {value!r}")
    return label


def _coerce_answer_type(value, warnings: list[str]) -> AnswerType:
    if isinstance(value, str):
        for at in AnswerType:
            if value.strip().lower() == at.value.lower():
                return at
    warnings.append(f"unknown answer_type {value!r} coerced to Abstractive")
    return AnswerType.ABSTRACTIVE


class FewshotPool:
    """Training claims for few-shot selection, BM25-indexed once.

    The claims are tokenized and fully indexed on the first selection,
    under a lock, so every worker of a run shares one index. A full index
    scores a query's terms exactly as an index restricted to them would
    (see Bm25Index). The pool also keeps the rows of each (id, text), so
    a claim of the pool is found without a scan.
    """

    def __init__(self, claims=()):
        self.claims: tuple[Claim, ...] = tuple(claims)
        self._lock = threading.Lock()
        self._built = False
        self._table: TokenIds | None = None
        self._index: Bm25Index | None = None
        self._rows: dict[tuple[int, str], set[int]] = {}

    def index_without(
        self, claim: Claim, query: list[str]
    ) -> tuple[Bm25Index | None, tuple[Claim, ...]]:
        """An index over the pool less claim's (id, text), and the claims
        its ordinals stand for; None if no such claim has a token.

        A claim not in the pool gets the full index. Excluding one changes
        N, avgdl and df, so for a claim in the pool the rest is indexed
        anew, restricted to query, from the pool's ids.
        """
        with self._lock:
            if not self._built:
                self._table = encode(tokenize(c.text) for c in self.claims)
                for row, c in enumerate(self.claims):
                    self._rows.setdefault((c.id, c.text), set()).add(row)
                self._index = build_index(self._table) if len(self._table.ids) else None
                self._built = True
        excluded = self._rows.get((claim.id, claim.text))
        if excluded is None:
            return self._index, self.claims
        rows = [row for row in range(len(self.claims)) if row not in excluded]
        table = self._table.select(rows)
        index = build_index(table, terms=query) if len(table.ids) else None
        return index, tuple(self.claims[row] for row in rows)


def select_fewshot(claim: Claim, pool: FewshotPool, count: int) -> list[Claim]:
    """Most similar training claims by BM25 over claim text.

    The claim under test is excluded from its own candidate pool
    (matching both id and text, so an unrelated claim that happens to
    share an id across files still qualifies). Candidates scoring zero
    are dropped, so fewer than count may come back.
    """
    if count < 1 or not pool.claims:
        return []
    query = tokenize(claim.text)
    if not query:
        return []
    index, candidates = pool.index_without(claim, query)
    if index is None:
        return []
    ranked = bm25_top(index, query, count)
    return [candidates[ordinal] for ordinal, _score in ranked]


_FORMAT_BLOCK_FULL = '''```json
{
 "questions":
     [
         {"question": "<Your first question>", "answer": "<The answer to the Your first question>", "source": "<Single numeric source ID backing the answer for Your first question>", "answer_type":"<The type of first answer>"},
         {"question": "<Your second question>", "answer": "<The answer to the Your second question>", "source": "<Single numeric Source ID backing the answer for Your second question>", "answer_type":"<The type of second answer>"}
     ],
 "claim_veracity": {
     "Supported": "<Likert-scale rating of how much You agree with the 'Supported' veracity classification>",
     "Refuted": "<Likert-scale rating of how much You agree with the 'Refuted' veracity classification>",
     "Not Enough Evidence": "<Likert-scale rating of how much You agree with the 'Not Enough Evidence' veracity classification>",
     "Conflicting Evidence/Cherrypicking": "<Likert-scale rating of how much You agree with the 'Conflicting Evidence/Cherrypicking' veracity classification>"
 },
 "veracity_verdict": "<The suggested veracity classification for the claim>"
}
```'''

_FORMAT_BLOCK_SIMPLIFIED = '''```json
{
 "questions":
     [
         {"question": "<Your first question>", "answer": "<The answer to the Your first question>", "source": "<Single numeric source ID backing the answer for Your first question>"},
         {"question": "<Your second question>", "answer": "<The answer to the Your second question>", "source": "<Single numeric Source ID backing the answer for Your second question>"}
     ],
 "veracity_verdict": "<The suggested veracity classification for the claim>"
}
```'''


def _instruction_text(l: int, simplified: bool) -> str:
    first = (
        f"You are a professional fact checker, formulate up to {l} questions that "
        "cover all the facts needed to validate whether the factual statement "
        "(in User message) is true, false, uncertain or a matter of opinion."
    )
    if simplified:
        return (
            first
            + " Answer Your questions using the provided sources. Ultimately, you "
            "note the single likeliest veracity verdict (Supported claim, Refuted "
            "claim, Not enough evidence, or Conflicting evidence/Cherrypicking) "
            "according to your best knowledge.\n"
            "The facts must be coming from these sources, please refer them using "
            "assigned IDs:"
        )
    return (
        first
        + " Each question has one of four answer types: Boolean, Extractive, "
        "Abstractive and Unanswerable using the provided sources.\n"
        "After formulating Your questions and their answers using the provided "
        "sources, You evaluate the possible veracity verdicts (Supported claim, "
        "Refuted claim, Not enough evidence, or Conflicting evidence/Cherrypicking) "
        "given your claim and evidence on a Likert scale (1 - Strongly disagree, "
        "2 - Disagree, 3 - Neutral, 4 - Agree, 5 - Strongly agree). Ultimately, "
        "you note the single likeliest veracity verdict according to your best "
        "knowledge.\n"
        "The facts must be coming from these sources, please refer them using "
        "assigned IDs:"
    )


def build_prompt(
    claim: Claim,
    sources: list[RetrievedSource],
    fewshot: list[Claim],
    cfg: GeneratorConfig,
) -> tuple[str, str]:
    """Render the system prompt; the user prompt is the claim text itself."""
    parts = [_instruction_text(cfg.l, cfg.simplified)]
    for src in sources:
        block = [f"---\n## Source ID: {src.rank} [{src.chunk.doc_url}]"]
        if src.chunk.prev_context:
            block.append(src.chunk.prev_context)
        block.append(src.chunk.text)
        if src.chunk.next_context:
            block.append(src.chunk.next_context)
        parts.append("\n".join(block))

    fmt = _FORMAT_BLOCK_SIMPLIFIED if cfg.simplified else _FORMAT_BLOCK_FULL
    parts.append(
        "---\n## Output formatting\n"
        "Please, you MUST only print the output in the following output format:\n"
        + fmt
    )

    if fewshot and not cfg.simplified:
        lines = [
            "---\n## Few-shot learning\n"
            "You have access to the following few-shot learning examples for "
            "questions and answers.:"
        ]
        for example in fewshot:
            lines.append("")
            lines.append(
                f'### Question examples for claim "{example.text}" '
                f"(verdict {example.gold_label.value})"
            )
            for qa in example.gold_evidence:
                lines.append(
                    f'"question": "{qa.question}", "answer": "{qa.answer}", '
                    f'"answer_type": "{qa.answer_type.value}"'
                )
        parts.append("\n".join(lines))

    return "\n".join(parts), claim.text


class MockChatProvider:
    """Replays scripted responses keyed by claim id, consumed in order."""

    def __init__(self, script: dict):
        self._lock = threading.Lock()
        self._queues = {str(k): list(v) for k, v in script.items()}

    @classmethod
    def from_file(cls, path: str) -> "MockChatProvider":
        """Load a script file of the form {"<claim_id>": ["reply", ...]}."""
        script = load_json(path, "mock script")
        if not isinstance(script, dict):
            raise ValidationError(
                f"{path}: mock script must be a JSON object, got {json_type(script)}"
            )
        for key, value in script.items():
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                raise ValidationError(
                    f"{path}: script for claim {key} must be a list of strings"
                )
        return cls(script)

    def complete(self, system_prompt: str, user_prompt: str, claim_id: int) -> str:
        with self._lock:
            queue = self._queues.get(str(claim_id))
            if not queue:
                raise ProviderError(f"no scripted response left for claim {claim_id}")
            return queue.pop(0)


class HttpChatProvider:
    """OpenAI-style chat completions client.

    The API key is read from the configured environment variable at
    construction time; a missing key fails before any network traffic.
    The key itself is never logged.
    """

    def __init__(self, cfg: GeneratorConfig):
        key = os.environ.get(cfg.api_key_env, "")
        if not key:
            raise ConfigError(
                f"chat API key environment variable {cfg.api_key_env} is not set"
            )
        self.cfg = cfg
        self._key = key

    def complete(self, system_prompt: str, user_prompt: str, claim_id: int) -> str:
        body = {
            "model": self.cfg.model_name,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
        }
        if self.cfg.temperature is not None:
            body["temperature"] = self.cfg.temperature
        payload = post_json(
            self.cfg.base_url,
            "/chat/completions",
            body,
            self._key,
            self.cfg.timeout_s,
            self.cfg.transport_retries,
            "chat",
        )
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"chat response missing message content: {exc}") from exc
        if not isinstance(content, str):
            raise ProviderError(
                f"chat response message content is {type(content).__name__}, not a string"
            )
        return content


def make_chat_provider(cfg: GeneratorConfig):
    if cfg.kind == "mock":
        if not cfg.script_path:
            raise ConfigError("mock chat provider requires script_path")
        return MockChatProvider.from_file(cfg.script_path)
    return HttpChatProvider(cfg)


def _first_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    for pos, ch in enumerate(text):
        if ch != "{":
            continue
        try:
            obj, _end = decoder.raw_decode(text, pos)
        except ValueError:
            # JSONDecodeError, or an integer literal too long to convert
            continue
        except RecursionError as exc:
            raise GenerationParseError(
                "model output is nested too deeply to parse", raw_text=text
            ) from exc
        if isinstance(obj, dict):
            return obj
    raise GenerationParseError("no JSON object found in model output", raw_text=text)


def _reply_int(value) -> int | None:
    """A reply's integer, read leniently: an int as is, an integral float
    as its int, a string's first run of digits with its minus sign; None for
    anything else, booleans and fractional floats too, and for a run too long
    for int() to convert (over 4,300 digits by default)."""
    if isinstance(value, str):
        digits = re.search(r"-?\d+", value)
        try:
            return int(digits.group()) if digits else None
        except ValueError:
            return None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value if type(value) is int else None


def _read_ratings(raw_ratings: dict, warnings: list[str]) -> dict:
    """The Likert rating of each label in a claim_veracity object.

    Each rating is checked as it is read, so of two keys naming one
    label, either one out of scale fails; the later one wins otherwise.
    """
    ratings = {}
    for key, value in raw_ratings.items():
        try:
            label = coerce_label(key)
        except GenerationParseError:
            warnings.append(f"unknown rating key {key!r} ignored")
            continue
        ratings[label] = check_rating(label, _reply_int(value))
    validate_ratings(ratings)
    return ratings


def parse_output(raw_text: str, m_sources: int, cfg: GeneratorConfig) -> GeneratorOutput:
    """Parse one model reply into a GeneratorOutput.

    Recoverable oddities (extra questions, out-of-range or garbled
    source ids, unknown answer types) become warnings; an absent or
    invalid verdict, or absent ratings outside simplified mode, is a
    parse error that the caller may retry.
    """
    obj = _first_json_object(raw_text)
    warnings: list[str] = []

    raw_questions = obj.get("questions")
    if raw_questions is None:
        warnings.append("missing questions array")
        raw_questions = []
    elif not isinstance(raw_questions, list):
        warnings.append("questions field is not an array")
        raw_questions = []

    evidence = []
    for i, item in enumerate(raw_questions):
        if not isinstance(item, dict):
            warnings.append(f"question {i} is not an object, skipped")
            continue
        question = item.get("question")
        answer = item.get("answer")
        if not isinstance(question, str) or not question.strip():
            warnings.append(f"question {i} has no question text, skipped")
            continue
        if not isinstance(answer, str) or not answer.strip():
            warnings.append(f"question {i} has no answer text, skipped")
            continue
        source = item.get("source")
        rank = _reply_int(source)
        if rank is None:
            warnings.append(f"unparseable source reference {source!r}")
            rank = 0
        if not 1 <= rank <= m_sources:
            warnings.append(
                f"citation out of range: source {rank} not in 1..{m_sources}"
            )
        if cfg.simplified:
            answer_type = AnswerType.ABSTRACTIVE
        else:
            answer_type = _coerce_answer_type(item.get("answer_type"), warnings)
        evidence.append(
            EvidenceQA(
                question=question.strip(),
                answer=answer.strip(),
                source_rank=rank,
                answer_type=answer_type,
            )
        )
    if len(evidence) > cfg.l:
        warnings.append(f"{len(evidence)} questions exceed l={cfg.l}, truncated")
        evidence = evidence[: cfg.l]

    raw_ratings = obj.get("claim_veracity")
    verdict_raw = obj.get("veracity_verdict")
    if not isinstance(verdict_raw, str):
        raise GenerationParseError("missing veracity_verdict", raw_text=raw_text)
    verdict = coerce_label(verdict_raw)

    if raw_ratings is None and cfg.simplified:
        ratings = single_label_ratings(verdict)
    elif not isinstance(raw_ratings, dict):
        raise GenerationParseError("missing claim_veracity ratings", raw_text=raw_text)
    else:
        try:
            ratings = _read_ratings(raw_ratings, warnings)
        except ValidationError as exc:
            raise GenerationParseError(str(exc), raw_text=raw_text) from exc

    return GeneratorOutput(
        evidence=tuple(evidence),
        ratings=ratings,
        verdict=verdict,
        parse_warnings=tuple(warnings),
    )


def serialize_output(output: GeneratorOutput) -> str:
    """Render a GeneratorOutput back into the reply JSON shape.

    Useful for building mock scripts and for the parse/serialize
    round-trip check; parse_output(serialize_output(x)) preserves the
    evidence, ratings, and verdict.
    """
    obj = {
        "questions": [
            {
                "question": e.question,
                "answer": e.answer,
                "source": str(e.source_rank),
                "answer_type": e.answer_type.value,
            }
            for e in output.evidence
        ],
        "claim_veracity": {
            label.value: str(output.ratings[label]) for label in VeracityLabel
        },
        "veracity_verdict": output.verdict.value,
    }
    return json.dumps(obj, indent=1)


def empty_retrieval_output() -> GeneratorOutput:
    return GeneratorOutput(
        evidence=(),
        ratings=single_label_ratings(VeracityLabel.NOT_ENOUGH_EVIDENCE),
        verdict=VeracityLabel.NOT_ENOUGH_EVIDENCE,
        parse_warnings=("empty retrieval short-circuit",),
    )


def run_generation(
    claim: Claim,
    sources: list[RetrievedSource],
    fewshot_pool: FewshotPool,
    cfg: GeneratorConfig,
    provider,
) -> GeneratorOutput:
    """Few-shot selection, prompting, LLM call, parse, retry on bad JSON."""
    if not sources:
        return empty_retrieval_output()

    fewshot = []
    if not cfg.simplified:
        fewshot = select_fewshot(claim, fewshot_pool, cfg.fewshot_count)
    system_prompt, user_prompt = build_prompt(claim, sources, fewshot, cfg)

    last_error: GenerationParseError | None = None
    for attempt in range(cfg.max_retries + 1):
        raw = provider.complete(system_prompt, user_prompt, claim.id)
        try:
            output = parse_output(raw, len(sources), cfg)
        except GenerationParseError as exc:
            last_error = exc
            log.warning("claim %d: parse failure on attempt %d: %s", claim.id, attempt + 1, exc)
            continue
        if attempt > 0:
            output = replace(
                output, parse_warnings=output.parse_warnings + (f"retry_count {attempt}",)
            )
        return output

    raise GenerationParseError(
        f"claim {claim.id}: no parseable output after {cfg.max_retries} retries: {last_error}",
        raw_text=last_error.raw_text if last_error else "",
    )


def prediction_record(
    claim: Claim,
    sources: list[RetrievedSource],
    output: GeneratorOutput,
    final_verdict: VeracityLabel | None = None,
) -> dict:
    """Build the prediction-file entry; source ranks resolve to URLs here."""
    evidence = []
    for e in output.evidence:
        url = ""
        if 1 <= e.source_rank <= len(sources):
            url = sources[e.source_rank - 1].chunk.doc_url
        evidence.append(
            {
                "question": e.question,
                "answer": e.answer,
                "source_url": url,
                "answer_type": e.answer_type.value,
            }
        )
    verdict = final_verdict if final_verdict is not None else output.verdict
    return {
        "claim_id": claim.id,
        "claim": claim.text,
        "evidence": evidence,
        "ratings": {label.value: output.ratings[label] for label in VeracityLabel},
        "verdict": verdict.value,
    }
