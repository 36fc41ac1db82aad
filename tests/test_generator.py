import json
import random
import sys
import threading
from pathlib import Path

import pytest

import claimcheck.generator as generator
from claimcheck.corpus import AnswerType, Chunk, Claim, GoldQA, VeracityLabel
from claimcheck.errors import (
    ConfigError,
    GenerationParseError,
    ProviderError,
    ValidationError,
)
from claimcheck.generator import (
    build_prompt,
    coerce_label,
    empty_retrieval_output,
    EvidenceQA,
    FewshotPool,
    GeneratorConfig,
    GeneratorOutput,
    HttpChatProvider,
    make_chat_provider,
    MockChatProvider,
    parse_output,
    prediction_record,
    run_generation,
    select_fewshot,
    serialize_output,
)
from claimcheck.lexical import bm25_top, build_index, tokenize
from claimcheck.retriever import RetrievedSource

FIXTURES = Path(__file__).parent / "fixtures"

CFG = GeneratorConfig()


def _chunk(url, idx, text, prev=None, nxt=None):
    return Chunk(
        doc_url=url,
        index_in_doc=idx,
        sentences=(text,),
        text=text,
        prev_context=prev,
        next_context=nxt,
    )


def _source(rank, url="https://example.org/doc", text="Some source text.", **kw):
    return RetrievedSource(rank=rank, chunk=_chunk(url, rank - 1, text, **kw), sim_to_claim=0.5)


def _reply(
    questions=None,
    ratings=None,
    verdict="Refuted",
    drop_ratings=False,
    drop_verdict=False,
):
    obj = {}
    if questions is not None:
        obj["questions"] = questions
    if not drop_ratings:
        obj["claim_veracity"] = ratings or {
            "Supported": "1",
            "Refuted": "5",
            "Not Enough Evidence": "2",
            "Conflicting Evidence/Cherrypicking": "1",
        }
    if not drop_verdict:
        obj["veracity_verdict"] = verdict
    return json.dumps(obj)


GOOD_QUESTION = {
    "question": "Who confirmed it?",
    "answer": "The water board.",
    "source": "1",
    "answer_type": "Extractive",
}


class TestGoldenPrompt:
    def test_system_prompt_matches_frozen_file(self):
        claim = Claim(
            id=0,
            text="The Halvern Bridge was completed in 1977 and spans the Ruden River.",
        )
        c1 = Chunk(
            doc_url="https://example.org/halvern/history",
            index_in_doc=1,
            sentences=(
                "Construction began in 1971 under the regional works authority.",
                "The bridge was completed in 1977 after several budget delays.",
            ),
            text=(
                "Construction began in 1971 under the regional works authority. "
                "The bridge was completed in 1977 after several budget delays."
            ),
            prev_context=(
                "The Halvern Bridge crosses the Ruden River just north of the "
                "old mill district."
            ),
            next_context="At the time it was the longest concrete span in the county.",
        )
        c2 = Chunk(
            doc_url="https://example.org/ruden/valley",
            index_in_doc=0,
            sentences=(
                "The Ruden River valley hosts several crossings built in the "
                "twentieth century.",
            ),
            text=(
                "The Ruden River valley hosts several crossings built in the "
                "twentieth century."
            ),
        )
        sources = [
            RetrievedSource(rank=1, chunk=c1, sim_to_claim=0.9),
            RetrievedSource(rank=2, chunk=c2, sim_to_claim=0.7),
        ]
        fs1 = Claim(
            id=1,
            text="The Ostrell viaduct was completed in 1902 and spans the Kellbrook gorge.",
            gold_label=VeracityLabel.SUPPORTED,
            gold_evidence=(
                GoldQA("When was the Ostrell viaduct completed?", "In 1902.", AnswerType.EXTRACTIVE),
                GoldQA("What does the Ostrell viaduct span?", "The Kellbrook gorge.", AnswerType.EXTRACTIVE),
            ),
        )
        fs2 = Claim(
            id=2,
            text="The Grent water system serves four million households across the lowlands.",
            gold_label=VeracityLabel.REFUTED,
            gold_evidence=(
                GoldQA(
                    "How many households does the Grent water system serve?",
                    "Four million households.",
                    AnswerType.EXTRACTIVE,
                ),
            ),
        )
        system, user = build_prompt(claim, sources, [fs1, fs2], GeneratorConfig())
        frozen = (FIXTURES / "golden_prompt.txt").read_text(encoding="utf-8")
        assert system == frozen
        assert user == claim.text

    def test_l_parameter_appears_in_instruction(self):
        claim = Claim(id=0, text="c")
        system, _ = build_prompt(claim, [_source(1)], [], GeneratorConfig(l=7))
        assert "formulate up to 7 questions" in system

    def test_source_without_context_has_no_blank_lines(self):
        claim = Claim(id=0, text="c")
        system, _ = build_prompt(claim, [_source(1, text="Only text.")], [], CFG)
        block = system.split("---\n## Source ID: 1 ")[1].split("---")[0]
        lines = [l for l in block.splitlines() if l]
        assert lines[-1] == "Only text."

    def test_simplified_prompt_drops_fewshot_and_likert(self):
        claim = Claim(id=0, text="c")
        fs = Claim(
            id=1,
            text="train claim",
            gold_label=VeracityLabel.SUPPORTED,
            gold_evidence=(GoldQA("q", "a", AnswerType.BOOLEAN),),
        )
        cfg = GeneratorConfig(simplified=True)
        system, _ = build_prompt(claim, [_source(1)], [fs], cfg)
        assert "Few-shot" not in system
        assert "Likert" not in system
        assert "answer_type" not in system
        assert "claim_veracity" not in system
        assert "veracity_verdict" in system


class TestSelectFewshot:
    def _train(self):
        def mk(i, text):
            return Claim(
                id=i,
                text=text,
                gold_label=VeracityLabel.SUPPORTED,
                gold_evidence=(GoldQA("q", "a", AnswerType.BOOLEAN),),
            )

        return [
            mk(0, "The Halvern Bridge was completed in 1977 and spans the Ruden River."),
            mk(1, "A reservoir supplies water to households."),
            mk(2, "Totally unrelated pottery statement."),
        ]

    def test_verbatim_match_ranks_first(self):
        claim = Claim(id=50, text="The Halvern Bridge was completed in 1977 and spans the Ruden River.")
        picked = select_fewshot(claim, FewshotPool(self._train()), 3)
        assert picked[0].id == 0

    def test_same_id_same_text_excluded(self):
        train = self._train()
        picked = select_fewshot(train[0], FewshotPool(train), 3)
        assert all(c.id != 0 for c in picked)

    def test_same_id_different_text_kept(self):
        claim = Claim(id=0, text="bridge completed 1977")
        picked = select_fewshot(claim, FewshotPool(self._train()), 3)
        assert any(c.id == 0 for c in picked)

    def test_zero_score_candidates_dropped(self):
        claim = Claim(id=9, text="zyxxyq")
        assert select_fewshot(claim, FewshotPool(self._train()), 3) == []

    def test_count_zero_or_empty_train(self):
        claim = Claim(id=9, text="bridge")
        assert select_fewshot(claim, FewshotPool(), 5) == []
        assert select_fewshot(claim, FewshotPool(self._train()), 0) == []

    def test_count_caps_results(self):
        claim = Claim(id=9, text="The bridge spans the river near households")
        assert len(select_fewshot(claim, FewshotPool(self._train()), 1)) == 1


def _reference_select_fewshot(claim, train_set, count):
    """Few-shot selection as done per claim before the shared index."""
    if count < 1 or not train_set:
        return []
    candidates = [
        c for c in train_set if not (c.id == claim.id and c.text == claim.text)
    ]
    if not candidates:
        return []
    tokenized = [tokenize(c.text) for c in candidates]
    if all(not t for t in tokenized):
        return []
    query = tokenize(claim.text)
    if not query:
        return []
    index = build_index(tokenized, terms=query)
    ranked = bm25_top(index, query, count)
    return [candidates[ordinal] for ordinal, _score in ranked]


def _random_text(rng, vocab):
    if rng.random() < 0.1:
        return rng.choice(["?!", "--", "..."])  # no tokens
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 9))).capitalize() + "."


class TestFewshotPoolOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_shared_index_matches_per_claim_reference(self, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(rng.randint(2, 30))]
        train = [
            Claim(id=rng.randint(0, 12), text=_random_text(rng, vocab))
            for _ in range(rng.randint(1, 40))
        ]
        if rng.random() < 0.3:
            train += train[: rng.randint(1, 3)]  # duplicated entries
        queries = rng.sample(train, min(5, len(train)))  # claims in their own train set
        queries += [Claim(id=c.id, text=_random_text(rng, vocab)) for c in queries]
        queries += [Claim(id=100 + i, text=_random_text(rng, vocab)) for i in range(5)]
        pool = FewshotPool(train)
        for claim in queries:
            for count in (1, 3, len(train) + 5):
                got = select_fewshot(claim, pool, count)
                want = _reference_select_fewshot(claim, train, count)
                assert [id(c) for c in got] == [id(c) for c in want]

    def test_edge_pools_match_reference(self):
        lone = Claim(id=1, text="bridge river")
        blank = [Claim(id=i, text="?!") for i in range(3)]
        cases = [
            ([lone], lone),  # the only candidate is the claim itself
            ([lone, Claim(id=1, text="?!")], lone),  # the rest has no tokens
            (blank, Claim(id=9, text="bridge")),
            ([lone], Claim(id=9, text="?!")),  # query without tokens
            ([lone], Claim(id=1, text="river bridge")),  # same id, other text
        ]
        for train, claim in cases:
            got = select_fewshot(claim, FewshotPool(train), 10)
            assert got == _reference_select_fewshot(claim, train, 10)

    def test_claim_out_of_pool_scans_no_claim(self):
        class NoScan(tuple):
            def __iter__(self):
                raise AssertionError("pool.claims iterated")

        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(30)]
        train = [Claim(id=i, text=_random_text(rng, vocab)) for i in range(50)]
        pool = FewshotPool(train)
        select_fewshot(train[0], pool, 3)  # builds the shared index
        pool.claims = NoScan(pool.claims)
        for i in range(10):
            claim = Claim(id=i, text=_random_text(rng, vocab) + " w0")
            got = select_fewshot(claim, pool, 3)
            assert [id(c) for c in got] == [
                id(c) for c in _reference_select_fewshot(claim, train, 3)
            ]

    def test_workers_share_one_index(self, monkeypatch):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(40)]
        train = [Claim(id=i, text=_random_text(rng, vocab)) for i in range(200)]
        queries = [Claim(id=500 + i, text=_random_text(rng, vocab)) for i in range(16)]
        expected = [_reference_select_fewshot(q, train, 5) for q in queries]
        builds = []
        real_build = generator.build_index
        monkeypatch.setattr(
            generator, "build_index", lambda *a, **k: builds.append(1) or real_build(*a, **k)
        )
        pool = FewshotPool(train)
        barrier = threading.Barrier(8)
        results = [None] * len(queries)
        errors = []

        def work(worker):
            try:
                barrier.wait(timeout=10)
                for n in range(worker, len(queries), 8):
                    results[n] = select_fewshot(queries[n], pool, 5)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(builds) == 1
        assert results == expected


class TestCoerceLabel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Supported", VeracityLabel.SUPPORTED),
            ("Supported claim", VeracityLabel.SUPPORTED),
            ("supported.", VeracityLabel.SUPPORTED),
            ("Refuted Claim", VeracityLabel.REFUTED),
            ("refuted", VeracityLabel.REFUTED),
            ("Not enough evidence", VeracityLabel.NOT_ENOUGH_EVIDENCE),
            ("Not Enough Evidence", VeracityLabel.NOT_ENOUGH_EVIDENCE),
            ("Conflicting Evidence/Cherrypicking", VeracityLabel.CONFLICTING),
            ("Conflicting evidence/cherrypicking claim", VeracityLabel.CONFLICTING),
            ("conflicting evidence", VeracityLabel.CONFLICTING),
            ("Cherrypicking", VeracityLabel.CONFLICTING),
        ],
    )
    def test_accepted_phrasings(self, raw, expected):
        assert coerce_label(raw) is expected

    @pytest.mark.parametrize("raw", ["True", "mostly false", "", "claim"])
    def test_rejected(self, raw):
        with pytest.raises(GenerationParseError):
            coerce_label(raw)


class TestParseOutput:
    def test_happy_path(self):
        out = parse_output(_reply(questions=[GOOD_QUESTION]), 3, CFG)
        assert out.verdict is VeracityLabel.REFUTED
        assert out.ratings[VeracityLabel.REFUTED] == 5
        assert out.evidence == (
            EvidenceQA(
                question="Who confirmed it?",
                answer="The water board.",
                source_rank=1,
                answer_type=AnswerType.EXTRACTIVE,
            ),
        )
        assert out.parse_warnings == ()

    def test_json_embedded_in_prose(self):
        raw = "Sure! Here is my analysis:\n" + _reply(questions=[GOOD_QUESTION]) + "\nHope that helps."
        out = parse_output(raw, 3, CFG)
        assert out.verdict is VeracityLabel.REFUTED

    def test_code_fence_wrapper(self):
        raw = "```json\n" + _reply(questions=[GOOD_QUESTION]) + "\n```"
        assert parse_output(raw, 3, CFG).verdict is VeracityLabel.REFUTED

    def test_integer_and_float_ratings_accepted(self):
        ratings = {
            "Supported": 1,
            "Refuted": 5.0,
            "Not Enough Evidence": "2",
            "Conflicting Evidence/Cherrypicking": "about 3",
        }
        out = parse_output(_reply(ratings=ratings), 1, CFG)
        assert out.ratings == {
            VeracityLabel.SUPPORTED: 1,
            VeracityLabel.REFUTED: 5,
            VeracityLabel.NOT_ENOUGH_EVIDENCE: 2,
            VeracityLabel.CONFLICTING: 3,
        }

    def test_missing_verdict_is_hard_error(self):
        with pytest.raises(GenerationParseError):
            parse_output(_reply(drop_verdict=True), 1, CFG)

    def test_missing_ratings_is_hard_error(self):
        with pytest.raises(GenerationParseError):
            parse_output(_reply(drop_ratings=True), 1, CFG)

    def test_out_of_scale_rating_is_hard_error(self):
        ratings = {
            "Supported": "0",
            "Refuted": "5",
            "Not Enough Evidence": "1",
            "Conflicting Evidence/Cherrypicking": "1",
        }
        with pytest.raises(GenerationParseError):
            parse_output(_reply(ratings=ratings), 1, CFG)

    def test_incomplete_ratings_is_hard_error(self):
        ratings = {"Supported": "5", "Refuted": "1"}
        with pytest.raises(GenerationParseError):
            parse_output(_reply(ratings=ratings), 1, CFG)

    def test_no_json_at_all(self):
        with pytest.raises(GenerationParseError) as exc:
            parse_output("I cannot answer that.", 1, CFG)
        assert exc.value.raw_text == "I cannot answer that."

    def test_unknown_rating_key_warned_not_fatal(self):
        ratings = {
            "Supported": "1",
            "Refuted": "5",
            "Not Enough Evidence": "1",
            "Conflicting Evidence/Cherrypicking": "1",
            "Mostly True": "4",
        }
        out = parse_output(_reply(ratings=ratings), 1, CFG)
        assert any("Mostly True" in w for w in out.parse_warnings)

    def test_out_of_range_citation_warned_and_kept(self):
        q = dict(GOOD_QUESTION, source="7")
        out = parse_output(_reply(questions=[q]), 2, CFG)
        assert out.evidence[0].source_rank == 7
        assert any("citation out of range" in w for w in out.parse_warnings)
        assert any("not in 1..2" in w for w in out.parse_warnings)

    def test_source_rank_parsed_from_text(self):
        q = dict(GOOD_QUESTION, source="Source ID: 2")
        out = parse_output(_reply(questions=[q]), 3, CFG)
        assert out.evidence[0].source_rank == 2

    def test_garbled_source_warned_rank_zero(self):
        q = dict(GOOD_QUESTION, source=None)
        out = parse_output(_reply(questions=[q]), 3, CFG)
        assert out.evidence[0].source_rank == 0
        assert any("unparseable source reference" in w for w in out.parse_warnings)
        assert any("citation out of range" in w for w in out.parse_warnings)

    def test_unknown_answer_type_coerced(self):
        q = dict(GOOD_QUESTION, answer_type="Opinion")
        out = parse_output(_reply(questions=[q]), 3, CFG)
        assert out.evidence[0].answer_type is AnswerType.ABSTRACTIVE
        assert any("coerced to Abstractive" in w for w in out.parse_warnings)

    def test_too_many_questions_truncated(self):
        qs = [dict(GOOD_QUESTION, question=f"Q{i}?") for i in range(5)]
        out = parse_output(_reply(questions=qs), 3, GeneratorConfig(l=2))
        assert len(out.evidence) == 2
        assert [e.question for e in out.evidence] == ["Q0?", "Q1?"]
        assert any("truncated" in w for w in out.parse_warnings)

    def test_empty_question_or_answer_skipped(self):
        qs = [
            dict(GOOD_QUESTION, question="  "),
            dict(GOOD_QUESTION, answer=""),
            GOOD_QUESTION,
        ]
        out = parse_output(_reply(questions=qs), 3, CFG)
        assert len(out.evidence) == 1
        assert sum("skipped" in w for w in out.parse_warnings) == 2

    def test_missing_questions_array_warned(self):
        out = parse_output(_reply(), 1, CFG)
        assert out.evidence == ()
        assert any("missing questions" in w for w in out.parse_warnings)

    def test_simplified_synthesizes_ratings(self):
        cfg = GeneratorConfig(simplified=True)
        raw = json.dumps(
            {
                "questions": [{"question": "Q?", "answer": "A.", "source": "1"}],
                "veracity_verdict": "Supported",
            }
        )
        out = parse_output(raw, 1, cfg)
        assert out.ratings[VeracityLabel.SUPPORTED] == 5
        assert all(
            out.ratings[l] == 1 for l in VeracityLabel if l is not VeracityLabel.SUPPORTED
        )
        assert out.evidence[0].answer_type is AnswerType.ABSTRACTIVE

    def test_simplified_uses_ratings_when_present(self):
        cfg = GeneratorConfig(simplified=True)
        out = parse_output(_reply(questions=[GOOD_QUESTION]), 1, cfg)
        assert out.ratings[VeracityLabel.REFUTED] == 5
        assert out.ratings[VeracityLabel.NOT_ENOUGH_EVIDENCE] == 2


class TestReplyReaders:
    """How parse_output reads a reply's source references, ratings and
    question array, value by value."""

    def _source(self, source):
        return parse_output(_reply(questions=[dict(GOOD_QUESTION, source=source)]), 3, CFG)

    @pytest.mark.parametrize("source, rank", [(2, 2), ("Source 3", 3), (2.0, 2)])
    def test_source_read(self, source, rank):
        out = self._source(source)
        assert out.evidence[0].source_rank == rank
        assert out.parse_warnings == ()

    @pytest.mark.parametrize("source", [True, None, "x"])
    def test_unparseable_source_warned_rank_zero(self, source):
        out = self._source(source)
        assert out.evidence[0].source_rank == 0
        assert out.parse_warnings == (
            f"unparseable source reference {source!r}",
            "citation out of range: source 0 not in 1..3",
        )

    def test_negative_source_kept_out_of_range(self):
        out = self._source("-1")
        assert out.evidence[0].source_rank == -1
        assert out.parse_warnings == ("citation out of range: source -1 not in 1..3",)

    def _ratings(self, **changes):
        ratings = {
            "Supported": 1,
            "Refuted": 5,
            "Not Enough Evidence": 1,
            "Conflicting Evidence/Cherrypicking": 1,
        }
        ratings.update(changes)
        return _reply(ratings={k: v for k, v in ratings.items() if v is not ...})

    @pytest.mark.parametrize("value", [4.0, "4 - Agree"])
    def test_rating_read(self, value):
        out = parse_output(self._ratings(Supported=value), 1, CFG)
        assert out.ratings[VeracityLabel.SUPPORTED] == 4
        assert type(out.ratings[VeracityLabel.SUPPORTED]) is int

    @pytest.mark.parametrize("value", [True, 4.5, None, "six"])
    def test_unreadable_rating_is_parse_error(self, value):
        raw = self._ratings(Supported=value)
        with pytest.raises(GenerationParseError) as exc:
            parse_output(raw, 1, CFG)
        assert str(exc.value) == "rating for Supported is not an integer in [1, 5]"
        assert exc.value.raw_text == raw

    @pytest.mark.parametrize("first, second", [(9, 2), (2, 9)])
    def test_out_of_scale_alias_rejected(self, first, second):
        # both keys name one label; either one out of scale rejects the reply
        raw = self._ratings(**{
            "Conflicting Evidence/Cherrypicking": ...,
            "Conflicting Evidence": first,
            "Cherrypicking": second,
        })
        with pytest.raises(GenerationParseError) as exc:
            parse_output(raw, 1, CFG)
        assert str(exc.value) == (
            "rating for Conflicting Evidence/Cherrypicking is not an integer in [1, 5]"
        )

    def test_missing_label_named(self):
        raw = self._ratings(**{"Not Enough Evidence": ...})
        with pytest.raises(GenerationParseError) as exc:
            parse_output(raw, 1, CFG)
        assert str(exc.value) == "ratings missing labels: ['Not Enough Evidence']"
        assert exc.value.raw_text == raw

    def test_questions_not_an_array_warned(self):
        out = parse_output(_reply(questions={}), 1, CFG)
        assert out.evidence == ()
        assert out.parse_warnings == ("questions field is not an array",)

    def test_non_object_question_skipped(self):
        out = parse_output(_reply(questions=["Who?", GOOD_QUESTION]), 1, CFG)
        assert [e.question for e in out.evidence] == ["Who confirmed it?"]
        assert out.parse_warnings == ("question 0 is not an object, skipped",)


# longer than the 4,300 digits int() converts from a string
LONG_DIGITS = "9" * 5000


class TestOverlongReplies:
    """Replies no integer or JSON reader can convert are parse outcomes,
    never a builtin exception."""

    def test_overlong_source_string_warned_rank_zero(self):
        out = parse_output(_reply(questions=[dict(GOOD_QUESTION, source=LONG_DIGITS)]), 3, CFG)
        assert out.evidence[0].source_rank == 0
        assert out.parse_warnings == (
            f"unparseable source reference {LONG_DIGITS!r}",
            "citation out of range: source 0 not in 1..3",
        )

    def test_overlong_rating_string_is_parse_error(self):
        raw = TestReplyReaders()._ratings(Supported=LONG_DIGITS)
        with pytest.raises(GenerationParseError) as exc:
            parse_output(raw, 1, CFG)
        assert str(exc.value) == "rating for Supported is not an integer in [1, 5]"

    def test_overlong_bare_number_skips_that_object(self):
        raw = _reply(questions=[dict(GOOD_QUESTION, source=0)])
        raw = raw.replace('"source": 0', f'"source": {LONG_DIGITS}')
        with pytest.raises(GenerationParseError) as exc:
            parse_output(raw, 1, CFG)
        assert exc.value.raw_text == raw
        # a good object after it is still found
        out = parse_output(f'{{"n": {LONG_DIGITS}}} ' + _reply(questions=[GOOD_QUESTION]), 1, CFG)
        assert out.verdict is VeracityLabel.REFUTED
        assert [e.question for e in out.evidence] == ["Who confirmed it?"]

    @pytest.mark.parametrize(
        "nested", ['{"a": ' * 50_000, '{"a": ' + "[" * 50_000], ids=["objects", "arrays"]
    )
    def test_too_deeply_nested_is_parse_error(self, nested):
        with pytest.raises(GenerationParseError) as exc:
            parse_output(nested, 1, CFG)
        assert str(exc.value) == "model output is nested too deeply to parse"


class TestSerializeRoundTrip:
    def test_round_trip_preserves_fields(self):
        original = parse_output(_reply(questions=[GOOD_QUESTION]), 3, CFG)
        again = parse_output(serialize_output(original), 3, CFG)
        assert again.evidence == original.evidence
        assert again.ratings == original.ratings
        assert again.verdict == original.verdict

    def test_serialized_form_is_json(self):
        out = parse_output(_reply(questions=[GOOD_QUESTION]), 3, CFG)
        obj = json.loads(serialize_output(out))
        assert obj["veracity_verdict"] == "Refuted"
        assert obj["claim_veracity"]["Refuted"] == "5"


class TestMockChatProvider:
    def test_replays_in_order_and_exhausts(self):
        provider = MockChatProvider({"3": ["first", "second"]})
        assert provider.complete("s", "u", 3) == "first"
        assert provider.complete("s", "u", 3) == "second"
        with pytest.raises(ProviderError):
            provider.complete("s", "u", 3)

    def test_unknown_claim_errors(self):
        provider = MockChatProvider({})
        with pytest.raises(ProviderError):
            provider.complete("s", "u", 1)

    def test_from_file_validation(self, tmp_path):
        good = tmp_path / "script.json"
        good.write_text(json.dumps({"0": ["reply"]}))
        MockChatProvider.from_file(str(good))

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(["not", "a", "dict"]))
        with pytest.raises(ValidationError):
            MockChatProvider.from_file(str(bad))

        bad.write_text(json.dumps({"0": "not a list"}))
        with pytest.raises(ValidationError):
            MockChatProvider.from_file(str(bad))

    def test_thread_safe_consumption(self):
        provider = MockChatProvider({"0": [f"r{i}" for i in range(40)]})
        got, errors = [], []
        lock = threading.Lock()

        def worker():
            for _ in range(10):
                try:
                    r = provider.complete("s", "u", 0)
                    with lock:
                        got.append(r)
                except ProviderError:
                    with lock:
                        errors.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 40
        assert len(set(got)) == 40
        assert not errors


class TestHttpChatProvider:
    def _cfg(self, base_url, **kw):
        defaults = dict(
            kind="http",
            base_url=base_url,
            model_name="chat-1",
            api_key_env="TEST_CHAT_KEY",
            transport_retries=0,
        )
        defaults.update(kw)
        return GeneratorConfig(**defaults)

    def test_missing_key_fails_before_network(self, monkeypatch):
        monkeypatch.delenv("TEST_CHAT_KEY", raising=False)
        with pytest.raises(ConfigError) as exc:
            HttpChatProvider(self._cfg("http://127.0.0.1:1"))
        assert "TEST_CHAT_KEY" in str(exc.value)

    def test_completion_request_shape(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-chat-secret")
        seen = {}

        def app(path, body, headers):
            seen["path"] = path
            seen["body"] = body
            seen["auth"] = headers.get("Authorization")
            seen["type"] = headers.get("Content-Type")
            return 200, {"choices": [{"message": {"content": "the reply"}}]}

        server.app = app
        provider = HttpChatProvider(self._cfg(base_url))
        reply = provider.complete("SYSTEM", "USER", 0)
        assert reply == "the reply"
        assert seen["path"].endswith("/chat/completions")
        assert seen["auth"] == "Bearer sk-chat-secret"
        assert seen["type"] == "application/json"
        assert seen["body"]["messages"] == [
            {"role": "system", "content": "SYSTEM"},
            {"role": "user", "content": "USER"},
        ]
        assert "temperature" not in seen["body"]

    def test_temperature_forwarded_when_set(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        seen = {}

        def app(path, body, headers):
            seen.update(body)
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        server.app = app
        HttpChatProvider(self._cfg(base_url, temperature=0.2)).complete("s", "u", 0)
        assert seen["temperature"] == 0.2

    def test_retry_then_success(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        attempts = []

        def app(path, body, headers):
            attempts.append(1)
            if len(attempts) < 3:
                return 500, {"error": "flaky"}
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        server.app = app
        provider = HttpChatProvider(self._cfg(base_url, transport_retries=3))
        assert provider.complete("s", "u", 0) == "ok"
        assert len(attempts) == 3

    def test_client_error_not_retried(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        attempts = []

        def app(path, body, headers):
            attempts.append(1)
            return 401, {"error": "denied"}

        server.app = app
        provider = HttpChatProvider(self._cfg(base_url, transport_retries=3))
        with pytest.raises(ProviderError) as exc:
            provider.complete("s", "u", 0)
        assert len(attempts) == 1
        assert "401" in str(exc.value)

    def test_rate_limit_retried(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        attempts = []

        def app(path, body, headers):
            attempts.append(1)
            if len(attempts) == 1:
                return 429, {"error": "slow down"}
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        server.app = app
        provider = HttpChatProvider(self._cfg(base_url, transport_retries=3))
        assert provider.complete("s", "u", 0) == "ok"
        assert len(attempts) == 2

    def test_failure_does_not_leak_key(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-chat-secret")
        monkeypatch.setattr("claimcheck.errors.time.sleep", lambda s: None)
        server.app = lambda path, body, headers: (401, {"error": "denied"})
        provider = HttpChatProvider(self._cfg(base_url, transport_retries=1))
        with pytest.raises(ProviderError) as exc:
            provider.complete("s", "u", 0)
        assert "sk-chat-secret" not in str(exc.value)

    def test_malformed_success_body(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        server.app = lambda path, body, headers: (200, {"choices": []})
        with pytest.raises(ProviderError):
            HttpChatProvider(self._cfg(base_url)).complete("s", "u", 0)

    def test_too_deeply_nested_body_is_provider_error(self, stub_server, monkeypatch):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        server.app = lambda path, body, headers: (200, b"[" * 200_000)
        with pytest.raises(ProviderError) as exc:
            HttpChatProvider(self._cfg(base_url)).complete("s", "u", 0)
        assert str(exc.value).startswith("chat response is not JSON: ")

    @pytest.mark.parametrize(
        "content, type_name", [(None, "NoneType"), (5, "int"), (0.5, "float")]
    )
    def test_non_string_content_is_provider_error(
        self, stub_server, monkeypatch, content, type_name
    ):
        server, base_url = stub_server
        monkeypatch.setenv("TEST_CHAT_KEY", "k")
        server.app = lambda path, body, headers: (
            200, {"choices": [{"message": {"content": content}}]}
        )
        with pytest.raises(ProviderError) as exc:
            HttpChatProvider(self._cfg(base_url)).complete("s", "u", 0)
        assert f"content is {type_name}, not a string" in str(exc.value)

    def test_factory_requires_script_for_mock(self):
        with pytest.raises(ConfigError):
            make_chat_provider(GeneratorConfig(kind="mock", script_path=None))


class TestRunGeneration:
    def _claim(self):
        return Claim(id=4, text="Some checkable statement about a festival.")

    def test_empty_retrieval_short_circuits(self):
        out = run_generation(self._claim(), [], FewshotPool(), CFG, provider=None)
        assert out.verdict is VeracityLabel.NOT_ENOUGH_EVIDENCE
        assert out.ratings[VeracityLabel.NOT_ENOUGH_EVIDENCE] == 5
        assert all(
            out.ratings[l] == 1
            for l in VeracityLabel
            if l is not VeracityLabel.NOT_ENOUGH_EVIDENCE
        )
        assert out.evidence == ()

    def test_retry_recovers_and_tags_warning(self):
        provider = MockChatProvider(
            {"4": ["complete garbage", _reply(questions=[GOOD_QUESTION])]}
        )
        out = run_generation(self._claim(), [_source(1)], FewshotPool(), CFG, provider=provider)
        assert out.verdict is VeracityLabel.REFUTED
        assert "retry_count 1" in out.parse_warnings

    def test_exhausted_retries_raise_with_raw_text(self):
        cfg = GeneratorConfig(max_retries=2)
        provider = MockChatProvider({"4": ["bad one", "bad two", "bad three"]})
        with pytest.raises(GenerationParseError) as exc:
            run_generation(self._claim(), [_source(1)], FewshotPool(), cfg, provider=provider)
        assert exc.value.raw_text == "bad three"

    def test_no_retry_budget_consumed_on_success(self):
        provider = MockChatProvider({"4": [_reply(questions=[GOOD_QUESTION])]})
        out = run_generation(self._claim(), [_source(1)], FewshotPool(), CFG, provider=provider)
        assert not any(w.startswith("retry_count") for w in out.parse_warnings)


class TestPredictionRecord:
    def test_urls_resolved_from_ranks(self):
        claim = Claim(id=2, text="c")
        sources = [_source(1, url="https://a"), _source(2, url="https://b")]
        output = GeneratorOutput(
            evidence=(
                EvidenceQA("Q1?", "A1.", 2, AnswerType.EXTRACTIVE),
                EvidenceQA("Q2?", "A2.", 9, AnswerType.BOOLEAN),
            ),
            ratings={l: 1 for l in VeracityLabel} | {VeracityLabel.SUPPORTED: 5},
            verdict=VeracityLabel.SUPPORTED,
        )
        record = prediction_record(claim, sources, output)
        assert record["claim_id"] == 2
        assert record["evidence"][0]["source_url"] == "https://b"
        assert record["evidence"][1]["source_url"] == ""
        assert record["verdict"] == "Supported"
        assert record["ratings"]["Supported"] == 5

    def test_final_verdict_override(self):
        claim = Claim(id=2, text="c")
        output = empty_retrieval_output()
        record = prediction_record(claim, [], output, final_verdict=VeracityLabel.REFUTED)
        assert record["verdict"] == "Refuted"

    def test_record_is_json_serializable(self):
        claim = Claim(id=0, text="c")
        record = prediction_record(claim, [], empty_retrieval_output())
        json.dumps(record)
