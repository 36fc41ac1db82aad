"""Claim verification: retrieve evidence, generate verdicts, score them."""

from .corpus import (
    AnswerType,
    Chunk,
    Claim,
    Document,
    GoldQA,
    VeracityLabel,
    chunk_document,
    load_dataset,
    load_knowledge_store,
    split_sentences,
)
from .dense import (
    EmbeddingCache,
    EmbeddingProviderConfig,
    VectorIndex,
    embed_batch,
    knn,
    mmr_select,
)
from .errors import (
    ClaimCheckError,
    ConfigError,
    GenerationParseError,
    ProviderError,
    ValidationError,
)
from .generator import (
    EvidenceQA,
    FewshotPool,
    GeneratorConfig,
    GeneratorOutput,
    build_prompt,
    parse_output,
    run_generation,
    select_fewshot,
    serialize_output,
)
from .lexical import bm25_top, build_index, tokenize
from .retriever import RetrievalConfig, RetrievalResult, RetrievedSource, retrieve
from .scoring import (
    ScoreReport,
    ScoringConfig,
    averitec_score,
    hu_meteor,
    hungarian_max,
    meteor_lite,
)
from .verdict import EnsembleConfig, ensemble, final_label, likert_softmax

__version__ = "0.1.0"
