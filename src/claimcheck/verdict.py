"""Likert ratings to label probabilities, ensembling, final label choice.

The generator's per-label agreement ratings, an integer in [1, 5] for each
of the four labels (checked here), become a distribution via softmax.
Optionally that distribution is averaged with probabilities from an
external classifier supplied as a file; the final label is the argmax
with deterministic tie handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import (
    VeracityLabel,
    claim_id_field,
    json_type,
    load_json_objects,
    require_distinct_ids,
)
from .errors import ConfigError, ValidationError

_SUM_TOL = 1e-9

# Order used when probability ties must be broken without an LLM preference.
LABEL_TIE_ORDER = [VeracityLabel.SUPPORTED, VeracityLabel.REFUTED,
                   VeracityLabel.CONFLICTING, VeracityLabel.NOT_ENOUGH_EVIDENCE]


@dataclass(frozen=True)
class EnsembleConfig:
    """Blend of the LLM's distribution with an external classifier's.

    weight_external presets used in practice: 0.5, 0.3, 0.1. probs_path
    names the file of per-claim external probabilities (see
    load_external_probs); without one, nothing is blended.
    """

    weight_external: float = 0.5
    probs_path: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.weight_external <= 1.0:
            raise ConfigError("weight_external must be in [0, 1]")


def check_rating(label: VeracityLabel, value) -> int:
    """value, which must be a Likert rating: a non-boolean integer in [1, 5]."""
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= 5:
        raise ValidationError(f"rating for {label.value} is not an integer in [1, 5]")
    return value


def validate_ratings(ratings: dict) -> None:
    """Raise a ValidationError unless ratings rates exactly the four labels."""
    missing = [label.value for label in VeracityLabel if label not in ratings]
    if missing:
        raise ValidationError(f"ratings missing labels: {missing}")
    if len(ratings) != len(VeracityLabel):
        raise ValidationError("ratings must cover exactly the four veracity labels")
    for label, value in ratings.items():
        check_rating(label, value)


def single_label_ratings(label: VeracityLabel) -> dict:
    """Ratings that fully agree with label (5) and with no other (1)."""
    return {other: 5 if other is label else 1 for other in VeracityLabel}


def softmax(values: list[float]) -> list[float]:
    exps = [math.exp(v) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def validate_distribution(p: dict) -> None:
    if set(p.keys()) != set(VeracityLabel):
        raise ValidationError("distribution must cover exactly the four labels")
    total = 0.0
    for label, prob in p.items():
        if not 0.0 <= prob <= 1.0:
            raise ValidationError(
                f"probability for {label.value} out of [0, 1]: {prob}"
            )
        total += prob
    if abs(total - 1.0) > _SUM_TOL:
        raise ValidationError(f"distribution sums to {total}, expected 1")


def likert_softmax(ratings: dict) -> dict:
    """p(label) = exp(rating) / sum of exp(ratings)."""
    validate_ratings(ratings)
    labels = list(LABEL_TIE_ORDER)
    probs = softmax([float(ratings[label]) for label in labels])
    return dict(zip(labels, probs))


def ensemble(p_llm: dict, p_ext: dict, cfg: EnsembleConfig) -> dict:
    """Pointwise weighted average: w*external + (1-w)*llm."""
    validate_distribution(p_llm)
    validate_distribution(p_ext)
    w = cfg.weight_external
    return {
        label: w * p_ext[label] + (1.0 - w) * p_llm[label] for label in VeracityLabel
    }


def final_label(p: dict, llm_verdict: VeracityLabel) -> VeracityLabel:
    """Argmax with ties going to the LLM's own verdict when it is tied,
    else to the first tied label in the fixed order Supported, Refuted,
    Conflicting Evidence/Cherrypicking, Not Enough Evidence."""
    validate_distribution(p)
    best = max(p.values())
    tied = [label for label in LABEL_TIE_ORDER if p[label] == best]
    if llm_verdict in tied:
        return llm_verdict
    return tied[0]


def load_external_probs(path: str) -> dict[int, dict]:
    """Load per-claim label distributions from an external classifier file.

    The file is a JSON array of {"claim_id": int, "probs": {label: p}}
    covering all four labels, one entry per claim.
    """
    entries = load_json_objects(path, "probabilities", _probs_from_json)
    require_distinct_ids(path, (claim_id for claim_id, _ in entries))
    return dict(entries)


def _probs_from_json(_pos: int, item: dict) -> tuple[int, dict]:
    claim_id = claim_id_field(item)
    raw = item["probs"]
    if not isinstance(raw, dict):
        raise ValidationError(f"probs must be an object, got {json_type(raw)}")
    probs = {}
    for label in VeracityLabel:
        value = raw[label.value]
        if type(value) not in (int, float):
            raise ValidationError(
                f"probability of {label.value!r} must be a number, got {json_type(value)}"
            )
        probs[label] = float(value)
    validate_distribution(probs)
    return claim_id, probs
