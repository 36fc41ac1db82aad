import itertools
import json
import math

import pytest

from claimcheck.corpus import VeracityLabel
from claimcheck.errors import ConfigError, ValidationError
from claimcheck.verdict import (
    LABEL_TIE_ORDER,
    ensemble,
    EnsembleConfig,
    final_label,
    likert_softmax,
    load_external_probs,
    single_label_ratings,
    softmax,
    validate_distribution,
    validate_ratings,
)

S = VeracityLabel.SUPPORTED
R = VeracityLabel.REFUTED
N = VeracityLabel.NOT_ENOUGH_EVIDENCE
C = VeracityLabel.CONFLICTING


def _ratings(s, r, n, c):
    return {S: s, R: r, N: n, C: c}


class TestValidateRatings:
    def test_good(self):
        validate_ratings({l: 3 for l in VeracityLabel})

    def test_bad(self):
        with pytest.raises(ValidationError):
            validate_ratings({l: 3 for l in list(VeracityLabel)[:3]})
        bad = {l: 3 for l in VeracityLabel}
        bad[VeracityLabel.SUPPORTED] = 6
        with pytest.raises(ValidationError):
            validate_ratings(bad)
        bad[VeracityLabel.SUPPORTED] = True
        with pytest.raises(ValidationError):
            validate_ratings(bad)


    def test_other_keys_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_ratings({l: 3 for l in VeracityLabel} | {"Mostly True": 3})
        assert str(exc.value) == "ratings must cover exactly the four veracity labels"


class TestSingleLabelRatings:
    @pytest.mark.parametrize("label", list(VeracityLabel))
    def test_five_for_the_label_one_for_the_rest(self, label):
        ratings = single_label_ratings(label)
        validate_ratings(ratings)
        assert ratings == {l: 5 if l is label else 1 for l in VeracityLabel}


class TestSoftmax:
    def test_uniform(self):
        assert softmax([2.0, 2.0, 2.0, 2.0]) == [0.25] * 4

    def test_sums_to_one(self):
        out = softmax([1.0, 3.0, 5.0, 2.0])
        assert abs(sum(out) - 1.0) < 1e-12

    def test_order_preserving(self):
        out = softmax([1.0, 4.0, 2.0])
        assert out[1] > out[2] > out[0]


class TestLikertSoftmax:
    def test_pinned_example(self):
        # ratings S=2 R=5 C=4 N=2 give p(Refuted) ~= 0.6814525
        p = likert_softmax(_ratings(2, 5, 2, 4))
        assert abs(p[R] - 0.6814525618085748) < 1e-12
        assert abs(p[R] - 0.681) < 1e-3

    def test_full_grid_matches_direct_formula(self):
        # all 625 rating combinations against an independent computation
        for s, r, n, c in itertools.product(range(1, 6), repeat=4):
            p = likert_softmax(_ratings(s, r, n, c))
            z = math.exp(s) + math.exp(r) + math.exp(n) + math.exp(c)
            assert abs(p[S] - math.exp(s) / z) < 1e-12
            assert abs(p[R] - math.exp(r) / z) < 1e-12
            assert abs(p[N] - math.exp(n) / z) < 1e-12
            assert abs(p[C] - math.exp(c) / z) < 1e-12
            assert abs(sum(p.values()) - 1.0) < 1e-9

    def test_equal_ratings_uniform(self):
        p = likert_softmax(_ratings(3, 3, 3, 3))
        assert all(abs(v - 0.25) < 1e-12 for v in p.values())

    def test_invalid_ratings_rejected(self):
        with pytest.raises(ValidationError):
            likert_softmax(_ratings(0, 5, 1, 1))
        with pytest.raises(ValidationError):
            likert_softmax({S: 5, R: 1, N: 1})


class TestValidateDistribution:
    def test_good(self):
        validate_distribution({S: 0.25, R: 0.25, N: 0.25, C: 0.25})

    def test_bad_sum(self):
        with pytest.raises(ValidationError):
            validate_distribution({S: 0.5, R: 0.5, N: 0.5, C: 0.5})

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            validate_distribution({S: 1.5, R: -0.5, N: 0.0, C: 0.0})

    def test_missing_label(self):
        with pytest.raises(ValidationError):
            validate_distribution({S: 0.5, R: 0.5})


class TestEnsemble:
    def test_pointwise_average(self):
        p_llm = {S: 0.7, R: 0.1, N: 0.1, C: 0.1}
        p_ext = {S: 0.1, R: 0.7, N: 0.1, C: 0.1}
        out = ensemble(p_llm, p_ext, EnsembleConfig(weight_external=0.5))
        assert abs(out[S] - 0.4) < 1e-12
        assert abs(out[R] - 0.4) < 1e-12
        assert abs(out[N] - 0.1) < 1e-12

    @pytest.mark.parametrize("w", [0.5, 0.3, 0.1])
    def test_preset_weights(self, w):
        p_llm = {S: 1.0, R: 0.0, N: 0.0, C: 0.0}
        p_ext = {S: 0.0, R: 1.0, N: 0.0, C: 0.0}
        out = ensemble(p_llm, p_ext, EnsembleConfig(weight_external=w))
        assert abs(out[S] - (1.0 - w)) < 1e-12
        assert abs(out[R] - w) < 1e-12

    def test_weight_zero_keeps_llm(self):
        p_llm = likert_softmax(_ratings(2, 5, 2, 4))
        p_ext = {S: 0.25, R: 0.25, N: 0.25, C: 0.25}
        out = ensemble(p_llm, p_ext, EnsembleConfig(weight_external=0.0))
        assert out == p_llm

    def test_result_is_valid_distribution(self):
        p_llm = likert_softmax(_ratings(1, 5, 3, 2))
        p_ext = {S: 0.4, R: 0.3, N: 0.2, C: 0.1}
        out = ensemble(p_llm, p_ext, EnsembleConfig(weight_external=0.3))
        validate_distribution(out)

    def test_invalid_inputs_rejected(self):
        good = {S: 0.25, R: 0.25, N: 0.25, C: 0.25}
        with pytest.raises(ValidationError):
            ensemble({S: 1.0, R: 1.0, N: 0.0, C: 0.0}, good, EnsembleConfig())

    def test_weight_range(self):
        with pytest.raises(ConfigError):
            EnsembleConfig(weight_external=1.2)


class TestFinalLabel:
    def test_plain_argmax(self):
        p = likert_softmax(_ratings(2, 5, 2, 4))
        assert final_label(p, llm_verdict=S) is R

    def test_exact_tie_prefers_llm_verdict(self):
        p = {S: 0.4, R: 0.4, N: 0.1, C: 0.1}
        assert final_label(p, llm_verdict=R) is R
        assert final_label(p, llm_verdict=S) is S

    def test_tie_without_llm_uses_fixed_order(self):
        p = {S: 0.1, R: 0.4, N: 0.4, C: 0.1}
        # llm verdict not among the tied labels; order prefers Refuted over NEE
        assert final_label(p, llm_verdict=S) is R

    def test_four_way_tie(self):
        p = {S: 0.25, R: 0.25, N: 0.25, C: 0.25}
        assert final_label(p, llm_verdict=C) is C
        # order is Supported, Refuted, Conflicting, Not Enough Evidence
        assert LABEL_TIE_ORDER[0] is S

    def test_conflicting_before_nee_in_order(self):
        p = {S: 0.1, R: 0.1, N: 0.4, C: 0.4}
        assert final_label(p, llm_verdict=S) is C


class TestLoadExternalProbs:
    def _write(self, tmp_path, data):
        path = tmp_path / "probs.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _entry(self, cid, s=0.25, r=0.25, n=0.25, c=0.25):
        return {
            "claim_id": cid,
            "probs": {
                "Supported": s,
                "Refuted": r,
                "Not Enough Evidence": n,
                "Conflicting Evidence/Cherrypicking": c,
            },
        }

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, [self._entry(0), self._entry(3, 0.7, 0.1, 0.1, 0.1)])
        probs = load_external_probs(path)
        assert set(probs.keys()) == {0, 3}
        assert abs(probs[3][S] - 0.7) < 1e-12
        validate_distribution(probs[0])

    def test_duplicate_claim_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._entry(1), self._entry(1)])
        with pytest.raises(ValidationError):
            load_external_probs(path)

    def test_missing_label_rejected(self, tmp_path):
        entry = self._entry(0)
        del entry["probs"]["Refuted"]
        path = self._write(tmp_path, [entry])
        with pytest.raises(ValidationError):
            load_external_probs(path)

    def test_bad_sum_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._entry(0, 0.9, 0.9, 0.1, 0.1)])
        with pytest.raises(ValidationError) as exc:
            load_external_probs(path)
        assert "element 0" in str(exc.value)

    def test_not_array_rejected(self, tmp_path):
        path = self._write(tmp_path, {"claim_id": 0})
        with pytest.raises(ValidationError):
            load_external_probs(path)

    def test_probs_not_an_object_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._entry(0), {"claim_id": 1, "probs": [0.25] * 4}])
        with pytest.raises(ValidationError) as exc:
            load_external_probs(path)
        assert str(exc.value) == f"{path}: element 1: probs must be an object, got an array"


class TestEndToEndVerdictPath:
    def test_ratings_to_label_with_ensemble(self):
        # LLM leans Refuted; external leans Supported strongly enough at w=0.5
        p_llm = likert_softmax(_ratings(2, 5, 2, 4))
        p_ext = {S: 0.97, R: 0.01, N: 0.01, C: 0.01}
        cfg = EnsembleConfig(weight_external=0.5)
        mixed = ensemble(p_llm, p_ext, cfg)
        assert final_label(mixed, llm_verdict=R) is S
        # at w=0.1 the LLM opinion dominates again
        mixed_low = ensemble(p_llm, p_ext, EnsembleConfig(weight_external=0.1))
        assert final_label(mixed_low, llm_verdict=R) is R
