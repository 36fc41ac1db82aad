import re
from pathlib import Path

import pytest

from claimcheck.config import DEFAULTS, load_app_config
from claimcheck.errors import ConfigError, ValidationError
from claimcheck.retriever import RetrievalConfig


def _load(config_path=None, env=None, overrides=None):
    return load_app_config(config_path, env or {}, overrides)


class TestDefaults:
    def test_default_values(self):
        cfg = _load()
        assert cfg.retrieval.max_chars == 2048
        assert cfg.retrieval.omega == 6000
        assert cfg.retrieval.pool_size == 40
        assert cfg.retrieval.k == 10
        assert cfg.retrieval.lambda_ == 0.75
        assert cfg.generator.l == 10
        assert cfg.generator.fewshot_count == 10
        assert cfg.generator.kind == "mock"
        assert cfg.embedding.kind == "mock"
        assert cfg.ensemble.weight_external == 0.5
        assert cfg.scoring.thresholds == (0.25,)
        assert cfg.paths.output_dir == "out"
        assert cfg.paths.dataset is None

    def test_defaults_table_is_not_mutated(self):
        before = DEFAULTS["retrieval"]["omega"]
        _load(overrides={"retrieval.omega": "123"})
        assert DEFAULTS["retrieval"]["omega"] == before

    def test_defaults_come_from_the_dataclasses(self):
        # keys drop a trailing underscore: RetrievalConfig.lambda_ is "lambda"
        assert DEFAULTS["retrieval"]["lambda"] == RetrievalConfig().lambda_
        assert "lambda_" not in DEFAULTS["retrieval"]
        assert sum(len(fields) for fields in DEFAULTS.values()) == 32


class TestFileLayer:
    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "retrieval:\n  omega: 500\n  lambda: 0.5\n"
            "generator:\n  simplified: true\n"
        )
        cfg = _load(str(path))
        assert cfg.retrieval.omega == 500
        assert cfg.retrieval.lambda_ == 0.5
        assert cfg.generator.simplified is True
        # untouched fields keep their defaults
        assert cfg.retrieval.k == 10

    def test_string_values_in_file_are_coerced(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text('retrieval:\n  omega: "750"\n')
        assert _load(str(path)).retrieval.omega == 750

    def test_threshold_list_in_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scoring:\n  thresholds: [0.1, 0.25, 0.5]\n")
        assert _load(str(path)).scoring.thresholds == (0.1, 0.25, 0.5)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("retrieval_opts:\n  omega: 1\n")
        with pytest.raises(ConfigError) as exc:
            _load(str(path))
        assert "unknown config section" in str(exc.value)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("retrieval:\n  omegaa: 1\n")
        with pytest.raises(ConfigError) as exc:
            _load(str(path))
        assert "retrieval.omegaa" in str(exc.value)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError) as exc:
            _load("/nonexistent/cfg.yaml")
        assert "not found" in str(exc.value)

    @pytest.mark.parametrize("fault", ["utf8", "directory"])
    def test_unreadable_file_rejected(self, tmp_path, fault):
        path = tmp_path / "cfg.yaml"
        if fault == "utf8":
            path.write_bytes(b"retrieval:\n  omega: \xff\n")
        else:
            path.mkdir()
        with pytest.raises(ConfigError) as exc:
            _load(str(path))
        assert f"config file cannot be read: {path}" in str(exc.value)

    def test_bad_yaml_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("retrieval: [unclosed\n")
        with pytest.raises(ConfigError):
            _load(str(path))

    def test_non_mapping_top_level_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            _load(str(path))

    def test_empty_file_is_fine(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        assert _load(str(path)).retrieval.omega == 6000

    @pytest.mark.parametrize(
        "text, field",
        [
            ("retrieval:\n  omega: [1, 2]\n", "retrieval.omega"),
            ("scoring:\n  thresholds: 0.5\n", "scoring.thresholds"),
            ("scoring:\n  thresholds: [0.5, true]\n", "scoring.thresholds"),
            ("retrieval:\n  k: 7.9\n", "retrieval.k"),
            ("retrieval:\n  k: null\n", "retrieval.k"),
            ("generator:\n  simplified: 1\n", "generator.simplified"),
            ("generator:\n  model_name: 4\n", "generator.model_name"),
        ],
    )
    def test_wrong_value_type_names_field(self, tmp_path, text, field):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            _load(str(path))
        assert str(exc.value).startswith(f"{field}: ")

    def test_int_serves_as_float(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("retrieval:\n  lambda: 1\n")
        lam = _load(str(path)).retrieval.lambda_
        assert lam == 1.0 and isinstance(lam, float)

    def test_null_leaves_optional_field_unset(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generator:\n  temperature: 0.5\n")
        assert _load(str(path)).generator.temperature == 0.5
        path.write_text("generator:\n  temperature: null\n")
        assert _load(str(path)).generator.temperature is None
        path.write_text("generator:\n  kind: http\n  base_url: null\n  model_name: m\n")
        with pytest.raises(ConfigError) as exc:
            _load(str(path))
        assert "requires base_url" in str(exc.value)

    def test_scoring_mode_is_unknown(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scoring:\n  mode: QA\n")
        with pytest.raises(ConfigError) as exc:
            _load(str(path))
        assert "unknown field scoring.mode" in str(exc.value)


class TestReadmeExample:
    def test_readme_yaml_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        cfg = _load(str(path))
        assert cfg.embedding.base_url == "https://api.example.com/v1"
        assert cfg.generator.base_url == "https://api.example.com/v1"
        assert cfg.scoring.thresholds == (0.25,)


class TestEnvLayer:
    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("retrieval:\n  omega: 500\n")
        cfg = _load(str(path), env={"CLAIMCHECK_RETRIEVAL_OMEGA": "700"})
        assert cfg.retrieval.omega == 700

    def test_env_bool_words(self):
        for word, want in [("yes", True), ("on", True), ("0", False), ("FALSE", False)]:
            cfg = _load(env={"CLAIMCHECK_GENERATOR_SIMPLIFIED": word})
            assert cfg.generator.simplified is want

    def test_env_bad_bool_rejected(self):
        with pytest.raises(ConfigError) as exc:
            _load(env={"CLAIMCHECK_GENERATOR_SIMPLIFIED": "maybe"})
        assert "generator.simplified" in str(exc.value)

    def test_env_threshold_list(self):
        cfg = _load(env={"CLAIMCHECK_SCORING_THRESHOLDS": "0.25,0.5"})
        assert cfg.scoring.thresholds == (0.25, 0.5)

    def test_env_lambda(self):
        cfg = _load(env={"CLAIMCHECK_RETRIEVAL_LAMBDA": "0.3"})
        assert cfg.retrieval.lambda_ == 0.3

    def test_unrecognized_env_names_ignored(self):
        cfg = _load(env={"CLAIMCHECK_RETRIEVAL_NOPE": "1", "OTHER_VAR": "x"})
        assert cfg.retrieval.omega == 6000

    def test_env_bad_number_names_field(self):
        with pytest.raises(ConfigError) as exc:
            _load(env={"CLAIMCHECK_RETRIEVAL_OMEGA": "plenty"})
        assert "retrieval.omega" in str(exc.value)


class TestOverrideLayer:
    def test_override_beats_env_and_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("retrieval:\n  omega: 500\n")
        cfg = _load(
            str(path),
            env={"CLAIMCHECK_RETRIEVAL_OMEGA": "700"},
            overrides={"retrieval.omega": "900"},
        )
        assert cfg.retrieval.omega == 900

    def test_layers_merge_field_wise(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("retrieval:\n  omega: 500\n")
        cfg = _load(
            str(path),
            env={"CLAIMCHECK_RETRIEVAL_K": "12"},
            overrides={"retrieval.pool_size": "30"},
        )
        assert (cfg.retrieval.omega, cfg.retrieval.k, cfg.retrieval.pool_size) == (
            500, 12, 30,
        )

    def test_override_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            _load(overrides={"retrieval.bogus": "1"})

    @pytest.mark.parametrize(
        "key", ["embedding.retries", "generator.transport_retries", "generator.max_retries"]
    )
    def test_negative_retry_count_rejected(self, key):
        with pytest.raises(ConfigError) as exc:
            _load(overrides={key: "-1"})
        assert f"{key.split('.')[1]} must be >= 0" in str(exc.value)
        _load(overrides={key: "0"})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("generator.timeout_s", "0", "timeout_s must be finite and positive"),
            ("generator.timeout_s", "-1", "timeout_s must be finite and positive"),
            ("generator.timeout_s", "nan", "timeout_s must be finite and positive"),
            ("generator.timeout_s", "inf", "timeout_s must be finite and positive"),
            ("embedding.timeout_s", "nan", "timeout_s must be finite and positive"),
            ("embedding.timeout_s", "inf", "timeout_s must be finite and positive"),
            ("generator.temperature", "nan", "temperature must be finite and >= 0"),
            ("generator.temperature", "inf", "temperature must be finite and >= 0"),
            ("generator.temperature", "-0.5", "temperature must be finite and >= 0"),
        ],
    )
    def test_unusable_timeout_or_temperature_rejected(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            _load(overrides={key: value})
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("retrieval.k", "0", "need 1 <= k <= pool_size <= omega"),
            ("retrieval.k", "-3", "need 1 <= k <= pool_size <= omega"),
            ("generator.fewshot_count", "-1", "fewshot_count must be >= 0"),
        ],
    )
    def test_out_of_range_count_rejected(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            _load(overrides={key: value})
        assert message in str(exc.value)

    def test_override_without_dot_rejected(self):
        with pytest.raises(ConfigError) as exc:
            _load(overrides={"omega": "1"})
        assert "section.field" in str(exc.value)

    def test_generator_l_override(self):
        assert _load(overrides={"generator.l": "5"}).generator.l == 5


class TestSectionValidation:
    def test_pool_larger_than_omega_rejected(self):
        with pytest.raises(ConfigError) as exc:
            _load(overrides={"retrieval.omega": "5"})
        assert "pool_size" in str(exc.value)

    def test_weight_external_range(self):
        with pytest.raises(ConfigError):
            _load(overrides={"ensemble.weight_external": "1.5"})

    @pytest.mark.parametrize(
        "thresholds, repeated",
        [("0.25,0.25,0.5", "0.25"), ("0.5,0.25,0.5,0.25", "0.25, 0.5"), ("1,1.0", "1")],
    )
    def test_repeated_threshold_rejected(self, thresholds, repeated):
        with pytest.raises(ValidationError) as exc:
            _load(overrides={"scoring.thresholds": thresholds})
        assert str(exc.value) == f"thresholds repeated: {repeated}"

    def test_require_paths(self, tmp_path):
        cfg = _load(overrides={"paths.dataset": str(tmp_path / "absent.json")})
        with pytest.raises(ConfigError) as exc:
            cfg.require_paths("dataset", "knowledge_store")
        message = str(exc.value)
        assert "does not exist" in message
        assert "paths.knowledge_store is not configured" in message

    def test_require_paths_ok(self, tmp_path):
        data = tmp_path / "d.json"
        data.write_text("[]")
        cfg = _load(overrides={"paths.dataset": str(data)})
        cfg.require_paths("dataset")
