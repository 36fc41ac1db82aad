"""Layered configuration: defaults, YAML file, environment, CLI flags.

Each layer overrides the previous one field by field. The sections are
the dataclasses AppConfig's fields name, and their fields' defaults and
annotations are the only declaration of each setting. A field's key is
its name without a trailing "_" (RetrievalConfig.lambda_ is
retrieval.lambda). Environment variables follow
CLAIMCHECK_{SECTION}_{FIELD}, for example CLAIMCHECK_RETRIEVAL_OMEGA=2000.
Only recognized section/field pairs are read from the environment;
unknown names in a config file or a --set override are errors.
"""

from __future__ import annotations

import os
import types
import typing
from dataclasses import dataclass, fields

from .dense import EmbeddingProviderConfig
from .errors import ConfigError
from .generator import GeneratorConfig
from .retriever import RetrievalConfig
from .scoring import ScoringConfig
from .verdict import EnsembleConfig

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class PathsConfig:
    dataset: str | None = None
    knowledge_store: str | None = None
    train_set: str | None = None
    cache_dir: str | None = None
    output_dir: str = "out"


@dataclass(frozen=True)
class AppConfig:
    retrieval: RetrievalConfig
    generator: GeneratorConfig
    embedding: EmbeddingProviderConfig
    ensemble: EnsembleConfig
    scoring: ScoringConfig
    paths: PathsConfig

    def require_paths(self, *names: str) -> None:
        """Fail fast when a command's input paths are unset or missing."""
        problems = []
        for name in names:
            value = getattr(self.paths, name)
            if not value:
                problems.append(f"paths.{name} is not configured")
            elif not os.path.exists(value):
                problems.append(f"paths.{name} does not exist: {value}")
        if problems:
            raise ConfigError("; ".join(problems))


def _keyed_fields(cls) -> dict[str, tuple[str, object]]:
    """key -> (dataclass field name, annotated type) for one section."""
    hints = typing.get_type_hints(cls)
    return {f.name.rstrip("_"): (f.name, hints[f.name]) for f in fields(cls)}


_SECTIONS: dict[str, type] = typing.get_type_hints(AppConfig)
_FIELDS = {section: _keyed_fields(cls) for section, cls in _SECTIONS.items()}
DEFAULTS: dict[str, dict] = {
    section: {f.name.rstrip("_"): f.default for f in fields(cls)}
    for section, cls in _SECTIONS.items()
}


def _convert(kind, value):
    """value as the annotated type kind.

    Strings (environment, flags, quoted YAML) are parsed: a tuple from
    comma-separated items, a bool from _TRUE_WORDS/_FALSE_WORDS. Other
    YAML values must have the type already, except that an int serves
    as a float and null sets an optional field to None.
    """
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    if typing.get_origin(kind) is tuple:
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_convert(typing.get_args(kind)[0], item) for item in value)
    if isinstance(value, str):
        if kind is bool:
            word = value.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return kind(value)
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _check_known(section: str, key: str | None = None) -> None:
    if section not in _FIELDS:
        raise ConfigError(
            f"unknown config section {section!r}; known: {sorted(_FIELDS)}"
        )
    if key is not None and key not in _FIELDS[section]:
        raise ConfigError(
            f"unknown field {section}.{key}; known: {sorted(_FIELDS[section])}"
        )


def _set(values: dict, section: str, key: str, value) -> None:
    """Store value for section.key as that field's type."""
    _check_known(section, key)
    try:
        values[section][key] = _convert(_FIELDS[section][key][1], value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


def _merge_file(values: dict, path: str) -> None:
    # imported here: a run without a config file never needs PyYAML
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: bad YAML: {exc}") from exc
    if data is None:
        return
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    for section, entries in data.items():
        _check_known(section)
        if not isinstance(entries, dict):
            raise ConfigError(f"{path}: section {section!r} must be a mapping")
        for key, value in entries.items():
            _set(values, section, key, value)


def _merge_env(values: dict, env) -> None:
    for section, keys in _FIELDS.items():
        for key in keys:
            name = f"CLAIMCHECK_{section.upper()}_{key.upper()}"
            if name in env:
                _set(values, section, key, env[name])


def load_app_config(
    config_path: str | None = None,
    env=None,
    overrides: dict[str, str] | None = None,
) -> AppConfig:
    """Resolve the app config: flags > environment > file > defaults."""
    values: dict[str, dict] = {section: {} for section in _FIELDS}
    if config_path:
        _merge_file(values, config_path)
    _merge_env(values, os.environ if env is None else env)
    for dotted, raw in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override key must be section.field, got {dotted!r}")
        section, key = dotted.split(".", 1)
        _set(values, section, key, raw)
    return AppConfig(
        **{
            section: cls(**{_FIELDS[section][k][0]: v for k, v in values[section].items()})
            for section, cls in _SECTIONS.items()
        }
    )
