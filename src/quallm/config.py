"""Flat key=value run configuration.

The config format is deliberately primitive: one ``key=value`` per line,
``#`` comments, no sections, no quoting. Runs stay diff-friendly and the
parser has no dependencies.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import ndjson
from .models import StudyConfig, ThemeTaxonomy

BACKEND_MOCK = "mock"
BACKEND_LIVE = "live"

@dataclass
class RunConfig:
    run_dir: Optional[Path] = None
    taxonomy: Optional[Path] = None
    quotes: Optional[Path] = None
    template_dir: Optional[Path] = None

    backend: str = BACKEND_MOCK
    mock_script: Optional[Path] = None
    mock_default_text: Optional[str] = None
    endpoint: str = ""
    model: str = "gpt-4-turbo"
    temperature: float = 0.2
    max_output_tokens: int = 4096
    max_attempts: int = 6
    backoff_base: float = 2.0

    topic: str = ""
    source: str = "an online discussion forum"
    group_size: int = 5
    classification_chunk_size: int = 400
    aggregation_chunk_size: int = 400
    prevalence_chunk_size: int = 400
    subtheme_count: int = 5
    min_chars: int = 100
    max_prompt_chars: int = 480_000
    parity_retries: int = 2

    concurrency: int = 8
    seed: int = 0
    input_rate: float = 0.01
    output_rate: float = 0.03

    def validate(self) -> None:
        if self.run_dir is None:
            raise ValueError("run_dir is required (config key or --run-dir)")
        if self.backend not in (BACKEND_MOCK, BACKEND_LIVE):
            raise ValueError(f"backend must be 'mock' or 'live', got {self.backend!r}")
        if self.backend == BACKEND_LIVE and not self.endpoint:
            raise ValueError("backend=live requires an endpoint URL")
        if self.backend == BACKEND_MOCK and self.mock_script is None \
                and self.mock_default_text is None:
            raise ValueError("backend=mock requires mock_script or mock_default_text")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be within [0, 2], got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError(
                f"max_output_tokens must be >= 1, got {self.max_output_tokens}"
            )
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.min_chars < 1:
            raise ValueError(f"min_chars must be >= 1, got {self.min_chars}")
        if self.template_dir is not None and not self.template_dir.is_dir():
            raise ValueError(f"template_dir is not a directory: {self.template_dir}")
        for name in ("input_rate", "output_rate"):
            rate = getattr(self, name)
            if not rate > 0:
                raise ValueError(f"{name} must be > 0, got {rate}")

    def load_taxonomy(self) -> ThemeTaxonomy:
        """The human-written taxonomy: a JSON list of {"code", "name",
        "description"?} objects with string values."""
        path = self.taxonomy
        if path is None:
            raise ValueError("taxonomy file is required (config key 'taxonomy')")
        if not path.exists():
            raise FileNotFoundError(f"taxonomy file not found: {path}")
        data = ndjson.read_json(path)
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a JSON list of category objects")
        for index, item in enumerate(data, start=1):
            if not (isinstance(item, dict)
                    and all(isinstance(item.get(key), str) for key in ("code", "name"))
                    and isinstance(item.get("description", ""), str)):
                raise ValueError(f"{path}: entry {index} needs a string code and name,"
                                 " and a description only as a string")
        try:
            return ThemeTaxonomy.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def study(self) -> StudyConfig:
        if not self.topic:
            raise ValueError("config key 'topic' is required for pipeline stages")
        return StudyConfig(
            topic_description=self.topic,
            taxonomy=self.load_taxonomy(),
            classification_chunk_size=self.classification_chunk_size,
            aggregation_chunk_size=self.aggregation_chunk_size,
            prevalence_chunk_size=self.prevalence_chunk_size,
            subtheme_count=self.subtheme_count,
            source_description=self.source,
            max_prompt_chars=self.max_prompt_chars,
            parity_retries=self.parity_retries,
            template_dir=self.template_dir,
        )


# Each config key is a RunConfig field; its kind (int, float, str or Path)
# is the field's type without Optional.
_KINDS: dict[str, type] = {
    name: next(t for t in (*typing.get_args(hint), hint) if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def parse_config_text(text: str) -> dict[str, object]:
    """key -> value, each converted to its kind."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        value = value.strip()
        kind = _KINDS[key]
        try:
            # Path("") is ".", the config directory: never what was meant.
            if kind is Path and not value:
                raise ValueError(value)
            values[key] = kind(value)
            if kind is float and not math.isfinite(values[key]):
                raise ValueError(value)
        except ValueError:
            wanted = {int: "an integer", float: "a finite number",
                      Path: "a non-empty path"}[kind]
            raise ValueError(
                f"config line {lineno}: {key} must be {wanted}, got {value!r}"
            ) from None
    return values


def load_config(path: Path, run_dir_override: Optional[Path] = None) -> RunConfig:
    """Parse a config file; --run-dir on the command line wins over the file."""
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    raw = parse_config_text(path.read_text(encoding="utf-8"))
    config = RunConfig()
    base = path.parent
    for key, value in raw.items():
        # Relative paths resolve against the config file's directory.
        if isinstance(value, Path) and not value.is_absolute():
            value = base / value
        setattr(config, key, value)
    if run_dir_override is not None:
        config.run_dir = run_dir_override
    config.validate()
    return config
