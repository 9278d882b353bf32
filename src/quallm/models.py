"""Core domain types shared across the pipeline.

Everything here is a plain dataclass with eager invariant checks; the
pipeline stages only ever exchange these objects or their dict forms
(see ``to_dict``/``from_dict`` on the types that cross file boundaries).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional

# Sub-themes take the letters A, B, ... and their catch-all the next one.
MAX_SUBTHEMES = len(string.ascii_uppercase) - 1


def parse_rank(value: object) -> Optional[int]:
    """*value* as a rank: an int, a whole float or a string of digits;
    None for anything else, a bool or a fraction included."""
    if (isinstance(value, float) and value.is_integer()
            or isinstance(value, str) and value.isascii() and value.strip().isdigit()):
        return int(value)
    return value if type(value) is int else None


@dataclass(frozen=True)
class ForumSubmission:
    """One top-level forum post."""

    id: str
    title: str
    body: str
    created_at: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("submission id must be non-empty")
        if self.created_at <= 0:
            raise ValueError(f"submission {self.id}: created_at must be > 0")


@dataclass(frozen=True)
class ForumComment:
    """One comment, already resolved to its parent submission."""

    id: str
    submission_id: str
    body: str
    created_at: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("comment id must be non-empty")
        if not self.submission_id:
            raise ValueError(f"comment {self.id}: submission_id must be non-empty")


@dataclass(frozen=True)
class ThreadDocument:
    """A submission plus all of its comments, concatenated into one text.

    ``text`` is title, body and comment bodies joined by single newlines,
    comments in chronological order. ``comment_count`` is the number of
    comment bodies included in the concatenation.
    """

    submission_id: str
    text: str
    created_at: int
    comment_count: int

    def __post_init__(self) -> None:
        if self.comment_count < 0:
            raise ValueError("comment_count must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return {
            "submission_id": self.submission_id,
            "text": self.text,
            "created_at": self.created_at,
            "comment_count": self.comment_count,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ThreadDocument":
        return cls(
            submission_id=data["submission_id"],
            text=data["text"],
            created_at=int(data["created_at"]),
            comment_count=int(data["comment_count"]),
        )


@dataclass(frozen=True)
class BatchGroup:
    """An ordered set of thread documents sent in one generation call."""

    group_key: str
    members: tuple[ThreadDocument, ...]
    earliest_timestamp: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a batch group must have at least one member")
        expected = min(m.created_at for m in self.members)
        if self.earliest_timestamp != expected:
            raise ValueError(
                f"group {self.group_key}: earliest_timestamp {self.earliest_timestamp}"
                f" != member minimum {expected}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "group_key": self.group_key,
            "earliest_timestamp": self.earliest_timestamp,
            "members": [m.to_dict() for m in self.members],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BatchGroup":
        return cls(
            group_key=data["group_key"],
            members=tuple(ThreadDocument.from_dict(m) for m in data["members"]),
            earliest_timestamp=int(data["earliest_timestamp"]),
        )


@dataclass(frozen=True)
class Concern:
    """One extracted concern: title, short description and supporting quote.

    ``quote_check`` is filled in after quote verification and is one of
    "verbatim", "fuzzy" or "absent" (or None before verification). The
    quote may be empty: the check then finds it absent.
    """

    concern_id: str
    group_key: str
    earliest_timestamp: int
    title: str
    description: str
    quote: str
    quote_check: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("title", "description", "quote"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"concern {self.concern_id!r}: {name} must be a string")
        if not self.title:
            raise ValueError("concern title must be non-empty")

    def to_dict(self) -> dict[str, Any]:
        return {
            "concern_id": self.concern_id,
            "group_key": self.group_key,
            "earliest_timestamp": self.earliest_timestamp,
            "title": self.title,
            "description": self.description,
            "quote": self.quote,
            "quote_check": self.quote_check,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Concern":
        return cls(
            concern_id=data["concern_id"],
            group_key=data["group_key"],
            earliest_timestamp=int(data["earliest_timestamp"]),
            title=data["title"],
            description=data.get("description", ""),
            quote=data["quote"],
            quote_check=data.get("quote_check"),
        )


@dataclass(frozen=True)
class ThemeCategory:
    code: str
    name: str
    description: str = ""


@dataclass(frozen=True)
class ThemeTaxonomy:
    """Ordered letter-coded categories; the last one is the catch-all."""

    categories: tuple[ThemeCategory, ...]

    def __post_init__(self) -> None:
        if len(self.categories) < 2:
            raise ValueError("taxonomy needs at least one category plus the catch-all")
        expected = string.ascii_uppercase[: len(self.categories)]
        codes = "".join(c.code for c in self.categories)
        if codes != expected:
            raise ValueError(
                f"category codes must be consecutive letters from A; got {codes!r}"
            )

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(c.code for c in self.categories)

    @property
    def catch_all(self) -> ThemeCategory:
        return self.categories[-1]

    @property
    def active(self) -> tuple[ThemeCategory, ...]:
        """Categories that flow into aggregation/prevalence (all but the catch-all)."""
        return self.categories[:-1]

    def to_dict(self) -> list[dict[str, str]]:
        return [
            {"code": c.code, "name": c.name, "description": c.description}
            for c in self.categories
        ]

    @classmethod
    def from_dict(cls, data: Iterable[dict[str, str]]) -> "ThemeTaxonomy":
        return cls(
            categories=tuple(
                ThemeCategory(
                    code=d["code"], name=d["name"], description=d.get("description", "")
                )
                for d in data
            )
        )


@dataclass(frozen=True)
class ThemeAssignment:
    concern_id: str
    code: str

    def to_dict(self) -> dict[str, str]:
        return {"concern_id": self.concern_id, "code": self.code}

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "ThemeAssignment":
        return cls(concern_id=data["concern_id"], code=data["code"])


@dataclass(frozen=True)
class SubThemeEntry:
    rank: int
    title: str
    description: str
    quote: Optional[str] = None


@dataclass(frozen=True)
class SubThemeSet:
    """Exactly n ranked sub-themes for one top-level theme."""

    theme: str
    entries: tuple[SubThemeEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"theme {self.theme}: sub-theme set must be non-empty")
        n = len(self.entries)
        ranks = sorted(e.rank for e in self.entries)
        if ranks != list(range(1, n + 1)):
            raise ValueError(
                f"theme {self.theme}: ranks must be a permutation of 1..{n}, got {ranks}"
            )
        titles = [e.title for e in self.entries]
        if len(set(titles)) != n:
            raise ValueError(f"theme {self.theme}: sub-theme titles must be distinct")

    def by_rank(self) -> tuple[SubThemeEntry, ...]:
        return tuple(sorted(self.entries, key=lambda e: e.rank))

    @property
    def codes(self) -> tuple[str, ...]:
        """Letter codes for the ranked sub-themes (A for rank 1, B for rank 2, ...)."""
        return tuple(string.ascii_uppercase[i] for i in range(len(self.entries)))

    @property
    def catch_all_code(self) -> str:
        """The letter following the last sub-theme code ("F" for five sub-themes)."""
        return string.ascii_uppercase[len(self.entries)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "theme": self.theme,
            "entries": [
                {
                    "rank": e.rank,
                    "title": e.title,
                    "description": e.description,
                    "quote": e.quote,
                }
                for e in self.by_rank()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SubThemeSet":
        return cls(
            theme=data["theme"],
            entries=tuple(
                SubThemeEntry(
                    rank=int(e["rank"]),
                    title=e["title"],
                    description=e.get("description", ""),
                    quote=e.get("quote"),
                )
                for e in data["entries"]
            ),
        )


@dataclass(frozen=True)
class SubThemeAssignment:
    concern_id: str
    theme: str
    code: str

    def to_dict(self) -> dict[str, str]:
        return {"concern_id": self.concern_id, "theme": self.theme, "code": self.code}

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "SubThemeAssignment":
        return cls(
            concern_id=data["concern_id"], theme=data["theme"], code=data["code"]
        )


@dataclass
class StudyConfig:
    """Everything the prompting stages need to know about one study."""

    topic_description: str
    taxonomy: ThemeTaxonomy
    classification_chunk_size: int = 400
    aggregation_chunk_size: int = 400
    prevalence_chunk_size: int = 400
    subtheme_count: int = 5
    source_description: str = "an online discussion forum"
    # Rough context guard for generation prompts; ~4 chars per token.
    max_prompt_chars: int = 480_000
    parity_retries: int = 2
    # Overrides of the packaged prompt templates; None uses the packaged ones.
    template_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if not 1 <= self.subtheme_count <= MAX_SUBTHEMES:
            raise ValueError(
                f"subtheme_count must be within [1, {MAX_SUBTHEMES}],"
                f" got {self.subtheme_count}"
            )
        if self.parity_retries < 0:
            raise ValueError("parity_retries must be >= 0")
        if self.max_prompt_chars < 1:
            raise ValueError(
                f"max_prompt_chars must be >= 1, got {self.max_prompt_chars}"
            )
        for name in ("classification_chunk_size", "aggregation_chunk_size",
                     "prevalence_chunk_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
