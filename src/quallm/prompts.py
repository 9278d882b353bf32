"""Prompt construction for the four pipeline stages.

Templates are plain-text assets with ``{{slot}}`` placeholders; the
defaults ship with the package and can be overridden per run by pointing
``StudyConfig.template_dir`` at a directory containing files of the same
names. A packaged default is read once per process; an override is read
on every render, so an edited override takes effect at once.
"""

from __future__ import annotations

import functools
import json
import re
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .models import BatchGroup, Concern, StudyConfig, SubThemeSet, ThemeCategory

TEMPLATE_NAMES = ("generation", "classification", "aggregation", "prevalence")

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")


class PromptTooLargeError(ValueError):
    """Raised when a rendered prompt exceeds the configured context budget."""


def load_template(name: str, template_dir: Optional[Path] = None) -> str:
    """Load a stage template, preferring *template_dir* when given."""
    if name not in TEMPLATE_NAMES:
        raise ValueError(f"unknown template {name!r}")
    if template_dir is not None:
        override = template_dir / f"{name}.txt"
        if override.exists():
            return override.read_text(encoding="utf-8")
    return _packaged_template(name)


@functools.lru_cache(maxsize=None)
def _packaged_template(name: str) -> str:
    # Package data cannot change under a run, so each default is read once.
    return (
        resources.files("quallm.templates").joinpath(f"{name}.txt").read_text("utf-8")
    )


def fill_slots(template: str, values: dict[str, str]) -> str:
    """Substitute every ``{{slot}}``; an unfilled slot is a template bug."""
    def replace(match: re.Match) -> str:
        key = match.group(1)
        if key not in values:
            raise KeyError(f"template slot {{{{{key}}}}} has no value")
        return values[key]

    return _SLOT_RE.sub(replace, template)


def _iso_utc(epoch_seconds: int) -> str:
    return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def serialize_group(group: BatchGroup) -> str:
    """Render group members as one JSON object per line, sharing the group key."""
    lines = []
    for member in group.members:
        lines.append(
            json.dumps(
                {
                    "group_key": group.group_key,
                    "timestamp": _iso_utc(member.created_at),
                    "thread_text": member.text,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    return "\n".join(lines)


def format_categories(categories: Sequence[ThemeCategory]) -> str:
    """One "A. Name: Description" paragraph per category."""
    blocks = []
    for cat in categories:
        head = f"{cat.code}. {cat.name}"
        blocks.append(f"{head}: {cat.description}" if cat.description else head)
    return "\n\n".join(blocks)


def numbered_concern_lines(concerns: Sequence[Concern]) -> str:
    """Serial-numbered "title - description" lines for classification prompts."""
    return "\n".join(
        f"{i}. {c.title} - {c.description}" for i, c in enumerate(concerns, start=1)
    )


def render_generation_prompt(group: BatchGroup, config: StudyConfig) -> str:
    """Build the concern-generation prompt for one batch group."""
    template = load_template("generation", config.template_dir)
    prompt = fill_slots(
        template,
        {
            "source": config.source_description,
            "topic": config.topic_description,
            "threads": serialize_group(group),
        },
    )
    if len(prompt) > config.max_prompt_chars:
        raise PromptTooLargeError(
            f"generation prompt for group {group.group_key} is {len(prompt)} chars,"
            f" over the {config.max_prompt_chars}-char budget"
        )
    return prompt


def render_classification_prompt(
    concerns: Sequence[Concern], config: StudyConfig
) -> str:
    template = load_template("classification", config.template_dir)
    return fill_slots(
        template,
        {
            "category_count": str(len(config.taxonomy.categories)),
            "categories": format_categories(config.taxonomy.categories),
            "concerns": numbered_concern_lines(concerns),
        },
    )


def _render_aggregation(
    category: ThemeCategory,
    pairs: Iterable[tuple[str, str]],
    config: StudyConfig,
) -> str:
    """Aggregation prompt listing (title, description) pairs on consecutive
    lines, per the aggregation format."""
    template = load_template("aggregation", config.template_dir)
    described = f"{category.name}: {category.description}" if category.description \
        else category.name
    return fill_slots(
        template,
        {
            "source": config.source_description,
            "category": described,
            "n": str(config.subtheme_count),
            "concerns": "\n".join(line for pair in pairs for line in pair),
        },
    )


def render_aggregation_prompt(
    category: ThemeCategory, concerns: Sequence[Concern], config: StudyConfig
) -> str:
    return _render_aggregation(
        category, ((c.title, c.description) for c in concerns), config
    )


def render_merge_prompt(
    category: ThemeCategory, candidates: Sequence[SubThemeSet], config: StudyConfig
) -> str:
    """Aggregation prompt over candidate sub-themes from the map calls."""
    return _render_aggregation(
        category,
        ((e.title, e.description) for c in candidates for e in c.by_rank()),
        config,
    )


def render_prevalence_prompt(
    subthemes: SubThemeSet,
    concerns: Sequence[Concern],
    template_dir: Optional[Path] = None,
) -> str:
    template = load_template("prevalence", template_dir)
    categories = "\n\n".join(
        f"{code}. {entry.title}: {entry.description}"
        for code, entry in zip(subthemes.codes, subthemes.by_rank())
    )
    return fill_slots(
        template,
        {
            "category_count": str(len(subthemes.entries) + 1),
            "categories": categories,
            "catchall_code": subthemes.catch_all_code,
            "concerns": numbered_concern_lines(concerns),
        },
    )
