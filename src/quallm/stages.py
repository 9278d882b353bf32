"""Stage operations: model-output parsing, contract enforcement, retries.

Each stage has a strict output contract. Generation must return a JSON
array of concern objects or the literal "No concerns"; classification
and prevalence must return a serial->letter map covering exactly the
chunk that was sent (the parity check); aggregation must return exactly
n sub-themes whose ranks form a permutation of 1..n. Every model call of
every stage goes through one helper, ``_ask``: a reply that breaks the
stage's contract is usually a formatting fluke, so the same prompt is
re-asked up to ``parity_retries`` times before the unit is marked
failed. Gateway-level failures (throttling past the cap, content
filtering) are never retried here.

Each unit function (``generate_for_group``, ``classify_chunk``,
``run_aggregation``, ``prevalence_chunk``) returns its value (the
group's concerns, the chunk's ``(letters, remapped)`` or the theme's
sub-theme set) or the ``GatewayFailure`` that ended it, as ``_ask`` does.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union

from .gateway import Gateway, GatewayFailure, MALFORMED_OUTPUT, OTHER
from .ingest import derive_group_key
from .models import (
    BatchGroup,
    Concern,
    StudyConfig,
    SubThemeEntry,
    SubThemeSet,
    ThemeCategory,
)
from .prompts import (
    PromptTooLargeError,
    render_aggregation_prompt,
    render_classification_prompt,
    render_generation_prompt,
    render_merge_prompt,
    render_prevalence_prompt,
)

logger = logging.getLogger(__name__)

NO_CONCERNS = "no concerns"

QUOTE_VERBATIM = "verbatim"
QUOTE_FUZZY = "fuzzy"
QUOTE_ABSENT = "absent"
FUZZY_OVERLAP_THRESHOLD = 0.8

_FENCE_RE = re.compile(r"^```[a-zA-Z0-9]*\s*\n(.*)\n```\s*$", re.DOTALL)
_PAIR_RE = re.compile(r"(\d+)\s*[:=]\s*[\"']?([A-Za-z])[\"']?")


class MalformedStageOutput(ValueError):
    """Model output that violates the stage contract."""


def strip_code_fences(text: str) -> str:
    stripped = text.strip()
    match = _FENCE_RE.match(stripped)
    return match.group(1).strip() if match else stripped


T = TypeVar("T")


def _ask(
    gateway: Gateway, prompt: str, tag: str, parse: Callable[[str], T], retries: int
) -> Union[T, GatewayFailure]:
    """Send *prompt* and return ``parse(reply.text)``.

    The same prompt is re-asked while *parse* raises MalformedStageOutput,
    up to *retries* times; a gateway failure is returned as soon as it
    happens.
    """
    last_detail = ""
    for attempt in range(retries + 1):
        reply = gateway.complete(prompt, tag)
        if isinstance(reply, GatewayFailure):
            return reply
        try:
            return parse(reply.text)
        except MalformedStageOutput as exc:
            last_detail = str(exc)
            logger.debug("%s attempt %d broke the contract: %s", tag, attempt + 1, exc)
    return GatewayFailure(
        category=MALFORMED_OUTPUT,
        attempts=retries + 1,
        detail=f"contract violated after {retries} retries: {last_detail}",
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def make_concern_id(group_key: str, ordinal: int) -> str:
    # Zero-padded so string order equals (group_key, ordinal) order.
    return f"{group_key}-{ordinal:04d}"


def parse_generation_output(text: str, group: BatchGroup) -> list[Concern]:
    """Turn one generation response into enriched concerns.

    "No concerns" (case-insensitive, surrounding whitespace ignored)
    yields an empty list. Anything that is not a JSON array of objects
    with title/description/quote raises MalformedStageOutput.
    """
    body = strip_code_fences(text)
    if body.lower() == NO_CONCERNS:
        return []
    try:
        data = json.loads(body)
    except json.JSONDecodeError as exc:
        raise MalformedStageOutput(f"unparseable generation output: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedStageOutput("generation output is not a JSON array")

    concerns: list[Concern] = []
    for ordinal, item in enumerate(data, start=1):
        if not isinstance(item, dict):
            raise MalformedStageOutput(f"item {ordinal} is not an object")
        missing = [k for k in ("title", "description", "quote") if k not in item]
        if missing:
            raise MalformedStageOutput(
                f"item {ordinal} is missing field(s): {', '.join(missing)}"
            )
        try:
            concerns.append(
                Concern(
                    concern_id=make_concern_id(group.group_key, ordinal),
                    group_key=group.group_key,
                    earliest_timestamp=group.earliest_timestamp,
                    title=str(item["title"]),
                    description=str(item["description"]),
                    quote=str(item["quote"]),
                )
            )
        except ValueError as exc:
            raise MalformedStageOutput(f"item {ordinal}: {exc}") from exc
    return concerns


_PUNCT_RE = re.compile(r"[^a-z0-9\s]+")


def _normalize(text: str) -> str:
    # Punctuation is dropped in place ("it's" -> "its"), then whitespace
    # collapsed, so punctuation-only edits cannot break a verbatim match.
    return " ".join(_PUNCT_RE.sub("", text.lower()).split())


def _best_window_overlap(quote_tokens: list[str], member_tokens: list[str]) -> float:
    """Max multiset-overlap ratio of the quote against same-length windows."""
    qlen = len(quote_tokens)
    if qlen == 0 or not member_tokens:
        return 0.0
    need = Counter(quote_tokens)
    width = min(qlen, len(member_tokens))
    window = Counter(member_tokens[:width])
    overlap = sum(min(count, need[token]) for token, count in window.items())
    best = overlap
    for i in range(width, len(member_tokens)):
        leaving = member_tokens[i - width]
        if window[leaving] <= need[leaving]:
            overlap -= 1
        window[leaving] -= 1
        entering = member_tokens[i]
        window[entering] += 1
        if window[entering] <= need[entering]:
            overlap += 1
        if overlap > best:
            best = overlap
    return best / qlen


class GroupText:
    """A group's member texts, normalised once for all the quotes checked
    against it; tokens and token counts are built on the first fuzzy scan."""

    def __init__(self, group: BatchGroup):
        self.norms = [_normalize(m.text) for m in group.members]
        self._tokens: Optional[list[tuple[list[str], Counter]]] = None

    def tokens(self) -> list[tuple[list[str], Counter]]:
        """Each member's (tokens, token counts)."""
        if self._tokens is None:
            split = (norm.split() for norm in self.norms)
            self._tokens = [(tokens, Counter(tokens)) for tokens in split]
        return self._tokens


def verify_quote(
    concern: Concern, group: BatchGroup, text: Optional[GroupText] = None
) -> str:
    """Check the quote against the source threads; never blocks the pipeline.

    Returns "verbatim" when the normalized quote appears as a substring
    of any member text, "fuzzy" when a same-length token window of some
    member overlaps the quote's tokens at >= 0.8, else "absent". *text*
    is the group's GroupText, when the caller checks several quotes.
    """
    quote_norm = _normalize(concern.quote)
    if not quote_norm:
        return QUOTE_ABSENT
    if text is None:
        text = GroupText(group)
    if any(quote_norm in norm for norm in text.norms):
        return QUOTE_VERBATIM
    quote_tokens = quote_norm.split()
    need = Counter(quote_tokens)
    qlen = len(quote_tokens)
    for tokens, have in text.tokens():
        # No window overlaps the quote by more than the whole member does,
        # and the same division as below keeps this skip exact.
        bound = sum(min(n, have[token]) for token, n in need.items())
        if bound / qlen < FUZZY_OVERLAP_THRESHOLD:
            continue
        if _best_window_overlap(quote_tokens, tokens) >= FUZZY_OVERLAP_THRESHOLD:
            return QUOTE_FUZZY
    return QUOTE_ABSENT


def _attach_quote_checks(concerns: list[Concern], group: BatchGroup) -> list[Concern]:
    text = GroupText(group) if concerns else None
    return [
        Concern(
            concern_id=concern.concern_id,
            group_key=concern.group_key,
            earliest_timestamp=concern.earliest_timestamp,
            title=concern.title,
            description=concern.description,
            quote=concern.quote,
            quote_check=verify_quote(concern, group, text),
        )
        for concern in concerns
    ]


def generate_for_group(
    gateway: Gateway,
    group: BatchGroup,
    config: StudyConfig,
    template_dir: Optional[Path] = None,
) -> Union[list[Concern], GatewayFailure]:
    """Run the generation stage for one batch group.

    A group whose prompt exceeds the context budget is split into
    singleton groups rather than truncated (truncation would silently
    bias toward thread openings).
    """
    try:
        prompt = render_generation_prompt(group, config, template_dir)
    except PromptTooLargeError as exc:
        if len(group.members) == 1:
            return GatewayFailure(category=OTHER, attempts=0, detail=str(exc))
        concerns: list[Concern] = []
        for member in group.members:
            singleton = BatchGroup(
                group_key=derive_group_key([member.submission_id]),
                members=(member,),
                earliest_timestamp=member.created_at,
            )
            sub = generate_for_group(gateway, singleton, config, template_dir)
            if isinstance(sub, GatewayFailure):
                return sub
            concerns.extend(sub)
        return concerns

    parsed = _ask(
        gateway, prompt, f"gen:{group.group_key}",
        lambda text: parse_generation_output(text, group), config.parity_retries,
    )
    if isinstance(parsed, GatewayFailure):
        return parsed
    return _attach_quote_checks(parsed, group)


# ---------------------------------------------------------------------------
# Serial->letter maps (classification and prevalence share the contract)
# ---------------------------------------------------------------------------


def parse_serial_letter_map(text: str) -> dict[int, str]:
    """Parse a {serial: letter} response, accepting JSON or the relaxed
    unquoted form the prompt itself demonstrates ({1: A, 2: B})."""
    body = strip_code_fences(text)
    try:
        data = json.loads(body)
        if isinstance(data, dict):
            return {int(k): str(v).strip().upper() for k, v in data.items()}
    except (json.JSONDecodeError, TypeError, ValueError):
        pass
    pairs = _PAIR_RE.findall(body)
    if not pairs:
        raise MalformedStageOutput("no serial: letter pairs found in output")
    return {int(serial): letter.upper() for serial, letter in pairs}


def check_parity(mapping: dict[int, str], expected_count: int) -> None:
    """Entry count must equal the chunk size and serials must be 1..m."""
    if len(mapping) != expected_count:
        raise MalformedStageOutput(
            f"expected {expected_count} entries, got {len(mapping)}"
        )
    expected = set(range(1, expected_count + 1))
    if set(mapping) != expected:
        missing = sorted(expected - set(mapping))[:5]
        raise MalformedStageOutput(f"serials are not exactly 1..{expected_count}"
                                   f" (first missing: {missing})")


# A letter chunk's value: one letter per concern, in chunk order, and how
# many of them were remapped to the catch-all.
LetterResult = Union[tuple[list[str], int], GatewayFailure]


def _run_letter_chunk(
    gateway: Gateway,
    prompt: str,
    tag: str,
    count: int,
    valid_codes: Sequence[str],
    catch_all: str,
    retries: int,
) -> LetterResult:
    def parse(text: str) -> dict[int, str]:
        mapping = parse_serial_letter_map(text)
        check_parity(mapping, count)
        return mapping

    mapping = _ask(gateway, prompt, tag, parse, retries)
    if isinstance(mapping, GatewayFailure):
        return mapping
    letters: list[str] = []
    remapped = 0
    valid = set(valid_codes)
    for serial in range(1, count + 1):
        letter = mapping[serial]
        if letter not in valid:
            logger.warning(
                "chunk %s: letter %r outside the category set, remapped to %s",
                tag, letter, catch_all,
            )
            letter = catch_all
            remapped += 1
        letters.append(letter)
    return letters, remapped


def chunk_slices(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """(start, end) index pairs covering 0..total in chunk_size steps."""
    return [(i, min(i + chunk_size, total)) for i in range(0, total, chunk_size)]


def classify_chunk(
    gateway: Gateway,
    concerns: Sequence[Concern],
    config: StudyConfig,
    chunk_index: int,
    template_dir: Optional[Path] = None,
) -> LetterResult:
    prompt = render_classification_prompt(concerns, config, template_dir)
    return _run_letter_chunk(
        gateway,
        prompt,
        tag=f"cls:{chunk_index}",
        count=len(concerns),
        valid_codes=config.taxonomy.codes,
        catch_all=config.taxonomy.catch_all.code,
        retries=config.parity_retries,
    )


# ---------------------------------------------------------------------------
# Aggregation (with map-reduce over the per-call budget)
# ---------------------------------------------------------------------------


def parse_subtheme_output(text: str, theme: str, expected_n: int) -> SubThemeSet:
    """Parse ranked sub-themes; count, rank-permutation and distinct-title
    violations all raise MalformedStageOutput (callers retry)."""
    body = strip_code_fences(text)
    items: Optional[list] = None
    try:
        data = json.loads(body)
        if isinstance(data, list):
            items = data
    except json.JSONDecodeError:
        pass
    if items is None:
        # One JSON object per line is also accepted.
        items = []
        for line in body.splitlines():
            line = line.strip().rstrip(",")
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedStageOutput(
                    f"unparseable sub-theme output: {exc}"
                ) from exc
            items.append(obj)

    entries: list[SubThemeEntry] = []
    for item in items:
        if not isinstance(item, dict):
            raise MalformedStageOutput("sub-theme item is not an object")
        try:
            rank = int(item.get("concern_rank", item.get("rank")))
            title = str(item.get("concern_title", item.get("title")))
            description = str(
                item.get("concern_description", item.get("description", ""))
            )
        except (TypeError, ValueError) as exc:
            raise MalformedStageOutput(f"bad sub-theme item {item!r}") from exc
        entries.append(SubThemeEntry(rank=rank, title=title, description=description))

    if len(entries) != expected_n:
        raise MalformedStageOutput(
            f"expected {expected_n} sub-themes, got {len(entries)}"
        )
    try:
        return SubThemeSet(theme=theme, entries=tuple(entries))
    except ValueError as exc:
        raise MalformedStageOutput(str(exc)) from exc


def run_aggregation(
    gateway: Gateway,
    category: ThemeCategory,
    theme_concerns: Sequence[Concern],
    config: StudyConfig,
    template_dir: Optional[Path] = None,
) -> Union[SubThemeSet, GatewayFailure]:
    """Produce the ranked sub-theme set for one theme.

    When the concern list exceeds the per-call budget, chunked map calls
    each propose n candidates and a single merge call over all candidate
    titles/descriptions picks the final n.
    """
    if not theme_concerns:
        raise ValueError(f"theme {category.code}: aggregation needs >= 1 concern")
    theme = category.code

    def ask(prompt: str, tag: str) -> Union[SubThemeSet, GatewayFailure]:
        return _ask(
            gateway, prompt, tag,
            lambda text: parse_subtheme_output(text, theme, config.subtheme_count),
            config.parity_retries,
        )

    slices = chunk_slices(len(theme_concerns), config.aggregation_chunk_size)
    if len(slices) == 1:
        prompt = render_aggregation_prompt(category, theme_concerns, config,
                                           template_dir)
        return ask(prompt, f"agg:{theme}")

    candidates: list[SubThemeSet] = []
    for j, (start, end) in enumerate(slices, start=1):
        prompt = render_aggregation_prompt(
            category, theme_concerns[start:end], config, template_dir
        )
        result = ask(prompt, f"agg:{theme}:map:{j}")
        if isinstance(result, GatewayFailure):
            return result
        candidates.append(result)

    merge_prompt = render_merge_prompt(category, candidates, config, template_dir)
    return ask(merge_prompt, f"agg:{theme}:merge")


# ---------------------------------------------------------------------------
# Prevalence
# ---------------------------------------------------------------------------


def prevalence_chunk(
    gateway: Gateway,
    subthemes: SubThemeSet,
    concerns: Sequence[Concern],
    config: StudyConfig,
    chunk_index: int,
    template_dir: Optional[Path] = None,
) -> LetterResult:
    prompt = render_prevalence_prompt(subthemes, concerns, template_dir)
    valid = list(subthemes.codes) + [subthemes.catch_all_code]
    return _run_letter_chunk(
        gateway,
        prompt,
        tag=f"prev:{subthemes.theme}:{chunk_index}",
        count=len(concerns),
        valid_codes=valid,
        catch_all=subthemes.catch_all_code,
        retries=config.parity_retries,
    )

