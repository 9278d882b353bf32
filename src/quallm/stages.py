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
import string
from collections import Counter
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
    parse_rank,
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
# A serial and one letter; "1: AB" yields no pair, so parity re-asks.
_PAIR_RE = re.compile(r"(\d+)\s*[:=]\s*[\"']?([A-Za-z])(?![A-Za-z])")


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
    with string title/description/quote raises MalformedStageOutput; an
    empty quote is kept, and its check finds it absent.
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
                    title=item["title"],
                    description=item["description"],
                    quote=item["quote"],
                )
            )
        except ValueError as exc:
            raise MalformedStageOutput(f"item {ordinal}: {exc}") from exc
    return concerns


_PUNCT_RE = re.compile(r"[^a-z0-9\s]+")
# Every byte but a-z, 0-9 and the ASCII characters str.isspace() accepts
# (\x1c-\x1f among them): what _PUNCT_RE deletes from lower-cased ASCII.
_ASCII_KEEP = {ord(c) for c in map(chr, range(128))
               if c.isspace() or c in string.ascii_lowercase + string.digits}
_ASCII_DROP = bytes(b for b in range(256) if b not in _ASCII_KEEP)


def _tokens(text: str) -> list[str]:
    """The words of *text*, lower-cased, with everything but a-z, 0-9 and
    whitespace deleted in place ("it's" -> "its")."""
    if text.isascii():
        # The same result as the regex path, at a fraction of its cost.
        # split() runs on the str, so \x1c-\x1f still separate words.
        return (text.encode("ascii").lower().translate(None, _ASCII_DROP)
                .decode("ascii").split())
    return _PUNCT_RE.sub("", text.lower()).split()


def _normalize(text: str) -> str:
    # Punctuation is dropped in place, then whitespace collapsed, so
    # punctuation-only edits cannot break a verbatim match.
    return " ".join(_tokens(text))


def _best_window_overlap(quote_tokens: list[str], member_tokens: list[str]) -> float:
    """Max multiset-overlap ratio of the quote against same-length windows.

    Only member positions holding a quote token can change the overlap, so
    the scan visits those alone. Moving a window left past tokens that are
    not in the quote loses nothing, so the best window either is the first
    one or ends on such a position: the window that ends on each of them is
    scanned, and until the first full window it is a prefix of that window.
    """
    qlen = len(quote_tokens)
    if qlen == 0 or not member_tokens:
        return 0.0
    need = Counter(quote_tokens)
    width = min(qlen, len(member_tokens))
    hits = [(i, token) for i, token in enumerate(member_tokens) if token in need]
    window: Counter = Counter()
    overlap = best = left = 0
    for i, entering in hits:
        while hits[left][0] <= i - width:
            leaving = hits[left][1]
            if window[leaving] <= need[leaving]:
                overlap -= 1
            window[leaving] -= 1
            left += 1
        window[entering] += 1
        if window[entering] <= need[entering]:
            overlap += 1
        if overlap > best:
            best = overlap
    return best / qlen


class GroupText:
    """A group's member texts, normalised for the quotes checked against it
    only when one of them needs it.

    Most quotes are raw substrings of a member, which decides them without
    normalising anything. The first quote that is not tokenises every member
    once; the first window scan counts each member's tokens.
    """

    def __init__(self, group: BatchGroup):
        self.members = group.members
        self._tokens: Optional[list[list[str]]] = None
        self._norms: Optional[list[str]] = None
        self._counts: Optional[list[Counter]] = None

    def tokens(self) -> list[list[str]]:
        """Each member's normalised tokens."""
        if self._tokens is None:
            self._tokens = [_tokens(m.text) for m in self.members]
        return self._tokens

    def norms(self) -> list[str]:
        """Each member's normalised text: its tokens joined by one space."""
        if self._norms is None:
            self._norms = [" ".join(tokens) for tokens in self.tokens()]
        return self._norms

    def counts(self) -> list[Counter]:
        """Each member's token counts."""
        if self._counts is None:
            self._counts = [Counter(tokens) for tokens in self.tokens()]
        return self._counts


def verify_quote(
    concern: Concern, group: BatchGroup, text: Optional[GroupText] = None
) -> str:
    """Check the quote against the source threads; never blocks the pipeline.

    Returns "verbatim" when the normalized quote appears as a substring
    of any member's normalized text, "fuzzy" when a same-length token
    window of some member overlaps the quote's tokens at >= 0.8, else
    "absent" (an empty or blank quote included). *text* is the group's
    GroupText, when the caller checks several quotes.

    The raw quote is looked for in the raw texts first. A raw substring
    stays one after both sides are normalised, once the normalised quote
    is non-empty: lower-casing maps each character on its own (the final
    sigma, Python's one context rule, yields a letter that is deleted),
    deleting is per character, and collapsing whitespace keeps the
    quote's words and single spaces. So members are only normalised
    for a quote that is not found raw, and no outcome changes.
    """
    quote_tokens = _tokens(concern.quote)
    if not quote_tokens:
        return QUOTE_ABSENT
    if any(concern.quote in member.text for member in group.members):
        return QUOTE_VERBATIM
    if text is None:
        text = GroupText(group)
    quote_norm = " ".join(quote_tokens)
    if any(quote_norm in norm for norm in text.norms()):
        return QUOTE_VERBATIM
    need = Counter(quote_tokens)
    qlen = len(quote_tokens)
    for tokens, have in zip(text.tokens(), text.counts()):
        # No window overlaps the quote by more than the whole member does,
        # and the same division as below keeps this skip exact.
        bound = sum(min(n, have[token]) for token, n in need.items())
        if bound / qlen < FUZZY_OVERLAP_THRESHOLD:
            continue
        if _best_window_overlap(quote_tokens, tokens) >= FUZZY_OVERLAP_THRESHOLD:
            return QUOTE_FUZZY
    return QUOTE_ABSENT


def _attach_quote_checks(concerns: list[Concern], group: BatchGroup) -> list[Concern]:
    text = GroupText(group)
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
    gateway: Gateway, group: BatchGroup, config: StudyConfig
) -> Union[list[Concern], GatewayFailure]:
    """Run the generation stage for one batch group.

    A group whose prompt exceeds the context budget is split into
    singleton groups rather than truncated (truncation would silently
    bias toward thread openings).
    """
    try:
        prompt = render_generation_prompt(group, config)
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
            sub = generate_for_group(gateway, singleton, config)
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
    unquoted form the prompt itself demonstrates ({1: A, 2: B}).

    Every serial must be an integer and every letter one ASCII letter;
    a JSON value such as null, a list or "AB" raises MalformedStageOutput,
    so the prompt is re-asked rather than the concern counted as "Other".
    """
    body = strip_code_fences(text)
    try:
        data = json.loads(body)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        mapping: dict[int, str] = {}
        for serial, value in data.items():
            letter = value.strip() if isinstance(value, str) else ""
            if not (len(letter) == 1 and letter.isascii() and letter.isalpha()):
                raise MalformedStageOutput(f"serial {serial}: {value!r} is not one letter")
            try:
                mapping[int(serial)] = letter.upper()
            except ValueError:
                raise MalformedStageOutput(f"not an integer serial: {serial!r}") from None
        return mapping
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
    gateway: Gateway, concerns: Sequence[Concern], config: StudyConfig, chunk_index: int
) -> LetterResult:
    prompt = render_classification_prompt(concerns, config)
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
    violations, a title or description that is missing or not a string, and
    a bool or fractional rank all raise MalformedStageOutput (callers retry)."""
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
        rank = item.get("concern_rank", item.get("rank"))
        title = item.get("concern_title", item.get("title"))
        description = item.get("concern_description", item.get("description"))
        rank = parse_rank(rank)
        if rank is None:
            raise MalformedStageOutput(f"bad sub-theme rank in {item!r}")
        if not (isinstance(title, str) and isinstance(description, str)):
            raise MalformedStageOutput(f"sub-theme title and description must be"
                                       f" strings in {item!r}")
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
        prompt = render_aggregation_prompt(category, theme_concerns, config)
        return ask(prompt, f"agg:{theme}")

    candidates: list[SubThemeSet] = []
    for j, (start, end) in enumerate(slices, start=1):
        prompt = render_aggregation_prompt(category, theme_concerns[start:end], config)
        result = ask(prompt, f"agg:{theme}:map:{j}")
        if isinstance(result, GatewayFailure):
            return result
        candidates.append(result)

    merge_prompt = render_merge_prompt(category, candidates, config)
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
) -> LetterResult:
    prompt = render_prevalence_prompt(subthemes, concerns, config.template_dir)
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

