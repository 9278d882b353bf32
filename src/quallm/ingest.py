"""Forum archive ingestion: parse dumps, rebuild threads, filter, batch.

Input dumps are newline-delimited JSON, one record per line, with the
field names used by the common public Reddit archive exports:
submissions carry ``id``/``title``/``selftext``/``created_utc`` and
comments carry ``id``/``link_id``/``body``/``created_utc``.  All
operations here are pure over their inputs and safe to call from
multiple threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Union

from . import ndjson
from .models import BatchGroup, ForumComment, ForumSubmission, ThreadDocument

# Placeholder bodies left behind by moderation/deletion; they carry no
# analyzable content and are treated as empty text.
DELETED_MARKERS = frozenset({"[deleted]", "[removed]"})

_GROUP_KEY_HEX_LEN = 16


@dataclass
class ParseResult:
    """Records recovered from one dump stream plus the skipped-line count."""

    records: list
    skipped: int
    skip_reasons: dict[str, int] = field(default_factory=dict)


@dataclass
class ThreadBuildResult:
    documents: list[ThreadDocument]
    orphan_comments: int
    duplicate_submissions: int


def _clean_body(value: object) -> str:
    text = value if isinstance(value, str) else ""
    if text.strip() in DELETED_MARKERS:
        return ""
    return text


def _parse_submission(record: dict) -> ForumSubmission:
    return ForumSubmission(
        id=str(record["id"]),
        title=record.get("title") if isinstance(record.get("title"), str) else "",
        body=_clean_body(record.get("selftext")),
        created_at=int(record["created_utc"]),
    )


def _parse_comment(record: dict) -> ForumComment:
    link_id = str(record["link_id"])
    if link_id.startswith("t3_"):
        link_id = link_id[3:]
    return ForumComment(
        id=str(record["id"]),
        submission_id=link_id,
        body=_clean_body(record.get("body")),
        created_at=int(record["created_utc"]),
    )


def parse_archive(stream: Union[IO[str], Iterable[str]], kind: str) -> ParseResult:
    """Parse a line-oriented dump stream into submissions or comments.

    Malformed lines and records of the wrong kind are skipped and counted,
    never fatal; I/O errors from the stream itself propagate.

    Args:
        stream: An iterable of lines (an open text file qualifies).
        kind: "submissions" or "comments".

    Returns:
        ParseResult with the parsed records and per-reason skip counts.
    """
    if kind not in ("submissions", "comments"):
        raise ValueError(f"kind must be 'submissions' or 'comments', got {kind!r}")

    records: list = []
    reasons: dict[str, int] = {}

    def skip(reason: str) -> None:
        reasons[reason] = reasons.get(reason, 0) + 1

    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            skip("invalid_json")
            continue
        if not isinstance(raw, dict):
            skip("not_an_object")
            continue
        # Kind sniffing: comments always carry link_id, submissions never do.
        if kind == "submissions" and "link_id" in raw:
            skip("kind_mismatch")
            continue
        if kind == "comments" and "link_id" not in raw:
            skip("kind_mismatch")
            continue
        try:
            if kind == "submissions":
                records.append(_parse_submission(raw))
            else:
                records.append(_parse_comment(raw))
        except (KeyError, TypeError, ValueError):
            skip("missing_or_bad_field")
            continue

    return ParseResult(
        records=records, skipped=sum(reasons.values()), skip_reasons=reasons
    )


def parse_archive_file(path: Path, kind: str) -> ParseResult:
    with path.open("r", encoding="utf-8") as fh:
        return parse_archive(fh, kind)


def build_threads(
    submissions: Iterable[ForumSubmission],
    comments: Iterable[ForumComment],
) -> ThreadBuildResult:
    """Reconstruct one ThreadDocument per submission.

    Comment bodies are appended in chronological order (ties broken by
    comment id); comments whose submission is missing are dropped and
    counted as orphans.  A duplicated submission id keeps the first
    occurrence only.
    """
    by_id: dict[str, ForumSubmission] = {}
    order: list[str] = []
    duplicates = 0
    for sub in submissions:
        if sub.id in by_id:
            duplicates += 1
            continue
        by_id[sub.id] = sub
        order.append(sub.id)

    attached: dict[str, list[ForumComment]] = {sid: [] for sid in by_id}
    orphans = 0
    for comment in comments:
        bucket = attached.get(comment.submission_id)
        if bucket is None:
            orphans += 1
            continue
        bucket.append(comment)

    documents: list[ThreadDocument] = []
    for sid in order:
        sub = by_id[sid]
        thread_comments = sorted(attached[sid], key=lambda c: (c.created_at, c.id))
        parts = [sub.title, sub.body] + [c.body for c in thread_comments]
        documents.append(
            ThreadDocument(
                submission_id=sid,
                text="\n".join(parts),
                created_at=sub.created_at,
                comment_count=len(thread_comments),
            )
        )

    return ThreadBuildResult(
        documents=documents, orphan_comments=orphans, duplicate_submissions=duplicates
    )


def filter_short(
    docs: Iterable[ThreadDocument], min_chars: int
) -> tuple[list[ThreadDocument], int]:
    """Keep documents whose text is at least *min_chars* long (inclusive)."""
    if min_chars < 1:
        raise ValueError("min_chars must be >= 1")
    retained: list[ThreadDocument] = []
    dropped = 0
    for doc in docs:
        if len(doc.text) >= min_chars:
            retained.append(doc)
        else:
            dropped += 1
    return retained, dropped


def derive_group_key(submission_ids: Iterable[str]) -> str:
    """Stable hex key from the sorted member ids; identical across re-runs."""
    joined = "\n".join(sorted(submission_ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:_GROUP_KEY_HEX_LEN]


def group_batches(docs: list[ThreadDocument], group_size: int) -> list[BatchGroup]:
    """Partition documents, in input order, into groups of at most *group_size*."""
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    groups: list[BatchGroup] = []
    for start in range(0, len(docs), group_size):
        members = tuple(docs[start : start + group_size])
        groups.append(
            BatchGroup(
                group_key=derive_group_key(m.submission_id for m in members),
                members=members,
                earliest_timestamp=min(m.created_at for m in members),
            )
        )
    return groups


def write_groups(path: Path, groups: Iterable[BatchGroup]) -> int:
    return ndjson.write_records(path, (g.to_dict() for g in groups))


def read_groups(path: Path) -> list[BatchGroup]:
    return [BatchGroup.from_dict(record) for record in ndjson.iter_records(path)]
