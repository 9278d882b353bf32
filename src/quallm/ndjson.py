"""Newline-delimited JSON helpers used by every stage that touches disk."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator


def dumps(record: Any) -> str:
    """Canonical single-line encoding (sorted keys, raw unicode)."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


@contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """Write to a sibling temp file that replaces *path* only on success.

    A failure part-way leaves the old *path* intact and no temp file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_records(path: Path, records: Iterable[Any]) -> int:
    """Replace *path* with one record per line; returns the record count."""
    count = 0
    with _replacing(path) as fh:
        for record in records:
            fh.write(dumps(record) + "\n")
            count += 1
    return count


def write_text(path: Path, text: str) -> None:
    """Replace *path* with *text*, as write_records does."""
    with _replacing(path) as fh:
        fh.write(text)


def append_text(path: Path, text: str) -> None:
    """Append *text* and fsync it so a crash loses at most the last line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def append_record(path: Path, record: Any) -> None:
    """Append one record, as append_text does."""
    append_text(path, dumps(record) + "\n")


def iter_records(path: Path) -> Iterator[Any]:
    """Yield parsed records, as iter_numbered does, without line numbers."""
    for _, record in iter_numbered(path):
        yield record


def iter_numbered(path: Path) -> Iterator[tuple[int, Any]]:
    """Yield (line number, record) pairs, skipping blank lines; corrupt
    JSON raises ValueError naming the file and line."""
    with path.open("r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}: line {number}: not valid JSON: {exc}"
                    ) from None
                yield number, record


def read_json(path: Path) -> Any:
    """Parse one JSON file; a syntax error names the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
