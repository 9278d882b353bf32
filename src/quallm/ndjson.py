"""Newline-delimited JSON helpers used by every stage that touches disk."""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, BinaryIO, Iterable, Iterator, Optional

# Holds only settings, so one instance serves every thread.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def dumps(record: Any) -> str:
    """Canonical single-line encoding (sorted keys, raw unicode)."""
    return _ENCODER.encode(record)


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


class Appender:
    """An append-only file held open (``O_APPEND``) for many writes.

    Each ``write`` hands its whole text to the kernel in one ``os.write``
    before it returns, so a killed process loses nothing written.  Nothing
    is durable until ``sync``: an operating-system crash may lose, or tear,
    whatever was written after the last ``sync``.  The file is created on
    open.
    """

    def __init__(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        # A regular file takes the whole buffer unless the disk is full.
        while data:
            data = data[os.write(self._fd, data):]

    def sync(self) -> None:
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "Appender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def append_record(out: Appender, record: Any) -> None:
    """Write one record as one line to *out*; durable at its next sync."""
    out.write(dumps(record) + "\n")


def iter_records(path: Path, source: Optional[BinaryIO] = None) -> Iterator[Any]:
    """Yield parsed records, as iter_numbered does, without line numbers."""
    for _, record in iter_numbered(path, source):
        yield record


def iter_numbered(path: Path,
                  source: Optional[BinaryIO] = None) -> Iterator[tuple[int, Any]]:
    """Yield (line number, record) pairs, skipping blank lines; corrupt
    JSON raises ValueError naming the file and line.  *source*, when given,
    is *path* already opened in binary mode: it is read from its current
    position, and closed."""
    opened = (path.open("r", encoding="utf-8") if source is None
              else io.TextIOWrapper(source, encoding="utf-8"))
    with opened as fh:
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
