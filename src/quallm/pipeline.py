"""Checkpointed execution of the four prompting stages over a run directory.

Layout under the run directory (``RunPaths`` is the only code that
builds these paths):

    groups.ndjson                  ingest output (batch groups)
    concerns.ndjson                generation output, sorted by concern_id
    theme_assignments.ndjson       classification output
    subthemes_<L>.json             aggregation output, one file per theme
                                   that aggregated in the latest run
    subtheme_assignments.ndjson    prevalence output
    checkpoints/<stage>.ndjson     per-unit progress (append-only)
    checkpoints/<stage>.quarantine.ndjson
                                   corrupt checkpoint lines, set aside
    summaries/<stage>.json         deterministic stage summary
    llm_log.ndjson                 one line per backend call
    report.md                      theme report (``report``)
    distribution.csv               theme distribution table (``report``)
    theme_<L>.csv                  prevalence table of each theme with a
                                   sub-theme set (``report``)
    cost.md                        token cost table (``cost``)
    metrics.json, metrics.md       evaluation metrics (``eval``)

A command run before the stage that writes its input raises
``PipelineOrderError`` naming that stage.

Units (groups, chunks, themes) checkpoint as they complete, each record
with the digest of the inputs its unit answered.  A unit is pending
unless its key's record carries its current digest: a resumed run skips
completed units, a finished stage re-invocation makes no backend calls
and rewrites identical outputs, and after an input change (retry-failed
adds concerns upstream, a chunk size changes) only the units whose
inputs changed re-run.  A record without a digest (written before
records carried one) is pending, so its unit re-runs once.  A runner
that retries failed units also re-runs the units whose record failed.
A corrupt checkpoint line, or one whose payload lacks what its stage
reads, is quarantined, so its unit re-runs.

A runner reads ``concerns.ndjson`` and ``theme_assignments.ndjson``
through one ``RunInputs``, which keys each parsed value on the sha256 of
the file's bytes.  So one command (``run-all``, ``retry-failed``) parses
each of them at most once although three stages read them, and a file
replaced since its last parse, by an earlier stage or by anything else,
is parsed again.

Each stage rebuilds its whole output set from its checkpoint. Outputs
and summaries are replaced atomically (written to a temp file, then
renamed), so a crash mid-write leaves the previous version; aggregate
removes the ``subthemes_<L>.json`` of every theme it did not write in
that run, so a theme that lost its concerns, or whose aggregation now
fails, reaches neither prevalence nor report nor eval.

Durability (group commit).  While units run, the runner's commit is the
only place that fsyncs.  Workers write run-log lines without syncing; the main thread
collects every unit that has finished since its last commit, fsyncs the
run log, then writes the batch's checkpoint records in one write and one
fsync.  So:

- a killed process loses nothing it wrote: every log line and record
  reaches the kernel in one write before its call or commit returns;
- no checkpoint record becomes durable before the log lines of its
  unit's calls;
- a unit counts as executed only once its record is durable;
- while no unit finishes, the log is still synced once a second;
- an operating-system crash loses at most what was written since the
  last sync: those units have no durable record and re-run on resume;
- on an exception in the main thread (``KeyboardInterrupt`` included),
  the runner cancels the units not started, waits for the running ones,
  commits every finished unit, syncs, and re-raises.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import queue
from contextlib import closing
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from . import ndjson
from .gateway import FAILURE_CATEGORIES, Gateway, GatewayFailure
from .ingest import read_groups
from .models import (
    BatchGroup,
    Concern,
    StudyConfig,
    SubThemeAssignment,
    SubThemeSet,
    ThemeAssignment,
)
from .prompts import check_templates
from .stages import (
    LetterResult,
    chunk_slices,
    classify_chunk,
    generate_for_group,
    prevalence_chunk,
    run_aggregation,
)

logger = logging.getLogger(__name__)

# A letter-chunk unit function with its leading arguments bound:
# call(chunk, study, chunk_index) answers one serial->letter chunk.
LetterCall = Callable[[Sequence[Concern], StudyConfig, int], LetterResult]

# (key, digest, ask, payload): ask() returns the unit's value or its
# GatewayFailure, and payload(value) the ok record's payload.
Unit = tuple[str, str, Callable[[], Any], Callable[[Any], dict]]

STAGE_GENERATE = "generate"
STAGE_CLASSIFY = "classify"
STAGE_AGGREGATE = "aggregate"
STAGE_PREVALENCE = "prevalence"
STAGES = (STAGE_GENERATE, STAGE_CLASSIFY, STAGE_AGGREGATE, STAGE_PREVALENCE)


class PipelineOrderError(FileNotFoundError):
    """A command was invoked before the commands that write its input."""

    def __init__(self, command: str, *missing: str):
        names = " and ".join(f"'{name}'" for name in missing)
        super().__init__(
            f"'{command}' requires completed {names} output;"
            f" run {'it' if len(missing) == 1 else 'them'} first"
        )


class RunPaths:
    """All file locations derived from one run directory."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir = Path(run_dir)
        self.groups = run_dir / "groups.ndjson"
        self.concerns = run_dir / "concerns.ndjson"
        self.theme_assignments = run_dir / "theme_assignments.ndjson"
        self.subtheme_assignments = run_dir / "subtheme_assignments.ndjson"
        self.llm_log = run_dir / "llm_log.ndjson"
        self.report = run_dir / "report.md"
        self.distribution = run_dir / "distribution.csv"
        self.cost = run_dir / "cost.md"
        self.metrics = run_dir / "metrics.json"
        self.metrics_markdown = run_dir / "metrics.md"

    def subthemes(self, theme: str) -> Path:
        return self.run_dir / f"subthemes_{theme}.json"

    def subtheme_files(self) -> list[Path]:
        return sorted(self.run_dir.glob("subthemes_*.json"))

    def theme_table(self, theme: str) -> Path:
        return self.run_dir / f"theme_{theme}.csv"

    def theme_table_files(self) -> list[Path]:
        return sorted(self.run_dir.glob("theme_*.csv"))

    def checkpoint(self, stage: str) -> Path:
        return self.run_dir / "checkpoints" / f"{stage}.ndjson"

    def quarantine(self, stage: str) -> Path:
        return self.run_dir / "checkpoints" / f"{stage}.quarantine.ndjson"

    def summary(self, stage: str) -> Path:
        return self.run_dir / "summaries" / f"{stage}.json"


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


# Seconds the runner waits for a finished unit before it syncs the run log
# anyway; bounds how long a logged call stays unsynced.
SYNC_INTERVAL_S = 1.0


class Checkpoint:
    """Append-only per-unit progress log; the last entry per key wins.

    ``append`` commits a batch of records: one write, one fsync.  The file
    is held open from the first ``append`` until ``close``.
    """

    def __init__(self, path: Path, quarantine_path: Path):
        self.path = path
        self.quarantine_path = quarantine_path
        self._file: Optional[ndjson.Appender] = None

    def load(self, check: Callable[[dict], Any] = lambda payload: None) -> dict[str, dict]:
        """Read entries, quarantining corrupt lines so their units re-run.

        A line needs a string ``key``, and a failed line a category from
        ``FAILURE_CATEGORIES``.  ``check(payload)`` raises KeyError,
        TypeError or ValueError for an ``ok`` payload that lacks what the
        stage reads; its line is quarantined too.  When a line was
        quarantined or superseded by a later line of its key, the file is
        rewritten to the last good line of each key, in file order.
        """
        if not self.path.exists():
            return {}
        entries: dict[str, dict] = {}
        good_lines: dict[str, str] = {}  # key -> its last good line
        superseded = False
        bad_lines: list[str] = []
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                    key = record["key"]
                    if not isinstance(key, str):
                        raise TypeError("key must be a string")
                    status = record["status"]
                    if status == "ok":
                        if not isinstance(record.get("payload"), dict):
                            raise ValueError("ok entry without a payload object")
                        check(record["payload"])
                    elif status != "failed":
                        raise ValueError(f"bad status {status!r}")
                    elif record["category"] not in FAILURE_CATEGORIES:
                        raise ValueError("failed entry without a known category")
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    bad_lines.append(stripped)
                    continue
                superseded = superseded or key in good_lines
                good_lines.pop(key, None)  # re-inserted, so kept lines keep file order
                good_lines[key] = stripped
                entries[key] = record
        if bad_lines:
            logger.warning(
                "%s: quarantined %d corrupt checkpoint line(s)",
                self.path.name, len(bad_lines),
            )
            with ndjson.Appender(self.quarantine_path) as out:
                out.write("".join(line + "\n" for line in bad_lines))
                out.sync()
        if bad_lines or superseded:
            ndjson.write_text(
                self.path, "".join(line + "\n" for line in good_lines.values())
            )
        return entries

    def append(self, records: Sequence[dict]) -> None:
        """Commit *records*: they are durable when this returns."""
        if self._file is None:
            self._file = ndjson.Appender(self.path)
        self._file.write("".join(ndjson.dumps(record) + "\n" for record in records))
        self._file.sync()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def _check_concerns(payload: dict) -> None:
    for concern in payload["concerns"]:
        Concern.from_dict(concern)


def _check_subthemes(payload: dict) -> None:
    SubThemeSet.from_dict(payload["subthemes"])


def _assignment_check(themed: bool) -> Callable[[dict], None]:
    """The payload check of a letter-chunk stage; a *themed* stage's
    assignments carry their theme."""
    fields = ("concern_id", "code", "theme") if themed else ("concern_id", "code")

    def check(payload: dict) -> None:
        if type(payload.get("remapped", 0)) is not int:
            raise TypeError("remapped must be an integer")
        for assignment in payload["assignments"]:
            if not all(isinstance(assignment[name], str) for name in fields):
                raise TypeError(f"assignment fields {fields} must be strings")

    return check


def _digest(fields: Iterable[str]) -> str:
    """sha256 of *fields*, each prefixed by its length so no two sequences collide."""
    data = [text.encode("utf-8") for text in fields]
    return hashlib.sha256(b"".join(b"%d:%s" % (len(d), d) for d in data)).hexdigest()


def _member_fields(group: BatchGroup) -> Iterator[str]:
    return chain.from_iterable((m.submission_id, str(m.created_at), m.text)
                               for m in group.members)


def _concern_fields(concerns: Iterable[Concern]) -> Iterator[str]:
    return chain.from_iterable((c.concern_id, c.title, c.description) for c in concerns)


T = TypeVar("T")


def _record(key: str, digest: str, ask: Callable[[], Union[T, GatewayFailure]],
            payload: Callable[[T], dict]) -> dict:
    """Run one unit and return its checkpoint line: ``{key, digest, status:
    "ok", payload}`` or ``{key, digest, status: "failed", category, detail,
    attempts}``."""
    result = ask()
    if isinstance(result, GatewayFailure):
        return {
            "key": key,
            "digest": digest,
            "status": "failed",
            "category": result.category,
            "detail": result.detail,
            "attempts": result.attempts,
        }
    return {"key": key, "digest": digest, "status": "ok", "payload": payload(result)}


def _concerns_payload(concerns: Sequence[Concern]) -> dict:
    return {"concerns": [c.to_dict() for c in concerns]}


def _subthemes_payload(subthemes: SubThemeSet) -> dict:
    return {"subthemes": subthemes.to_dict()}


def _assignments(theme: str, chunk: Sequence[Concern], result: tuple[list[str], int]) -> dict:
    """Payload of a letter chunk; a *theme*'s assignments carry it."""
    letters, remapped = result
    assignments = []
    for concern, letter in zip(chunk, letters):
        record = {"concern_id": concern.concern_id, "code": letter}
        if theme:
            record["theme"] = theme
        assignments.append(record)
    return {"assignments": assignments, "remapped": remapped}


# ---------------------------------------------------------------------------
# Run-directory inputs
# ---------------------------------------------------------------------------


class RunInputs:
    """The stage inputs read from one run directory, each parsed at most
    once per content.

    A parsed value is keyed on the sha256 of the bytes it was parsed from,
    and the file is hashed again on every request: an unchanged file
    returns the value already parsed, and a file replaced since (by a
    stage, a user or another command) hashes differently and is parsed
    again.  So what a stage reads is always what its input files hold.
    Values are shared between requests; callers must not mutate them.
    ``load_concerns`` and ``themed_concerns`` do the parsing.
    """

    def __init__(self, paths: RunPaths):
        self.paths = paths
        # path -> (the sha256 digests its value rests on, the value)
        self._parsed: dict[Path, tuple[tuple[bytes, ...], Any]] = {}

    def _parse(self, path: Path, parse: Callable[[Path, BinaryIO], T],
               *rests_on: bytes) -> tuple[bytes, T]:
        """(sha256 of *path*'s bytes, ``parse(path, file)``), parsing only
        when those bytes or the *rests_on* digests changed.  The bytes are
        hashed and parsed through one open file, so a file replaced
        meanwhile cannot be parsed under another file's digest, and neither
        step holds the whole file in memory."""
        with path.open("rb") as fh:
            digest = hashlib.sha256()
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
            key = (*rests_on, digest.digest())
            held = self._parsed.get(path)
            if held is None or held[0] != key:
                fh.seek(0)
                held = self._parsed[path] = (key, parse(path, fh))
        return key[-1], held[1]

    def concerns(self, stage: str) -> list[Concern]:
        """``concerns.ndjson``; raises PipelineOrderError for *stage* when
        generate has not written it."""
        if not self.paths.concerns.exists():
            raise PipelineOrderError(stage, STAGE_GENERATE)
        return self._parse(self.paths.concerns, load_concerns)[1]

    def themed(self, stage: str) -> dict[str, list[Concern]]:
        """The concerns grouped by assigned theme code (``themed_concerns``).

        Raises PipelineOrderError for *stage*, naming each of generate and
        classify whose output is missing.
        """
        required = ((self.paths.concerns, STAGE_GENERATE),
                    (self.paths.theme_assignments, STAGE_CLASSIFY))
        missing = [producer for path, producer in required if not path.exists()]
        if missing:
            raise PipelineOrderError(stage, *missing)
        digest, concerns = self._parse(self.paths.concerns, load_concerns)
        return self._parse(
            self.paths.theme_assignments,
            lambda path, source: themed_concerns(concerns, path, source),
            digest,
        )[1]


@dataclass
class StageReport:
    stage: str
    units_total: int
    executed: int
    skipped: int
    ok: int
    failed: int
    failed_by_category: dict[str, int]
    extras: dict = field(default_factory=dict)
    # (input, output) tokens billed by this invocation; not in the summary,
    # which must not depend on how much was resumed.
    tokens: tuple[int, int] = (0, 0)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "units_total": self.units_total,
            "ok": self.ok,
            "failed": self.failed,
            "failed_by_category": self.failed_by_category,
            **self.extras,
        }


class PipelineRunner:
    """Executes stages with a bounded worker pool and per-unit checkpoints.

    Building one checks the study's prompt templates (``check_templates``),
    so a bad slot fails before any backend call.
    """

    def __init__(
        self,
        paths: RunPaths,
        study: StudyConfig,
        gateway: Gateway,
        workers: int,
        retry_failed: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        check_templates(study.template_dir)
        self.paths = paths
        self.study = study
        self.gateway = gateway
        self.workers = workers
        self.retry_failed = retry_failed
        self.inputs = RunInputs(paths)

    # -- generic unit execution ------------------------------------------

    def _run_units(
        self, stage: str, units: Sequence[Unit], check: Callable[[dict], Any]
    ) -> tuple[list[dict], StageReport]:
        """Run each pending unit of *units* through ``_record``; return the
        records of all *units* in unit order and the stage report.  A unit
        is pending unless its key's record carries its digest and, when
        the runner retries failed units, is ok.  *check* is the stage's
        payload check (see ``Checkpoint.load``)."""
        checkpoint = Checkpoint(self.paths.checkpoint(stage),
                                self.paths.quarantine(stage))
        checkpoint.path.parent.mkdir(parents=True, exist_ok=True)
        done = checkpoint.load(check)

        def current(key: str, digest: str) -> bool:
            record = done.get(key, {})
            return record.get("digest") == digest and not (
                self.retry_failed and record["status"] == "failed")

        pending = [functools.partial(_record, *unit)
                   for unit in units if not current(*unit[:2])]

        tokens_before = self.gateway.tokens
        executed = self._execute(pending, checkpoint, done)
        tokens_after = self.gateway.tokens

        entries = [done[key] for key, *_ in units]
        failed_by_category: dict[str, int] = {}
        for entry in entries:
            if entry["status"] != "ok":
                category = entry["category"]
                failed_by_category[category] = failed_by_category.get(category, 0) + 1
        failed = sum(failed_by_category.values())
        report = StageReport(
            stage=stage,
            units_total=len(units),
            executed=executed,
            skipped=len(units) - len(pending),
            ok=len(entries) - failed,
            failed=failed,
            failed_by_category=failed_by_category,
            tokens=(tokens_after[0] - tokens_before[0],
                    tokens_after[1] - tokens_before[1]),
        )
        return entries, report

    def _execute(self, fns: Sequence[Callable[[], dict]], checkpoint: Checkpoint,
                 done: dict[str, dict]) -> int:
        """Run *fns* in the worker pool, group-committing their records as
        they finish (see the module docstring); return how many committed."""
        # Each future puts itself here once, when it finishes or is cancelled.
        finished: queue.SimpleQueue[Future] = queue.SimpleQueue()
        batch: list[Future] = []
        executed = 0
        with closing(checkpoint), ThreadPoolExecutor(max_workers=self.workers) as pool:
            try:
                for fn in fns:
                    pool.submit(fn).add_done_callback(finished.put)
                remaining = len(fns)
                while remaining:
                    try:
                        batch.append(finished.get(timeout=SYNC_INTERVAL_S))
                    except queue.Empty:
                        self.gateway.sync()
                        continue
                    while not finished.empty():
                        batch.append(finished.get_nowait())
                    remaining -= len(batch)
                    executed += self._commit(checkpoint, batch, done)
            except BaseException:
                # Commit what finished, the units still running included.
                pool.shutdown(wait=True, cancel_futures=True)
                while not finished.empty():
                    batch.append(finished.get_nowait())
                self._commit(checkpoint, batch, done, raise_errors=False)
                self.gateway.sync()
                raise
        return executed

    def _commit(self, checkpoint: Checkpoint, batch: list[Future],
                done: dict[str, dict], raise_errors: bool = True) -> int:
        """Make the records of the finished futures in *batch* durable, the
        run log first, and empty *batch*; return how many were committed.

        A cancelled unit or one that raised has no record; with
        *raise_errors*, the first such error is raised after the commit.
        """
        records, errors = [], []
        for future in batch:
            if future.cancelled():
                continue
            error = future.exception()
            if error is None:
                records.append(future.result())
            else:
                errors.append(error)
        if records:
            self.gateway.sync()
            checkpoint.append(records)
            for record in records:
                done[record["key"]] = record
        batch.clear()
        if errors and raise_errors:
            raise errors[0]
        return len(records)

    def _run_letter_chunks(
        self,
        stage: str,
        themes: Sequence[tuple[str, Sequence[str], Sequence[Concern], LetterCall]],
        chunk_size: int,
        output: Path,
    ) -> StageReport:
        """Run serial->letter chunks (classify, prevalence) and write their
        assignments to *output*.

        *themes* holds (theme, context, concerns, call) tuples;
        ``call(chunk, study, index)`` answers one chunk, and each chunk's
        digest covers the *context* fields and its concerns. Classification
        passes a single tuple with theme "" and no context, so its unit keys
        are bare chunk numbers and its assignments carry no theme.
        """
        units = []
        for theme, context, concerns, call in themes:
            slices = chunk_slices(len(concerns), chunk_size)
            for index, (start, end) in enumerate(slices, start=1):
                chunk = concerns[start:end]
                units.append((
                    f"{theme}:{index}" if theme else str(index),
                    _digest(chain(context, _concern_fields(chunk))),
                    functools.partial(call, chunk, self.study, index),
                    functools.partial(_assignments, theme, chunk),
                ))
        check = _assignment_check(themed=any(theme for theme, *_ in themes))
        entries, report = self._run_units(stage, units, check)

        assignments: list[dict] = []
        remapped = 0
        for entry in entries:
            if entry["status"] == "ok":
                assignments.extend(entry["payload"]["assignments"])
                remapped += entry["payload"].get("remapped", 0)
        assignments.sort(key=lambda a: a["concern_id"])
        ndjson.write_records(output, assignments)

        # Each concern lies in one chunk and an ok chunk assigns all of its
        # concerns (the parity check), so the rest lie in failed chunks.
        concerns_in = sum(len(concerns) for _, _, concerns, _ in themes)
        report.extras = {
            "assigned": len(assignments),
            "failed_concerns": concerns_in - len(assignments),
            "remapped_to_catch_all": remapped,
        }
        return report

    def _write_summary(self, report: StageReport) -> None:
        ndjson.write_text(
            self.paths.summary(report.stage),
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
        )

    # -- stage: generate ---------------------------------------------------

    def stage_generate(self) -> StageReport:
        if not self.paths.groups.exists():
            raise PipelineOrderError(STAGE_GENERATE, "ingest")
        units = [
            (g.group_key, _digest(_member_fields(g)),
             functools.partial(generate_for_group, self.gateway, g, self.study),
             _concerns_payload)
            for g in read_groups(self.paths.groups)
        ]
        entries, report = self._run_units(STAGE_GENERATE, units, _check_concerns)

        concerns: list[dict] = []
        empty_groups = 0
        for entry in entries:
            if entry["status"] == "ok":
                got = entry["payload"]["concerns"]
                if not got:
                    empty_groups += 1
                concerns.extend(got)
        concerns.sort(key=lambda c: c["concern_id"])
        ndjson.write_records(self.paths.concerns, concerns)

        report.extras = {
            "concerns": len(concerns),
            "no_concern_groups": empty_groups,
            "quote_checks": _count_values(concerns, "quote_check"),
        }
        self._write_summary(report)
        return report

    # -- stage: classify ----------------------------------------------------

    def stage_classify(self) -> StageReport:
        concerns = self.inputs.concerns(STAGE_CLASSIFY)
        report = self._run_letter_chunks(
            STAGE_CLASSIFY,
            [("", (), concerns, functools.partial(classify_chunk, self.gateway))],
            self.study.classification_chunk_size,
            self.paths.theme_assignments,
        )
        report.extras["concerns_in"] = len(concerns)
        self._write_summary(report)
        return report

    # -- stage: aggregate ----------------------------------------------------

    def stage_aggregate(self) -> StageReport:
        theme_concerns = self.inputs.themed(STAGE_AGGREGATE)
        units = [
            (category.code, _digest(_concern_fields(concerns)),
             functools.partial(run_aggregation, self.gateway, category, concerns,
                               self.study),
             _subthemes_payload)
            for category in self.study.taxonomy.active
            if (concerns := theme_concerns.get(category.code))
        ]
        entries, report = self._run_units(STAGE_AGGREGATE, units, _check_subthemes)

        written = []
        for entry in entries:
            if entry["status"] == "ok":
                ndjson.write_text(
                    self.paths.subthemes(entry["key"]),
                    json.dumps(entry["payload"]["subthemes"], sort_keys=True,
                               indent=2, ensure_ascii=False) + "\n",
                )
                written.append(entry["key"])
        # A theme that lost its concerns or whose aggregation now fails must
        # not leave an older sub-theme set for prevalence, report and eval.
        keep = {self.paths.subthemes(key) for key in written}
        for path in self.paths.subtheme_files():
            if path not in keep:
                path.unlink()

        report.extras = {
            "themes_with_concerns": len(units),
            "subtheme_files": written,
        }
        self._write_summary(report)
        return report

    # -- stage: prevalence ----------------------------------------------------

    def stage_prevalence(self) -> StageReport:
        subtheme_sets = load_subtheme_sets(self.paths, STAGE_PREVALENCE)
        theme_concerns = self.inputs.themed(STAGE_PREVALENCE)
        themes = [
            (s.theme,
             (str(len(s.entries)), *chain.from_iterable((e.title, e.description)
                                                        for e in s.by_rank())),
             theme_concerns.get(s.theme, []),
             functools.partial(prevalence_chunk, self.gateway, s))
            for s in subtheme_sets
        ]
        report = self._run_letter_chunks(
            STAGE_PREVALENCE,
            themes,
            self.study.prevalence_chunk_size,
            self.paths.subtheme_assignments,
        )
        report.extras["themed_concerns"] = {
            theme: len(concerns) for theme, _, concerns, _ in themes
        }
        self._write_summary(report)
        return report

    # -- whole runs -----------------------------------------------------------

    def run_stage(self, stage: str) -> StageReport:
        """Run one of STAGES by name."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        # Looked up per call, so a wrapped stage method is the one that runs.
        return getattr(self, f"stage_{stage}")()

    def run_all(self) -> list[StageReport]:
        return [self.run_stage(stage) for stage in STAGES]


def _count_values(records: Iterable[dict], field_name: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        value = str(record.get(field_name))
        counts[value] = counts.get(value, 0) + 1
    return counts


def load_concerns(path: Path, source: BinaryIO) -> list[Concern]:
    """The concerns of the ``concerns.ndjson`` at *path*, read from
    *source*, that file opened in binary mode."""
    return [Concern.from_dict(r) for r in ndjson.iter_records(path, source)]


def themed_concerns(concerns: Iterable[Concern], assignments: Path,
                    source: BinaryIO) -> dict[str, list[Concern]]:
    """*concerns* grouped by the theme code the ``theme_assignments.ndjson``
    at *assignments* (read from *source*, that file opened in binary mode)
    gives them, each group in the order of *concerns*.

    Concerns of a failed classification chunk have no assignment and are
    left out.
    """
    code_by_id = {a["concern_id"]: a["code"]
                  for a in ndjson.iter_records(assignments, source)}
    out: dict[str, list[Concern]] = {}
    for concern in concerns:
        code = code_by_id.get(concern.concern_id)
        if code is not None:
            out.setdefault(code, []).append(concern)
    return out


def load_subtheme_sets(paths: RunPaths, stage: Optional[str] = None) -> list[SubThemeSet]:
    """Every theme's aggregation output, in file-name order.

    With *stage* given, an empty result raises PipelineOrderError for it.
    """
    files = paths.subtheme_files()
    if stage is not None and not files:
        raise PipelineOrderError(stage, STAGE_AGGREGATE)
    return [SubThemeSet.from_dict(ndjson.read_json(path)) for path in files]


def load_theme_assignments(path: Path) -> list[ThemeAssignment]:
    return [ThemeAssignment.from_dict(r) for r in ndjson.iter_records(path)]


def load_subtheme_assignments(path: Path) -> list[SubThemeAssignment]:
    return [SubThemeAssignment.from_dict(r) for r in ndjson.iter_records(path)]
