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
inputs changed re-run.  Records of older versions have no digest; see
``_legacy_current``.  A corrupt checkpoint line, or one whose payload
lacks what its stage reads, is quarantined, so its unit re-runs.

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
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

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
    ThemeCategory,
)
from .stages import (
    LetterResult,
    chunk_slices,
    classify_chunk,
    generate_for_group,
    prevalence_chunk,
    run_aggregation,
)

logger = logging.getLogger(__name__)

# call(chunk_index, chunk) -> result of one serial->letter chunk
LetterCall = Callable[[int, Sequence[Concern]], LetterResult]

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


def _legacy_current(paths: RunPaths, stage: str) -> bool:
    """Whether the stage's records without a digest are current.  Older
    versions wrote them under the fingerprint of the stage's input files in
    ``checkpoints/<stage>.meta.json``, discarded when it changed, so they
    hold while it still matches.  Nothing writes that file now."""
    inputs = {STAGE_GENERATE: [paths.groups], STAGE_CLASSIFY: [paths.concerns]}.get(
        stage, [paths.theme_assignments, paths.concerns])
    if stage == STAGE_PREVALENCE:
        inputs += paths.subtheme_files()
    try:
        meta = ndjson.read_json(paths.checkpoint(stage).with_suffix(".meta.json"))
        recorded = meta["input_fingerprint"]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return False
    fingerprint = hashlib.sha256()
    for path in inputs:
        fingerprint.update(path.name.encode())
        fingerprint.update(path.read_bytes() if path.exists() else b"<missing>")
    return recorded == fingerprint.hexdigest()


T = TypeVar("T")


def _unit_record(result: Union[T, GatewayFailure], payload: Callable[[T], dict]) -> dict:
    """Checkpoint line of one unit, but for the ``key`` and ``digest`` that
    ``_run_units`` adds: ``{status: "ok", payload}`` or
    ``{status: "failed", category, detail, attempts}``."""
    if isinstance(result, GatewayFailure):
        return {
            "status": "failed",
            "category": result.category,
            "detail": result.detail,
            "attempts": result.attempts,
        }
    return {"status": "ok", "payload": payload(result)}


def _keyed(key: str, digest: str, run: Callable[[], dict]) -> dict:
    return {"key": key, "digest": digest, **run()}


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
    """Executes stages with a bounded worker pool and per-unit checkpoints."""

    def __init__(
        self,
        paths: RunPaths,
        study: StudyConfig,
        gateway: Gateway,
        workers: int,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.paths = paths
        self.study = study
        self.gateway = gateway
        self.workers = workers

    # -- generic unit execution ------------------------------------------

    def _run_units(
        self,
        stage: str,
        units: Sequence[tuple[str, str, Callable[[], dict]]],
        retry_failed: bool,
        check: Callable[[dict], Any],
    ) -> tuple[list[dict], StageReport]:
        """Run the pending (key, digest, run) *units*, ``run()`` returning
        a ``_unit_record``; return their records in unit order and the stage
        report.  A unit is pending unless its key's record carries its digest
        (and, with *retry_failed*, is ok).  *check* is the stage's payload
        check (see ``Checkpoint.load``)."""
        checkpoint = Checkpoint(self.paths.checkpoint(stage),
                                self.paths.quarantine(stage))
        checkpoint.path.parent.mkdir(parents=True, exist_ok=True)
        done = checkpoint.load(check)
        legacy = (any("digest" not in record for record in done.values())
                  and _legacy_current(self.paths, stage))

        def current(key: str, digest: str) -> bool:
            record = done.get(key)
            if record is None or (retry_failed and record["status"] == "failed"):
                return False
            return record["digest"] == digest if "digest" in record else legacy

        pending = [functools.partial(_keyed, key, digest, run)
                   for key, digest, run in units if not current(key, digest)]

        tokens_before = self.gateway.tokens
        executed = self._execute(pending, checkpoint, done)
        tokens_after = self.gateway.tokens

        entries = [done[key] for key, _, _ in units]
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
        retry_failed: bool,
    ) -> StageReport:
        """Run serial->letter chunks (classify, prevalence) and write their
        assignments to *output*.

        *themes* holds (theme, context, concerns, call) tuples;
        ``call(index, chunk)`` answers one chunk, and each chunk's digest
        covers the *context* fields and its concerns. Classification passes
        a single tuple with theme "" and no context, so its unit keys are
        bare chunk numbers and its assignments carry no theme.
        """
        units = []
        for theme, context, concerns, call in themes:
            slices = chunk_slices(len(concerns), chunk_size)
            for index, (start, end) in enumerate(slices, start=1):
                chunk = concerns[start:end]
                units.append((
                    f"{theme}:{index}" if theme else str(index),
                    _digest(chain(context, _concern_fields(chunk))),
                    functools.partial(_letter_unit, theme, index, chunk, call),
                ))
        check = _assignment_check(themed=any(theme for theme, *_ in themes))
        entries, report = self._run_units(stage, units, retry_failed, check)

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

    def stage_generate(self, retry_failed: bool = False) -> StageReport:
        if not self.paths.groups.exists():
            raise PipelineOrderError(STAGE_GENERATE, "ingest")
        groups = read_groups(self.paths.groups)

        def generate(group: BatchGroup) -> dict:
            return _unit_record(
                generate_for_group(self.gateway, group, self.study),
                lambda concerns: {"concerns": [c.to_dict() for c in concerns]},
            )

        units = [(g.group_key, _digest(_member_fields(g)), functools.partial(generate, g))
                 for g in groups]
        entries, report = self._run_units(STAGE_GENERATE, units, retry_failed,
                                          _check_concerns)

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

    def stage_classify(self, retry_failed: bool = False) -> StageReport:
        if not self.paths.concerns.exists():
            raise PipelineOrderError(STAGE_CLASSIFY, STAGE_GENERATE)
        concerns = load_concerns(self.paths.concerns)

        def classify(index: int, chunk: Sequence[Concern]) -> LetterResult:
            return classify_chunk(self.gateway, chunk, self.study, index)

        report = self._run_letter_chunks(
            STAGE_CLASSIFY,
            [("", (), concerns, classify)],
            self.study.classification_chunk_size,
            self.paths.theme_assignments,
            retry_failed,
        )
        report.extras["concerns_in"] = len(concerns)
        self._write_summary(report)
        return report

    # -- stage: aggregate ----------------------------------------------------

    def stage_aggregate(self, retry_failed: bool = False) -> StageReport:
        theme_concerns = themed_concerns(self.paths, STAGE_AGGREGATE)

        def aggregate(category: ThemeCategory, concerns: list[Concern]) -> dict:
            return _unit_record(
                run_aggregation(self.gateway, category, concerns, self.study),
                lambda subthemes: {"subthemes": subthemes.to_dict()},
            )

        units = [
            (category.code, _digest(_concern_fields(concerns)),
             functools.partial(aggregate, category, concerns))
            for category in self.study.taxonomy.active
            if (concerns := theme_concerns.get(category.code))
        ]
        entries, report = self._run_units(STAGE_AGGREGATE, units, retry_failed,
                                          _check_subthemes)

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

    def stage_prevalence(self, retry_failed: bool = False) -> StageReport:
        subtheme_sets = load_subtheme_sets(self.paths, STAGE_PREVALENCE)
        theme_concerns = themed_concerns(self.paths, STAGE_PREVALENCE)

        def assigner(subthemes: SubThemeSet) -> LetterCall:
            def assign(index: int, chunk: Sequence[Concern]) -> LetterResult:
                return prevalence_chunk(self.gateway, subthemes, chunk, self.study, index)

            return assign

        themes = [
            (s.theme,
             (str(len(s.entries)), *chain.from_iterable((e.title, e.description)
                                                        for e in s.by_rank())),
             theme_concerns.get(s.theme, []), assigner(s))
            for s in subtheme_sets
        ]
        report = self._run_letter_chunks(
            STAGE_PREVALENCE,
            themes,
            self.study.prevalence_chunk_size,
            self.paths.subtheme_assignments,
            retry_failed,
        )
        report.extras["themed_concerns"] = {
            theme: len(concerns) for theme, _, concerns, _ in themes
        }
        self._write_summary(report)
        return report

    # -- whole runs -----------------------------------------------------------

    def run_stage(self, stage: str, retry_failed: bool = False) -> StageReport:
        """Run one of STAGES by name."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        # Looked up per call, so a wrapped stage method is the one that runs.
        return getattr(self, f"stage_{stage}")(retry_failed)

    def run_all(self, retry_failed: bool = False) -> list[StageReport]:
        return [self.run_stage(stage, retry_failed) for stage in STAGES]

    def retry_failed(self) -> list[StageReport]:
        """Re-execute failed units of every stage that has already run."""
        return [
            self.run_stage(stage, retry_failed=True)
            for stage in STAGES
            if self.paths.checkpoint(stage).exists()
        ]


def _letter_unit(theme: str, index: int, chunk: Sequence[Concern], call: LetterCall) -> dict:
    def payload(result: tuple[list[str], int]) -> dict:
        letters, remapped = result
        assignments = []
        for concern, letter in zip(chunk, letters):
            record = {"concern_id": concern.concern_id, "code": letter}
            if theme:
                record["theme"] = theme
            assignments.append(record)
        return {"assignments": assignments, "remapped": remapped}

    return _unit_record(call(index, chunk), payload)


def _count_values(records: Iterable[dict], field_name: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        value = str(record.get(field_name))
        counts[value] = counts.get(value, 0) + 1
    return counts


def load_concerns(path: Path) -> list[Concern]:
    return [Concern.from_dict(r) for r in ndjson.iter_records(path)]


def themed_concerns(paths: RunPaths, stage: str) -> dict[str, list[Concern]]:
    """Concerns grouped by assigned theme code, in concern_id order.

    Concerns of a failed classification chunk have no assignment and are
    left out.  Raises PipelineOrderError for *stage*, naming each of
    generate and classify whose output is missing.
    """
    required = ((paths.concerns, STAGE_GENERATE), (paths.theme_assignments, STAGE_CLASSIFY))
    missing = [producer for path, producer in required if not path.exists()]
    if missing:
        raise PipelineOrderError(stage, *missing)
    code_by_id = {
        a["concern_id"]: a["code"] for a in ndjson.iter_records(paths.theme_assignments)
    }
    out: dict[str, list[Concern]] = {}
    for concern in load_concerns(paths.concerns):
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
