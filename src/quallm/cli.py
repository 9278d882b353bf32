"""Command-line entry point.

One subcommand per pipeline stage (the workflow pauses between stages
for human steps: taxonomy authoring after generation, quote selection
after aggregation), plus reporting and evaluation commands and a
``run-all`` convenience for mock/test runs.

Exit codes: 0 success, 2 input/config error, 3 a prerequisite output is
missing (the message names the stage to run), 4 backend exhaustion (a
stage finished with failed units).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import metrics as metrics_mod
from . import ndjson, report as report_mod, topics as topics_mod
from .config import BACKEND_LIVE, RunConfig, load_config
from .gateway import (
    Gateway,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    logged_tokens,
    token_count,
)
from .ingest import (
    build_threads,
    filter_short,
    group_batches,
    parse_archive_file,
    write_groups,
)
from .pipeline import (
    STAGE_CLASSIFY,
    STAGE_GENERATE,
    STAGE_PREVALENCE,
    STAGES,
    PipelineOrderError,
    PipelineRunner,
    RunPaths,
    StageReport,
    load_subtheme_assignments,
    load_subtheme_sets,
    load_theme_assignments,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ORDER = 3
EXIT_BACKEND = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _build_gateway(config: RunConfig, paths: RunPaths) -> Gateway:
    retry = RetryPolicy(
        max_attempts=config.max_attempts, base_delay=config.backoff_base
    )
    if config.backend == BACKEND_LIVE:
        backend = HttpBackend(config.endpoint, config.model, config.temperature,
                              config.max_output_tokens)
    else:
        if config.mock_script is not None:
            if not config.mock_script.exists():
                raise CliError(
                    f"mock script not found: {config.mock_script}", EXIT_INPUT
                )
            backend = MockBackend.from_script(
                config.mock_script, default_text=config.mock_default_text
            )
        else:
            backend = MockBackend([], default_text=config.mock_default_text)
    return Gateway(backend, retry=retry, run_log_path=paths.llm_log, seed=config.seed)


def _runner(config: RunConfig, paths: RunPaths, retry_failed: bool = False) -> PipelineRunner:
    paths.run_dir.mkdir(parents=True, exist_ok=True)
    return PipelineRunner(
        paths,
        config.study(),
        _build_gateway(config, paths),
        workers=config.concurrency,
        retry_failed=retry_failed,
    )


def _print_stage(report: StageReport) -> None:
    input_tokens, output_tokens = report.tokens
    print(
        f"[{report.stage}] units done: {report.ok}/{report.units_total}"
        f" (executed {report.executed}, resumed-skip {report.skipped})"
    )
    if report.failed:
        by_cat = ", ".join(
            f"{cat}={n}" for cat, n in sorted(report.failed_by_category.items())
        )
        print(f"[{report.stage}] failed: {report.failed} ({by_cat})")
    print(
        f"[{report.stage}] tokens this stage:"
        f" {input_tokens} in / {output_tokens} out"
    )


def _stage_exit(reports: Sequence[StageReport]) -> int:
    return EXIT_BACKEND if any(r.failed for r in reports) else EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    config, paths = _load(args)
    for label, path in (("submissions", args.submissions), ("comments", args.comments)):
        if not Path(path).exists():
            raise CliError(f"input not found: {label} file {path}", EXIT_INPUT)

    submissions = parse_archive_file(Path(args.submissions), "submissions")
    comments = parse_archive_file(Path(args.comments), "comments")
    threads = build_threads(submissions.records, comments.records)
    retained, dropped = filter_short(threads.documents, config.min_chars)
    groups = group_batches(retained, config.group_size)

    paths.run_dir.mkdir(parents=True, exist_ok=True)
    write_groups(paths.groups, groups)

    for label, parsed in (("submissions", submissions), ("comments", comments)):
        reasons = ", ".join(f"{reason}={n}"
                            for reason, n in sorted(parsed.skip_reasons.items()))
        print(f"{label} parsed: {len(parsed.records)}"
              f" (skipped {parsed.skipped}{': ' + reasons if reasons else ''})")
    print(f"duplicate submissions dropped: {threads.duplicate_submissions}")
    print(f"orphan comments dropped: {threads.orphan_comments}")
    print(f"threads retained: {len(retained)} (dropped short: {dropped},"
          f" min_chars={config.min_chars})")
    print(f"batch groups written: {len(groups)} (group_size={config.group_size})"
          f" -> {paths.groups}")
    return EXIT_OK


def _run_stages(args: argparse.Namespace, stage_names: Sequence[str]) -> int:
    runner = _runner(*_load(args))
    reports = []
    with runner.gateway:
        for name in stage_names:
            report = runner.run_stage(name)
            _print_stage(report)
            reports.append(report)
    return _stage_exit(reports)


def cmd_retry_failed(args: argparse.Namespace) -> int:
    """Re-run the failed units of every stage that has already run."""
    runner = _runner(*_load(args), retry_failed=True)
    paths = runner.paths

    before: dict[str, int] = {}
    for stage in STAGES:
        summary = paths.summary(stage)
        if summary.exists():
            before[stage] = ndjson.read_json(summary).get("failed", 0)

    with runner.gateway:
        reports = [runner.run_stage(stage) for stage in STAGES
                   if paths.checkpoint(stage).exists()]
    for report in reports:
        previous = before.get(report.stage, report.failed)
        print(
            f"[{report.stage}] failures: {previous} before -> {report.failed} after"
        )
        _print_stage(report)
    return _stage_exit(reports)


def cmd_report(args: argparse.Namespace) -> int:
    config, paths = _load(args)
    if not paths.theme_assignments.exists():
        raise PipelineOrderError("report", STAGE_CLASSIFY)
    # Tables without prevalence output would read as measured zero counts.
    if paths.subtheme_files() and not paths.subtheme_assignments.exists():
        raise PipelineOrderError("report", STAGE_PREVALENCE)
    taxonomy = config.load_taxonomy()
    theme_assignments = load_theme_assignments(paths.theme_assignments)

    subtheme_sets = load_subtheme_sets(paths)
    subtheme_assignments = (
        load_subtheme_assignments(paths.subtheme_assignments) if subtheme_sets else []
    )
    quotes = None
    if config.quotes is not None and config.quotes.exists():
        quotes = report_mod.load_quotes(config.quotes)

    written = report_mod.write_reports(
        paths, taxonomy, theme_assignments, subtheme_sets,
        subtheme_assignments, quotes,
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _ledger_tokens(path: Path) -> tuple[int, int]:
    """The two totals of a ``--ledger`` file."""
    data = ndjson.read_json(path)
    keys = ("total_input_tokens", "total_output_tokens")
    if not isinstance(data, dict) or any(data.get(key) is None for key in keys):
        raise CliError(f"ledger {path} must be an object with total_input_tokens"
                       " and total_output_tokens", EXIT_INPUT)
    input_tokens, output_tokens = (
        token_count(data[key], f"ledger {path}: {key}") for key in keys
    )
    return input_tokens, output_tokens


def cmd_cost(args: argparse.Namespace) -> int:
    config, paths = _load(args)
    if args.ledger:
        tokens = _ledger_tokens(Path(args.ledger))
    elif paths.llm_log.exists():
        tokens = logged_tokens(paths.llm_log)
    else:
        raise PipelineOrderError("cost", STAGE_GENERATE)
    breakdown = report_mod.cost_report(*tokens, config.input_rate, config.output_rate)
    path = report_mod.write_cost_report(paths, breakdown)
    print(report_mod.render_cost_table(breakdown), end="")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config, paths = _load(args)
    paths.run_dir.mkdir(parents=True, exist_ok=True)

    requested = [m.strip() for m in args.metrics.split(",") if m.strip()]
    known = {"factuality", "completeness", "accuracy", "fleiss", "aggregation"}
    unknown = [m for m in requested if m not in known]
    if unknown:
        raise CliError(f"unknown metric(s): {', '.join(unknown)}", EXIT_INPUT)

    reports: list[metrics_mod.MetricReport] = []
    for metric in requested:
        reports.extend(_evaluate_metric(metric, args, paths))

    metrics_mod.write_metrics(paths.metrics, reports)
    ndjson.write_text(paths.metrics_markdown,
                      metrics_mod.render_metrics_markdown(reports))
    print(paths.metrics)
    return EXIT_OK


def _require_file(value: Optional[str], flag_name: str) -> Path:
    # Missing evaluation inputs are state errors (exit 3), matching the
    # stage-output checks of report/cost.
    if not value:
        raise CliError(f"metric requires {flag_name}", EXIT_ORDER)
    path = Path(value)
    if not path.exists():
        raise CliError(f"input not found: {path}", EXIT_ORDER)
    return path


# Binomial-tested match metrics: judgments flag, direction, ratio.
_MATCH_METRICS = {
    "factuality": (
        "--factuality-judgments", metrics_mod.DIRECTION_FACTUALITY, metrics_mod.factuality
    ),
    "completeness": (
        "--completeness-judgments",
        metrics_mod.DIRECTION_COMPLETENESS,
        metrics_mod.completeness,
    ),
}


def _evaluate_metric(
    metric: str, args: argparse.Namespace, paths: RunPaths
) -> list[metrics_mod.MetricReport]:
    if metric in _MATCH_METRICS:
        flag, direction, ratio = _MATCH_METRICS[metric]
        judgments = metrics_mod.load_judgments(
            _require_file(getattr(args, flag[2:].replace("-", "_")), flag), direction
        )
        value = ratio(judgments)
        chance = args.chance_p if args.chance_p is not None else 0.5
        p_value, significant = metrics_mod.binomial_significance(
            judgments.yes_count, len(judgments.judgments), chance
        )
        return [
            metrics_mod.MetricReport(
                name=metric,
                value=value,
                sample_size=len(judgments.judgments),
                p_value=p_value,
                significant=significant,
                details={"chance_p": chance},
            )
        ]
    if metric == "accuracy":
        gold = metrics_mod.single_annotator_labels(
            metrics_mod.load_labels(_require_file(args.gold, "--gold"))
        )
        predicted = metrics_mod.single_annotator_labels(
            metrics_mod.load_labels(_require_file(args.predicted, "--predicted"))
        )
        value = metrics_mod.accuracy(gold, predicted)
        labels = set(gold.values()) | set(predicted.values())
        if args.chance_p is not None:
            chance: Optional[float] = args.chance_p
        elif len(labels) >= 2:
            chance = metrics_mod.default_chance_p(len(labels))
        else:
            chance = None
        p_value = significant = None
        if chance is not None:
            matches = round(value * len(gold))
            p_value, significant = metrics_mod.binomial_significance(
                matches, len(gold), chance
            )
        return [
            metrics_mod.MetricReport(
                name="accuracy",
                value=value,
                sample_size=len(gold),
                p_value=p_value,
                significant=significant,
                details={"chance_p": chance} if chance is not None else {},
            )
        ]
    if metric == "fleiss":
        items = metrics_mod.load_labels(_require_file(args.labels, "--labels"))
        rows = metrics_mod.annotation_matrix(items)
        value = metrics_mod.fleiss_kappa(rows)
        return [
            metrics_mod.MetricReport(
                name="fleiss_kappa", value=value, sample_size=len(rows)
            )
        ]
    # aggregation alignment
    topics_dir = _require_file(args.topics_dir, "--topics-dir") if args.topics_dir else None
    if topics_dir is not None and not topics_dir.is_dir():
        raise CliError(f"--topics-dir is not a directory: {topics_dir}", EXIT_INPUT)
    params = topics_mod.TopicParams(
        min_topic_size=args.min_topic_size,
        similarity_threshold=args.similarity_threshold,
    )
    evaluation = topics_mod.evaluate_aggregation(
        paths.run_dir, params, external_topics_dir=topics_dir
    )
    per_theme = {
        t.theme: {
            "distinctness": t.distinctness,
            "coverage": {str(k): v for k, v in t.coverage.items()},
            "assigned": t.assigned,
            "zero_similarity": t.zero_similarity,
            "error": t.error,
        }
        for t in evaluation.per_theme
    }
    out = [
        metrics_mod.MetricReport(
            name="distinctness_mean",
            value=evaluation.mean_distinctness,
            sample_size=evaluation.subtheme_total,
            details={"per_theme": per_theme},
        ),
        metrics_mod.MetricReport(
            name="distinctness_pooled",
            value=evaluation.pooled_distinctness,
            sample_size=evaluation.subtheme_total,
        ),
    ]
    for k in sorted(evaluation.mean_coverage):
        out.append(
            metrics_mod.MetricReport(
                name=f"coverage_{k}_mean",
                value=evaluation.mean_coverage[k],
                sample_size=evaluation.subtheme_total,
            )
        )
        out.append(
            metrics_mod.MetricReport(
                name=f"coverage_{k}_pooled",
                value=evaluation.pooled_coverage[k],
                sample_size=evaluation.subtheme_total,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _load(args: argparse.Namespace) -> tuple[RunConfig, RunPaths]:
    override = Path(args.run_dir) if getattr(args, "run_dir", None) else None
    try:
        config = load_config(Path(args.config), run_dir_override=override)
    except (FileNotFoundError, ValueError) as exc:
        raise CliError(str(exc), EXIT_INPUT) from exc
    assert config.run_dir is not None
    return config, RunPaths(config.run_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quallm",
        description="Forum-archive theme analysis pipeline and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", "-c", required=True, help="key=value config file")
        p.add_argument("--run-dir", help="run directory (overrides config run_dir)")

    p_ingest = sub.add_parser("ingest", help="parse dumps into batch groups")
    add_common(p_ingest)
    p_ingest.add_argument("--submissions", required=True)
    p_ingest.add_argument("--comments", required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    for name, stages in [(stage, (stage,)) for stage in STAGES] + [("run-all", STAGES)]:
        p_stage = sub.add_parser(name, help=f"run the {name} stage(s)")
        add_common(p_stage)
        p_stage.set_defaults(func=lambda a, s=stages: _run_stages(a, s))

    p_retry = sub.add_parser("retry-failed", help="re-execute failed units")
    add_common(p_retry)
    p_retry.set_defaults(func=cmd_retry_failed)

    p_report = sub.add_parser("report", help="write theme/prevalence reports")
    add_common(p_report)
    p_report.set_defaults(func=cmd_report)

    p_cost = sub.add_parser("cost", help="write the token cost report")
    add_common(p_cost)
    p_cost.add_argument(
        "--ledger",
        help="JSON file with total_input_tokens/total_output_tokens"
        " (default: sum the run log)",
    )
    p_cost.set_defaults(func=cmd_cost)

    p_eval = sub.add_parser("eval", help="compute evaluation metrics")
    add_common(p_eval)
    p_eval.add_argument(
        "--metrics",
        required=True,
        help="comma list: factuality,completeness,accuracy,fleiss,aggregation",
    )
    p_eval.add_argument("--factuality-judgments")
    p_eval.add_argument("--completeness-judgments")
    p_eval.add_argument("--gold")
    p_eval.add_argument("--predicted")
    p_eval.add_argument("--labels")
    p_eval.add_argument("--chance-p", type=float, default=None)
    p_eval.add_argument("--topics-dir")
    p_eval.add_argument("--min-topic-size", type=int, default=100)
    p_eval.add_argument("--similarity-threshold", type=float, default=0.3)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PipelineOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except FileNotFoundError as exc:
        print(f"error: input not found: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print("interrupted; completed units are checkpointed", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
