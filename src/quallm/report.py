"""Prevalence tables, theme distribution, token cost and their markdown/CSV renders.

All computation keeps exact integer counts and full-precision percents;
rounding happens only when a value is rendered. Percents render to one
decimal with a trailing ".0" trimmed, counts with thousands separators,
currency to two decimals.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import ndjson
from .models import (
    SubThemeAssignment,
    SubThemeSet,
    ThemeAssignment,
    ThemeTaxonomy,
    parse_rank,
)
from .pipeline import RunPaths

logger = logging.getLogger(__name__)

CATCH_ALL_ROW_LABEL = "Other"


def render_percent(value: float) -> str:
    """One decimal, ".0" trimmed: 29.133 -> "29.1", 20.0 -> "20"."""
    text = f"{value:.1f}"
    return text[:-2] if text.endswith(".0") else text


def render_count(value: int) -> str:
    return f"{value:,}"


def render_currency(value: float) -> str:
    return f"${value:,.2f}"


# ---------------------------------------------------------------------------
# Theme distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThemeDistribution:
    counts: dict[str, int]  # letter -> count, in taxonomy order
    grand_total: int

    def percent(self, code: str) -> float:
        if self.grand_total == 0:
            return 0.0
        return 100.0 * self.counts[code] / self.grand_total


def compute_theme_distribution(
    assignments: Iterable[ThemeAssignment], taxonomy: ThemeTaxonomy
) -> ThemeDistribution:
    """Counts and percents per taxonomy letter, catch-all included."""
    counts = {c.code: 0 for c in taxonomy.categories}
    total = 0
    for assignment in assignments:
        if assignment.code not in counts:
            raise ValueError(f"assignment letter {assignment.code!r} not in taxonomy")
        counts[assignment.code] += 1
        total += 1
    return ThemeDistribution(counts=counts, grand_total=total)


def render_distribution_markdown(
    dist: ThemeDistribution, taxonomy: ThemeTaxonomy
) -> str:
    lines = [
        "| Theme | % | Count |",
        "| --- | --- | --- |",
    ]
    for category in taxonomy.categories:
        count = dist.counts[category.code]
        lines.append(
            f"| {category.code}. {category.name}"
            f" | {render_percent(dist.percent(category.code))}"
            f" | {render_count(count)} |"
        )
    lines.append(f"| Total |  | {render_count(dist.grand_total)} |")
    return "\n".join(lines) + "\n"


def render_distribution_csv(dist: ThemeDistribution, taxonomy: ThemeTaxonomy) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["code", "name", "percent", "count"])
    for category in taxonomy.categories:
        writer.writerow(
            [
                category.code,
                category.name,
                render_percent(dist.percent(category.code)),
                dist.counts[category.code],
            ]
        )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Per-theme prevalence tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrevalenceRow:
    code: str
    rank: int
    title: str
    count: int
    percent: float
    quote: Optional[str] = None


@dataclass(frozen=True)
class PrevalenceTable:
    theme: str
    total: int
    rows: tuple[PrevalenceRow, ...]  # sorted by count desc, ties by title
    catch_all_count: int

    @property
    def catch_all_percent(self) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.catch_all_count / self.total


def compute_prevalence_table(
    assignments: Sequence[SubThemeAssignment],
    subthemes: SubThemeSet,
    total: Optional[int] = None,
) -> PrevalenceTable:
    """Count sub-theme assignments for one theme.

    ``total`` defaults to the assignment count; passing it explicitly
    supports rebuilding a table from published counts. The catch-all row
    is the remainder total - sum(row counts), so count conservation is
    visible in the render.
    """
    code_counts = {code: 0 for code in subthemes.codes}
    seen = 0
    for assignment in assignments:
        if assignment.theme != subthemes.theme:
            raise ValueError(
                f"assignment theme {assignment.theme!r} does not match table theme"
                f" {subthemes.theme!r}"
            )
        seen += 1
        if assignment.code in code_counts:
            code_counts[assignment.code] += 1
        elif assignment.code != subthemes.catch_all_code:
            raise ValueError(f"assignment code {assignment.code!r} not in sub-themes")
    table_total = seen if total is None else total
    if table_total < sum(code_counts.values()):
        raise ValueError("total is smaller than the sum of sub-theme counts")

    rows = []
    for code, entry in zip(subthemes.codes, subthemes.by_rank()):
        count = code_counts[code]
        percent = 100.0 * count / table_total if table_total else 0.0
        rows.append(
            PrevalenceRow(
                code=code,
                rank=entry.rank,
                title=entry.title,
                count=count,
                percent=percent,
                quote=entry.quote,
            )
        )
    rows.sort(key=lambda r: (-r.count, r.title))
    return PrevalenceTable(
        theme=subthemes.theme,
        total=table_total,
        rows=tuple(rows),
        catch_all_count=table_total - sum(code_counts.values()),
    )


QuoteMap = dict[tuple[str, int], str]


def load_quotes(path: Path) -> QuoteMap:
    """Load the human-edited quote file: a JSON list of
    {"theme": letter, "rank": int, "quote": text} objects, at most one
    per (theme, rank). Ranks follow ``parse_rank``."""
    data = ndjson.read_json(path)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of quote objects")
    quotes: QuoteMap = {}
    for index, item in enumerate(data, start=1):
        item = item if isinstance(item, dict) else {}
        theme, quote = item.get("theme"), item.get("quote")
        rank = parse_rank(item.get("rank"))
        if not (isinstance(theme, str) and rank is not None and isinstance(quote, str)):
            raise ValueError(f"{path}: entry {index} needs a string theme, an integer"
                             " rank and a string quote")
        if (theme, rank) in quotes:
            raise ValueError(f"{path}: entry {index} repeats theme {theme} rank {rank}")
        quotes[(theme, rank)] = quote
    return quotes


def attach_quotes(
    tables: Sequence[PrevalenceTable], quotes: QuoteMap
) -> list[PrevalenceTable]:
    """*tables* with each row's quote replaced by the chosen quote for its
    (theme, rank); each quote that matches no row is warned about once."""
    placed: set[tuple[str, int]] = set()
    out = []
    for table in tables:
        rows = []
        for row in table.rows:
            key = (table.theme, row.rank)
            if key in quotes:
                placed.add(key)
                row = replace(row, quote=quotes[key])
            rows.append(row)
        out.append(replace(table, rows=tuple(rows)))
    for key in quotes:
        if key not in placed:
            logger.warning("quote for unknown (theme, rank) %s ignored", key)
    return out


def render_theme_table_markdown(table: PrevalenceTable) -> str:
    """Columns: Harm | Quote | % (Count); quote column blank when absent."""
    lines = [
        f"Theme {table.theme} (Total = {render_count(table.total)})",
        "",
        "| Harm | Quote | % (Count) |",
        "| --- | --- | --- |",
    ]
    for row in table.rows:
        quote = f"*“{row.quote}”*" if row.quote else ""
        lines.append(
            f"| {row.title} | {quote}"
            f" | {render_percent(row.percent)} ({render_count(row.count)}) |"
        )
    lines.append(
        f"| {CATCH_ALL_ROW_LABEL} |  |"
        f" {render_percent(table.catch_all_percent)}"
        f" ({render_count(table.catch_all_count)}) |"
    )
    return "\n".join(lines) + "\n"


def render_theme_table_csv(table: PrevalenceTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["harm", "quote", "percent", "count"])
    for row in table.rows:
        writer.writerow(
            [row.title, row.quote or "", render_percent(row.percent), row.count]
        )
    writer.writerow(
        [
            CATCH_ALL_ROW_LABEL,
            "",
            render_percent(table.catch_all_percent),
            table.catch_all_count,
        ]
    )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Cost table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostBreakdown:
    total_input_tokens: int
    total_output_tokens: int
    input_rate: float
    output_rate: float
    input_cost: float
    output_cost: float
    total_cost: float


def cost_report(input_tokens: int, output_tokens: int, input_rate: float,
                output_rate: float) -> CostBreakdown:
    """Itemized cost: tokens/1000 x rate (USD per 1K tokens) per side, summed."""
    input_cost = input_tokens / 1000 * input_rate
    output_cost = output_tokens / 1000 * output_rate
    return CostBreakdown(
        total_input_tokens=input_tokens,
        total_output_tokens=output_tokens,
        input_rate=input_rate,
        output_rate=output_rate,
        input_cost=input_cost,
        output_cost=output_cost,
        total_cost=input_cost + output_cost,
    )


def render_cost_table(cost: CostBreakdown) -> str:
    per_1k = "per 1K tokens"
    lines = [
        "| Cost Category | Token Quantity | Cost (USD) |",
        "| --- | --- | --- |",
        f"| Input Token Rate | - | {render_currency(cost.input_rate)} {per_1k} |",
        f"| Output Token Rate | - | {render_currency(cost.output_rate)} {per_1k} |",
        f"| Total Input Tokens | {render_count(cost.total_input_tokens)}"
        f" | {render_currency(cost.input_cost)} |",
        f"| Total Output Tokens | {render_count(cost.total_output_tokens)}"
        f" | {render_currency(cost.output_cost)} |",
        f"| **Total Expenditure** | - | **{render_currency(cost.total_cost)}** |",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# File outputs
# ---------------------------------------------------------------------------


def write_reports(
    paths: RunPaths,
    taxonomy: ThemeTaxonomy,
    theme_assignments: Sequence[ThemeAssignment],
    subtheme_sets: Sequence[SubThemeSet],
    subtheme_assignments: Sequence[SubThemeAssignment],
    quotes: Optional[QuoteMap] = None,
) -> list[Path]:
    """Write report.md, distribution.csv and one CSV per theme table,
    removing the CSV of any theme not among *subtheme_sets*."""
    written: list[Path] = []
    dist = compute_theme_distribution(theme_assignments, taxonomy)

    sections = ["# Theme report", "", "## Theme distribution", ""]
    sections.append(render_distribution_markdown(dist, taxonomy))

    ndjson.write_text(paths.distribution, render_distribution_csv(dist, taxonomy))
    written.append(paths.distribution)

    by_theme: dict[str, list[SubThemeAssignment]] = {}
    for assignment in subtheme_assignments:
        by_theme.setdefault(assignment.theme, []).append(assignment)

    tables = [
        compute_prevalence_table(by_theme.get(subthemes.theme, []), subthemes)
        for subthemes in sorted(subtheme_sets, key=lambda s: s.theme)
    ]
    if quotes:
        tables = attach_quotes(tables, quotes)
    names = {c.code: c.name for c in taxonomy.categories}
    for table in tables:
        sections.append(f"## {table.theme}. {names.get(table.theme, '')}")
        sections.append("")
        sections.append(render_theme_table_markdown(table))
        csv_path = paths.theme_table(table.theme)
        ndjson.write_text(csv_path, render_theme_table_csv(table))
        written.append(csv_path)
    # A theme whose sub-theme set is gone must not keep its old table.
    for stale in paths.theme_table_files():
        if stale not in written:
            stale.unlink()

    ndjson.write_text(paths.report, "\n".join(sections))
    written.insert(0, paths.report)
    return written


def write_cost_report(paths: RunPaths, cost: CostBreakdown) -> Path:
    ndjson.write_text(paths.cost, "# Token usage and cost\n\n" + render_cost_table(cost))
    return paths.cost
