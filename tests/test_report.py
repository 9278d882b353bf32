import logging

import pytest

from quallm.models import SubThemeAssignment, ThemeAssignment
from quallm.pipeline import RunPaths
from quallm.report import (
    attach_quotes,
    compute_prevalence_table,
    compute_theme_distribution,
    cost_report,
    load_quotes,
    render_cost_table,
    render_count,
    render_currency,
    render_distribution_csv,
    render_distribution_markdown,
    render_percent,
    render_theme_table_csv,
    render_theme_table_markdown,
    write_reports,
)

from conftest import make_subthemes, make_taxonomy


def assignments_for(counts: dict[str, int]) -> list[ThemeAssignment]:
    out = []
    serial = 0
    for code, count in counts.items():
        for _ in range(count):
            out.append(ThemeAssignment(concern_id=f"c{serial:06d}", code=code))
            serial += 1
    return out


def sub_assignments(theme: str, counts: dict[str, int]) -> list[SubThemeAssignment]:
    out = []
    serial = 0
    for code, count in counts.items():
        for _ in range(count):
            out.append(
                SubThemeAssignment(
                    concern_id=f"{theme}{serial:06d}", theme=theme, code=code
                )
            )
            serial += 1
    return out


# ---------------------------------------------------------------------------
# rendering primitives
# ---------------------------------------------------------------------------


def test_render_percent_one_decimal_with_trailing_zero_trimmed():
    assert render_percent(29.133) == "29.1"
    assert render_percent(20.0) == "20"
    assert render_percent(0.0) == "0"
    assert render_percent(7.25) == "7.2"  # bankers-free plain format


def test_render_count_thousands_separators():
    assert render_count(7202) == "7,202"
    assert render_count(58_728) == "58,728"


def test_render_currency():
    assert render_currency(1351.2) == "$1,351.20"
    assert render_currency(0) == "$0.00"


# ---------------------------------------------------------------------------
# theme distribution
# ---------------------------------------------------------------------------


PAPER_THEME_COUNTS = {"A": 24_721, "B": 12_728, "C": 6_144, "D": 4_280, "E": 10_855}


def test_theme_distribution_reference_counts():
    taxonomy = make_taxonomy()
    dist = compute_theme_distribution(assignments_for(PAPER_THEME_COUNTS), taxonomy)
    assert dist.grand_total == 58_728
    assert dist.counts["E"] == 58_728 - 47_873
    expected = {"A": 42.1, "B": 21.7, "C": 10.5, "D": 7.3, "E": 18.5}
    for code, value in expected.items():
        assert dist.percent(code) == pytest.approx(value, abs=0.05)
    # reference renderings stay within +/-0.6 of the published figures
    published = {"A": 42, "B": 22, "C": 10.5, "D": 7, "E": 18.5}
    for code, value in published.items():
        assert abs(dist.percent(code) - value) <= 0.6


def test_theme_distribution_single_theme_is_all():
    taxonomy = make_taxonomy()
    dist = compute_theme_distribution(assignments_for({"B": 7}), taxonomy)
    assert dist.percent("B") == 100.0
    assert dist.percent("A") == 0.0


def test_theme_distribution_empty_input_all_zero():
    taxonomy = make_taxonomy()
    dist = compute_theme_distribution([], taxonomy)
    assert dist.grand_total == 0
    assert all(dist.percent(c.code) == 0.0 for c in taxonomy.categories)


def test_theme_distribution_percents_sum_to_100():
    taxonomy = make_taxonomy()
    dist = compute_theme_distribution(assignments_for(PAPER_THEME_COUNTS), taxonomy)
    total = sum(dist.percent(c.code) for c in taxonomy.categories)
    assert total == pytest.approx(100.0, abs=1e-9)


def test_theme_distribution_rejects_foreign_letters():
    taxonomy = make_taxonomy()
    with pytest.raises(ValueError):
        compute_theme_distribution([ThemeAssignment("c1", "Z")], taxonomy)


# ---------------------------------------------------------------------------
# prevalence tables (published table fixtures)
# ---------------------------------------------------------------------------


def test_prevalence_table_top_row_29_of_24721():
    subthemes = make_subthemes("A")
    counts = {"A": 7_202, "B": 4_880, "C": 2_765, "D": 1_858, "E": 1_197}
    table = compute_prevalence_table(
        sub_assignments("A", counts), subthemes, total=24_721
    )
    assert table.rows[0].count == 7_202
    assert render_percent(table.rows[0].percent) == "29.1"
    assert abs(table.rows[0].percent - 29) <= 0.6
    assert table.catch_all_count == 24_721 - sum(counts.values())
    assert table.total == 24_721


@pytest.mark.parametrize(
    "count,total,published",
    [
        (7_202, 24_721, 29),
        (2_953, 12_728, 23),
        (1_208, 6_144, 20),
        (1_025, 4_280, 24),
    ],
)
def test_prevalence_published_percentages_within_tolerance(count, total, published):
    subthemes = make_subthemes("A")
    table = compute_prevalence_table(
        sub_assignments("A", {"A": count}), subthemes, total=total
    )
    top = table.rows[0]
    assert top.count == count
    assert abs(top.percent - published) <= 0.6


def test_prevalence_zero_count_rows_render_zero_percent():
    subthemes = make_subthemes("B")
    table = compute_prevalence_table([], subthemes, total=50)
    assert all(row.count == 0 for row in table.rows)
    assert all(row.percent == 0.0 for row in table.rows)
    assert table.catch_all_count == 50


def test_prevalence_rows_sorted_desc_with_title_ties():
    subthemes = make_subthemes("A")
    counts = {"A": 5, "B": 9, "C": 5, "D": 0, "E": 1}
    table = compute_prevalence_table(sub_assignments("A", counts), subthemes)
    assert [row.count for row in table.rows] == [9, 5, 5, 1, 0]
    equal_block = [row.title for row in table.rows if row.count == 5]
    assert equal_block == sorted(equal_block)


def test_prevalence_count_conservation():
    subthemes = make_subthemes("C")
    counts = {"A": 3, "B": 2, "C": 1, "D": 1, "E": 0, "F": 4}  # F = catch-all
    table = compute_prevalence_table(sub_assignments("C", counts), subthemes)
    assert table.total == 11
    assert sum(row.count for row in table.rows) + table.catch_all_count == table.total
    assert table.catch_all_count == 4


def test_prevalence_rejects_mismatched_theme_or_code():
    subthemes = make_subthemes("A")
    with pytest.raises(ValueError):
        compute_prevalence_table(
            [SubThemeAssignment("c1", "B", "A")], subthemes
        )
    with pytest.raises(ValueError):
        compute_prevalence_table(
            [SubThemeAssignment("c1", "A", "Z")], subthemes
        )


# ---------------------------------------------------------------------------
# renders
# ---------------------------------------------------------------------------


def test_theme_table_markdown_format():
    subthemes = make_subthemes("A")
    table = compute_prevalence_table(
        sub_assignments("A", {"A": 7_202}), subthemes, total=24_721
    )
    md = render_theme_table_markdown(table)
    assert "| Harm | Quote | % (Count) |" in md
    assert "29.1 (7,202)" in md
    assert "Theme A (Total = 24,721)" in md
    assert "| Other |" in md  # explicit catch-all row


def test_theme_table_markdown_and_csv_agree_numerically():
    subthemes = make_subthemes("A")
    counts = {"A": 9, "B": 4, "C": 3, "D": 2, "E": 1}
    table = compute_prevalence_table(sub_assignments("A", counts), subthemes)
    md = render_theme_table_markdown(table)
    csv_text = render_theme_table_csv(table)
    for row in table.rows:
        cell = f"{render_percent(row.percent)} ({render_count(row.count)})"
        assert cell in md
        assert f",{render_percent(row.percent)},{row.count}" in csv_text


def test_theme_table_quotes_attached_and_unknown_ignored(tmp_path, caplog):
    quotes_file = tmp_path / "quotes.json"
    quotes_file.write_text(
        '[{"theme": "A", "rank": 1, "quote": "the math never adds up"},'
        ' {"theme": "A", "rank": 99, "quote": "dangling"}]'
    )
    quotes = load_quotes(quotes_file)
    subthemes = make_subthemes("A")
    table = compute_prevalence_table(sub_assignments("A", {"A": 2}), subthemes)
    [quoted] = attach_quotes([table], quotes)
    md = render_theme_table_markdown(quoted)
    assert "the math never adds up" in md
    assert "dangling" not in md
    assert "the math never adds up" in render_theme_table_csv(quoted)


def test_each_unmatched_quote_warned_once(tmp_path, caplog):
    quotes = {("A", 1): "the math never adds up", ("A", 9): "no such rank",
              ("Z", 1): "no such theme"}
    with caplog.at_level(logging.WARNING, logger="quallm.report"):
        write_reports(
            RunPaths(tmp_path), make_taxonomy(), assignments_for({"A": 2}),
            [make_subthemes("A")], sub_assignments("A", {"A": 2}), quotes,
        )
    warned = [r.getMessage() for r in caplog.records]
    assert sum("('A', 9)" in m for m in warned) == 1
    assert sum("('Z', 1)" in m for m in warned) == 1
    assert len(warned) == 2
    assert "the math never adds up" in (tmp_path / "theme_A.csv").read_text()


def test_empty_table_renders_header_only_rows():
    subthemes = make_subthemes("A")
    table = compute_prevalence_table([], subthemes, total=0)
    md = render_theme_table_markdown(table)
    assert "| Harm | Quote | % (Count) |" in md
    csv_text = render_theme_table_csv(table)
    assert csv_text.splitlines()[0] == "harm,quote,percent,count"


def test_rendering_is_idempotent():
    subthemes = make_subthemes("A")
    table = compute_prevalence_table(
        sub_assignments("A", {"A": 3, "B": 1}), subthemes
    )
    assert render_theme_table_markdown(table) == render_theme_table_markdown(table)
    assert render_theme_table_csv(table) == render_theme_table_csv(table)


def test_distribution_renders_share_values():
    taxonomy = make_taxonomy()
    dist = compute_theme_distribution(assignments_for(PAPER_THEME_COUNTS), taxonomy)
    md = render_distribution_markdown(dist, taxonomy)
    csv_text = render_distribution_csv(dist, taxonomy)
    for code in PAPER_THEME_COUNTS:
        assert render_percent(dist.percent(code)) in md
        assert render_percent(dist.percent(code)) in csv_text
    assert "58,728" in md


# ---------------------------------------------------------------------------
# cost table
# ---------------------------------------------------------------------------


def test_cost_table_reference_ledger_to_the_cent():
    md = render_cost_table(cost_report(135_120_000, 10_370_000, 0.01, 0.03))
    assert "$1,351.20" in md
    assert "$311.10" in md
    assert "$1,662.30" in md
    assert "135,120,000" in md
    assert "$0.01 per 1K tokens" in md


def test_cost_table_zero_ledger():
    md = render_cost_table(cost_report(0, 0, 0.01, 0.03))
    assert "$0.00" in md


def test_cost_table_doubles_linearly():
    first = cost_report(1_000_000, 500_000, 0.01, 0.03)
    second = cost_report(2_000_000, 1_000_000, 0.01, 0.03)
    assert second.input_cost == pytest.approx(2 * first.input_cost)
    assert second.total_cost == pytest.approx(2 * first.total_cost)
