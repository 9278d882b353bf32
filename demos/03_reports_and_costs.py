#!/usr/bin/env python3
"""Walkthrough: prevalence tables, theme distribution and the cost table.

Rebuilds report tables from stored assignment counts at the scale of a
full production run (tens of thousands of concerns) and renders them the
way the CLI's `report` and `cost` commands do.
"""

from quallm.models import (
    SubThemeAssignment,
    SubThemeEntry,
    SubThemeSet,
    ThemeAssignment,
    ThemeCategory,
    ThemeTaxonomy,
)
from quallm.report import (
    compute_prevalence_table,
    compute_theme_distribution,
    cost_report,
    render_cost_table,
    render_distribution_markdown,
    render_theme_table_markdown,
)

TAXONOMY = ThemeTaxonomy(
    categories=(
        ThemeCategory("A", "Pricing transparency"),
        ThemeCategory("B", "Predictability and agency"),
        ThemeCategory("C", "Safety and time"),
        ThemeCategory("D", "Fairness"),
        ThemeCategory("E", "Other"),
    )
)

THEME_COUNTS = {"A": 24_721, "B": 12_728, "C": 6_144, "D": 4_280, "E": 10_855}

SUBTHEMES_A = SubThemeSet(
    theme="A",
    entries=(
        SubThemeEntry(1, "Opaque fare calculations", "Unclear trip payout math"),
        SubThemeEntry(2, "Bonus program opacity", "Qualification rules unclear"),
        SubThemeEntry(3, "Assignment criteria unknown", "Ride routing unexplained"),
        SubThemeEntry(4, "Surge boundary confusion", "Zones shift without notice"),
        SubThemeEntry(5, "Cancellation fee opacity", "Fee rules undisclosed"),
    ),
)

SUBTHEME_COUNTS_A = {"A": 7_202, "B": 4_880, "C": 2_765, "D": 1_858, "E": 1_197}


def expand_theme_assignments() -> list[ThemeAssignment]:
    out = []
    serial = 0
    for code, count in THEME_COUNTS.items():
        for _ in range(count):
            out.append(ThemeAssignment(f"c{serial:06d}", code))
            serial += 1
    return out


def expand_sub_assignments() -> list[SubThemeAssignment]:
    out = []
    serial = 0
    for code, count in SUBTHEME_COUNTS_A.items():
        for _ in range(count):
            out.append(SubThemeAssignment(f"a{serial:06d}", "A", code))
            serial += 1
    return out


def main() -> None:
    print("Theme distribution over 58,728 classified concerns:\n")
    dist = compute_theme_distribution(expand_theme_assignments(), TAXONOMY)
    print(render_distribution_markdown(dist, TAXONOMY))

    print("Sub-theme prevalence for theme A (total = 24,721; the remainder"
          " row keeps count conservation visible):\n")
    table = compute_prevalence_table(
        expand_sub_assignments(), SUBTHEMES_A, total=24_721
    )
    print(render_theme_table_markdown(table))

    print("Token cost at $0.01/1K input and $0.03/1K output:\n")
    print(render_cost_table(cost_report(135_120_000, 10_370_000, 0.01, 0.03)))


if __name__ == "__main__":
    main()
