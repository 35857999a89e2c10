"""Markdown rendering of experiment results.

One renderer per paper driver: each takes the driver's result and
returns the table ``python -m repro <figure>`` prints and EXPERIMENTS.md
embeds verbatim.  Every table is a padded Markdown pipe table, so the
same text reads well in a terminal, a CI log and the rendered docs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ReproError
from ..units import format_bytes


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows as a padded Markdown pipe table with a ``|---|`` rule."""
    rows = [[_cell(value) for value in row] for row in rows]
    for row in rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ) + " |"

    rule = "|" + "|".join("-" * (width + 2) for width in widths) + "|"
    return "\n".join([line(headers), rule, *(line(row) for row in rows)])


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table1(rows) -> str:
    """Table I: each application's input size and SESE code regions."""
    return format_table(
        ["application", "data size", "paper size", "code regions"],
        [[row.name, format_bytes(row.data_bytes),
          format_bytes(row.paper_bytes) if row.paper_bytes else "-",
          row.sese_regions] for row in rows],
    )


def render_fig2(result) -> str:
    """Fig. 2: static C ISP speedup, one row per CSE availability."""
    return format_table(
        ["availability", *result.series],
        [[f"{availability:.0%}",
          *(f"{series[i]:.3f}x" for series in result.series.values())]
         for i, availability in enumerate(result.availabilities)],
    )


def render_fig4(result) -> str:
    """Fig. 4: speedup over the C baseline, static ISP vs ActivePy."""
    return format_table(
        ["application", "baseline (s)", "static ISP", "ActivePy", "same regions"],
        [*([row.name, f"{row.baseline_seconds:.2f}",
            f"{row.static_speedup:.3f}x", f"{row.activepy_speedup:.3f}x",
            "yes" if row.same_regions else "no (CSR)"] for row in result.rows),
         ["geomean", "", f"{result.static_geomean:.3f}x",
          f"{result.activepy_geomean:.3f}x", ""]],
    )


def render_fig5(result) -> str:
    """Fig. 5: every workload with and without migration, per availability."""
    return format_table(
        ["application", "availability", "ActivePy", "w/o migration", "gain",
         "migrations"],
        [[row.name, f"{row.availability:.0%}",
          f"{row.with_migration_speedup:.3f}x",
          f"{row.without_migration_speedup:.3f}x",
          f"{row.migration_gain:.3f}x", row.migrations]
         for row in sorted(result.rows, key=lambda row: -row.availability)],
    )


def render_ladder(result) -> str:
    """§V ladder: each mode's host-only overhead over hand-written C."""
    return format_table(
        ["application", "python", "cython", "activepy"],
        [[name, f"+{(modes['python'] - 1) * 100:.1f}%",
          f"+{(modes['cython'] - 1) * 100:.1f}%",
          f"+{(modes['activepy'] - 1) * 100:.2f}%"]
         for name, modes in result.per_workload.items()],
    )


def render_prediction(result) -> str:
    """§V accuracy: predicted vs true volume of every line above 1 MB."""
    outliers = {id(row) for row in result.outliers()}
    return format_table(
        ["workload", "line", "predicted", "actual", "ratio", "outlier"],
        [[row.workload, row.line, format_bytes(row.predicted_bytes),
          format_bytes(row.actual_bytes), f"{row.ratio:.2f}x",
          "yes" if id(row) in outliers else ""]
         for row in result.rows if row.actual_bytes > 1e6],
    )


def render_csr_sweep(rows) -> str:
    """§V robustness: the CSR prediction ratio per synthetic matrix family."""
    return format_table(
        ["avg degree", "alpha", "predicted", "actual", "ratio"],
        [[f"{row.avg_degree:.0f}", f"{row.alpha:.1f}",
          format_bytes(row.predicted_bytes), format_bytes(row.actual_bytes),
          f"{row.ratio:.3f}x"] for row in rows],
    )


#: Each paper figure command: its title and, for each driver it runs (a
#: key of ``repro.analysis.claims.DRIVERS``), the renderer of the result.
FIGURES = {
    "table1": ("Table I", {"run_table1": render_table1}),
    "fig2": ("Figure 2 (availability sweep)", {"run_fig2": render_fig2}),
    "fig4": ("Figure 4 (ActivePy vs static ISP)", {"run_fig4": render_fig4}),
    "fig5": ("Figure 5 (migration study)", {"run_fig5": render_fig5}),
    "ladder": ("the §V runtime-overhead ladder",
               {"run_overhead_ladder": render_ladder}),
    "prediction": ("the §V accuracy result and CSR sweep",
                   {"run_prediction_accuracy": render_prediction,
                    "run_csr_matrix_sweep": render_csr_sweep}),
}
