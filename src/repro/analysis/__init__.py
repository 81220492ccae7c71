"""Result processing: gains, statistics, tables, and ASCII plots.

The paper reports its evaluation as *gains* — percentage makespan
reduction of each improvement over the basic heuristic — averaged over
clusters with a standard deviation band (Figure 8) or per grid
configuration (Figure 10).  This subpackage computes those aggregates
and renders them as terminal-friendly tables and plots.
"""

from repro.analysis.gains import gain_percent, gains_over_baseline
from repro.analysis.stats import SeriesStats, summarize, summarize_many
from repro.analysis.tables import format_table, series_table
from repro.analysis.plotting import ascii_plot, series_to_csv
from repro.analysis.report import ReportConfig, generate_report
from repro.analysis.svg import svg_line_chart
from repro.analysis.sensitivity import EntrySensitivity, table_sensitivity

__all__ = [
    "gain_percent",
    "gains_over_baseline",
    "SeriesStats",
    "summarize",
    "summarize_many",
    "format_table",
    "series_table",
    "ascii_plot",
    "series_to_csv",
    "ReportConfig",
    "generate_report",
    "svg_line_chart",
    "EntrySensitivity",
    "table_sensitivity",
]
