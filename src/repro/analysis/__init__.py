"""Result processing: gains, statistics, tables, and ASCII plots.

The paper reports its evaluation as *gains* — percentage makespan
reduction of each improvement over the basic heuristic — averaged over
clusters with a standard deviation band (Figure 8) or per grid
configuration (Figure 10).  This subpackage computes those aggregates
and renders them as terminal-friendly tables and plots.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.analysis.gains": ("gain_percent", "gains_over_baseline"),
    "repro.analysis.stats": ("SeriesStats", "summarize", "summarize_many"),
    "repro.analysis.tables": ("format_table", "series_table"),
    "repro.analysis.plotting": ("ascii_plot", "series_to_csv"),
    "repro.analysis.report": ("ReportConfig", "generate_report"),
    "repro.analysis.svg": ("svg_line_chart",),
    "repro.analysis.sensitivity": ("EntrySensitivity", "table_sensitivity"),
})
