"""Result analysis: statistics, sweep series, and paper-style reports."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ascii_plot": ["loglog_plot"],
    "loadmap": ["LoadStat", "balance_report", "gini", "load_stat", "render_balance"],
    "stats": ["MeasuredStat", "mean", "repeat_measure", "speedup", "stddev_pct"],
    "series": ["SweepSeries", "efficiency_series", "relative_series"],
    "report": ["render_table", "series_table"],
})
