"""Measurement analysis utilities (S15 in DESIGN.md)."""

from .stats import (
    Summary,
    histogram,
    mode_bin,
    percentile,
    probability_density,
    summarize,
)
from .tables import (
    ascii_pdf_plot,
    ascii_series,
    format_records,
    format_table,
    sparkline,
)

__all__ = [
    "Summary",
    "ascii_pdf_plot",
    "ascii_series",
    "format_records",
    "format_table",
    "histogram",
    "mode_bin",
    "percentile",
    "probability_density",
    "sparkline",
    "summarize",
]
