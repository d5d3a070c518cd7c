"""Measurement analysis utilities (S15 in DESIGN.md)."""

from .consistency import (
    Operation,
    Violation,
    audit_history,
    check_monotonic_register,
    check_no_duplicates,
)
from .stats import (
    Summary,
    histogram,
    linear_fit,
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
    "Operation",
    "Summary",
    "Violation",
    "audit_history",
    "check_monotonic_register",
    "check_no_duplicates",
    "ascii_pdf_plot",
    "ascii_series",
    "format_records",
    "format_table",
    "histogram",
    "linear_fit",
    "mode_bin",
    "percentile",
    "probability_density",
    "sparkline",
    "summarize",
]
