"""Plain-text tables and sparkline plots for benchmark reports.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and readable in a
terminal and in ``bench_output.txt``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Sequence[Sequence], *,
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    columns = [str(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_records(columns: Sequence[Tuple[str, str, str]],
                   records: Sequence[Dict], *, title: str = "") -> str:
    """Render dict ``records`` (``to_dict()`` rows) as a table.  Each
    column is (header, key, format spec); a record without the key
    shows ``-``."""
    return format_table(
        [header for header, _, _ in columns],
        [[format(record[key], spec) if key in record else "-"
          for _, key, spec in columns] for record in records],
        title=title)


#: Eight-level vertical bars for terminal sparklines.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """Compress a series into a one-line terminal plot."""
    if not values:
        return ""
    values = list(values)
    if len(values) > width:
        # Downsample by averaging fixed-size chunks.
        chunk = len(values) / width
        values = [
            sum(values[int(i * chunk):int((i + 1) * chunk) or None])
            / max(1, len(values[int(i * chunk):int((i + 1) * chunk) or None]))
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK_LEVELS[min(7, int((v - lo) / span * 8))] for v in values
    )


def ascii_series(
    values: Sequence[float], *, label: str = "", width: int = 60
) -> str:
    """A labelled sparkline with min/max annotations."""
    if not values:
        return f"{label}: (empty)"
    return (
        f"{label:<28s} {sparkline(values, width=width)}  "
        f"[{min(values):.6g} .. {max(values):.6g}]"
    )


def ascii_pdf_plot(
    series: dict,
    *,
    bin_labels: Sequence[float],
    height: int = 12,
    label_format: str = "{:.0f}",
) -> str:
    """Render overlaid probability density curves as ASCII art.

    ``series`` maps a single-character marker to a density list (one
    density per entry of ``bin_labels``).  Used to render the Figure 5
    comparison in benchmark reports.
    """
    if not series or not bin_labels:
        return "(no data)"
    peak = max(max(values) for values in series.values()) or 1.0
    columns = len(bin_labels)
    rows: List[str] = []
    for level in range(height, 0, -1):
        threshold = peak * level / height
        row = []
        for col in range(columns):
            cell = " "
            for marker, values in series.items():
                if col < len(values) and values[col] >= threshold:
                    cell = marker
            row.append(cell)
        prefix = f"{peak * level / height:8.5f} |" if level in (height, 1) else "         |"
        rows.append(prefix + "".join(row))
    axis = "         +" + "-" * columns
    first = label_format.format(bin_labels[0])
    last = label_format.format(bin_labels[-1])
    gap = max(1, columns - len(first) - len(last))
    labels = "          " + first + " " * gap + last
    legend = "  ".join(f"{marker}={marker}" for marker in series)
    return "\n".join(rows + [axis, labels])
