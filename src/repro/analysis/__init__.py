"""Analysis helpers: metrics, report formatting and canonical experiment configs."""

from repro.analysis.experiments import (
    TABLE1_CONFIGURATIONS,
    TABLE1_PAPER_RESULTS,
    TABLE2_PAPER_RESULTS,
    TABLE2_SCHEDULES,
    Table1Entry,
    figure1_intervals,
    figure2_configuration,
    figure5a_configuration,
    figure5b_configuration,
)
from repro.analysis.metrics import (
    FusionStatistics,
    containment_rate,
    summarize_widths,
    violation_rates,
)
from repro.analysis.report import format_percentage, format_table, format_table1_row

__all__ = [
    "FusionStatistics",
    "summarize_widths",
    "violation_rates",
    "containment_rate",
    "format_table",
    "format_table1_row",
    "format_percentage",
    "Table1Entry",
    "TABLE1_CONFIGURATIONS",
    "TABLE1_PAPER_RESULTS",
    "TABLE2_PAPER_RESULTS",
    "TABLE2_SCHEDULES",
    "figure1_intervals",
    "figure2_configuration",
    "figure5a_configuration",
    "figure5b_configuration",
]
