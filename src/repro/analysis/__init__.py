"""Analysis helpers: report formatting and canonical experiment configs."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "experiments": (
            "TABLE1_CONFIGURATIONS",
            "TABLE1_PAPER_RESULTS",
            "TABLE2_PAPER_RESULTS",
            "TABLE2_SCHEDULES",
            "Table1Entry",
            "figure1_intervals",
            "figure2_configuration",
            "figure5a_configuration",
            "figure5b_configuration",
        ),
        "report": ("format_percentage", "format_table"),
    },
)
