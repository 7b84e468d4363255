"""ASCII visualisation of interval configurations (the paper's figure layout)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ascii": ("LabeledInterval", "render_fusion_figure", "render_intervals"),
    },
)
