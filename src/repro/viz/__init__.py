"""ASCII visualisation of interval configurations (the paper's figure layout)."""

from repro._lazy import lazy_exports

__all__ = ["LabeledInterval", "render_intervals", "render_fusion_figure"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ascii": ("LabeledInterval", "render_fusion_figure", "render_intervals"),
    },
)
