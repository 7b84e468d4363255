"""``repro.obs`` — the unified telemetry layer (tracing + metrics).

One facade instruments all five execution layers — engines, runner shards,
the artifact store, the HTTP serving stack, and the schedule optimizer:

>>> from repro import obs
>>> with obs.collect() as session:            # enable telemetry (off by default)
...     with obs.span("engine.run", engine="batch"):
...         obs.add("repro_engine_samples_total", 100, engine="batch")
...         obs.observe("repro_engine_run_seconds", 0.25, engine="batch")
>>> session.snapshot()["spans"][0]["name"]
'engine.run'

Design rules (see ``docs/OBSERVABILITY.md`` for the full contract):

- **Zero dependencies, no-op by default.**  Outside a :func:`collect`
  scope every helper is a thread-local read and a ``None`` check;
  ``benchmarks/bench_obs.py`` gates the instrumented hot paths at <=5%
  overhead.
- **Never touches RNG.**  Timings come from monotonic clocks only, so
  payloads are bit-identical with telemetry on or off.
- **Exact merges.**  Counters add; histograms share fixed log-spaced bucket
  bounds so bucket-wise sums lose nothing; span snapshots graft in plan
  order — all merged telemetry is worker-count-invariant.

The always-on serve-layer metrics (request counters, latency histograms,
the Prometheus ``/v1/metrics`` exposition) use per-service
:class:`Registry` instances directly rather than the thread-local scope;
see :mod:`repro.serve.service`.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    render_prometheus,
)
from repro.obs.trace import (
    Collection,
    Session,
    active,
    collect,
    enabled,
    event,
    graft,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "render_prometheus",
    "Collection",
    "Session",
    "active",
    "collect",
    "enabled",
    "event",
    "graft",
    "span",
    "add",
    "set_gauge",
    "observe",
]


def add(name: str, amount: float = 1.0, /, **labels: str) -> None:
    """Increment a counter in the live collection (no-op when disabled)."""
    collection = active()
    if collection is not None:
        collection.registry.counter(name, **labels).inc(amount)


def set_gauge(name: str, value: float, /, **labels: str) -> None:
    """Set a gauge in the live collection (no-op when disabled)."""
    collection = active()
    if collection is not None:
        collection.registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, /, **labels: str) -> None:
    """Record a histogram observation in the live collection (no-op when disabled)."""
    collection = active()
    if collection is not None:
        collection.registry.histogram(name, **labels).observe(value)
