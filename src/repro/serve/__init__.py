"""Fusion-as-a-service: async serving of scenario requests with micro-batching.

The serving layer turns the repository's scenario subsystem into a network
service without adding a single dependency: a raw-:mod:`asyncio` HTTP/1.1
front end (:mod:`repro.serve.http`) over a transport-independent core
(:mod:`repro.serve.service`) whose throughput trick is coalescing
(:mod:`repro.serve.collator`): while a plan's engine pass runs, same-plan
requests queue up and share the next packed
:meth:`repro.engine.base.Engine.run_many` pass, yet receive bit-identical
payloads to a solo ``python -m repro run``.

Start a server with ``python -m repro serve`` or programmatically through
the :mod:`repro.api` facade; ``docs/SERVING.md`` documents the wire
protocol, the coalescing policy and the determinism contract.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "collator": ("BatchCollator", "plan_key"),
        "http": ("FusionServer",),
        "service": ("API_VERSION", "FusionService"),
    },
)
