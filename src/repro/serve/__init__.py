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

from repro.serve.collator import BatchCollator, plan_key
from repro.serve.http import FusionServer
from repro.serve.service import API_VERSION, FusionService

__all__ = [
    "API_VERSION",
    "BatchCollator",
    "FusionServer",
    "FusionService",
    "plan_key",
]
