"""The schedule-optimizer layer: protocol, registry, shared row algebra.

The paper *compares* a handful of fixed transmission schedules; this layer
*searches* the schedule space.  It mirrors the engine layer's shape
(:mod:`repro.engine.base`) deliberately:

* :class:`Optimizer` is the strategy protocol.  A strategy plans its shard
  tasks (a pure function of the spec, so the runner stays worker-count
  invariant), executes one task against a
  :class:`~repro.optimize.evaluator.ScheduleEvaluator`, and merges the
  plan-ordered outcomes into its payload section.
* :func:`register_optimizer` / :func:`get_optimizer` form the registry the
  scenario spec, the runner and the ``python -m repro optimize`` CLI all
  resolve strategies through; unknown names fail with did-you-mean hints
  exactly like unknown engines do.

Three strategies are registered when this module loads, each by a factory
that imports its module on the first :func:`get_optimizer` call:
``exhaustive`` (:mod:`repro.optimize.exhaustive`), ``anneal``
(:mod:`repro.optimize.anneal`) and ``bandit``
(:mod:`repro.optimize.bandit`).  A spec naming one of them is validated
without importing this package
(:data:`repro.scenarios.spec.BUILTIN_STRATEGIES`).  The subsystem
contract — budget semantics, determinism guarantees, resumability — is
documented in ``docs/OPTIMIZATION.md``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, ClassVar

from repro import obs
from repro._lazy import lazy_factory
from repro.core.exceptions import ExperimentError

if TYPE_CHECKING:  # annotation-only: repro.scenarios lazily imports us back
    from repro.optimize.evaluator import ScheduleEvaluator
    from repro.scenarios.spec import OptimizationScenario

__all__ = [
    "Optimizer",
    "register_optimizer",
    "available_optimizers",
    "get_optimizer",
    "sort_key",
    "best_row",
]


def sort_key(row: dict) -> tuple:
    """Deterministic ranking of candidate rows: width, then permutation.

    Rows whose every round produced an empty fusion (possible only with
    fault injection) carry a ``NaN`` width and sort last; the permutation
    tie-break makes every strategy's argmin unique, so two strategies that
    measured the same candidates report the same winner bit for bit.
    """
    width = row["expected_width"]
    degenerate = not row["valid"]
    return (degenerate, width if not degenerate else 0.0, tuple(row["permutation"]))


def best_row(rows: list[dict]) -> dict:
    """The winning row under :func:`sort_key` (raises on an empty list)."""
    if not rows:
        raise ExperimentError("no candidate rows to pick a best schedule from")
    return min(rows, key=sort_key)


class Optimizer(abc.ABC):
    """One search strategy over the schedule space."""

    #: Registry name (also the ``--strategy`` spelling and the spec field).
    name: ClassVar[str] = ""

    def validate(self, spec: "OptimizationScenario") -> None:
        """Eagerly reject specs this strategy cannot run (default: accept).

        Called from ``OptimizationScenario.__post_init__`` so a bad spec
        fails at registration time, not mid-run on a worker.  The built-in
        strategies accept every spec; the exhaustive candidate cap is the
        spec's own check (:data:`repro.scenarios.spec.BUILTIN_STRATEGIES`).
        """

    @abc.abstractmethod
    def plan(self, spec: "OptimizationScenario") -> list[tuple]:
        """Shard-task parameter tuples — a pure function of the spec.

        Strategies whose search loop is inherently sequential (anneal,
        bandit) return a single task; the exhaustive strategy chunks the
        candidate space so the runner can fan it out.
        """

    @abc.abstractmethod
    def execute(
        self, spec: "OptimizationScenario", evaluator: "ScheduleEvaluator", params: tuple
    ) -> dict:
        """Run one shard task; returns ``{"rows": [...], "history": {...}}``.

        Every returned row must come from ``evaluator.evaluate`` so its
        width is the canonical pure-function-of-spec measurement (see
        :class:`~repro.optimize.evaluator.ScheduleEvaluator`).
        """

    def merge(self, spec: "OptimizationScenario", outcomes: list[dict]) -> dict:
        """Combine plan-ordered task outcomes into the strategy section.

        The default concatenates rows (deduping repeated candidates by
        keeping the first full-budget measurement — they are bit-identical
        anyway) and merges the histories of single-task strategies.
        """
        with obs.span("optimize.merge", strategy=self.name, tasks=len(outcomes)):
            rows: list[dict] = []
            seen: set[tuple] = set()
            history: dict = {}
            for outcome in outcomes:
                for row in outcome["rows"]:
                    key = (tuple(row["permutation"]), row["samples"])
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
                history.update(outcome.get("history", {}))
            return {"rows": rows, "history": history}


_REGISTRY: dict[str, Callable[[], Optimizer]] = {}


def register_optimizer(
    name: str, factory: Callable[[], Optimizer], replace: bool = False
) -> None:
    """Register a strategy factory under ``name`` (e.g. at import time)."""
    if not name:
        raise ExperimentError("an optimizer needs a non-empty registry name")
    if name in _REGISTRY and not replace:
        raise ExperimentError(f"optimizer {name!r} is already registered (pass replace=True)")
    _REGISTRY[name] = factory


def available_optimizers() -> tuple[str, ...]:
    """Names of all registered strategies, sorted."""
    return tuple(sorted(_REGISTRY))


def get_optimizer(strategy: str | Optimizer) -> Optimizer:
    """Resolve a strategy selection to an optimizer instance.

    Unknown names raise with the registered names and a did-you-mean
    suggestion, mirroring the engine registry — the CLI turns this into
    its non-zero exit path.
    """
    if isinstance(strategy, Optimizer):
        return strategy
    factory = _REGISTRY.get(strategy)
    if factory is None:
        import difflib

        available = ", ".join(available_optimizers())
        matches = difflib.get_close_matches(str(strategy), available_optimizers(), n=3, cutoff=0.5)
        hint = f" — did you mean {', '.join(repr(match) for match in matches)}?" if matches else ""
        raise ExperimentError(
            f"unknown optimizer strategy {strategy!r}; available strategies: {available}{hint}"
        )
    return factory()


register_optimizer("exhaustive", lazy_factory("repro.optimize.exhaustive", "ExhaustiveOptimizer"))
register_optimizer("anneal", lazy_factory("repro.optimize.anneal", "AnnealOptimizer"))
register_optimizer("bandit", lazy_factory("repro.optimize.bandit", "BanditOptimizer"))
