"""Stealth constraints: the passive/active mode machinery of Section III-A.

The controller discards any interval that does not intersect the fusion
interval, so an attacker who wants to stay undetected must guarantee overlap
with the fusion interval *before* knowing where it will end up.  The paper
gives her two ways of doing that:

* **Passive mode** — always available.  The forged interval must contain
  ``Δ`` (the intersection of the compromised sensors' correct readings).
  Since ``Δ`` contains the true value and the true value is covered by all
  ``n - fa >= n - f`` correct intervals, any interval containing ``Δ`` is
  guaranteed to intersect the fusion interval.

* **Active mode** — available once at least ``n - f - far`` measurements have
  been broadcast, where ``far`` is the number of not-yet-sent compromised
  intervals (the current one included).  The forged interval then only needs
  to share a point with at least ``n - f - far`` of the already-broadcast
  intervals: together with the attacker's remaining ``far - 1`` compromised
  intervals (which she will place over the same point) that point reaches a
  coverage of ``n - f``, hence lies in the fusion interval.  The point relied
  upon becomes a *protection obligation* for the remaining compromised slots.

The functions in this module are pure predicates/utilities so that every
attack policy — stretch, expectation-maximising, omniscient — goes through the
exact same admissibility rules, and those rules can be unit- and
property-tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.attack.context import AttackContext
from repro.core.interval import Interval
from repro.core.marzullo import coverage_profile

__all__ = [
    "AttackerMode",
    "Admissibility",
    "active_mode_available",
    "required_support",
    "passive_admissible",
    "active_admissible",
    "check_admissible",
    "is_admissible",
    "support_point",
]


class AttackerMode(Enum):
    """The stealth mode under which a forged interval is admissible."""

    PASSIVE = "passive"
    ACTIVE = "active"


@dataclass(frozen=True)
class Admissibility:
    """Result of an admissibility check.

    Attributes
    ----------
    admissible:
        Whether the candidate can be sent without risking detection.
    mode:
        The mode justifying the placement (``None`` if inadmissible).
    support:
        For active-mode placements, the point of the candidate whose coverage
        guarantees stealth; remaining compromised intervals must keep
        covering it.  ``None`` for passive placements.
    reason:
        Human-readable explanation when the candidate is inadmissible.
    """

    admissible: bool
    mode: AttackerMode | None = None
    support: float | None = None
    reason: str = ""


def active_mode_available(context: AttackContext) -> bool:
    """Return ``True`` if the attacker may use active mode in this slot."""
    return context.n_transmitted >= required_support(context)


def required_support(context: AttackContext) -> int:
    """Number of already-broadcast intervals an active placement must touch.

    This is ``n - f - far``; when it is zero or negative the active-mode
    placement is unconstrained (any point already has enough guaranteed
    future support from the attacker's own remaining intervals).
    """
    return context.n - context.f - context.unsent_compromised_count


def passive_admissible(candidate: Interval, context: AttackContext) -> bool:
    """Passive-mode test: the candidate must contain all of ``Δ``.

    Any excluded point of ``Δ`` might be the true value, in which case the
    fusion interval could shrink onto it and the forged interval would be
    flagged — hence the entire ``Δ`` must be included.
    """
    return candidate.contains_interval(context.delta) and _covers_protected(candidate, context)


def _covers_protected(candidate: Interval, context: AttackContext) -> bool:
    """The candidate must keep covering points earlier forgeries rely on."""
    return all(candidate.contains(point) for point in context.protected_points)


def support_point(candidate: Interval, transmitted: Sequence[Interval], required: int) -> float | None:
    """Return a point of ``candidate`` covered by at least ``required`` transmitted intervals.

    Returns ``None`` if no such point exists.  When ``required <= 0`` the
    candidate's centre is returned (any point works).
    """
    if required <= 0:
        return candidate.center
    best_point: float | None = None
    best_coverage = -1
    for segment in coverage_profile(transmitted):
        if segment.coverage < required:
            continue
        # Intersect the coverage segment with the candidate.
        lo = max(segment.lo, candidate.lo)
        hi = min(segment.hi, candidate.hi)
        if hi < lo:
            continue
        if segment.coverage > best_coverage:
            best_coverage = segment.coverage
            # Prefer the point of the overlap closest to the candidate centre,
            # which keeps the protection obligation as easy to honour as
            # possible for the remaining compromised intervals.
            best_point = min(max(candidate.center, lo), hi)
    return best_point


def active_admissible(candidate: Interval, context: AttackContext) -> float | None:
    """Active-mode test; returns the support point or ``None`` if inadmissible."""
    if not active_mode_available(context):
        return None
    if not _covers_protected(candidate, context):
        return None
    return support_point(candidate, context.transmitted, required_support(context))


def check_admissible(candidate: Interval, context: AttackContext) -> Admissibility:
    """Full admissibility check returning mode and support information."""
    if passive_admissible(candidate, context):
        return Admissibility(admissible=True, mode=AttackerMode.PASSIVE)
    support = active_admissible(candidate, context)
    if support is not None:
        return Admissibility(admissible=True, mode=AttackerMode.ACTIVE, support=support)
    if not _covers_protected(candidate, context):
        return Admissibility(
            admissible=False,
            reason="candidate drops a point an earlier compromised interval relies on",
        )
    if not active_mode_available(context):
        return Admissibility(
            admissible=False,
            reason=(
                "passive mode requires the candidate to contain Δ and active mode is not yet "
                f"available ({context.n_transmitted} < n - f - far = {required_support(context)})"
            ),
        )
    return Admissibility(
        admissible=False,
        reason=(
            "active mode requires a point of the candidate covered by at least "
            f"{required_support(context)} already-broadcast intervals"
        ),
    )


def is_admissible(candidate: Interval, context: AttackContext) -> bool:
    """Boolean shorthand for :func:`check_admissible`."""
    return check_admissible(candidate, context).admissible
