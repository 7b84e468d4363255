"""Attack models: contexts, stealth constraints and attacker policies.

The subpackage implements Section III of the paper:

* :class:`~repro.attack.context.AttackContext` — what the attacker knows at
  transmission time;
* :mod:`repro.attack.stealth` — the passive/active stealth machinery;
* policies of increasing strength: truthful / random / fixed-shift baselines,
  the one-sided stretch attacker, the expectation-maximising attacker of
  problem (2) and the omniscient solver of problem (1);
* :mod:`repro.attack.theorem1` — Theorem 1's sufficient conditions for an
  optimal attack under partial knowledge.

The full catalogue — every policy, the paper equation it implements, and its
batched counterpart in :mod:`repro.batch` — is in ``docs/ATTACKERS.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "candidates": (
            "candidate_intervals",
            "endpoint_aligned",
            "grid_candidates",
            "passive_extremes",
        ),
        "context": ("AttackContext",),
        "expectation": ("ExpectationPolicy",),
        "omniscient": ("OmniscientPolicy", "optimal_attack", "optimal_fusion_width"),
        "policy": ("AttackPolicy", "FixedShiftPolicy", "RandomAdmissiblePolicy", "TruthfulPolicy"),
        "stealth": (
            "Admissibility",
            "AttackerMode",
            "active_mode_available",
            "check_admissible",
            "is_admissible",
            "passive_admissible",
            "required_support",
            "support_point",
        ),
        "stretch": ("ActiveStretchPolicy",),
        "theorem1": (
            "Theorem1Inputs",
            "case1_applies",
            "case1_placements",
            "case2_applies",
            "case2_placements",
            "optimal_policy_exists",
        ),
    },
)
