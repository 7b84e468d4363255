"""Vectorized batch Monte-Carlo engine.

This subpackage evaluates ``B`` independent fusion rounds at once with NumPy
array operations, where the scalar modules (:mod:`repro.core.marzullo`,
:mod:`repro.scheduling.round`) loop over rounds in Python.

When to use which path
----------------------

* **Batch** (:func:`batch_fuse`, :func:`batch_rounds`, and the ``"batch"``
  engine of :mod:`repro.engine`) — Monte-Carlo sweeps, ablations and
  benchmarks that need 10⁴–10⁶ rounds.  Throughput is one to two orders of
  magnitude above the scalar loop; empty-fusion rounds are reported through a
  ``valid`` mask instead of exceptions so a single bad round cannot abort a
  sweep.  Batched attackers: the deterministic greedy stretch policy
  (bit-matched by the scalar :class:`repro.attack.stretch.ActiveStretchPolicy`)
  and the exact expectation-maximising attacker of problem (2)
  (:mod:`repro.batch.expectation`, bit-matched by the scalar
  :class:`repro.attack.expectation.ExpectationPolicy` under deterministic
  tie-breaking).

* **Scalar** — single rounds, small exhaustive Table I enumerations,
  anything needing rich per-round objects
  (:class:`~repro.scheduling.round.RoundResult`,
  :class:`~repro.core.detection.DetectionResult`), and all property tests:
  the scalar path is the reference oracle that the batch path is asserted to
  bit-match.

The attacker catalogue lives in ``docs/ATTACKERS.md``; the layer map and the
engine seam this subpackage plugs into are described in
``docs/ARCHITECTURE.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "case_study": ("batch_case_study_for_schedule",),
        "expectation": ("ExactExpectationBatchAttacker", "VectorizedExpectationPolicy"),
        "faults": ("BatchTransientFaults",),
        "fuse": (
            "BatchFusion",
            "batch_detect",
            "batch_fuse",
            "coverage_extremes",
        ),
        "rounds": (
            "ActiveStretchBatchAttacker",
            "BatchAttacker",
            "BatchRoundConfig",
            "BatchRoundResult",
            "BatchSlotContext",
            "ExpectationProxyBatchAttacker",
            "TruthfulBatchAttacker",
            "batch_orders",
            "batch_rounds",
            "fusable_attacker",
            "sample_correct_bounds",
        ),
    },
)
