"""The exact expectation attacker's sub-spans.

Every batched decision call of
:class:`repro.batch.expectation.ExactExpectationBatchAttacker` emits one
``attack.candidates``, ``attack.recurse`` and ``attack.score`` span: the
calls made per schedule slot sit directly under ``engine.attack``, and the
lookahead calls they make for later compromised slots nest under their
caller's ``attack.recurse``.  Tracing them never changes a payload.
"""

import dataclasses
import json

import numpy as np

from repro import obs
from repro.engine import BatchEngine, ExpectationAttack
from repro.runner import run_scenario
from repro.scenarios import get_scenario
from repro.scheduling import DescendingSchedule, ScheduleComparisonConfig

SUB_SPANS = ("attack.candidates", "attack.recurse", "attack.score")

#: Table I row 8 (fa = 2): the first compromised slot looks ahead to the second.
CONFIG = ScheduleComparisonConfig(lengths=(5.0, 5.0, 5.0, 14.0, 17.0), fa=2)
SPEC = ExpectationAttack(true_value_positions=2, placement_positions=2, grid_positions=5)


def _walk(node, ancestors=()):
    yield node, ancestors
    for child in node["children"]:
        yield from _walk(child, ancestors + (node["name"],))


def test_sub_spans_nest_under_engine_attack():
    def run():
        return BatchEngine().run_rounds(
            CONFIG, DescendingSchedule(), SPEC, None, 16, np.random.default_rng(5)
        )

    untraced = run()
    with obs.collect() as session:
        traced = run()
    assert traced.fusion_lo.tobytes() == untraced.fusion_lo.tobytes()
    assert traced.fusion_hi.tobytes() == untraced.fusion_hi.tobytes()

    nodes = [pair for root in session.snapshot()["spans"] for pair in _walk(root)]
    attack = [node for node, _ancestors in nodes if node["name"] == "engine.attack"]
    assert len(attack) == 1
    # One set of sub-spans per decision call (once per compromised slot),
    # as direct children of engine.attack, in call order.
    direct = [child["name"] for child in attack[0]["children"]]
    assert direct == list(SUB_SPANS) * CONFIG.fa
    nested = 0
    for node, ancestors in nodes:
        if node["name"] in SUB_SPANS:
            assert node["attrs"] == {"kernel": "batch"}
            assert "engine.attack" in ancestors
            assert ancestors[-1] in ("engine.attack", "attack.recurse")
            nested += ancestors[-1] == "attack.recurse"
        if node["name"] == "attack.recurse" and node["children"]:
            assert [child["name"] for child in node["children"]] == list(SUB_SPANS)
    # The first compromised slot's lookahead decided the second one.
    assert nested == len(SUB_SPANS)


def test_expectation_payload_bit_identical_traced_vs_untraced():
    spec = dataclasses.replace(get_scenario("table1-expectation"), samples=8, shard_samples=8)
    untraced = run_scenario(spec, store=None).payload
    with obs.collect() as session:
        traced = run_scenario(spec, store=None).payload
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)
    names = {node["name"] for root in session.snapshot()["spans"] for node, _ in _walk(root)}
    assert set(SUB_SPANS) <= names
