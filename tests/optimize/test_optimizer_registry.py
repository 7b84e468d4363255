"""Optimizer registry behaviour: lookup, did-you-mean, registration rules."""

import pytest

from repro.core.exceptions import ExperimentError
from repro.optimize import (
    AnnealOptimizer,
    Optimizer,
    available_optimizers,
    get_optimizer,
    register_optimizer,
)


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert set(available_optimizers()) >= {"exhaustive", "anneal", "bandit"}

    def test_get_by_name(self):
        assert isinstance(get_optimizer("anneal"), AnnealOptimizer)

    def test_instance_passes_through(self):
        optimizer = AnnealOptimizer()
        assert get_optimizer(optimizer) is optimizer

    def test_unknown_strategy_lists_available(self):
        with pytest.raises(ExperimentError, match="available strategies"):
            get_optimizer("no-such-strategy")

    def test_typo_gets_did_you_mean_hint(self):
        with pytest.raises(ExperimentError, match="did you mean.*'anneal'"):
            get_optimizer("aneal")

    def test_empty_name_rejected(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            register_optimizer("", AnnealOptimizer)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_optimizer("anneal", AnnealOptimizer)

    def test_replace_allows_reregistration(self):
        register_optimizer("anneal", AnnealOptimizer, replace=True)
        assert isinstance(get_optimizer("anneal"), AnnealOptimizer)

    def test_optimizer_is_abstract(self):
        with pytest.raises(TypeError):
            Optimizer()
