"""Cold-start import budget: a command loads only the modules it runs.

Every test starts a fresh interpreter, so what it reads from
``sys.modules`` is exactly what the command imported.  The first script is
the benchmark's set-up sequence plus one small stretch-attacker run; the
second is ``python -m repro run``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules only other commands need: serving, schedule search, figures,
#: the vehicle stack, the exact attacker, the scalar engine, the scalar
#: attack policies, and the stdlib machinery of serving and of worker pools.
NOT_LOADED = (
    "repro.serve",
    "repro.optimize",
    "repro.viz",
    "repro.vehicle",
    "repro.scenarios.figures",
    "repro.batch.expectation",
    "repro.engine.scalar",
    "repro.attack.policy",
    "asyncio",
    "concurrent.futures.process",
)

#: Most ``repro.*`` modules a stretch run on the batch engine may load:
#: ``python -m repro run table1-smoke`` loads exactly this many (every
#: package import loaded 82 before imports became lazy).
MODULE_CEILING = 46

SCRIPTS = {
    "set-up and a stretch run": """
        import repro
        from repro import api
        from repro.engine import available_engines, get_engine
        from repro.scenarios.registry import available_scenarios

        available_scenarios()
        available_engines()
        get_engine("batch")
        api.run("table1-smoke", workers=1, store=STORE, force=True)
    """,
    "python -m repro run": """
        from repro.cli import main

        assert main(["run", "table1-smoke", "--workers", "1", "--force", "--store", STORE]) == 0
    """,
}


def loaded_modules(script: str, tmp_path: Path) -> list[str]:
    """Run ``script`` in a fresh interpreter; return its ``sys.modules`` keys."""
    program = f"STORE = {str(tmp_path / 'store')!r}\n" + textwrap.dedent(script)
    program += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    completed = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        check=True,
        cwd=tmp_path,
        env={
            **{key: value for key, value in os.environ.items() if not key.startswith("REPRO_")},
            "PYTHONPATH": str(SRC),
        },
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_command_loads_only_what_it_runs(script, tmp_path):
    modules = loaded_modules(SCRIPTS[script], tmp_path)
    assert [name for name in NOT_LOADED if name in modules] == []
    repro = [name for name in modules if name == "repro" or name.startswith("repro.")]
    assert len(repro) <= MODULE_CEILING, repro


def test_engines_are_registered_before_their_classes_load(tmp_path):
    modules = loaded_modules(
        """
        from repro.engine import available_engines

        assert available_engines() == ("batch", "scalar")
        """,
        tmp_path,
    )
    assert "repro.engine.base" in modules
    assert "repro.engine.batch" not in modules and "repro.engine.scalar" not in modules


def test_expectation_attack_loads_the_exact_attacker_on_first_use(tmp_path):
    modules = loaded_modules(
        """
        import numpy as np

        from repro.engine import get_engine
        from repro.scheduling import AscendingSchedule, ScheduleComparisonConfig

        config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)
        get_engine("batch").run_rounds(config, AscendingSchedule(), "expectation", samples=2, rng=np.random.default_rng(0))
        """,
        tmp_path,
    )
    assert "repro.batch.expectation" in modules
    assert "repro.engine.scalar" not in modules


@pytest.mark.parametrize(
    "script",
    [
        "import repro.scenarios.spec",
        """
        from repro.cli import main

        assert main(["list"]) == 0
        """,
    ],
    ids=["import repro.scenarios.spec", "python -m repro list"],
)
def test_specs_build_without_the_simulation(script, tmp_path):
    """Building and listing specs (fault cases included) never simulates."""
    modules = loaded_modules(script, tmp_path)
    assert "repro.batch.rounds" not in modules
    assert "repro.batch.fuse" not in modules
