"""Import-set guard: a process imports what it runs.

The CLI imports the module of each experiment it runs and no other, and
nothing on the serial paper path loads the process pool
(``multiprocessing``, :mod:`repro.resilience.executor`), fault
injection or the fleet service: a parallel campaign loads the pool when
it starts one. No process but a test's loads the mapping legality
oracle (:mod:`repro.mapping.legality`). Every probe runs in a fresh interpreter, since the test
process itself has imported all of them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.experiments import ALL_EXPERIMENTS

SRC_DIR = Path(repro.__file__).resolve().parent.parent

#: Modules that only a parallel campaign or a fleet run needs.
POOL_AND_FLEET = frozenset(
    {
        "multiprocessing",
        "concurrent.futures.process",
        "repro.resilience.executor",
        "repro.resilience.faults",
        "repro.fleet",
    }
)

#: Table II's area and timing models, which no simulation reads.
TABLE2_MODELS = frozenset({"repro.hw.area", "repro.hw.timing_model"})

#: The mapping legality oracle, which only tests run.
LEGALITY = "repro.mapping.legality"

EXPERIMENT_MODULES = frozenset(ALL_EXPERIMENTS.values())

CLI = "from repro.experiments.__main__ import main\n"


def loaded_after(code: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter after it ran
    ``code`` with its stdout and stderr discarded."""
    probe = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        + textwrap.indent(code, "    ")
        + "\nprint('\\n'.join(sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_DIR), env.get("PYTHONPATH")))
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_cli_import_loads_no_experiment_pool_or_fleet():
    loaded = loaded_after("import repro.experiments.__main__")
    assert "repro.experiments" in loaded
    assert not loaded & EXPERIMENT_MODULES
    assert not loaded & POOL_AND_FLEET
    assert not loaded & TABLE2_MODELS
    assert LEGALITY not in loaded


def test_running_one_experiment_imports_only_its_module():
    loaded = loaded_after(CLI + "assert main(['table2']) == 0")
    assert loaded & EXPERIMENT_MODULES == {"repro.experiments.table2"}
    assert TABLE2_MODELS <= loaded
    assert not loaded & POOL_AND_FLEET


def test_unknown_experiment_imports_no_experiment():
    loaded = loaded_after(CLI + "assert main(['nope']) == 1")
    assert not loaded & EXPERIMENT_MODULES


def test_list_imports_every_experiment():
    loaded = loaded_after(CLI + "assert main(['--list']) == 0")
    assert EXPERIMENT_MODULES <= loaded


def test_campaign_import_loads_no_pool():
    # What the policy_sweep and wear_mapping benchmark children import.
    loaded = loaded_after("import repro.campaign, repro.system.schedule")
    assert "repro.campaign.runner" in loaded
    assert "repro.mapping.annealing" in loaded
    assert not loaded & POOL_AND_FLEET
    assert LEGALITY not in loaded
