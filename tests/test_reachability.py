"""Orphan-module guard: every module under ``src/repro`` is loaded by a
user surface.

The user surfaces are the two CLIs, every experiment, the campaign and
fleet packages, and every suite kernel. A module none of them loads
feeds no result, so it either goes or is named in
``UNREACHED_ALLOWED`` with the reason it stays. The sweep runs in a
fresh interpreter: the test session itself imports modules that no
user surface reaches.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent

#: Modules no user surface loads, each with the reason it stays.
UNREACHED_ALLOWED = {
    "repro.cgra.executor": (
        "value oracle: tests check that DBT units compute the values "
        "the committed trace holds"
    ),
    "repro.mapping.legality": (
        "DFG dependence oracle: tests check that every mapper's units "
        "honour the dependences, FU spans, ports and routing budget of "
        "their window"
    ),
    "repro.workloads.synthetic": (
        "generated kernels with a dialled ILP, memory share or branch "
        "period: the inputs of the unit-shape and misspeculation-"
        "monitor tests"
    ),
}

SWEEP = """
import importlib
import pkgutil
import sys

import repro.__main__
import repro.campaign
import repro.experiments
import repro.experiments.__main__
import repro.fleet
import repro.workloads.__main__
from repro.workloads.suite import all_workloads

for package in (repro.experiments, repro.campaign, repro.fleet):
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        importlib.import_module(info.name)
all_workloads()
print("\\n".join(name for name in sys.modules if name.split(".")[0] == "repro"))
"""


def package_modules() -> set[str]:
    """Dotted names of every module and package under ``src/repro``."""
    names = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names


@pytest.fixture(scope="module")
def loaded() -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")))
    )
    sweep = subprocess.run(
        [sys.executable, "-c", SWEEP],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert sweep.returncode == 0, sweep.stderr
    return set(sweep.stdout.split())


def test_every_module_is_reached_from_a_user_surface(loaded):
    orphans = package_modules() - loaded - set(UNREACHED_ALLOWED)
    assert not orphans, (
        f"no user surface loads {sorted(orphans)}: delete them, or add "
        "each to UNREACHED_ALLOWED with the reason it stays"
    )


def test_allow_list_names_only_unreached_modules(loaded):
    allowed = set(UNREACHED_ALLOWED)
    assert allowed <= package_modules()
    assert not allowed & loaded
