"""Golden regression: every experiment's output is pinned.

Each registered experiment's rendered stdout and JSON artifact are
compared byte-for-byte against checked-in fixtures
(``tests/golden/``), so any mapper/scheduler/allocator work that
silently perturbs the reproduction outputs fails loudly here. The
``mapping`` and ``routing`` ablations run the annealing mapper (the
``routing`` hard-limit arm under a declared context-line budget); its
placements are deterministic for a given seed, like the greedy path's.

Regenerating fixtures after an *intentional* output change::

    for e in fig1 fig7 fig8 table1 table2 ablation fig6 speculation fleet \
            mapping routing; do
        PYTHONPATH=src python -m repro.experiments $e --json tests/golden \
            > tests/golden/$e.stdout.txt
    done
    sed -i '/^\\[wrote /d' tests/golden/*.stdout.txt
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.experiments.__main__ import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Every registered experiment; each has a stdout and a JSON fixture.
PINNED_EXPERIMENTS = (
    "fig1",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
    "ablation",
    "speculation",
    "fleet",
    "mapping",
    "routing",
)


def _run_cli(name: str, json_dir: Path) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main([name, "--json", str(json_dir)])
    assert exit_code == 0, f"experiment {name} failed"
    # The artifact-path line varies with the tmp dir; everything else
    # must match the fixture exactly.
    lines = [
        line
        for line in stdout.getvalue().splitlines(keepends=True)
        if not line.startswith("[wrote ")
    ]
    return "".join(lines)


@pytest.mark.parametrize("name", PINNED_EXPERIMENTS)
def test_experiment_pinned(name, tmp_path):
    stdout = _run_cli(name, tmp_path)
    expected_stdout = (GOLDEN_DIR / f"{name}.stdout.txt").read_text()
    assert stdout == expected_stdout, (
        f"{name} stdout drifted from tests/golden/{name}.stdout.txt — "
        "if the change is intentional, regenerate the fixtures (see "
        "module docstring)"
    )
    produced = (tmp_path / f"{name}.json").read_bytes()
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert produced == expected, (
        f"{name} JSON artifact drifted from tests/golden/{name}.json"
    )


def test_golden_fixtures_cover_all_experiments():
    """The fixture set and the experiment registry stay in sync: every
    registered experiment is pinned here, and nothing else is."""
    from repro.experiments import ALL_EXPERIMENTS

    assert set(PINNED_EXPERIMENTS) == set(ALL_EXPERIMENTS)
    assert len(PINNED_EXPERIMENTS) == len(set(PINNED_EXPERIMENTS))
