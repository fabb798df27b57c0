"""The same-host perfbench A/B gate (``scripts/perf_ab.py``).

Every test but the last passes a fake runner, so no perfbench run
starts; the last runs a stub ``perfbench/run.py`` in a temporary git
repository through the real runner.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
BENCHMARK = {
    "command": [sys.executable, "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [{"name": "paper_suite"}, {"name": "fleet"}],
    "end_to_end": [
        {"name": name, "unit": unit, "better": "lower", "bound": bound}
        for name, unit, bound in (
            ("wall_s", "s", 0.25), ("setup_s", "s", 0.25),
            ("peak_rss_mb", "MB", 0.05),
        )
    ],
}
#: A stub benchmark: ``wall_s`` is the checkout's ``src/marker`` and
#: ``setup_s`` the stub's own ``VERSION``, so a run shows which source
#: tree and which benchmark code it ran.
STUB = """\
import json
from pathlib import Path

VERSION = {version}
wall = float(Path("src/marker").read_text())
metrics = {{"wall_s": wall, "setup_s": VERSION, "peak_rss_mb": 50.0}}
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "s"}}
                              for k, v in metrics.items()}}}}))
"""


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args], check=True, capture_output=True, text=True,
    ).stdout


@pytest.fixture
def repo(tmp_path):
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "perfbench" / "run.py").write_text(STUB.format(version=1))
    (root / "src" / "marker").write_text("1.0")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "base")
    return root


def result_line(failed: int = 0, **values: float) -> str:
    metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
    return json.dumps({"correct": failed == 0, "attempted": 8,
                       "failed": failed, "metrics": metrics})


class FakeBench:
    """Answers each run from ``answer(side, index)``, where ``index``
    counts that side's runs; records the sides in call order."""

    def __init__(self, repo: Path, answer) -> None:
        self.repo = repo
        self.answer = answer
        self.calls: list[tuple[str, list[str]]] = []

    def __call__(self, root: Path, argv: list[str]) -> tuple[int, str]:
        side = "candidate" if root == self.repo else "base"
        index = sum(called == side for called, _ in self.calls)
        self.calls.append((side, argv))
        return self.answer(side, index)


def values_bench(repo: Path, base: dict, candidate: dict) -> FakeBench:
    """The i-th run of a workload reports ``base[metric][i]`` or
    ``candidate[metric][i]``."""
    def answer(side, index):
        series = base if side == "base" else candidate
        return 0, "report\n" + result_line(
            **{name: series[name][index % perf_ab.PAIRS] for name in METRICS}
        )
    return FakeBench(repo, answer)


def run_gate(repo: Path, runner, workloads=("fleet",)) -> int:
    argv = ["--against", "HEAD"]
    for workload in workloads:
        argv += ["--workload", workload]
    return perf_ab.main(argv, repo=repo, runner=runner)


def noisy(rng: random.Random, centre: float, spread: float) -> list[float]:
    return [centre * (1 + rng.gauss(0, spread)) for _ in range(perf_ab.PAIRS)]


def steady(base: dict) -> dict:
    return {name: list(values) for name, values in base.items()}


@pytest.fixture
def base_values():
    rng = random.Random(7)
    return {
        "wall_s": noisy(rng, 2.4, 0.03),
        "setup_s": noisy(rng, 2.0, 0.03),
        "peak_rss_mb": noisy(rng, 55.0, 0.0002),
    }


def test_pairs_alternate_and_runs_come_from_benchmark_json(repo, base_values):
    bench = values_bench(repo, base_values, steady(base_values))
    assert run_gate(repo, bench, ("paper_suite", "fleet")) == 0
    sides = [side for side, _ in bench.calls]
    one_workload = ["base", "candidate", "candidate", "base"] * (
        perf_ab.PAIRS // 2
    )
    assert sides == one_workload * 2
    assert bench.calls[0][1] == [
        sys.executable, "perfbench/run.py", "--workload", "paper_suite",
        "--seed", "0", "--trace", "0", "--seconds", "30",
    ]
    assert bench.calls[-1][1][3] == "fleet"


def test_sign_test_p_values_are_exact():
    assert perf_ab.sign_test_p(9, 10) == 11 / 1024
    assert perf_ab.sign_test_p(10, 10) == 1 / 1024
    assert perf_ab.sign_test_p(5, 10) == 638 / 1024
    assert perf_ab.sign_test_p(0, 0) == 1.0


def test_aa_like_noise_passes(repo, base_values):
    rng = random.Random(11)
    candidate = {
        "wall_s": noisy(rng, 2.4, 0.03),
        "setup_s": noisy(rng, 2.0, 0.03),
        "peak_rss_mb": noisy(rng, 55.0, 0.0002),
    }
    assert run_gate(repo, values_bench(repo, base_values, candidate)) == 0


def test_five_percent_slower_in_every_pair_fails(repo, base_values, capsys):
    candidate = steady(base_values)
    candidate["wall_s"] = [v * 1.05 for v in base_values["wall_s"]]
    assert run_gate(repo, values_bench(repo, base_values, candidate)) == 1
    out = capsys.readouterr().out
    wall = out.split("fleet wall_s")[1].split("fleet setup_s")[0]
    assert "worse in 10 of 10 pairs" in wall
    assert "p = 0.0009766" in wall and "REGRESSION" in wall


@pytest.mark.parametrize("growth, status", [(1.001, 0), (1.02, 1)])
def test_small_steady_memory_growth_is_under_the_floor(
    repo, growth, status
):
    # The base's quartile spread is 0, so only the 1% floor passes a
    # 0.1% growth seen in every pair.
    base = {"wall_s": [2.4] * 10, "setup_s": [2.0] * 10,
            "peak_rss_mb": [55.0] * 10}
    candidate = steady(base)
    candidate["peak_rss_mb"] = [55.0 * growth] * 10
    assert run_gate(repo, values_bench(repo, base, candidate)) == status


def test_nine_losses_inside_the_base_spread_pass():
    base = [2.0 + 0.1 * i for i in range(10)]
    candidate = [v + 0.05 for v in base[:9]] + [base[9] - 0.05]
    regressed, lines = perf_ab.judge(base, candidate, lower_is_better=True)
    assert "worse in 9 of 10 pairs" in lines[-1]
    assert not regressed
    wide_shift = [v + 1.0 for v in base[:9]] + [base[9] - 0.05]
    assert perf_ab.judge(base, wide_shift, lower_is_better=True)[0]


def test_ties_count_for_neither_side():
    base = [1.0] * 10
    # 8 losses and 2 ties: the ties are no losses ...
    regressed, lines = perf_ab.judge(base, [1.5] * 8 + [1.0] * 2, True)
    assert not regressed
    assert "worse in 8 of 10 pairs (2 tied), sign test p = 0.003906" in (
        lines[-1]
    )
    # ... and no wins: 9 losses and a tie regress.
    regressed, lines = perf_ab.judge(base, [1.5] * 9 + [1.0], True)
    assert regressed
    assert "(1 tied), sign test p = 0.001953" in lines[-1]


def test_higher_is_better_metric_regresses_downwards():
    base = [100.0] * 10
    assert perf_ab.judge(base, [90.0] * 10, lower_is_better=False)[0]
    assert not perf_ab.judge(base, [110.0] * 10, lower_is_better=False)[0]


@pytest.mark.parametrize("output", [
    (3, result_line(**dict.fromkeys(METRICS, 1.0))),
    (0, "perfbench: crashed before the result line\n"),
    (0, result_line(failed=1, **dict.fromkeys(METRICS, 1.0))),
], ids=["nonzero-exit", "no-result-line", "more-failed-operations"])
def test_failed_candidate_run_exits_1(repo, output, capsys):
    def answer(side, index):
        if side == "candidate" and index == 3:
            return output
        return 0, result_line(**dict.fromkeys(METRICS, 1.0))
    bench = FakeBench(repo, answer)
    assert run_gate(repo, bench) == 1
    assert "perf_ab: candidate run 3" in capsys.readouterr().err
    assert len(bench.calls) <= 8  # stops at the failed run's pair


def test_failed_base_run_exits_2(repo, capsys):
    def answer(side, index):
        if side == "base" and index == 2:
            return 1, ""
        return 0, result_line(**dict.fromkeys(METRICS, 1.0))
    assert run_gate(repo, FakeBench(repo, answer)) == 2
    assert "perf_ab: base run 2: exit status 1" in capsys.readouterr().err


def test_bad_revision_exits_2(repo, capsys):
    bench = FakeBench(repo, None)
    assert perf_ab.main(["--against", "no-such-rev"], repo=repo,
                        runner=bench) == 2
    assert bench.calls == []
    assert "perf_ab: cannot check out no-such-rev" in capsys.readouterr().err
    assert sorted(p.name for p in repo.parent.iterdir()) == ["repo"]


def test_worktree_is_removed_when_a_run_raises(repo):
    def answer(side, index):
        if side == "candidate":
            raise KeyboardInterrupt
        return 0, result_line(**dict.fromkeys(METRICS, 1.0))
    with pytest.raises(KeyboardInterrupt):
        run_gate(repo, FakeBench(repo, answer))
    assert sorted(p.name for p in repo.parent.iterdir()) == ["repo"]
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_stub_perfbench_runs_candidate_benchmark_on_both_sides(repo, capsys):
    # The candidate edits both the benchmark and the program; the base
    # worktree must run the candidate's benchmark over the base's
    # program.
    (repo / "perfbench" / "run.py").write_text(STUB.format(version=2))
    (repo / "src" / "marker").write_text("1.5")
    assert run_gate(repo, perf_ab.perfbench_run) == 1
    out = capsys.readouterr().out
    wall, setup = out.split("fleet setup_s")
    assert "base      median 1.0000" in wall
    assert "candidate median 1.5000" in wall
    assert "REGRESSION" in wall
    assert "base      median 2.0000" in setup
    assert "(10 tied)" in setup.split("fleet peak_rss_mb")[0]
    assert sorted(p.name for p in repo.parent.iterdir()) == ["repo"]
