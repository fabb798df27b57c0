"""Same-host A/B of the repository benchmark against a git revision.

Usage::

    python3 scripts/perf_ab.py --against REV [--workload NAME ...]

Run from a git checkout (the candidate). REV (the base) is checked out
with ``git worktree add --detach`` into a temporary directory beside the
checkout, and the checkout's ``perfbench/`` and ``BENCHMARK.json`` are
copied over it, so both sides run identical benchmark code; the worktree
is removed when the run ends, also on Ctrl-C.

Per workload (default: every workload of ``BENCHMARK.json``) it runs
:data:`PAIRS` pairs of ``perfbench/run.py --seed 0 --trace 0 --seconds
<run_seconds>``, the base first in even pairs and the candidate first in
odd ones. For each end-to-end metric it prints the per-pair ratios
(candidate / base), both sides' medians and quartiles, the pairs the
candidate lost (ties count for neither side) and an exact one-sided
sign-test p-value.

Exit status:

* 0: no regression.
* 1: on some workload a metric is worse in at least :data:`MIN_LOSSES`
  of the pairs and its median is worse than the base's by more than both
  the base's quartile spread and :data:`MIN_SHIFT` of the base median;
  or a candidate run exited non-zero, printed no result line, or failed
  more operations than the base run of its pair.
* 2: the base cannot be measured: a bad revision, or a failed base run.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Pairs of runs per workload.
PAIRS = 10
#: A metric regresses when the candidate is worse in at least this many
#: pairs (a one-sided sign-test p of 11/1024 at 9 of 10) ...
MIN_LOSSES = 9
#: ... and its median is worse than the base's by more than the base's
#: quartile spread and by more than this share of the base median. An
#: A/A run (a checkout against its own HEAD) read ``policy_sweep``
#: ``peak_rss_mb`` 0.26% higher in 10 of 10 pairs, with a base quartile
#: spread of only 0.03%, so a rule keyed on the spread alone fails an
#: A/A run.
MIN_SHIFT = 0.01
#: Seed of every run: the one input ``BENCHMARK.json`` leaves free.
SEED = 0

#: Runs one perfbench command in a checkout: ``(root, argv) -> (exit
#: status, standard output)``.
Runner = Callable[[Path, list[str]], tuple[int, str]]


class RunFailed(Exception):
    """A side gave no usable result; ``status`` is the exit status."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def perfbench_run(root: Path, argv: list[str]) -> tuple[int, str]:
    """Run ``argv`` in ``root``; its standard error passes through."""
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def parse_result(status: int, stdout: str, metrics: list[str]) -> dict:
    """The result line of one run: ``{"failed": n, metric: value, ...}``;
    ``ValueError`` when there is none."""
    if status != 0:
        raise ValueError(f"exit status {status}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: result["metrics"][name]["value"] for name in metrics}
        return dict(values, failed=result["failed"])
    except (IndexError, ValueError, TypeError, KeyError):
        raise ValueError("no result line") from None


def run_pairs(
    argv: list[str], metrics: list[str], base: Path, candidate: Path,
    runner: Runner,
) -> tuple[list[dict], list[dict]]:
    """:data:`PAIRS` alternating pairs of one workload's runs."""
    roots = {"base": base, "candidate": candidate}
    runs: dict[str, list[dict]] = {"base": [], "candidate": []}
    for pair in range(PAIRS):
        for side in ("base", "candidate")[:: -1 if pair % 2 else 1]:
            try:
                runs[side].append(
                    parse_result(*runner(roots[side], argv), metrics)
                )
            except ValueError as error:
                raise RunFailed(
                    f"{side} run {pair}: {error}", 2 if side == "base" else 1
                ) from None
        base_failed = runs["base"][-1]["failed"]
        candidate_failed = runs["candidate"][-1]["failed"]
        if candidate_failed > base_failed:
            raise RunFailed(
                f"candidate run {pair}: {candidate_failed} failed "
                f"operations, base {base_failed}", 1
            )
    return runs["base"], runs["candidate"]


def sign_test_p(losses: int, decided: int) -> float:
    """Exact one-sided sign-test p: the chance of at least ``losses``
    losses in ``decided`` untied pairs of a fair coin."""
    tail = sum(math.comb(decided, k) for k in range(losses, decided + 1))
    return tail / 2**decided


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(
    base: list[float], candidate: list[float], lower_is_better: bool
) -> tuple[bool, list[str]]:
    """Whether one metric regressed, and the lines that show it."""
    sign = 1.0 if lower_is_better else -1.0
    diffs = [sign * (c - b) for b, c in zip(base, candidate)]
    losses = sum(d > 0 for d in diffs)
    decided = sum(d != 0 for d in diffs)
    base_median = statistics.median(base)
    shift = sign * (statistics.median(candidate) - base_median)
    b1, b3 = quartiles(base)
    c1, c3 = quartiles(candidate)
    regressed = losses >= MIN_LOSSES and shift > max(
        b3 - b1, MIN_SHIFT * base_median
    )
    ratios = " ".join(f"{c / b:.3f}" for b, c in zip(base, candidate))
    return regressed, [
        f"    ratios (candidate / base): {ratios}",
        f"    base      median {base_median:.4f}  "
        f"quartiles {b1:.4f} .. {b3:.4f}",
        f"    candidate median {statistics.median(candidate):.4f}  "
        f"quartiles {c1:.4f} .. {c3:.4f}",
        f"    candidate worse in {losses} of {len(diffs)} pairs "
        f"({len(diffs) - decided} tied), sign test p = "
        f"{sign_test_p(losses, decided):.4g}"
        + ("  REGRESSION" if regressed else ""),
    ]


def git(repo: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True
    )


@contextmanager
def base_checkout(repo: Path, revision: str) -> Iterator[Path]:
    """A detached worktree of ``revision`` beside ``repo``, running
    ``repo``'s benchmark code; removed on exit."""
    holder = Path(tempfile.mkdtemp(prefix=f".{repo.name}-ab-", dir=repo.parent))
    tree = holder / "base"
    try:
        added = git(repo, "worktree", "add", "--detach", str(tree), revision)
        if added.returncode != 0:
            raise RunFailed(
                f"cannot check out {revision}: {added.stderr.strip()}", 2
            )
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        shutil.copytree(
            repo / "perfbench", tree / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy2(repo / "BENCHMARK.json", tree / "BENCHMARK.json")
        yield tree
    finally:
        git(repo, "worktree", "remove", "--force", str(tree))
        shutil.rmtree(holder, ignore_errors=True)
        git(repo, "worktree", "prune")


def main(
    argv: list[str] | None = None, repo: Path = ROOT,
    runner: Runner = perfbench_run,
) -> int:
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the base revision")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to compare (repeatable; default all)")
    args = parser.parse_args(argv)
    metrics = bench["end_to_end"]
    metric_names = [metric["name"] for metric in metrics]
    regressed = False
    try:
        with base_checkout(repo, args.against) as base:
            for workload in args.workload or names:
                command = [
                    *bench["command"], "--workload", workload,
                    "--seed", str(SEED), "--trace", "0",
                    "--seconds", str(bench["run_seconds"]),
                ]
                base_runs, candidate_runs = run_pairs(
                    command, metric_names, base, repo, runner
                )
                for metric in metrics:
                    name = metric["name"]
                    worse, lines = judge(
                        [run[name] for run in base_runs],
                        [run[name] for run in candidate_runs],
                        metric["better"] == "lower",
                    )
                    regressed |= worse
                    print(f"{workload} {name} ({metric['unit']}, "
                          f"{metric['better']} is better)")
                    print("\n".join(lines), flush=True)
    except RunFailed as error:
        print(f"perf_ab: {error}", file=sys.stderr)
        return error.status
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
