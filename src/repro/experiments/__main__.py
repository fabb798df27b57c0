"""CLI: run experiment reproductions.

Usage::

    python -m repro.experiments                 # run everything
    python -m repro.experiments fig7 table1     # a selection
    python -m repro.experiments --list          # what exists
    python -m repro.experiments --json out/     # + JSON artifacts

Exits non-zero when an unknown experiment is named or any experiment
raises. A run imports only the modules of the experiments it runs;
``--list`` imports every one to read its summary line.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import traceback
from pathlib import Path

from repro import obs
from repro.campaign.artifacts import write_json, write_telemetry
from repro.experiments import ALL_EXPERIMENTS


def _experiment_summary(module) -> str:
    doc = (module.__doc__ or "").strip().splitlines()
    return doc[0] if doc else ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper-reproduction experiments.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="experiment",
        help="experiments to run (default: all, in registry order)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available experiments and exit",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also dump each experiment's result as DIR/<name>.json",
    )
    parser.add_argument(
        "--profile",
        metavar="TRACE",
        nargs="?",
        const="trace.json",
        default=None,
        help="enable telemetry and write a Chrome trace-event file "
        "(default TRACE: trace.json) plus a telemetry.json summary "
        "next to it; stdout is unchanged",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        # Sorted by name so the listing is deterministic regardless of
        # registry insertion order (stable for scripts that diff it).
        for name in sorted(ALL_EXPERIMENTS):
            module = importlib.import_module(ALL_EXPERIMENTS[name])
            print(f"{name:<10} {_experiment_summary(module)}")
        return 0
    names = args.names or list(ALL_EXPERIMENTS)
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 1
    json_dir = Path(args.json) if args.json else None
    profiling = args.profile is not None
    if profiling:
        obs.set_enabled(True)
        obs.reset()
        obs.tracing.start()
    failures: list[str] = []
    try:
        for index, name in enumerate(names):
            if index:
                print("\n" + "=" * 72 + "\n")
            try:
                module = importlib.import_module(ALL_EXPERIMENTS[name])
                with obs.span("experiment", experiment=name):
                    result = module.run()
                print(module.render(result))
                if json_dir is not None:
                    path = write_json(
                        json_dir / f"{name}.json",
                        {"experiment": name, "result": result},
                    )
                    print(f"[wrote {path}]")
            except Exception:  # one bad experiment must not hide the rest
                failures.append(name)
                print(f"experiment {name!r} failed:", file=sys.stderr)
                traceback.print_exc()
    finally:
        if profiling:
            # Profile reporting stays on stderr: the golden fixtures
            # pin stdout byte-identically, profiled or not.
            trace_path = obs.tracing.write(args.profile)
            telemetry_path = write_telemetry(
                trace_path.parent / "telemetry.json", obs.snapshot()
            )
            obs.tracing.stop()
            obs.set_enabled(False)
            print(f"[profile: {trace_path}]", file=sys.stderr)
            print(f"[profile: {telemetry_path}]", file=sys.stderr)
    if failures:
        print(
            f"\n{len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
