"""Tests for the ``python -m repro.experiments`` CLI."""

import json
import sys

import pytest

import repro.experiments as experiments_pkg
from repro.experiments.__main__ import main


def register(monkeypatch, name, stand_in):
    """Register ``stand_in`` as experiment ``name``. The registry names
    modules, so the stand-in is put in ``sys.modules`` under its own
    module name, where the CLI's import finds it."""
    module_name = f"stand_in_experiment_{name}"
    monkeypatch.setitem(sys.modules, module_name, stand_in)
    monkeypatch.setitem(experiments_pkg.ALL_EXPERIMENTS, name, module_name)


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in experiments_pkg.ALL_EXPERIMENTS:
            assert name in output

    def test_list_is_sorted_and_has_mapping(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert names == sorted(names)
        assert "mapping" in names

    def test_list_is_deterministic(self, capsys, monkeypatch):
        # Registry insertion order must not leak into the listing.
        reordered = dict(
            reversed(list(experiments_pkg.ALL_EXPERIMENTS.items()))
        )
        monkeypatch.setattr(
            experiments_pkg, "ALL_EXPERIMENTS", reordered
        )
        monkeypatch.setattr(
            "repro.experiments.__main__.ALL_EXPERIMENTS", reordered
        )
        assert main(["--list"]) == 0
        first = capsys.readouterr().out
        assert main(["--list"]) == 0
        assert capsys.readouterr().out == first
        names = [line.split()[0] for line in first.strip().splitlines()]
        assert names == sorted(names)


class TestRun:
    def test_unknown_experiment_nonzero_exit(self, capsys):
        assert main(["figZZZ"]) == 1
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "available" in err

    def test_table2_runs_and_dumps_json(self, capsys, tmp_path):
        assert main(["table2", "--json", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output
        payload = json.loads((tmp_path / "table2.json").read_text())
        assert payload["experiment"] == "table2"
        assert 0 < payload["result"]["area_overhead"] < 0.10
        assert payload["result"]["geometry"]["rows"] == 2


class TestFailureHandling:
    def test_failing_experiment_exits_nonzero(self, capsys, monkeypatch):
        class Exploding:
            __doc__ = "always fails"

            @staticmethod
            def run():
                raise RuntimeError("boom")

            @staticmethod
            def render(result):  # pragma: no cover - never reached
                return ""

        register(monkeypatch, "exploding", Exploding)
        assert main(["exploding"]) == 1
        err = capsys.readouterr().err
        assert "exploding" in err

    def test_failure_does_not_hide_later_experiments(
        self, capsys, monkeypatch
    ):
        class Exploding:
            @staticmethod
            def run():
                raise RuntimeError("boom")

            @staticmethod
            def render(result):  # pragma: no cover
                return ""

        register(monkeypatch, "exploding", Exploding)
        assert main(["exploding", "table2"]) == 1
        captured = capsys.readouterr()
        assert "Table II" in captured.out


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_cleanly(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([flag])
    assert excinfo.value.code == 0
    assert "--json" in capsys.readouterr().out
