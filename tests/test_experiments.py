"""Experiment registry: every paper shape must hold programmatically."""

import dataclasses

import pytest

from repro.cli import main
from repro.experiments import REGISTRY, run_all, run_experiment


@pytest.fixture(scope="session")
def registry_once():
    """Each experiment runs once per session: its runner in ``REGISTRY`` is
    memoised, so the per-shape tests, ``run_all`` and the ``experiments``
    command (table and exit code included) all read that one result."""
    results = {}

    def once(exp_id, runner):
        def run():
            if exp_id not in results:
                results[exp_id] = runner()
            return results[exp_id]

        return run

    with pytest.MonkeyPatch.context() as patch:
        for exp_id, exp in list(REGISTRY.items()):
            patch.setitem(
                REGISTRY, exp_id, dataclasses.replace(exp, runner=once(exp_id, exp.runner))
            )
        yield results


class TestRegistry:
    def test_all_design_ids_present(self):
        expected = {
            "FIG2a", "FIG2b", "FIG2c", "FIG3a", "FIG3b",
            "T-DATA", "T-RAND", "T-SHARED", "T-START", "T-LDATA",
            "EXT-AVAIL", "EXT-BALANCE", "EXT-OVERLOAD", "EXT-INTEGRITY",
            "EXT-ELASTIC", "EXT-HOTSPOT", "EXT-SELFHEAL",
        }
        assert set(REGISTRY) == expected

    def test_entries_are_documented(self):
        for exp in REGISTRY.values():
            assert exp.title
            assert exp.paper_statement

    @pytest.mark.parametrize("exp_id", sorted(REGISTRY))
    def test_every_shape_holds(self, exp_id, registry_once):
        result = run_experiment(exp_id)
        assert result["holds"], f"{exp_id} diverged: {result}"

    def test_run_all(self, registry_once):
        results = run_all()
        assert len(results) == len(REGISTRY)
        diverged = {k: r for k, r in results.items() if not r["holds"]}
        assert not diverged, f"diverged: {diverged}"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("FIG99")

    def test_structured_metrics_present(self):
        assert run_experiment("FIG2a")["factor_512"] == pytest.approx(1405, rel=0.06)
        assert run_experiment("T-SHARED")["ceiling_ops"] == pytest.approx(150e3, rel=0.06)


class TestCliCommand:
    def test_all_ok(self, capsys, registry_once):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == len(REGISTRY)
        assert "DIVERGED" not in out

    def test_single(self, capsys):
        assert main(["experiments", "FIG3a"]) == 0
        out = capsys.readouterr().out
        assert "FIG3a" in out
        assert "FIG2a" not in out

    def test_unknown(self, capsys):
        assert main(["experiments", "FIG99"]) == 1
        assert "unknown experiment" in capsys.readouterr().out
