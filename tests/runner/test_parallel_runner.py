"""Tests for the parallel sweep runner and the persistent result cache.

The two load-bearing guarantees:

* determinism — the multiprocessing path and the serial in-process
  fallback produce identical ``SimulationResult`` payloads;
* zero re-simulation — a repeated prefetch (same process or a fresh
  cache over the same disk directory) performs no engine runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import RunCache
from repro.runner import DiskCache, RunSpec, SweepRunner
from repro.sim.machine import MachineConfig

SCALE = 0.05

#: A small but representative grid: two workloads, a predictor and a
#: baseline, one epoch-collecting run.
GRID = [
    {"name": "x264"},
    {"name": "x264", "predictor": "SP"},
    {"name": "lu", "predictor": "SP"},
    {"name": "lu", "collect_epochs": True},
]


def make_cache(tmp_path, jobs, subdir="runs") -> RunCache:
    return RunCache(
        machine=MachineConfig(),
        scale=SCALE,
        jobs=jobs,
        disk_cache=DiskCache(tmp_path / subdir),
    )


class TestDeterminism:
    def test_parallel_matches_serial(self, tmp_path):
        serial = RunCache(scale=SCALE, jobs=1, disk_cache=False)
        parallel = make_cache(tmp_path, jobs=2)
        parallel.prefetch(GRID)
        assert parallel.simulations == len(GRID)
        for config in GRID:
            a = serial.get(**config)
            b = parallel.get(**config)
            assert a == b, f"serial and parallel results differ for {config}"

    def test_parallel_results_carry_epoch_records(self, tmp_path):
        parallel = make_cache(tmp_path, jobs=2)
        parallel.prefetch(GRID)
        collected = parallel.get("lu", collect_epochs=True)
        assert collected.epoch_records
        assert collected.pc_volume
        # tuple keys survived the worker round-trip
        core, pc = next(iter(collected.pc_volume))
        assert isinstance(core, int) and isinstance(pc, int)


class TestZeroResimulation:
    def test_repeated_prefetch_simulates_nothing(self, tmp_path):
        cache = make_cache(tmp_path, jobs=1)
        first = cache.prefetch(GRID)
        assert first == len(GRID)
        second = cache.prefetch(GRID)
        assert second == 0

    def test_warm_disk_cache_crosses_processes(self, tmp_path):
        cold = make_cache(tmp_path, jobs=1)
        cold.prefetch(GRID)
        # A fresh RunCache over the same directory models a new harness
        # invocation: everything must come off disk.
        warm = make_cache(tmp_path, jobs=1)
        assert warm.prefetch(GRID) == 0
        assert warm.simulations == 0
        for config in GRID:
            assert warm.get(**config) == cold.get(**config)
        assert warm.simulations == 0

    def test_get_after_prefetch_is_memo_hit(self, tmp_path):
        cache = make_cache(tmp_path, jobs=1)
        cache.prefetch(GRID)
        before = cache.simulations
        a = cache.get("x264", predictor="SP")
        b = cache.get("x264", predictor="SP")
        assert a is b
        assert cache.simulations == before

    def test_collecting_disk_entry_serves_plain_request(self, tmp_path):
        cold = make_cache(tmp_path, jobs=1)
        cold.get("lu", collect_epochs=True)
        warm = make_cache(tmp_path, jobs=1)
        result = warm.get("lu", collect_epochs=False)
        assert warm.simulations == 0
        assert result.epoch_records


class TestRunSpecDigest:
    def test_digest_distinguishes_configurations(self):
        base = RunSpec(workload="lu", scale=0.1)
        assert base.digest() == RunSpec(workload="lu", scale=0.1).digest()
        for other in (
            RunSpec(workload="x264", scale=0.1),
            RunSpec(workload="lu", scale=0.2),
            RunSpec(workload="lu", scale=0.1, protocol="broadcast"),
            RunSpec(workload="lu", scale=0.1, predictor="SP"),
            RunSpec(workload="lu", scale=0.1, collect_epochs=True),
            RunSpec(workload="lu", scale=0.1, max_entries=64),
            RunSpec(workload="lu", scale=0.1, seed=7),
            RunSpec(workload="lu", scale=0.1, machine=MachineConfig.small()),
        ):
            assert other.digest() != base.digest()

    def test_collecting_variant(self):
        spec = RunSpec(workload="lu", scale=0.1)
        assert spec.collecting().collect_epochs
        assert spec.collecting().digest() != spec.digest()
        already = RunSpec(workload="lu", scale=0.1, collect_epochs=True)
        assert already.collecting() is already


class TestDiskCache:
    def test_corrupt_entry_is_discarded(self, tmp_path):
        disk = DiskCache(tmp_path / "runs")
        disk.store("abc", {"x": 1})
        assert disk.load("abc") == {"x": 1}
        disk.path("abc").write_text("{not json")
        assert disk.load("abc") is None
        assert not disk.path("abc").exists()

    def test_clear_and_size(self, tmp_path):
        disk = DiskCache(tmp_path / "runs")
        assert disk.size() == 0
        disk.store("a", {})
        disk.store("b", {})
        assert disk.size() == 2
        assert disk.clear() == 2
        assert disk.size() == 0

    def test_missing_entry(self, tmp_path):
        disk = DiskCache(tmp_path / "runs")
        assert disk.load("nope") is None
        assert disk.misses == 1


class TestSweepRunner:
    def test_run_many_deduplicates(self, tmp_path):
        runner = SweepRunner(jobs=1, disk=DiskCache(tmp_path / "runs"))
        spec = RunSpec(workload="x264", scale=SCALE)
        results = runner.run_many([spec, spec, spec])
        assert runner.simulations == 1
        assert results[0] is results[1] is results[2]

    def test_fetch_never_simulates(self, tmp_path):
        runner = SweepRunner(jobs=1, disk=DiskCache(tmp_path / "runs"))
        assert runner.fetch(RunSpec(workload="x264", scale=SCALE)) is None
        assert runner.simulations == 0

    @pytest.mark.parametrize("content", ["{}", "[]"])
    def test_wrong_shaped_entry_recomputes(self, tmp_path, content):
        spec = RunSpec(workload="x264", scale=SCALE)
        clean = SweepRunner(jobs=1, disk=DiskCache(tmp_path / "runs"))
        [expected] = clean.run_many([spec])
        disk = DiskCache(tmp_path / "runs")
        disk.path(spec.digest()).write_text(content)
        runner = SweepRunner(jobs=1, disk=disk)
        [result] = runner.run_many([spec])
        assert runner.simulations == 1
        assert result.to_dict() == expected.to_dict()
        # The recomputed payload replaced the bad entry on disk.
        assert disk.load(spec.digest()) == expected.to_dict()


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        from repro.runner import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(5) == 5
        assert resolve_jobs() == 3
        monkeypatch.delenv("REPRO_JOBS")
        import os

        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_floor_of_one_warns(self):
        from repro.runner import resolve_jobs

        with pytest.warns(RuntimeWarning, match=r"jobs=0 is not a valid"):
            assert resolve_jobs(0) == 1
        with pytest.warns(RuntimeWarning, match=r"jobs=-4 is not a valid"):
            assert resolve_jobs(-4) == 1

    def test_env_floor_of_one_warns(self, monkeypatch):
        from repro.runner import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.warns(
            RuntimeWarning, match=r"REPRO_JOBS=0 is not a valid"
        ):
            assert resolve_jobs() == 1

    def test_valid_counts_do_not_warn(self, monkeypatch, recwarn):
        from repro.runner import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs() == 2
        assert resolve_jobs(1) == 1
        assert not [
            w for w in recwarn if issubclass(w.category, RuntimeWarning)
        ]

    def test_garbage_env_names_the_variable(self, monkeypatch):
        from repro.runner import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


class TestEnginePredictorWiring:
    """Satellite: the engine accepts predictor kinds directly."""

    def test_kind_string_builds_and_names(self, stable_workload, small_machine):
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(
            stable_workload, machine=small_machine, predictor="SP"
        )
        assert engine.predictor is not None
        assert engine.predictor.name == "SP"
        assert engine.result.predictor == "SP"

    def test_oracle_kind_gets_directory(self, stable_workload, small_machine):
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(
            stable_workload, machine=small_machine, predictor="ORACLE"
        )
        assert engine.result.predictor == "ORACLE"

    def test_none_kind(self, stable_workload, small_machine):
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(
            stable_workload, machine=small_machine, predictor="none"
        )
        assert engine.predictor is None
        assert engine.result.predictor == "none"

    def test_entries_require_kind_name(self, stable_workload, small_machine):
        from repro.sim.engine import SimulationEngine

        with pytest.raises(ValueError):
            SimulationEngine(
                stable_workload, machine=small_machine, predictor_entries=8
            )

    def test_fast_path_preserves_timing(self, stable_workload, small_machine):
        from repro.sim.engine import simulate

        full = simulate(stable_workload, machine=small_machine, predictor="SP")
        fast = simulate(
            stable_workload, machine=small_machine, predictor="SP",
            ideal_metric=False,
        )
        assert fast.cycles == full.cycles
        assert fast.misses == full.misses
        assert fast.comm_misses == full.comm_misses
        assert fast.ideal_correct == 0
        assert fast.dynamic_epochs == 0
