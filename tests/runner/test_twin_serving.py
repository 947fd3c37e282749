"""Twin serving in the sweep runner.

A requested spec whose twin (a spec that simulates to the same
counters) is in the same batch or already cached is filled in from the
twin's result instead of simulated.  These tests pin the three rules
(cap-free predictors, the guarded SP cap, epoch projection), their
bit-identity with a direct simulation, and the two fallbacks: a failed
SP guard and an absent twin both simulate.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, required_configs
from repro.experiments.common import RunCache
from repro.runner import DiskCache, RunSpec, SweepRunner, execute_spec

SCALE = 0.02


def make_runner(disk=None, jobs=1) -> SweepRunner:
    return SweepRunner(
        jobs=jobs, disk=disk, progress=False, ledger=False, spans=False,
    )


def paper_specs(scale, suite) -> list:
    """The unique specs every experiment declares over ``suite``."""
    cache = RunCache(scale=scale, jobs=1, disk_cache=False, progress=False)
    unique: dict = {}
    for config in required_configs(list(EXPERIMENTS), suite):
        spec = cache.spec(**config)
        unique.setdefault(spec.digest(), spec)
    return list(unique.values())


def record_dispatch(runner) -> list:
    """Wrap the runner's dispatch; returns the list of batches it ran."""
    batches = []
    dispatch = runner._dispatch

    def spy(batch, **kw):
        batches.append([digest for digest, _ in batch])
        return dispatch(batch, **kw)

    runner._dispatch = spy
    return batches


class TestStaticResolution:
    def test_paper_grid_dispatches_136_of_187(self):
        specs = paper_specs(0.1, RunCache(disk_cache=False).suite())
        assert len(specs) == 187

        class Stop(Exception):
            pass

        batches = []

        def first_round(batch, **kw):
            batches.append(len(batch))
            raise Stop

        runner = make_runner()
        runner._dispatch = first_round
        with pytest.raises(Stop):
            runner.run_many(specs)
        assert batches == [136]
        assert runner.simulations == 0


class TestBitIdentity:
    def test_served_specs_match_direct_simulation(self, tmp_path):
        specs = paper_specs(SCALE, ["x264", "lu"])
        runner = make_runner(DiskCache(tmp_path / "runs"), jobs=2)
        batches = record_dispatch(runner)
        results = runner.run_many(specs)

        simulated = {digest for batch in batches for digest in batch}
        served = [s for s in specs if s.digest() not in simulated]
        assert len(batches) == 1
        assert runner.simulations == len(simulated)
        assert runner.aliased == len(served) > 0
        assert {s.predictor for s in served} >= {"none", "SP", "UNI"}
        by_digest = dict(zip((s.digest() for s in specs), results))
        for spec in served:
            direct = execute_spec(spec).to_dict()
            assert by_digest[spec.digest()].to_dict() == direct, spec
            assert runner.cell_times[spec.digest()] > 0

        # Every spec stays fetchable under its own digest from disk.
        fresh = make_runner(DiskCache(tmp_path / "runs"))
        for spec, result in zip(specs, results):
            fetched = fresh.fetch(spec)
            assert fetched is not None, spec
            assert fetched.to_dict() == result.to_dict()
        assert fresh.simulations == 0


class TestFallbacks:
    def test_failed_sp_guard_simulates(self):
        # x264's SP-table holds 50 entries; a 1-per-core cap is 16.
        uncapped = RunSpec(workload="x264", scale=SCALE, predictor="SP")
        tight = RunSpec(
            workload="x264", scale=SCALE, predictor="SP", max_entries=1,
        )
        roomy = RunSpec(
            workload="x264", scale=SCALE, predictor="SP", max_entries=64,
        )
        runner = make_runner()
        batches = record_dispatch(runner)
        results = runner.run_many([uncapped, tight, roomy])
        assert runner._occupancy[uncapped.digest()] > 16
        assert batches == [[uncapped.digest()], [tight.digest()]]
        assert runner.simulations == 2
        assert runner.aliased == 1
        assert results[1].to_dict() == execute_spec(tight).to_dict()
        assert results[2].to_dict() == results[0].to_dict()

    @pytest.mark.parametrize("spec", [
        RunSpec(workload="lu", scale=SCALE, predictor="UNI",
                max_entries=64),
        RunSpec(workload="lu", scale=SCALE, predictor="SP",
                max_entries=64),
        RunSpec(workload="lu", scale=SCALE),
    ], ids=["uni-capped", "sp-capped", "non-collecting"])
    def test_absent_twin_simulates(self, spec):
        runner = make_runner()
        runner.run_many([spec])
        assert runner.simulations == 1
        assert runner.aliased == 0

    def test_cached_twin_serves_cap_free_spec(self, tmp_path):
        twin = RunSpec(workload="lu", scale=SCALE, predictor="UNI")
        capped = RunSpec(
            workload="lu", scale=SCALE, predictor="UNI", max_entries=64,
        )
        make_runner(DiskCache(tmp_path / "runs")).run_many([twin])
        warm = make_runner(DiskCache(tmp_path / "runs"))
        [result] = warm.run_many([capped])
        assert warm.simulations == 0
        assert warm.aliased == 1
        assert result.to_dict() == execute_spec(capped).to_dict()

    def test_sp_twin_from_disk_has_unknown_occupancy(self, tmp_path):
        twin = RunSpec(workload="lu", scale=SCALE, predictor="SP")
        capped = RunSpec(
            workload="lu", scale=SCALE, predictor="SP", max_entries=64,
        )
        make_runner(DiskCache(tmp_path / "runs")).run_many([twin])
        warm = make_runner(DiskCache(tmp_path / "runs"))
        warm.run_many([capped])
        assert warm.simulations == 1
        assert warm.aliased == 0
