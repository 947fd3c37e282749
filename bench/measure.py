"""Measure one workload in this process.

``bench.run`` starts this module in a fresh subprocess per workload,
with ``REPRO_TRACE_DIR``, ``REPRO_CACHE_DIR``, ``REPRO_LEDGER_DIR`` and
``TMPDIR`` pointing into a scratch directory of the checkout, and reads
the JSON record it prints as its last line.  One run:

1. *Set-up*: generate, compile and save the workload's traces
   :data:`SETUP_BUILDS` times into empty trace stores; the last store
   stays warm for the passes (users build traces once per machine).
2. *Passes*: run every cell of the workload, untraced, until the time
   budget is spent.  ``paper-regen`` regenerates the paper through the
   runner's pool from a cold result cache; the other workloads load
   their traces from the warm store and run their cells in process.
3. *Traced pass* (``--trace 1``): the same cells under ``cProfile``,
   folded into layers by :mod:`bench.layers`.  ``paper-regen`` profiles
   every 8th cell in process through ``execute_spec``, plus each
   experiment's ``run()``.
4. *Check*: every cell's result digest against ``bench/reference``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from bench import layers, reference, stats
from bench.run import nproc
from bench.workloads import (
    WORKLOADS, experiments, generate, make_engine, observer_events,
    paper_specs, spec_label,
)
from repro.experiments import EXPERIMENTS
from repro.obs import host_metadata
from repro.runner import DiskCache, execute_spec
from repro.sim.engine import SimulationEngine
from repro.traces import (
    TraceStore, attach_compiled, ensure_compiled, workload_key,
)
from repro.workloads.suite import benchmark_names

#: Trace-store builds per run; ``setup_s`` is their median.
SETUP_BUILDS = 5

#: ``paper-regen``'s traced pass profiles every Nth cell (16 of 187),
#: which keeps the traced run under 30 s on a 2-CPU host.
TRACE_EVERY = 12

#: Untraced passes of an in-process workload measure at least this
#: many times, so ``cell_tail_s`` has a fixed percentile per workload.
MIN_PASSES = 5


@dataclass
class Outcome:
    """One simulated cell: its result, or the error it raised."""

    label: str
    trace: str
    observed: bool = False
    result: object = None
    error: str | None = None
    obs_events: int = 0


@dataclass
class Pass:
    """One untraced run of a workload's cells."""

    wall: float
    #: Seconds per cell that completed, by label.
    cell_times: dict
    outcomes: list
    store_s: float = 0.0
    jobs: int = 1


@dataclass
class Run:
    """What one child measured, before it becomes metrics."""

    setup: dict
    trace_info: dict
    passes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatch: str | None = None
    counts: dict | None = None
    min_passes: int = 1

    def cell_times(self) -> list:
        return [t for p in self.passes for t in p.cell_times.values()]

    def tail(self) -> tuple:
        """The cell-time tail, its percentile chosen for the samples
        every run of this workload is guaranteed to have."""
        guaranteed = len(self.passes[0].cell_times) * self.min_passes
        return stats.tail(self.cell_times() or [0.0], guaranteed)


class TimingDiskCache(DiskCache):
    """A result store that adds up the seconds spent in it."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.seconds = 0.0

    def load(self, digest):
        start = time.perf_counter()
        try:
            return super().load(digest)
        finally:
            self.seconds += time.perf_counter() - start

    def store(self, digest, payload) -> None:
        start = time.perf_counter()
        try:
            super().store(digest, payload)
        finally:
            self.seconds += time.perf_counter() - start


# ----------------------------------------------------------------------
# set-up: build the trace store
# ----------------------------------------------------------------------

def setup(workload, scale: float, seed: int, warm_dir: Path,
          builds: int = SETUP_BUILDS) -> tuple:
    """Build the traces ``builds`` times into empty stores.

    Returns ``(phases, trace_info)``: the median seconds of each phase
    and of a whole build, and ``trace -> (events, vectorizable
    events)``.  The last build stays in ``warm_dir``.
    """
    traces = benchmark_names() if workload.sweep else workload.traces
    samples = {"generate_s": [], "compile_s": [], "save_s": [], "setup_s": []}
    for build in range(builds):
        last = build == builds - 1
        root = warm_dir if last else warm_dir.with_name(f"setup-{build}")
        store = TraceStore(root)
        phase = dict.fromkeys(("generate_s", "compile_s", "save_s"), 0.0)
        compiled = {}
        for trace in traces:
            t0 = time.perf_counter()
            generated = generate(trace, scale, seed)
            t1 = time.perf_counter()
            compiled[trace] = ensure_compiled(generated)
            t2 = time.perf_counter()
            store.store(workload_key(trace, scale, seed), compiled[trace])
            t3 = time.perf_counter()
            phase["generate_s"] += t1 - t0
            phase["compile_s"] += t2 - t1
            phase["save_s"] += t3 - t2
        phase["setup_s"] = sum(phase.values())
        for name, value in phase.items():
            samples[name].append(value)
        if not last:
            shutil.rmtree(root)
    trace_info = {}
    for trace, trace_compiled in compiled.items():
        coverage = trace_compiled.batch_coverage()["per_core"]
        trace_info[trace] = (
            trace_compiled.total_events(),
            sum(c["private_events"] + c["think_events"] for c in coverage),
        )
    medians = {name: statistics.median(v) for name, v in samples.items()}
    return medians, trace_info


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def load_traces(traces, scale: float, seed: int) -> dict:
    """Each trace's workload, mapped from the warm store."""
    store = TraceStore.from_env()
    loaded = {}
    for trace in traces:
        compiled = store.load(workload_key(trace, scale, seed))
        if compiled is None:
            raise RuntimeError(f"trace {trace} missing from the warm store")
        loaded[trace] = compiled.to_workload()
        attach_compiled(loaded[trace], compiled)
    return loaded


def engine_pass(workload, scale: float, seed: int) -> Pass:
    """Load the traces and run every cell in process, in order."""
    start = time.perf_counter()
    loaded = load_traces(workload.traces, scale, seed)
    times, outcomes = {}, []
    for cell in workload.cells():
        outcome = Outcome(cell.label, cell.trace, cell.observed)
        t0 = time.perf_counter()
        try:
            engine = make_engine(loaded[cell.trace], cell)
            outcome.result = engine.run()
        except Exception as exc:  # a failing cell is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        else:
            times[cell.label] = time.perf_counter() - t0
            outcome.obs_events = observer_events(engine)
        outcomes.append(outcome)
    return Pass(time.perf_counter() - start, times, outcomes)


def run_experiments(cache, exp_ids) -> None:
    for exp_id in exp_ids:
        importlib.import_module(EXPERIMENTS[exp_id]).run(cache).render()


def sweep_pass(scale: float, seed: int, exp_ids, jobs: int,
               cache_dir: Path) -> tuple:
    """Regenerate the paper from a cold result cache through the pool.

    Returns ``(pass, cache, specs)``.
    """
    disk = TimingDiskCache(cache_dir)
    start = time.perf_counter()
    cache, configs, specs = paper_specs(scale, seed, exp_ids, jobs, disk)
    error = None
    try:
        cache.prefetch(configs)
        run_experiments(cache, exp_ids)
    except Exception as exc:  # every cell of a failed sweep counts
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    times, outcomes = {}, []
    for spec in specs:
        outcome = Outcome(spec_label(spec), spec.workload)
        outcome.result = cache.runner.fetch(spec) if error is None else None
        if outcome.result is None:
            outcome.error = error or "not simulated"
        else:
            times[outcome.label] = cache.runner.cell_times[spec.digest()]
        outcomes.append(outcome)
    return Pass(wall, times, outcomes, disk.seconds, cache.runner.jobs), \
        cache, specs


def run_passes(one_pass, seconds: float, min_passes: int,
               max_passes: int | None) -> list:
    """At least ``min_passes`` passes, then more until the next one
    would overrun ``seconds`` or ``max_passes`` is reached."""
    passes = []
    start = time.perf_counter()
    while max_passes is None or len(passes) < max_passes:
        passes.append(one_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            break
    return passes


# ----------------------------------------------------------------------
# checking and counting
# ----------------------------------------------------------------------

def check(run: Run, outcomes, pinned: dict | None, rerun) -> None:
    """Count attempted and failed cells; keep the first failure's line.

    ``rerun(outcome)`` recomputes a cell on the reference interpreter,
    which names the first counter that differs.
    """
    for outcome in outcomes:
        run.attempted += 1
        if outcome.result is None:
            line = f"{outcome.label}: raised {outcome.error}"
        elif pinned is None:
            line = f"{outcome.label}: no pinned reference for this seed"
        else:
            payload = outcome.result.to_dict()
            got = reference.digest(payload)
            want = pinned.get(outcome.label)
            if got == want:
                continue
            line = None
            if run.mismatch is None:
                diff = reference.first_difference(
                    payload, rerun(outcome).to_dict()
                )
                line = f"{outcome.label}: " + (
                    diff or f"digest {got[:12]} != pinned {str(want)[:12]}, "
                    "but the reference interpreter agrees with this run"
                )
        run.failed += 1
        if run.mismatch is None:
            run.mismatch = line
            print(f"MISMATCH {line}", file=sys.stderr)


def model_counts(outcomes, trace_info: dict) -> dict:
    """The exact modelled counts, summed over ``outcomes``."""
    counts = dict.fromkeys(layers.COUNTS, 0)
    batchable = 0
    for outcome in outcomes:
        result = outcome.result
        if result is None:
            continue
        events, vectorizable = trace_info[outcome.trace]
        counts["sim.events"] += events
        if not outcome.observed:  # observers disarm the vector kernels
            batchable += vectorizable
        counts["sim.cycles"] += result.cycles
        counts["cache.accesses"] += result.accesses
        counts["cache.misses"] += result.misses
        counts["coherence.comm_misses"] += result.comm_misses
        counts["coherence.indirections"] += result.indirections
        counts["coherence.snoop_lookups"] += result.snoop_lookups
        counts["noc.messages"] += result.network.messages
        counts["noc.bytes"] += result.network.bytes_total
        counts["predict.attempted"] += result.pred_attempted
        counts["predict.correct"] += result.pred_correct
        counts["sync.points"] += result.sync_points
        counts["sync.epochs"] += result.dynamic_epochs
        counts["obs.events"] += outcome.obs_events
    if counts["sim.events"]:
        counts["vector.batch_fraction"] = batchable / counts["sim.events"]
    if counts["predict.attempted"]:
        counts["predict.accuracy"] = (
            counts["predict.correct"] / counts["predict.attempted"]
        )
    return counts


# ----------------------------------------------------------------------
# the reference interpreter
# ----------------------------------------------------------------------

def reference_cell(cell, scale: float, seed: int, memo: dict):
    if cell.trace not in memo:
        memo[cell.trace] = generate(cell.trace, scale, seed)
    return make_engine(memo[cell.trace], cell, use_compiled=False).run()


def reference_spec(spec, memo: dict):
    """A paper-regen cell on the reference interpreter: the runner's
    engine arguments plus ``use_compiled=False``."""
    if spec.workload not in memo:
        memo[spec.workload] = generate(spec.workload, spec.scale, spec.seed)
    return SimulationEngine(
        memo[spec.workload], machine=spec.machine, protocol=spec.protocol,
        predictor=spec.predictor, predictor_entries=spec.max_entries,
        collect_epochs=spec.collect_epochs, sanitize=spec.sanitize,
        use_compiled=False,
    ).run()


def make_reference(name: str, seed: int, smoke: bool) -> Path:
    """Pin the digest of every cell of one workload for one seed."""
    try:
        digests = reference.load_reference(seed, smoke)
    except FileNotFoundError:
        digests = {}
    workload = WORKLOADS[name]
    scale = workload.smoke_scale if smoke else workload.scale
    memo: dict = {}
    if workload.sweep:
        specs = paper_specs(scale, seed, experiments(smoke))[2]
        results = {spec_label(s): reference_spec(s, memo) for s in specs}
    else:
        results = {
            cell.label: reference_cell(cell, scale, seed, memo)
            for cell in workload.cells()
        }
    digests[name] = {
        label: reference.digest(result.to_dict())
        for label, result in results.items()
    }
    return reference.save_reference(digests, seed, smoke)


# ----------------------------------------------------------------------
# one workload, end to end
# ----------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool, jobs: int, workdir: Path) -> dict:
    """Set up, measure and check one workload; returns its record."""
    workload = WORKLOADS[name]
    scale = workload.smoke_scale if smoke else workload.scale
    seed = reference.input_seed(seed, smoke)
    try:
        pinned = reference.load_reference(seed, smoke).get(name)
    except FileNotFoundError:
        pinned = None

    phases, trace_info = setup(
        workload, scale, seed, Path(os.environ["REPRO_TRACE_DIR"])
    )
    run = Run(setup=phases, trace_info=trace_info)
    memo: dict = {}
    last: dict = {}

    if workload.sweep:
        def one_pass(index):
            result, last["cache"], last["specs"] = sweep_pass(
                scale, seed, experiments(smoke), jobs,
                workdir / f"runs-{index}",
            )
            return result

        def rerun(outcome):
            by_label = {spec_label(s): s for s in last["specs"]}
            return reference_spec(by_label[outcome.label], memo)
    else:
        by_label = {cell.label: cell for cell in workload.cells()}

        def one_pass(index):
            return engine_pass(workload, scale, seed)

        def rerun(outcome):
            return reference_cell(by_label[outcome.label], scale, seed, memo)

    def checked_pass(index):
        result = one_pass(index)
        check(run, result.outcomes, pinned, rerun)
        if run.counts is None:
            run.counts = model_counts(result.outcomes, trace_info)
        result.outcomes = None  # checked; let the results go
        return result

    # A traced run splits its budget between untraced passes (the base
    # of trace_overhead and the runner numbers) and the traced pass.
    run.min_passes = 1 if smoke or traced or workload.sweep else MIN_PASSES
    run.passes = run_passes(
        checked_pass, seconds / 2 if traced else seconds, run.min_passes,
        1 if smoke or (traced and workload.sweep) else None,
    )
    if traced:
        metrics = per_layer(run, traced_pass(
            workload, scale, seed, experiments(smoke), run, last, pinned,
            rerun,
        ))
    else:
        metrics = end_to_end(run)
    _, tail_p, tail_n = run.tail()
    return {
        "workload": name,
        "input_seed": seed,
        "trace": int(traced),
        "smoke": smoke,
        "attempted": run.attempted,
        "failed": run.failed,
        "mismatch": run.mismatch,
        "metrics": metrics,
        "info": {
            "passes": len(run.passes),
            "cells_per_pass": len(workload.cells()) if not workload.sweep
            else len(last["specs"]),
            "jobs": run.passes[0].jobs,
            "tail_percentile": tail_p,
            "tail_samples": tail_n,
            "nproc": nproc(),
            "host": host_metadata(),
            "cell_s": {
                label: statistics.median(
                    p.cell_times[label] for p in run.passes
                    if label in p.cell_times
                )
                for label in run.passes[0].cell_times
            },
        },
    }


def end_to_end(run: Run) -> dict:
    wall = statistics.median(p.wall for p in run.passes)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "wall_s": wall,
        "events_per_s": run.counts["sim.events"] / wall,
        "cell_p50_s": statistics.median(run.cell_times()),
        "cell_tail_s": run.tail()[0],
        "setup_s": run.setup["setup_s"],
        "peak_rss_mb": peak_kb / 1024,
    }


def traced_pass(workload, scale, seed, exp_ids, run, last, pinned,
                rerun) -> dict:
    """Profile the workload's cells; returns the folded layers, the
    events they simulated, and traced and untraced seconds."""
    profiler = cProfile.Profile()
    if workload.sweep:
        specs = last["specs"][::TRACE_EVERY]
        # The untraced base: the same cells' times in the pool pass.
        untraced = sum(
            last["cache"].runner.cell_times.get(s.digest(), 0.0)
            for s in specs
        )
        outcomes, traced = [], 0.0
        for spec in specs:
            outcome = Outcome(spec_label(spec), spec.workload)
            t0 = time.perf_counter()
            try:
                outcome.result = profiler.runcall(execute_spec, spec)
            except Exception as exc:  # a failing cell is counted
                outcome.error = f"{type(exc).__name__}: {exc}"
            traced += time.perf_counter() - t0
            outcomes.append(outcome)
        profiler.runcall(run_experiments, last["cache"], exp_ids)
    else:
        untraced = statistics.median(p.wall for p in run.passes)
        t0 = time.perf_counter()
        result = profiler.runcall(engine_pass, workload, scale, seed)
        outcomes = result.outcomes
        traced = time.perf_counter() - t0
    check(run, outcomes, pinned, rerun)
    folded = layers.fold_profile(
        pstats.Stats(profiler).stats, Path(repro.__file__).parent
    )
    return {
        "layers": folded,
        "events": model_counts(outcomes, run.trace_info)["sim.events"],
        "traced_s": traced,
        "untraced_s": untraced,
    }


def per_layer(run: Run, traced: dict) -> dict:
    folded = traced["layers"]
    total = sum(layer["self_s"] for layer in folded.values()) or 1.0
    events = traced["events"] or 1
    metrics = {}
    for name in layers.LAYERS:
        self_s = folded[name]["self_s"]
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.share"] = self_s / total
        metrics[f"{name}.calls"] = folded[name]["calls"]
        metrics[f"{name}.ns_per_event"] = self_s / events * 1e9
    metrics.update(run.counts)
    metrics["runner.cells"] = len(run.passes[0].cell_times)
    metrics["runner.cell_sum_s"] = statistics.median(
        sum(p.cell_times.values()) for p in run.passes
    )
    metrics["runner.dispatch_s"] = statistics.median(
        p.wall - sum(p.cell_times.values()) / p.jobs for p in run.passes
    )
    metrics["runner.store_s"] = statistics.median(
        p.store_s for p in run.passes
    )
    for phase in ("generate_s", "compile_s", "save_s"):
        metrics[f"setup.{phase}"] = run.setup[phase]
    metrics["trace_overhead"] = (
        traced["traced_s"] / traced["untraced_s"]
        if traced["untraced_s"] else 0.0
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.measure")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.make_reference:
        path = make_reference(args.workload, args.seed, args.smoke)
        print(json.dumps({"reference": str(path)}))
        return 0
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke, args.jobs, args.workdir,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
