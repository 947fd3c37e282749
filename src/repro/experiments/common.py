"""Shared experiment infrastructure: run cache, predictor factory, tables."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Re-exported for callers that historically imported these from here.
from repro.predictors.factory import PREDICTOR_KINDS, make_predictor  # noqa: F401
from repro.runner import DiskCache, RunSpec, SweepRunner
from repro.sim.machine import MachineConfig
from repro.sim.results import SimulationResult
from repro.workloads.suite import benchmark_names, load_benchmark

#: Default simulation scale for experiments; override with REPRO_SCALE.
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.5"))


class RunCache:
    """Memoizes simulation runs across experiments.

    Keyed by (workload, protocol, predictor kind, scale, collect_epochs,
    table cap).  Execution and persistence are delegated to
    :class:`repro.runner.SweepRunner`: each distinct configuration
    simulates at most once per harness invocation, completed runs are
    stored in a persistent on-disk cache (disable with ``REPRO_CACHE=0``
    or ``disk_cache=False``), and :meth:`prefetch` dispatches a whole
    grid over a worker pool (``jobs`` / ``REPRO_JOBS``; 1 = the serial
    in-process fallback).
    """

    def __init__(
        self,
        machine: MachineConfig | None = None,
        scale: float = DEFAULT_SCALE,
        verbose: bool = False,
        jobs: int | None = None,
        disk_cache: DiskCache | bool | None = None,
        seed: int | None = None,
        sanitize: bool = False,
        progress: bool | None = None,
        feed=None,
    ) -> None:
        self.machine = machine or MachineConfig()
        self.scale = scale
        self.verbose = verbose
        self.seed = seed
        self.sanitize = sanitize
        if disk_cache is None:
            disk = DiskCache.from_env()
        elif disk_cache is False:
            disk = None
        elif disk_cache is True:
            disk = DiskCache()
        else:
            disk = disk_cache
        self.runner = SweepRunner(
            jobs=jobs, disk=disk, verbose=verbose, progress=progress,
            feed=feed,
        )
        self._runs: dict = {}
        self._workloads: dict = {}

    @property
    def simulations(self) -> int:
        """Engine runs actually executed (cache hits excluded)."""
        return self.runner.simulations

    def workload(self, name: str):
        if name not in self._workloads:
            self._workloads[name] = load_benchmark(
                name, scale=self.scale, seed=self.seed
            )
        return self._workloads[name]

    def spec(
        self,
        name: str,
        protocol: str = "directory",
        predictor: str = "none",
        collect_epochs: bool = False,
        max_entries: int | None = None,
    ) -> RunSpec:
        """The :class:`RunSpec` for one configuration under this cache."""
        return RunSpec(
            workload=name,
            scale=self.scale,
            protocol=protocol,
            predictor=predictor,
            collect_epochs=collect_epochs,
            max_entries=max_entries,
            seed=self.seed,
            machine=self.machine,
            sanitize=self.sanitize,
        )

    def get(
        self,
        name: str,
        protocol: str = "directory",
        predictor: str = "none",
        collect_epochs: bool = False,
        max_entries: int | None = None,
    ) -> SimulationResult:
        key = (name, protocol, predictor, collect_epochs, max_entries)
        if key in self._runs:
            return self._runs[key]
        # A collecting run serves non-collecting requests too.
        alt = (name, protocol, predictor, True, max_entries)
        if not collect_epochs and alt in self._runs:
            return self._runs[alt]

        spec = self.spec(name, protocol, predictor, collect_epochs, max_entries)
        result = self.runner.fetch(spec)
        if result is None and not collect_epochs:
            collecting = self.runner.fetch(spec.collecting())
            if collecting is not None:
                self._runs[alt] = collecting
                return collecting
        if result is None:
            result = self.runner.run(spec)
        self._runs[key] = result
        return result

    def prefetch(self, configs) -> int:
        """Dispatch a batch of configurations up front (possibly parallel).

        ``configs`` is an iterable of keyword dicts matching :meth:`get`'s
        signature (``name`` plus optional ``protocol`` / ``predictor`` /
        ``collect_epochs`` / ``max_entries``).  Everything not already
        memoized or on disk is simulated — fanned out over the worker
        pool when ``jobs > 1`` — or served from a twin in the batch, so
        subsequent :meth:`get` calls are pure cache hits.  Returns the
        number of simulations executed.
        """
        specs = [self.spec(**config) for config in configs]
        before = self.runner.simulations
        results = self.runner.run_many(specs)
        for spec, result in zip(specs, results):
            key = (
                spec.workload, spec.protocol, spec.predictor,
                spec.collect_epochs, spec.max_entries,
            )
            self._runs.setdefault(key, result)
        return self.runner.simulations - before

    def suite(self) -> list:
        return benchmark_names()


@dataclass
class ExperimentTable:
    """A rendered experiment: title, column names, and row dicts."""

    experiment: str
    title: str
    columns: list
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def render(self) -> str:
        return render_table(self)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(table: ExperimentTable) -> str:
    """Plain-text rendering of an experiment table."""
    header = [str(c) for c in table.columns]
    body = [
        [_format_cell(row.get(col, "")) for col in table.columns]
        for row in table.rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [f"== {table.experiment}: {table.title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    for note in table.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def geometric_mean(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    prod = 1.0
    for v in vals:
        prod *= v
    return prod ** (1.0 / len(vals))
