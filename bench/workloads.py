"""The benchmark's workloads and the simulation cells each one runs.

A *cell* is one simulation: a trace, a protocol, a predictor and, for
``observed-sp``, the observers attached to the engine.  ``paper-regen``
takes its cells from the paper's experiments instead (one
:class:`~repro.runner.RunSpec` per configuration they declare) and runs
them through the sweep runner's worker pool; every other workload runs
its cells in process, one after another.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import EXPERIMENTS, required_configs
from repro.experiments.common import RunCache
from repro.obs.events import EventTracer
from repro.obs.forensics import ForensicsCollector
from repro.sim.engine import SimulationEngine
from repro.workloads.generator import BenchmarkSpec, EpochSpec, build_workload
from repro.workloads.patterns import PatternKind
from repro.workloads.suite import load_benchmark

#: Trace name of the private-stream synthetic (not a suite workload).
PRIVSTREAM = "privstream"

#: Iterations of the private-stream synthetic at scale 1 (308k events).
PRIVSTREAM_ITERATIONS = 48

#: ``paper-regen --smoke`` regenerates only these.  Suite traces stop
#: shrinking below scale ~0.1, so a smaller scale alone cannot make all
#: 187 cells quick.
SMOKE_EXPERIMENTS = ("fig7", "fig12")


@dataclass(frozen=True)
class Cell:
    """One in-process simulation."""

    trace: str
    protocol: str
    predictor: str
    observed: bool = False

    @property
    def label(self) -> str:
        label = f"{self.trace}/{self.protocol}/{self.predictor}"
        return label + "+observers" if self.observed else label


@dataclass(frozen=True)
class Workload:
    """A named set of cells with the sizes they run at."""

    name: str
    scale: float
    smoke_scale: float
    #: Trace names, and the (protocol, predictor) pairs run on each.
    traces: tuple = ()
    configs: tuple = ()
    observed: bool = False
    #: The paper's experiments through the runner's pool, not cells.
    sweep: bool = False

    def cells(self) -> list:
        return [
            Cell(trace, protocol, predictor, self.observed)
            for trace in self.traces
            for protocol, predictor in self.configs
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-regen",
            scale=0.1, smoke_scale=0.02, sweep=True,
        ),
        Workload(
            name="contended-sp",
            scale=0.5, smoke_scale=0.05,
            traces=("bodytrack", "x264", "lu", "streamcluster"),
            configs=(("directory", "SP"), ("directory", "none")),
        ),
        Workload(
            name="private-stream",
            scale=1.0, smoke_scale=0.1,
            traces=(PRIVSTREAM,),
            configs=(("directory", "SP"),),
        ),
        Workload(
            name="snoop-broadcast",
            scale=0.5, smoke_scale=0.05,
            traces=("bodytrack", "streamcluster"),
            configs=(("broadcast", "none"),),
        ),
        Workload(
            name="observed-sp",
            scale=0.5, smoke_scale=0.05,
            traces=("bodytrack", "lu"),
            configs=(("directory", "SP"),),
            observed=True,
        ),
    )
}


def spec_label(spec) -> str:
    """A paper-regen cell's name in reports and reference files."""
    label = f"{spec.workload}/{spec.protocol}/{spec.predictor}"
    if spec.max_entries is not None:
        label += f"/cap{spec.max_entries}"
    if spec.collect_epochs:
        label += "/epochs"
    return label


def generate(trace: str, scale: float, seed: int):
    """Build a trace's workload from its generator (no store)."""
    if trace == PRIVSTREAM:
        # Nearly every event is a cold sole-toucher access inside one
        # long PRIVATE run per epoch: the vector kernel's target shape.
        spec = BenchmarkSpec(
            name=PRIVSTREAM,
            epochs=(EpochSpec(
                pattern=PatternKind.PRIVATE,
                consume_blocks=0,
                produce_blocks=0,
                private_blocks=400,
                rereads=0,
                think=0,
            ),),
            iterations=max(1, round(PRIVSTREAM_ITERATIONS * scale)),
            seed=seed,
        )
        return build_workload(spec, scale=1.0)
    return load_benchmark(trace, scale=scale, seed=seed)


def experiments(smoke: bool) -> tuple:
    """The experiment ids ``paper-regen`` regenerates."""
    return SMOKE_EXPERIMENTS if smoke else tuple(EXPERIMENTS)


def paper_specs(scale: float, seed: int, exp_ids, jobs: int = 1,
                disk=False):
    """``(cache, configs, specs)``: a fresh :class:`RunCache`, the
    configurations the experiments declare, and their unique specs."""
    cache = RunCache(
        scale=scale, jobs=jobs, disk_cache=disk, seed=seed, progress=False,
    )
    configs = required_configs(exp_ids, cache.suite())
    unique: dict = {}
    for config in configs:
        spec = cache.spec(**config)
        unique.setdefault(spec.digest(), spec)
    return cache, configs, list(unique.values())


def make_engine(workload, cell: Cell, use_compiled=None):
    """The engine for one in-process cell, observers attached."""
    tracer = forensics = None
    if cell.observed:
        tracer, forensics = EventTracer(), ForensicsCollector()
    return SimulationEngine(
        workload, protocol=cell.protocol, predictor=cell.predictor,
        tracer=tracer, forensics=forensics, use_compiled=use_compiled,
    )


def observer_events(engine) -> int:
    """Events the engine's observers recorded (0 without observers)."""
    events = 0
    if engine.tracer is not None:
        events += engine.tracer.emitted
    if engine.forensics is not None:
        events += engine.forensics.outcomes
    return events
