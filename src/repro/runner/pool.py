"""Worker-pool execution of simulation sweeps.

``SweepRunner`` fans a list of :class:`RunSpec` configurations out over
a :mod:`multiprocessing` pool, short-circuiting anything already in its
in-process memo or the persistent :class:`DiskCache`.  Workers return
``SimulationResult.to_dict()`` payloads (plain JSON-safe dicts), so
nothing engine-internal crosses the process boundary; the parent
rehydrates them with :meth:`SimulationResult.from_dict` — an exact
round-trip, which is what makes parallel and serial sweeps bit-identical.

``--jobs 1`` (or ``REPRO_JOBS=1``) selects the serial in-process path:
no pool, no serialization, live result objects — today's debugging
behavior, preserved.

**Twin serving.**  Before dispatch, each pending spec is resolved to
the spec that actually has to be simulated; a spec whose *twin* (a
spec that simulates to the same counters) is in the same batch or
already cached is filled in from the twin's result instead of run:

* ``none``, ``UNI`` and ``ORACLE`` ignore ``max_entries``, so a capped
  spec is served by its uncapped twin;
* a capped ``SP`` spec is served by its uncapped twin only when that
  twin's SP-table occupancy (its final size: with no cap nothing is
  ever evicted, so that is the peak) fits the cap's
  ``max_entries x num_cores`` entries.  The guard is checked on every
  run; when it fails, or the occupancy is unknown (a twin read back
  from disk), the spec is simulated in a further dispatch round;
* a non-collecting spec is served by its collecting twin with
  ``epoch_records`` and ``pc_volume`` emptied.

Every spec keeps its own digest: the served payload is memoized and
stored on disk under it, and its ``cell_times`` entry is the twin's
measured time, so per-cell timing never drops just because a cell was
served.  A twin nobody asked for is never simulated to serve a spec.

Observability rides along, strictly after-the-fact, in three layers:

* **Heartbeats + spans.**  Workers publish per-cell heartbeats and
  hierarchical span records (:mod:`repro.obs.spans` — trace-store
  load, engine run, result flush, with resource samples) over a
  ``multiprocessing.Queue``; the parent's listener renders a live
  progress/ETA line with phase-aware stalled-worker detection
  (:mod:`repro.obs.live`) and collects the spans under its own
  sweep-root span.  ``REPRO_SPANS=0`` or ``spans=False`` disarms.
* **Telemetry feed.**  With ``feed=PATH`` (or ``REPRO_FEED``) the
  parent — the feed's only writer — streams every span, heartbeat,
  resource sample, and a final metrics snapshot to an append-only
  JSONL feed (:mod:`repro.obs.feed`) that clients can tail live.
* **Run ledger.**  Every sweep that actually simulated something is
  recorded (:mod:`repro.obs.ledger`; ``REPRO_LEDGER=0`` disables) with
  its spec digests, per-cell wall times, full metrics payload, and the
  span summary.

None of it touches a simulation counter — results are bit-identical
with every layer on, off, or absent, which ``repro obs overhead
--spans`` certifies along with the ≤5% wall-overhead bound.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import replace

from repro.runner.diskcache import DiskCache
from repro.runner.specs import RunSpec
from repro.sim.results import SimulationResult


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker-count policy: explicit arg, else REPRO_JOBS, else cpu_count."""
    source = "jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            source = "REPRO_JOBS"
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        # A typo'd REPRO_JOBS=0 must not silently masquerade as a
        # deliberate serial-mode choice.
        warnings.warn(
            f"{source}={jobs} is not a valid worker count; "
            f"clamping to 1 (serial)",
            RuntimeWarning,
            stacklevel=2,
        )
        jobs = 1
    return jobs


def _start_method() -> str:
    """Pool start method: fork where available (cheap), else spawn.

    ``REPRO_MP_START`` overrides (e.g. ``spawn`` to debug fork-related
    state leakage).
    """
    env = os.environ.get("REPRO_MP_START")
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


#: Per-process workload memo: building a trace is itself expensive, and
#: one worker typically simulates several configurations of one workload.
_workloads: dict = {}
#: Memo traffic counters — the "trace-store mmap reuse" number span
#: resource samples report (a hit means the columns were already mapped
#: in this process; no store I/O, no recompile).
_workload_loads = 0
_workload_hits = 0


def _load_workload(spec: RunSpec):
    """The spec's workload, compiled, via the persistent trace store.

    Workloads come back with their :class:`CompiledTrace` attached:
    a trace-store hit maps the columns straight from disk (workers of
    one sweep share the same page-cache pages; with the default ``fork``
    start, traces the parent already compiled are inherited
    copy-on-write through this memo).  ``REPRO_TRACE=0`` falls back to
    generate-and-compile in process.
    """
    global _workload_loads, _workload_hits
    from repro.runner.specs import TRACE_PREFIX
    from repro.traces.store import load_benchmark_compiled

    key = (spec.workload, spec.scale, spec.seed)
    workload = _workloads.get(key)
    if workload is None:
        _workload_loads += 1
        if spec.workload.startswith(TRACE_PREFIX):
            # External trace: the file bytes are the whole identity
            # (scale/seed are inert; the spec digest folds in a content
            # hash instead), so no generator and no trace store — just
            # load, compile in-process, and memo like any workload.
            from repro.traces.compile import ensure_compiled
            from repro.traces.ingest import load_external

            workload = load_external(spec.workload[len(TRACE_PREFIX):])
            ensure_compiled(workload)
        else:
            workload = load_benchmark_compiled(
                spec.workload, scale=spec.scale, seed=spec.seed
            )
        _workloads[key] = workload
    else:
        _workload_hits += 1
    return workload


def _build_engine(spec: RunSpec, workload):
    from repro.sim.engine import SimulationEngine

    return SimulationEngine(
        workload,
        machine=spec.machine,
        protocol=spec.protocol,
        predictor=spec.predictor,
        predictor_entries=spec.max_entries,
        collect_epochs=spec.collect_epochs,
        sanitize=spec.sanitize,
    )


def _sp_occupancy(spec: RunSpec, engine) -> int | None:
    """SP-table occupancy after an uncapped SP run, else ``None``.

    With no cap nothing is ever evicted, so the final size is the
    peak: the number the capped-twin guard compares with the cap.
    """
    if spec.predictor != "SP" or spec.max_entries is not None:
        return None
    return len(engine.predictor.table)


def _execute(spec: RunSpec) -> tuple:
    """``(result, sp_occupancy)`` for one configuration."""
    engine = _build_engine(spec, _load_workload(spec))
    result = engine.run()
    return result, _sp_occupancy(spec, engine)


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Simulate one configuration (in whatever process this runs in)."""
    return _execute(spec)[0]


def _traced_execute(spec: RunSpec, tracer, parent, label: str,
                    digest: str) -> tuple:
    """Like :func:`_execute`, wrapped in spans; returns
    ``(cell_span, result, sp_occupancy)`` with the cell span still open
    (the caller closes it after the flush span, attaching the resource
    sample).

    The spans wrap the engine — never enter it — so counters stay
    bit-identical with tracing on or off.
    """
    cell = tracer.start(
        "cell", parent=parent,
        attrs={"cell": label, "digest": digest[:12]},
    )
    memo_hit = (spec.workload, spec.scale, spec.seed) in _workloads
    load = tracer.start("load", parent=cell)
    workload = _load_workload(spec)
    tracer.finish(load, attrs={"memo_hit": memo_hit})
    run = tracer.start(
        "run", parent=cell,
        attrs={"sanitize": True} if spec.sanitize else None,
    )
    engine = _build_engine(spec, workload)
    result = engine.run()
    run_attrs = {"cycles": result.cycles, "misses": result.misses}
    if spec.sanitize:
        run_attrs["sanitizer_checks"] = result.sanitizer_checks
    # The vector path's shared-transaction memo, when it armed: how
    # many distinct transaction classes the shared lane actually ran
    # vs. replayed (an estimate of the memo's hit rate over the
    # communication misses it serves).
    tx = getattr(engine, "_tx_memo_stats", None)
    if tx is not None:
        classes = len(tx.memo)
        run_attrs["tx_memo_classes"] = classes
        if result.comm_misses:
            run_attrs["tx_memo_hit_rate"] = round(
                max(0.0, 1.0 - classes / result.comm_misses), 4
            )
    tracer.finish(run, attrs=run_attrs)
    return cell, result, _sp_occupancy(spec, engine)


def _worker_resource() -> dict:
    """A worker/serial resource sample with trace-store reuse counters."""
    from repro.obs.spans import resource_sample

    return resource_sample(
        workload_memo={
            "entries": len(_workloads),
            "loads": _workload_loads,
            "hits": _workload_hits,
        },
    )


#: Heartbeat queue for the current pool worker (set by the pool
#: initializer only when the parent is listening; ``None`` means no
#: telemetry cost at all).
_heartbeats = None
#: Span wire context ``(trace_id, root_span_id)`` from the parent, set
#: alongside the queue when span tracing is armed.
_span_wire = None


def _init_worker(beats, span_wire=None) -> None:
    global _heartbeats, _span_wire
    _heartbeats = beats
    _span_wire = span_wire


def _beat(kind: str, digest: str, payload) -> None:
    if _heartbeats is not None:
        try:
            _heartbeats.put((kind, digest, payload))
        except (OSError, ValueError):
            pass


def _worker(spec: RunSpec) -> tuple:
    """Pool task: simulate and ship the serialized result home."""
    digest = spec.digest()
    label = f"{spec.workload}/{spec.protocol}/{spec.predictor}"
    _beat("start", digest, label)
    start = time.perf_counter()
    if _span_wire is not None and _heartbeats is not None:
        from repro.obs.spans import SpanTracer

        # Span records ride the heartbeat queue home; the parent is
        # the single writer of the feed, so ordering stays total.
        tracer = SpanTracer.from_wire(
            _span_wire, sink=lambda kind, rec: _beat(kind, digest, rec)
        )
        cell, result, occupancy = _traced_execute(
            spec, tracer, None, label, digest
        )
        flush = tracer.start("flush", parent=cell)
        payload = result.to_dict()
        tracer.finish(flush)
        tracer.finish(cell, resource=_worker_resource())
    else:
        result, occupancy = _execute(spec)
        payload = result.to_dict()
    elapsed = time.perf_counter() - start
    _beat("finish", digest, elapsed)
    # The occupancy rides beside the payload, never inside it: result
    # payloads (and every digest pinned over them) stay unchanged.
    return digest, payload, elapsed, occupancy


#: Predictors whose construction ignores ``max_entries``
#: (``predictors/factory.py``): a capped spec simulates exactly its
#: uncapped twin.
_CAP_FREE = frozenset({"none", "UNI", "ORACLE"})


def _twins(spec: RunSpec):
    """``(twin, rule)`` pairs, in preference order: one step each
    towards a spec that simulates to the same counters."""
    if spec.max_entries is not None:
        if spec.predictor in _CAP_FREE:
            yield replace(spec, max_entries=None), "cap_free"
        elif spec.predictor == "SP":
            yield replace(spec, max_entries=None), "sp_guard"
    if not spec.collect_epochs:
        yield spec.collecting(), "project"


class SweepRunner:
    """Executes run specs with memoization, disk persistence, and fan-out.

    ``simulations`` counts actual engine runs this runner triggered
    (in-process or in workers); cache hits do not increment it — the
    zero-re-simulation guarantees in the tests key off this counter.
    ``aliased`` counts specs served from a twin's result instead.
    """

    def __init__(
        self,
        jobs: int | None = None,
        disk: DiskCache | None = None,
        verbose: bool = False,
        progress: bool | None = None,
        progress_stream=None,
        ledger: bool = True,
        feed=None,
        spans: bool | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.disk = disk
        self.verbose = verbose
        #: Live progress line: ``None`` auto-detects a TTY, ``False``
        #: suppresses entirely (``--quiet``), ``True`` forces.
        self.progress = progress
        self.progress_stream = progress_stream
        #: Record completed sweeps in the run ledger (further gated by
        #: ``REPRO_LEDGER=0`` at write time).
        self.ledger = ledger
        #: Telemetry feed path (``REPRO_FEED`` supplies a default);
        #: ``None`` writes no feed.
        if feed is None:
            feed = os.environ.get("REPRO_FEED") or None
        self.feed = feed
        #: Span tracing of the sweep pipeline (``REPRO_SPANS=0``
        #: disarms); certified ≤5% overhead, bit-identical counters.
        if spans is None:
            spans = os.environ.get("REPRO_SPANS", "1") != "0"
        self.spans = bool(spans)
        self.simulations = 0
        self.aliased = 0
        #: Wall seconds per simulated cell (digest-keyed), stamped into
        #: the ledger entry; cache hits do not appear here, and a cell
        #: served from its twin carries the twin's time.
        self.cell_times: dict = {}
        self.last_run_id: str | None = None
        self.last_trace_id: str | None = None
        self.last_span_summary: dict | None = None
        self._results: dict = {}  # digest -> SimulationResult
        self._specs: dict = {}    # digest -> RunSpec (for metrics context)
        #: digest -> SP-table occupancy of an uncapped SP run simulated
        #: here (or served from one); the capped-twin guard reads it.
        self._occupancy: dict = {}

    def results(self) -> list:
        """Every result this runner holds (cached or freshly simulated)."""
        return list(self._results.values())

    # -- cache-only lookups --------------------------------------------

    def fetch(self, spec: RunSpec) -> SimulationResult | None:
        """Memo/disk lookup; never simulates."""
        digest = spec.digest()
        self._specs[digest] = spec
        result = self._results.get(digest)
        if result is not None:
            return result
        if self.disk is not None:
            payload = self.disk.load(digest)
            if payload is not None:
                try:
                    result = SimulationResult.from_dict(payload)
                except (KeyError, TypeError, ValueError, AttributeError):
                    # Valid JSON of the wrong shape: a miss, recomputed.
                    self.disk.discard(digest)
                    return None
                self._results[digest] = result
                return result
        return None

    # -- execution ------------------------------------------------------

    def run(self, spec: RunSpec) -> SimulationResult:
        """One spec: cached if possible, simulated in-process otherwise."""
        result = self.fetch(spec)
        if result is not None:
            return result
        if self.verbose:
            print(
                f"  simulating {spec.workload} / {spec.protocol} / "
                f"{spec.predictor} ..."
            )
        start = time.perf_counter()
        result, occupancy = _execute(spec)
        self._finish_cell(
            spec.digest(), time.perf_counter() - start, occupancy
        )
        self._store(spec.digest(), result)
        return result

    def run_many(self, specs) -> list:
        """Run every spec (deduplicated); returns results in spec order.

        Cached configurations are served from memo/disk, specs with a
        twin in the batch or the cache are served from the twin (see
        the module docstring), and the rest fan out over the pool when
        ``jobs > 1``, else run serially in process.  When span tracing
        is armed this whole method executes under a ``sweep`` root
        span; when a feed is configured, one feed session brackets it.
        """
        unique: dict = {}
        for spec in specs:
            unique.setdefault(spec.digest(), spec)
        tracer = feed = root = None
        if self.spans:
            from repro.obs.spans import SpanTracer

            tracer = SpanTracer()
            self.last_trace_id = tracer.trace_id
        if self.feed:
            from repro.obs.feed import FeedWriter

            feed = FeedWriter(
                self.feed,
                trace=tracer.trace_id if tracer is not None else None,
                meta={"jobs": self.jobs, "cells_requested": len(specs)},
            )
            if tracer is not None:
                tracer.sink = feed.span_sink
        try:
            if tracer is not None:
                root = tracer.start(
                    "sweep",
                    attrs={"jobs": self.jobs, "cells": len(unique)},
                )
                probe = tracer.start("cache_probe", parent=root)
            pending = {
                digest: spec
                for digest, spec in unique.items()
                if self.fetch(spec) is None
            }
            cached = len(unique) - len(pending)
            aliases = self._resolve(pending, forced=set())
            if tracer is not None:
                tracer.finish(probe, attrs={
                    "pending": len(pending) - len(aliases),
                    "aliased": len(aliases),
                    "cached": cached,
                })
            if feed is not None:
                feed.record(
                    "plan",
                    cells_total=len(unique),
                    cells_pending=len(pending) - len(aliases),
                    cells_aliased=len(aliases),
                    cells_cached=cached,
                )
            if pending:
                if self.verbose:
                    print(
                        f"  sweep: {len(pending) - len(aliases)} of "
                        f"{len(unique)} configurations to simulate, "
                        f"{len(aliases)} served by a twin "
                        f"({self.jobs} jobs)"
                    )
                start = time.perf_counter()
                simulated, served = self._settle(
                    pending, aliases, tracer=tracer, root=root, feed=feed,
                )
                elapsed = time.perf_counter() - start
                metrics = None
                if feed is not None or self.ledger:
                    metrics = self.metrics_payload()
                if feed is not None:
                    feed.record(
                        "metric",
                        sweep_s=round(elapsed, 4),
                        cells_simulated=len(simulated),
                        cells_aliased=served,
                        aggregate=metrics["aggregate"],
                    )
                if tracer is not None:
                    tracer.finish(root)
                    self.last_span_summary = tracer.summary()
                self._record_sweep(
                    simulated, served, len(unique), elapsed,
                    metrics=metrics, tracer=tracer,
                )
            elif tracer is not None:
                tracer.finish(root)
                self.last_span_summary = tracer.summary()
        finally:
            if tracer is not None and root is not None:
                tracer.finish(root)  # idempotent; covers error exits
            if feed is not None:
                feed.close()
        return [self._results[spec.digest()] for spec in specs]

    # -- twin serving ---------------------------------------------------

    def _resolve(self, pending: dict, forced: set) -> dict:
        """``digest -> (twin_digest, rule)`` for every pending spec a
        twin can serve; the rest (and ``forced``) must be simulated.

        A twin qualifies only when it is pending in this batch or
        already cached: nothing nobody asked for is ever simulated.
        A capped SP spec needs a twin whose occupancy will be known.
        """
        aliases = {}
        for digest, spec in pending.items():
            if digest in forced:
                continue
            for twin, rule in _twins(spec):
                twin_digest = twin.digest()
                if twin_digest in pending:
                    aliases[digest] = (twin_digest, rule)
                    break
                if (rule == "sp_guard"
                        and twin_digest not in self._occupancy):
                    continue
                if self.fetch(twin) is not None:
                    aliases[digest] = (twin_digest, rule)
                    break
        return aliases

    def _settle(self, pending: dict, aliases: dict, tracer=None,
                root=None, feed=None) -> tuple:
        """Simulate what has no twin, serve the rest from their twins;
        returns ``(simulated_digests, served_count)``.

        A spec whose SP guard fails is forced into another dispatch
        round (with whatever was waiting on it); each round forces at
        least one more spec, so the loop ends.
        """
        simulated, forced = [], set()
        before = self.aliased
        while pending:
            batch = [
                (digest, spec) for digest, spec in pending.items()
                if digest not in aliases
            ]
            if batch:
                self._dispatch(batch, tracer=tracer, root=root, feed=feed)
                simulated += [digest for digest, _ in batch]
            pending = {
                digest: pending[digest] for digest in aliases
                if not self._serve(digest, pending, aliases, forced)
            }
            aliases = self._resolve(pending, forced)
        return simulated, self.aliased - before

    def _serve(self, digest: str, pending: dict, aliases: dict,
               forced: set) -> bool:
        """Fill ``digest`` in from its twin (after the twin's own turn);
        False when the twin is unserved or the SP guard fails."""
        if digest in self._results:
            return True
        if digest not in aliases:
            return False
        twin_digest, rule = aliases[digest]
        if not self._serve(twin_digest, pending, aliases, forced):
            return False
        occupancy = self._occupancy.get(twin_digest)
        if rule == "sp_guard":
            spec = pending[digest]
            cap = spec.max_entries * spec.machine.num_cores
            if occupancy is None or occupancy > cap:
                forced.add(digest)
                return False
        payload = self._results[twin_digest].to_dict()
        if rule == "project":
            payload["epoch_records"] = []
            payload["pc_volume"] = []
        self._results[digest] = SimulationResult.from_dict(payload)
        if self.disk is not None:
            self.disk.store(digest, payload)
        if occupancy is not None:
            self._occupancy[digest] = occupancy
        if twin_digest in self.cell_times:
            self.cell_times[digest] = self.cell_times[twin_digest]
        self.aliased += 1
        return True

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, batch, tracer=None, root=None, feed=None) -> None:
        """Simulate ``batch`` (``(digest, spec)`` pairs) under one
        ``dispatch`` span, over the pool or serially."""
        progress = self._make_progress(len(batch))
        dispatch = None
        if tracer is not None:
            dispatch = tracer.start(
                "dispatch", parent=root, attrs={"cells": len(batch)},
            )
        try:
            if self.jobs > 1 and len(batch) > 1:
                self._run_pool(
                    batch, progress, tracer=tracer, root=root, feed=feed,
                )
            else:
                self._run_serial(
                    batch, progress, tracer=tracer, root=root, feed=feed,
                )
        finally:
            if progress is not None:
                progress.close()
        if dispatch is not None:
            tracer.finish(dispatch)

    def _finish_cell(self, digest: str, elapsed: float,
                     occupancy: int | None) -> None:
        self.cell_times[digest] = elapsed
        self.simulations += 1
        if occupancy is not None:
            self._occupancy[digest] = occupancy

    def _run_serial(self, pending, progress, tracer=None, root=None,
                    feed=None) -> None:
        for digest, spec in pending:
            label = (
                f"{spec.workload}/{spec.protocol}/{spec.predictor}"
            )
            if progress is not None:
                progress.start_cell(digest, label)
            if feed is not None:
                feed.record("cell_start", digest=digest, cell=label)
            cell_start = time.perf_counter()
            if tracer is not None:
                cell, result, occupancy = _traced_execute(
                    spec, tracer, root, label, digest
                )
                flush = tracer.start("flush", parent=cell)
                self._store(digest, result)
                tracer.finish(flush)
                tracer.finish(cell, resource=_worker_resource())
            else:
                result, occupancy = _execute(spec)
                self._store(digest, result)
            elapsed = time.perf_counter() - cell_start
            self._finish_cell(digest, elapsed, occupancy)
            if feed is not None:
                feed.record(
                    "cell_finish", digest=digest,
                    wall_s=round(elapsed, 4),
                )
            if progress is not None:
                progress.finish_cell(digest, elapsed)

    def _make_progress(self, pending_count: int):
        """A live progress display, or None when suppressed/off-TTY."""
        if self.progress is False:
            return None
        from repro.obs.live import SweepProgress

        progress = SweepProgress(
            total=pending_count,
            stream=self.progress_stream,
            enabled=True if self.progress else None,
        )
        return progress if progress.enabled else None

    def _record_sweep(self, digests, aliased: int, total_cells: int,
                      elapsed: float, metrics: dict | None = None,
                      tracer=None) -> None:
        """Append this sweep to the run ledger (best-effort); its spec
        digests and cell times are the simulated cells only."""
        if not self.ledger:
            return
        from repro.obs.ledger import record_run

        extra = {
            "cells_total": total_cells,
            "cells_simulated": len(digests),
            "cells_aliased": aliased,
            "cells_cached": total_cells - len(digests) - aliased,
            "jobs": self.jobs,
        }
        if tracer is not None:
            extra["trace"] = tracer.trace_id
            extra["spans"] = tracer.summary()
        self.last_run_id = record_run(
            "sweep",
            metrics=metrics if metrics is not None
            else self.metrics_payload(),
            phases={"sweep_s": round(elapsed, 4)},
            spec_digests=digests,
            cell_times={
                digest: self.cell_times[digest]
                for digest in digests
                if digest in self.cell_times
            },
            extra=extra,
        )

    def _beat_sink(self, feed, tracer):
        """The listener callback fanning worker beats into feed/tracer."""
        if feed is None and tracer is None:
            return None

        def sink(kind, digest, payload):
            if kind in ("span_open", "span_close"):
                if kind == "span_close" and tracer is not None:
                    tracer.collect(payload)
                if feed is not None:
                    feed.record(kind, **payload)
            elif kind == "resource":
                if feed is not None:
                    feed.record("resource", **payload)
            elif kind == "start":
                if feed is not None:
                    feed.record("cell_start", digest=digest, cell=payload)
            elif kind == "finish":
                if feed is not None:
                    feed.record(
                        "cell_finish", digest=digest,
                        wall_s=round(payload, 4),
                    )

        return sink

    def _run_pool(self, pending, progress=None, tracer=None, root=None,
                  feed=None) -> None:
        ctx = multiprocessing.get_context(_start_method())
        workers = min(self.jobs, len(pending))
        listener = None
        pool_kw = {}
        if progress is not None or tracer is not None or feed is not None:
            # Workers only pay for heartbeats when someone is listening
            # (a progress display, the span collector, or the feed).
            from repro.obs.live import HeartbeatListener

            beats = ctx.Queue()
            wire = tracer.wire(root) if tracer is not None else None
            pool_kw = {
                "initializer": _init_worker, "initargs": (beats, wire),
            }
            listener = HeartbeatListener(
                beats, progress, sink=self._beat_sink(feed, tracer)
            )
            listener.start()
        pool = ctx.Pool(processes=workers, **pool_kw)
        clean = False
        try:
            for digest, payload, elapsed, occupancy in pool.imap_unordered(
                _worker, [spec for _, spec in pending]
            ):
                self._finish_cell(digest, elapsed, occupancy)
                result = SimulationResult.from_dict(payload)
                self._results[digest] = result
                if self.disk is not None:
                    self.disk.store(digest, payload)
                if self.verbose:
                    print(
                        f"  done {result.workload} / "
                        f"{result.protocol} / {result.predictor}"
                    )
            # Deterministic drain: close()+join() waits for every
            # worker to exit, which flushes their queue feeder threads
            # — the final beats (span closes, cell finishes) are in the
            # queue before the listener's stop sentinel goes in behind
            # them.  (A `with Pool` block would terminate() instead,
            # racing workers' last beats and occasionally losing a
            # finish_cell under spawn.)
            pool.close()
            pool.join()
            clean = True
        finally:
            if not clean:
                pool.terminate()
                pool.join()
            if listener is not None:
                listener.stop()

    def _store(self, digest: str, result: SimulationResult) -> None:
        self._results[digest] = result
        if self.disk is not None:
            self.disk.store(digest, result.to_dict())

    # -- metrics export -------------------------------------------------

    def metrics_payload(self) -> dict:
        """Per-cell metrics plus the sweep-level rollup for every result
        this runner holds (cached or freshly simulated)."""
        from repro.obs.metrics import (
            METRICS_SCHEMA,
            aggregate_metrics,
            metrics_from_result,
        )

        cells = []
        for digest, result in self._results.items():
            spec = self._specs.get(digest)
            cells.append(metrics_from_result(
                result, machine=spec.machine if spec is not None else None
            ))
        return {
            "schema": METRICS_SCHEMA,
            "cells": cells,
            "aggregate": aggregate_metrics(cells),
        }

    def write_metrics(self, path) -> dict:
        """Write :meth:`metrics_payload` to ``path`` as ``metrics.json``."""
        from repro.obs.metrics import save_metrics

        payload = self.metrics_payload()
        save_metrics(payload, path)
        return payload
