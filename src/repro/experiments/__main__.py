"""CLI: regenerate the paper's tables and figures as text.

Usage::

    python -m repro.experiments                # everything
    python -m repro.experiments fig7 fig8      # selected experiments
    python -m repro.experiments --scale 0.3    # smaller/faster runs
    python -m repro.experiments --jobs 8       # sweep on 8 workers

The full grid the selected experiments need is dispatched up front over
a multiprocessing pool (``--jobs`` / ``REPRO_JOBS``, default: all CPUs;
1 = serial in-process fallback).  Completed runs persist in an on-disk
cache (``REPRO_CACHE_DIR``, default ``~/.cache/repro-runs``) keyed by
configuration + simulator-source hash, so repeat invocations simulate
nothing; ``--no-cache`` skips it and ``--clear-cache`` empties it.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.experiments import EXPERIMENTS, required_configs
from repro.experiments.common import DEFAULT_SCALE, RunCache
from repro.runner import DiskCache


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"which to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="workload scale factor (default %(default)s)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the simulation sweep (default: "
            "REPRO_JOBS or all CPUs; 1 = serial in-process fallback)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent on-disk result cache for this run",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete all cached results (REPRO_CACHE_DIR) and exit",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run the coherence sanitizer in every simulation; any "
            "violation aborts the harness with a report (sanitized runs "
            "cache under separate keys)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="render figure shapes as terminal plots below each table",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the sweep's aggregated metrics registry "
             "(per-cell counters/histograms + rollup) as JSON",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a wall-phase breakdown (sweep vs. each experiment) "
             "when done",
    )
    parser.add_argument(
        "--feed", metavar="PATH", default=None,
        help="append the sweep's live telemetry feed (spans, heartbeats, "
             "resource samples) to this JSONL file; tail it with "
             "'repro obs feed show' (default: REPRO_FEED)",
    )
    args = parser.parse_args(argv)

    if args.clear_cache:
        disk = DiskCache()
        removed = disk.clear()
        print(f"removed {removed} cached result(s) from {disk.root}")
        return 0

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from {', '.join(EXPERIMENTS)}"
        )

    cache = RunCache(
        scale=args.scale,
        verbose=not args.quiet,
        jobs=args.jobs,
        disk_cache=False if args.no_cache else None,
        sanitize=args.sanitize,
        progress=False if args.quiet else None,
        feed=args.feed,
    )
    from repro.obs import PhaseTimer

    timer = PhaseTimer()
    configs = required_configs(selected, cache.suite())
    if configs:
        start = time.time()
        aliased = cache.runner.aliased
        with timer.phase("sweep"):
            simulated = cache.prefetch(configs)
        aliased = cache.runner.aliased - aliased
        if not args.quiet:
            print(
                f"[sweep: {len(configs)} configurations, {simulated} "
                f"simulated, {aliased} served by a twin "
                f"({cache.runner.jobs} jobs), "
                f"{time.time() - start:.1f}s]"
            )
        if args.sanitize:
            dirty = [
                result
                for result in cache.runner.results()
                if result.sanitizer_violations
            ]
            if dirty:
                for result in dirty:
                    head = result.sanitizer_violations[0]
                    print(
                        f"SANITIZER: {result.workload}/{result.protocol}/"
                        f"{result.predictor}: "
                        f"{len(result.sanitizer_violations)} violation(s); "
                        f"first: {head.message}",
                        file=sys.stderr,
                    )
                return 1
    for exp_id in selected:
        module = importlib.import_module(EXPERIMENTS[exp_id])
        start = time.time()
        with timer.phase(exp_id):
            table = module.run(cache)
        print(table.render())
        if args.plot:
            plot = render_plot(exp_id, table)
            if plot:
                print()
                print(plot)
        if not args.quiet:
            print(f"[{exp_id} took {time.time() - start:.1f}s]")
        print()
    if args.metrics:
        payload = cache.runner.write_metrics(args.metrics)
        if not args.quiet:
            print(f"[metrics: {len(payload['cells'])} cells -> "
                  f"{args.metrics}]")
    from repro.obs.ledger import record_run

    run_id = record_run(
        "experiments",
        metrics=cache.runner.metrics_payload(),
        phases=timer.breakdown(),
        label=" ".join(selected),
        extra={
            "scale": args.scale,
            "simulations": cache.simulations,
            "aliased": cache.runner.aliased,
            "jobs": cache.runner.jobs,
        },
    )
    if run_id and not args.quiet:
        print(f"[ledger: run {run_id}]")
    if args.profile:
        print(timer.render())
    return 0


#: Bar-plottable experiments: (value column, label column).
_BAR_PLOTS = {
    "fig1": ("comm_ratio", "benchmark"),
    "fig7": ("total", "benchmark"),
    "fig8": ("sp_predictor", "benchmark"),
    "fig9": ("added_pct", "benchmark"),
    "fig10": ("sp_predictor", "benchmark"),
    "fig11": ("sp_predictor", "benchmark"),
}

#: Scatter-plottable experiments: (x column, y column, marker column).
_SCATTER_PLOTS = {
    "fig12": ("added_bw_pct", "indirection_pct", "predictor"),
    "fig13": ("added_bw_pct", "indirection_pct", "predictor"),
}


def render_plot(exp_id: str, table) -> str | None:
    """Best-effort terminal plot of an experiment's shape."""
    from repro.analysis.textplots import bar_chart, scatter

    if exp_id in _BAR_PLOTS:
        value_col, label_col = _BAR_PLOTS[exp_id]
        rows = [r for r in table.rows if isinstance(r.get(value_col), float)]
        if not rows:
            return None
        return bar_chart(
            [r[label_col] for r in rows],
            [r[value_col] for r in rows],
            title=f"{table.experiment}: {value_col}",
        )
    if exp_id in _SCATTER_PLOTS:
        x_col, y_col, marker_col = _SCATTER_PLOTS[exp_id]
        points = [
            (r[x_col], r[y_col], str(r[marker_col])[0])
            for r in table.rows
            if isinstance(r.get(x_col), float)
        ]
        if not points:
            return None
        return scatter(
            points, title=f"{table.experiment}: trade-off plane",
            x_label=x_col, y_label=y_col,
        )
    return None


if __name__ == "__main__":
    sys.exit(main())
