"""Run the benchmark.

Usage, from the root of a checkout::

    python3 -m bench.run                          # every workload, both passes
    python3 -m bench.run --workload contended-sp --trace 0 --seed 3
    python3 -m bench.run --seed 2 --out set-a.jsonl
    python3 -m bench.run --compare set-a.jsonl set-b.jsonl
    python3 -m bench.run --make-reference --seed 4

Each (workload, pass) runs in its own fresh subprocess
(:mod:`bench.measure`), one after another.  ``--trace 0`` measures the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones; without ``--trace`` both run.  Every metric is printed by name
with its unit.  When exactly one pass was measured, the last line of
standard output is its JSON result::

    {"correct": true, "attempted": 40, "failed": 0,
     "metrics": {"wall_s": {"value": 3.21, "unit": "s"}, ...}}

``--out F`` appends one JSON record per pass to ``F``; a file of such
records is a *set*, and ``--compare A B`` reports two sets against the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench import ROOT, SRC
from bench.layers import COUNTS
from bench.stats import quartiles

BENCHMARK = ROOT / "BENCHMARK.json"

#: Scratch space for stores, caches and the ledger; removed per run.
SCRATCH = ROOT / ".bench_tmp"

#: A measuring child that runs longer than this is killed.
CHILD_TIMEOUT_S = 170

#: Building a reference runs the slow interpreter, untimed.
REFERENCE_TIMEOUT_S = 900

#: Counts that must repeat exactly between any two runs of one seed.
EXACT = frozenset(COUNTS) | {"runner.cells"}


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def run_child(args: list, timeout: float) -> dict | None:
    """Run ``bench.measure`` in a fresh process group and scratch
    directory; its last stdout line is the record (``None`` if it
    failed)."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        TMPDIR=str(workdir),
        REPRO_TRACE_DIR=str(workdir / "traces"),
        REPRO_CACHE_DIR=str(workdir / "runs"),
        REPRO_LEDGER_DIR=str(workdir / "ledger"),
        # host_metadata() asks git for the commit; keep it from finding
        # a repository above the checkout.
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    command = [
        sys.executable, "-m", "bench.measure", *args,
        "--workdir", str(workdir),
    ]
    try:
        child = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print(f"error: {' '.join(args)} timed out after {timeout:.0f} s",
                  file=sys.stderr)
            return None
        finally:
            try:  # pool workers outliving a crashed child
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = out.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: {' '.join(args)} exited with {child.returncode}",
                  file=sys.stderr)
            return None
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run's directory is still there
            pass


def declared(spec: dict, traced: int) -> list:
    return spec["per_layer"] if traced else spec["end_to_end"]


def show(record: dict, spec: dict) -> None:
    """Print one record's metrics, one per line, with their units."""
    info = record["info"]
    kind = "traced" if record["trace"] else "untraced"
    load = record["load_before"], record["load_after"]
    print(
        f"== {record['workload']} ({kind}, seed {record['seed']} -> input "
        f"{record['input_seed']}): {info['passes']} pass(es) x "
        f"{info['cells_per_pass']} cells, jobs {info['jobs']}, nproc "
        f"{info['nproc']}, load {load[0]:.2f} -> {load[1]:.2f}"
    )
    for metric in declared(spec, record["trace"]):
        value = record["metrics"][metric["name"]]
        print(f"  {metric['name']:<28} {value:<22.10g} {metric['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':<28} {failed / attempted:<22.10g} ratio "
          f"({failed} of {attempted} cells)")
    if not record["trace"]:
        print(f"  cell_tail_s is p{info['tail_percentile']:g} of "
              f"{info['tail_samples']} cell samples")
    if record["mismatch"]:
        print(f"  MISMATCH {record['mismatch']}")


def result_line(record: dict, spec: dict) -> str:
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared(spec, record["trace"])
    }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def measure(args, spec: dict, names: list) -> int:
    passes = [args.trace] if args.trace is not None else [0, 1]
    jobs = args.jobs or min(2, nproc())
    records = []
    for name in names:
        for traced in passes:
            before = os.getloadavg()[0]
            record = run_child([
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(traced),
                "--jobs", str(jobs), *(["--smoke"] if args.smoke else []),
            ], CHILD_TIMEOUT_S)
            if record is None:
                return 1
            record.update(
                seed=args.seed, load_before=before,
                load_after=os.getloadavg()[0],
                time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            )
            missing = [
                m["name"] for m in declared(spec, traced)
                if m["name"] not in record["metrics"]
            ]
            if missing:
                return fail(f"{name} did not report {', '.join(missing)}", 1)
            show(record, spec)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
            records.append(record)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        print(result_line(records[0], spec))
    else:
        print(f"{len(records)} passes measured, {failed} failed cells")
    return 1 if failed else 0


def make_reference(args, names: list) -> int:
    for name in names:
        out = run_child([
            "--workload", name, "--seed", str(args.seed), "--make-reference",
            *(["--smoke"] if args.smoke else []),
        ], REFERENCE_TIMEOUT_S)
        if out is None:
            return 1
        print(f"{name}: pinned in {out['reference']}")
    return 0


def read_set(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Median and quartiles of two sets; flags an end-to-end metric
    whose medians differ by more than its bound, an exact count that
    differs between runs of the same input seed, and failed cells."""
    sets = [read_set(path_a), read_set(path_b)]
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flags = 0
    keys = sorted({(r["workload"], r["trace"]) for s in sets for r in s})
    for workload, traced in keys:
        groups = [
            [r for r in s if (r["workload"], r["trace"]) == (workload, traced)]
            for s in sets
        ]
        print(f"== {workload} ({'traced' if traced else 'untraced'}): "
              f"{len(groups[0])} vs {len(groups[1])} runs")
        for records, label in zip(groups, "AB"):
            bad = sum(r["failed"] for r in records)
            if bad:
                flags += 1
                print(f"  FLAG set {label}: {bad} failed cells")
        if not all(groups):
            continue
        for metric in declared(spec, traced):
            name = metric["name"]
            values = [[r["metrics"][name] for r in g] for g in groups]
            (a1, a2, a3), (b1, b2, b3) = map(quartiles, values)
            note = ""
            if name in bounds and a2:
                change = (b2 - a2) / a2
                worse = change > 0 if metric["better"] == "lower" else (
                    change < 0)
                if abs(change) > bounds[name]["bound"]:
                    flags += 1
                    note = (f"FLAG {'worse' if worse else 'better'} by "
                            f"{abs(change):.1%} > {bounds[name]['bound']:.0%}")
                else:
                    note = f"{change:+.1%}"
            elif name in EXACT:
                by_seed: dict = {}
                for record in groups[0] + groups[1]:
                    by_seed.setdefault(record["input_seed"], set()).add(
                        record["metrics"][name]
                    )
                if any(len(seen) > 1 for seen in by_seed.values()):
                    flags += 1
                    note = "FLAG exact count differs on one input seed"
            print(f"  {name:<28} A {a2:<12.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"B {b2:<12.6g} [{b1:.6g}, {b3:.6g}] "
                  f"{units[name]['unit']}  {note}")
    print(f"{flags} flag(s)")
    return 1 if flags else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench.run",
        description="Benchmark the simulator end to end and per layer.",
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="seconds each workload measures for (default: BENCHMARK.json "
             "run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, 1: per-layer (default: both)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="paper-regen pool workers (default: min(2, nproc))",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales and one pass (for the self-tests)")
    parser.add_argument("--out", help="append each pass's record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two record sets written with --out")
    parser.add_argument(
        "--make-reference", action="store_true",
        help="pin the reference interpreter's digests for --seed",
    )
    args = parser.parse_args(argv)

    try:
        with open(BENCHMARK) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {BENCHMARK.name}: {exc}")
    if args.compare:
        return compare(*args.compare, spec)
    if not (SRC / "repro").is_dir():
        return fail("no simulator source under src/repro; run from the "
                    "root of a full checkout")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(names)}")
    if args.jobs is not None and not 1 <= args.jobs <= nproc():
        return fail(f"--jobs {args.jobs} is outside 1..{nproc()} "
                    f"(this host's CPUs)")
    if args.workload is not None:
        names = [args.workload]
    if args.make_reference:
        return make_reference(args, names)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return measure(args, spec, names)


if __name__ == "__main__":
    sys.exit(main())
