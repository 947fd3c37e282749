"""Self-tests of the benchmark: ``python3 -m pytest bench/``."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import ROOT, SRC, layers, reference, run, stats
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(run.BENCHMARK) as fh:
        return json.load(fh)


def test_every_module_maps_to_a_named_layer():
    package = SRC / "repro"
    unmapped = [
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if layers.layer_of(path.relative_to(package).as_posix()) == "other"
    ]
    assert unmapped == []


@pytest.mark.parametrize("n, p", [
    (5, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (187, 90), (199, 90), (200, 95), (1000, 99), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p


def test_tail_value_and_median_fallback():
    assert stats.tail(list(range(1, 188))) == (169, 90, 187)
    assert stats.tail([4.0, 1.0, 2.0, 3.0]) == (2.5, 50, 4)
    # A run with more passes than guaranteed keeps the same percentile.
    assert stats.tail(list(range(1, 101)), guaranteed=40) == (75, 75, 100)


def test_builtin_self_time_is_charged_to_its_callers():
    repro = str((SRC / "repro").resolve())
    engine = (f"{repro}/sim/engine.py", 1, "run")
    table = (f"{repro}/core/sp_table.py", 1, "lookup")
    get = ("~", 0, "<method 'get' of 'dict' objects>")
    helper = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    profile = {
        engine: (1, 1, 1.0, 4.0, {}),
        table: (1, 1, 0.5, 1.5, {engine: (1, 1, 0.5, 1.5)}),
        get: (4, 4, 1.2, 1.2, {
            engine: (3, 3, 0.9, 0.9), helper: (1, 1, 0.3, 0.3),
        }),
        helper: (1, 1, 0.3, 0.6, {table: (1, 1, 0.3, 0.6)}),
    }
    folded = layers.fold_profile(profile, SRC / "repro")
    assert folded["sim"]["self_s"] == pytest.approx(1.9)
    assert folded["predict"]["self_s"] == pytest.approx(1.1)
    assert folded["other"]["self_s"] == 0
    assert sum(f["self_s"] for f in folded.values()) == pytest.approx(3.0)


def test_first_difference_names_the_first_counter_that_differs():
    want = {"cycles": 5, "network": {"bytes_total": 9, "messages": 6}}
    got = {"cycles": 5, "network": {"bytes_total": 9, "messages": 7}}
    assert reference.first_difference(got, want) == (
        "network.messages: 7 != reference 6"
    )
    assert reference.first_difference(want, want) is None


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + list(WORKLOADS))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_names_are_what_a_traced_run_reports(spec):
    expected = [
        f"{layer}.{part}" for layer in layers.LAYERS
        for part in ("self_s", "share", "calls", "ns_per_event")
    ] + list(layers.COUNTS) + [
        "runner.cells", "runner.cell_sum_s", "runner.dispatch_s",
        "runner.store_s", "setup.generate_s", "setup.compile_s",
        "setup.save_s", "trace_overhead",
    ]
    assert [m["name"] for m in spec["per_layer"]] == expected


def test_bodytrack_sp_reproduces_the_pinned_counters():
    from bench.workloads import generate, make_engine

    cell = next(
        c for c in WORKLOADS["contended-sp"].cells()
        if c.label == "bodytrack/directory/SP"
    )
    result = make_engine(generate("bodytrack", 0.5, 1), cell).run()
    assert (result.cycles, result.misses, result.comm_misses) == (
        470164, 63656, 38354
    )
    pinned = reference.load_reference(1)["contended-sp"][cell.label]
    assert reference.digest(result.to_dict()) == pinned


def test_tampered_reference_digest_fails_the_cell(tmp_path, monkeypatch):
    from bench import measure

    real = reference.load_reference(1, smoke=True)
    tampered = json.loads(json.dumps(real))
    label = next(iter(tampered["observed-sp"]))
    tampered["observed-sp"][label] = "0" * 64
    monkeypatch.setattr(
        measure.reference, "load_reference", lambda seed, smoke: tampered
    )
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    record = measure.measure(
        "observed-sp", 1, 0.1, False, True, 1, tmp_path
    )
    assert record["failed"] > 0
    assert record["failed"] / record["attempted"] > 0
    assert record["mismatch"].startswith(label)


def test_compare_flags_bound_breaches_and_count_drift(tmp_path, spec, capsys):
    def record(wall):
        metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
        metrics["wall_s"] = wall
        return {"workload": "contended-sp", "trace": 0, "failed": 0,
                "input_seed": 1, "metrics": metrics}

    def traced(events, seed=1):
        metrics = {m["name"]: 1.0 for m in spec["per_layer"]}
        metrics["sim.events"] = events
        return {"workload": "contended-sp", "trace": 1, "failed": 0,
                "input_seed": seed, "metrics": metrics}

    def write(name, records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    base = write("a", [record(1.0), record(1.02), traced(5)])
    same = write("b", [record(1.01), record(0.99), traced(5)])
    slow = write("c", [record(1.5), record(1.45), traced(5)])
    drift = write("d", [record(1.0), record(1.0), traced(6)])
    other_seed = write("e", [record(1.0), record(1.0), traced(6, seed=2)])
    assert run.compare(base, same, spec) == 0
    assert run.compare(base, other_seed, spec) == 0
    assert run.compare(base, slow, spec) == 1
    assert "FLAG worse" in capsys.readouterr().out
    assert run.compare(base, drift, spec) == 1
    assert "FLAG exact count differs" in capsys.readouterr().out


def test_jobs_above_nproc_is_refused(capsys):
    assert run.main(["--jobs", str(run.nproc() + 1)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: --jobs") and "\n" not in err


def test_smoke_emits_every_declared_metric_with_its_unit(tmp_path, spec):
    out = tmp_path / "smoke.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {(r["workload"], r["trace"]) for r in records} == {
        (name, traced) for name in WORKLOADS for traced in (0, 1)
    }
    lines = proc.stdout.splitlines()
    for record in records:
        assert record["failed"] == 0, record["mismatch"]
        declared = spec["per_layer"] if record["trace"] else spec["end_to_end"]
        assert set(record["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            assert any(
                line.split()[:1] == [metric["name"]]
                and line.split()[-1] == metric["unit"]
                for line in lines
            ), metric["name"]
    traced = [r for r in records if r["trace"]]
    assert all(r["metrics"]["other.share"] <= 0.05 for r in traced)
