"""Fold a cProfile run into the simulator's layers.

Every function defined under ``src/repro`` belongs to the layer its
module maps to in :data:`LAYER_MAP`.  Everything else -- C builtins such
as ``dict.get``, the standard library, numpy, the benchmark's own loop --
is *foreign*: its self time is charged to whichever layers called it,
split by pstats' per-caller record.  A foreign caller of a foreign
function is itself split by its callers' cumulative time, so numpy
called from ``sim/vector.py`` lands in ``vector``.  Only time with no
``src/repro`` frame above it at all (the benchmark's own loop) stays in
``other``.
"""

from __future__ import annotations

from pathlib import Path

LAYERS = (
    "runner", "traces", "sim", "vector", "cache", "coherence", "noc",
    "predict", "sync", "obs", "experiments", "other",
)

#: Modelled counts, exact and summed over one pass's cells: they repeat
#: bit for bit, so two versions of the simulator compare exactly.
COUNTS = (
    "sim.events", "sim.cycles", "vector.batch_fraction", "cache.accesses",
    "cache.misses", "coherence.comm_misses", "coherence.indirections",
    "coherence.snoop_lookups", "noc.messages", "noc.bytes",
    "predict.attempted", "predict.correct", "predict.accuracy",
    "sync.points", "sync.epochs", "obs.events",
)

#: A path under ``src/repro`` (a file, else its top-level package) ->
#: layer.  ``test_bench`` fails when a module maps to no named layer.
LAYER_MAP = {
    "runner": "runner",
    "traces": "traces",
    "workloads": "traces",
    "sim/vector.py": "vector",
    "sim": "sim",
    "cache": "cache",
    "coherence": "coherence",
    "noc": "noc",
    "core": "predict",
    "predictors": "predict",
    "sync": "sync",
    "obs": "obs",
    # Front ends that consume results: the paper's experiments and
    # their analysis/energy models, the report, the CLIs, and the
    # correctness harness.
    "experiments": "experiments",
    "analysis": "experiments",
    "energy": "experiments",
    "report.py": "experiments",
    "cli.py": "experiments",
    "__main__.py": "experiments",
    "__init__.py": "experiments",
    "check": "experiments",
}


def layer_of(rel: str) -> str:
    """The layer of a module, given its POSIX path relative to
    ``src/repro`` (``"sim/engine.py"``)."""
    if rel in LAYER_MAP:
        return LAYER_MAP[rel]
    return LAYER_MAP.get(rel.split("/", 1)[0], "other")


def fold_profile(stats: dict, package_dir: Path) -> dict:
    """Per-layer ``{"self_s", "calls"}`` from ``pstats.Stats(...).stats``.

    ``package_dir`` is the imported ``repro`` package directory.  The
    returned self times sum to the profile's total self time.
    """
    prefix = str(package_dir.resolve()) + "/"

    def own_layer(func):
        filename = func[0]
        if filename.startswith(prefix):
            return layer_of(filename[len(prefix):])
        return None

    memo: dict = {}

    def owners(func, weight_index, stack) -> dict:
        """Fractions of ``func``'s time owed to each layer."""
        key = (func, weight_index)
        if key in memo:
            return memo[key]
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        records = {
            caller: record
            for caller, record in stats.get(func, (0, 0, 0, 0, {}))[4].items()
            if caller != func
        }
        callers = {c: r[weight_index] for c, r in records.items()}
        total = sum(callers.values())
        if total <= 0:
            # Too fast to time: split by call count instead.
            callers = {c: r[0] for c, r in records.items()}
            total = sum(callers.values())
        if total <= 0 or func in stack:
            return {"other": 1.0}
        stack.add(func)
        out: dict = {}
        for caller, weight in callers.items():
            # Up the chain a foreign caller's calls are spread like its
            # cumulative time (index 3), not its own self time.
            for owner, frac in owners(caller, 3, stack).items():
                out[owner] = out.get(owner, 0.0) + frac * weight / total
        stack.discard(func)
        memo[key] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        for layer, frac in owners(func, 2, set()).items():
            self_s[layer] += tottime * frac
            calls[layer] += ncalls * frac
    return {
        layer: {"self_s": self_s[layer], "calls": round(calls[layer])}
        for layer in LAYERS
    }
