"""Pinned output digests every measured cell is checked against.

``reference/seed-N.json`` maps workload -> cell label -> the sha256 of
the cell's ``SimulationResult.to_dict()`` serialized with sorted keys,
as the reference interpreter (``use_compiled=False``) computes it.
``python3 -m bench.run --make-reference --seed N`` rebuilds one file.

References are pinned for seeds ``1..PINNED_SEEDS``; any other
``--seed`` wraps onto that pool, so every input the benchmark can make
has a reference and no run pays for the interpreter.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PINNED_SEEDS = 10


def input_seed(seed: int, smoke: bool = False) -> int:
    """The generator seed a ``--seed`` selects (smoke pins only 1)."""
    return 1 if smoke else 1 + (seed - 1) % PINNED_SEEDS


def reference_path(seed: int, smoke: bool = False) -> Path:
    prefix = "smoke-seed" if smoke else "seed"
    return REFERENCE_DIR / f"{prefix}-{seed}.json"


def load_reference(seed: int, smoke: bool = False) -> dict:
    with open(reference_path(seed, smoke)) as fh:
        return json.load(fh)


def save_reference(digests: dict, seed: int, smoke: bool = False) -> Path:
    path = reference_path(seed, smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def digest(payload: dict) -> str:
    """sha256 of a ``SimulationResult.to_dict()`` payload, keys sorted."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def first_difference(got, want, path: str = "") -> str | None:
    """The first counter (as a dotted path) where two payloads differ,
    with both values; ``None`` when they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            if key not in got or key not in want:
                return f"{path}{key}: present only in one payload"
            found = first_difference(got[key], want[key], f"{path}{key}.")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path.rstrip('.')}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}{i}.")
            if found:
                return found
        return None
    if got != want:
        return f"{path.rstrip('.')}: {got!r} != reference {want!r}"
    return None
