"""Output checks of the benchmark.

Each check takes plain arrays or numbers the program produced and
returns a list of failure messages; an empty list means the output is
correct. The workloads turn these messages into failed operations, so
a wrong output is counted, never silently timed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def finite_losses(losses, expected: int) -> list[str]:
    """One message per step whose loss is missing or not finite."""
    losses = [float(v) for v in losses]
    problems = [f"step {i}: loss {v!r} is not finite"
                for i, v in enumerate(losses) if not math.isfinite(v)]
    if len(losses) != expected:
        problems.append(f"{len(losses)} losses logged for {expected} steps")
    return problems


def bounded_scores(scores) -> list[str]:
    """Every score is finite and strictly inside (-1, 1)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        return ["no scores"]
    if not np.all(np.isfinite(s)):
        return [f"{int(np.sum(~np.isfinite(s)))} scores are not finite"]
    outside = int(np.sum(np.abs(s) >= 1.0))
    return [f"{outside} scores are outside (-1, 1)"] if outside else []


def finite_params(params: dict) -> list[str]:
    return [f"parameter {k} is not finite"
            for k, v in sorted(params.items()) if not np.all(np.isfinite(v))]


def auc_matches_oracle(auc_fast: float, auc_oracle: float) -> list[str]:
    """The rank AUC equals the O(n^2) pair-counting oracle exactly."""
    if auc_fast != auc_oracle:
        return [f"AUC {auc_fast!r} != pairwise oracle {auc_oracle!r}"]
    return []


def perfect_accuracy(predicted, labels) -> list[str]:
    p = np.asarray(predicted).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if p.shape != y.shape:
        return [f"{p.shape[0]} predictions for {y.shape[0]} labels"]
    wrong = int(np.sum(p != y))
    return [f"training accuracy {1 - wrong / len(y):.4f} < 1.0"] if wrong else []


def bitwise_equal(before: dict, after: dict) -> list[str]:
    """Two parameter dicts hold the same names, shapes, dtypes and bytes."""
    if set(before) != set(after):
        return [f"names differ: {sorted(set(before) ^ set(after))}"]
    problems = []
    for name in sorted(before):
        a, b = np.asarray(before[name]), np.asarray(after[name])
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"{name} does not round-trip bitwise")
    return problems


def same_value(got, want, what: str) -> list[str]:
    return [] if got == want else [f"{what}: {got!r} != {want!r}"]


def digest(arrays: dict) -> str:
    """sha256 over names, dtypes, shapes and bytes, in sorted name order."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()
