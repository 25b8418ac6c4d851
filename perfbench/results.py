"""Result accounting shared by the workloads."""

from __future__ import annotations

import math
import resource


class Result:
    """Operations attempted/failed, metrics, and human-readable notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: "dict[str, tuple[float, str]]" = {}
        #: Per-layer totals of a traced run (``None`` when untraced).
        self.layers: "dict[str, float] | None" = None
        self.notes: "list[str]" = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        self.notes.append(line)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child) in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
