"""Shared measurement helpers: outcomes, quantiles, memory."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)

    def record_check(self, what: str, problems: Sequence[str]) -> None:
        """Count one checked operation; a mismatch fails it."""
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems[:3]))

    def record_error(self, what: str, error: str) -> None:
        """Count one operation that returned no answer to check."""
        self.failed += 1
        self.errors.append(f"{what}: {error}")


def quantile_ms(seconds: Sequence[float], q: float) -> float:
    """Nearest-rank quantile in ms (``q = 0.99`` over fewer than 100
    samples is the largest one)."""
    ordered = sorted(seconds)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] * 1000.0


def median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1000.0


def best_p50_ms(by_read: Mapping[object, Sequence[float]]) -> float:
    """The median, over a run's distinct reads, of each read's fastest
    repetition, in ms.

    On a shared host the whole latency distribution of a run moves by
    tens of percent with the neighbours' load, but its lower edge holds
    still; a read repeated often enough is caught at least once at full
    speed.  A read that runs once contributes its only latency.
    """
    return statistics.median(min(times) for times in by_read.values()) * 1000.0


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is in KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0
