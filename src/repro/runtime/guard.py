"""Run guardrails: budgets, cooperative cancellation, trip telemetry.

The candidate lattices this library mines can explode combinatorially
(the very motivation of the paper's ``J^k_max`` and quasi-succinct
machinery), and Tatti's complexity results show the general problem is
intractable — so a production run needs *enforceable* resource budgets
rather than hope.  :class:`RunGuard` carries three:

* a **wall-clock deadline** (seconds from :meth:`start`),
* an **RSS memory watermark** (sampled cheaply from ``/proc/self/statm``
  between candidate batches; ``getrusage`` peak-RSS fallback),
* a **per-level candidate budget** (checked the moment a level's
  candidates are generated, before any counting).

Checks are *cooperative*: the engines call :meth:`check` at level
boundaries, :meth:`tick` every N work units inside counting loops, and
:meth:`check_candidates` after candidate generation.  A tripped budget —
or a SIGINT/SIGTERM delivered while :meth:`signals` is installed —
raises :class:`~repro.errors.RunInterrupted`, which unwinds the engines
cleanly and lets the optimizer package partial results
(``CFQResult.status == "partial"``).

The disabled path is free: every instrumented call site takes a guard
defaulting to :data:`NULL_GUARD` — a :class:`RunGuard` switched off
through :attr:`RunGuard.enabled` — whose methods return at their top,
so it never arms a clock, records a level, sets a cancel flag or
installs a signal handler however many runs and threads share it.  The
list counting kernels only arm their per-transaction tick when
``guard.enabled`` is true (the overhead budget is enforced in
``benchmarks/test_obs_overhead.py``).
"""

from __future__ import annotations

import contextlib
import os
import signal as _signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ExecutionError, RunInterrupted

#: Work units (candidate probes) between cooperative checks inside
#: counting loops.  Small enough to react within milliseconds on the
#: paper's workloads, large enough that the check cost disappears.
DEFAULT_CHECK_EVERY = 100_000

#: Full checks between RSS samples (a sample is two syscalls).
DEFAULT_MEMORY_SAMPLE_EVERY = 4


def _read_rss_mb() -> Optional[float]:
    """Current resident set size in MiB, or ``None`` if unmeasurable.

    Prefers ``/proc/self/statm`` (Linux: field 2 is resident pages);
    falls back to ``resource.getrusage`` peak RSS (kilobytes on Linux).
    Both are cheap enough to sample between candidate batches.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0))
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # pragma: no cover - exotic platforms only
        return None


@dataclass(frozen=True)
class GuardTrip:
    """What tripped a :class:`RunGuard`, and the state of the run then.

    ``reason`` is a stable machine-readable code (``"deadline"``,
    ``"memory"``, ``"candidates"``, ``"sigint"``, ``"sigterm"``,
    ``"cancelled"``); ``detail`` is the human-readable sentence.
    ``levels_completed`` maps each variable to its deepest fully counted
    and verified level at trip time.
    """

    reason: str
    detail: str
    where: str = ""
    elapsed_seconds: float = 0.0
    rss_mb: Optional[float] = None
    levels_completed: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "detail": self.detail,
            "where": self.where,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "rss_mb": round(self.rss_mb, 3) if self.rss_mb is not None else None,
            "levels_completed": dict(self.levels_completed),
        }

    def summary(self) -> str:
        """One-line rendering for ``explain()`` and bench tables."""
        levels = ", ".join(
            f"{var}:L{level}" for var, level in sorted(self.levels_completed.items())
        ) or "none"
        text = (
            f"{self.reason} after {self.elapsed_seconds:.2f}s "
            f"(levels completed: {levels}"
        )
        if self.rss_mb is not None:
            text += f", rss {self.rss_mb:.0f}MB"
        return text + ")"


class RunGuard:
    """Cooperative budget enforcement for one mining run.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock budget, measured from :meth:`start` (the optimizer
        starts the guard when execution begins).  ``None`` disables.
    max_memory_mb:
        RSS watermark in MiB.  Sampled at level boundaries and every few
        full checks inside counting loops; unmeasurable platforms
        disable the budget with a note in :meth:`telemetry`.
    max_candidates:
        Per-level candidate-count budget: a level generating more
        candidates than this trips *before* the level is counted —
        catching the combinatorial explosions the paper's Section 4–5
        bounds exist to avoid.
    check_every:
        Work units (candidate probes) between cooperative checks inside
        counting loops.
    """

    #: ``False`` on :data:`NULL_GUARD`: every method that arms, checks
    #: or records returns at its top, and :meth:`telemetry` is empty.
    enabled = True

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_memory_mb: Optional[float] = None,
        max_candidates: Optional[int] = None,
        check_every: int = DEFAULT_CHECK_EVERY,
        memory_sample_every: int = DEFAULT_MEMORY_SAMPLE_EVERY,
    ):
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ExecutionError(
                f"deadline_seconds must be >= 0, got {deadline_seconds}"
            )
        if max_memory_mb is not None and max_memory_mb <= 0:
            raise ExecutionError(f"max_memory_mb must be > 0, got {max_memory_mb}")
        if max_candidates is not None and max_candidates < 1:
            raise ExecutionError(f"max_candidates must be >= 1, got {max_candidates}")
        if check_every < 1:
            raise ExecutionError(f"check_every must be >= 1, got {check_every}")
        self.deadline_seconds = deadline_seconds
        self.max_memory_mb = max_memory_mb
        self.max_candidates = max_candidates
        self.check_every = check_every
        self.memory_sample_every = max(1, memory_sample_every)
        self.levels_completed: Dict[str, int] = {}
        self.trip: Optional[GuardTrip] = None
        self._started_at: Optional[float] = None
        self._cancel_reason: Optional[str] = None
        self._cancel_detail: str = ""
        self._tick_units = 0
        self._checks = 0
        self._peak_rss_mb: Optional[float] = None
        self._memory_unmeasurable = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RunGuard":
        """Arm the deadline clock (idempotent; resumes keep the first)."""
        if self.enabled and self._started_at is None:
            self._started_at = time.monotonic()
        return self

    @property
    def started(self) -> bool:
        return self._started_at is not None

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 before the guard started)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def request_cancel(self, reason: str = "cancelled", detail: str = "") -> None:
        """Ask the run to stop at its next cooperative check.

        Async-signal-safe (two attribute writes); this is what the
        :meth:`signals` handlers call on SIGINT/SIGTERM.
        """
        if self.enabled and self._cancel_reason is None:
            self._cancel_reason = reason
            self._cancel_detail = detail or f"cancellation requested ({reason})"

    @contextlib.contextmanager
    def signals(self, signums=(_signal.SIGINT, _signal.SIGTERM)):
        """Route SIGINT/SIGTERM into :meth:`request_cancel` while active.

        The previous handlers are restored on exit.  Outside the main
        thread (where ``signal.signal`` raises), and on a disabled
        guard, this is a no-op, so library callers can use it
        unconditionally.
        """
        if not self.enabled:
            signums = ()
        installed = {}

        def _handler(signum, frame):
            name = _signal.Signals(signum).name.lower()
            self.request_cancel(name, f"received {name.upper()}")

        try:
            for signum in signums:
                installed[signum] = _signal.signal(signum, _handler)
        except ValueError:  # not the main thread
            installed = {}
        try:
            yield self
        finally:
            for signum, previous in installed.items():
                _signal.signal(signum, previous)

    # ------------------------------------------------------------------
    # Cooperative checks
    # ------------------------------------------------------------------
    def check(self, where: str = "") -> None:
        """Full check: cancellation flag, deadline, memory watermark.

        Raises :class:`~repro.errors.RunInterrupted` on (or after) a
        trip; re-raising on every later check keeps a tripped guard from
        letting work continue through a swallowed exception.
        """
        if not self.enabled:
            return
        if self.trip is not None:
            raise self._interrupt(self.trip)
        self._checks += 1
        if self._cancel_reason is not None:
            raise self._trip(self._cancel_reason, self._cancel_detail, where)
        if (
            self.deadline_seconds is not None
            and self._started_at is not None
            and self.elapsed() > self.deadline_seconds
        ):
            raise self._trip(
                "deadline",
                f"wall-clock budget of {self.deadline_seconds:g}s exceeded",
                where,
            )
        if self.max_memory_mb is not None and not self._memory_unmeasurable:
            if where == "level" or self._checks % self.memory_sample_every == 0:
                rss = _read_rss_mb()
                if rss is None:
                    self._memory_unmeasurable = True
                else:
                    if self._peak_rss_mb is None or rss > self._peak_rss_mb:
                        self._peak_rss_mb = rss
                    if rss > self.max_memory_mb:
                        raise self._trip(
                            "memory",
                            f"resident set {rss:.0f}MB exceeds the "
                            f"{self.max_memory_mb:g}MB watermark",
                            where,
                        )

    def tick(self, units: int = 1, where: str = "counting") -> None:
        """Cheap in-loop check: accumulate work units, run a full
        :meth:`check` every :attr:`check_every` of them."""
        if not self.enabled:
            return
        self._tick_units += units
        if self._tick_units >= self.check_every:
            self._tick_units = 0
            self.check(where)

    def check_candidates(self, n_candidates: int, var: str, level: int) -> None:
        """Enforce the per-level candidate budget, pre-counting."""
        if not self.enabled:
            return
        if self.max_candidates is not None and n_candidates > self.max_candidates:
            raise self._trip(
                "candidates",
                f"level {level} of {var} generated {n_candidates} candidates, "
                f"over the {self.max_candidates} budget",
                where=f"candidates {var}:L{level}",
            )
        self.check(where=f"candidates {var}:L{level}")

    def level_completed(self, var: str, level: int) -> None:
        """Record one fully counted-and-absorbed level, then check.

        Subclassable test hook: deterministic interruption tests override
        this to trip after a chosen number of completed levels.
        """
        if not self.enabled:
            return
        current = self.levels_completed.get(var, 0)
        if level > current:
            self.levels_completed[var] = level
        self.check(where="level")

    # ------------------------------------------------------------------
    # Tripping
    # ------------------------------------------------------------------
    def _trip(self, reason: str, detail: str, where: str) -> RunInterrupted:
        self.trip = GuardTrip(
            reason=reason,
            detail=detail,
            where=where,
            elapsed_seconds=self.elapsed(),
            rss_mb=self._sample_rss(),
            levels_completed=dict(self.levels_completed),
        )
        return self._interrupt(self.trip)

    @staticmethod
    def _interrupt(trip: GuardTrip) -> RunInterrupted:
        return RunInterrupted(f"run interrupted: {trip.detail}", trip=trip)

    def _sample_rss(self) -> Optional[float]:
        rss = _read_rss_mb()
        if rss is not None and (self._peak_rss_mb is None or rss > self._peak_rss_mb):
            self._peak_rss_mb = rss
        return rss if rss is not None else self._peak_rss_mb

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def telemetry(self) -> Dict[str, Any]:
        """The run report's ``budget`` block: configured budgets and how
        much of each was consumed (plus the trip, if one happened);
        empty for a disabled guard."""
        if not self.enabled:
            return {}
        return {
            "budgets": {
                "deadline_seconds": self.deadline_seconds,
                "max_memory_mb": self.max_memory_mb,
                "max_candidates": self.max_candidates,
            },
            "consumed": {
                "elapsed_seconds": round(self.elapsed(), 6),
                "peak_rss_mb": (
                    round(self._peak_rss_mb, 3)
                    if self._peak_rss_mb is not None
                    else None
                ),
                "checks": self._checks,
                "levels_completed": dict(self.levels_completed),
            },
            "memory_unmeasurable": self._memory_unmeasurable,
            "trip": self.trip.as_dict() if self.trip is not None else None,
        }


#: Shared singleton: the default guard of every instrumented call site.
NULL_GUARD = RunGuard()
NULL_GUARD.enabled = False


def resolve_guard(guard) -> RunGuard:
    """Normalize an optional guard argument (``None`` → disabled)."""
    return NULL_GUARD if guard is None else guard
