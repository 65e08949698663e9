"""Deterministic, seeded, process-wide fault injection for the serving stack.

PR 2's :class:`~repro.mining.backends.FaultInjector` proved the worker
pool degrades bit-identically under crash/hang/kill — but it stops at the
pool.  This module generalizes the idea to **every infrastructure seam**
the serving stack crosses: filesystem writes and reads (torn write,
short read, ``ENOSPC``, ``EACCES``, ``EIO``, corrupt bytes, rename
failure), the event journal's append/rotate path, checkpoint
persistence, skeleton refresh under churn, and the monotonic clock.

The design is a *plan*, not a monkeypatch: production code threads its
fragile operations through the tiny helpers here
(:func:`fs_write_text`, :func:`fs_read_text`, :func:`fs_replace`,
:func:`fs_remove`, :func:`fire`), each tagged with a **site name** from
:data:`FAULT_SITES`.  With no plan installed the helpers compile down to
plain I/O — one ``is None`` check on the hot path.  With a plan
installed (:func:`install` / :func:`installed`), each site keeps a
deterministic hit counter and each :class:`FaultRule` describes a
half-open window ``[after, after + times)`` of hits that fault.  Two
runs with the same plan and the same operation sequence inject the same
faults at the same instants — which is what lets the chaos differential
harness shrink failures and replay them.

Randomness (which byte a ``corrupt`` read flips) comes only from the
plan's seed, never from global state, so corruption is reproducible too.

The guiding invariant (see ``docs/fault-tolerance.md``): under any
injected fault the service may *degrade* — slower tier, cold re-mine,
memory-only cache — but must never return answers that differ from a
fault-free cold run.  The fault plan is the attack half of that proof;
the degradation ladders in :mod:`repro.serve.service`,
:mod:`repro.obs.events`, and :mod:`repro.runtime.checkpoint` are the
defense half.
"""

from __future__ import annotations

import errno
import json
import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError

#: Every injectable failure site in the serving stack, by name.  A plan
#: naming an unknown site raises immediately — a typo'd site would
#: silently never fire and the chaos harness would "prove" nothing.
FAULT_SITES = frozenset(
    {
        # the QueryService result-cache disk tier
        "serve.disk.write",
        "serve.disk.read",
        "serve.disk.replace",
        "serve.disk.remove",
        # the telemetry event journal
        "journal.open",
        "journal.write",
        "journal.rotate",
        # crash-safe checkpointing
        "checkpoint.save",
        "checkpoint.load",
        # skeleton refresh under churn
        "skeleton.refresh",
        # the monotonic clock feeding TTL and the circuit breaker
        "clock",
    }
)

#: Fault kinds with filesystem semantics (the errno-raising ones work at
#: any fs site; ``torn`` only at write sites, ``short``/``corrupt`` only
#: at read sites, ``rename`` only at replace sites).
FS_KINDS = ("enospc", "eacces", "eio", "torn", "short", "corrupt", "rename")

#: All fault kinds.  ``error`` raises :class:`~repro.errors.ExecutionError`
#: (for non-filesystem sites like ``skeleton.refresh``); ``clock_jump``
#: advances a wrapped clock by ``jump_seconds``.
FAULT_KINDS = FS_KINDS + ("error", "clock_jump")

_ERRNO = {
    "enospc": errno.ENOSPC,
    "eacces": errno.EACCES,
    "eio": errno.EIO,
    "rename": errno.EIO,
    "torn": errno.ENOSPC,
}


class InjectedFault(OSError):
    """An injected filesystem fault (an ``OSError`` with a real errno),
    distinguishable from organic failures in logs and tests."""

    def __init__(self, err: int, site: str, kind: str):
        super().__init__(err, f"injected {kind} at {site}")
        self.site = site
        self.kind = kind


@dataclass(frozen=True)
class FaultRule:
    """One deterministic injection: fault ``site`` on hits
    ``[after, after + times)`` of its counter (0-based).

    ``times=-1`` means "every hit from ``after`` on" — the persistent
    fault the circuit-breaker proofs need.  ``jump_seconds`` only
    applies to ``clock_jump`` rules.
    """

    site: str
    kind: str
    times: int = 1
    after: int = 0
    jump_seconds: float = 0.0

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ExecutionError(
                f"unknown fault site {self.site!r}; choose from "
                f"{sorted(FAULT_SITES)}"
            )
        if self.kind not in FAULT_KINDS:
            raise ExecutionError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.times < -1 or self.times == 0:
            raise ExecutionError(
                f"times must be a positive count or -1 (forever), "
                f"got {self.times}"
            )
        if self.after < 0:
            raise ExecutionError(f"after must be >= 0, got {self.after}")

    def covers(self, n: int) -> bool:
        """Whether hit number ``n`` (0-based) of the site faults."""
        if n < self.after:
            return False
        return self.times == -1 or n < self.after + self.times

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "site": self.site, "kind": self.kind,
            "times": self.times, "after": self.after,
        }
        if self.jump_seconds:
            out["jump_seconds"] = self.jump_seconds
        return out

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "FaultRule":
        if not isinstance(document, dict):
            raise ExecutionError("fault rule must be a JSON object")
        unknown = set(document) - {
            "site", "kind", "times", "after", "jump_seconds"
        }
        if unknown:
            raise ExecutionError(
                f"fault rule has unknown key(s) {sorted(unknown)}"
            )
        for key in ("site", "kind"):
            if key not in document:
                raise ExecutionError(f"fault rule missing required {key!r}")
        return cls(
            site=document["site"],
            kind=document["kind"],
            times=int(document.get("times", 1)),
            after=int(document.get("after", 0)),
            jump_seconds=float(document.get("jump_seconds", 0.0)),
        )


class FaultPlan:
    """A seeded, deterministic set of :class:`FaultRule` s plus the
    per-site hit counters that decide when each fires.

    The plan records every injection in :attr:`fired` (``(site, kind,
    hit_number)`` tuples), so tests assert not just that the service
    survived but that the faults they asked for actually happened — a
    chaos harness whose faults silently stopped firing proves nothing.
    """

    def __init__(self, rules: Optional[List[FaultRule]] = None, seed: int = 0):
        self.rules: List[FaultRule] = list(rules or [])
        self.seed = seed
        self._rng = random.Random(seed)
        self.hits: Dict[str, int] = {}
        self.fired: List[Tuple[str, str, int]] = []
        self._lock = threading.Lock()
        self.clock_offset = 0.0

    # -- construction --------------------------------------------------
    def add(self, site: str, kind: str, times: int = 1, after: int = 0,
            jump_seconds: float = 0.0) -> "FaultPlan":
        """Append one rule (chainable); the chaos harness grows plans
        mid-run this way."""
        self.rules.append(FaultRule(site, kind, times, after, jump_seconds))
        return self

    def clear_rules(self) -> None:
        """Drop every rule — "faults clear" — keeping hit counters and
        the fired log, so recovery proofs can still see the history."""
        self.rules = []

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(document, dict):
            raise ExecutionError("fault plan must be a JSON object")
        unknown = set(document) - {"seed", "rules"}
        if unknown:
            raise ExecutionError(
                f"fault plan has unknown key(s) {sorted(unknown)}"
            )
        rules = document.get("rules", [])
        if not isinstance(rules, list):
            raise ExecutionError("fault plan 'rules' must be a list")
        return cls(
            rules=[FaultRule.from_dict(r) for r in rules],
            seed=int(document.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExecutionError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(document)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ExecutionError(f"cannot read fault plan {path}: {exc}")
        return cls.from_json(text)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [rule.as_dict() for rule in self.rules],
        }

    # -- matching ------------------------------------------------------
    def hit(self, site: str) -> Optional[FaultRule]:
        """Count one hit of ``site``; the matching rule if it faults.

        The counter advances whether or not a rule matches, so rule
        windows are stable under plan edits mid-run.
        """
        with self._lock:
            n = self.hits.get(site, 0)
            self.hits[site] = n + 1
            for rule in self.rules:
                if rule.site == site and rule.covers(n):
                    self.fired.append((site, rule.kind, n))
                    return rule
        return None

    def fired_kinds(self, site: str) -> List[str]:
        """The kinds that fired at one site, in order (test assertion)."""
        return [kind for s, kind, _ in self.fired if s == site]

    # -- deterministic corruption --------------------------------------
    def mangle(self, text: str) -> str:
        """Deterministically corrupt ``text``: flip one character chosen
        by the plan's seeded RNG (never into itself)."""
        if not text:
            return "\x00"
        index = self._rng.randrange(len(text))
        old = text[index]
        new = chr((ord(old) + 1) % 128) if old != "\x00" else "A"
        return text[:index] + new + text[index + 1:]

    # -- clock ---------------------------------------------------------
    def wrap_clock(self, clock: Callable[[], float]) -> Callable[[], float]:
        """A clock that additionally applies this plan's ``clock_jump``
        rules: every call counts one hit of the ``clock`` site; a firing
        rule permanently advances the returned time by its
        ``jump_seconds``."""

        def jumped() -> float:
            rule = self.hit("clock")
            if rule is not None and rule.kind == "clock_jump":
                self.clock_offset += rule.jump_seconds
            return clock() + self.clock_offset

        return jumped


# ----------------------------------------------------------------------
# Process-wide installation
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan (returns it)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def uninstall() -> None:
    """Deactivate fault injection (helpers become plain I/O again)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultPlan]:
    """The installed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with installed(plan):`` — scoped installation, restoring the
    previously active plan (tests nest safely)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def _match(site: str) -> Optional[FaultRule]:
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.hit(site)


def _raise_fs(rule: FaultRule, site: str) -> None:
    raise InjectedFault(_ERRNO.get(rule.kind, errno.EIO), site, rule.kind)


# ----------------------------------------------------------------------
# Injection-aware primitives (plain I/O when no plan is active)
# ----------------------------------------------------------------------
def fire(site: str) -> None:
    """Non-filesystem injection point: raises the planned fault, if any.

    ``error`` raises :class:`~repro.errors.ExecutionError`; the errno
    kinds raise :class:`InjectedFault` (an ``OSError``).  Sites that
    only narrate (``clock``) are handled elsewhere and never raise here.
    """
    rule = _match(site)
    if rule is None:
        return
    if rule.kind == "error":
        raise ExecutionError(f"injected error at {site}")
    if rule.kind in _ERRNO:
        _raise_fs(rule, site)
    # short/corrupt/clock_jump have no meaning for a bare fire(): the
    # hit is still counted (and logged) so plans stay deterministic.


def fs_write_text(path: str, text: str, site: str) -> None:
    """``open(path, "w").write(text)`` with injection.

    ``torn`` writes a prefix and then raises ``ENOSPC`` — the torn file
    is left behind, exactly like a real half-flushed write on a full
    disk; errno kinds raise before any byte lands.
    """
    rule = _match(site)
    if rule is not None:
        if rule.kind == "torn":
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text[: max(1, len(text) // 2)])
            _raise_fs(rule, site)
        if rule.kind in _ERRNO:
            _raise_fs(rule, site)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def fs_read_text(path: str, site: str) -> str:
    """``open(path).read()`` with injection: errno kinds raise;
    ``short`` returns a truncated prefix (a torn read); ``corrupt``
    returns the content with one seed-chosen character flipped."""
    rule = _match(site)
    if rule is not None and rule.kind in ("eacces", "eio", "enospc"):
        _raise_fs(rule, site)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if rule is not None:
        if rule.kind == "short":
            return text[: len(text) // 2]
        if rule.kind == "corrupt":
            plan = _ACTIVE
            return plan.mangle(text) if plan is not None else text
    return text


def fs_replace(src: str, dst: str, site: str) -> None:
    """``os.replace`` with injection (``rename`` or errno kinds)."""
    rule = _match(site)
    if rule is not None and rule.kind in _ERRNO:
        _raise_fs(rule, site)
    os.replace(src, dst)


def fs_remove(path: str, site: str) -> None:
    """``os.remove`` with injection."""
    rule = _match(site)
    if rule is not None and rule.kind in _ERRNO:
        _raise_fs(rule, site)
    os.remove(path)
