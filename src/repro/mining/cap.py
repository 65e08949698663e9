"""CAP: constraint-pushing levelwise mining for 1-var constraints.

The CAP algorithm (Ng et al., SIGMOD 1998) pushes 1-var constraints into
the Apriori lattice according to their properties.  Here it is a thin
assembly: each constraint is normalized (:class:`OneVarView`), compiled to
operational pruning forms (:func:`compile_onevar`) and installed into a
:class:`~repro.mining.lattice.ConstrainedLattice`, which realizes the four
CAP cases:

* succinct + anti-monotone  -> item filter (generate-only);
* succinct, not anti-monotone -> required bucket (member generating
  function, bucket elements ordered first);
* anti-monotone, not succinct -> anti-monotone candidate check;
* neither -> sound relaxation where one exists, plus a final post-filter.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.constraints.ast import Constraint
from repro.constraints.onevar import OneVarView
from repro.constraints.pruners import CompiledPruning, compile_onevar
from repro.db.domain import Domain
from repro.db.stats import OpCounters
from repro.errors import ConstraintTypeError, RunInterrupted
from repro.mining.backends import backend_scope
from repro.mining.lattice import ConstrainedLattice, LatticeResult
from repro.obs.trace import resolve_tracer
from repro.runtime.guard import resolve_guard


def compile_constraints(
    constraints: Sequence[Constraint], var: str, domain: Domain
) -> CompiledPruning:
    """Compile a conjunction of 1-var constraints on ``var`` into one
    pruning bundle."""
    bundle = CompiledPruning()
    for constraint in constraints:
        view = OneVarView.of(constraint)
        if view.var != var:
            raise ConstraintTypeError(
                f"constraint {constraint} is on {view.var!r}, expected {var!r}"
            )
        bundle.extend(compile_onevar(view, domain))
    return bundle


def cap_mine(
    var: str,
    domain: Domain,
    transactions: Sequence[Tuple[int, ...]],
    min_count: int,
    constraints: Sequence[Constraint] = (),
    counters: Optional[OpCounters] = None,
    max_level: Optional[int] = None,
    backend=None,
    tracer=None,
    guard=None,
) -> LatticeResult:
    """Run CAP for one variable.

    Parameters
    ----------
    var:
        Variable name.
    domain:
        The variable's domain (supplies elements and attribute values).
    transactions:
        What the lattice counts against: transactions projected onto the
        domain, or the domain's view of the database's bitmap index
        (:func:`~repro.mining.lattice.counting_source`).
    min_count:
        Absolute support threshold.
    constraints:
        The 1-var constraints to push (all must be on ``var``).
    backend:
        Counting backend name or instance (see
        :mod:`repro.mining.backends`); defaults to the hybrid strategy.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; records one ``level``
        span per mining level with candidate/pruning attributes.
    guard:
        Optional :class:`~repro.runtime.guard.RunGuard`; when a budget
        trips, the raised :class:`~repro.errors.RunInterrupted` carries
        the completed levels as its ``partial`` payload (a
        :class:`LatticeResult`).
    """
    tracer = resolve_tracer(tracer)
    guard = resolve_guard(guard).start()
    pruning = compile_constraints(constraints, var, domain)
    lattice = ConstrainedLattice(
        var=var,
        elements=domain.elements,
        transactions=transactions,
        min_count=min_count,
        pruning=pruning,
        counters=counters,
        max_level=max_level,
        backend=backend,
        guard=guard,
    )
    # One backend scope per mining run: a parallel backend forks its
    # worker pool once and reuses it across every level.
    with tracer.span(
        "cap.run",
        var=var,
        min_count=min_count,
        constraints=[str(c) for c in constraints] if tracer.enabled else None,
        backend=getattr(
            lattice.backend, "name", type(lattice.backend).__name__
        ),
    ):
        with backend_scope(lattice.backend):
            try:
                while True:
                    level = lattice.level + 1
                    with tracer.span("level", var=var, level=level) as span:
                        progressed = lattice.count_and_absorb()
                        if tracer.enabled:
                            span.set(
                                candidates_in=lattice.counted_per_level.get(level, 0),
                                frequent_out=len(lattice.frequent.get(level, {})),
                                pruned=dict(lattice.prune_counts.get(level, {})),
                            )
                    if not progressed:
                        break
            except RunInterrupted as exc:
                exc.partial = lattice.result()
                raise
    return lattice.result()
