"""``Apriori+``: the paper's baseline strategy.

Apriori+ first computes **all** frequent sets for each variable (plain
Apriori over the variable's domain) and only then checks them — and their
cross product — against the constraints.  It is the generate-and-test
extreme every optimization in the paper is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.pairs import form_valid_pairs, valid_sets_existential
from repro.core.query import CFQ
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import RunInterrupted
from repro.mining.backends import backend_scope, make_backend
from repro.mining.itemsets import Itemset
from repro.mining.lattice import (
    ConstrainedLattice,
    LatticeResult,
    counting_source,
)
from repro.obs.trace import resolve_tracer
from repro.runtime.guard import resolve_guard


@dataclass
class AprioriPlusResult:
    """All frequent sets per variable, plus post-hoc filtering helpers."""

    cfq: CFQ
    counters: OpCounters
    lattices: Dict[str, LatticeResult]

    def frequent(self, var: str) -> Dict[Itemset, int]:
        """All frequent sets of one variable (pre-filtering)."""
        return self.lattices[var].all_sets()

    def valid_sets(self, var: str) -> Dict[Itemset, int]:
        """Frequent sets of ``var`` participating in at least one valid pair."""
        variables = self.cfq.variables
        if len(variables) == 1:
            return valid_sets_existential(
                self.frequent(var), {}, self.cfq.parsed, var, var,
                self.cfq.domains, self.counters,
            )
        other = variables[0] if variables[1] == var else variables[1]
        return valid_sets_existential(
            self.frequent(var),
            self.frequent(other),
            self.cfq.parsed,
            var,
            other,
            self.cfq.domains,
            self.counters,
        )

    def pairs(self, limit: Optional[int] = None) -> List[Tuple[Itemset, Itemset]]:
        """The frequent valid pairs — the CFQ's answer."""
        s_var, t_var = self.cfq.variables
        return form_valid_pairs(
            self.frequent(s_var),
            self.frequent(t_var),
            self.cfq.parsed,
            self.cfq.domains,
            s_var=s_var,
            t_var=t_var,
            counters=self.counters,
            limit=limit,
        )


def apriori_plus(
    db: TransactionDatabase,
    cfq: CFQ,
    counters: Optional[OpCounters] = None,
    max_level: Optional[int] = None,
    tracer=None,
    guard=None,
    backend=None,
) -> AprioriPlusResult:
    """Run the Apriori+ baseline for a CFQ.

    The mining phase ignores every constraint; each variable's lattice
    runs over its full domain, paying one scan per level.  ``backend``
    names the counting backend (see :mod:`repro.mining.backends`); as in
    :class:`~repro.mining.dovetail.DovetailEngine`, unnamed means bitmap
    over the database's index.  A tripped ``guard`` raises
    :class:`~repro.errors.RunInterrupted` whose ``partial`` payload maps
    each variable to the levels it completed (variables not yet started
    map to empty results).
    """
    tracer = resolve_tracer(tracer)
    guard = resolve_guard(guard).start()
    counters = counters if counters is not None else OpCounters()
    backend = make_backend("bitmap" if backend is None else backend)
    lattices: Dict[str, LatticeResult] = {}
    cap = max_level if max_level is not None else cfq.max_level
    with tracer.span(
        "aprioriplus.run", query=str(cfq),
        backend=getattr(backend, "name", type(backend).__name__),
    ), backend_scope(backend):
        for var in cfq.variables:
            domain = cfq.domains[var]
            lattice = ConstrainedLattice(
                var=var,
                elements=domain.elements,
                transactions=counting_source(backend, db, domain),
                min_count=db.min_count(cfq.minsup_for(var)),
                counters=counters,
                max_level=cap,
                backend=backend,
                guard=guard,
            )
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
                partial = dict(lattices)
                partial[var] = lattice.result()
                for missing in cfq.variables:
                    if missing not in partial:
                        partial[missing] = LatticeResult(
                            var=missing, frequent={}, level1_supports={},
                            counted_per_level={},
                        )
                exc.partial = partial
                raise
            lattices[var] = lattice.result()
    return AprioriPlusResult(cfq=cfq, counters=counters, lattices=lattices)
