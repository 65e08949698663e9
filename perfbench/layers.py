"""Per-layer timers for the traced run, installed from outside ``src/``.

:func:`install` wraps a fixed list of public ``repro`` functions and
methods, one layer name each.  Every wrapped call records its *self*
time: its duration minus the time of the wrapped calls nested in it.
Self times are summed per operation (one query, one request or one
delta), and :meth:`Recorder.medians_ms` reports, per layer, the median
over the operations in which that layer ran.

The untraced run installs nothing, so it runs the program unchanged.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> the functions whose self time it is.
#: ``module:qualname``; a qualname with a dot names a method.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("server.handle_ms", ("repro.serve.server:QueryServer.handle_query",)),
    ("server.admission_ms", (
        "repro.serve.admission:TenantRegistry.resolve",
        "repro.serve.admission:TenantRegistry.bucket",
        "repro.serve.admission:TokenBucket.allow",
    )),
    ("server.render_ms", ("repro.serve.server:answer_document",)),
    ("server.window_wait_ms", ("repro.serve.flight:Coalescer.close_after_window",)),
    ("core.parse_ms", ("repro.core.cfq_parser:parse_cfq",)),
    ("serve.fingerprint_ms", (
        "repro.serve.fingerprint:result_key",
        "repro.serve.fingerprint:query_fingerprint",
    )),
    ("serve.lookup_ms", ("repro.serve.service:QueryService.lookup",)),
    ("serve.store_ms", ("repro.serve.service:QueryService.store",)),
    ("serve.execute_ms", ("repro.serve.service:QueryService.execute",)),
    ("serve.apply_delta_ms", ("repro.serve.service:QueryService.apply_delta",)),
    ("skeleton.refresh_ms", ("repro.serve.delta:refresh_skeleton",)),
    ("skeleton.oracle_ms", ("repro.serve.skeleton:SupportOracle.lookup",)),
    ("skeleton.build_ms", ("repro.serve.skeleton:build_skeleton",)),
    ("db.project_ms", ("repro.db.domain:Domain.project",)),
    ("db.append_ms", ("repro.db.transactions:TransactionDatabase.append",)),
    ("db.delete_ms", ("repro.db.transactions:TransactionDatabase.delete",)),
    ("db.digest_ms", ("repro.db.digest:transactions_digest",)),
    ("core.plan_ms", ("repro.core.optimizer:CFQOptimizer.plan",)),
    ("core.reduce_ms", ("repro.core.reduction:reduce_twovar",)),
    ("core.jmax_ms", (
        "repro.core.jmax:BoundSeries.start",
        "repro.core.jmax:BoundSeries.update",
    )),
    ("core.pairs_ms", ("repro.core.pairs:form_valid_pairs",)),
    ("mining.candidates_ms", ("repro.mining.lattice:ConstrainedLattice.candidates",)),
    ("mining.absorb_ms", (
        "repro.mining.lattice:ConstrainedLattice.absorb",
        "repro.mining.lattice:ConstrainedLattice.install_pruning",
    )),
    ("mining.count_l1_ms", ("repro.mining.counting:count_singletons",)),
    ("mining.count_ms", (
        "repro.mining.backends:HybridBackend.count",
        "repro.mining.backends:HashTreeBackend.count",
        "repro.mining.backends:VerticalBackend.count",
        "repro.mining.backends:ParallelBackend.count",
        "repro.mining.bitmap:BitmapBackend.count",
    )),
)

TIME_LAYERS = tuple(name for name, _ in LAYERS)


class Recorder:
    """Self time per layer per operation, plus run-total counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.ops: List[Dict[str, float]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- operations ----------------------------------------------------
    def begin(self) -> None:
        self._local.op = {}
        self._local.stack = []

    def end(self) -> Dict[str, float]:
        op = self._local.op
        self._local.op = None
        with self._lock:
            self.ops.append(op)
        return op

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- timers --------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, after: Optional[Callable] = None) -> Callable:
        local = self._local
        clock = self.clock

        def timed(*args, **kwargs):
            op = getattr(local, "op", None)
            if op is None:
                return fn(*args, **kwargs)
            stack = local.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                op[layer] = op.get(layer, 0.0) + elapsed - nested
            if after is not None:
                after(self, args, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", layer)
        return timed

    # -- reporting -----------------------------------------------------
    def medians_ms(self, ops: Optional[List[Dict[str, float]]] = None) -> Dict[str, float]:
        """Per layer: median self time (ms) over the operations where the
        layer ran; 0 for a layer no operation reached."""
        ops = self.ops if ops is None else ops
        out: Dict[str, float] = {}
        for layer in TIME_LAYERS:
            values = [op[layer] for op in ops if layer in op]
            out[layer] = statistics.median(values) * 1000.0 if values else 0.0
        return out


def _count_frequent(recorder: Recorder, args, result) -> None:
    lattice, support = args[0], args[1]
    recorder.count(
        "mining.frequent_found",
        sum(1 for n in support.values() if n >= lattice.min_count),
    )


_AFTER = {"repro.mining.lattice:ConstrainedLattice.absorb": _count_frequent}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target in :data:`LAYERS`; returns the uninstaller.

    A free function is also replaced wherever a loaded ``repro`` module
    imported it by name.  The JSON encoding done by the server module
    joins ``server.render_ms``.
    """
    for name in ("repro.cli", "repro.serve.server", "repro.serve.service"):
        importlib.import_module(name)
    undo: List[Tuple[object, str, object]] = []

    def replace(owner, name, value):
        undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    for layer, targets in LAYERS:
        for target in targets:
            module, owner, name = _resolve(target)
            original = getattr(owner, name)
            wrapped = recorder.wrap(original, layer, after=_AFTER.get(target))
            replace(owner, name, wrapped)
            if owner is module:
                for other_name, other in list(sys.modules.items()):
                    if (
                        other is not module
                        and other_name.startswith("repro")
                        and getattr(other, name, None) is original
                    ):
                        replace(other, name, wrapped)

    server = importlib.import_module("repro.serve.server")
    json_module = server.json
    shim = types.ModuleType("json")
    shim.__dict__.update(json_module.__dict__)
    shim.dumps = recorder.wrap(json_module.dumps, "server.render_ms")
    replace(server, "json", shim)

    def uninstall() -> None:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return uninstall
