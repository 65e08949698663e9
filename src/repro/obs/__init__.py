"""repro.obs — the observability layer: tracing, metrics, logging,
run reports.

The pipeline's quantitative story (where pruning happened, what each
level cost, how the ``W^k`` bounds tightened) is captured by a span
tracer and a metrics registry threaded through the optimizer, the
dovetail engine and the counting backends, then exported as a
versioned JSON :class:`RunReport`.  Tracing is opt-in; the
:data:`NULL_TRACER` default keeps disabled runs within a few method
calls per mining level of an uninstrumented build.

See ``docs/observability.md`` for the API guide and report schema.
"""

from repro.obs.events import EVENT_KINDS, EventJournal, read_journal
from repro.obs.export import (
    lint_prometheus,
    render_chrome_trace,
    render_prometheus,
    validate_chrome_trace,
)
from repro.obs.hist import DEFAULT_RELATIVE_ERROR, QuantileHistogram, exact_quantile
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import NULL_METRICS, Histogram, MetricsRegistry, parse_key
from repro.obs.report import (
    RUN_REPORT_SCHEMA,
    RUN_REPORT_VERSION,
    ReportSchemaError,
    RunReport,
    build_run_report,
    profile_hotspots,
    pruning_summary,
    render_pruning_table,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer, resolve_tracer

__all__ = [
    "configure_logging",
    "get_logger",
    "DEFAULT_RELATIVE_ERROR",
    "QuantileHistogram",
    "exact_quantile",
    "Histogram",
    "MetricsRegistry",
    "parse_key",
    "EVENT_KINDS",
    "EventJournal",
    "read_journal",
    "render_prometheus",
    "lint_prometheus",
    "render_chrome_trace",
    "validate_chrome_trace",
    "NULL_METRICS",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "resolve_tracer",
    "ReportSchemaError",
    "RunReport",
    "RUN_REPORT_SCHEMA",
    "RUN_REPORT_VERSION",
    "build_run_report",
    "profile_hotspots",
    "pruning_summary",
    "render_pruning_table",
]
