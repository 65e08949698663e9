"""The multi-tenant concurrent query server.

This is the ROADMAP's "library → service" step: a threaded, stdlib-only
HTTP/JSON front-end over :class:`~repro.serve.service.QueryService`
that applies the paper's shared-scan argument *across users* instead of
within one session.  Layered (request → response):

1. **Admission** (:mod:`repro.serve.admission`): per-tenant token
   buckets (429), per-tenant :class:`~repro.runtime.guard.RunGuard`
   budgets, a bounded global queue with load shedding (503), and
   unknown-tenant rejection (403).
2. **Warm fast path**: a query already in the memory result tier is
   served directly (:meth:`QueryService.is_warm` → ``execute``) —
   sub-millisecond, no flight/coalescer bookkeeping.
3. **Single-flight** (:class:`~repro.serve.flight.SingleFlight`): N
   concurrent *identical* queries (same
   :func:`~repro.serve.fingerprint.result_key`) elect one leader; the
   others wait for its published response — guard-tripped partials and
   degraded servings propagate to every waiter, and partials are never
   cached, so a tripped leader cannot poison anyone.
4. **Coalescing** (:class:`~repro.serve.flight.Coalescer`): leaders on
   the same *dataset* fingerprint arriving within the admission window
   dispatch as one shared-scan
   :meth:`~repro.serve.service.QueryService.execute_batch`; a group of
   one falls back to singleton execution.

Every response's ``answer`` block is **bit-identical** to a cold
single-threaded ``CFQOptimizer.execute`` of the same query (the
concurrency test battery proves it); the ``serving`` block carries the
metadata that may legitimately differ (source, dedup, coalesce width,
timings).

**Lock order** (acquire strictly downward; document new locks here and
in ``docs/server.md``):

* level 0 — server structures: flight table, coalescer, the server's
  own state lock (queue depth, dataset swap, document stores), the HTTP
  front-end's open-connection set;
* level 1 — ``LRUCache`` tier locks (result / skeleton / matrix);
* level 2 — ``CacheStats`` lock, ``MetricsRegistry`` lock;
* level 3 — ``EventJournal`` lock.

No lock is ever held across query execution; levels 2–3 are leaf locks
(code holding them calls nothing that locks).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.cfq_parser import parse_cfq
from repro.core.optimizer import CFQResult
from repro.errors import ExecutionError, ReproError
from repro.serve.admission import (
    TenantProfile,
    TenantRegistry,
    error_body,
)
from repro.serve.fingerprint import (
    RESULT_OPTIONS,
    dataset_fingerprint,
    query_fingerprint,
    result_key,
)
from repro.serve.cache import LRUCache
from repro.serve.flight import Coalescer, SingleFlight
from repro.serve.service import QueryService

SERVER_SCHEMA = "repro.serve.server"
SERVER_VERSION = 1

#: The answer-bearing counter fields every serving must reproduce
#: bit-identically to a cold run (scans/subset_tests/tuples_read are
#: the database-pass meters a skeleton-served run legitimately skips —
#: the same split the serving differential suite draws).
ANSWER_COUNTERS = (
    "sets_counted",
    "constraint_checks_singleton",
    "constraint_checks_larger",
    "pair_checks",
)

#: Request fields accepted by POST /query.
_REQUEST_FIELDS = frozenset({"query", "tenant", "minsup", "options"})


def answer_document(result: CFQResult) -> Dict[str, Any]:
    """The canonical, bit-comparable answer block for one result.

    Everything answer-bearing, orders made explicit: per-variable
    frequent valid sets with supports in dict insertion order, the full
    valid pair list (complete runs only — a partial run's pair phase
    never ran cold either), ``J^k_max`` bound histories, and the
    answer-bearing counter subset.  Two runs of the same query agree on
    this document byte-for-byte iff they agree on the paper's answer.
    """
    counters = result.counters.as_dict()
    document: Dict[str, Any] = {
        "query": str(result.cfq),
        "status": result.status,
        "frequent_valid": {
            var: [
                [list(items), support]
                for items, support in result.frequent_valid(var).items()
            ]
            for var in result.cfq.variables
        },
        "bound_histories": {
            key: [[int(k), float(bound)] for k, bound in history]
            for key, history in result.raw.bound_histories.items()
        },
        "counters": {name: counters[name] for name in ANSWER_COUNTERS},
    }
    if len(result.cfq.variables) == 2 and not result.is_partial:
        document["pairs"] = [
            [list(s), list(t)] for s, t in result.pairs()
        ]
    return document


class _Request:
    """One admitted query, parsed and fingerprinted."""

    __slots__ = (
        "db", "cfq", "options", "defaulted", "tenant", "profile", "key",
        "query_fp",
    )

    def __init__(
        self, db, cfq, options, defaulted, tenant, profile, key, query_fp
    ):
        #: The dataset version the request was admitted against: its key
        #: and fingerprints are computed on it, and it is what executes.
        self.db = db
        self.cfq = cfq
        self.options = options
        #: Options with optimizer defaults filled in — the coalescing
        #: group key includes these: ``execute_batch`` runs one shared
        #: options dict, so only requests agreeing on every engine
        #: option may share a batch (counters are answer-bearing and
        #: option-dependent).
        self.defaulted = defaulted
        self.tenant = tenant
        self.profile = profile
        self.key = key
        self.query_fp = query_fp


class QueryServer:
    """The HTTP-agnostic serving core (the handler below is a shim).

    Parameters
    ----------
    service:
        The (thread-safe) :class:`QueryService` to serve through.
    db / domains:
        The dataset and the domain table queries are parsed against.
        :meth:`apply_delta` swaps the dataset under churn.
    tenants:
        The admission table; defaults to an open registry (one
        permissive shared bucket).
    window_seconds / max_width:
        Coalescing admission window and group cap
        (:class:`Coalescer`); ``window_seconds=0`` disables coalescing.
    queue_limit:
        Bound on concurrently admitted (executing + coalescing)
        requests; arrivals beyond it are shed with 503.
    doc_cache_entries:
        Capacity of the rendered-response cache.  Broad queries can
        carry answers in the megabytes (hundreds of thousands of
        pairs); rendering and serializing one takes ~1s, so repeats
        are served from a content-addressed cache of the finished
        ``answer`` document and its JSON bytes.  Safe by construction:
        the key is the full :func:`result_key` (dataset + query +
        options), and only complete answers are cached.  Entries are
        tagged with their dataset fingerprint and dropped when
        :meth:`apply_delta` supersedes that version.
    default_minsup:
        Support threshold for queries that set none.
    backend:
        Counting backend handed to every execution.  A spec (a name such
        as ``"bitmap"``) gives each execution a backend of its own, so
        handler threads share no backend state.
    """

    def __init__(
        self,
        service: QueryService,
        db,
        domains: Dict[str, Any],
        tenants: Optional[TenantRegistry] = None,
        window_seconds: float = 0.004,
        max_width: int = 16,
        queue_limit: int = 64,
        default_minsup: float = 0.02,
        backend=None,
        doc_cache_entries: int = 128,
        clock: Callable[[], float] = time.monotonic,
    ):
        if queue_limit < 1:
            raise ExecutionError(f"queue_limit must be >= 1, got {queue_limit}")
        self.service = service
        self.domains = dict(domains)
        self.tenants = (
            tenants
            if tenants is not None
            else TenantRegistry.open_registry(clock=clock)
        )
        self.flights = SingleFlight()
        self.coalescer = Coalescer(
            window_seconds=window_seconds, max_width=max_width, clock=clock
        )
        self.queue_limit = queue_limit
        self.default_minsup = default_minsup
        self.backend = backend
        # Rendered (answer_dict, answer_json) pairs by result key; the
        # values are immutable by convention — every reader shares them.
        self._docs = LRUCache(max_entries=doc_cache_entries)
        self.clock = clock
        self._db = db
        self._state_lock = threading.Lock()
        self._queue_depth = 0
        self.started_at = clock()

    # ------------------------------------------------------------------
    # Dataset (swapped under churn)
    # ------------------------------------------------------------------
    @property
    def db(self):
        with self._state_lock:
            return self._db

    def apply_delta(self, new_db, delta, **kwargs) -> Any:
        """Migrate the service's cache tiers across a dataset delta and
        make ``new_db`` the served dataset.  In-flight queries keep the
        immutable snapshot they were admitted with — their answers stay
        correct for that version, and content-addressed keys mean a
        stale store can never serve the new fingerprint."""
        report = self.service.apply_delta(new_db, delta, **kwargs)
        with self._state_lock:
            self._db = new_db
        # The superseded version's documents can never hit again (their
        # keys carry its fingerprint); one rendered after the swap is
        # never stored (``_store_document``).
        self._docs.invalidate_tag(delta.base_digest)
        return report

    # ------------------------------------------------------------------
    # Queue accounting
    # ------------------------------------------------------------------
    def _enter_queue(self) -> bool:
        with self._state_lock:
            if self._queue_depth >= self.queue_limit:
                return False
            self._queue_depth += 1
            depth = self._queue_depth
        self.service.telemetry.set_queue_depth(depth)
        return True

    def _leave_queue(self) -> None:
        with self._state_lock:
            self._queue_depth -= 1
            depth = self._queue_depth
        self.service.telemetry.set_queue_depth(depth)

    @property
    def queue_depth(self) -> int:
        with self._state_lock:
            return self._queue_depth

    # ------------------------------------------------------------------
    # The request pipeline
    # ------------------------------------------------------------------
    def handle_query(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """One POST /query: admission → parse → execute → document.

        Returns ``(http_status, json_body)`` and never raises: every
        failure mode maps to a schema'd error body.
        """
        telemetry = self.service.telemetry
        if not isinstance(payload, dict):
            return 400, error_body(400, "bad_request", "body must be a JSON object")
        tenant = payload.get("tenant", "anonymous")
        if not isinstance(tenant, str) or not tenant:
            return 400, error_body(400, "bad_request", "tenant must be a non-empty string")

        # -- admission: tenant → rate limit → bounded queue ------------
        profile = self.tenants.resolve(tenant)
        if profile is None:
            telemetry.record_reject(tenant, "unknown_tenant")
            return 403, error_body(
                403, "unknown_tenant",
                f"tenant {tenant!r} has no profile and the server has no default",
                tenant=tenant,
            )
        bucket = self.tenants.bucket(tenant)
        if bucket is not None and not bucket.allow():
            telemetry.record_reject(tenant, "rate_limit")
            return 429, error_body(
                429, "rate_limit",
                f"tenant {tenant!r} is over its rate limit",
                tenant=tenant,
                retry_after_seconds=bucket.retry_after(),
            )
        if not self._enter_queue():
            telemetry.record_shed(tenant)
            return 503, error_body(
                503, "queue_full",
                f"server queue is full ({self.queue_limit} in flight)",
                tenant=tenant,
            )
        try:
            parsed = self._parse(payload, tenant, profile)
            if isinstance(parsed, tuple):  # (status, error body)
                telemetry.record_reject(tenant, "bad_request")
                return parsed
            telemetry.record_admit(tenant, parsed.query_fp)
            return self._execute(parsed)
        except ReproError as exc:
            return 500, error_body(500, "internal", str(exc), tenant=tenant)
        except Exception as exc:  # pragma: no cover - defense in depth
            return 500, error_body(
                500, "internal", f"{type(exc).__name__}: {exc}", tenant=tenant
            )
        finally:
            self._leave_queue()

    def _parse(self, payload: Dict[str, Any], tenant: str, profile: TenantProfile):
        unknown = set(payload) - _REQUEST_FIELDS
        if unknown:
            return 400, error_body(
                400, "bad_request",
                f"unknown request fields: {sorted(unknown)}", tenant=tenant,
            )
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            return 400, error_body(
                400, "bad_request", 'missing "query" text', tenant=tenant
            )
        minsup = payload.get("minsup", self.default_minsup)
        if not isinstance(minsup, (int, float)) or not 0 < minsup <= 1:
            return 400, error_body(
                400, "bad_request",
                f"minsup must be in (0, 1], got {minsup!r}", tenant=tenant,
            )
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            return 400, error_body(
                400, "bad_request", '"options" must be an object', tenant=tenant
            )
        bad_options = set(options) - set(RESULT_OPTIONS)
        if bad_options:
            return 400, error_body(
                400, "bad_request",
                f"unknown options: {sorted(bad_options)} "
                f"(allowed: {list(RESULT_OPTIONS)})",
                tenant=tenant,
            )
        db = self.db
        try:
            cfq = parse_cfq(text, self.domains, default_minsup=float(minsup))
        except ReproError as exc:
            return 400, error_body(400, "bad_request", str(exc), tenant=tenant)
        defaulted = self.service._defaulted(
            {name: options.get(name) for name in RESULT_OPTIONS}
        )
        return _Request(
            db=db,
            cfq=cfq,
            options=dict(options),
            defaulted=defaulted,
            tenant=tenant,
            profile=profile,
            key=result_key(cfq, db, defaulted),
            query_fp=query_fingerprint(cfq, db),
        )

    # ------------------------------------------------------------------
    # Execution: fast path → single-flight → coalescer
    # ------------------------------------------------------------------
    def _execute(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        db = request.db
        start = time.perf_counter()
        cached = self._docs.get(request.key)
        if cached is not None:
            answer, answer_json = cached
            return 200, {
                "schema": SERVER_SCHEMA,
                "version": SERVER_VERSION,
                "answer": answer,
                "serving": {
                    "tenant": request.tenant,
                    "source": "doc-cache",
                    "path": "doc-cache",
                    "dedup": False,
                    "coalesced_width": 1,
                    "query_fingerprint": request.query_fp,
                    "result_key": request.key,
                    "wall_seconds": round(time.perf_counter() - start, 6),
                },
                "_answer_json": answer_json,
            }
        if self.service.is_warm(db, request.cfq, **request.options):
            result = self.service.execute(
                db, request.cfq, backend=self.backend, **request.options
            )
            return self._respond(request, result, start, source="fast-path")

        flight, is_leader = self.flights.begin(request.key)
        if not is_leader:
            status, body = self.flights.wait(flight)
            document = dict(body)
            serving = dict(document.get("serving", {}))
            serving["dedup"] = True
            serving["tenant"] = request.tenant
            document["serving"] = serving
            return status, document

        try:
            response = self._execute_grouped(request, db, start)
        except BaseException as exc:
            self.flights.finish(flight, error=exc)
            raise
        waiters = flight.waiters
        self.flights.finish(flight, response=response)
        if waiters:
            self.service.telemetry.record_dedup(request.key, waiters)
        return response

    def _execute_grouped(
        self, request: _Request, db, start: float
    ) -> Tuple[int, Dict[str, Any]]:
        dataset_fp = dataset_fingerprint(db)
        # Group key includes the (defaulted) engine options: the batch
        # runs one shared options dict, and counters — answer-bearing —
        # depend on them, so only option-identical requests may share.
        group_key = dataset_fp + "|" + json.dumps(
            request.defaulted, sort_keys=True
        )
        group, index, is_group_leader = self.coalescer.join(group_key, request)
        if not is_group_leader:
            result, width = self.coalescer.wait(group, index)
            return self._respond(
                request, result, start, source="coalesced", width=width
            )
        members: List[_Request] = self.coalescer.close_after_window(group)
        try:
            if len(members) == 1:
                single_start = time.perf_counter()
                result = self.service.execute(
                    db,
                    request.cfq,
                    backend=self.backend,
                    guard=request.profile.guard(),
                    **request.options,
                )
                self._maybe_store(
                    db, request, result, time.perf_counter() - single_start
                )
                self.coalescer.publish(group, results=[(result, 1)])
                return self._respond(request, result, start, source="single")
            # One shared-scan batch for the whole group, mined under the
            # *leader's* tenant budgets (the batch is one run; a member
            # wanting stricter budgets still gets a correct — possibly
            # partial — answer, and the partial status is visible).
            report = self.service.execute_batch(
                db,
                [member.cfq for member in members],
                backend=self.backend,
                guard=request.profile.guard(),
                **request.options,
            )
            width = len(members)
            self.service.telemetry.record_coalesce(dataset_fp, width)
            for member, item in zip(members, report.items):
                self._maybe_store(db, member, item.result, item.wall_seconds)
            results = [(item.result, width) for item in report.items]
            self.coalescer.publish(group, results=results)
            return self._respond(
                request, results[index][0], start, source="coalesced",
                width=width,
            )
        except BaseException as exc:
            self.coalescer.publish(group, error=exc)
            raise

    def _maybe_store(
        self, db, request: _Request, result: CFQResult, elapsed: float
    ) -> None:
        """Server-side caching policy: a *complete* skeleton-served
        answer goes into the result cache too.  The library leaves
        skeleton servings uncached (cheap to recompute within one
        session); under multi-tenant load the same refinement queries
        recur across tenants, and caching them turns every repeat into
        a warm fast-path hit.  Answer-invariant: a stored skeleton
        run's ANSWER_COUNTERS already equal the cold run's (the serving
        differential contract), and only ``status == "complete"``
        results are ever stored."""
        if result.status != "complete":
            return
        info = result.cache_info or {}
        if info.get("source") != "skeleton":
            return
        self.service.store(db, request.cfq, request.defaulted, result, elapsed)

    def _respond(
        self,
        request: _Request,
        result: CFQResult,
        start: float,
        source: str,
        width: int = 1,
    ) -> Tuple[int, Dict[str, Any]]:
        elapsed = time.perf_counter() - start
        info = result.cache_info or {}
        serving: Dict[str, Any] = {
            "tenant": request.tenant,
            "source": info.get("source", "cold"),
            "path": source,
            "dedup": False,
            "coalesced_width": width,
            "query_fingerprint": request.query_fp,
            "result_key": request.key,
            "wall_seconds": round(elapsed, 6),
            "counters": result.counters.as_dict(),
        }
        if result.is_partial and result.interruption is not None:
            serving["interruption"] = result.interruption.as_dict()
        body: Dict[str, Any] = {
            "schema": SERVER_SCHEMA,
            "version": SERVER_VERSION,
            "serving": serving,
        }
        if result.is_partial:
            # Partials are honest but transient — never cached, so the
            # next identical request re-runs under its own budgets.
            body["answer"] = answer_document(result)
            return 200, body
        cached = self._docs.get(request.key)
        if cached is None:
            answer = answer_document(result)
            answer_json = json.dumps(answer)
            self._store_document(request, answer, answer_json)
        else:
            answer, answer_json = cached
        body["answer"] = answer
        body["_answer_json"] = answer_json
        return 200, body

    def _store_document(
        self, request: _Request, answer: Dict[str, Any], answer_json: str
    ) -> None:
        """Cache a rendered answer under its dataset version's tag —
        unless :meth:`apply_delta` has already superseded that version
        (and so invalidated its tag), which the state lock orders."""
        with self._state_lock:
            if request.db is not self._db:
                return
            self._docs.put(
                request.key,
                (answer, answer_json),
                len(answer_json),
                tag=dataset_fingerprint(request.db),
            )

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "status": "ok",
            "uptime_seconds": round(self.clock() - self.started_at, 3),
            "queue_depth": self.queue_depth,
            "dataset": dataset_fingerprint(self.db)[:16],
        }

    def stats(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "schema": SERVER_SCHEMA,
            "version": SERVER_VERSION,
            "queue_depth": self.queue_depth,
            "queue_limit": self.queue_limit,
            "open_coalesce_groups": self.coalescer.open_groups(),
            "doc_cache_entries": len(self._docs),
            "telemetry": self.service.telemetry.snapshot(self.service.stats),
        }


# ----------------------------------------------------------------------
# HTTP front-end (stdlib http.server + a bounded thread pool)
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Thin shim: JSON in/out around :class:`QueryServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Response = small header writes + one body write; without NODELAY
    # the Nagle/delayed-ACK interaction stalls every keep-alive request
    # ~40ms, which swamps a sub-millisecond warm serving.
    disable_nagle_algorithm = True

    def _send(self, status: int, body: Dict[str, Any]) -> None:
        raw_answer = body.get("_answer_json")
        if raw_answer is not None:
            # Splice the pre-serialized answer (cached by result key —
            # broad answers run to megabytes) into the envelope instead
            # of re-serializing it per request.  Read-only: the body
            # dict may be shared with concurrent flight joiners.
            rest = {
                k: v
                for k, v in body.items()
                if k not in ("answer", "_answer_json")
            }
            payload = (
                json.dumps(rest)[:-1] + ',"answer":' + raw_answer + "}"
            ).encode("utf-8")
        else:
            payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        core: QueryServer = self.server.core  # type: ignore[attr-defined]
        if self.path == "/healthz":
            self._send(*core.healthz())
        elif self.path == "/stats":
            self._send(*core.stats())
        else:
            self._send(
                404, error_body(404, "bad_request", f"no route {self.path}")
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        core: QueryServer = self.server.core  # type: ignore[attr-defined]
        if self.path != "/query":
            self._send(
                404, error_body(404, "bad_request", f"no route {self.path}")
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length) if length else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as exc:
            self._send(
                400, error_body(400, "bad_request", f"invalid JSON body: {exc}")
            )
            return
        self._send(*core.handle_query(payload))

    def log_message(self, format: str, *args: Any) -> None:
        # Request logging goes through the event journal, not stderr.
        return


class _PooledHTTPServer(HTTPServer):
    """``http.server`` with connections handled on a bounded
    :class:`ThreadPoolExecutor` instead of a thread per connection."""

    # 404s on unknown error-body codes aside, HTTP-level failures should
    # never kill the acceptor thread.
    allow_reuse_address = True

    def __init__(self, address, core: QueryServer, workers: int):
        super().__init__(address, _Handler)
        self.core = core
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        self._executor.submit(self._work, request, client_address)

    def _work(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.discard(request)
            self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener, end every open connection, and wait for
        the handler pool.

        A handler blocks reading its connection's next request for as
        long as the client keeps an idle keep-alive connection open, and
        interpreter exit joins pool threads — so without the socket
        shutdowns a single idle client would keep the process alive.
        """
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the handler closed it meanwhile
        self._executor.shutdown(wait=True)


class ServerHandle:
    """A running server: address, graceful shutdown, context manager."""

    def __init__(self, httpd: _PooledHTTPServer, thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread
        self.host, self.port = httpd.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._thread.join(timeout=10)
        self._httpd.server_close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def start_server(
    core: QueryServer,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 8,
) -> ServerHandle:
    """Bind, start the acceptor thread, and return a handle.

    ``port=0`` picks a free port (tests); ``workers`` bounds the
    HTTP worker pool — the serving-side queue bound is the core's
    ``queue_limit``.
    """
    httpd = _PooledHTTPServer((host, port), core, workers=workers)
    thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve-acceptor",
        daemon=True,
    )
    thread.start()
    return ServerHandle(httpd, thread)
