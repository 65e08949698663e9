"""Workload ``serve-hit``: document-cache hits through ``repro serve``.

A ``repro serve`` child is started through the CLI entry point (see
``serve_child.py``) with two HTTP workers.  This process is its one
client: it drives two persistent connections in closed loops, each
replaying two tenants' sessions over a working set of 32 distinct
queries.  An untimed warm-up asks each query once, in order, on one
connection, so every timed request is a document-cache hit: the request
path (HTTP, admission, parse, fingerprint, document cache, response
write) does all the work and the engine none.  32 queries fit in the
server's 64-entry result cache and 128-entry document cache.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracle
from measure import Outcome, best_p50_ms, median_ms, quantile_ms, ratio

#: Nominal seconds of one round (each tenant asks the working set once).
ROUND_SECONDS = 0.04
SETUP_REPEATS = 3
N_TRANSACTIONS = 1500
HTTP_WORKERS = 2
TENANTS = ("alice", "bob", "carol", "dave")
#: Each tenant gets its own bucket, sized so the closed loop is never
#: throttled (the server's default open profile caps all anonymous
#: traffic together at 1000 requests/s, which two connections exceed).
TENANT_PROFILE = {"rate": 1_000_000.0, "burst": 1_000_000.0}
READY_TIMEOUT = 60.0
STOP_WAITS = ((signal.SIGINT, 10.0), (signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0))

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (S type, T type) pairs priced cheaper -> dearer in the quickstart catalog.
_TYPE_PAIRS = (
    ("produce", "snacks"), ("snacks", "beers"), ("dairy", "frozen"),
    ("frozen", "beers"), ("dairy", "wine"), ("produce", "beers"),
    ("snacks", "wine"), ("beers", "wine"),
)
_FORMS = (
    ("max(S.Price) <= min(T.Price)", ("max_le_min", "Price")),
    ("sum(S.Price) <= sum(T.Price)", ("sum_le_sum", "Price")),
)
_MINSUPS = (0.02, 0.03)


def working_set() -> List[Tuple[str, Dict]]:
    """32 distinct queries: (text, oracle spec)."""
    queries = []
    for s_type, t_type in _TYPE_PAIRS:
        for constraint, form in _FORMS:
            for minsup in _MINSUPS:
                text = (
                    f"{{(S, T) | freq(S, {minsup!r}) & freq(T, {minsup!r}) & "
                    f"S.Type = {{{s_type}}} & T.Type = {{{t_type}}} & {constraint}}}"
                )
                spec = {
                    "minsup": {"S": minsup, "T": minsup},
                    "onevar": {
                        "S": [("typeset", "Type", "=", frozenset([s_type]))],
                        "T": [("typeset", "Type", "=", frozenset([t_type]))],
                    },
                    "twovar": form,
                }
                queries.append((text, spec))
    return queries


def schedules(seed: int, n_queries: int, rounds: int) -> List[List[Tuple[str, int]]]:
    """Per connection: (tenant, query index) requests.  Connection ``c``
    interleaves tenants ``c`` and ``c + 2``; every tenant asks each
    query once per round, in an order of its own drawn from the seed."""
    rng = np.random.RandomState(seed)
    per_tenant = {
        tenant: [int(i) for __ in range(rounds) for i in rng.permutation(n_queries)]
        for tenant in TENANTS
    }
    out = []
    for c in range(HTTP_WORKERS):
        mine = TENANTS[c::HTTP_WORKERS]
        out.append([
            (tenant, per_tenant[tenant][i])
            for i in range(rounds * n_queries)
            for tenant in mine
        ])
    return out


class ServerChild:
    """One ``repro serve`` child process and its pipes."""

    def __init__(self, workdir: str, seed: int, trace: bool):
        self.status_path = os.path.join(workdir, f"status-{time.monotonic_ns()}.json")
        tenants_path = os.path.join(workdir, "tenants.json")
        with open(tenants_path, "w", encoding="utf-8") as out:
            json.dump({"tenants": {name: TENANT_PROFILE for name in TENANTS}}, out)
        self._stderr = open(os.path.join(workdir, "server.stderr"), "ab")
        command = [
            sys.executable, os.path.join(HERE, "serve_child.py"),
            "--status-file", self.status_path,
        ] + (["--trace"] if trace else []) + [
            "--", "serve", "--port", "0",
            "--transactions", str(N_TRANSACTIONS), "--seed", str(seed),
            "--http-workers", str(HTTP_WORKERS), "--tenants", tenants_path,
        ]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )

    def await_ready(self) -> Tuple[str, float]:
        """The URL and in-child set-up time from the ready line."""
        deadline = time.monotonic() + READY_TIMEOUT
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buffered += chunk
                for line in buffered.split(b"\n")[:-1]:  # complete lines only
                    if line.startswith(b"{"):
                        document = json.loads(line)
                        return document["url"], document["setup_s"]
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"repro serve did not come up (exit {self.proc.poll()})")

    def stop(self) -> Optional[Dict]:
        """SIGINT, then SIGTERM, then SIGKILL, each with a bounded wait;
        returns the child's status file when it wrote one."""
        try:
            for sig, wait in STOP_WAITS:
                if self.proc.poll() is not None:
                    break
                self.proc.send_signal(sig)
                try:
                    self.proc.wait(timeout=wait)
                except subprocess.TimeoutExpired:
                    continue
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self._stderr.close()
            self.proc.wait()
        try:
            with open(self.status_path, encoding="utf-8") as status:
                return json.load(status)
        except (OSError, ValueError):
            return None


class Client:
    """One persistent HTTP/1.1 connection in a closed loop."""

    def __init__(self, url: str):
        host, port = url.rsplit("/", 1)[-1].split(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)

    def ask(self, body: bytes) -> Tuple[int, bytes, float]:
        start = time.perf_counter()
        self.conn.request("POST", "/query", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def close(self) -> None:
        # shutdown() also wakes a thread blocked reading this socket.
        if self.conn.sock is not None:
            try:
                self.conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.conn.close()


def _replay(client: Client, requests: List[Tuple[str, int]], bodies, sink: List, errors: List) -> None:
    """One connection's closed loop; a transport failure ends it and is
    reported, the requests left unanswered count as failed."""
    try:
        for tenant, index in requests:
            status, data, seconds = client.ask(bodies[tenant][index])
            sink.append((index, status, data, seconds))
    except (OSError, http.client.HTTPException) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")


def _bodies(queries) -> Dict[str, List[bytes]]:
    return {
        tenant: [json.dumps({"query": text, "tenant": tenant}).encode() for text, _ in queries]
        for tenant in TENANTS
    }


def run(seed: int, rounds: int, recorder=None) -> Outcome:
    queries = working_set()
    bodies = _bodies(queries)
    plan = schedules(seed, len(queries), rounds)
    outcome = Outcome()
    setups: List[float] = []
    children: List[ServerChild] = []
    clients: List[Client] = []
    workdir = tempfile.mkdtemp(prefix="serve-hit-", dir=HERE)
    # Interrupts and terminations unwind through the clean-up below.
    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, signal.default_int_handler),
        signal.SIGTERM: signal.signal(signal.SIGTERM, lambda *_: sys.exit(143)),
    }
    try:
        for repeat in range(SETUP_REPEATS):
            child = ServerChild(workdir, seed, trace=recorder is not None)
            children.append(child)
            url, child_setup = child.await_ready()
            first = Client(url)
            clients.append(first)
            start = time.perf_counter()
            for index in range(len(queries)):
                status, data, _ = first.ask(bodies[TENANTS[0]][index])
                if status != 200:
                    raise RuntimeError(f"warm-up query {index} failed: HTTP {status} {data[:200]!r}")
            setups.append(child_setup + time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                first.close()
                child.stop()
        clients.append(Client(url))
        print(f"serve-hit: replay started (server pid {child.proc.pid})", file=sys.stderr, flush=True)

        sinks: List[List] = [[], []]
        errors: List[str] = []
        other = threading.Thread(
            target=_replay, args=(clients[-1], plan[1], bodies, sinks[1], errors), daemon=True,
        )
        phase_start = time.perf_counter()
        other.start()
        _replay(clients[-2], plan[0], bodies, sinks[0], errors)
        other.join()
        phase_seconds = time.perf_counter() - phase_start
    finally:
        for client in clients:
            client.close()
        statuses = [child.stop() for child in children]
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    status = statuses[-1]
    if status is None:
        raise RuntimeError("repro serve wrote no status at shutdown")
    responses = sinks[0] + sinks[1]
    outcome.attempted = sum(len(p) for p in plan)
    # A connection that broke leaves the rest of its requests unanswered.
    outcome.failed += outcome.attempted - len(responses)
    outcome.errors.extend(f"replay: {error}" for error in errors)
    latencies = [seconds for _, _, _, seconds in responses]
    by_query: Dict[int, List[float]] = {}
    hits = 0
    transports: List[float] = []
    verified: Dict[Tuple[int, bytes], List[str]] = {}
    expected = _expected_answers(seed, queries)
    for index, status_code, data, seconds in responses:
        by_query.setdefault(index, []).append(seconds)
        if status_code != 200:
            outcome.record_error(f"query {index}", f"HTTP {status_code}")
            continue
        envelope, answer = _split(data)
        serving = envelope["serving"]
        hits += serving["source"] == "doc-cache"
        if "handle_seconds" in serving:
            transports.append(seconds - serving["handle_seconds"])
        key = (index, answer)
        if key not in verified:
            document = json.loads(answer)
            verified[key] = oracle.check(
                expected[index], document["frequent_valid"], document["pairs"]
            )
        outcome.record_check(f"query {index}", verified[key])

    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        "p50_ms": best_p50_ms(by_query),
        "peak_rss_mb": status["peak_rss_mb"],
    }
    outcome.per_layer = {
        "p99_ms": quantile_ms(latencies, 0.99),
        "ops_per_s": len(latencies) / phase_seconds,
    }
    if recorder is not None:
        ops = status["ops"][len(queries):]  # the warm-up came first
        outcome.per_layer.update({
            **recorder.medians_ms(ops),
            "server.transport_ms": median_ms(transports),
            "server.doc_cache_hits": hits,
            "server.requests": len(responses),
            "server.doc_cache_hit_ratio": ratio(hits, len(responses)),
        })
    return outcome


def _split(data: bytes) -> Tuple[Dict, bytes]:
    """A response's envelope, parsed, and its ``answer`` as raw JSON.

    The server appends the answer last, pre-serialized; every hit of one
    query carries the same bytes, so each distinct answer is parsed and
    checked once."""
    cut = data.rfind(b',"answer":')
    if cut < 0:
        body = json.loads(data)
        return body, json.dumps(body.get("answer")).encode()
    return json.loads(data[:cut] + b"}"), data[cut + len(b',"answer":'):-1]


def _expected_answers(seed: int, queries) -> List[oracle.Expected]:
    """The oracle's answers over the dataset ``repro serve --seed`` serves
    (regenerated here with the same generator and seed)."""
    from repro.datagen.workloads import quickstart_workload

    workload = quickstart_workload(n_transactions=N_TRANSACTIONS, seed=seed)
    transactions = [tuple(t) for t in workload.db.transactions]
    prices = workload.catalog.column("Price")
    types = workload.catalog.column("Type")
    items = tuple(sorted(prices))
    bitsets = oracle.Bitsets(transactions)
    enumerations = oracle.Enumerations(bitsets)
    return [
        oracle.answer(
            bitsets, {"S": items, "T": items}, spec["minsup"], spec["onevar"],
            spec["twovar"], prices, types, enumerate_sets=enumerations,
        )
        for _, spec in queries
    ]
