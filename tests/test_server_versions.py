"""Dataset versions in the query server: hashed once, documents dropped.

Each churn step makes a new dataset version.  Its content digest is
computed once — by the ``append``/``delete`` that made it — and every
later fingerprint reads the cached value.  The rendered-document cache
and the parsed-request memo tag each entry with its version's
fingerprint, so ``apply_delta`` drops the superseded version's entries,
and an answer rendered, or a request parsed, for a version that was
superseded meanwhile is never stored.
"""

import sys
import threading

import pytest

import repro.db.digest
import repro.serve.server
from repro.datagen.workloads import quickstart_workload
from repro.db.transactions import TransactionDatabase
from repro.errors import ExecutionError
from repro.serve import QueryServer, QueryService

WORKLOAD = quickstart_workload(n_transactions=150)
SESSION = (
    "{(S, T) | S.Type = T.Type}",
    "{(S, T) | max(S.Price) <= min(T.Price)}",
    "{(S, T) | sum(S.Price) <= sum(T.Price)}",
    "{(S, T) | S.Type = {snacks} & T.Type = {beers}}",
)


MINSUP = 0.08


def _server(db):
    service = QueryService(telemetry=True)
    server = QueryServer(
        service, db, WORKLOAD.domains, window_seconds=0.0, default_minsup=MINSUP
    )
    return service, server


def _step(db, step):
    if step % 2 == 0:
        return db.append(WORKLOAD.db.transactions[step:step + 6])
    return db.delete(range(step, step + 5))


def _tags(cache):
    return {entry.tag for __, entry in cache.items()}


@pytest.fixture
def digest_calls(monkeypatch):
    """Count ``transactions_digest`` calls from every module that
    imported it by name."""
    calls = []
    original = repro.db.digest.transactions_digest

    def counting(transactions):
        calls.append(len(transactions))
        return original(transactions)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro")
            and getattr(module, "transactions_digest", None) is original
        ):
            monkeypatch.setattr(module, "transactions_digest", counting)
    return calls


def test_each_version_is_hashed_once(digest_calls):
    db = TransactionDatabase(WORKLOAD.db.transactions)
    service, server = _server(db)
    service.prepare(db, [WORKLOAD.cfq(minsup=MINSUP)])
    assert len(digest_calls) == 1  # the base version, on first use
    for step in range(4):
        new_db, delta = _step(db, step)
        server.apply_delta(new_db, delta)
        server.handle_query({"query": SESSION[0], "tenant": "t"})
        assert len(digest_calls) == 2 + step
        assert digest_calls[-1] == len(new_db)  # the new version, once
        assert delta.base_digest == db.digest
        db = new_db
    # The pairing check still refuses a delta handed the wrong database,
    # comparing digests the appends already computed.
    other_db, __ = db.append([(1, 2)])
    __, delta = db.append([(3, 4)])
    hashed = len(digest_calls)
    with pytest.raises(ExecutionError, match="does not match"):
        server.apply_delta(other_db, delta)
    assert len(digest_calls) == hashed
    assert server.db is db


def test_superseded_documents_are_dropped():
    db = TransactionDatabase(WORKLOAD.db.transactions)
    __, server = _server(db)
    for step in range(3):
        new_db, delta = _step(db, step)
        server.apply_delta(new_db, delta)
        db = new_db
        for text in SESSION:
            status, body = server.handle_query({"query": text, "tenant": "t"})
            assert status == 200, body
        assert server.stats()[1]["doc_cache_entries"] == len(SESSION)
        assert len(server._requests) == len(SESSION)
        assert _tags(server._requests) == {db.digest}


def test_answer_rendered_for_a_superseded_version_is_not_cached(monkeypatch):
    db = TransactionDatabase(WORKLOAD.db.transactions)
    __, server = _server(db)
    profile = server.tenants.resolve("t")
    request = server._parse({"query": SESSION[1], "tenant": "t"}, "t", profile)
    assert _tags(server._requests) == {db.digest}
    new_db, delta = db.append(WORKLOAD.db.transactions[:6])
    server.apply_delta(new_db, delta)
    assert len(server._requests) == 0
    status, body = server._execute(request)  # admitted before the swap
    assert status == 200 and body["answer"]["status"] == "complete"
    assert server.stats()[1]["doc_cache_entries"] == 0
    status, __ = server.handle_query({"query": SESSION[1], "tenant": "t"})
    assert status == 200
    assert server.stats()[1]["doc_cache_entries"] == 1
    assert _tags(server._requests) == {new_db.digest}

    # A request admitted on ``new_db`` whose parse finishes after the
    # next swap stores no memo entry for the version it was parsed on.
    parse = repro.serve.server.parse_cfq
    newer_db, newer_delta = new_db.delete(range(3))

    def parse_across_a_swap(*args, **kwargs):
        server.apply_delta(newer_db, newer_delta)
        return parse(*args, **kwargs)

    monkeypatch.setattr(repro.serve.server, "parse_cfq", parse_across_a_swap)
    request = server._parse({"query": SESSION[2], "tenant": "t"}, "t", profile)
    assert request.db is new_db
    assert len(server._requests) == 0


def test_documents_never_outlive_their_version_under_concurrent_churn():
    """Readers race the swap: whatever interleaving happens, every cached
    document belongs to the live version once the deltas stop."""
    db = TransactionDatabase(WORKLOAD.db.transactions)
    service, server = _server(db)
    service.prepare(db, [WORKLOAD.cfq(minsup=MINSUP)])
    done = threading.Event()
    statuses = []

    def reader(index):
        while not done.is_set() or len(statuses) < 40:
            text = SESSION[index % len(SESSION)]
            status, __ = server.handle_query({"query": text, "tenant": f"t{index}"})
            statuses.append(status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    try:
        for thread in threads:
            thread.start()
        for step in range(3):
            new_db, delta = _step(db, step)
            server.apply_delta(new_db, delta)
            db = new_db
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert set(statuses) <= {200, 429}  # 429: the shared rate limit
    assert _tags(server._docs) <= {db.digest}
    assert _tags(server._requests) <= {db.digest}
