"""The command-line interface."""

import pytest

from repro.cli import main


def test_query_command(capsys):
    code = main(
        [
            "query",
            "{(S, T) | S.Type = {snacks} & T.Type = {beers} "
            "& max(S.Price) <= min(T.Price)}",
            "--transactions", "300",
            "--pairs", "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "valid pairs" in out
    assert "frequent valid S-sets" in out


def test_query_with_baseline_and_explain(capsys):
    code = main(
        [
            "query",
            "{(S, T) | max(S.Price) <= min(T.Price)}",
            "--transactions", "250",
            "--baseline",
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "speedup over Apriori+" in out
    assert "operation counts" in out


def test_single_variable_query(capsys):
    code = main(
        ["query", "{(S) | S.Type = {snacks}}", "--transactions", "200"]
    )
    assert code == 0
    assert "frequent valid S-sets" in capsys.readouterr().out


def test_classify_onevar(capsys):
    assert main(["classify", "min(S.Price) <= 10"]) == 0
    out = capsys.readouterr().out
    assert "1-variable" in out and "succinct:      True" in out


def test_classify_twovar(capsys):
    assert main(["classify", "max(S.A) <= min(T.B)"]) == 0
    out = capsys.readouterr().out
    assert "quasi-succinct: True" in out
    assert "Figures 2-3" in out


def test_classify_syntax_error_exit_code(capsys):
    assert main(["classify", "max(S.A <= 5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_experiments_smoke_single_family(capsys):
    assert main(["experiments", "--scale", "smoke", "--only", "ccc"]) == 0
    out = capsys.readouterr().out
    assert "ccc-optimality audit" in out


def test_bad_query_exit_code(capsys):
    assert main(["query", "not a query"]) == 2


QUERY = "{(S, T) | max(S.Price) <= min(T.Price)}"


@pytest.mark.parametrize("backend", ["hybrid", "hashtree", "vertical"])
def test_query_backend_flag(capsys, backend):
    code = main(
        ["query", QUERY, "--transactions", "200", "--backend", backend]
    )
    assert code == 0
    assert "valid pairs" in capsys.readouterr().out


def test_query_parallel_backend_with_workers(capsys):
    code = main(
        [
            "query", QUERY,
            "--transactions", "200",
            "--backend", "parallel",
            "--workers", "2",
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "valid pairs" in out
    assert "parallel counting:" in out


def test_query_parallel_matches_hybrid(capsys):
    argv = ["query", QUERY, "--transactions", "200", "--pairs", "5"]
    assert main(argv + ["--backend", "hybrid"]) == 0
    hybrid_out = capsys.readouterr().out
    assert main(argv + ["--backend", "parallel", "--workers", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == hybrid_out


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_query_invalid_worker_count(capsys, workers):
    code = main(
        ["query", QUERY, "--backend", "parallel", "--workers", workers]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "workers must be >= 1" in err


def test_query_workers_require_parallel_backend(capsys):
    code = main(["query", QUERY, "--workers", "2"])
    assert code == 2
    assert "--backend parallel" in capsys.readouterr().err


def test_query_unknown_backend_clean_error(capsys):
    """Unknown backends exit 2 with an 'error:' line, not a traceback."""
    code = main(["query", QUERY, "--backend", "quantum"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "unknown counting backend" in err


@pytest.mark.parametrize("spec", ["parallel:", "parallel:abc"])
def test_query_malformed_parallel_spec_exit_code(capsys, spec):
    code = main(["query", QUERY, "--backend", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "invalid worker count" in err


def test_query_parallel_spec_zero_workers_exit_code(capsys):
    code = main(["query", QUERY, "--backend", "parallel:0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "workers must be >= 1" in err


def test_query_parallel_spec_runs(capsys):
    code = main(
        ["query", QUERY, "--transactions", "200", "--backend", "parallel:2"]
    )
    assert code == 0
    assert "valid pairs" in capsys.readouterr().out


def test_query_explain_reports_pool_lifecycle(capsys):
    code = main(
        [
            "query", QUERY,
            "--transactions", "200",
            "--backend", "parallel",
            "--workers", "2",
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pool fork(s)" in out


def test_query_trace_out_writes_valid_report(capsys, tmp_path):
    import json

    from repro.obs.report import RunReport

    path = tmp_path / "run.json"
    code = main(
        [
            "query", "{(S, T) | S.Type = T.Type}",
            "--transactions", "200",
            "--trace-out", str(path),
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "run report written to" in out
    assert "per-level pruning:" in out
    document = json.loads(path.read_text())
    RunReport.validate(document)
    # At least one span per mining level per variable.
    def spans(node):
        yield node
        for child in node.get("children", []):
            yield from spans(child)
    all_spans = [s for root in document["trace"]["spans"] for s in spans(root)]
    level_spans = [s for s in all_spans if s["name"] == "level"]
    assert len(level_spans) >= 2
    assert {"candidates_in", "frequent_out", "pruned"} <= set(
        level_spans[0]["attributes"]
    )
    assert document["pruning"]["S"]["1"]["counted"] > 0
    assert document["op_counters"]["sets_counted"] > 0


def test_query_profile_embeds_hotspots(capsys, tmp_path):
    import json

    path = tmp_path / "run.json"
    code = main(
        [
            "query", QUERY,
            "--transactions", "200",
            "--profile",
            "--trace-out", str(path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "top hotspots" in out
    document = json.loads(path.read_text())
    assert document["profile"]["engine"] == "cProfile"
    assert len(document["profile"]["hotspots"]) > 0


def test_query_log_level_flag(capsys):
    import logging

    from repro.obs import logs as obs_logs

    try:
        code = main(
            [
                "query", QUERY,
                "--transactions", "200",
                "--log-level", "debug",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Logging is wired to stderr; the dovetail engine logs its run config.
        assert "repro.mining.dovetail" in captured.err
    finally:
        # Detach the handler (it holds this test's captured stderr) so
        # later tests don't log into a torn-down stream.
        root = logging.getLogger(obs_logs.ROOT_LOGGER_NAME)
        if obs_logs._configured_handler is not None:
            root.removeHandler(obs_logs._configured_handler)
            obs_logs._configured_handler = None
        root.setLevel(logging.NOTSET)


def test_experiments_report_dir(capsys, tmp_path):
    import json

    from repro.obs.report import RunReport

    report_dir = tmp_path / "reports"
    code = main(
        [
            "experiments", "--scale", "smoke", "--only", "jmax",
            "--report-dir", str(report_dir),
        ]
    )
    assert code == 0
    assert "run reports written under" in capsys.readouterr().out
    written = sorted(report_dir.glob("*.json"))
    assert written
    for path in written:
        RunReport.validate(json.loads(path.read_text()))


# ----------------------------------------------------------------------
# Telemetry surfacing: --telemetry-out and the stats subcommand
# ----------------------------------------------------------------------
QUERY_2VAR = "{(S, T) | S.Type = T.Type & count(S) >= 2}"


def test_query_telemetry_out_requires_cache_dir(capsys, tmp_path):
    code = main(
        [
            "query", QUERY_2VAR,
            "--transactions", "200",
            "--telemetry-out", str(tmp_path / "telemetry.json"),
        ]
    )
    assert code == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_stats_on_telemetry_snapshot(capsys, tmp_path):
    import json

    telemetry_path = str(tmp_path / "telemetry.json")
    args = [
        "query", QUERY_2VAR,
        "--transactions", "200",
        "--cache-dir", str(tmp_path / "cache"),
        "--telemetry-out", telemetry_path,
    ]
    assert main(args) == 0
    assert main(args) == 0  # warm run overwrites the snapshot
    capsys.readouterr()

    with open(telemetry_path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["schema"] == "repro.serve.telemetry"
    # The second process served from the disk tier.
    assert "warm-disk" in document["outcomes"]

    assert main(["stats", telemetry_path]) == 0
    out = capsys.readouterr().out
    assert "serving telemetry" in out
    assert "warm-disk" in out
    assert "journal: seq" in out

    assert main(["stats", telemetry_path, "--format", "prometheus"]) == 0
    prom = capsys.readouterr().out
    from repro.obs.export import lint_prometheus

    assert lint_prometheus(prom) == []
    assert "repro_serves_total" in prom

    # Telemetry snapshots carry no span tree: chrome-trace must refuse.
    assert main(
        ["stats", telemetry_path, "--format", "chrome-trace"]
    ) == 2
    assert "chrome-trace" in capsys.readouterr().err


def test_stats_on_run_report_with_chrome_trace(capsys, tmp_path):
    import json

    report_path = str(tmp_path / "report.json")
    code = main(
        [
            "query", QUERY_2VAR,
            "--transactions", "200",
            "--trace-out", report_path,
        ]
    )
    assert code == 0
    capsys.readouterr()

    assert main(["stats", report_path]) == 0
    out = capsys.readouterr().out
    assert "run report v" in out
    assert "frequent valid S-sets" in out

    trace_path = str(tmp_path / "trace.json")
    assert main(
        ["stats", report_path, "--format", "chrome-trace",
         "--out", trace_path]
    ) == 0
    from repro.obs.export import validate_chrome_trace

    with open(trace_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert validate_chrome_trace(doc) == []
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_stats_rejects_unrecognized_files(capsys, tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "something.else"}')
    assert main(["stats", str(path)]) == 2
    assert "unrecognized schema" in capsys.readouterr().err

    missing = str(tmp_path / "missing.json")
    assert main(["stats", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_batch_journal_out_writes_jsonl(capsys, tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    code = main(
        [
            "batch", QUERY_2VAR,
            "--transactions", "200",
            "--journal-out", journal_path,
        ]
    )
    assert code == 0
    assert "event journal written" in capsys.readouterr().out
    from repro.obs.events import read_journal

    events = read_journal(journal_path)
    assert events
    kinds = {event["kind"] for event in events}
    assert "batch_execute" in kinds
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs)


def test_serve_core_gives_each_execution_its_own_backend(monkeypatch):
    """The core `repro serve` and `repro replay` build hands the server a
    backend spec, so k distinct cold queries leave no backend holding
    more than one query's counting passes (a shared one would hold all
    of them, and its caches would be mutated by every handler thread)."""
    from repro.cli import _build_server
    from repro.mining.bitmap import BitmapBackend

    passes = []  # (query index, backend) per counting pass
    current = [None]
    real_count = BitmapBackend.count

    def count(self, *args, **kwargs):
        passes.append((current[0], self))
        return real_count(self, *args, **kwargs)

    monkeypatch.setattr(BitmapBackend, "count", count)
    _, core = _build_server(transactions=300, seed=7, window_seconds=0.0)
    minsups = (0.02, 0.03, 0.04, 0.05)
    for index, minsup in enumerate(minsups):
        current[0] = index
        status, body = core.handle_query(
            {"query": QUERY_2VAR, "tenant": "t", "minsup": minsup}
        )
        assert status == 200, body
        assert body["serving"]["source"] == "cold", body["serving"]

    queries = {}
    for index, backend in passes:
        queries.setdefault(id(backend), (backend, set()))[1].add(index)
    assert {index for index, _ in passes} == set(range(len(minsups)))
    for backend, served in queries.values():
        assert len(served) == 1
        assert len(backend.stats.levels) <= sum(
            1 for _, other in passes if other is backend
        )


def test_serve_rejects_an_unknown_backend_at_start_up(capsys, monkeypatch):
    import repro.serve.server as server_module

    def start_server(*args, **kwargs):
        raise AssertionError("the server started with an unknown backend")

    monkeypatch.setattr(server_module, "start_server", start_server)
    assert main(["serve", "--transactions", "50", "--backend", "quantum"]) == 2
    assert "unknown counting backend" in capsys.readouterr().err
