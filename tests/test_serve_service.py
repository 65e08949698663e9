"""QueryService semantics: fingerprints, tiers, batches, fallbacks, CLI.

The differential suite (``test_serve_differential.py``) proves warm
answers bit-identical; this file pins the *mechanics* around them — what
is keyed on what, which tier answers which request, when the service
must fall back to a cold run, and how the CLI surfaces it all.
"""

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import quickstart_workload
from repro.db.catalog import ItemCatalog
from repro.db.domain import Domain
from repro.db.transactions import TransactionDatabase
from repro.errors import ExecutionError, RunInterrupted
from repro.mining.dovetail import DovetailEngine
from repro.serve import (
    QueryService,
    dataset_fingerprint,
    domain_fingerprint,
    options_fingerprint,
    query_fingerprint,
    result_key,
)
import repro.serve.service as service_module
from repro.cli import main


@pytest.fixture(scope="module")
def workload():
    return quickstart_workload(n_transactions=200)


def _options(**overrides):
    options = {"dovetail": True, "use_reduction": True, "use_jmax": True,
               "reduction_rounds": 1}
    options.update(overrides)
    return options


# ----------------------------------------------------------------------
# Fingerprints: everything answer-affecting is in the key
# ----------------------------------------------------------------------
def test_dataset_fingerprint_is_content_and_order_sensitive(workload):
    base = dataset_fingerprint(workload.db)
    transactions = list(workload.db.transactions)
    assert dataset_fingerprint(TransactionDatabase(transactions)) == base
    assert dataset_fingerprint(
        TransactionDatabase(transactions[1:])
    ) != base
    assert dataset_fingerprint(
        TransactionDatabase(list(reversed(transactions)))
    ) != base


def test_query_fingerprint_sees_minsup(workload):
    """``str(CFQ)`` omits support thresholds, so the fingerprint must add
    them explicitly — two queries differing only in minsup share their
    rendering but must never share a cache key."""
    loose = workload.cfq(minsup=0.02)
    tight = workload.cfq(minsup=0.05)
    assert str(loose) == str(tight)
    assert query_fingerprint(loose, workload.db) != query_fingerprint(
        tight, workload.db
    )


def test_domain_fingerprint_sees_catalog_edits(workload):
    """Editing one attribute value (a price) must change the domain
    fingerprint: cached lattice *supports* would survive the edit, but
    every constraint evaluated over the attribute would not."""
    base = domain_fingerprint(workload.domains["S"])
    types = dict(workload.catalog.column("Type"))
    prices = dict(workload.catalog.column("Price"))
    assert domain_fingerprint(
        Domain.items(ItemCatalog({"Type": types, "Price": prices}))
    ) == base
    prices[0] += 1.0
    edited = Domain.items(ItemCatalog({"Type": types, "Price": prices}))
    assert domain_fingerprint(edited) != base


def test_result_key_sees_engine_options(workload):
    cfq = workload.cfq()
    default = result_key(cfq, workload.db, _options())
    assert result_key(cfq, workload.db, _options(use_jmax=False)) != default
    assert result_key(cfq, workload.db, _options(reduction_rounds=2)) != default
    # Non-answer-affecting keys are ignored entirely.
    assert options_fingerprint(_options(backend="vertical")) == (
        options_fingerprint(_options())
    )


def test_differently_optioned_runs_never_cross_hit(workload):
    cfq = workload.cfq()
    service = QueryService()
    with_jmax = service.execute(workload.db, cfq)
    without = service.execute(workload.db, cfq, use_jmax=False)
    assert without.cache_info["source"] == "cold"  # distinct key
    warm = service.execute(workload.db, cfq)
    assert warm.cache_info["source"] == "result-cache"
    assert service.stats.stores == 2
    assert with_jmax.status == without.status == "complete"


def test_service_as_optimizer_cache_hook_shares_keys(workload):
    """``optimizer.execute(db, cache=service)`` and
    ``service.execute(db, cfq)`` must agree on the cache key (the service
    normalizes unspecified options to the optimizer defaults)."""
    cfq = workload.cfq()
    service = QueryService()
    cold = CFQOptimizer(cfq).execute(workload.db, cache=service)
    assert cold.cache_info["source"] == "cold"
    warm = service.execute(workload.db, cfq)
    assert warm.cache_info["source"] == "result-cache"


# ----------------------------------------------------------------------
# Tier selection
# ----------------------------------------------------------------------
def test_single_execute_never_builds_skeletons(workload):
    service = QueryService()
    service.execute(workload.db, workload.cfq())
    service.execute(workload.db, workload.cfq(minsup=0.05))
    assert service.stats.skeleton_builds == 0


def test_batch_builds_one_skeleton_per_domain_at_union_threshold(workload):
    """S and T share the item domain, so a mixed-threshold batch mines
    exactly one skeleton — at the weakest threshold in the batch."""
    service = QueryService()
    loose = workload.cfq(minsup=0.02)
    tight = workload.cfq(minsup=0.06)
    report = service.execute_batch(workload.db, [tight, loose])
    assert service.stats.skeleton_builds == 1
    assert [item.source for item in report.items] == ["skeleton", "skeleton"]
    (key,) = list(service._skeletons.keys())
    skeleton = service._skeletons.peek(key).value
    assert skeleton.min_count == workload.db.min_count(0.02)


def test_batch_reuses_skeletons_and_prefers_result_cache(workload):
    service = QueryService()
    cfq = workload.cfq()
    service.execute(workload.db, cfq)  # cold, stored in the result cache
    report = service.execute_batch(
        workload.db, [cfq, workload.cfq(minsup=0.05)]
    )
    assert [item.source for item in report.items] == [
        "result-cache", "skeleton"
    ]
    again = service.execute_batch(workload.db, [workload.cfq(minsup=0.08)])
    assert again.items[0].source == "skeleton"
    assert service.stats.skeleton_builds == 1  # built once, reused twice


def test_batch_rebuilds_when_a_weaker_threshold_arrives(workload):
    service = QueryService()
    service.execute_batch(workload.db, [workload.cfq(minsup=0.06)])
    assert service.stats.skeleton_builds == 1
    # A weaker threshold cannot be served by the tighter skeleton.
    service.execute_batch(workload.db, [workload.cfq(minsup=0.02)])
    assert service.stats.skeleton_builds == 2


def test_prepare_warms_the_skeleton_tier_for_single_executes(workload):
    service = QueryService()
    cfq = workload.cfq()
    assert service.prepare(workload.db, [cfq]) == 1
    assert service.stats.skeleton_builds == 1
    result = service.execute(workload.db, cfq)
    assert result.cache_info["source"] == "skeleton"


def test_single_execute_falls_back_cold_when_skeleton_too_tight(workload):
    service = QueryService()
    service.prepare(workload.db, [workload.cfq(minsup=0.06)])
    result = service.execute(workload.db, workload.cfq(minsup=0.02))
    assert result.cache_info["source"] == "cold"


@pytest.fixture
def project_calls(monkeypatch):
    """Every ``Domain.project`` call (one per transaction projected)."""
    calls = []
    original = Domain.project

    def counting(self, transaction):
        calls.append(transaction)
        return original(self, transaction)

    monkeypatch.setattr(Domain, "project", counting)
    return calls


def test_skeleton_served_runs_project_no_transactions(workload, project_calls):
    """Every pass of a skeleton-served run is a skeleton lookup, so the
    engine neither projects nor holds a transaction (a cold run on a
    named list backend projects every transaction once per variable; a
    default cold run counts against the database's bitmap index and
    projects none)."""
    service = QueryService()
    cfq = workload.cfq()
    service.prepare(workload.db, [cfq])
    project_calls.clear()
    single = service.execute(workload.db, cfq)
    batch = service.execute_batch(
        workload.db, [workload.cfq(minsup=0.05), workload.cfq(minsup=0.03)]
    )
    assert single.cache_info["source"] == "skeleton"
    assert [item.source for item in batch.items] == ["skeleton", "skeleton"]
    assert project_calls == []
    CFQOptimizer(cfq).execute(workload.db)
    assert project_calls == []
    CFQOptimizer(cfq).execute(workload.db, backend="hybrid")
    assert len(project_calls) == 2 * len(workload.db)


def test_skeleton_served_lattices_cannot_count(workload):
    service = QueryService()
    cfq = workload.cfq()
    service.prepare(workload.db, [cfq])
    oracle = service._existing_oracle(workload.db, cfq)
    assert oracle is not None
    engine = DovetailEngine(
        workload.db, CFQOptimizer(cfq).plan(workload.db), support_oracle=oracle
    )
    engine.run()
    for lattice in engine._lattices.values():
        with pytest.raises(ExecutionError, match="holds no transactions"):
            lattice.transactions


# ----------------------------------------------------------------------
# Fallback-to-cold triggers
# ----------------------------------------------------------------------
def test_interrupted_skeleton_build_falls_back_to_cold(workload, monkeypatch):
    """A guard trip during skeleton mining must not poison the tier: the
    domain is reported failed, nothing is cached, and every query of the
    batch completes via the cold path (and is stored normally)."""

    def exploding_build(*args, **kwargs):
        raise RunInterrupted("deadline tripped mid-skeleton")

    monkeypatch.setattr(service_module, "build_skeleton", exploding_build)
    service = QueryService()
    report = service.execute_batch(workload.db, [workload.cfq()])
    assert len(report.failed_domains) == 1
    (item,) = report.items
    assert item.source == "cold"
    assert item.result.status == "complete"
    assert service.stats.skeleton_builds == 0
    assert service.stats.stores == 1  # the cold fallback was cached


def test_bypass_options_skip_every_tier(workload, tmp_path):
    service = QueryService()
    cfq = workload.cfq()
    checkpointed = service.execute(
        workload.db, cfq, checkpoint_dir=str(tmp_path / "ckpt")
    )
    assert checkpointed.cache_info is None
    assert service.stats.stores == 0 and service.stats.misses == 0
    kept = service.execute(workload.db, cfq, keep_candidates=True)
    assert kept.cache_info is None
    assert service.stats.stores == 0


def test_batch_rejects_bypass_options(workload):
    service = QueryService()
    with pytest.raises(ValueError):
        service.execute_batch(workload.db, [workload.cfq()], resume=True)
    with pytest.raises(ValueError):
        service.execute_batch(
            workload.db, [workload.cfq()], keep_candidates=True
        )


def test_partial_results_are_never_stored(workload):
    from repro.runtime.guard import RunGuard

    service = QueryService()
    guard = RunGuard(max_candidates=1)
    partial = service.execute(workload.db, workload.cfq(), guard=guard)
    assert partial.status == "partial"
    assert service.stats.stores == 0
    # And the next un-guarded run is a plain cold run, not a hit.
    complete = service.execute(workload.db, workload.cfq())
    assert complete.cache_info["source"] == "cold"
    assert complete.status == "complete"


# ----------------------------------------------------------------------
# Invalidation and the disk tier
# ----------------------------------------------------------------------
def test_invalidate_drops_both_tiers_and_disk(workload, tmp_path):
    service = QueryService(cache_dir=str(tmp_path))
    cfq = workload.cfq()
    service.execute(workload.db, cfq)  # cold -> result tier + disk
    service.execute_batch(workload.db, [workload.cfq(minsup=0.05)])  # skeleton
    assert len(list(tmp_path.glob("*.json"))) >= 1
    removed = service.invalidate(workload.db)
    assert removed >= 2  # one result entry + one skeleton
    assert list(tmp_path.glob("*.json")) == []
    cold_again = service.execute(workload.db, cfq)
    assert cold_again.cache_info["source"] == "cold"
    assert service.stats.invalidations >= 1


def test_clear_keeps_disk_artifacts(workload, tmp_path):
    service = QueryService(cache_dir=str(tmp_path))
    cfq = workload.cfq()
    service.execute(workload.db, cfq)
    service.clear()
    warm = service.execute(workload.db, cfq)
    assert warm.cache_info["source"] == "result-cache"  # reloaded from disk


def test_invalidate_targets_one_dataset_only(workload):
    other_db = TransactionDatabase(list(workload.db.transactions)[1:])
    service = QueryService()
    cfq = workload.cfq()
    service.execute(workload.db, cfq)
    service.execute(other_db, cfq)
    service.invalidate(other_db)
    still_warm = service.execute(workload.db, cfq)
    assert still_warm.cache_info["source"] == "result-cache"
    cold = service.execute(other_db, cfq)
    assert cold.cache_info["source"] == "cold"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_query_cache_dir_warm_vs_cold(tmp_path, capsys):
    argv = [
        "query",
        "{(S, T) | S.Type = {snacks} & T.Type = {beers} "
        "& max(S.Price) <= min(T.Price)}",
        "--transactions", "200",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert "cache: miss (cold run stored)" in cold_out
    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    assert "cache: hit (result-cache, disk tier)" in warm_out
    # Identical answers modulo the cache line.
    strip = lambda text: [
        line for line in text.splitlines() if not line.startswith("cache:")
    ]
    assert strip(cold_out) == strip(warm_out)


def test_cli_query_cache_dir_rejects_checkpointing(tmp_path, capsys):
    code = main([
        "query", "{(S, T) | S.Type = T.Type}",
        "--transactions", "150",
        "--cache-dir", str(tmp_path / "cache"),
        "--checkpoint-dir", str(tmp_path / "ckpt"),
    ])
    assert code == 2
    assert "bypass the result cache" in capsys.readouterr().err


def test_cli_batch_shares_one_skeleton(capsys):
    code = main([
        "batch",
        "{(S, T) | S.Type = {snacks} & T.Type = {beers} "
        "& max(S.Price) <= min(T.Price)}",
        "{(S, T) | S.Type = {snacks} & T.Type = {beers}}",
        "--transactions", "200",
        "--minsup", "0.03",
        "--pairs", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "batch of 2 queries" in out
    assert "1 skeleton(s) mined" in out
    assert out.count("source skeleton") == 2
    assert "cache stats:" in out


def test_cli_batch_churn_verifies_cold_and_writes_delta_report(
    tmp_path, capsys
):
    report_path = tmp_path / "report.json"
    code = main([
        "batch", "{(S, T) | S.Type = T.Type}",
        "--transactions", "200",
        "--minsup", "0.05",
        "--churn", "append:8",
        "--churn", "delete:10",
        "--verify-cold",
        "--report-out", str(report_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "churn[1] append:8" in out
    assert "churn[2] delete:10" in out
    assert out.count("verify-cold:") == 2
    assert "skeleton(s) refreshed" in out

    import json

    doc = json.loads(report_path.read_text())
    from repro.obs.report import RUN_REPORT_VERSION

    assert doc["version"] == RUN_REPORT_VERSION
    steps = doc["delta"]["steps"]
    assert len(steps) == 2
    assert steps[0]["delta"]["added"] == 8
    assert steps[1]["delta"]["removed"] == 10
    assert steps[0]["skeletons_refreshed"] >= 1


def test_cli_batch_rejects_malformed_churn(capsys):
    for spec in ("append", "shuffle:3", "append:0", "delete:x"):
        code = main([
            "batch", "{(S, T) | S.Type = T.Type}",
            "--transactions", "100", "--churn", spec,
        ])
        assert code == 2, spec
        assert "--churn" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Disk sweeps: full-fingerprint matching and out-of-band removal
# ----------------------------------------------------------------------
def test_disk_sweep_never_matches_on_a_truncated_prefix(workload, tmp_path):
    """Regression: sweeps used to match ``dataset_fp[:16]`` — a filename
    sharing only those 16 characters belongs to a *different* dataset
    and must survive an invalidation of this one."""
    service = QueryService(cache_dir=str(tmp_path))
    cfq = workload.cfq()
    service.execute(workload.db, cfq)
    (artifact,) = tmp_path.glob("*.json")

    fp = dataset_fingerprint(workload.db)
    impostor = tmp_path / f"{fp[:16]}{'0' * (len(fp) - 16)}.deadbeef.json"
    impostor.write_text("{}")

    service.invalidate(workload.db)
    assert not artifact.exists()
    assert impostor.exists()


def test_invalidate_tolerates_cache_dir_removed_out_of_band(
    workload, tmp_path
):
    import shutil

    cache_dir = tmp_path / "cache"
    service = QueryService(cache_dir=str(cache_dir))
    cfq = workload.cfq()
    service.execute(workload.db, cfq)
    shutil.rmtree(cache_dir)
    # Regression: this raised FileNotFoundError from os.listdir.
    removed = service.invalidate(workload.db)
    assert removed >= 1  # the memory tiers still swept
    # And the next store recreates the directory instead of failing.
    service.execute(workload.db, cfq)
    assert len(list(cache_dir.glob("*.json"))) == 1


# ----------------------------------------------------------------------
# Skeleton byte accounting
# ----------------------------------------------------------------------
def test_skeleton_bytes_track_getsizeof_of_keys_values_and_slots(workload):
    """Regression: ``nbytes`` ignored the value ints and the dict's own
    hash-table slots, so the skeleton tier's ``max_bytes`` bound held
    several times its configured budget."""
    import sys

    from repro.serve.skeleton import _approx_bytes, build_skeleton

    domain = workload.domains["S"]
    skeleton = build_skeleton(workload.db, domain, min_count=10)
    assert skeleton.supports  # non-degenerate fixture

    def pinned(mapping):
        return sys.getsizeof(mapping) + sum(
            sys.getsizeof(k) + sys.getsizeof(v) for k, v in mapping.items()
        )

    assert _approx_bytes(skeleton.supports) == pinned(skeleton.supports)
    assert skeleton.nbytes == pinned(skeleton.supports)
    # The old formula (tuple cells only) undercounted by at least the
    # dict slots alone.
    assert skeleton.nbytes > sys.getsizeof(skeleton.supports)
