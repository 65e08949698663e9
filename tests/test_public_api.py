"""The package's public surface: everything advertised in __all__ works
and carries documentation."""

import repro


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_public_callables_have_docstrings():
    import inspect

    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name} lacks a docstring"


def test_module_docstrings_everywhere():
    import importlib
    import pkgutil

    package = repro
    missing = []
    for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        if not module.__doc__:
            missing.append(info.name)
    assert missing == []


def test_readme_quickstart_executes():
    from repro import CFQ, Domain, ItemCatalog, TransactionDatabase, mine_cfq

    catalog = ItemCatalog(
        {
            "Price": {1: 30, 2: 55, 3: 120, 4: 180},
            "Type": {1: "snacks", 2: "snacks", 3: "beers", 4: "beers"},
        }
    )
    db = TransactionDatabase([(1, 3), (1, 2, 3), (2, 4), (1, 3, 4), (1, 2)])
    item = Domain.items(catalog)
    cfq = CFQ(
        domains={"S": item, "T": item},
        minsup=0.2,
        constraints=[
            "S.Type = {snacks}",
            "T.Type = {beers}",
            "max(S.Price) <= min(T.Price)",
        ],
    )
    result = mine_cfq(db, cfq)
    pairs = result.pairs()
    assert pairs
    for s0, t0 in pairs:
        assert max(catalog.project(s0, "Price")) <= min(
            catalog.project(t0, "Price")
        )
    assert "operation counts" in result.explain()


def test_disabled_defaults_are_the_real_classes_switched_off():
    """Each disabled default is an instance of the class it stands in
    for, switched off through its ``enabled`` flag, so it cannot drift
    from that class's API; a run through the defaults leaves every
    shared singleton as it was."""
    from repro.core.optimizer import CFQOptimizer
    from repro.datagen.workloads import quickstart_workload
    from repro.obs import (
        NULL_METRICS,
        NULL_TRACER,
        MetricsRegistry,
        Tracer,
        render_prometheus,
    )
    from repro.runtime import NULL_GUARD, RunGuard
    from repro.serve import NULL_TELEMETRY, ServiceTelemetry

    assert isinstance(NULL_TRACER, Tracer)
    assert isinstance(NULL_METRICS, MetricsRegistry)
    assert isinstance(NULL_GUARD, RunGuard)
    assert isinstance(NULL_TELEMETRY, ServiceTelemetry)
    for disabled in (NULL_TRACER, NULL_METRICS, NULL_GUARD, NULL_TELEMETRY):
        assert disabled.enabled is False
    for live in (Tracer(), MetricsRegistry(), RunGuard(), ServiceTelemetry()):
        assert live.enabled is True
    assert render_prometheus(NULL_TRACER.metrics) == ""
    assert NULL_TELEMETRY.to_prometheus() == ""

    workload = quickstart_workload(n_transactions=120)
    CFQOptimizer(workload.cfq()).execute(workload.db)
    assert NULL_TRACER.to_dict() == {"spans": []}
    assert NULL_METRICS.as_dict() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }
    assert not NULL_GUARD.started
    assert NULL_GUARD.levels_completed == {}
    assert NULL_GUARD.telemetry() == {}
