"""Self time in the per-layer timers, on a fake clock.

Run: ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_timed_calls():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)

    def leaf():
        clock.now += 2.0

    timed_leaf = recorder.wrap(leaf, "leaf")

    def outer():
        clock.now += 1.0
        timed_leaf()
        clock.now += 3.0
        timed_leaf()

    timed_outer = recorder.wrap(outer, "outer")
    recorder.begin()
    timed_outer()
    op = recorder.end()
    assert op == {"outer": 4.0, "leaf": 4.0}


def test_calls_outside_an_operation_are_not_recorded():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)
    recorder.wrap(lambda: None, "leaf")()
    assert recorder.ops == []


def test_medians_are_over_operations_where_the_layer_ran():
    recorder = layers.Recorder()
    recorder.ops = [
        {"db.append_ms": 0.002},
        {"core.pairs_ms": 0.010},
        {"db.append_ms": 0.004, "core.pairs_ms": 0.030},
        {"db.append_ms": 0.006},
    ]
    medians = recorder.medians_ms()
    assert medians["db.append_ms"] == 4.0
    assert medians["core.pairs_ms"] == 20.0
    assert medians["db.delete_ms"] == 0.0


def test_install_wraps_every_target_and_uninstalls():
    from repro.core.pairs import form_valid_pairs
    from repro.mining.lattice import ConstrainedLattice

    recorder = layers.Recorder()
    original_absorb = ConstrainedLattice.absorb
    uninstall = layers.install(recorder)
    try:
        import repro.core.optimizer as optimizer

        assert optimizer.form_valid_pairs is not form_valid_pairs
        assert ConstrainedLattice.absorb is not original_absorb
    finally:
        uninstall()
    assert optimizer.form_valid_pairs is form_valid_pairs
    assert ConstrainedLattice.absorb is original_absorb
