"""Event-journal contract: sequence numbers, bounded window, rotation.

:class:`~repro.obs.events.EventJournal` promises monotonically
increasing sequence numbers across the journal's whole life (drops and
rotations included), a bounded in-memory window with an honest
``dropped`` counter, and size-based file rotation that never loses the
newest generation.
"""

import json

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    EventJournal,
    read_journal,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        self.now += 0.5
        return self.now


def test_sequence_numbers_are_monotonic_and_gapless():
    journal = EventJournal(clock=FakeClock())
    for __ in range(10):
        journal.record("result_hit", key="k")
    seqs = [event["seq"] for event in journal]
    assert seqs == list(range(1, 11))
    assert journal.snapshot()["seq"] == 10


def test_unknown_kind_is_rejected():
    journal = EventJournal()
    with pytest.raises(ValueError):
        journal.record("made_up_kind")
    assert len(journal) == 0


def test_window_drops_oldest_and_counts_them():
    journal = EventJournal(max_events=5, clock=FakeClock())
    for i in range(12):
        journal.record("result_miss", i=i)
    assert len(journal) == 5
    assert journal.dropped == 7
    # Window keeps the newest events; seq keeps counting through drops.
    assert [event["seq"] for event in journal] == [8, 9, 10, 11, 12]
    assert [event["i"] for event in journal.tail(2)] == [10, 11]


def test_clock_injection_and_field_payload():
    journal = EventJournal(clock=FakeClock())
    journal.record("delta_refresh", domain="abc", seconds=0.25)
    (event,) = list(journal)
    assert event["ts"] == pytest.approx(100.5)
    assert event["domain"] == "abc"
    assert event["seconds"] == 0.25
    assert event["kind"] == "delta_refresh"


def test_counts_tally_by_kind():
    journal = EventJournal()
    for kind in ("result_hit", "result_hit", "result_miss", "guard_trip"):
        journal.record(kind)
    assert journal.counts() == {
        "result_hit": 2, "result_miss": 1, "guard_trip": 1,
    }


def test_file_journal_appends_jsonl(tmp_path):
    path = tmp_path / "journal.jsonl"
    with EventJournal(path=str(path)) as journal:
        journal.record("batch_execute", queries=3)
        journal.record("service_clear")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["kind"] == "batch_execute" and first["queries"] == 3
    assert read_journal(str(path)) == [json.loads(l) for l in lines]


def test_rotation_shifts_generations_and_keeps_newest(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = EventJournal(
        path=str(path), max_bytes=600, max_files=3, clock=FakeClock()
    )
    for i in range(60):
        journal.record("result_hit", key=f"key-{i:04d}")
    journal.close()

    assert journal.rotations >= 2
    generations = sorted(p.name for p in tmp_path.iterdir())
    assert "journal.jsonl" in generations
    assert "journal.jsonl.1" in generations
    # Live file plus at most max_files rotated generations.
    assert len(generations) <= journal.max_files + 1

    # Generations hold disjoint, ordered seq ranges: oldest kept file
    # first, live file last (possibly empty right after a rotation).
    chains = [
        [e["seq"] for e in read_journal(str(path) + suffix)]
        for suffix in (".3", ".2", ".1", "")
        if (tmp_path / ("journal.jsonl" + suffix)).exists()
    ]
    flat = [seq for chain in chains for seq in chain]
    assert flat == sorted(flat)
    assert flat[-1] == 60  # the newest event is never lost to rotation


def test_snapshot_shape():
    journal = EventJournal(max_events=4)
    for __ in range(6):
        journal.record("skeleton_hit")
    snap = journal.snapshot()
    assert snap["seq"] == 6
    assert snap["dropped"] == 2
    assert snap["rotations"] == 0
    # counts() is window-scoped: the 2 dropped events are visible only
    # through seq/dropped, not the tallies.
    assert snap["counts"] == {"skeleton_hit": 4}
    assert len(snap["events"]) == 4


def test_event_kind_vocabulary_is_frozen():
    assert isinstance(EVENT_KINDS, frozenset)
    for kind in ("result_hit", "result_evict", "skeleton_store",
                 "delta_refresh", "guard_trip", "batch_execute"):
        assert kind in EVENT_KINDS
