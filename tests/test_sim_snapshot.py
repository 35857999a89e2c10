"""Snapshot and restore semantics of the simulator."""

from repro.sim import SimSnapshot


class TestSnapshotRestore:
    def test_restore_rewinds_clock_and_events(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.run_all()
        snap = sim.snapshot()
        assert isinstance(snap, SimSnapshot)
        sim.schedule_at(5.0, lambda: fired.append("b"))
        sim.run_all()
        assert fired == ["a", "b"]
        assert sim.now == 5.0

        sim.restore(snap)
        assert sim.now == 1.0
        assert sim.pending_events == 0
        sim.run_all()
        assert fired == ["a", "b"]  # the restored timeline has no "b"

    def test_restore_preserves_pending_events(self, sim):
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("later"))
        snap = sim.snapshot()
        assert snap.pending_events == 1
        sim.run_all()
        assert fired == ["later"]

        sim.restore(snap)
        assert sim.pending_events == 1
        sim.run_all()
        assert fired == ["later", "later"]

    def test_snapshot_is_restorable_repeatedly(self, sim):
        counter = []
        sim.schedule_at(1.0, lambda: counter.append(sim.now))
        snap = sim.snapshot()
        for _ in range(3):
            sim.restore(snap)
            sim.run_all()
        assert counter == [1.0, 1.0, 1.0]

    def test_mutation_after_snapshot_does_not_leak_into_it(self, sim):
        """Copy-on-write: post-snapshot schedules/cancels stay private."""
        fired = []
        keeper = sim.schedule_at(3.0, lambda: fired.append("keeper"))
        snap = sim.snapshot()
        keeper.cancel()
        sim.schedule_at(1.0, lambda: fired.append("intruder"))
        sim.run_all()
        assert fired == ["intruder"]

        sim.restore(snap)
        sim.run_all()
        assert fired == ["intruder", "keeper"]

    def test_events_fired_restored(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run_all()
        snap = sim.snapshot()
        sim.schedule_at(2.0, lambda: None)
        sim.run_all()
        assert sim.events_fired == 2
        sim.restore(snap)
        assert sim.events_fired == 1


class TestHandlesAcrossRestore:
    """A handle cancels only its own event, in the current timeline."""

    def test_pre_snapshot_handle_cancels_in_restored_timeline(self, sim):
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("f"))
        sim.restore(sim.snapshot())
        handle.cancel()
        assert handle.cancelled
        assert sim.pending_events == 0
        sim.run_all()
        assert fired == []

    def test_cancel_before_restore_is_undone_by_it(self, sim):
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("f"))
        snap = sim.snapshot()
        handle.cancel()
        assert handle.cancelled
        sim.restore(snap)
        assert not handle.cancelled
        assert sim.pending_events == 1
        sim.run_all()
        assert fired == ["f"]

    def test_post_snapshot_handle_cannot_touch_the_restored_timeline(self, sim):
        fired = []
        snap = sim.snapshot()
        stale = sim.schedule_at(1.0, lambda: fired.append("stale"))
        sim.restore(snap)
        fresh = sim.schedule_at(1.0, lambda: fired.append("fresh"))
        assert fresh.seq != stale.seq  # seqs are never reused
        stale.cancel()
        assert not stale.cancelled
        assert not fresh.cancelled
        assert sim.pending_events == 1
        sim.run_all()
        assert fired == ["fresh"]

    def test_cancel_never_undercounts(self, sim):
        handles = [sim.schedule_at(float(i), lambda: None) for i in range(3)]
        snap = sim.snapshot()
        for _ in range(2):
            for handle in handles:
                handle.cancel()
            assert sim.pending_events == 0
            sim.restore(snap)
            assert sim.pending_events == 3
