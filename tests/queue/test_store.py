"""The on-disk lease protocol: claims, fencing, reclaim, quarantine.

Every test drives :class:`~repro.queue.store.QueueStore` with an
explicit ``now`` — no sleeps, no wall-clock races; the chaos tests in
``test_chaos.py`` cover the real-time multi-process behaviour.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.errors import ConfigError
from repro.parallel import CellSpec
from repro.queue import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    QueueStore,
)

T0 = 1_000.0


class TestCreate:
    def test_layout_and_manifest(self, store, tiny_cells):
        assert store.order == ["tiny:2", "tiny:4"]
        assert store.counts().pending == 2
        for sub in ("pending", "leased", "done", "failed",
                    "quarantined", "tmp", "workers", "chaos"):
            assert (store.root / sub).is_dir()
        # a second store attaches to the same manifest
        reattached = QueueStore(store.root)
        assert reattached.order == store.order
        assert reattached.lease_ttl_s == store.lease_ttl_s
        assert reattached.cells["tiny:4"].n_threads == 4

    def test_create_twice_rejected(self, store, tiny_cells, policy):
        with pytest.raises(ConfigError, match="already exists"):
            QueueStore.create(store.root, tiny_cells, policy)

    def test_duplicate_keys_rejected(self, tmp_path, tiny_cells, policy):
        with pytest.raises(ConfigError, match="duplicate"):
            QueueStore.create(
                tmp_path / "q", tiny_cells + tiny_cells[:1], policy
            )

    def test_bad_knobs_rejected(self, tmp_path, tiny_cells, policy):
        with pytest.raises(ConfigError, match="TTL"):
            QueueStore.create(tmp_path / "a", tiny_cells, policy,
                              lease_ttl_s=0.0)
        with pytest.raises(ConfigError, match="poison_after"):
            QueueStore.create(tmp_path / "b", tiny_cells, policy,
                              poison_after=0)

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf")])
    def test_non_finite_ttl_rejected(self, tmp_path, tiny_cells, policy, ttl):
        """A NaN deadline never expires and a NaN join timeout kills the
        lease renewer, so either would hang the sweep."""
        with pytest.raises(ConfigError) as exc:
            QueueStore.create(tmp_path / "q", tiny_cells, policy,
                              lease_ttl_s=ttl)
        assert exc.value.field == "lease_ttl_s"
        assert not (tmp_path / "q").exists()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no queue manifest"):
            QueueStore(tmp_path / "nowhere")

    def test_version_mismatch_rejected(self, store):
        manifest = json.loads((store.root / "queue.json").read_text())
        manifest["version"] = 99
        (store.root / "queue.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="version"):
            QueueStore(store.root)


class TestClaims:
    def test_claim_is_single_winner(self, store):
        a = store.claim("wa", now=T0)
        b = store.claim("wb", now=T0)
        assert a.key == "tiny:2" and b.key == "tiny:4"
        assert store.claim("wc", now=T0) is None
        assert store.counts().leased == 2

    def test_lease_carries_the_cell(self, store):
        lease = store.claim("wa", now=T0)
        assert lease.cell.spec.name == "tiny"
        assert lease.deadline == T0 + store.lease_ttl_s
        assert lease.token == 1

    def test_not_before_skips_backed_off_cells(self, store):
        lease = store.claim("wa", now=T0)
        assert store.release(lease, delay_s=5.0, now=T0)
        # tiny:2 is backed off until T0+5: claims pick tiny:4 instead
        assert store.claim("wb", now=T0 + 1).key == "tiny:4"
        assert store.claim("wc", now=T0 + 1) is None
        assert store.claim("wc", now=T0 + 6).key == "tiny:2"

    def test_corrupt_pending_rebuilt_from_manifest(self, store):
        (store.root / PENDING / "tiny@2.json").write_text("{garbage")
        lease = store.claim("wa", now=T0)
        assert lease.key == "tiny:2"
        assert lease.expiries == 0

    def test_duplicate_pending_cannot_shadow_a_live_lease(self, store):
        lease = store.claim("wa", now=T0)
        # simulate the aftermath of a repaired-too-eagerly orphan: a
        # pending file reappears for a cell that is already leased
        (store.root / PENDING / "tiny@2.json").write_text(json.dumps(
            {"key": "tiny:2", "expiries": 0, "lease_seq": 0,
             "not_before": 0.0}
        ))
        # the duplicate is dropped (link into leased/ refuses to
        # clobber); the claim moves on to the next cell
        other = store.claim("wb", now=T0)
        assert other.key == "tiny:4"
        assert store.state_of("tiny:2") == LEASED
        # the original owner is unharmed
        assert store.renew(lease, now=T0 + 1)


class TestClaimGroups:
    """A claim keeps a benchmark's cells on the worker that holds its
    single-threaded reference: it passes over a cell whose group
    (spec, scale, machine) already has a leased cell."""

    @pytest.fixture
    def two_benchmarks(self, tmp_path, tiny_spec, policy):
        other = dataclasses.replace(tiny_spec, name="other")
        cells = [
            CellSpec(spec=spec, n_threads=n)
            for spec in (tiny_spec, other) for n in (2, 4)
        ]
        return QueueStore.create(tmp_path / "q", cells, policy)

    def test_claims_keep_a_group_together(self, two_benchmarks):
        store = two_benchmarks
        a = store.claim("wa", now=T0)
        assert a.key == "tiny:2"
        # tiny:4 comes first in the manifest, but tiny's group is busy
        b = store.claim("wb", now=T0)
        assert b.key == "other:2"
        assert store.complete(a, {"status": "ok", "attempts": 1})
        # the worker that measured tiny's Ts takes tiny's next cell
        assert store.claim("wa", now=T0).key == "tiny:4"

    def test_busy_groups_still_claimable_when_nothing_else_is(
        self, two_benchmarks
    ):
        store = two_benchmarks
        assert store.claim("wa", now=T0).key == "tiny:2"
        assert store.claim("wb", now=T0).key == "other:2"
        # only cells of busy groups are pending: claims still succeed
        assert store.claim("wc", now=T0).key == "tiny:4"
        assert store.claim("wd", now=T0).key == "other:4"
        assert store.claim("we", now=T0) is None

    def test_a_scale_is_a_group_of_its_own(
        self, tmp_path, tiny_spec, policy
    ):
        cells = [
            CellSpec(spec=tiny_spec, n_threads=2, scale=1.0),
            CellSpec(spec=tiny_spec, n_threads=4, scale=1.0),
            CellSpec(spec=tiny_spec, n_threads=8, scale=2.0),
        ]
        store = QueueStore.create(tmp_path / "q", cells, policy)
        assert store.claim("wa", now=T0).key == "tiny:2"
        # another scale needs its own reference run: nothing to wait for
        assert store.claim("wb", now=T0).key == "tiny:8"


class TestFencing:
    def test_renew_extends_the_deadline(self, store):
        lease = store.claim("wa", now=T0)
        assert store.renew(lease, now=T0 + 4)
        assert lease.deadline == T0 + 4 + store.lease_ttl_s

    def test_stale_lease_cannot_renew_or_complete(self, store):
        stale = store.claim("wa", now=T0)
        [event] = store.reclaim_expired(now=T0 + 11)
        assert event.key == "tiny:2" and not event.quarantined
        fresh = store.claim("wb", now=T0 + 100)
        assert fresh.key == "tiny:2" and fresh.token == 2
        # the zombie's token is fenced out everywhere
        assert not store.renew(stale, now=T0 + 101)
        assert not store.complete(stale, {"status": "ok", "attempts": 1})
        assert not store.release(stale)
        # and the rightful owner is untouched by those attempts
        assert store.renew(fresh, now=T0 + 101)
        assert store.complete(fresh, {"status": "ok", "attempts": 1})
        assert store.state_of("tiny:2") == DONE

    def test_complete_routes_by_status(self, store):
        a = store.claim("wa", now=T0)
        b = store.claim("wb", now=T0)
        assert store.complete(a, {"status": "ok", "attempts": 1})
        assert store.complete(b, {"status": "failed", "attempts": 2,
                                  "error": "boom", "error_type": "X"})
        assert store.state_of("tiny:2") == DONE
        assert store.state_of("tiny:4") == FAILED
        assert store.all_terminal()
        assert store.result("tiny:4")["error"] == "boom"

    def test_complete_rejects_bad_status(self, store):
        lease = store.claim("wa", now=T0)
        with pytest.raises(ValueError, match="status"):
            store.complete(lease, {"status": "quarantined"})


class TestReclaimer:
    def test_live_leases_are_left_alone(self, store):
        store.claim("wa", now=T0)
        assert store.reclaim_expired(now=T0 + 5) == []
        assert store.state_of("tiny:2") == LEASED

    def test_expired_lease_requeues_with_backoff(self, store, policy):
        store.claim("wa", now=T0)
        [event] = store.reclaim_expired(now=T0 + 11)
        assert (event.key, event.worker, event.expiries) == ("tiny:2", "wa", 1)
        assert event.delay_s == policy.backoff_delay(2, "tiny:2") == 1.0
        record = json.loads(
            (store.root / PENDING / "tiny@2.json").read_text()
        )
        assert record["expiries"] == 1
        assert record["not_before"] == T0 + 11 + 1.0

    def test_third_expiry_quarantines(self, store):
        now = T0
        for expiry in range(1, 4):
            lease = store.claim("wa", now=now + 1000)
            assert lease.key == "tiny:2"
            [event] = store.reclaim_expired(now=now + 2000)
            assert event.expiries == expiry
            now += 2000
        assert event.quarantined
        assert store.state_of("tiny:2") == QUARANTINED
        record = store.result("tiny:2")
        assert record["status"] == QUARANTINED
        assert record["expiries"] == 3
        assert record["last_worker"] == "wa"
        assert record["postmortem"] is None  # no checkpoint_dir armed
        # quarantined cells never return to circulation
        assert store.claim("wb", now=now + 5000).key == "tiny:4"

    def test_corrupt_lease_is_reclaimed(self, store):
        store.claim("wa", now=T0)
        (store.root / LEASED / "tiny@2.json").write_text("not json")
        [event] = store.reclaim_expired(now=T0 + 1)
        assert event.corrupt and event.key == "tiny:2"
        assert store.state_of("tiny:2") == PENDING

    def test_orphan_needs_two_sightings(self, store):
        store.claim("wa", now=T0)
        (store.root / LEASED / "tiny@2.json").unlink()
        # first scan: noted, not repaired (could be mid-transition)
        assert store.reclaim_expired(now=T0 + 1) == []
        assert store.state_of("tiny:2") is None
        # a scan one TTL after the first sighting: rebuilt from the
        # manifest
        [event] = store.reclaim_expired(now=T0 + 1 + store.lease_ttl_s)
        assert event.corrupt
        assert store.state_of("tiny:2") == PENDING

    def test_cell_mid_transition_is_not_rebuilt(self, store):
        """A worker descheduled between moving a cell out of its state
        and linking it into the next one leaves it absent across scans;
        rebuilding it then would run the cell twice."""
        taken = store._take(PENDING, "tiny:2")
        assert taken is not None
        assert store.reclaim_expired(now=T0) == []
        assert store.reclaim_expired(now=T0 + 0.2) == []
        assert store.state_of("tiny:2") is None
        # missing for a whole TTL: the transition crashed
        [event] = store.reclaim_expired(now=T0 + store.lease_ttl_s + 1)
        assert event.key == "tiny:2" and event.corrupt
        assert store.state_of("tiny:2") == PENDING

    def test_dead_workers_leases_expire_at_once(self, store):
        """The driver saw worker ``wa`` die: its lease expires now,
        through the ordinary expiry path, while ``wb``'s live lease is
        left alone."""
        store.claim("wa", now=T0)
        store.claim("wb", now=T0)
        [event] = store.reclaim_expired(now=T0 + 1, worker="wa")
        assert (event.key, event.worker, event.expiries) == ("tiny:2", "wa", 1)
        assert store.state_of("tiny:2") == PENDING
        assert store.state_of("tiny:4") == LEASED
        record = store.read(PENDING, "tiny:2")
        assert record["reclaims"] == [
            {"worker": "wa", "delay_s": event.delay_s}
        ]

    def test_dead_workers_lease_mid_renewal_expires_at_once(self, store):
        """Worker ``wa`` died while its renewer had the lease file out
        in tmp/: the lease goes back and expires with the worker's
        other leases, instead of waiting a TTL for orphan repair."""
        store.claim("wa", now=T0)
        store.claim("wb", now=T0)
        store._take(LEASED, "tiny:2")  # the renewal wa never finished
        store.restore_staged(os.getpid())
        assert list((store.root / "tmp").iterdir()) == []
        assert store.state_of("tiny:2") == LEASED
        [event] = store.reclaim_expired(now=T0 + 1, worker="wa")
        assert (event.key, event.worker, event.expiries) == ("tiny:2", "wa", 1)
        assert not event.corrupt
        assert store.state_of("tiny:2") == PENDING
        assert store.state_of("tiny:4") == LEASED

    def test_restore_staged_leaves_finished_moves_and_others(self, store):
        """A tmp/ file whose cell already reached its next state is
        dropped, and another process's tmp/ files are left alone."""
        store.claim("wa", now=T0)
        taken = store._take(LEASED, "tiny:2")
        assert taken is not None
        store._put(DONE, "tiny:2", {"key": "tiny:2", "status": "ok"})
        other = store.root / "tmp" / "take-pending-0-0.json"
        other.write_text(json.dumps({"key": "tiny:4"}))
        store.restore_staged(os.getpid())
        assert store.state_of("tiny:2") == DONE
        assert list((store.root / "tmp").iterdir()) == [other]


class TestChaosMarkers:
    def test_armed_exactly_once(self, store):
        assert store.chaos_armed("kill", "tiny:2")
        assert not store.chaos_armed("kill", "tiny:2")
        assert store.chaos_armed("kill", "tiny:4")
        assert store.chaos_armed("stall", "tiny:2")
