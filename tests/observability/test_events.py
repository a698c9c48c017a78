"""EventBus subscribe/unsubscribe and dispatch semantics."""

from __future__ import annotations

import pytest

from repro.observability.events import (
    EVENT_TYPES,
    SIM_EVENT_TYPES,
    SWEEP_EVENT_TYPES,
    CellFinished,
    CellStarted,
    EventBus,
    MissBlocked,
    SimStarted,
    SpinSegment,
)


class TestSubscription:
    def test_typed_handler_sees_only_its_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SimStarted, seen.append)
        bus.emit(SimStarted(2, 2))
        bus.emit(CellStarted("cholesky:2", 1))
        assert seen == [SimStarted(2, 2)]

    def test_subscribe_all_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        bus.emit(SimStarted(2, 2))
        bus.emit(CellStarted("cholesky:2", 1))
        assert len(seen) == 2

    def test_handlers_called_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(SimStarted, lambda e: order.append("first"))
        bus.subscribe(SimStarted, lambda e: order.append("second"))
        bus.subscribe_all(lambda e: order.append("all"))
        bus.emit(SimStarted(1, 1))
        assert order == ["first", "second", "all"]

    def test_unknown_event_type_rejected(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda e: None)

    def test_object_is_not_a_catch_all_type(self):
        """Dispatch looks handlers up by the event's own type, so an
        ``object`` handler would never run; ``subscribe_all`` is the
        catch-all."""
        bus = EventBus()
        with pytest.raises(TypeError, match="unknown event type"):
            bus.subscribe(object, lambda e: None)
        assert not bus.active

    def test_every_declared_type_is_subscribable(self):
        bus = EventBus()
        for event_type in EVENT_TYPES:
            bus.subscribe(event_type, lambda e: None)
        assert bus.active


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SimStarted, seen.append)
        bus.unsubscribe(SimStarted, seen.append)
        bus.emit(SimStarted(1, 1))
        assert seen == []

    def test_unsubscribe_unknown_handler_raises(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.unsubscribe(SimStarted, lambda e: None)

    def test_unsubscribe_during_dispatch_is_safe(self):
        bus = EventBus()
        seen = []

        def once(event):
            seen.append(event)
            bus.unsubscribe(SimStarted, once)

        bus.subscribe(SimStarted, once)
        bus.emit(SimStarted(1, 1))
        bus.emit(SimStarted(2, 2))
        assert seen == [SimStarted(1, 1)]

    def test_empty_handler_list_is_removed(self):
        bus = EventBus()
        handler = lambda e: None  # noqa: E731
        bus.subscribe(SpinSegment, handler)
        assert SpinSegment in bus
        bus.unsubscribe(SpinSegment, handler)
        assert SpinSegment not in bus
        assert not bus.active

    def test_unsubscribe_all(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        bus.unsubscribe_all(seen.append)
        bus.emit(SimStarted(1, 1))
        assert seen == [] and not bus.active


class TestIntrospection:
    def test_contains_reflects_typed_subscriptions(self):
        bus = EventBus()
        assert MissBlocked not in bus
        bus.subscribe(MissBlocked, lambda e: None)
        assert MissBlocked in bus
        assert SpinSegment not in bus

    def test_subscribe_all_makes_every_type_contained(self):
        bus = EventBus()
        bus.subscribe_all(lambda e: None)
        assert MissBlocked in bus and SpinSegment in bus

    def test_event_groups_partition_every_type(self):
        assert set(SIM_EVENT_TYPES).isdisjoint(SWEEP_EVENT_TYPES)
        assert EVENT_TYPES == SIM_EVENT_TYPES + SWEEP_EVENT_TYPES

    def test_observes_simulation_only_for_simulation_handlers(self):
        bus = EventBus()
        assert not bus.observes_simulation
        bus.subscribe(CellFinished, lambda e: None)
        assert not bus.observes_simulation
        for event_type in SIM_EVENT_TYPES:
            typed = EventBus()
            typed.subscribe(event_type, lambda e: None)
            assert typed.observes_simulation
        bus.subscribe_all(lambda e: None)
        assert bus.observes_simulation

    def test_n_emitted_counts_even_without_handlers(self):
        bus = EventBus()
        bus.emit(SimStarted(1, 1))
        bus.emit(SimStarted(1, 1))
        assert bus.n_emitted == 2

    def test_events_are_frozen(self):
        event = SimStarted(2, 2)
        with pytest.raises(Exception):
            event.n_threads = 3
