"""Session facade: observation, perturbation contract, re-coring."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.session import Session


def canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _session(**overrides) -> Session:
    kwargs = dict(scale=0.05)
    kwargs.update(overrides)
    return Session.from_config("cholesky", 4, **kwargs)


# ----------------------------------------------------------------------
# observation
# ----------------------------------------------------------------------

def test_peek_stack_is_pure_and_partial():
    session = _session().step(2_000)
    before = canon(session.snapshot())
    stack = session.peek_stack()
    assert stack.truncated
    assert stack.actual_speedup is None
    assert canon(session.snapshot()) == before
    assert not session.done


def test_stack_carries_actual_speedup():
    stack = _session().stack()
    assert stack.actual_speedup is not None
    assert not stack.truncated


def test_render_stack_partial_vs_final():
    session = _session().step(2_000)
    partial = session.render_stack()
    assert partial.startswith(f"partial stack at cycle {session.cycle}")
    assert not session.done  # rendering is a pure peek
    final = session.run().render_stack()
    assert "partial stack" not in final


def test_counters_and_status():
    session = _session().step(2_000)
    counters = session.counters()
    assert counters  # live accountant snapshot
    status = session.status()
    assert status["benchmark"] == "cholesky"
    assert status["n_threads"] == 4
    assert not status["done"]
    assert status["cycle"] == session.cycle


def test_repr_is_notebook_friendly():
    session = _session()
    assert "cholesky" in repr(session)
    assert "running" in repr(session)
    session.run()
    assert "done" in repr(session)
    session_p = _session().step(1_000).inject("llc_flush")
    assert "perturbation" in repr(session_p)


def test_events_bus():
    session = _session(events=True)
    session.run()
    assert session.events
    assert session.bus.n_emitted == len(session.events)


# ----------------------------------------------------------------------
# perturbations
# ----------------------------------------------------------------------

def test_perturbed_replay_is_deterministic():
    def run():
        s = _session()
        s.step(2_000).inject("llc_flush")
        s.step(1_000).inject("mem_spike", factor=3.0)
        s.step(500).swap("spin_detector", "li")
        s.run()
        return s
    a, b = run(), run()
    assert canon(a.snapshot()) == canon(b.snapshot())
    assert a.perturbations == b.perturbations


def test_perturbed_stack_loses_reference():
    session = _session().step(2_000).inject("llc_flush").run()
    assert session.stack().actual_speedup is None


def test_perturbed_session_refuses_save(tmp_path):
    session = _session().step(2_000).inject("llc_flush")
    with pytest.raises(ConfigError, match="perturbed"):
        session.save(tmp_path / "x.ckpt")


def test_unknown_perturbation_names_choices():
    session = _session().step(1_000)
    with pytest.raises(ConfigError) as exc:
        session.inject("cosmic_ray")
    assert "llc_flush" in str(exc.value.choices)


def test_perturb_after_done_refused():
    session = _session().run()
    with pytest.raises(ConfigError, match="completed"):
        session.inject("llc_flush")
    with pytest.raises(ConfigError, match="completed"):
        session.swap("spin_detector", "li")


def test_swap_unknown_kind_refused():
    session = _session().step(1_000)
    for kind, name in (("replacement", "lru"), ("scheduler", "earliest")):
        with pytest.raises(ConfigError) as exc:
            session.swap(kind, name)
        assert exc.value.choices == ("spin_detector",)


def test_llc_flush_changes_trajectory():
    clean = _session().run()
    flushed = _session().step(2_000).inject("llc_flush").run()
    assert canon(clean.snapshot()) != canon(flushed.snapshot())


def test_mem_spike_slows_the_run():
    clean = _session().run()
    spiked = _session().step(1_000).inject("mem_spike", factor=8.0).run()
    assert spiked.result.total_cycles > clean.result.total_cycles


# ----------------------------------------------------------------------
# re-coring
# ----------------------------------------------------------------------

def test_recored_session_is_fresh_cell():
    session = _session()
    wider = session.recored(8)
    assert wider.n_threads == 8
    assert wider.cycle == 0
    assert wider.scale == session.scale
    stack = wider.stack()
    assert stack.n_threads == 8
