"""Differential suite: the fused warm-up loop against the per-line loop.

``Simulation._warm_fused`` inlines ``Chip.warm_line`` into one loop; it
must leave exactly the state the per-line loop leaves.  Every case here
warms two fresh simulations of the same program, one through each loop,
and compares the full ``state_dict()`` trees — caches in set order, the
directory's sharer dict in insertion order, the ATDs and every eviction
counter.  Chips the fused loop does not cover must fall back to the
per-line loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.accounting.accountant import CycleAccountant
from repro.accounting.interface import NULL_ACCOUNTANT
from repro.config import AccountingConfig, CacheConfig, MachineConfig
from repro.sim.engine import Simulation
from repro.workloads.program import Program
from repro.workloads.spec import build_program
from repro.workloads.suite import SUITE, by_name

LINE = 64

#: 2 sets x 2 ways of L1 per core, 4 sets x 2 ways of shared LLC, and an
#: ATD on every other LLC set: a few dozen lines make every eviction
#: path fire
TINY = MachineConfig(
    n_cores=2,
    l1d=CacheConfig(size_bytes=4 * LINE, assoc=2),
    llc=CacheConfig(size_bytes=8 * LINE, assoc=2),
    accounting=AccountingConfig(atd_sample_period=2),
)


def _with_replacement(machine: MachineConfig, policy: str) -> MachineConfig:
    return dataclasses.replace(
        machine,
        l1d=dataclasses.replace(machine.l1d, replacement=policy),
        llc=dataclasses.replace(machine.llc, replacement=policy),
    )


def _sim(machine: MachineConfig, program: Program, accounted: bool):
    accountant = CycleAccountant(machine) if accounted else NULL_ACCOUNTANT
    return Simulation(machine, program, accountant)


def _warm_both(machine, program, accounted):
    """(per-line state, fused state, fused simulation).  Warming never
    consumes the thread bodies, so both simulations share ``program``."""
    reference = _sim(machine, program, accounted)
    reference._warm_per_line(program.warmup)
    fused = _sim(machine, program, accounted)
    assert fused._can_fuse_warm()
    fused._warm_fused(program.warmup)
    return reference.state_dict(), fused.state_dict(), fused


def _warm_only_program(warmup: list[list[int]]) -> Program:
    return Program("warm", [iter(()) for _ in warmup], warmup=warmup)


@pytest.mark.parametrize("name", [spec.full_name for spec in SUITE])
def test_suite_benchmark_warms_identically(name):
    spec = by_name(name)
    for n_threads in (2, 4):
        program = build_program(spec, n_threads, scale=0.05)
        for policy in ("lru", "fifo"):
            machine = _with_replacement(
                MachineConfig(n_cores=n_threads), policy
            )
            for accounted in (False, True):
                per_line, fused, _ = _warm_both(machine, program, accounted)
                assert fused == per_line, (n_threads, policy, accounted)


@pytest.mark.parametrize("name", ["lu.ncont", "canneal_small"])
@pytest.mark.parametrize("loop", ["_warm_fused", "_warm_per_line"])
def test_regions_warm_like_their_address_lists(name, loop):
    """Cold, shared and private regions warm exactly like the explicit
    per-thread lists they stand for, on both loops."""
    program = build_program(by_name(name), 4, scale=0.05)
    lists = [list(regions) for regions in program.warmup]
    machine = MachineConfig(n_cores=4)
    states = []
    for warmup in (program.warmup, lists):
        sim = _sim(machine, program, accounted=True)
        getattr(sim, loop)(warmup)
        states.append(sim.state_dict())
    assert states[0] == states[1]


#: first 16 hex digits of the sha256 of the warmed ``state_dict()`` in
#: the checkpoint body encoding, at scale 0.3: (benchmark, cores,
#: accounted, digest)
PINNED_WARM_STATES = [
    ("canneal_medium", 4, True, "bc441e9819b07328"),
    ("fft", 2, True, "4a93beb63e532ba2"),
    ("bfs", 4, False, "9a1f8f23a0234ddb"),
    # the perfbench warm16 cells and fft's single-threaded reference
    # (one core, no accountant); the per-line loop takes seconds per
    # 16-core cell, so these rows pin the _warm_caches entry point only
    ("fft", 16, True, "aeaec445fc0026c1"),
    ("canneal_medium", 16, True, "0791c3a5a1269fb8"),
    ("srad", 16, True, "5044c6525d92ab81"),
    ("fft", 1, False, "c482a0e34be6fff9"),
]


def _warmed_digest(name, n_cores, accounted, loop):
    program = build_program(by_name(name), n_cores, scale=0.3)
    sim = _sim(MachineConfig(n_cores=n_cores), program, accounted)
    if loop == "_warm_caches":
        sim._warm_caches()
    else:
        getattr(sim, loop)(program.warmup)
    body = json.dumps(sim.state_dict(), separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "name,n_cores,accounted,digest", PINNED_WARM_STATES[:3]
)
@pytest.mark.parametrize("loop", ["_warm_fused", "_warm_per_line"])
def test_warmed_state_is_pinned(name, n_cores, accounted, digest, loop):
    """The two loops agree with each other above; this pins what they
    both leave, so a change to the set container under both still
    writes byte-identical checkpoints."""
    assert _warmed_digest(name, n_cores, accounted, loop) == digest


@pytest.mark.parametrize("name,n_cores,accounted,digest", PINNED_WARM_STATES)
def test_warm_caches_leaves_the_pinned_state(name, n_cores, accounted, digest):
    """The entry point every run takes leaves the pinned bytes too."""
    assert _warmed_digest(name, n_cores, accounted, "_warm_caches") == digest


@st.composite
def _tiny_cases(draw):
    n_cores = draw(st.integers(1, 3))
    # up to two threads more than cores: several threads share an L1
    n_threads = draw(st.integers(1, n_cores + 2))
    warmup = draw(st.lists(
        st.lists(st.integers(0, 24 * LINE - 1), max_size=40),
        min_size=n_threads, max_size=n_threads,
    ))
    policy = draw(st.sampled_from(["lru", "fifo"]))
    machine = _with_replacement(TINY, policy).with_cores(n_cores)
    return machine, warmup, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=_tiny_cases())
def test_random_address_lists_warm_identically(case):
    machine, warmup, accounted = case
    per_line, fused, _ = _warm_both(
        machine, _warm_only_program(warmup), accounted
    )
    assert fused == per_line


def test_tiny_machine_fires_every_eviction_path():
    """Both cores hold line 0 when core 0 pushes it out of its LLC set,
    so the warm-up drop of its L1 copies empties two L1s; core 0 then
    fills past its L1 and ATD ways."""
    lines = [[0, 4, 8, 12, 1, 3, 5, 7, 9], [0, 2, 6, 10]]
    warmup = [[line * LINE for line in thread] for thread in lines]
    per_line, fused, sim = _warm_both(
        TINY, _warm_only_program(warmup), accounted=True
    )
    assert fused == per_line
    chip = sim.chip
    assert chip.llc.n_evictions > 0
    assert chip.l1d[0].n_evictions > 0
    assert sim.accountant.atds[0].tag_store.n_evictions > 0
    assert not any(l1.contains(0) for l1 in chip.l1d)
    assert 0 not in chip.directory._sharers


@pytest.mark.parametrize("variant", [
    "random", "llc_quotas", "atd_shadow_oracle", "invalid_tags",
])
def test_uncovered_chips_fall_back_to_per_line(variant):
    machine = MachineConfig(n_cores=2)
    if variant == "random":
        machine = _with_replacement(machine, "random")
    elif variant == "llc_quotas":
        machine = machine.with_llc_quotas((8, 8))
    elif variant == "atd_shadow_oracle":
        machine = dataclasses.replace(
            machine, accounting=AccountingConfig(atd_shadow_oracle=True)
        )
    program = build_program(by_name("cholesky"), 2, scale=0.05)
    sims = [_sim(machine, program, accounted=True) for _ in range(2)]
    if variant == "invalid_tags":
        for sim in sims:
            sim.chip.directory._invalid_tags[1].add(0)
    reference, warmed = sims
    assert not warmed._can_fuse_warm()
    reference._warm_per_line(program.warmup)
    warmed._warm_caches()
    assert warmed.state_dict() == reference.state_dict()
