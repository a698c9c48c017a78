"""Typed interfaces for the swappable simulator components.

These are :class:`typing.Protocol` classes — structural, not nominal:
an implementation only has to *look* right, never to inherit.  The
registry (:mod:`repro.components.registry`) maps string names from the
configuration onto factories producing these shapes; the consuming
modules (``sim.cache``, ``sim.memory``, ``accounting.accountant``)
are written against the protocol alone.

The factory convention: every registered object is a callable taking
the relevant config section and returning the component instance —
``ReplacementPolicy`` factories take a
:class:`~repro.config.CacheConfig`, ``PagePolicy`` factories a
:class:`~repro.config.DramConfig`, and ``SpinDetector`` factories an
:class:`~repro.config.AccountingConfig`.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Snapshotable(Protocol):
    """Anything whose mutable run state externalizes to plain data.

    The ML-framework idiom: ``state_dict()`` returns a JSON-serializable
    tree (dicts/lists/scalars only — no object references, no tuples
    that must survive a round trip, no generators) capturing *all*
    mutable state the object accumulates during a run, and
    ``load_state_dict`` restores an identically-configured fresh
    instance to exactly that state.  The contract the checkpoint layer
    relies on:

    * **round trip** — ``b.load_state_dict(a.state_dict())`` on a fresh
      ``b`` built from the same configuration makes ``b`` behaviourally
      indistinguishable from ``a``, and ``b.state_dict()`` re-serializes
      byte-identically (stable key and element order);
    * **JSON stability** — the tree survives
      ``json.loads(json.dumps(state))`` unchanged (so no int dict keys,
      no sets, no tuples whose tuple-ness matters);
    * **purity** — ``state_dict()`` never mutates the object.

    Implemented across all six stateful layers (engine, chip/caches,
    accountant, spin detectors, sync primitives, OS-model threads);
    stateless components (LRU/FIFO replacement, page policies) simply
    don't implement it and are skipped.
    """

    def state_dict(self) -> dict[str, Any]:
        """Serialize all mutable state to a JSON-safe tree."""
        ...

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` on a fresh,
        identically-configured instance."""
        ...


@runtime_checkable
class ReplacementPolicy(Protocol):
    """Victim selection for one set-associative cache instance.

    ``promote_on_hit`` is read once at cache construction and inlined
    into the lookup hot path, so a policy cannot change it per access.
    ``select_victim`` is only called on a *full* set and must return a
    line address that is currently in ``cache_set``.
    """

    #: whether a hit moves the line to the protected (MRU) end
    promote_on_hit: bool

    def select_victim(self, cache_set: dict[int, bool]) -> int:
        """Pick the victim line address from a full set (ordered from
        eviction candidate at the front to most recently inserted/used
        at the back)."""
        ...

    def reset(self) -> None:
        """Return to the post-construction state (re-seed any RNG); the
        owning cache calls this from :meth:`SetAssocCache.reset` so
        pooled runs stay bit-identical to fresh ones."""
        ...


@runtime_checkable
class SpinDetector(Protocol):
    """Per-core hardware spin detection (Section 4.3 of the paper).

    A detector receives *both* event streams — retired loads (Tian
    et al.) and spin-loop backward branches (Li et al.) — and is free
    to ignore the one it does not use.  ``spin_cycles`` accumulates the
    detected spin time; ``flush`` models the context-switch clear of
    the physical per-core table.
    """

    #: cumulative detected spin cycles on this core
    spin_cycles: int

    def on_load(
        self,
        pc: int,
        addr: int,
        value: int,
        writer_core: int,
        now: int,
        self_core: int,
    ) -> None:
        """Observe one retired load (value is the coherence version of
        the word; ``writer_core`` is its last writer, -1 if unknown)."""
        ...

    def on_backward_branch(self, pc: int, state_signature: int, now: int) -> None:
        """Observe one spin-loop backward branch with the loop body's
        observable-state signature."""
        ...

    def flush(self) -> None:
        """Context switch: drop per-core table state."""
        ...


@runtime_checkable
class PagePolicy(Protocol):
    """DRAM row-buffer management for one memory controller.

    ``classify`` maps (currently open page, requested page) to the
    access outcome (one of :data:`~repro.components.paging.PAGE_HIT`,
    ``PAGE_EMPTY``, ``PAGE_CONFLICT``) and its bank service time;
    ``page_after`` says which page the bank holds open once the access
    completes (``None`` = bank precharged/closed).
    """

    def classify(self, open_page: int | None, page_id: int) -> tuple[str, int]:
        """Return ``(outcome, bank_service_cycles)`` for an access to
        ``page_id`` while ``open_page`` is in the row buffer."""
        ...

    def page_after(self, page_id: int) -> int | None:
        """The page left open in the bank after servicing ``page_id``."""
        ...
