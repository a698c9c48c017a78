"""Graceful drain on SIGINT/SIGTERM: stop cleanly, keep the state.

The robustness machinery guarantees that *nothing* the runner was asked
to do is lost on an interrupt: the journal is appended after every
cell, checkpoints are saved mid-cell, and the work queue releases its
leases.  What was missing is a way to actually *stop* — a Python
simulation loop only reacts to ``KeyboardInterrupt``, which aborts at
an arbitrary bytecode and loses the in-flight cell.

This module provides the three pieces every entry point shares:

* :class:`DrainController` — installs SIGINT/SIGTERM handlers that set
  a flag instead of raising.  A *second* signal restores the default
  disposition, so a stuck drain can still be killed the ordinary way.
* :class:`DrainRequested` — raised from inside the engine's checkpoint
  poll once the in-flight state is safe.  Derives from
  :class:`BaseException` (like ``KeyboardInterrupt``) so the batch
  runner's ``except ReproError`` retry path can never misclassify a
  drain as a failing cell.
* :class:`DrainableHook` — wraps (or stands in for) a
  :class:`~repro.checkpoint.policy.CheckpointHook`.  The engine already
  polls ``hook.due(now)`` once per scheduling step; when a drain is
  requested the wrapper forces a save (when a checkpoint target is
  configured) and then raises :class:`DrainRequested` — so a drained
  run always leaves a resumable checkpoint behind when one was asked
  for, and stops promptly either way.

Exit codes (documented in ``docs/distributed.md`` and the CLI help):

* :data:`EXIT_INTERRUPTED` (95) — ``repro stack`` / ``repro sweep``
  stopped on a signal *after* finalizing the journal / checkpoint.
* :data:`EXIT_DRAINED` (75, sysexits ``EX_TEMPFAIL``) — a
  ``repro worker`` released its lease and exited; the cell is safely
  back in the queue and a re-run will pick it up.
"""

from __future__ import annotations

import logging
import signal
import threading

logger = logging.getLogger(__name__)

#: ``repro stack`` / ``repro sweep`` interrupted by SIGINT/SIGTERM after
#: finalizing state (journal records written, checkpoint saved)
EXIT_INTERRUPTED = 95

#: ``repro worker`` drained: lease released (cell requeued, checkpoint
#: kept), heartbeat finalized — safe to restart any time
EXIT_DRAINED = 75


class DrainRequested(BaseException):
    """A drain signal arrived and the in-flight state is safe to leave.

    A :class:`BaseException` on purpose: the batch runner retries
    :class:`~repro.errors.ReproError` and classifies ``Exception`` as a
    cell failure — a drain is neither, it must unwind straight to the
    entry point.
    """

    def __init__(self, reason: str = "drain", saved: bool = False) -> None:
        self.reason = reason
        #: True when a checkpoint was written just before raising
        self.saved = saved
        super().__init__(reason)


class DrainController:
    """Signal-to-flag adapter shared by every long-running command.

    ``install()`` replaces the SIGINT and SIGTERM handlers; the first
    signal sets :attr:`requested` (and remembers which signal it was),
    the second restores the previous handlers and re-raises, so an
    operator can always escalate.  ``install`` is a no-op off the main
    thread (the stdlib only allows signal handlers there), which keeps
    library callers and test harnesses safe.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.signum: int | None = None
        self._previous: dict[int, object] = {}
        self._installed = False

    # -- state ----------------------------------------------------------

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def request(self, signum: int = signal.SIGTERM) -> None:
        """Programmatic drain (tests, embedding)."""
        self.signum = signum
        self._event.set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)

    # -- wiring ---------------------------------------------------------

    def install(self) -> "DrainController":
        if threading.current_thread() is not threading.main_thread():
            logger.debug("not on the main thread; drain signals not hooked")
            return self
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous[signum] = signal.signal(signum, self._handle)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
        self._installed = False

    def _handle(self, signum, frame) -> None:
        if self.requested:
            # second signal: stop being graceful
            logger.warning("second signal (%d): restoring default handlers",
                           signum)
            self.uninstall()
            signal.raise_signal(signum)
            return
        logger.warning(
            "signal %d: draining (finishing or checkpointing in-flight "
            "work; send again to force quit)", signum,
        )
        self.request(signum)


class DrainableHook:
    """Checkpoint-hook wrapper that turns the engine's periodic poll
    into a drain point.

    Wraps a real :class:`~repro.checkpoint.policy.CheckpointHook` (or
    ``None`` when the run is not checkpointed) and mirrors its
    interface.  ``due()`` answers True as soon as a drain is requested;
    the subsequent ``save()`` first performs the inner hook's save (when
    present) so the on-disk checkpoint is current, then raises
    :class:`DrainRequested`.
    """

    def __init__(self, inner, drain: DrainController) -> None:
        self.inner = inner
        self.drain = drain

    # CheckpointHook surface consumed by callers of the runner ----------

    @property
    def path(self):
        return self.inner.path if self.inner is not None else None

    @property
    def descriptor(self):
        return self.inner.descriptor if self.inner is not None else None

    @property
    def n_saves(self) -> int:
        return self.inner.n_saves if self.inner is not None else 0

    @property
    def last_header(self):
        return self.inner.last_header if self.inner is not None else None

    @property
    def saves_state(self) -> bool:
        """Without an inner hook a drain stops the run and writes no
        state, so the run it polls is free to run ahead."""
        return self.inner is not None and self.inner.saves_state

    # engine-facing protocol -------------------------------------------

    def due(self, now: int) -> bool:
        if self.drain.requested:
            return True
        return self.inner is not None and self.inner.due(now)

    def wants(self, reason: str) -> bool:
        return self.inner is not None and self.inner.wants(reason)

    def save(self, sim, reason: str):
        saved = False
        header = None
        if self.inner is not None:
            header = self.inner.save(sim, reason)
            saved = True
        if self.drain.requested and reason == "interval":
            raise DrainRequested(
                f"signal {self.drain.signum}", saved=saved
            )
        return header
