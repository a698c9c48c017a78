"""Pluggable simulator components.

This package is the seam between string-valued configuration and the
simulator's mechanisms.  It provides:

* :mod:`~repro.components.protocols` — ``typing.Protocol`` interfaces
  for each swappable component family;
* :mod:`~repro.components.registry` — the ``(kind, name)`` registry
  with :func:`register`, :func:`resolve`, :func:`available`;
* built-in implementations, extracted from the ``sim`` and
  ``accounting`` packages: cache replacement
  (:mod:`~repro.components.replacement`), DRAM page policies
  (:mod:`~repro.components.paging`), spin detectors
  (:mod:`~repro.components.spin`) and the engine scheduler
  (:mod:`~repro.components.scheduling`).

Importing this package registers every built-in, so
``available("replacement")`` etc. is complete after
``import repro.components``.
"""

from __future__ import annotations

from repro.components.protocols import (
    PagePolicy,
    ReplacementPolicy,
    Scheduler,
    SpinDetector,
)
from repro.components.registry import (
    available,
    kinds,
    register,
    resolve,
    unregister,
    validate_choice,
)

# Import the built-in implementations for their registration side
# effects (order matters only in that each must come after registry).
from repro.components import paging as paging  # noqa: E402
from repro.components import replacement as replacement  # noqa: E402
from repro.components import scheduling as scheduling  # noqa: E402
from repro.components import spin as spin  # noqa: E402

__all__ = [
    "PagePolicy",
    "ReplacementPolicy",
    "Scheduler",
    "SpinDetector",
    "available",
    "kinds",
    "paging",
    "register",
    "replacement",
    "resolve",
    "scheduling",
    "spin",
    "unregister",
    "validate_choice",
]
