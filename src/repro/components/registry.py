"""String-keyed component registry.

Every swappable mechanism of the simulator — cache replacement, spin
detection, DRAM page policy — is a *component*: an object registered under a ``(kind, name)`` pair and
resolved by name at construction time.  Configuration files and CLI
flags therefore carry plain strings, while the code that consumes them
gets a typed factory (see :mod:`repro.components.protocols`) and a
*precise, early* failure mode: an unknown name raises
:class:`~repro.errors.ConfigError` naming the bad field and listing
every registered choice, instead of a silent fall-through or a late
``KeyError`` deep inside the engine.

Third-party code (tests, notebooks, future backends) can add a new
policy without touching ``repro.sim``::

    from repro.components import register

    @register("replacement", "mru")
    class MruPolicy:
        promote_on_hit = True
        def __init__(self, config): ...
        def select_victim(self, cache_set): return next(reversed(cache_set))
        def reset(self): ...

    CacheConfig(size_bytes=..., assoc=..., replacement="mru")  # now valid
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

from repro.errors import ConfigError

_T = TypeVar("_T")

#: kind -> {name -> component factory (class or callable)}
_REGISTRY: dict[str, dict[str, Any]] = {}


def register(kind: str, name: str) -> Callable[[_T], _T]:
    """Class/function decorator registering a component factory.

    Re-registering the *same* object under the same ``(kind, name)`` is
    a no-op (harmless under module reloads); registering a *different*
    object under a taken name raises :class:`ConfigError` — shadowing a
    built-in policy silently would make configs mean different things
    in different processes.
    """

    def decorator(obj: _T) -> _T:
        bucket = _REGISTRY.setdefault(kind, {})
        current = bucket.get(name)
        if current is not None and current is not obj:
            raise ConfigError(
                f"component {kind}:{name!r} is already registered "
                f"(to {current!r}); unregister it first"
            )
        bucket[name] = obj
        return obj

    return decorator


def unregister(kind: str, name: str) -> None:
    """Remove one registration (primarily for test cleanup)."""
    bucket = _REGISTRY.get(kind)
    if bucket is None or name not in bucket:
        raise ConfigError(f"component {kind}:{name!r} is not registered")
    del bucket[name]


def resolve(kind: str, name: str) -> Any:
    """Look up a registered factory; unknown names fail loudly.

    The raised :class:`ConfigError` carries ``field`` (the kind) and
    ``choices`` (every registered name) so config loaders can point the
    user at the exact line and the valid spellings.
    """
    bucket = _REGISTRY.get(kind)
    if bucket is None:
        raise ConfigError(
            f"unknown component kind {kind!r}; "
            f"registered kinds: {', '.join(kinds()) or '(none)'}",
            field=kind,
        )
    factory = bucket.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown {kind} {name!r}; registered {kind} components: "
            f"{', '.join(sorted(bucket))}",
            field=kind,
            choices=available(kind),
        )
    return factory


def available(kind: str) -> tuple[str, ...]:
    """Sorted names registered under ``kind`` (empty for unknown kinds)."""
    return tuple(sorted(_REGISTRY.get(kind, ())))


def kinds() -> tuple[str, ...]:
    """Sorted component kinds with at least one registration."""
    return tuple(sorted(_REGISTRY))


def validate_choice(kind: str, name: str, field: str) -> None:
    """Config-side validation helper: raise a :class:`ConfigError`
    naming the offending *config field* (not just the kind) when
    ``name`` is not a registered ``kind`` component."""
    if name not in _REGISTRY.get(kind, ()):
        raise ConfigError(
            f"{field}: unknown {kind} {name!r}; registered choices: "
            f"{', '.join(available(kind)) or '(none)'}",
            field=field,
            choices=available(kind),
        )
