"""The component registry: resolution, failure modes, extension.

The headline property: a new policy is registrable from *outside*
``repro.sim`` — these tests add one and run a cache with it without
editing any simulator code.
"""

from __future__ import annotations

import pytest

from repro.components import available, kinds, register, resolve, unregister
from repro.components.protocols import PagePolicy, ReplacementPolicy
from repro.components.registry import validate_choice
from repro.config import CacheConfig
from repro.errors import ConfigError
from repro.sim.cache import SetAssocCache


class TestResolution:
    def test_builtins_registered(self):
        assert available("replacement") == ("fifo", "lru", "random")
        assert available("spin_detector") == ("li", "tian")
        assert available("page_policy") == ("closed", "open")
        assert kinds() == ("page_policy", "replacement", "spin_detector")

    def test_resolve_returns_factory(self):
        factory = resolve("replacement", "lru")
        policy = factory(CacheConfig(size_bytes=1024, assoc=2))
        assert isinstance(policy, ReplacementPolicy)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError) as exc:
            resolve("replacement", "plru")
        assert "plru" in str(exc.value)
        assert exc.value.choices == ("fifo", "lru", "random")
        assert exc.value.field == "replacement"

    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(ConfigError, match="registered kinds"):
            resolve("prefetcher", "stride")

    def test_unknown_name_is_a_value_error(self):
        # ConfigError subclasses ValueError so pre-registry call sites
        # (and tests) catching ValueError keep working.
        with pytest.raises(ValueError):
            resolve("replacement", "plru")

    def test_validate_choice_names_config_field(self):
        with pytest.raises(ConfigError) as exc:
            validate_choice("replacement", "plru", "llc.replacement")
        assert exc.value.field == "llc.replacement"
        assert "llc.replacement" in str(exc.value)

    def test_config_rejects_unknown_component_at_construction(self):
        with pytest.raises(ConfigError) as exc:
            CacheConfig(size_bytes=1024, assoc=2, replacement="plru")
        assert exc.value.choices == ("fifo", "lru", "random")


class TestRegistration:
    def test_custom_policy_without_editing_sim(self):
        """Register an MRU policy from the test, run a cache with it."""

        @register("replacement", "mru-test")
        class MruPolicy:
            promote_on_hit = True

            def __init__(self, config):
                pass

            def select_victim(self, cache_set):
                return next(reversed(cache_set))

            def reset(self):
                pass

        try:
            config = CacheConfig(
                size_bytes=2 * 64, assoc=2, line_bytes=64,
                replacement="mru-test",
            )
            cache = SetAssocCache(config)
            cache.fill(0)
            cache.fill(1)
            # MRU evicts the most recently inserted line (1), not LRU's 0.
            assert cache.fill(2) == (1, False)
        finally:
            unregister("replacement", "mru-test")
        with pytest.raises(ConfigError):
            resolve("replacement", "mru-test")

    def test_reregistering_same_object_is_noop(self):
        factory = resolve("page_policy", "open")
        assert register("page_policy", "open")(factory) is factory

    def test_shadowing_taken_name_rejected(self):
        class Impostor:
            def classify(self, open_page, page_id):
                return "hit", 0

            def page_after(self, page_id):
                return None

        with pytest.raises(ConfigError, match="already registered"):
            register("page_policy", "open")(Impostor)
        # The original registration is intact.
        assert resolve("page_policy", "open") is not Impostor

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ConfigError, match="not registered"):
            unregister("replacement", "never-was")

    def test_protocols_are_structural(self):
        class Anon:
            def classify(self, open_page, page_id):
                return "hit", 0

            def page_after(self, page_id):
                return None

        assert isinstance(Anon(), PagePolicy)
