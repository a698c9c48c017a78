"""Set-associative cache: LRU order, eviction, dirty tracking."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.sim.cache import SetAssocCache


def make_cache(n_sets=4, assoc=2) -> SetAssocCache:
    return SetAssocCache(
        CacheConfig(size_bytes=n_sets * assoc * 64, assoc=assoc, line_bytes=64)
    )


def line_in_set(cache: SetAssocCache, set_index: int, k: int) -> int:
    """The k-th distinct line address mapping to ``set_index``."""
    return set_index + k * cache.geometry.n_sets


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)
        assert cache.n_hits == 1
        assert cache.n_misses == 1

    def test_fill_evicts_lru(self):
        cache = make_cache(n_sets=4, assoc=2)
        a, b, c = (line_in_set(cache, 1, k) for k in range(3))
        cache.fill(a)
        cache.fill(b)
        victim = cache.fill(c)
        assert victim == (a, False)
        assert not cache.contains(a)
        assert cache.contains(b)
        assert cache.contains(c)

    def test_lookup_promotes_to_mru(self):
        cache = make_cache(n_sets=4, assoc=2)
        a, b, c = (line_in_set(cache, 2, k) for k in range(3))
        cache.fill(a)
        cache.fill(b)
        cache.lookup(a)  # promote a; b becomes LRU
        victim = cache.fill(c)
        assert victim == (b, False)

    def test_lookup_without_lru_update_keeps_order(self):
        cache = make_cache(n_sets=4, assoc=2)
        a, b, c = (line_in_set(cache, 0, k) for k in range(3))
        cache.fill(a)
        cache.fill(b)
        cache.lookup(a, update_lru=False)
        victim = cache.fill(c)
        assert victim == (a, False)

    def test_refill_existing_line_no_eviction(self):
        cache = make_cache()
        cache.fill(9)
        assert cache.fill(9) is None
        assert cache.occupancy() == 1

    def test_contains_does_not_count(self):
        cache = make_cache()
        cache.contains(1)
        assert cache.n_hits == 0
        assert cache.n_misses == 0


class TestDirty:
    def test_dirty_victim_reported(self):
        cache = make_cache(n_sets=4, assoc=2)
        a, b, c = (line_in_set(cache, 3, k) for k in range(3))
        cache.fill(a, dirty=True)
        cache.fill(b)
        victim = cache.fill(c)
        assert victim == (a, True)

    def test_mark_dirty(self):
        cache = make_cache(n_sets=4, assoc=2)
        a, b, c = (line_in_set(cache, 3, k) for k in range(3))
        cache.fill(a)
        cache.mark_dirty(a)
        cache.fill(b)
        assert cache.fill(c) == (a, True)

    def test_refill_preserves_dirty(self):
        cache = make_cache(n_sets=4, assoc=2)
        a, b, c = (line_in_set(cache, 3, k) for k in range(3))
        cache.fill(a, dirty=True)
        cache.fill(a, dirty=False)  # must not clear the dirty bit
        cache.fill(b)
        assert cache.fill(c) == (a, True)

    def test_mark_dirty_on_absent_line_is_noop(self):
        cache = make_cache()
        cache.mark_dirty(42)
        assert not cache.contains(42)


class TestInvalidate:
    def test_invalidate_present(self):
        cache = make_cache()
        cache.fill(7)
        assert cache.invalidate(7)
        assert not cache.contains(7)

    def test_invalidate_absent(self):
        cache = make_cache()
        assert not cache.invalidate(7)

    def test_invalidate_frees_way(self):
        cache = make_cache(n_sets=4, assoc=2)
        a, b, c = (line_in_set(cache, 1, k) for k in range(3))
        cache.fill(a)
        cache.fill(b)
        cache.invalidate(a)
        assert cache.fill(c) is None  # no eviction needed
        assert cache.occupancy() == 2


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=300))
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = make_cache(n_sets=4, assoc=2)
        for line in lines:
            if not cache.lookup(line):
                cache.fill(line)
            assert cache.occupancy() <= 8
            for set_index in range(4):
                assert len(cache.lines_in_set(set_index)) <= 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=300))
    def test_most_recent_fill_always_resident(self, lines):
        cache = make_cache(n_sets=8, assoc=4)
        for line in lines:
            cache.fill(line)
            assert cache.contains(line)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    def test_set_isolation(self, lines):
        """A fill can only evict lines of its own set."""
        cache = make_cache(n_sets=4, assoc=2)
        for line in lines:
            victim = cache.fill(line)
            if victim is not None:
                assert victim[0] % 4 == line % 4


class _ModelTagStore:
    """Reference tag store: per set, a list of lines in eviction order
    (front evicts) and one dirty map over all lines."""

    def __init__(self, n_sets: int, assoc: int, promote_on_hit: bool):
        self.n_sets = n_sets
        self.assoc = assoc
        self.promote_on_hit = promote_on_hit
        self.reset()

    def reset(self):
        self.sets = [[] for _ in range(self.n_sets)]
        self.dirty = {}
        self.n_hits = self.n_misses = self.n_evictions = 0

    def _to_back(self, lines, line):
        lines.remove(line)
        lines.append(line)

    def _insert(self, line, dirty):
        lines = self.sets[line % self.n_sets]
        victim = None
        if len(lines) >= self.assoc:
            evicted = lines.pop(0)
            victim = (evicted, self.dirty.pop(evicted))
            self.n_evictions += 1
        lines.append(line)
        self.dirty[line] = dirty
        return victim

    def lookup(self, line, update_lru):
        lines = self.sets[line % self.n_sets]
        if line in lines:
            if update_lru and self.promote_on_hit:
                self._to_back(lines, line)
            self.n_hits += 1
            return True
        self.n_misses += 1
        return False

    def fill(self, line, dirty):
        lines = self.sets[line % self.n_sets]
        if line in lines:
            # a refill moves the line to the back under every policy
            # and never clears its dirty bit
            self._to_back(lines, line)
            self.dirty[line] = self.dirty[line] or dirty
            return None
        return self._insert(line, dirty)

    def warm_fill(self, line, promote):
        lines = self.sets[line % self.n_sets]
        if line in lines:
            if promote and self.promote_on_hit:
                self._to_back(lines, line)
            return None
        return self._insert(line, False)

    def invalidate(self, line):
        lines = self.sets[line % self.n_sets]
        if line in lines:
            lines.remove(line)
            del self.dirty[line]
            return True
        return False

    def mark_dirty(self, line):
        if line in self.sets[line % self.n_sets]:
            self.dirty[line] = True


def _dirty_bits(cache: SetAssocCache) -> dict[int, bool]:
    return {
        line: dirty
        for _, lines, bits in cache.state_dict()["sets"]
        for line, dirty in zip(lines, bits)
    }


#: ``(name, line, flag)`` operations; ``flag`` is ``update_lru``,
#: ``dirty`` or ``promote``.  ``reset`` is listed once and the others
#: twice, so sets fill up between resets.
_OP_NAMES = (
    "lookup", "fill", "warm_fill", "invalidate", "mark_dirty",
    "lookup", "fill", "warm_fill", "invalidate", "mark_dirty", "reset",
)


def _ops(n_lines: int):
    return st.lists(
        st.tuples(
            st.sampled_from(_OP_NAMES),
            st.integers(min_value=0, max_value=n_lines - 1),
            st.booleans(),
        ),
        min_size=20, max_size=100,
    )


def _apply(target, op):
    name, line, flag = op
    if name == "lookup":
        return target.lookup(line, update_lru=flag)
    if name == "fill":
        return target.fill(line, dirty=flag)
    if name == "warm_fill":
        return target.warm_fill(line, promote=flag)
    if name == "reset":
        return target.reset()
    return getattr(target, name)(line)


class TestAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "fifo"]),
        sparse=st.booleans(),
        n_sets=st.sampled_from([1, 2, 4]),
        assoc=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_random_operations_match_model(
        self, policy, sparse, n_sets, assoc, data
    ):
        # one line more per set than it has ways: hits, promotes and
        # evictions all stay likely
        ops = data.draw(_ops(n_sets * (assoc + 1)), label="ops")
        config = CacheConfig(
            size_bytes=n_sets * assoc * 64, assoc=assoc, line_bytes=64,
            replacement=policy,
        )
        cache = SetAssocCache(config, sparse=sparse)
        model = _ModelTagStore(n_sets, assoc, promote_on_hit=policy == "lru")
        restore_at = data.draw(
            st.integers(0, len(ops) - 1), label="restore_at"
        )
        for step, op in enumerate(ops):
            if step == restore_at:
                # continue on a copy restored from the checkpoint state
                copy = SetAssocCache(config, sparse=sparse)
                copy.load_state_dict(cache.state_dict())
                cache = copy
            assert _apply(cache, op) == _apply(model, op), (step, op)
            assert (cache.n_hits, cache.n_misses, cache.n_evictions) == (
                model.n_hits, model.n_misses, model.n_evictions
            ), (step, op)
            for set_index in range(n_sets):
                assert cache.lines_in_set(set_index) == model.sets[set_index]
            assert _dirty_bits(cache) == model.dirty
