"""Tests for the set-associative cache arrays, with a hypothesis-backed
LRU reference model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.arrays import EMPTY_SET, CacheArray
from repro.errors import ConfigError


def small_array(sets=4, ways=2, stride=1):
    return CacheArray(sets * ways * 64, ways, 64, index_stride=stride)


class TestBasics:
    def test_geometry(self):
        a = CacheArray(1 << 20, 16, 128)
        assert a.n_blocks == 8192
        assert a.n_sets == 512

    def test_undersized_capacity_rejected(self):
        with pytest.raises(ConfigError):
            CacheArray(64, 16, 128)

    def test_miss_then_hit(self):
        a = small_array()
        assert not a.lookup(10)
        a.fill(10)
        assert a.lookup(10)
        assert a.hits == 1 and a.misses == 1

    def test_contains_has_no_side_effects(self):
        a = small_array()
        a.fill(10)
        assert a.contains(10)
        assert a.hits == 0 and a.misses == 0

    def test_lru_eviction_order(self):
        a = small_array(sets=1, ways=2)
        a.fill(0)
        a.fill(1)
        a.lookup(0)          # 0 becomes MRU
        victim = a.fill(2)   # evicts 1
        assert victim == (1, False)
        assert a.contains(0) and a.contains(2) and not a.contains(1)

    def test_dirty_tracking(self):
        a = small_array()
        a.fill(5)
        assert not a.is_dirty(5)
        a.mark_dirty(5)
        assert a.is_dirty(5)
        a.mark_clean(5)
        assert not a.is_dirty(5)

    def test_dirty_eviction_reported(self):
        a = small_array(sets=1, ways=1)
        a.fill(0, dirty=True)
        victim = a.fill(1)
        assert victim == (0, True)
        assert a.dirty_evictions == 1

    def test_refill_merges_dirty(self):
        a = small_array()
        a.fill(3, dirty=True)
        assert a.fill(3, dirty=False) is None
        assert a.is_dirty(3)

    def test_invalidate(self):
        a = small_array()
        a.fill(7, dirty=True)
        assert a.invalidate(7) == (True, True)
        assert a.invalidate(7) == (False, False)
        assert not a.contains(7)

    def test_hit_rate(self):
        a = small_array()
        a.fill(1)
        a.lookup(1)
        a.lookup(2)
        assert a.hit_rate() == 0.5


class TestIndexStride:
    def test_bank_interleaved_blocks_spread_over_sets(self):
        # Blocks arriving at one bank of a 64-bank block-interleaved L2
        # satisfy block % 64 == bank; without the stride they would
        # alias into n_sets/64 sets.
        a = CacheArray(64 * 16 * 128, 16, 128, index_stride=64)
        used_sets = set()
        for i in range(64):
            block = i * 64 + 5  # all map to bank 5
            a.fill(block)
            used_sets.add((block // 64) % a.n_sets)
        assert len(used_sets) == a.n_sets
        assert a.occupancy() == 64

    def test_stride_one_aliases(self):
        a = CacheArray(64 * 16 * 128, 16, 128, index_stride=1)
        for i in range(64):
            a.fill(i * 64 + 5)
        # Only n_sets/gcd... with stride 1 everything lands in one set
        # here (64 % 64 == 0 pattern), forcing evictions.
        assert a.occupancy() < 64


class ReferenceLRU:
    """Dict-of-lists reference model: each set lists ``[block, dirty]``
    pairs, LRU first."""

    def __init__(self, n_sets, ways, stride):
        self.n_sets, self.ways, self.stride = n_sets, ways, stride
        self.sets = {i: [] for i in range(n_sets)}
        self.hits = self.misses = 0
        self.evictions = self.dirty_evictions = 0

    def index(self, block):
        return (block // self.stride) % self.n_sets

    def find(self, block):
        s = self.sets[self.index(block)]
        for pair in s:
            if pair[0] == block:
                return s, pair
        return s, None

    def fill(self, block, dirty=False):
        s, pair = self.find(block)
        if pair is not None:
            s.remove(pair)
            s.append([block, pair[1] or dirty])
            return None
        victim = None
        if len(s) >= self.ways:
            victim = tuple(s.pop(0))
            self.evictions += 1
            self.dirty_evictions += victim[1]
        s.append([block, dirty])
        return victim

    def lookup(self, block):
        s, pair = self.find(block)
        if pair is None:
            self.misses += 1
            return False
        self.hits += 1
        s.remove(pair)
        s.append(pair)
        return True

    def contains(self, block):
        return self.find(block)[1] is not None

    def is_dirty(self, block):
        pair = self.find(block)[1]
        return pair is not None and pair[1]

    def mark_dirty(self, block):
        s, pair = self.find(block)
        if pair is not None:
            s.remove(pair)
            s.append([block, True])

    def mark_clean(self, block):
        pair = self.find(block)[1]
        if pair is not None:
            pair[1] = False

    def invalidate(self, block):
        s, pair = self.find(block)
        if pair is None:
            return False, False
        s.remove(pair)
        return True, pair[1]


OPS = ("fill", "dirty_fill", "lookup", "contains", "is_dirty",
       "mark_dirty", "mark_clean", "invalidate")


def apply_op(model, op, block):
    if op == "dirty_fill":
        return model.fill(block, dirty=True)
    return getattr(model, op)(block)


@settings(max_examples=100, deadline=None)
@given(
    # min_size lifts hypothesis's average list from ~5 ops to ~40, long
    # enough to fill a set and then reorder it
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 31)),
        min_size=20, max_size=300),
    n_sets=st.sampled_from([1, 8]),
    ways=st.integers(1, 16),
    stride=st.sampled_from([1, 4, 16]),
)
def test_property_matches_reference_lru(ops, n_sets, ways, stride):
    # 32 blocks over eight sets: sets overflow often, and ops reach sets
    # no fill has created yet (with stride 16, six sets never fill).
    # Over one set of up to 16 ways, the L2's associativity, they churn
    # one dict through enough pops and re-inserts to compact it.
    array = CacheArray(n_sets * ways * 64, ways, 64, index_stride=stride)
    ref = ReferenceLRU(n_sets, ways, stride)
    for op, block in ops:
        assert apply_op(array, op, block) == apply_op(ref, op, block), op
        index = ref.index(block)
        assert list(map(list, array._sets[index].items())) == ref.sets[index]
    assert (array.hits, array.misses, array.evictions,
            array.dirty_evictions) == (ref.hits, ref.misses,
                                       ref.evictions, ref.dirty_evictions)
    assert array.occupancy() == sum(len(s) for s in ref.sets.values())
    assert sorted(array.resident_blocks()) == sorted(
        pair[0] for s in ref.sets.values() for pair in s)


def test_unfilled_sets_are_shared_and_read_only():
    a = small_array(sets=4, ways=2)
    assert all(s is EMPTY_SET for s in a._sets)
    for block in range(8):
        assert not a.lookup(block)
        assert not a.contains(block) and not a.is_dirty(block)
        a.mark_dirty(block)
        a.mark_clean(block)
        assert a.invalidate(block) == (False, False)
    assert all(s is EMPTY_SET for s in a._sets)
    assert a.occupancy() == 0 and list(a.resident_blocks()) == []
    assert a.misses == 8
    a.fill(1)
    assert [s is EMPTY_SET for s in a._sets] == [True, False, True, True]
    with pytest.raises(TypeError):
        EMPTY_SET[1] = True


@settings(max_examples=30, deadline=None)
@given(blocks=st.lists(st.integers(0, 10_000), max_size=500))
def test_property_occupancy_never_exceeds_capacity(blocks):
    array = CacheArray(8 * 2 * 64, 2, 64)
    for b in blocks:
        array.fill(b)
    assert array.occupancy() <= array.n_blocks
