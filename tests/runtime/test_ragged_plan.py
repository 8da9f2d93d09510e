"""The planned ragged forward: generated schedules, resolver checks, slots.

The fast path plans each ragged forward once — each row's cache
destinations come from the sequence's ``kv_slots`` resolver, and staging
slots are found by cache epoch.  These tests drive that machinery with
generated serving schedules (fast path vs Tensor driver, bit for bit,
over every cache flavour), check that the resolver refuses a bad row
before any byte is written, and pin the slot-record rules.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PoolExhaustedError, ServingError, ShapeError
from repro.nn import ModelKVCache
from repro.runtime import Workspace, fastpath
from repro.serving import KVBlockPool, PagedKVStore

from .test_fastpath import TINY, _replay, build_tiny

#: Longest history a generated sequence reaches (TINY's RoPE table is 64).
_MAX_LEN = 48


@lru_cache(maxsize=None)
def _model(flavor="dense"):
    return build_tiny(flavor)


@st.composite
def ragged_schedules(draw):
    """A serving-like op list for :func:`_replay`.

    Each step may open new sequences, then runs one ragged forward over a
    random subset of the live ones in random order (single-token decode
    rows or multi-token chunks) on variant A or, now and then, variant B
    (which grows the caches behind A's staging), then may roll one back
    and may finish one.  Rows and lengths grow past the staging's
    initial capacities.
    """
    ops, live, opened = [], {}, 0
    for _ in range(draw(st.integers(2, 8), label="steps")):
        arrivals = draw(st.integers(0 if live else 1, 3), label="arrivals")
        for _ in range(arrivals):
            name = f"s{opened}"
            opened += 1
            ops.append(("open", name, None))
            live[name] = 0
        order = draw(st.permutations(sorted(live)), label="order")
        rows = []
        for name in order[: draw(st.integers(1, len(order)), label="rows")]:
            room = _MAX_LEN - live[name]
            if room < 1:
                continue
            count = draw(st.one_of(st.just(1), st.integers(1, min(room, 20))),
                         label="new tokens")
            rows.append((name, count))
            live[name] += count
        if rows:
            runner = draw(st.sampled_from("AAB"), label="variant")
            ops.append(("fwd", runner, rows))
        rollable = sorted(name for name, length in live.items() if length >= 2)
        if rollable and draw(st.booleans(), label="rollback"):
            name = draw(st.sampled_from(rollable), label="rolled")
            length = draw(st.integers(1, live[name] - 1), label="kept")
            ops.append(("trunc", name, length))
            live[name] = length
        if len(live) > 1 and draw(st.booleans(), label="finish"):
            name = draw(st.sampled_from(sorted(live)), label="finished")
            ops.append(("free", name))
            del live[name]
    return ops


def _new_cache_factory(flavour: str):
    if flavour == "growable":
        return lambda prompt: ModelKVCache(TINY.n_layers)
    store_cls = KVBlockPool if flavour == "pooled" else PagedKVStore
    store = store_cls(TINY, n_blocks=256, block_tokens=4)
    return lambda prompt: store.allocate_sequence()


@pytest.mark.parametrize("flavour", ("growable", "pooled", "paged"))
@settings(max_examples=20, deadline=None)
@given(schedule=ragged_schedules())
def test_generated_schedules_match_tensor_path(flavour, schedule):
    """Every logits row of a generated schedule, fast path vs Tensor
    driver, bit for bit.  The model (and so its fast-path staging) is
    shared across examples, so slots left behind by earlier schedules'
    dead caches are part of what each run must see through."""
    runners = {"A": _model(), "B": _model("decomposed")}
    with fastpath.disabled():
        reference = _replay(runners, _new_cache_factory(flavour), schedule)
    fast = _replay(runners, _new_cache_factory(flavour), schedule)
    assert len(fast) == len(reference)
    for expected, got in zip(reference, fast):
        np.testing.assert_array_equal(expected, got)


# -- the resolver refuses bad rows before anything is written -----------------

def _feed(cache, ids):
    cache.reserve(len(ids))
    cache.note_tokens(ids)


def _pair(store):
    """A healthy row ``a`` and a row ``b`` holding one full page (sealed
    in a paged store)."""
    a, b = store.allocate_sequence(), store.allocate_sequence()
    for cache, ids in ((a, [1, 2, 3]), (b, [4, 5, 6, 7])):
        _feed(cache, ids)
        _model().runtime.forward_ragged(np.array([ids]), [cache], [len(ids)])
    return a, b


def _overflow(store, a, b):
    _feed(a, [9])  # b reserves nothing: its next position has no page
    return PoolExhaustedError


def _sealed_page(store, a, b):
    _feed(a, [9])
    for layer in b.layers:  # bypass the forking rollback
        layer.truncate(2)
    return ServingError


def _shared_page(store, a, b):
    _feed(a, [9])
    store.acquire_sequence([4, 5, 6, 7, 8])  # shares b's sealed page
    for layer in b.layers:
        layer.truncate(2)
    return ServingError


def _freed(store, a, b):
    _feed(a, [9])
    b.free()
    return ServingError


@pytest.mark.parametrize("store_cls, case", [
    pytest.param(store_cls, case, id=f"{name}-{case.__name__[1:]}")
    for store_cls, name in ((KVBlockPool, "pooled"), (PagedKVStore, "paged"))
    for case in (_overflow, _sealed_page, _shared_page, _freed)
    # A private block pool has no sealed or shared pages.
    if store_cls is PagedKVStore or case in (_overflow, _freed)
])
def test_resolver_rejects_row_before_any_write(store_cls, case):
    store = store_cls(TINY, n_blocks=16, block_tokens=4)
    a, b = _pair(store)
    error = case(store, a, b)
    keys, values = store.keys.copy(), store.values.copy()
    lengths = [[layer.seq_len for layer in cache.layers] for cache in (a, b)]
    with pytest.raises(error):
        b.kv_slots(1, store.kv_heads, store.head_dim)
    with pytest.raises(error):
        _model().runtime.forward_ragged(np.array([[9], [10]]), [a, b], [1, 1])
    np.testing.assert_array_equal(store.keys, keys)
    np.testing.assert_array_equal(store.values, values)
    assert [[layer.seq_len for layer in cache.layers] for cache in (a, b)] == lengths


def test_layer_lengths_must_agree():
    """A row whose layers disagree on length has no single set of next
    positions: the resolver raises ShapeError and nothing is written."""
    model = _model()
    cache = ModelKVCache(TINY.n_layers)
    model.forward_cached(np.array([[1, 2, 3]]), cache)
    cache.layers[1].truncate(2)
    with pytest.raises(ShapeError, match="disagree"):
        model.runtime.forward_ragged(np.array([[4]]), [cache], [1])
    assert [layer.seq_len for layer in cache.layers] == [3, 2]


def test_rows_sharing_a_store_are_one_write_group():
    """The resolver names the backing store: pooled rows share theirs, a
    growable cache is its own, and destinations follow the block table."""
    pool = KVBlockPool(TINY, n_blocks=8, block_tokens=4)
    first, second = pool.allocate_sequence(), pool.allocate_sequence()
    first.reserve(6)
    second.reserve(2)
    heads, head_dim = pool.kv_heads, pool.head_dim
    target = first.kv_slots(6, heads, head_dim)
    assert target.store is pool and second.kv_slots(2, heads, head_dim).store is pool
    np.testing.assert_array_equal(target.blocks, [first.block_table[0]] * 4
                                  + [first.block_table[1]] * 2)
    np.testing.assert_array_equal(target.slots, [0, 1, 2, 3, 0, 1])
    growable = ModelKVCache(TINY.n_layers)
    own = growable.kv_slots(3, heads, head_dim)
    assert own.store is growable
    assert own.keys[1] is growable.layers[1]._keys
    np.testing.assert_array_equal(own.slots, [0, 1, 2])


# -- staging slot records ------------------------------------------------------

def test_stage_lookup_keys_slots_by_epoch():
    stage = Workspace().stage("kv0", 4, 1, 4, 2)
    a, b, c, gone = object(), object(), object(), object()
    stage.records[:4] = [(a, 3), (b, 5), (gone, 2), (c, 1)]
    # b moved up to row 0, a to row 1; c's record is stale; d is new.
    d = object()
    assert stage.lookup([(b, 5), (a, 3), (c, 2), (d, 0)]) == [1, 0, None, None]
    # Every wanted epoch's record is released, so restaging the rows
    # leaves each epoch in one slot; unrelated records stay.
    assert stage.records == [None, None, (gone, 2), None]
