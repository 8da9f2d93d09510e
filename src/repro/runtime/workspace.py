"""Preallocated buffer arena for the inference fast path.

The fast-path kernels in :mod:`repro.runtime.fastpath` never allocate
result arrays in the hot loop: every intermediate — projection outputs,
rotated queries, attention scores, softmax statistics — is written with
``out=`` into a named buffer owned by a :class:`Workspace`.

Each name owns one flat float32 backing array.  :meth:`Workspace.buf`
hands out a C-contiguous prefix view of it in the requested shape; a
larger request grows the array geometrically (doubling), a smaller one
reuses it, and nothing is ever shrunk or evicted.  So the arena's size is
bounded by the largest shape each name has seen — not by the number of
distinct batch shapes a server meets — and a steady-state decode loop
touches only existing memory.  A prefix view has the same layout and
alignment as a freshly allocated array of its shape, so the GEMMs writing
into it stay on the BLAS path and every result is bit-identical.  The
price is that two live views under one name share memory: callers give
every simultaneously live buffer its own name, and fully overwrite what
they read back.

Quantized projections additionally use :meth:`Workspace.cache`: a
*content-tagged* buffer in the same per-name store, under an explicit
byte budget (:data:`DEFAULT_DEQUANT_CACHE_BYTES`).  Dequantized weights
are written once and reused across decode steps as long as their tag (the
identity of the int8 grid + scales, and the shape) is unchanged; when the
budget is exhausted the kernels fall back to streaming blockwise
dequantization through ordinary :meth:`Workspace.buf` scratch, bounded by
the largest single block.  The budget is what keeps the dequant footprint
a tunable scratch cost rather than an unconditional fp32 copy of every
quantized weight.

Ragged attention keeps each layer's K/V history in a persistent
:meth:`Workspace.stage` pair (a :class:`KVStage`): staging slots keyed by
cache epoch, each recording how many positions of that cache it mirrors,
so a decode step copies only its new token instead of the whole history,
and a row that moved batch position copies its slot over instead of
re-reading its cache.

``allocations`` / ``bytes_allocated`` count *backing-array* creations
only.  They are the regression surface for the zero-allocation-per-step
contract: once the decode loop is warm, both counters must stop moving.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Default budget for the tag-validated dequantized-weight cache.  Sized so
#: every model in the registry that fits this repo's CPU-scale serving also
#: fits its dequantized working set; cut it (down to 0) to trade decode
#: throughput for strictly-bounded streaming dequant scratch.
DEFAULT_DEQUANT_CACHE_BYTES = 64 << 20


def _grow(capacity: int, needed: int) -> int:
    """``capacity`` doubled (from 1) until it holds ``needed``."""
    capacity = max(capacity, 1)
    while capacity < needed:
        capacity *= 2
    return capacity


def _resize(array: Optional[np.ndarray], size: int) -> int:
    """Elements of the array that replaces ``array`` to hold ``size``: exact
    on first use, else ``array``'s size doubled until it fits."""
    return size if array is None else _grow(array.size, size)


class KVStage:
    """K/V staging slots of one attention layer.

    ``keys`` / ``values`` are zero-initialized ``(rows, heads, width,
    head_dim)`` capacity buffers.  ``records[s]`` is ``(epoch, length)``
    when slot ``s`` holds the first ``length`` positions of the cache whose
    epoch is ``epoch`` (see :mod:`repro.nn.kv_cache`), else None.  Slots
    are keyed by the epoch object itself, and one epoch occupies at most
    one slot.
    """

    __slots__ = ("keys", "values", "records")

    def __init__(self, keys: np.ndarray, values: np.ndarray, records: list) -> None:
        self.keys = keys
        self.values = values
        self.records: List[Optional[Tuple[object, int]]] = records

    def lookup(self, wanted: List[Tuple[object, int]]) -> List[Optional[int]]:
        """The slot holding each wanted ``(epoch, length)``, else None.

        Every record naming a wanted epoch is cleared — found or stale —
        so once the caller restages the wanted rows into slots
        ``[0, len(wanted))`` each epoch again occupies one slot at most.
        Slot contents are untouched: the caller copies found slots before
        writing any.
        """
        records = self.records
        where = {record[0]: slot for slot, record in enumerate(records)
                 if record is not None}
        found: List[Optional[int]] = []
        for epoch, length in wanted:
            slot = where.get(epoch)
            if slot is not None:
                stale = records[slot][1] != length
                records[slot] = None
                if stale:
                    slot = None
            found.append(slot)
        return found


class Workspace:
    """Named reusable float32 buffers with allocation accounting."""

    __slots__ = ("_arrays", "_cached", "_stages", "cache_limit", "cache_bytes",
                 "allocations", "bytes_allocated", "stage_hits", "stage_misses")

    def __init__(self, cache_limit: Optional[int] = None) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        # Dequant-cache names: the tag of the last fill and its view.
        self._cached: Dict[str, Tuple[tuple, np.ndarray]] = {}
        self._stages: Dict[tuple, KVStage] = {}
        self.cache_limit = (
            DEFAULT_DEQUANT_CACHE_BYTES if cache_limit is None else cache_limit
        )
        self.cache_bytes = 0
        self.allocations = 0
        self.bytes_allocated = 0
        # Ragged rows whose cache was found staged (copied only new
        # tokens, after a slot move if it changed batch position) vs rows
        # that re-read their cache history.
        self.stage_hits = 0
        self.stage_misses = 0

    @property
    def buffers(self) -> int:
        """Backing arrays held: one per name, plus each stage's pair."""
        return len(self._arrays) + 2 * len(self._stages)

    def _allocate(self, shape, zero: bool = False) -> np.ndarray:
        array = (np.zeros if zero else np.empty)(shape, dtype=np.float32)
        self.allocations += 1
        self.bytes_allocated += array.nbytes
        return array

    def buf(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """A C-contiguous ``shape``-d prefix view of the array under ``name``.

        Contents are whatever the previous use left behind; every caller
        must fully overwrite the region it reads back.
        """
        size = prod(shape)
        array = self._arrays.get(name)
        if array is None or array.size < size:
            array = self._allocate(_resize(array, size))
            self._arrays[name] = array
        return array[:size].reshape(shape)

    def cache(
        self, name: str, shape: Tuple[int, ...], tag: tuple
    ) -> Optional[Tuple[np.ndarray, bool]]:
        """A content-tagged buffer under the dequant-cache budget.

        Returns ``(array, fresh)`` — ``fresh`` is True when the caller must
        (re)fill the buffer: on first use and whenever ``tag`` or ``shape``
        differs from the last fill's.  With both unchanged the previous
        contents are valid, so a warm decode loop skips the fill entirely.
        Returns ``None`` when growing the name's array would exceed
        ``cache_limit``; callers then stream through :meth:`buf` scratch.

        Tags are identity-based by convention (``id`` of the source
        arrays): the cache assumes quantized grids are immutable once
        built — rebinding to new arrays retags, in-place mutation does
        not.  Entries are never evicted; per-projection structural names
        keep the entry count bounded by the model's projection count, and
        a name whose shape changes (a model decomposed in place) grows its
        one array, with the growth charged to the budget.
        """
        entry = self._cached.get(name)
        if entry is not None and entry[1].shape == shape:
            stored, view = entry
            self._cached[name] = (tag, view)
            return view, stored != tag
        size = prod(shape)
        array = self._arrays.get(name)
        have = 0 if array is None else array.size
        if size > have:
            grown = _resize(array, size) - have
            if self.cache_bytes + 4 * grown > self.cache_limit:
                return None
            self.cache_bytes += 4 * grown
        view = self.buf(name, shape)
        self._cached[name] = (tag, view)
        return view, True

    def stage(
        self, name: str, rows: int, heads: int, width: int, head_dim: int
    ) -> KVStage:
        """The staging pair under ``name``, holding at least ``rows`` slots
        of ``width`` positions.

        Both capacities double from use — never from a model's maximum
        sequence length — and a grow copies the old slots and records
        over, so staged history survives it.  Grown regions start as exact
        0.0f; positions past a row's valid length hold stale finite values
        that callers must mask.
        """
        key = (name, heads, head_dim)
        stage = self._stages.get(key)
        if stage is not None:
            have_rows, _, have_width, _ = stage.keys.shape
            if rows <= have_rows and width <= have_width:
                return stage
        else:
            have_rows = have_width = 0
        shape = (_grow(have_rows, rows), heads, _grow(have_width, width), head_dim)
        keys = self._allocate(shape, zero=True)
        values = self._allocate(shape, zero=True)
        records: List[Optional[Tuple[object, int]]] = [None] * shape[0]
        if stage is not None:
            keys[:have_rows, :, :have_width] = stage.keys
            values[:have_rows, :, :have_width] = stage.values
            records[:have_rows] = stage.records
        stage = KVStage(keys, values, records)
        self._stages[key] = stage
        return stage

    def __repr__(self) -> str:
        return (
            f"Workspace(buffers={self.buffers}, "
            f"allocations={self.allocations}, "
            f"bytes={self.bytes_allocated:,})"
        )


__all__ = ["DEFAULT_DEQUANT_CACHE_BYTES", "KVStage", "Workspace"]
