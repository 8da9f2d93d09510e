"""Preallocated buffer arena for the inference fast path.

The fast-path kernels in :mod:`repro.runtime.fastpath` never allocate
result arrays in the hot loop: every intermediate — projection outputs,
rotated queries, attention scores, softmax statistics — is written with
``out=`` into a named buffer owned by a :class:`Workspace`.  Buffers are
keyed by ``(name, shape, dtype)``, so a steady-state decode loop (constant
shapes step after step) touches only existing memory; a new shape (the
prefill, a differently composed ragged batch) materializes its own buffer
once and reuses it from then on.

Sequence-length-dependent buffers go through :meth:`Workspace.seq_buf`,
which backs the designated axis with geometrically grown capacity (the
same strategy as :class:`~repro.nn.kv_cache.LayerKVCache`) and returns an
exact-shape basic-slice view.  Views keep the backing buffer's unit inner
stride, so the GEMMs writing into them stay on the BLAS path — the bit
pattern of every result is identical to a freshly allocated output.

Quantized projections additionally use :meth:`Workspace.cache`: a
*content-tagged* buffer region with an explicit byte budget
(:data:`DEFAULT_DEQUANT_CACHE_BYTES`).  Dequantized weights are written
once and reused across decode steps as long as their tag (the identity of
the int8 grid + scales) is unchanged; when the budget is exhausted the
kernels fall back to streaming blockwise dequantization through ordinary
:meth:`Workspace.buf` scratch, bounded by the largest single block.  The
budget is what keeps the dequant footprint a tunable scratch cost rather
than an unconditional fp32 copy of every quantized weight.

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

from typing import Dict, List, Optional, Tuple

import numpy as np

_INITIAL_CAPACITY = 32

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
    """Named reusable buffers with allocation accounting."""

    __slots__ = ("_exact", "_grown", "_cache", "_stages", "cache_limit",
                 "cache_bytes", "allocations", "bytes_allocated",
                 "stage_hits", "stage_misses")

    def __init__(self, cache_limit: Optional[int] = None) -> None:
        self._exact: Dict[tuple, np.ndarray] = {}
        self._grown: Dict[tuple, np.ndarray] = {}
        self._cache: Dict[tuple, Tuple[np.ndarray, tuple]] = {}
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

    def _allocate(self, shape: Tuple[int, ...], dtype, zero: bool) -> np.ndarray:
        array = np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
        self.allocations += 1
        self.bytes_allocated += array.nbytes
        return array

    def buf(self, name: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """The exact-shape buffer registered under ``(name, shape, dtype)``.

        Contents are whatever the previous use left behind; every caller
        must fully overwrite the region it reads back.
        """
        key = (name, shape, np.dtype(dtype).str)
        array = self._exact.get(key)
        if array is None:
            array = self._allocate(shape, dtype, zero=False)
            self._exact[key] = array
        return array

    def cache(
        self,
        name: str,
        shape: Tuple[int, ...],
        tag: tuple,
        dtype=np.float32,
    ) -> Optional[Tuple[np.ndarray, bool]]:
        """A content-tagged buffer under the dequant-cache budget.

        Returns ``(array, fresh)`` — ``fresh`` is True when the caller must
        (re)fill the buffer: on first allocation and whenever ``tag``
        differs from the tag recorded at the last fill.  With an unchanged
        tag the previous contents are valid, so a warm decode loop skips
        the fill entirely.  Returns ``None`` when allocating would exceed
        ``cache_limit``; callers then stream through :meth:`buf` scratch.

        Tags are identity-based by convention (``id`` of the source
        arrays): the cache assumes quantized grids are immutable once
        built — rebinding to new arrays retags, in-place mutation does
        not.  Entries are never evicted; per-projection structural names
        keep the entry count bounded by the model's projection count.
        """
        key = (name, shape, np.dtype(dtype).str)
        entry = self._cache.get(key)
        if entry is not None:
            array, stored = entry
            if stored != tag:
                self._cache[key] = (array, tag)
                return array, True
            return array, False
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if self.cache_bytes + nbytes > self.cache_limit:
            return None
        array = self._allocate(shape, dtype, zero=False)
        self.cache_bytes += nbytes
        self._cache[key] = (array, tag)
        return array, True

    def seq_buf(
        self,
        name: str,
        shape: Tuple[int, ...],
        axis: int,
        dtype=np.float32,
        zero: bool = False,
    ) -> np.ndarray:
        """A ``shape``-d view of a buffer grown geometrically along ``axis``.

        ``zero`` zero-fills the backing array at (re)allocation only: grown
        regions start as exact 0.0f, never ``np.empty`` garbage.  Stale
        values from earlier (shorter) uses are *not* re-zeroed — callers
        relying on zeros beyond their write extent must mask those
        positions downstream (the ragged attention path does: masked
        positions get an exact-zero softmax weight, and ``0.0 * finite``
        is exactly ``0.0``, so stale finite values cannot perturb a bit).
        """
        axis = axis % len(shape)
        fixed = shape[:axis] + shape[axis + 1 :]
        key = (name, fixed, axis, np.dtype(dtype).str)
        needed = shape[axis]
        array = self._grown.get(key)
        if array is None or array.shape[axis] < needed:
            capacity = _grow(
                _INITIAL_CAPACITY if array is None else array.shape[axis], needed
            )
            full = shape[:axis] + (capacity,) + shape[axis + 1 :]
            array = self._allocate(full, dtype, zero=zero)
            self._grown[key] = array
        index = (slice(None),) * axis + (slice(0, needed),)
        return array[index]

    def stage(
        self,
        name: str,
        rows: int,
        heads: int,
        width: int,
        head_dim: int,
        dtype=np.float32,
    ) -> KVStage:
        """The staging pair under ``name``, holding at least ``rows`` slots
        of ``width`` positions.

        Both capacities double from use — never from a model's maximum
        sequence length — and a grow copies the old slots and records
        over, so staged history survives it.  Grown regions start as exact
        0.0f; as with :meth:`seq_buf`, positions past a row's valid length
        hold stale finite values that callers must mask.
        """
        key = (name, heads, head_dim, np.dtype(dtype).str)
        stage = self._stages.get(key)
        if stage is not None:
            have_rows, _, have_width, _ = stage.keys.shape
            if rows <= have_rows and width <= have_width:
                return stage
        else:
            have_rows = have_width = 0
        shape = (_grow(have_rows, rows), heads, _grow(have_width, width), head_dim)
        keys = self._allocate(shape, dtype, zero=True)
        values = self._allocate(shape, dtype, zero=True)
        records: List[Optional[Tuple[object, int]]] = [None] * shape[0]
        if stage is not None:
            keys[:have_rows, :, :have_width] = stage.keys
            values[:have_rows, :, :have_width] = stage.values
            records[:have_rows] = stage.records
        stage = KVStage(keys, values, records)
        self._stages[key] = stage
        return stage

    def __repr__(self) -> str:
        buffers = (len(self._exact) + len(self._grown) + len(self._cache)
                   + 2 * len(self._stages))
        return (
            f"Workspace(buffers={buffers}, "
            f"allocations={self.allocations}, "
            f"bytes={self.bytes_allocated:,})"
        )


__all__ = ["DEFAULT_DEQUANT_CACHE_BYTES", "KVStage", "Workspace"]
