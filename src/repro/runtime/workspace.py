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

    __slots__ = ("_arrays", "_stages", "allocations", "bytes_allocated",
                 "stage_hits", "stage_misses")

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._stages: Dict[tuple, KVStage] = {}
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


__all__ = ["KVStage", "Workspace"]
