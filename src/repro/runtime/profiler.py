"""Op-level profiler for the inference fast path.

Records wall time, call counts, and arena bytes attributed to each named
op executed by :func:`repro.runtime.fastpath.run_model_fast`.  Op names
follow the layer program's :class:`~repro.runtime.program.OpSpec` naming
(``layer{i}.w_q``, ``layer{i}.attn.qk``, ``embed``, ``lm_head``, ...) plus
a few fast-path-only bookkeeping regions (``layer{i}.attn.rope``,
``.cache``, ``.merge``, ``layer{i}.residual``).

``bytes`` counts *workspace allocations* made while the op ran — after the
first few calls warm the arena this column goes to zero, which is exactly
the signal the profiler exists to expose: a hot loop whose bytes column
keeps growing is allocating per step.

Timing uses ``time.perf_counter`` around each op; the per-op overhead
(~100ns) is only paid when a profiler is attached, so unprofiled serving
runs are unaffected.
"""

from __future__ import annotations

import time
from typing import Dict, List

perf_counter = time.perf_counter


class _OpRecord:
    __slots__ = ("calls", "seconds", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.bytes = 0


class OpProfiler:
    """Accumulates per-op wall time / call counts / arena bytes."""

    def __init__(self) -> None:
        self.ops: Dict[str, _OpRecord] = {}

    def add(self, name: str, seconds: float, nbytes: int = 0) -> None:
        record = self.ops.get(name)
        if record is None:
            record = self.ops[name] = _OpRecord()
        record.calls += 1
        record.seconds += seconds
        record.bytes += nbytes

    @property
    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.ops.values())

    def to_dict(self) -> dict:
        return {
            name: {
                "calls": record.calls,
                "seconds": record.seconds,
                "bytes": record.bytes,
            }
            for name, record in sorted(
                self.ops.items(), key=lambda item: -item[1].seconds
            )
        }

    def rollup(self) -> Dict[str, dict]:
        """Per-op totals merged across layers (``layer3.w_q`` -> ``w_q``)."""
        merged: Dict[str, _OpRecord] = {}
        for name, record in self.ops.items():
            key = name.split(".", 1)[1] if name.startswith("layer") else name
            bucket = merged.get(key)
            if bucket is None:
                bucket = merged[key] = _OpRecord()
            bucket.calls += record.calls
            bucket.seconds += record.seconds
            bucket.bytes += record.bytes
        return {
            key: {"calls": rec.calls, "seconds": rec.seconds, "bytes": rec.bytes}
            for key, rec in sorted(merged.items(), key=lambda item: -item[1].seconds)
        }

    def table(self, top: int = 20, merged: bool = True) -> str:
        """Render the hottest ops, one line each, sorted by total time."""
        rows = self.rollup() if merged else self.to_dict()
        total = self.total_seconds or 1.0
        lines: List[str] = [
            f"{'op':<24} {'calls':>8} {'total ms':>10} {'us/call':>9} "
            f"{'%':>6} {'alloc B':>10}"
        ]
        for name, stats in list(rows.items())[:top]:
            per_call = 1e6 * stats["seconds"] / max(stats["calls"], 1)
            lines.append(
                f"{name:<24} {stats['calls']:>8} {1e3 * stats['seconds']:>10.2f} "
                f"{per_call:>9.1f} {100 * stats['seconds'] / total:>5.1f}% "
                f"{stats['bytes']:>10,}"
            )
        return "\n".join(lines)


__all__ = ["OpProfiler"]
