"""Per-layer collection for traced runs, attached from outside ``src/``.

- :class:`ForwardTimer` stands in for the served model and times every
  ``forward_ragged`` call (the ``models``/``runtime`` layer);
- :class:`Probes` reads each ``StepReport``, samples the engine's paged
  store after every step and times ``acquire_sequence`` (``serving.paged``),
  reads ``ShardedLlama.comm_stats()`` (``parallel``) and attaches the fast
  path's ``OpProfiler`` to the served context (``runtime.fastpath``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.runtime import fastpath

# Op names the fast path's OpProfiler.rollup() reports for a Llama model.
OP_NAMES = (
    "embed", "attn_norm", "w_q", "w_k", "w_v", "attn.rope", "attn.cache",
    "attn.expand", "attn.qk", "attn.softmax", "attn.pv", "attn.merge", "w_so",
    "residual", "mlp_norm", "w_g", "w_u", "mlp.act", "w_d", "final_norm", "lm_head",
)


class ForwardTimer:
    """Transparent proxy over a model facade that times ``forward_ragged``."""

    def __init__(self, model) -> None:
        self._model = model
        self.pending_s = 0.0  # forward seconds since the last step ended

    def __getattr__(self, name):
        return getattr(self._model, name)

    def forward_ragged(self, tokens, caches, new_lengths):
        started = perf_counter()
        out = self._model.forward_ragged(tokens, caches, new_lengths)
        self.pending_s += perf_counter() - started
        return out


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Probes:
    """Everything a traced pass records besides the end-to-end samples."""

    def __init__(self, engine, served_context, sharded=None) -> None:
        self.timer: ForwardTimer = engine.model
        self.n_layers = engine.model.config.n_layers
        self.sharded = sharded
        self.step_model_s: List[float] = []
        self.mixed: List[bool] = []
        self.used_pages: List[int] = []
        self.cached_pages: List[int] = []
        self.acquire_s: List[float] = []
        pool = engine.pool
        self._pool = pool
        self._stores = list(getattr(pool, "pools", [pool]))
        self._counters0 = self._counters()
        acquire = pool.acquire_sequence

        def timed_acquire(*args, **kwargs):
            started = perf_counter()
            cache = acquire(*args, **kwargs)
            self.acquire_s.append(perf_counter() - started)
            return cache

        pool.acquire_sequence = timed_acquire  # the engine looks it up per admission
        self._comm0 = sharded.comm_stats().channel("all_gather") if sharded else None
        self._context = served_context
        self.profiler = fastpath.enable_profiling(served_context)

    def _counters(self) -> Dict[str, int]:
        return {
            key: int(getattr(self._pool, key))
            for key in ("prefix_lookups", "prefix_hits", "shared_tokens")
        }

    def on_step(self, report) -> None:
        self.step_model_s.append(self.timer.pending_s)
        self.timer.pending_s = 0.0
        self.mixed.append(report.decode_rows > 0 and report.prefill_rows > 0)
        store = self._stores[0]
        self.used_pages.append(store.used_blocks)
        self.cached_pages.append(store.cached_blocks)

    def close(self) -> None:
        fastpath.disable_profiling(self._context)

    def metrics(self, steps, prefill_tokens_total: int) -> Dict[str, float]:
        """Per-layer metrics for the ``engine`` (model side), ``kv``,
        ``comm`` and ``op`` layers.  ``steps`` are the generator's
        :class:`~loadgen.StepSample` records, aligned with ``on_step`` calls."""
        out: Dict[str, float] = {}
        busy = [i for i, s in enumerate(steps) if not s.report.idle]
        forward_s = float(sum(self.step_model_s))
        wall_s = float(sum(steps[i].wall_s for i in busy))
        out["engine.sched_frac"] = (wall_s - forward_s) / wall_s if wall_s else 0.0
        out["engine.mixed_step_frac"] = (
            sum(self.mixed[i] for i in busy) / len(busy) if busy else 0.0
        )
        decode_only = [
            i for i in busy
            if steps[i].report.prefill_rows == 0 and steps[i].report.decode_rows > 0
        ]
        decode_rows = sum(steps[i].report.decode_rows for i in decode_only)
        out["model.forward_s"] = forward_s
        out["model.decode_ms_per_row"] = (
            1e3 * sum(self.step_model_s[i] for i in decode_only) / decode_rows
            if decode_rows else 0.0
        )
        out["model.mixed_step_ms_p50"] = 1e3 * _p(
            [self.step_model_s[i] for i in busy if self.mixed[i]], 50
        )

        counters = self._counters()
        delta = {k: counters[k] - self._counters0[k] for k in counters}
        lookups = delta["prefix_lookups"]
        out["kv.hit_rate"] = delta["prefix_hits"] / lookups if lookups else 0.0
        shared = delta["shared_tokens"]
        total = shared + prefill_tokens_total
        out["kv.prefill_saved_frac"] = shared / total if total else 0.0
        peak = max(self.used_pages, default=0)
        out["kv.pages_used_peak"] = float(peak)
        out["kv.pages_used_mean"] = float(np.mean(self.used_pages)) if self.used_pages else 0.0
        out["kv.cached_pages_mean"] = (
            float(np.mean(self.cached_pages)) if self.cached_pages else 0.0
        )
        out["kv.acquire_us_p50"] = 1e6 * _p(self.acquire_s, 50)
        page_bytes = sum(s.bytes_allocated for s in self._stores) / self._stores[0].n_blocks
        out["mem.kv_mb_peak"] = peak * page_bytes / 1e6

        if self.sharded is not None:
            gather = self.sharded.comm_stats().channel("all_gather")
            calls = gather["calls"] - self._comm0["calls"]
            payload = gather["payload_bytes"] - self._comm0["payload_bytes"]
            elapsed = gather["elapsed_s"] - self._comm0["elapsed_s"]
        else:
            calls = payload = elapsed = 0
        out["comm.all_gather.calls"] = float(calls)
        out["comm.all_gather.mb"] = payload / 1e6
        out["comm.all_gather.s"] = float(elapsed)
        out["comm.frac"] = elapsed / forward_s if forward_s else 0.0

        rollup = self.profiler.rollup()
        for name in OP_NAMES:
            out[f"op.{name}.s"] = float(rollup.get(name, {}).get("seconds", 0.0))
        per_layer: Dict[int, float] = {}
        for name, record in self.profiler.ops.items():
            if name.startswith("layer"):
                index = int(name[len("layer"):].split(".", 1)[0])
                per_layer[index] = per_layer.get(index, 0.0) + record.seconds
        for index in range(self.n_layers):
            out[f"op.layer{index}.s"] = per_layer.get(index, 0.0)
        out["op.alloc_bytes"] = float(sum(r.bytes for r in self.profiler.ops.values()))
        out["op.coverage"] = self.profiler.total_seconds / forward_s if forward_s else 0.0
        return out
